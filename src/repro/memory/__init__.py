"""DRAM substrate: functional backing store and bandwidth models."""

from .dram import DRAMTimingModel, MainMemory

__all__ = [
    "MainMemory",
    "DRAMTimingModel",
]
