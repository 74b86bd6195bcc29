"""Tests for the CPU co-run future-work study."""

import pytest

from repro.cache.sliced_cache import SlicedSharedCache
from repro.config import CacheConfig
from repro.experiments.cpu_corun import (
    DEFAULT_CPU_MIX,
    CPUProgram,
    format_corun,
    run_cpu_corun_study,
    run_cpu_program,
)
from repro.memory.dram import MainMemory

pytestmark = [pytest.mark.slow, pytest.mark.experiment]


class TestCPUProgram:
    def test_rejects_bad_locality(self):
        with pytest.raises(ValueError):
            CPUProgram("x", 1024, locality=1.5)

    def test_rejects_empty_working_set(self):
        with pytest.raises(ValueError):
            CPUProgram("x", 0, locality=0.5)


class TestRunCPUProgram:
    def _cache(self, npu_ways=12):
        return SlicedSharedCache(CacheConfig(npu_ways=npu_ways),
                                 MainMemory())

    def test_local_program_hits(self):
        cache = self._cache()
        program = CPUProgram("local", 64 * 1024, locality=0.95)
        hit_rate = run_cpu_program(cache, program, 5000)
        assert hit_rate > 0.7

    def test_streaming_program_misses(self):
        cache = self._cache()
        program = CPUProgram("stream", 64 * 1024 * 1024, locality=0.0)
        hit_rate = run_cpu_program(cache, program, 5000)
        assert hit_rate < 0.2

    def test_more_cpu_ways_help_midsize_sets(self):
        # A cyclically-rewalked 2 MiB set thrashes a 1 MiB CPU subspace
        # (15/16 NPU ways) but fits a 12 MiB one (4/16 NPU ways).  The
        # access count covers the working set several times so capacity,
        # not cold misses, dominates.
        tight = self._cache(npu_ways=15)
        roomy = self._cache(npu_ways=4)
        program = CPUProgram("mid", 2 * 1024 * 1024, locality=0.0)
        accesses = 3 * (2 * 1024 * 1024 // 64)
        assert run_cpu_program(roomy, program, accesses) > \
            run_cpu_program(tight, program, accesses) + 0.2

    def test_deterministic_by_seed(self):
        program = CPUProgram("mid", 256 * 1024, locality=0.5)
        a = run_cpu_program(self._cache(), program, 2000, seed=3)
        b = run_cpu_program(self._cache(), program, 2000, seed=3)
        assert a == b


class TestStudy:
    def test_rows_and_format(self):
        rows = run_cpu_corun_study(
            npu_way_options=(8, 14),
            accesses_per_program=3000,
            scale=0.1,
        )
        assert len(rows) == 2
        assert all(r.dnn_latency_ms > 0 for r in rows)
        text = format_corun(rows)
        assert "8/8" in text and "14/2" in text
        for program in DEFAULT_CPU_MIX:
            assert program.name in text

    def test_tradeoff_direction(self):
        rows = run_cpu_corun_study(
            npu_way_options=(8, 14),
            accesses_per_program=5000,
            scale=0.1,
        )
        few_npu, many_npu = rows
        # The cache-friendly CPU program should not get *better* when its
        # subspace shrinks from 8 to 2 ways.
        friendly = "kernel-build"
        assert many_npu.cpu_hit_rates[friendly] <= \
            few_npu.cpu_hit_rates[friendly] + 0.05

    def test_more_npu_ways_do_not_slow_dnns(self):
        rows = run_cpu_corun_study(
            npu_way_options=(8, 12, 14),
            accesses_per_program=10_000,
            scale=0.15,
        )
        latencies = [r.dnn_latency_ms for r in rows]
        assert latencies[0] >= latencies[-1] - 0.5
        # Every row reports all CPU programs.
        for row in rows:
            assert len(row.cpu_hit_rates) == 3
