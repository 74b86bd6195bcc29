"""Offline mapper benchmark: cold mapping of the Table I models.

Maps every Table I model from scratch — empty process memos, on-disk
mapping-file store disabled — on the Table II SoC (16 MiB cache) and on a
2 MiB SoC, the fleet's budget device.  One pass is the full offline phase
of Figure 6 for all eight models: block planning, the subspace solves at
every cache-usage level, the LBM candidates and the MCT assembly.

Rates are models mapped per second (best of ``--repeats`` passes).  Each
row also carries the mapper's deterministic work counters for one pass
(:func:`repro.mapper_counters`), so a change in how much the solver does
shows up without a profiler.

Emits ``BENCH_mapper.json``::

    {
      "meta": {...},
      "socs": {
        "table2-16MiB": {"models": 8, "wall_s": t, "models_per_s": r,
                         "counters": {...}},
        ...
      }
    }

Usage::

    PYTHONPATH=src python benchmarks/bench_mapper.py [--out ...]
    python benchmarks/check_regression.py mapper  # CI guard
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict

from repro import clear_prepared_caches, mapper_counters
from repro.config import MiB, SoCConfig
from repro.core.mapper.layer_mapper import MAPPING_CACHE_DIR_ENV, LayerMapper
from repro.models.zoo import load_benchmark_suite

SOCS: Dict[str, SoCConfig] = {
    "table2-16MiB": SoCConfig(),
    "2MiB": SoCConfig().with_cache_bytes(2 * MiB),
}


def cold_pass(soc: SoCConfig) -> float:
    """Seconds to map every Table I model on ``soc`` with empty memos."""
    graphs = load_benchmark_suite()
    clear_prepared_caches()
    start = time.perf_counter()
    mapper = LayerMapper(soc)
    for graph in graphs:
        mapper.map_model(graph)
    return time.perf_counter() - start


def bench_soc(soc: SoCConfig, repeats: int) -> dict:
    best = min(cold_pass(soc) for _ in range(repeats))
    models = len(load_benchmark_suite())
    return {
        "models": models,
        "wall_s": best,
        "models_per_s": models / best,
        "counters": mapper_counters(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_mapper.json",
                        help="output JSON path")
    parser.add_argument("--repeats", type=int, default=5,
                        help="cold passes per SoC (best is kept)")
    args = parser.parse_args(argv)

    # Cold means cold: no mapping file may come from disk.
    os.environ[MAPPING_CACHE_DIR_ENV] = ""
    report = {
        "meta": {
            "repeats": args.repeats,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "socs": {},
    }
    for name, soc in SOCS.items():
        entry = bench_soc(soc, args.repeats)
        report["socs"][name] = entry
        print(
            f"{name:<14} {entry['models']} models in "
            f"{entry['wall_s']:.3f}s   {entry['models_per_s']:>7.1f} "
            f"models/s   {entry['counters']['tiles_evaluated']:,} tiles"
        )
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
