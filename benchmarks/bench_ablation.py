"""Benchmarks: ablations of CaMDN's design choices (way partition, LBM
budget, usage levels, multicast; see :mod:`repro.experiments.ablation`)."""

from __future__ import annotations

import pytest

from repro.experiments.ablation import (
    format_ablation,
    multicast_traffic_savings,
    run_lbm_budget_ablation,
    run_usage_level_ablation,
    run_way_partition_ablation,
)


@pytest.mark.benchmark(group="ablation")
def test_way_partition_ablation(benchmark):
    rows = benchmark.pedantic(
        run_way_partition_ablation,
        kwargs={"npu_way_options": (4, 12, 16), "scale": 0.2},
        iterations=1,
        rounds=1,
    )
    print()
    print(format_ablation(rows, "NPU way-partition share"))
    by_ways = {r.value: r for r in rows}
    # More NPU ways -> more pages -> at least as much LBM coverage.
    assert by_ways["16/16"].lbm_layers >= by_ways["4/16"].lbm_layers


@pytest.mark.benchmark(group="ablation")
def test_usage_level_granularity(benchmark):
    rows = benchmark.pedantic(
        run_usage_level_ablation,
        kwargs={"granularities": (1, 4), "scale": 0.2},
        iterations=1,
        rounds=1,
    )
    print()
    print(format_ablation(rows, "cache-usage level granularity"))
    assert len(rows) == 2
    for row in rows:
        assert row.avg_latency_ms > 0


@pytest.mark.benchmark(group="ablation")
def test_lbm_budget_ablation(benchmark):
    rows = benchmark.pedantic(
        run_lbm_budget_ablation,
        kwargs={"fractions": (0.05, 0.25), "scale": 0.2},
        iterations=1,
        rounds=1,
    )
    print()
    print(format_ablation(rows, "LBM occupancy budget"))
    small, big = rows
    # The knob must move block shapes: under contention, a smaller budget
    # yields shorter blocks whose page requests are granted more often, so
    # LBM coverage responds (typically upward for the 5 % budget).
    assert small.lbm_layers > 0 and big.lbm_layers > 0
    assert small.lbm_layers != big.lbm_layers


@pytest.mark.benchmark(group="ablation")
def test_multicast_savings(benchmark):
    savings = benchmark(multicast_traffic_savings, num_cores=2)
    print()
    print("Multicast weight-traffic savings at 2 cores:")
    for model, row in savings.items():
        print(
            f"  {model:<5} replicated={row['replicated_mb']:7.1f} MB  "
            f"multicast={row['multicast_mb']:7.1f} MB  "
            f"saved={row['saved_fraction']:.1%}"
        )
    for row in savings.values():
        assert row["saved_fraction"] > 0.15
