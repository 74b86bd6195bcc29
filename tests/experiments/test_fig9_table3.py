"""Tests for the Figure 9 (QoS) and Table III (area) harnesses."""

import pytest

from repro.experiments.fig9_qos import (
    QOS_LEVELS,
    QOS_POLICIES,
    format_fig9,
    improvement_summary,
    run_fig9,
)
from repro.experiments.table3_area import (
    PAPER_TABLE3,
    format_table3,
    run_table3,
)
from repro.models.zoo import BENCHMARK_MODELS

pytestmark = [pytest.mark.slow, pytest.mark.experiment]


@pytest.fixture(scope="module")
def fig9_rows():
    # Scaled-down QoS run: 8 streams, short window.
    return run_fig9(scale=0.2, model_keys=BENCHMARK_MODELS)


class TestFig9:
    def test_grid_complete(self, fig9_rows):
        assert len(fig9_rows) == len(QOS_POLICIES) * len(QOS_LEVELS)

    def test_metrics_in_valid_ranges(self, fig9_rows):
        for row in fig9_rows:
            assert 0.0 <= row.sla <= 1.0
            assert row.stp > 0.0
            assert 0.0 <= row.fairness <= 1.0

    def test_camdn_improves_sla(self, fig9_rows):
        for level, _ in QOS_LEVELS:
            camdn = next(r for r in fig9_rows
                         if r.policy == "camdn-full"
                         and r.qos_level == level)
            baselines = [r for r in fig9_rows
                         if r.policy != "camdn-full"
                         and r.qos_level == level]
            assert camdn.sla >= max(r.sla for r in baselines) - 0.05

    def test_looser_targets_raise_sla(self, fig9_rows):
        for policy in QOS_POLICIES:
            tight = next(r for r in fig9_rows
                         if r.policy == policy and r.qos_level == "QoS-H")
            loose = next(r for r in fig9_rows
                         if r.policy == policy and r.qos_level == "QoS-L")
            assert loose.sla >= tight.sla - 0.05

    def test_improvement_summary_structure(self, fig9_rows):
        summary = improvement_summary(fig9_rows)
        assert set(summary) == {"sla", "stp", "fairness"}
        assert summary["stp"] > 0.8  # CaMDN should not lose throughput

    def test_format(self, fig9_rows):
        text = format_fig9(fig9_rows)
        assert "paper 5.9x" in text


class TestFig9SixteenStreams:
    """Figure 9 with 16 streams (two of each model) at scale 0.25:
    CaMDN at least matches the best baseline (paper: SLA 5.9x, STP
    2.5x, fairness 3.0x on average)."""

    def test_improvement_over_best_baseline(self):
        rows = run_fig9(scale=0.25, model_keys=BENCHMARK_MODELS * 2)
        summary = improvement_summary(rows)
        assert summary["sla"] >= 0.95
        assert summary["stp"] >= 0.95
        assert summary["fairness"] >= 0.8


class TestTable3:
    def test_breakdown_close_to_paper(self):
        table = run_table3()
        flat = {name: (area, pct)
                for rows in table.values() for name, area, pct in rows}
        for component, (paper_area, paper_pct) in PAPER_TABLE3.items():
            area, pct = flat[component]
            assert area == pytest.approx(paper_area, rel=0.15), component
            assert pct == pytest.approx(paper_pct, abs=0.5), component

    def test_format_mentions_paper(self):
        text = format_table3(run_table3())
        assert "paper" in text
        assert "NEC" in text
