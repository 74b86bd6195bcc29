"""Tests for the Figure 7 (speedup) and Figure 8 (scaling) harnesses."""

import pytest

from repro.experiments.fig7_speedup import format_fig7, run_fig7
from repro.experiments.fig8_scaling import format_fig8, run_fig8

pytestmark = [pytest.mark.slow, pytest.mark.experiment]


@pytest.fixture(scope="module")
def fig7_rows():
    return run_fig7(scale=0.2)


class TestFig7:
    def test_all_models_present(self, fig7_rows):
        assert {r.model for r in fig7_rows} == {
            "RS.", "MB.", "EF.", "VT.", "BE.", "GN.", "WV.", "PP.",
        }

    def test_full_speeds_up_on_average(self, fig7_rows):
        avg = sum(r.full_speedup for r in fig7_rows) / len(fig7_rows)
        assert avg > 1.2  # paper: 1.88x

    def test_full_beats_hw_only_on_average(self, fig7_rows):
        avg_full = sum(r.full_speedup for r in fig7_rows) / len(fig7_rows)
        avg_hw = sum(r.hw_only_speedup for r in fig7_rows) / len(fig7_rows)
        assert avg_full > avg_hw  # paper: 1.18x gap

    def test_dwconv_models_benefit_most(self, fig7_rows):
        """Paper: MB and EF reach the highest speedups (intermediate data
        served from cache by LBM)."""
        by_model = {r.model: r.full_speedup for r in fig7_rows}
        dwconv_best = max(by_model["MB."], by_model["EF."])
        others_avg = sum(
            v for k, v in by_model.items() if k not in ("MB.", "EF.")
        ) / 6
        assert dwconv_best > others_avg

    def test_format(self, fig7_rows):
        text = format_fig7(fig7_rows)
        assert "paper: Full up to 2.56x" in text


class TestFig7QuarterScale:
    """Figure 7's shape at scale 0.25: CaMDN(Full) peaks well above
    AuRORA, and a depth-wise model (MB./EF.) is at or near the peak."""

    @pytest.fixture(scope="class")
    def rows(self):
        return run_fig7(scale=0.25)

    def test_speedup_shape(self, rows):
        avg_full = sum(r.full_speedup for r in rows) / len(rows)
        avg_hw = sum(r.hw_only_speedup for r in rows) / len(rows)
        max_full = max(r.full_speedup for r in rows)
        # Paper: Full averages 1.88x (up to 2.56x); HW-only sits between
        # the baseline and Full.
        assert avg_full > 1.2
        assert max_full > 1.5
        assert avg_full > avg_hw
        by_model = {r.model: r.full_speedup for r in rows}
        assert max(by_model["MB."], by_model["EF."]) >= max_full * 0.8


class TestFig8:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_fig8(dnn_counts=(1, 8), cache_sizes_mb=(16,), scale=0.2)

    def test_grid(self, rows):
        assert len(rows) == 2

    def test_camdn_reduces_traffic_multi_tenant(self, rows):
        multi = next(r for r in rows if r.num_dnns == 8)
        assert multi.dram_reduction > 0.0

    def test_camdn_reduces_latency_multi_tenant(self, rows):
        multi = next(r for r in rows if r.num_dnns == 8)
        assert multi.latency_reduction > 0.0

    def test_format(self, rows):
        text = format_fig8(rows)
        assert "paper 34.3%..42.3%" in text


class TestFig8PaperGrid:
    """Figure 8 on the 1/8/16-tenant x 4/16/64 MB grid: CaMDN cuts DRAM
    traffic in every multi-tenant cell and latency by >10% on average
    (paper: 34.3-42.3 % latency, 16.0-37.7 % memory)."""

    @pytest.fixture(scope="class")
    def rows(self):
        return run_fig8(dnn_counts=(1, 8, 16), cache_sizes_mb=(4, 16, 64),
                        scale=0.15)

    def test_reductions_in_multi_tenant_cells(self, rows):
        multi = [r for r in rows if r.num_dnns > 1]
        assert len(multi) == 6
        assert all(r.dram_reduction > 0.0 for r in multi)
        assert sum(r.latency_reduction for r in multi) / len(multi) > 0.1
