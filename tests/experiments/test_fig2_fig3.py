"""Tests for the Figure 2 and Figure 3 experiment harnesses."""

import pytest

from repro.experiments.fig2_motivation import (
    degradation_summary,
    format_fig2,
    run_fig2,
)
from repro.experiments.fig3_reuse import format_fig3, run_fig3
from repro.models.reuse import REUSE_COUNT_BUCKETS

pytestmark = [pytest.mark.slow, pytest.mark.experiment]


@pytest.fixture(scope="module")
def fig2_rows():
    # Tiny sweep: 1 vs 8 tenants on two cache sizes.
    return run_fig2(dnn_counts=(1, 8), cache_sizes_mb=(4, 16), scale=0.15)


class TestFig2:
    def test_grid_complete(self, fig2_rows):
        assert len(fig2_rows) == 4

    def test_hit_rate_drops_with_tenants(self, fig2_rows):
        for cache_mb in (4, 16):
            solo = next(r for r in fig2_rows
                        if r.cache_mb == cache_mb and r.num_dnns == 1)
            shared = next(r for r in fig2_rows
                          if r.cache_mb == cache_mb and r.num_dnns == 8)
            assert shared.hit_rate < solo.hit_rate

    def test_memory_access_grows_with_tenants(self, fig2_rows):
        for cache_mb in (4, 16):
            solo = next(r for r in fig2_rows
                        if r.cache_mb == cache_mb and r.num_dnns == 1)
            shared = next(r for r in fig2_rows
                          if r.cache_mb == cache_mb and r.num_dnns == 8)
            assert shared.dram_mb_per_model > solo.dram_mb_per_model

    def test_bigger_cache_hits_more(self, fig2_rows):
        small = next(r for r in fig2_rows
                     if r.cache_mb == 4 and r.num_dnns == 1)
        big = next(r for r in fig2_rows
                   if r.cache_mb == 16 and r.num_dnns == 1)
        assert big.hit_rate > small.hit_rate

    def test_degradation_summary(self, fig2_rows):
        summary = degradation_summary(fig2_rows)
        lo, hi = summary["memory_access_growth_range"]
        assert lo > 0

    def test_format_renders_all_panels(self, fig2_rows):
        text = format_fig2(fig2_rows)
        assert "hit_rate" in text
        assert "dram_mb_per_model" in text
        assert "avg_latency_ms" in text


class TestFig2PaperGrid:
    """Figure 2's shape on the wider 1/8/16-tenant x 4/16/64 MB grid:
    contention hurts every cache size, on all three panels."""

    DNN_COUNTS = (1, 8, 16)
    CACHE_SIZES = (4, 16, 64)

    @pytest.fixture(scope="class")
    def rows(self):
        return run_fig2(dnn_counts=self.DNN_COUNTS,
                        cache_sizes_mb=self.CACHE_SIZES, scale=0.15)

    def test_crowded_worse_than_solo_on_every_panel(self, rows):
        for cache_mb in self.CACHE_SIZES:
            solo = next(r for r in rows
                        if r.cache_mb == cache_mb and r.num_dnns == 1)
            crowded = next(r for r in rows
                           if r.cache_mb == cache_mb
                           and r.num_dnns == self.DNN_COUNTS[-1])
            assert crowded.hit_rate < solo.hit_rate
            assert crowded.dram_mb_per_model > solo.dram_mb_per_model
            assert crowded.avg_latency_ms > solo.avg_latency_ms


class TestFig3:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_fig3()

    def test_all_models_plus_average(self, rows):
        assert len(rows) == 9
        assert rows[-1].model == "Avg."

    def test_fractions_normalized(self, rows):
        for row in rows:
            assert sum(row.count_fractions.values()) == pytest.approx(1.0)
            assert sum(row.distance_fractions.values()) == \
                pytest.approx(1.0)

    def test_average_no_reuse_in_paper_regime(self, rows):
        avg = rows[-1]
        # Paper: 68.0 % with count 1.
        assert 0.4 <= avg.count_fractions["1"] <= 0.9

    def test_average_long_distances_in_paper_regime(self, rows):
        avg = rows[-1]
        above_1mb = 1.0 - avg.distance_fractions["(0MB,1MB]"]
        assert above_1mb >= 0.35  # paper: 61.8 %

    def test_average_above_2mb_in_paper_regime(self, rows):
        avg = rows[-1]
        above_2mb = (
            avg.distance_fractions["(2MB,4MB]"]
            + avg.distance_fractions["(4MB,inf)"]
        )
        assert above_2mb >= 0.25  # paper: 47.9 %

    def test_format(self, rows):
        text = format_fig3(rows)
        for label, _, _ in REUSE_COUNT_BUCKETS:
            assert label in text
