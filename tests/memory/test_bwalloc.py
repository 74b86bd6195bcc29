"""Tests for the bandwidth share rules (one function per rate spec)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.memory.bwalloc import MODES, mode_of, shares
from repro.sim.kernel import RunningKernel

FREQ = 1e9


def _kernel(rem_d, rem_c=None, qos=None, est=None, progress=None):
    """Kernel arrays for ``len(rem_d)`` instances.  The default compute
    remainder (1e6 cycles = 1 ms) makes each demand ``rem_d * 1e3``;
    slack inputs default to arrival 0 and no deadline."""
    n = len(rem_d)
    kernel = RunningKernel()
    kernel.rem_d = list(rem_d)
    kernel.rem_c = list(rem_c) if rem_c is not None else [1e6] * n
    kernel.sl_arrival = [0.0] * n
    kernel.sl_qos = list(qos) if qos is not None else [math.inf] * n
    kernel.sl_est = list(est) if est is not None else [0.0] * n
    kernel.sl_progress = (
        list(progress) if progress is not None else [0.0] * n
    )
    return kernel


class TestSpecValidation:
    @pytest.mark.parametrize("spec", [
        ("equal",),
        ("demand_prop", 0.02),
        ("slack_weighted", 3.0, 0.02),
        ("slack_throttled", 0.0),
    ])
    def test_family_maps_to_native_modes(self, spec):
        assert mode_of(spec) == MODES[spec[0]]

    @pytest.mark.parametrize("spec", [
        (),
        ("fair",),
        ("demand_prop",),
        ("equal", 0.02),
        ("slack_weighted", 3.0),
        ("demand_prop", 1.0),
        ("slack_throttled", -0.1),
        ("slack_weighted", 0.0, 0.02),
    ])
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(SimulationError):
            mode_of(spec)


class TestEqualShare:
    def test_even_split(self):
        for share in shares(("equal",), _kernel([1.0] * 3), FREQ, 0.0):
            assert share == pytest.approx(1 / 3)

    def test_empty(self):
        assert shares(("equal",), _kernel([]), FREQ, 0.0) == []


class TestDemandProportional:
    def test_proportionality(self):
        a, b = shares(("demand_prop", 0.0), _kernel([3e6, 1e6]), FREQ,
                      0.0)
        assert a == pytest.approx(0.75)
        assert b == pytest.approx(0.25)

    def test_compute_bound_layer_demands_less(self):
        """Demand is remaining DRAM bytes over the layer's compute
        time: the same bytes over a longer compute time weigh less."""
        short, long_ = shares(("demand_prop", 0.0),
                              _kernel([1e6, 1e6], rem_c=[1e6, 3e6]),
                              FREQ, 0.0)
        assert short == pytest.approx(0.75)
        assert long_ == pytest.approx(0.25)

    def test_floor_protects_light_tasks(self):
        _, light = shares(("demand_prop", 0.05), _kernel([1e12, 1.0]),
                          FREQ, 0.0)
        assert light >= 0.05

    def test_floor_dropped_when_it_cannot_fit(self):
        # floor * n >= 1: no floor, pure proportional split.
        got = shares(("demand_prop", 0.5), _kernel([3e6, 1e6]), FREQ, 0.0)
        assert got == shares(("demand_prop", 0.0), _kernel([3e6, 1e6]),
                             FREQ, 0.0)

    def test_total_accumulates_left_to_right(self):
        """The C twin sums demands left to right; so must the Python
        rule, on every Python (``sum()`` is compensated from 3.12 on).
        Ten demands of 1.1 sum to 10.999999999999998 left to right but
        to exactly 11.0 compensated."""
        # rem_c = freq cycles -> 1 s of compute, so demand == rem_d.
        got = shares(("demand_prop", 0.0),
                     _kernel([1.1] * 10, rem_c=[FREQ] * 10), FREQ, 0.0)
        assert got[0] == 1.1 / 10.999999999999998
        assert got[0] != 1.1 / math.fsum([1.1] * 10)

    @given(rem_d=st.lists(st.floats(0.0, 1e12), min_size=1, max_size=8))
    def test_shares_always_sum_to_one(self, rem_d):
        got = shares(("demand_prop", 0.02), _kernel(rem_d), FREQ, 0.0)
        assert sum(got) == pytest.approx(1.0)
        assert min(got) > 0


class TestSlackWeighted:
    def test_behind_task_gets_boost(self):
        # slack = (qos - est) / qos: -0.5 for "late", +0.5 for "early".
        late, early = shares(
            ("slack_weighted", 3.0, 0.0),
            _kernel([1e6, 1e6], qos=[1.0, 1.0], est=[1.5, 0.5]),
            FREQ, 0.0,
        )
        assert late > early

    def test_equal_slack_follows_demand(self):
        a, b = shares(("slack_weighted", 3.0, 0.0),
                      _kernel([2e6, 1e6], qos=[1.0, 1.0], est=[1.0, 1.0]),
                      FREQ, 0.0)
        assert a > b

    def test_progress_counts_but_a_common_delay_cancels(self):
        """Progress raises slack; time elapsed since a shared arrival
        lowers every slack alike, scaling every weight by the same
        factor."""
        kernel = _kernel([1e6, 1e6], qos=[1.0, 1.0], est=[1.0, 1.0],
                         progress=[0.5, 0.0])
        ahead, behind = shares(("slack_weighted", 3.0, 0.0), kernel,
                               FREQ, 0.0)
        assert ahead < behind
        later = shares(("slack_weighted", 3.0, 0.0), kernel, FREQ, 0.2)
        assert later == pytest.approx([ahead, behind])

    @given(slack=st.floats(-2.0, 2.0))
    def test_shares_sum_to_one(self, slack):
        got = shares(("slack_weighted", 3.0, 0.02),
                     _kernel([1e6, 1e6], qos=[1.0, 1.0],
                             est=[1.0 - slack, 1.0]),
                     FREQ, 0.0)
        assert sum(got) == pytest.approx(1.0)


class TestSlackThrottled:
    def test_comfortable_tenant_is_halved(self):
        # slack 0.9 > 0.5 halves the first demand; 0.1 keeps the second.
        a, b = shares(("slack_throttled", 0.0),
                      _kernel([1e6, 1e6], qos=[1.0, 1.0], est=[0.1, 0.9]),
                      FREQ, 0.0)
        assert a == pytest.approx(1 / 3)
        assert b == pytest.approx(2 / 3)

    def test_no_deadlines_match_demand_prop_bit_for_bit(self):
        """Every no-deadline slack is 1.0, so every demand halves and
        the split is bit-identical to ``demand_prop`` (MoCA's rule
        before its first deadline task arrives)."""
        kernel = _kernel([3e6, 1.5, 7e5], rem_c=[1e6, 2e3, 4e7])
        assert shares(("slack_throttled", 0.02), kernel, FREQ, 0.0) == \
            shares(("demand_prop", 0.02), kernel, FREQ, 0.0)
