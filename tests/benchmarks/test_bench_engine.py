"""The engine bench's completion-chain columns and its no_tables gate."""

import importlib.util
from pathlib import Path

import pytest

from repro.sim import native

_MODULE_PATH = (
    Path(__file__).parent.parent.parent / "benchmarks" / "bench_engine.py"
)
_spec = importlib.util.spec_from_file_location("bench_engine", _MODULE_PATH)
bench_engine = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_engine)


def _report(rows):
    return {
        "meta": {},
        "policies": {
            name: {"kernel": {"events_per_s": 1.0, "events": 10,
                              "wall_s": 10.0, "completions_c_share": share,
                              "no_tables_exits": exits}}
            for name, (share, exits) in rows.items()
        },
    }


class TestChainGate:
    def test_shipped_rows_with_chains_pass(self):
        report = _report({
            "aurora": (0.98, 0),
            "camdn-full": (0.97, 0),
            "synthetic-static": (0.0, 5000),
            "synthetic-dynamic": (0.0, 5000),
        })
        assert bench_engine.chain_gate_failures(report) == []

    def test_shipped_row_without_chain_fails(self):
        report = _report({"aurora": (0.0, 1), "moca-qos": (0.99, 0)})
        (failure,) = bench_engine.chain_gate_failures(report)
        assert failure.startswith("aurora:")
        assert "no_tables" in failure


class TestRowShape:
    def test_row_records_chain_columns(self):
        row = bench_engine.bench_policy("synthetic-static", repeats=2)
        kernel = row["kernel"]
        assert set(kernel) == {"events", "wall_s", "events_per_s",
                               "completions_c_share", "no_tables_exits"}
        # A custom policy without a chain: every completion in Python.
        assert kernel["completions_c_share"] == 0.0
        if native.fused_step() is not None:
            assert kernel["no_tables_exits"] > 0

    @pytest.mark.skipif(native.fused_step() is None,
                        reason="native fused step unavailable")
    def test_shipped_row_runs_chain(self):
        row = bench_engine.bench_policy("baseline", repeats=2)
        assert row["kernel"]["no_tables_exits"] == 0
        assert row["kernel"]["completions_c_share"] > 0.9
