"""Tests for execution tracing."""

import pytest

from repro.config import SoCConfig
from repro.schedulers import make_scheduler
from repro.sim.engine import MultiTenantEngine
from repro.sim.scenario import ScenarioSpec
from repro.sim.trace import SpanKind, TraceRecorder, TraceSpan
from repro.sim.workload import ScenarioWorkload


class TestTraceRecorder:
    def test_begin_end_span(self):
        trace = TraceRecorder()
        trace.begin("a", SpanKind.LAYER, 0, 1.0)
        trace.end("a", 2.0, dram_bytes=100)
        assert len(trace.spans) == 1
        span = trace.spans[0]
        assert span.duration_s == pytest.approx(1.0)
        assert span.dram_bytes == 100

    def test_begin_closes_previous(self):
        trace = TraceRecorder()
        trace.begin("a", SpanKind.WAIT_PAGES, 0, 0.0)
        trace.begin("a", SpanKind.LAYER, 0, 0.5)
        trace.end("a", 1.0)
        kinds = [s.kind for s in trace.spans]
        assert kinds == [SpanKind.WAIT_PAGES, SpanKind.LAYER]

    def test_end_without_open_is_noop(self):
        trace = TraceRecorder()
        trace.end("ghost", 1.0)
        assert trace.spans == []

    def test_backwards_span_rejected(self):
        trace = TraceRecorder()
        trace.begin("a", SpanKind.LAYER, 0, 5.0)
        with pytest.raises(ValueError):
            trace.end("a", 1.0)

    def test_wait_time_accounting(self):
        trace = TraceRecorder()
        trace.spans.append(
            TraceSpan("a", SpanKind.WAIT_PAGES, 0, 0.0, 0.3)
        )
        trace.spans.append(TraceSpan("a", SpanKind.LAYER, 0, 0.3, 1.0))
        assert trace.wait_time_s("a") == pytest.approx(0.3)
        assert trace.busy_time_s("a") == pytest.approx(0.7)

    def test_timeline_text(self):
        trace = TraceRecorder()
        trace.spans.append(TraceSpan("a", SpanKind.LAYER, 0, 0.0, 1.0))
        text = trace.timeline_text(width=20)
        assert "a" in text and "#" in text

    def test_empty_timeline(self):
        assert "(empty trace)" in TraceRecorder().timeline_text()


class TestEngineIntegration:
    def test_engine_emits_layer_spans(self):
        trace = TraceRecorder()
        spec = ScenarioSpec.closed_loop(["MB."], inferences=1)
        engine = MultiTenantEngine(
            SoCConfig(), make_scheduler("camdn-full"),
            ScenarioWorkload(spec), trace=trace,
        )
        result = engine.run()
        layer_spans = [s for s in trace.spans
                       if s.kind is SpanKind.LAYER]
        assert len(layer_spans) == 64  # MobileNet-v2 layer count

    def test_span_times_cover_latency(self):
        trace = TraceRecorder()
        spec = ScenarioSpec.closed_loop(["MB."], inferences=1)
        engine = MultiTenantEngine(
            SoCConfig(), make_scheduler("baseline"),
            ScenarioWorkload(spec), trace=trace,
        )
        result = engine.run()
        busy = trace.busy_time_s(trace.spans[0].instance_id)
        latency = result.metrics.records[0].latency_s
        assert busy == pytest.approx(latency, rel=1e-6)

    def test_traced_dram_matches_metrics(self):
        trace = TraceRecorder()
        spec = ScenarioSpec.closed_loop(["EF."], inferences=1)
        engine = MultiTenantEngine(
            SoCConfig(), make_scheduler("camdn-full"),
            ScenarioWorkload(spec), trace=trace,
        )
        result = engine.run()
        traced = sum(s.dram_bytes for s in trace.spans)
        assert traced == pytest.approx(
            result.metrics.records[0].dram_bytes, rel=1e-9
        )
