"""Unit tests of the benchmark's own helpers (no program runs here)."""

from __future__ import annotations

import copy
import json
import os
import sys
import threading

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from harness import (  # noqa: E402
    SchemaError,
    percentile,
    result_line,
    samples_beyond,
    summarize,
    supported_percentile,
    validate_benchmark,
    validate_metric_name,
)
from layers import merge_summaries, summarize_spans  # noqa: E402
from tracer import Span, Tracer, self_time, union_length  # noqa: E402


def span(name, start, end, span_id, parent=None):
    s = Span(name, start, span_id, parent, None)
    s.end = end
    return s


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 11))
        assert percentile(values, 50) == 5
        assert percentile(values, 90) == 9
        assert percentile(values, 100) == 10
        assert percentile([7.0], 90) == 7.0

    def test_order_does_not_matter(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 0)

    def test_ten_samples_beyond_rule(self):
        assert samples_beyond(100, 90) == 10
        assert samples_beyond(99, 90) == 9
        assert supported_percentile(100) == 90
        assert supported_percentile(1000) == 99
        assert supported_percentile(10) is None
        assert supported_percentile(11) == 9

    def test_summary_names_the_supported_percentile(self):
        summary = summarize([float(i) for i in range(200)])
        assert summary["supported_percentile"] == 95
        assert summary["p95"] == 189.0
        assert summary["p90_beyond"] == 20


class TestSelfTime:
    def test_union_counts_overlap_once(self):
        assert union_length([(1, 4), (2, 6), (8, 12)]) == 9
        assert union_length([(1, 4), (2, 6), (8, 12)], 0, 10) == 7
        assert union_length([]) == 0

    def test_overlapping_children_like_concurrent_rpcs(self):
        parent = span("cluster.build", 0.0, 10.0, 1)
        children = [span("cluster.rpc", 1.0, 4.0, 2, 1),
                    span("cluster.rpc", 2.0, 6.0, 3, 1),
                    span("cluster.rpc", 8.0, 12.0, 4, 1)]
        assert self_time(parent, children) == pytest.approx(3.0)

    def test_rpc_wait_is_the_union_per_build(self):
        spans = [span("cluster.build", 0.0, 10.0, 1),
                 span("cluster.rpc", 1.0, 5.0, 2, 1),
                 span("cluster.rpc", 1.0, 5.0, 3, 1),
                 span("cluster.rpc", 5.0, 7.0, 4, 1)]
        counters = summarize_spans(spans)["counters"]
        assert counters["rpc_calls"] == 3
        assert counters["rpc_wait_s"] == pytest.approx(6.0)

    def test_orphans_leave_the_server_explore_self_time(self):
        spans = [span("service.handle", 0.0, 10.0, 1),
                 span("service.explore", 0.5, 9.5, 2, 1),
                 span("pipeline.run", 2.0, 8.0, 3)]
        totals = summarize_spans(spans, server=True)["totals"]
        assert totals["service.explore"]["self"] == pytest.approx(3.0)
        assert totals["service.handle"]["self"] == pytest.approx(1.0)

    def test_merge_adds_totals_and_counters(self):
        a = summarize_spans([span("cache.get", 0.0, 1.0, 1)])
        b = summarize_spans([span("cache.get", 0.0, 2.0, 1)])
        merged = merge_summaries(a, b)
        assert merged["totals"]["cache.get"]["calls"] == 2
        assert merged["totals"]["cache.get"]["total"] == pytest.approx(3.0)


class TestTracer:
    def test_nesting_and_disabled_calls(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: 1)
        outer = tracer.wrap("outer", lambda: inner())
        assert outer() == 1
        assert tracer.take() == []
        tracer.enabled = True
        outer()
        spans = {s.name: s for s in tracer.take()}
        assert spans["inner"].parent == spans["outer"].span_id

    def test_exclusive_group_counts_the_outermost_call(self):
        tracer = Tracer()
        tracer.enabled = True
        inner = tracer.wrap("b.inner", lambda: 1, exclusive="backend")
        outer = tracer.wrap("b.outer", lambda: inner(), exclusive="backend")
        outer()
        assert [s.name for s in tracer.take()] == ["b.outer"]

    def test_work_on_another_thread_attaches_to_the_waiting_span(self):
        tracer = Tracer()
        tracer.enabled = True
        work = tracer.wrap("pool.work", lambda: None)

        def wait_for_pool():
            thread = threading.Thread(target=work)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()

        handle = tracer.begin_op(0)
        tracer.wrap("service.explore", wait_for_pool)()
        tracer.end_op(handle)
        spans = {s.name: s for s in tracer.take()}
        assert spans["pool.work"].parent == spans["service.explore"].span_id
        assert spans["service.explore"].parent == spans["op"].span_id
        assert spans["pool.work"].op == 0


class TestMetricNames:
    @pytest.mark.parametrize("name", [
        "setup_s", "op_ms.p50", "engine.stages.sampling_ms", "a", "9x-y",
        "x" * 64,
    ])
    def test_valid(self, name):
        assert validate_metric_name(name) == name

    @pytest.mark.parametrize("name", [
        "", "-x", ".x", "a b", "ms/op", "x" * 65, None, "é",
    ])
    def test_invalid(self, name):
        with pytest.raises(SchemaError):
            validate_metric_name(name)


class TestBenchmarkSchema:
    @pytest.fixture()
    def doc(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            return json.load(f)

    def test_repository_file_is_valid(self, doc):
        validate_benchmark(doc)

    def test_paths_exist_and_hold_the_command(self, doc):
        for path in doc["paths"]:
            assert os.path.isdir(os.path.join(ROOT, path))
        assert doc["command"][1].startswith(doc["paths"][0] + "/")

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(extra=1),
        lambda d: d.pop("per_layer"),
        lambda d: d.update(run_seconds=61),
        lambda d: d.update(run_seconds=2.5),
        lambda d: d["end_to_end"][1].update(bound=0.3),
        lambda d: d["end_to_end"][1].update(unit="m s"),
        lambda d: d["end_to_end"][1].update(better="up"),
        lambda d: d["end_to_end"].pop(0),
        lambda d: d["per_layer"][0].update(bound=0.1),
        lambda d: d["per_layer"].append(dict(d["per_layer"][0])),
        lambda d: d["workloads"][0].update(why="two\nlines"),
        lambda d: d["workloads"].__setitem__(slice(1, None), []),
        lambda d: d.update(command=["python3", "/abs/run.py"]),
        lambda d: d.update(paths=["../outside"]),
    ])
    def test_rejects_broken_files(self, doc, mutate):
        broken = copy.deepcopy(doc)
        mutate(broken)
        with pytest.raises(SchemaError):
            validate_benchmark(broken)


class TestResultLine:
    def test_exact_metrics_with_units(self):
        line = result_line(correct=True, attempted=3, failed=0,
                           values={"a_ms": 1.5}, units={"a_ms": "ms"})
        assert json.loads(line) == {
            "correct": True, "attempted": 3, "failed": 0,
            "metrics": {"a_ms": {"value": 1.5, "unit": "ms"}}}

    def test_missing_or_extra_metric_is_refused(self):
        with pytest.raises(SchemaError):
            result_line(correct=True, attempted=1, failed=0, values={},
                        units={"a_ms": "ms"})
        with pytest.raises(SchemaError):
            result_line(correct=True, attempted=1, failed=0,
                        values={"a_ms": 1.0, "b": 2.0}, units={"a_ms": "ms"})
