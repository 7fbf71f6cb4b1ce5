"""Which public calls of each layer are traced, and the per-layer metrics.

:func:`install` wraps the program's public functions (nothing inside the
program changes); :func:`summarize_spans` turns one process's spans into
additive totals; :func:`layer_metrics` turns the merged totals of every
process into the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import weakref

from tracer import Patcher, Span, Tracer, children_index, self_time, union_length

#: Pipeline stage names with a per-layer metric each.
STAGES = ("sampling", "candidates", "clustering", "merging", "ranking")
#: Backend statistic families with a per-layer metric each.
BACKEND_METHODS = ("query_mask", "joint", "distance_matrix", "cut_map",
                   "covers", "assignment")
#: Spans that start work in a process and so have no parent there (the
#: server runs ``handle`` on an executor thread and encodes on its loop).
ROOT_SPANS = {"op", "service.handle", "protocol.encode"}
#: A stage span may exceed nothing and trail its ``MapSet.timings`` entry
#: by at most this much (the wrapper's own cost plus a thread switch).
STAGE_TOLERANCE_S = 0.005


class KernelMeter:
    """Kernel nanoseconds reported by backend snapshots, as deltas.

    A context is read before its first traced call and after each, so
    work done before tracing started never counts.
    """

    def __init__(self) -> None:
        self.nanos = 0
        self._seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    @staticmethod
    def total(context) -> int:
        snapshot = context.backend_snapshot()
        return sum(
            int(n) for family in snapshot.values()
            for n in family.get("kernel_nanos", {}).values()
        )

    def before(self, context) -> None:
        if context is not None and context not in self._seen:
            self._seen[context] = self.total(context)

    def after(self, context) -> None:
        if context is None:
            return
        now = self.total(context)
        self.nanos += now - self._seen.get(context, 0)
        self._seen[context] = now


def install(patcher: Patcher, tracer: Tracer, kernels: KernelMeter) -> None:
    """Wrap every traced public call of the program."""
    from repro.cluster import coordinator as cluster_coordinator
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.db.connection import SqlConnection
    from repro.engine import context as engine_context
    from repro.engine import parallel as engine_parallel
    from repro.engine.backends import ExactBackend, SketchBackend
    from repro.engine.context import ExecutionContext
    from repro.engine.pipeline import Pipeline
    from repro.query.predicate import ContainsPredicate, MatchPredicate
    from repro.service import catalog as service_catalog
    from repro.service import service as service_module
    from repro.service.async_server import AsyncServiceClient
    from repro.service.cache import ResultCache
    from repro.service.catalog import Catalog
    from repro.service.history import QueryHistory
    from repro.service.protocol import ExploreResponse
    from repro.service.service import ExplorationService
    from repro.service.tenancy import AdmissionLedger, TenantRegistry
    from repro.service.transport import HttpTransport
    from repro.sketch.frequency import MisraGriesSketch
    from repro.sketch.quantile import GKQuantileSketch
    from repro.store.store import TableStore

    def cache_hit(span: Span, args: tuple, result: object) -> None:
        span.attrs["hit"] = result is not None

    def scan_max(span: Span, args: tuple, result) -> None:
        seconds = tuple(result.shard_seconds)
        span.attrs["scan_max"] = max(seconds) if seconds else 0.0

    def pipeline_start(args: tuple) -> None:
        kernels.before(args[2] if len(args) > 2 else None)

    def advance_start(args: tuple) -> None:
        kernels.before(args[0])

    def pipeline_done(span: Span, args: tuple, result) -> None:
        span.attrs["timings"] = result.timings
        kernels.after(args[2] if len(args) > 2 else None)

    def advanced(span: Span, args: tuple, result) -> None:
        kernels.after(args[0])

    p = patcher.patch
    p(ExplorationService, "handle", "service.handle")
    p(ExplorationService, "explore", "service.explore")
    p(AsyncServiceClient, "request", "client.request")
    p(ExploreResponse, "to_dict", "protocol.encode")
    p(ExploreResponse, "from_dict", "protocol.decode")
    p(TenantRegistry, "check_rate", "tenancy.check_rate")
    p(AdmissionLedger, "admit", "tenancy.admit")
    p(ResultCache, "get", "cache.get", on_result=cache_hit)
    p(QueryHistory, "record", "history.record")
    p(QueryHistory, "finish", "history.finish")
    p(Catalog, "append", "catalog.append")
    p(Catalog, "persist_summary", "catalog.persist_summary")
    p(engine_context, "make_backend", "context.make_backend")
    p(engine_parallel, "build_sharded_backend", "parallel.build",
      on_result=scan_max)
    p(engine_parallel, "fold_shard_statistics", "parallel.fold")
    p(ClusterCoordinator, "build_backend", "cluster.build")
    p(cluster_coordinator, "fold_shard_statistics", "cluster.fold")
    p(HttpTransport, "request", "cluster.rpc")
    p(service_catalog, "restore_backend", "store.restore")
    p(ExecutionContext, "advance", "context.advance", on_call=advance_start,
      on_result=advanced)
    p(Pipeline, "run", "pipeline.run", on_call=pipeline_start,
      on_result=pipeline_done)
    for cls in (ExactBackend, SketchBackend):
        for method in BACKEND_METHODS:
            p(cls, method, f"backend.{method}", exclusive="backend")
    p(service_module, "resolve_query_payload", "query.parse")
    p(ContainsPredicate, "mask", "query.text_mask")
    p(MatchPredicate, "mask", "query.text_mask")
    p(GKQuantileSketch, "merge", "sketch.gk_merge")
    p(MisraGriesSketch, "merge", "sketch.mg_merge")
    for method in ("append", "put_summary", "load_table", "get_summary"):
        p(TableStore, method, f"store.{method}")
    p(SqlConnection, "query", "db.query")


class TracedStage:
    """A pipeline stage recording one span per run when tracing is on;
    passed to the program through its public ``pipeline=`` seam."""

    def __init__(self, stage, tracer: Tracer):
        self._stage = stage
        self._tracer = tracer
        self.name = stage.name

    def run(self, state, context) -> None:
        with self._tracer.span(f"stage.{self.name}"):
            self._stage.run(state, context)


def traced_pipeline(pipeline, tracer: Tracer):
    """``pipeline`` with every stage wrapped in :class:`TracedStage`."""
    from repro.engine.pipeline import Pipeline

    return Pipeline(tuple(TracedStage(s, tracer) for s in pipeline.stages))


def summarize_spans(spans: "list[Span]", *, server: bool = False) -> dict:
    """Additive totals of one process's spans.

    ``totals`` maps a span name to calls, summed duration and summed
    self time (seconds).  ``counters`` holds the derived sums: cache
    hits, the longest shard scan per parallel build, the union of
    concurrent shard RPCs per cluster build, residue, and the stage
    self-check.  In the server process, work the service ran on its
    pool threads cannot be linked to the request that waits for it, so
    it is taken off the explore layer's self time in total instead.
    """
    kids = children_index(spans)
    totals: dict[str, dict] = {}
    counters = {
        "cache_hits": 0, "scan_max_s": 0.0, "rpc_wait_s": 0.0,
        "rpc_calls": 0, "cluster_builds": 0, "residue_s": 0.0,
        "op_s": 0.0, "ops": 0, "stage_pairs": 0, "stage_agree": 0,
        "stage_max_gap_s": 0.0, "residue_negative": 0,
    }
    orphans = 0.0
    for span in spans:
        children = kids.get(span.span_id, [])
        entry = totals.setdefault(
            span.name, {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["total"] += span.duration
        entry["self"] += self_time(span, children)
        if span.parent is None and span.name not in ROOT_SPANS:
            orphans += span.duration
        if span.attrs.get("hit"):
            counters["cache_hits"] += 1
        if span.name == "parallel.build":
            counters["scan_max_s"] += span.attrs.get("scan_max", 0.0)
        elif span.name == "cluster.build":
            rpcs = [c for c in children if c.name == "cluster.rpc"]
            counters["cluster_builds"] += 1
            counters["rpc_calls"] += len(rpcs)
            counters["rpc_wait_s"] += union_length(
                [(c.start, c.end) for c in rpcs], span.start, span.end)
        elif span.name == "op":
            residue = self_time(span, children)
            counters["ops"] += 1
            counters["op_s"] += span.duration
            counters["residue_s"] += residue
            if residue < 0:
                counters["residue_negative"] += 1
        elif span.name == "pipeline.run" and "timings" in span.attrs:
            timings = span.attrs["timings"]
            for child in children:
                if not child.name.startswith("stage."):
                    continue
                reported = getattr(timings, child.name[len("stage."):], None)
                if reported is None:
                    continue
                gap = reported - child.duration
                counters["stage_pairs"] += 1
                counters["stage_max_gap_s"] = max(
                    counters["stage_max_gap_s"], abs(gap))
                if -1e-6 <= gap <= STAGE_TOLERANCE_S:
                    counters["stage_agree"] += 1
    if server and "service.explore" in totals:
        totals["service.explore"]["self"] -= orphans
    return {"totals": totals, "counters": counters}


def merge_summaries(*summaries: dict) -> dict:
    """Add the totals and counters of several processes."""
    totals: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for summary in summaries:
        for name, entry in summary["totals"].items():
            into = totals.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            for key in into:
                into[key] += entry[key]
        for name, value in summary["counters"].items():
            if name.endswith("_max_gap_s"):
                counters[name] = max(counters.get(name, 0.0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    return {"totals": totals, "counters": counters}


def layer_metrics(summary: dict, *, n_ops: int, extra: dict) -> "dict[str, float]":
    """The ``per_layer`` metrics from merged totals.

    Times are milliseconds per operation of the workload (every timed
    operation counts, so the layers and the residue add up to the
    end-to-end time).  ``extra`` carries what spans cannot see: memo
    hits and misses, kernel nanoseconds, refused attempts, response
    bytes, store growth, statements, shard retries, the untraced
    latency summaries and the trace overhead.
    """
    totals, counters = summary["totals"], summary["counters"]
    n = max(n_ops, 1)

    def ms(*names: str, field: str = "total") -> float:
        return sum(totals.get(x, {}).get(field, 0.0) for x in names) * 1e3 / n

    def calls(*names: str) -> int:
        return sum(totals.get(x, {}).get("calls", 0) for x in names)

    gets = calls("cache.get")
    builds = calls("context.make_backend", "parallel.build", "cluster.build",
                   "store.restore")
    cluster_builds = counters.get("cluster_builds", 0)
    memo = extra.get("memo_hits", 0) + extra.get("memo_misses", 0)
    out = {
        "service.async_server.self_ms": max(
            ms("client.request") - ms("service.handle"), 0.0)
        if calls("client.request") else 0.0,
        "service.protocol.encode_ms": ms("protocol.encode"),
        "service.protocol.decode_ms": ms("protocol.decode"),
        "service.protocol.response_kb": extra.get("response_kb", 0.0),
        "service.tenancy.admit_ms": ms("tenancy.check_rate", "tenancy.admit"),
        "service.tenancy.refused": extra.get("refused", 0.0),
        "service.cache.hit_ratio": counters.get("cache_hits", 0) / gets
        if gets else 0.0,
        "service.cache.get_ms": ms("cache.get"),
        "service.history.write_ms": ms("history.record", "history.finish"),
        "service.service.self_ms": ms("service.explore", field="self"),
        "service.catalog.append_ms": ms("catalog.append"),
        "service.catalog.persist_summary_ms": ms("catalog.persist_summary"),
        "engine.context.builds": builds / n,
        "engine.context.advance_ms": ms("context.advance"),
        "engine.pipeline.run_ms": ms("pipeline.run"),
        "engine.backends.calls": calls(
            *(f"backend.{m}" for m in BACKEND_METHODS)) / n,
        "engine.backends.memo_hit_ratio": extra.get("memo_hits", 0) / memo
        if memo else 0.0,
        "query.parse_ms": ms("query.parse"),
        "query.text_mask_ms": ms("query.text_mask"),
        "engine.parallel.build_ms": ms("parallel.build"),
        "engine.parallel.scan_max_ms": counters.get("scan_max_s", 0.0) * 1e3 / n,
        "engine.parallel.fold_ms": ms("parallel.fold"),
        "sketch.gk_merge_ms": ms("sketch.gk_merge"),
        "sketch.mg_merge_ms": ms("sketch.mg_merge"),
        "sketch.calls": calls("sketch.gk_merge", "sketch.mg_merge") / n,
        "engine.kernels.nanos": extra.get("kernel_nanos", 0) / n,
        "cluster.build_ms": ms("cluster.build"),
        "cluster.rpc_wait_ms": counters.get("rpc_wait_s", 0.0) * 1e3 / n,
        "cluster.rpc_calls": counters.get("rpc_calls", 0) / cluster_builds
        if cluster_builds else 0.0,
        "cluster.shard_retries": extra.get("shard_retries", 0),
        "cluster.fold_ms": ms("cluster.fold"),
        "store.append_ms": ms("store.append"),
        "store.bytes_per_row": extra.get("bytes_per_row", 0.0),
        "store.put_summary_ms": ms("store.put_summary"),
        "store.load_table_ms": ms("store.load_table"),
        "store.get_summary_ms": ms("store.get_summary"),
        "store.restore_ms": ms("store.restore"),
        "db.statements": extra.get("statements", 0) / n,
        "db.query_ms": ms("db.query"),
        "residue_ms": counters.get("residue_s", 0.0) * 1e3 / n,
        "trace_overhead": extra.get("trace_overhead", 1.0),
    }
    out["engine.parallel.wait_ms"] = max(
        out["engine.parallel.build_ms"] - out["engine.parallel.scan_max_ms"]
        - out["engine.parallel.fold_ms"], 0.0)
    for stage in STAGES:
        out[f"engine.stages.{stage}_ms"] = ms(f"stage.{stage}")
    for method in BACKEND_METHODS:
        out[f"engine.backends.{method}_ms"] = ms(f"backend.{method}")
    for name, value in extra.get("latency", {}).items():
        out[name] = value
    return out
