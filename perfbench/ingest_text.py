"""ingest-text: appends beside text-predicate reads, in process.

An ``ExplorationService`` over a file-backed ``TableStore`` serves a
200k-row support-ticket table, registered with ``persist=True``, at
``sketch:20000``.  One caller loops: append a 1,000-row batch (from
``split_for_streaming``), then run three explores drawn in a fixed
rotation of numeric, categorical, ``contains`` and ``match`` queries
with seeded values.  The unit operation is one such cycle.  Every
append moves the version, so the result cache never hits.  After the run the store is reopened by a fresh
service, which must hold every appended version and answer the last
cycle's queries bit-identically.
"""

from __future__ import annotations

import os
import time

import numpy as np

from common import Op, Phase, files_size, fresh_dir

ROWS = 200_000
BATCH_ROWS = 1_000
#: Batches generated in set-up; the loop appends them round-robin.
BATCHES = 24
BUDGET_ROWS = 20_000
EXPLORES_PER_APPEND = 3
KINDS = ("numeric", "categorical", "contains", "match")
DIMENSIONS = ("hours_open", "severity", "component")

_NOUNS = ("disk", "volume", "packet", "latency", "login", "token", "render",
          "layout", "endpoint", "timeout", "invoice", "charge")
_ISSUES = ("error", "outage", "failure", "warning", "slowdown", "retry",
           "question", "cleanup", "regression", "spike")


class IngestText:
    name = "ingest-text"

    def __init__(self, root: str, seed: int, work_dir: str, tracer=None):
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.service = None
        self.table_name = ""
        self.batches: tuple = ()
        self.queries: "list[tuple[str, str]]" = []
        self.config = None
        self.appended_versions = 0
        self.appended_rows = 0
        self.base_rows = 0
        self.base_version = 0
        self.last_cycle: "list[tuple[str, str]]" = []
        self._next_batch = 0
        self._next_query = 0

    @property
    def store_path(self) -> str:
        return os.path.join(self.work_dir, "atlas.db")

    def _store_files(self) -> "list[str]":
        return [self.store_path, self.store_path + "-wal"]

    # -- set-up ---------------------------------------------------------- #

    def setup(self) -> None:
        from repro.core.config import AtlasConfig, Fidelity
        from repro.datagen import split_for_streaming, support_tickets_table

        fresh_dir(self.work_dir)
        total = ROWS + BATCHES * BATCH_ROWS
        full = support_tickets_table(n_rows=total, seed=self.seed)
        initial, self.batches = split_for_streaming(
            full, n_batches=BATCHES, initial_fraction=ROWS / total)
        self.config = AtlasConfig(
            fidelity=Fidelity.sketch(budget_rows=BUDGET_ROWS), seed=self.seed)
        self.queries = build_queries(initial, self.seed)
        self.service = self._open_service()
        self.table_name = self.service.register(initial, persist=True)
        self.base_rows = initial.n_rows
        self.base_version = initial.version
        # The first explore builds the sketch and persists its summary.
        self.service.explore(self.table_name, None)
        self.appended_versions = self.appended_rows = 0
        self._next_batch = self._next_query = 0

    def _open_service(self):
        from layers import traced_pipeline
        from repro.engine.pipeline import Pipeline
        from repro.service.service import ExplorationService

        pipeline = (None if self.tracer is None
                    else traced_pipeline(Pipeline.default(), self.tracer))
        return ExplorationService(max_workers=2, store=self.store_path,
                                  config=self.config, pipeline=pipeline)

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def peak_rss_children_mb(self) -> float:
        return 0.0

    # -- load ------------------------------------------------------------ #

    def warm_up(self) -> None:
        self._cycle([], None)

    def measure(self, seconds: float, traced: bool = False) -> Phase:
        tracer = self.tracer if traced else None
        ops: list[Op] = []
        stats = self.service.metrics()["statistics_cache"]
        self._memo = (stats["hits"], stats["misses"])
        self._bytes = (files_size(*self._store_files()), self.appended_rows)
        cycles: list[float] = []
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            first = len(ops)
            self._cycle(ops, tracer)
            cycles.append(sum(op.seconds for op in ops[first:]))
        wall = time.perf_counter() - started
        return Phase(
            ops=ops, wall_seconds=wall, unit_samples=cycles,
            by_kind={
                "append_ms": [op.seconds for op in ops if op.kind == "append"],
                "explore_ms": [op.seconds for op in ops if op.kind != "append"],
            },
        )

    def _cycle(self, ops: "list[Op]", tracer) -> None:
        """One append, then the next explores of the rotation."""
        batch = self.batches[self._next_batch % len(self.batches)]
        self._next_batch += 1
        expected = self.base_version + self.appended_versions + 1
        ok, response = self._timed(ops, tracer, "append",
                                   self.service.append, self.table_name, batch)
        if ok:
            self.appended_versions += 1
            self.appended_rows += batch.n_rows
            ops[-1].ok = response.version == expected
        version = self.base_version + self.appended_versions
        self.last_cycle = []
        for _ in range(EXPLORES_PER_APPEND):
            kind, query = self.queries[self._next_query % len(self.queries)]
            self._next_query += 1
            ok, response = self._timed(ops, tracer, kind, self.service.explore,
                                       self.table_name, query)
            if ok and response.map_set.version != version:
                ops[-1].ok = False  # an answer older than the last append
            if ok:
                self.last_cycle.append((query, response))

    def _timed(self, ops, tracer, kind, fn, *args):
        handle = tracer.begin_op(len(ops)) if tracer else None
        started = time.perf_counter()
        try:
            result, ok = fn(*args), True
        except Exception:  # noqa: BLE001 - counted as a failed op
            result, ok = None, False
        elapsed = time.perf_counter() - started
        if handle is not None:
            tracer.end_op(handle)
        ops.append(Op(kind, elapsed, ok))
        return ok, result

    # -- tracing and checks ---------------------------------------------- #

    def start_tracing(self) -> None:
        pass

    def remote_summary(self) -> dict:
        return {"totals": {}, "counters": {}}

    def layer_extra(self, phase: Phase) -> dict:
        stats = self.service.metrics()["statistics_cache"]
        grown = files_size(*self._store_files()) - self._bytes[0]
        rows = self.appended_rows - self._bytes[1]
        return {
            "memo_hits": stats["hits"] - self._memo[0],
            "memo_misses": stats["misses"] - self._memo[1],
            "bytes_per_row": grown / rows if rows else 0.0,
        }

    def check(self) -> "list[str]":
        """Reopen the store in a fresh service and compare."""
        from repro.evaluation.metrics import map_set_fingerprint

        problems = []
        self.service.close()
        self.service = None
        fresh = self._open_service()
        try:
            table = fresh.catalog.resolve(self.table_name)
            if table.version != self.base_version + self.appended_versions:
                problems.append(f"store holds version {table.version} after "
                                f"{self.appended_versions} appends")
            if table.n_rows != self.base_rows + self.appended_rows:
                problems.append(f"store holds {table.n_rows} rows, expected "
                                f"{self.base_rows + self.appended_rows}")
            for query, response in self.last_cycle:
                again = fresh.explore(self.table_name, query)
                if (map_set_fingerprint(again.map_set)
                        != map_set_fingerprint(response.map_set)):
                    problems.append(f"reopened store answers {query!r} "
                                    "differently")
        finally:
            fresh.close()
        return problems


def build_queries(table, seed: int) -> "list[tuple[str, str]]":
    """Twelve seeded explores, three of each kind, in rotation order;
    each restricts one attribute and surveys the other dimensions."""
    rng = np.random.default_rng(seed)
    hours = table.numeric("hours_open").data
    out = []
    for index in range(12):
        kind = KINDS[index % len(KINDS)]
        if kind == "numeric":
            low, high = np.quantile(hours, [rng.uniform(0.0, 0.3),
                                            rng.uniform(0.6, 1.0)])
            query = f"hours_open: [{low:.1f}, {high:.1f}]"
        elif kind == "categorical":
            column = ("severity", "component")[int(rng.integers(2))]
            labels = sorted(table.categorical(column).categories)
            picked = rng.choice(labels, size=int(rng.integers(1, 3)),
                                replace=False)
            query = f"{column}: {{{', '.join(repr(str(v)) for v in picked)}}}"
        elif kind == "contains":
            query = f"title: contains '{_NOUNS[int(rng.integers(len(_NOUNS)))]}'"
        else:
            noun = _NOUNS[int(rng.integers(len(_NOUNS)))]
            issue = _ISSUES[int(rng.integers(len(_ISSUES)))]
            query = f"title: match '{noun} {issue}'"
        # Every dimension joins the survey, so each answer maps them all.
        rest = [f"{name}: any" for name in DIMENSIONS if name not in query]
        out.append((kind, "\n".join([query] + rest)))
    return out
