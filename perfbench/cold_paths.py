"""cold-paths: time to a first answer with no statistics built.

Four build paths run in a seeded rotation (each block of four visits
every path once, in a seeded order) over a 200k-row census table at
``sketch:20000`` with 8 shards:

* ``parallel`` — a fresh ``ExecutionContext`` at ``parallel:2:8`` (fork
  pool) answering the root survey;
* ``cluster`` — a fresh context at ``cluster:2:8`` over two local shard
  servers, spawned and placed during set-up;
* ``warm`` — a new ``ExplorationService`` over a store file written in
  set-up, whose first explore adopts the persisted summary;
* ``sql`` — ``SqlAtlas`` over a ``SqlConnection`` on an 8k-row census
  table (the in-tree SQL engine costs ~14 ms per thousand rows here, so
  this keeps an answer near 100 ms).

The unit operation is one block: the four first answers, summed.
``parallel``, ``cluster`` and ``warm`` must equal a serial build over
the same shard layout bit for bit; ``sql`` must pick the same
attribute sets as the native exact engine.
"""

from __future__ import annotations

import os
import time

import numpy as np

from common import Op, Phase, fresh_dir
from harness import child_peak_rss_mb

ROWS = 200_000
SQL_ROWS = 8_000
SHARDS = 8
SERVERS = 2
BUDGET_ROWS = 20_000
PATHS = ("parallel", "cluster", "warm", "sql")


class ColdPaths:
    name = "cold-paths"

    def __init__(self, root: str, seed: int, work_dir: str, tracer=None):
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.servers: list = []
        self.coordinator = None

    @property
    def store_path(self) -> str:
        return os.path.join(self.work_dir, "warm.db")

    # -- set-up ---------------------------------------------------------- #

    def setup(self) -> None:
        from layers import traced_pipeline
        from repro.cluster import attach_cluster, spawn_local_cluster
        from repro.core.atlas import Atlas
        from repro.core.config import AtlasConfig, Fidelity, Parallelism
        from repro.datagen import census_table
        from repro.db.connection import SqlConnection
        from repro.engine.context import ExecutionContext
        from repro.engine.pipeline import Pipeline
        from repro.evaluation.metrics import map_set_fingerprint
        from repro.service.service import ExplorationService

        fresh_dir(self.work_dir)
        self.rng = np.random.default_rng(self.seed)
        self.table = census_table(n_rows=ROWS, seed=self.seed)
        fidelity = Fidelity.sketch(budget_rows=BUDGET_ROWS)
        self.configs = {
            path: AtlasConfig(fidelity=fidelity, parallelism=parallelism,
                              seed=self.seed)
            for path, parallelism in (
                ("serial", Parallelism(workers=1, shards=SHARDS)),
                ("parallel", Parallelism(workers=2, shards=SHARDS)),
                ("cluster", Parallelism.cluster(SERVERS, shards=SHARDS)),
            )
        }
        self.pipeline = Pipeline.default()
        if self.tracer is not None:
            self.pipeline = traced_pipeline(self.pipeline, self.tracer)
        serial = self.pipeline.run(
            None, ExecutionContext(self.table, self.configs["serial"]))
        self.expected = map_set_fingerprint(serial)

        self.servers = spawn_local_cluster(SERVERS)
        self.coordinator = attach_cluster([s.url for s in self.servers])
        # Placement: the first build pushes each shard's columns.
        ExecutionContext(self.table, self.configs["cluster"]).stats()

        with ExplorationService(max_workers=1, store=self.store_path,
                                config=self.configs["serial"]) as service:
            service.register(self.table, persist=True)
            persisted = service.explore(self.table.name, None, use_cache=False)
        self.warm_expected = map_set_fingerprint(persisted.map_set)

        self.sql_table = census_table(n_rows=SQL_ROWS, seed=self.seed)
        self.connection = SqlConnection({self.sql_table.name: self.sql_table})
        native = Atlas(self.sql_table).explore(None)
        self.sql_expected = [set(m.attributes) for m in native.maps]

    def teardown(self) -> None:
        from repro.cluster import detach_cluster

        if self.coordinator is not None:
            detach_cluster()
            self.coordinator.close()
            self.coordinator = None
        for server in self.servers:
            server.terminate()
        self.servers = []

    def peak_rss_children_mb(self) -> float:
        return sum(child_peak_rss_mb(s.pid) for s in self.servers)

    # -- load ------------------------------------------------------------ #

    def warm_up(self) -> None:
        for path in PATHS:
            self._timed_answer(path, None, [], counting=False)

    def measure(self, seconds: float, traced: bool = False) -> Phase:
        tracer = self.tracer if traced else None
        ops: list[Op] = []
        blocks: list[float] = []
        self._memo = [0, 0]
        self._statements = 0
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            blocks.append(sum(
                self._timed_answer(PATHS[index], tracer, ops,
                                   counting=traced).seconds
                for index in self.rng.permutation(len(PATHS))))
        wall = time.perf_counter() - started
        return Phase(
            ops=ops, wall_seconds=wall, unit_samples=blocks,
            by_kind={f"cold_answer_ms.{path}": [
                op.seconds for op in ops if op.kind == path] for path in PATHS},
        )

    def _timed_answer(self, path: str, tracer, ops: "list[Op]",
                      counting: bool) -> Op:
        """Time one first answer on ``path``, then check it (untimed)."""
        from repro.evaluation.metrics import map_set_fingerprint
        from repro.service.service import ExplorationService

        handle = tracer.begin_op(len(ops)) if tracer else None
        before = len(self.connection.statement_log) if counting else 0
        began = time.perf_counter()
        try:
            answer, owner = self._answer(path)
        except Exception:  # noqa: BLE001 - counted as a failed op
            answer = owner = None
        elapsed = time.perf_counter() - began
        if handle is not None:
            tracer.end_op(handle)
        if counting:
            self._statements += len(self.connection.statement_log) - before
            if isinstance(owner, ExplorationService):
                stats = owner.metrics()["statistics_cache"]
                self._memo[0] += stats["hits"]
                self._memo[1] += stats["misses"]
            elif owner is not None:
                self._memo[0] += owner.counters.hits
                self._memo[1] += owner.counters.misses
        if isinstance(owner, ExplorationService):
            owner.close()
        if answer is None:
            ok = False
        elif path == "sql":
            ok = [set(m.attributes) for m in answer.maps] == self.sql_expected
        else:
            ok = map_set_fingerprint(answer) == self.expected
        op = Op(path, elapsed, ok)
        ops.append(op)
        return op

    def _answer(self, path: str):
        """One first answer on ``path`` and what holds its statistics (the
        context, or the warm path's service, which the caller closes)."""
        from repro.db.sql_atlas import SqlAtlas
        from repro.engine.context import ExecutionContext
        from repro.service.service import ExplorationService

        if path == "sql":
            engine = SqlAtlas(self.connection, self.sql_table.name)
            if self.tracer is None:
                return engine.explore(), None
            # The same run through the traced stages.
            from layers import traced_pipeline
            from repro.core.config import AtlasConfig
            from repro.query.query import ConjunctiveQuery

            answer = traced_pipeline(engine.pipeline(), self.tracer).run(
                ConjunctiveQuery(), ExecutionContext(None, AtlasConfig()))
            return answer, None
        if path == "warm":
            service = ExplorationService(
                max_workers=1, store=self.store_path,
                config=self.configs["serial"], pipeline=self.pipeline)
            try:
                response = service.explore(self.table.name, None,
                                           use_cache=False)
            except BaseException:
                service.close()
                raise
            return response.map_set, service
        context = ExecutionContext(self.table, self.configs[path])
        return self.pipeline.run(None, context), context

    # -- tracing and checks ---------------------------------------------- #

    def start_tracing(self) -> None:
        self._retries = self.coordinator.metrics()["shard_retries"]

    def remote_summary(self) -> dict:
        return {"totals": {}, "counters": {}}

    def layer_extra(self, phase: Phase) -> dict:
        return {
            "memo_hits": self._memo[0],
            "memo_misses": self._memo[1],
            "statements": self._statements,
            "shard_retries": self.coordinator.metrics()["shard_retries"]
            - self._retries,
        }

    def check(self) -> "list[str]":
        """The references agree: a serial build and the one that
        persisted the summary give the same answer (E21 and E24)."""
        if self.expected != self.warm_expected:
            return ["the serial build and the persisted-summary build differ"]
        return []
