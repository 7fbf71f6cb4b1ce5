"""serve-sessions: interactive read traffic over HTTP.

The async service runs in a child process (``server_child.py``) over a
100k-row census table at exact fidelity with a result cache.  Two
clients, one per tenant, replay explorer sessions in a closed loop:
root survey, a drill into a seeded region of a top-3 map, one deeper
drill, then back (the parent again).  The two connections take turns,
one request in flight, and client and server run on one CPU during the
timed phase: with both requests in flight, or the processes spread over
two vCPUs, the run's figures swung twofold from minute to minute on a
2-vCPU VM whose CPUs are shared with other tenants (and whether two
misses overlapped added one more mode to every latency).  The unit operation is one pass: all 48
rounds, a session per client each.  The sessions are a fixed, seeded
set of 96 whose deeper drills differ in cost, so any percentile of a
per-click, per-session or per-round latency lands on whichever few
sessions a seed made slowest and jumps from seed to seed; a pass sums
them all.  Root surveys map ``Age``, ``Sex`` and ``Eye color``; with
``Salary`` and ``Education`` open as well, deeper drills split into two
cost classes about twofold apart.  The sessions and every expected
answer are computed in process during set-up, so the request stream
never depends on the server.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time

import numpy as np

from common import Op, Phase, fresh_dir
from harness import child_peak_rss_mb
from server_child import TABLE, TENANT_KEYS

ROWS = 100_000
#: Session shape: 16 roots x 2 drills x 3 deeper drills = 96 sessions,
#: 48 per tenant (enough that seeds differ little in total work).
ROOTS = 16
DEEPER_PER_DRILL = 3
#: Result-cache entries.  A round touches about 5 distinct answers (a
#: root, two drills, two deeper drills), so between two uses of a root
#: or drill about 5 x 16 = 80 distinct answers are touched, and between
#: two uses of a deeper drill all ~144.  110 keeps the first and evicts
#: the second, so in steady state only deeper drills miss (hit ratio
#: 0.75).
RESULT_CACHE = 110
TOP_MAPS = 3
SESSION_STEPS = 4
#: The dimensions every root survey maps besides ``Age`` (see above).
OTHER_ATTRIBUTES = "Sex: any\nEye color: any"


class ServeSessions:
    name = "serve-sessions"

    def __init__(self, root: str, seed: int, work_dir: str, tracer=None):
        self.root = root
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.process: "subprocess.Popen | None" = None
        self.url = ""
        self.scripts: "list[list[list[tuple]]]" = []
        self.remote: dict = {}

    # -- set-up ---------------------------------------------------------- #

    def setup(self) -> None:
        fresh_dir(self.work_dir)
        # The server generates its copy of the table while the session
        # scripts are computed here.
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(__file__),
                                          "server_child.py"),
             self.root, str(ROWS), str(self.seed),
             os.path.join(self.work_dir, "history.db"),
             "0" if self.tracer is None else "1", str(RESULT_CACHE)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.scripts = build_scripts(self.seed)
        line = self._read_line()
        if not line.startswith("READY "):
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line.split()[1]

    def _read_line(self) -> str:
        assert self.process is not None and self.process.stdout is not None
        return self.process.stdout.readline().strip()

    def _command(self, command: str) -> str:
        assert self.process is not None and self.process.stdin is not None
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self._read_line()

    def teardown(self) -> None:
        if self.process is None:
            return
        try:
            self.process.stdin.close()
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=10)
        finally:
            self.process.stdout.close()
            self.process = None

    def peak_rss_children_mb(self) -> float:
        return child_peak_rss_mb(self.process.pid) if self.process else 0.0

    # -- load ------------------------------------------------------------ #

    def warm_up(self) -> None:
        """Pin client and server to one CPU, then run one pass over every
        session, so the cache and the shared context reach their steady
        state before timing."""
        self._pin_to_one_cpu()
        asyncio.run(self._load(None, None, passes=1))

    def _pin_to_one_cpu(self) -> None:
        """Every thread of this process and of the server, on one CPU.

        With one request in flight nothing runs in parallel, and the
        hand-offs between client and server threads are most of a cache
        hit; spread over two vCPUs of a shared host, their wake-up
        latency swung the figures twofold from minute to minute.
        Threads started later inherit the mask.
        """
        cpu = min(os.sched_getaffinity(0))
        for pid in (os.getpid(), self.process.pid):
            for tid in os.listdir(f"/proc/{pid}/task"):
                os.sched_setaffinity(int(tid), {cpu})

    def measure(self, seconds: float, traced: bool = False) -> Phase:
        started = time.perf_counter()
        ops, pass_times = asyncio.run(self._load(
            started + seconds, self.tracer if traced else None))
        wall = time.perf_counter() - started
        return Phase(ops=ops, wall_seconds=wall, unit_samples=pass_times,
                     by_kind={"explore_ms": [op.seconds for op in ops]})

    async def _load(self, deadline, tracer, passes: "int | None" = None):
        """The clients take turns, one request in flight: each step,
        every client in turn sends its next click and waits for its
        answer.  Round ``k`` runs session ``k`` of each tenant; a pass
        runs every round once, and its latency is the sum of its clicks.
        The deadline is checked between rounds; a pass it cuts short is
        not counted.
        """
        from repro.service import AsyncServiceClient

        clients = [AsyncServiceClient(self.url, api_key=key, timeout=30.0)
                   for key in TENANT_KEYS.values()]
        ops: list[Op] = []
        pass_times: list[float] = []
        rounds = len(self.scripts[0])
        try:
            index, elapsed = 0, 0.0
            while passes is None or index < passes * rounds:
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                for step in range(SESSION_STEPS):
                    for client, scripts in zip(clients, self.scripts):
                        op = await self._click(
                            client, scripts[index % rounds][step], tracer, ops)
                        elapsed += op.seconds  # the oracle check is untimed
                        ops.append(op)
                index += 1
                if index % rounds == 0:
                    pass_times.append(elapsed)
                    elapsed = 0.0
        finally:
            for client in clients:
                await client.aclose()
        return ops, pass_times

    async def _click(self, client, step, tracer, ops) -> Op:
        """One explore, checked against the answer computed in set-up."""
        from repro.evaluation.metrics import map_set_fingerprint
        from repro.service.protocol import AdmissionError, ServiceError

        kind, query, expected = step
        handle = tracer.begin_op(len(ops)) if tracer else None
        started = time.perf_counter()
        refused = False
        response = None
        try:
            response = await client.explore(TABLE, query)
        except AdmissionError:
            refused = True
        except ServiceError:
            pass
        elapsed = time.perf_counter() - started
        if handle is not None:
            tracer.end_op(handle)
        correct = (response is not None
                   and map_set_fingerprint(response.map_set) == expected)
        return Op(kind, elapsed, correct, refused)

    # -- tracing and checks ---------------------------------------------- #

    def start_tracing(self) -> None:
        reply = self._command("TRACE")
        if reply != "TRACING":
            raise RuntimeError(f"server refused to trace: {reply!r}")

    def remote_summary(self) -> dict:
        reply = self._command("REPORT")
        if not reply.startswith("REPORT "):
            raise RuntimeError(f"server sent no report: {reply!r}")
        self.remote = json.loads(reply[len("REPORT "):])
        return self.remote["summary"]

    def layer_extra(self, phase: Phase) -> dict:
        sizes = self.remote.get("response_bytes", [])
        return {
            "memo_hits": self.remote.get("memo_hits", 0),
            "memo_misses": self.remote.get("memo_misses", 0),
            "kernel_nanos": self.remote.get("kernel_nanos", 0),
            "response_kb": sum(sizes) / len(sizes) / 1024 if sizes else 0.0,
            "refused": sum(op.refused for op in phase.ops)
            / max(phase.attempted, 1),
        }

    def check(self) -> "list[str]":
        """Every answer was compared with its in-process twin inline."""
        return []


def build_scripts(seed: int) -> "list[list[list[tuple]]]":
    """Seeded sessions from in-process explorer runs, one list per tenant.

    Each step is ``(kind, wire query, expected map_set_fingerprint)``.
    Root surveys are the whole table, then seeded ``Age`` ranges each
    covering 50-70% of the rows, mapping ``OTHER_ATTRIBUTES`` too.  Each root
    gives one drill into a seeded region of each of its two best maps:
    tenant A follows the best map, tenant B the second.  Each drill gets
    ``DEEPER_PER_DRILL`` deeper drills into regions of its own top-3
    maps, all distinct.  Round ``k`` runs the same root and deeper index
    for both tenants, so every round pairs the two drills of one root.
    Rounds run deeper-index-major, so in steady state roots, drills and "back"
    steps recur within the result cache's reach and hit, while every
    deeper drill misses.
    """
    from repro import explorer
    from repro.datagen import census_table
    from repro.errors import MapError
    from repro.evaluation.metrics import map_set_fingerprint
    from repro.query.parser import parse_query

    table = census_table(n_rows=ROWS, seed=seed)
    ages = table.numeric("Age").data
    fluent = explorer(table)
    rng = np.random.default_rng(seed)
    seen: set = set()  # every drill and deeper drill is distinct

    def explore(query):
        key = json.dumps(query.to_dict(), sort_keys=True)
        if key in seen:
            return None
        seen.add(key)
        try:
            answer = fluent.explore(query)
        except MapError:
            return None
        return answer if answer.ranked else None

    def shuffled(items) -> list:
        return [items[i] for i in rng.permutation(len(items))]

    def step(kind, query, answer):
        wire = query.to_dict() if query.predicates else None
        return (kind, wire, map_set_fingerprint(answer))

    def drill_sessions(root_step, data_map):
        """``DEEPER_PER_DRILL`` sessions under one region of ``data_map``."""
        for region in shuffled(data_map.regions):
            drill = explore(region)
            if drill is None:
                continue
            drill_step = step("drill", region, drill)
            sessions = []
            for deeper_region in shuffled([
                    region for entry in drill.ranked[:TOP_MAPS]
                    for region in entry.map.regions]):
                answer = explore(deeper_region)
                if answer is not None:
                    sessions.append([root_step, drill_step,
                                     step("deeper", deeper_region, answer),
                                     ("back",) + drill_step[1:]])
                if len(sessions) == DEEPER_PER_DRILL:
                    return sessions
        return None

    roots = []  # per root: (tenant A sessions, tenant B sessions)
    root = fluent.explore()
    for _ in range(10 * ROOTS):
        if len(roots) == ROOTS:
            break
        if len(root.ranked) >= 2:
            root_step = step("root", root.query, root)
            pair = [drill_sessions(root_step, entry.map)
                    for entry in root.ranked[:2]]
            if None not in pair:
                roots.append(pair)
        coverage = rng.uniform(0.5, 0.7)
        start = rng.uniform(0.0, 1.0 - coverage)
        low, high = np.quantile(ages, [start, start + coverage])
        root = fluent.explore(parse_query(
            f"Age: [{low:.0f}, {high:.0f}]\n{OTHER_ATTRIBUTES}"))
    if len(roots) < ROOTS:
        raise RuntimeError(f"only {len(roots)} root surveys with two drills")
    order = rng.permutation(ROOTS)
    return [[roots[r][tenant][j] for j in range(DEEPER_PER_DRILL)
             for r in order] for tenant in range(2)]
