"""Shared helpers of the benchmark: percentiles, metric names, the
``BENCHMARK.json`` schema, provenance, memory, and the result line.

Everything here is pure standard library so the unit tests in
``perfbench/tests`` run without the program under test.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import resource
import sys

#: A metric or workload name: starts with a letter or digit, at most 64
#: characters of letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: A unit: at most 16 characters of letters, digits, ``_ / % . -``.
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: A path entry of ``paths``.
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

#: The keys ``BENCHMARK.json`` holds, no more and no fewer.
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}

#: Samples a percentile must leave beyond it before it is reported as
#: supported (the nearest-rank tail rule).
TAIL_SAMPLES = 10


class SchemaError(ValueError):
    """``BENCHMARK.json`` breaks its schema."""


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``."""
    return n - max(math.ceil(q / 100.0 * n), 1)


def supported_percentile(n: int, tail: int = TAIL_SAMPLES) -> "int | None":
    """The highest whole percentile leaving at least ``tail`` samples
    beyond it, or ``None`` when ``n`` is too small for any."""
    for q in range(99, 0, -1):
        if samples_beyond(n, q) >= tail:
            return q
    return None


def summarize(values: "list[float]") -> dict:
    """p50, p90, count, and the highest percentile the samples support."""
    best = supported_percentile(len(values))
    out = {
        "n": len(values),
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "p90_beyond": samples_beyond(len(values), 90),
        "supported_percentile": best,
    }
    if best is not None:
        out[f"p{best}"] = percentile(values, best)
    return out


def validate_metric_name(name: object) -> str:
    """Return ``name`` if it is a valid metric name, else raise."""
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise SchemaError(f"invalid metric name {name!r}")
    return name


def _check_keys(entry: object, keys: set, where: str) -> dict:
    if not isinstance(entry, dict) or set(entry) != keys:
        raise SchemaError(f"{where} must have exactly the keys {sorted(keys)}")
    return entry


def validate_benchmark(doc: object) -> dict:
    """Check a parsed ``BENCHMARK.json`` against its schema: the key set,
    name and unit formats, counts and bounds."""
    _check_keys(doc, TOP_KEYS, "BENCHMARK.json")
    command = doc["command"]
    if (not isinstance(command, list) or not 1 <= len(command) <= 32
            or not all(isinstance(a, str) and len(a) <= 200 for a in command)):
        raise SchemaError("command must be 1..32 strings of <= 200 chars")
    for arg in command:
        if arg.startswith("/") or ".." in arg.split("/"):
            raise SchemaError(f"command argument {arg!r} leaves the repo")
    paths = doc["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        raise SchemaError("paths must list 1..16 directories")
    for path in paths:
        if (not isinstance(path, str) or not PATH_RE.match(path)
                or path.startswith("/") or ".." in path.split("/")):
            raise SchemaError(f"invalid path {path!r}")
    seconds = doc["run_seconds"]
    if (not isinstance(seconds, int) or isinstance(seconds, bool)
            or not 1 <= seconds <= 60):
        raise SchemaError("run_seconds must be a whole number in 1..60")
    names: set[str] = set()

    def claim(name: object) -> None:
        validate_metric_name(name)
        if name in names:
            raise SchemaError(f"name {name!r} is used twice")
        names.add(name)  # type: ignore[arg-type]

    workloads = doc["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        raise SchemaError("workloads must list 2..8 entries")
    for entry in workloads:
        _check_keys(entry, {"name", "why"}, "a workload")
        claim(entry["name"])
        why = entry["why"]
        if not isinstance(why, str) or "\n" in why or len(why) > 200:
            raise SchemaError(f"workload {entry['name']!r}: why must be one "
                              "line of <= 200 characters")
    end_to_end = doc["end_to_end"]
    if not isinstance(end_to_end, list) or not 1 <= len(end_to_end) <= 16:
        raise SchemaError("end_to_end must list 1..16 metrics")
    for entry in end_to_end:
        _check_keys(entry, {"name", "unit", "better", "bound"}, "an end_to_end metric")
        claim(entry["name"])
        _check_unit_better(entry)
        bound = entry["bound"]
        if (not isinstance(bound, (int, float)) or isinstance(bound, bool)
                or not 0 < bound <= 0.25):
            raise SchemaError(f"{entry['name']}: bound must be in (0, 0.25]")
    setup = [e for e in end_to_end if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise SchemaError("end_to_end needs setup_s in s, lower is better")
    per_layer = doc["per_layer"]
    if not isinstance(per_layer, list) or not 1 <= len(per_layer) <= 128:
        raise SchemaError("per_layer must list 1..128 metrics")
    for entry in per_layer:
        _check_keys(entry, {"name", "unit", "better"}, "a per_layer metric")
        claim(entry["name"])
        _check_unit_better(entry)
    if len(json.dumps(doc).encode("utf-8")) > 64 * 1024:
        raise SchemaError("BENCHMARK.json is larger than 64 KiB")
    return doc


def _check_unit_better(entry: dict) -> None:
    if not isinstance(entry["unit"], str) or not UNIT_RE.match(entry["unit"]):
        raise SchemaError(f"{entry['name']}: invalid unit {entry['unit']!r}")
    if entry["better"] not in ("lower", "higher"):
        raise SchemaError(f"{entry['name']}: better must be lower or higher")


def load_benchmark(root: str) -> dict:
    """Read and validate ``<root>/BENCHMARK.json``."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return validate_benchmark(json.load(f))


def metric_units(doc: dict, section: str) -> "dict[str, str]":
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    return {entry["name"]: entry["unit"] for entry in doc[section]}


def result_line(
    *,
    correct: bool,
    attempted: int,
    failed: int,
    values: "dict[str, float]",
    units: "dict[str, str]",
) -> str:
    """The run's last stdout line: exactly the declared metrics."""
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise SchemaError(f"metrics missing {missing}, undeclared {extra}")
    metrics = {}
    for name in units:
        value = float(values[name])
        if not math.isfinite(value):
            raise SchemaError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": units[name]}
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(max(attempted, 1)),
        "failed": int(failed),
        "metrics": metrics,
    })


def provenance(seed: int) -> dict:
    """Host and toolchain facts every report carries."""
    import sqlite3

    import numpy

    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE VIRTUAL TABLE probe USING fts5(x)")
        fts5 = True
    except sqlite3.OperationalError:
        fts5 = False
    finally:
        conn.close()
    try:
        import multiprocessing

        multiprocessing.get_context("fork")
        fork = True
    except ValueError:
        fork = False
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "fts5": fts5,
        "fork": fork,
        "platform": platform.platform(),
    }


def own_peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb(pid: int) -> float:
    """A live child's peak resident set, read from ``/proc`` (VmHWM)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0
