"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload serve-sessions --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src``
and the metric names come from ``BENCHMARK.json``.  The inputs are
generated from ``--seed``.  Set-up runs several times and its median is
``setup_s``; one warm-up pass follows, then the timed phase.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the phase is split into an untraced half and a traced
half, and the line carries the per-layer metrics instead.  The line
before it is the full report: provenance, sample counts, the highest
percentile each latency supports, the workload's own latency
breakdown, and the tracer self-check.  Scratch files live under
``.bench_build/perfbench`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import Phase  # noqa: E402
from harness import (  # noqa: E402
    load_benchmark,
    metric_units,
    own_peak_rss_mb,
    percentile,
    provenance,
    result_line,
    summarize,
)

#: Set-up runs per invocation; ``setup_s`` is their median.
SETUP_REPEATS = 3


def workload_class(name: str):
    if name == "serve-sessions":
        from serve_sessions import ServeSessions
        return ServeSessions
    if name == "ingest-text":
        from ingest_text import IngestText
        return IngestText
    if name == "cold-paths":
        from cold_paths import ColdPaths
        return ColdPaths
    raise SystemExit(f"unknown workload {name!r}")


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def ms(values: "list[float]") -> "list[float]":
    return [v * 1e3 for v in values]


def end_to_end(phase: Phase, setup_times: "list[float]", rss_mb: float) -> dict:
    op = summarize(ms(phase.unit_samples))
    return {
        "setup_s": statistics.median(setup_times),
        "op_ms.p50": op["p50"],
        "op_ms.p90": op["p90"],
        "throughput_ops": phase.throughput,
        "peak_rss_mb": rss_mb,
    }


#: Per-kind latencies reported as per-layer metrics (0 where a workload
#: has no such operation), taken from the untraced half of a traced run.
LATENCY_KINDS = ("explore_ms", "append_ms", "cold_answer_ms.parallel",
                 "cold_answer_ms.cluster", "cold_answer_ms.warm",
                 "cold_answer_ms.sql")


def latency_metrics(phase: Phase) -> "dict[str, float]":
    out = {}
    for kind in LATENCY_KINDS:
        values = ms(phase.by_kind.get(kind, []))
        out[f"{kind}.p50"] = percentile(values, 50) if values else 0.0
        out[f"{kind}.p90"] = percentile(values, 90) if values else 0.0
    return out


def latency_report(phase: Phase) -> dict:
    out = {"op_ms": summarize(ms(phase.unit_samples))}
    for name, values in phase.by_kind.items():
        if values:
            out[name] = summarize(ms(values))
    return out


def run(args: argparse.Namespace, root: str) -> int:
    doc = load_benchmark(root)
    sys.path.insert(0, os.path.join(root, "src"))
    work_dir = os.path.join(root, ".bench_build", "perfbench", str(os.getpid()))
    # SQLite and tempfile spill into TMPDIR; keep that inside the checkout
    # too (child processes inherit it).
    scratch = work_dir + "-tmp"
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = scratch
    from tracer import Tracer

    workload = workload_class(args.workload)(
        root, args.seed, work_dir, Tracer() if args.trace else None)
    report: dict = {"workload": args.workload, "trace": args.trace,
                    "seconds": args.seconds, "provenance": provenance(args.seed)}
    setup_times: list[float] = []
    try:
        for attempt in range(SETUP_REPEATS):
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)
            if attempt < SETUP_REPEATS - 1:
                workload.teardown()
        started = time.perf_counter()
        workload.warm_up()
        report["warm_up_s"] = time.perf_counter() - started
        report["setup_s"] = setup_times
        if args.trace:
            values, phase, problems = traced(workload, args.seconds, report)
        else:
            phase = workload.measure(args.seconds)
            problems = workload.check()
            rss = own_peak_rss_mb() + workload.peak_rss_children_mb()
            values = end_to_end(phase, setup_times, rss)
            report["latency_ms"] = latency_report(phase)
        report["failed_share"] = phase.failed / max(phase.attempted, 1)
    finally:
        workload.teardown()
        shutil.rmtree(work_dir, ignore_errors=True)
        shutil.rmtree(scratch, ignore_errors=True)
    report["problems"] = problems
    correct = not problems and phase.failed == 0
    section = "per_layer" if args.trace else "end_to_end"
    print("report " + json.dumps(report, default=str))
    print(result_line(correct=correct, attempted=phase.attempted,
                      failed=phase.failed, values=values,
                      units=metric_units(doc, section)))
    return 0


def traced(workload, seconds: float, report: dict):
    """Untraced half, then traced half; per-layer metrics from the latter."""
    from layers import (
        KernelMeter,
        install,
        layer_metrics,
        merge_summaries,
        summarize_spans,
    )
    from tracer import Patcher

    half = seconds / 2
    base = workload.measure(half)
    tracer = workload.tracer
    kernels = KernelMeter()
    patcher = Patcher(tracer)
    install(patcher, tracer, kernels)
    workload.start_tracing()
    tracer.enabled = True
    try:
        phase = workload.measure(half, traced=True)
    finally:
        tracer.enabled = False
        patcher.restore()
    summary = merge_summaries(summarize_spans(tracer.take()),
                              workload.remote_summary())
    extra = workload.layer_extra(phase)
    extra["kernel_nanos"] = extra.get("kernel_nanos", 0) + kernels.nanos
    base_p50 = summarize(ms(base.unit_samples))["p50"]
    traced_p50 = summarize(ms(phase.unit_samples))["p50"]
    extra["trace_overhead"] = traced_p50 / base_p50
    extra["latency"] = latency_metrics(base)
    values = layer_metrics(summary, n_ops=phase.attempted, extra=extra)
    problems = workload.check() + self_check(summary, values)
    report["latency_ms"] = {"untraced": latency_report(base),
                            "traced": latency_report(phase)}
    report["trace_counters"] = summary["counters"]
    # Both halves count toward attempted and failed.
    merged = Phase(ops=base.ops + phase.ops,
                   wall_seconds=base.wall_seconds + phase.wall_seconds,
                   unit_samples=base.unit_samples + phase.unit_samples)
    return values, merged, problems


def self_check(summary: dict, values: dict) -> "list[str]":
    """The tracer's own consistency checks."""
    counters = summary["counters"]
    problems = []
    pairs = counters.get("stage_pairs", 0)
    if pairs and counters.get("stage_agree", 0) < 0.95 * pairs:
        problems.append(
            f"stage spans disagree with MapSet.timings: "
            f"{counters['stage_agree']}/{pairs} within tolerance")
    builds = counters.get("cluster_builds", 0)
    if builds and counters.get("rpc_calls", 0) != 8 * builds:
        problems.append(f"{counters['rpc_calls']} shard RPCs over {builds} "
                        "cluster builds, expected 8 per build")
    if values.get("cluster.shard_retries", 0):
        problems.append(f"{values['cluster.shard_retries']} shard retries")
    if counters.get("residue_negative", 0) or values["residue_ms"] < 0:
        problems.append("negative residue")
    return problems


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print(f"no program to measure: {root}/src/repro is missing",
              file=sys.stderr)
        return 2
    return run(args, root)


if __name__ == "__main__":
    raise SystemExit(main())
