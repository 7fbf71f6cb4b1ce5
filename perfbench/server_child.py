"""The serve-sessions server process: the async service over one table.

Started by ``serve_sessions.py`` as
``python3 perfbench/server_child.py ROOT ROWS SEED HISTORY TRACE CACHE``.
It prints ``READY <url>`` once it serves, then obeys one command per
stdin line: ``TRACE`` wraps the traced calls and starts recording,
``REPORT`` stops recording and prints ``REPORT <json>`` (span totals,
memo counters, response bytes); end of input shuts it down.
"""

from __future__ import annotations

import json
import os
import sys

TABLE = "census"
TENANT_KEYS = {"tenant-a": "key-tenant-a", "tenant-b": "key-tenant-b"}


def main(argv: "list[str]") -> int:
    root, rows, seed, history, trace, cache = argv
    sys.path[:0] = [os.path.join(root, "src"), os.path.dirname(__file__)]
    from layers import KernelMeter, install, summarize_spans, traced_pipeline
    from tracer import Patcher, Tracer

    from repro.datagen import census_table
    from repro.engine.pipeline import Pipeline
    from repro.service import ExplorationService, Tenant, serve_async

    tracing = trace == "1"
    tracer = Tracer()
    kernels = KernelMeter()
    patcher = Patcher(tracer)
    response_bytes: list[int] = []

    def access_log(record: dict) -> None:
        if tracer.enabled and record["path"] == "/explore":
            response_bytes.append(record["bytes"])

    table = census_table(n_rows=int(rows), seed=int(seed))
    service = ExplorationService(
        max_workers=2,
        tenants=[Tenant(name, api_key=key) for name, key in TENANT_KEYS.items()],
        require_api_key=True,
        history=history,
        result_cache_size=int(cache),
        pipeline=traced_pipeline(Pipeline.default(), tracer) if tracing else None,
    )
    service.register(TABLE, table)
    server = serve_async(service, access_log=access_log if tracing else None)
    print("READY", server.url, flush=True)
    memo_before = (0, 0)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "TRACE" and tracing:
                install(patcher, tracer, kernels)
                stats = service.metrics()["statistics_cache"]
                memo_before = (stats["hits"], stats["misses"])
                tracer.enabled = True
                print("TRACING", flush=True)
            elif command == "REPORT":
                tracer.enabled = False
                patcher.restore()
                stats = service.metrics()["statistics_cache"]
                summary = summarize_spans(tracer.take(), server=True)
                print("REPORT", json.dumps({
                    "summary": summary,
                    "memo_hits": stats["hits"] - memo_before[0],
                    "memo_misses": stats["misses"] - memo_before[1],
                    "kernel_nanos": kernels.nanos,
                    "response_bytes": response_bytes,
                }), flush=True)
    finally:
        server.close()
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
