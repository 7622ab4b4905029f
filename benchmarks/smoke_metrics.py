#!/usr/bin/env python
"""CI smoke: the /metrics endpoint serves the core serving series.

Boots a tiny model store, starts the HTTP front end, drives one seeded
pooled request and one unseeded coalesced request through it, then
scrapes ``GET /metrics`` and asserts the exposition parses and carries
the serve, batcher, and pool-supervision series, and that ``GET
/healthz`` reports the same request and row totals as the scrape.
Exit 0 on success, 1 with a diagnostic on any missing series or
mismatch — cheap enough to run on every push next to the benchmark
gates.

Usage::

    PYTHONPATH=src python benchmarks/smoke_metrics.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
import urllib.request

#: Every scrape of a served stack must carry these series.
REQUIRED_SERIES = (
    "repro_serve_requests_total",
    "repro_serve_request_seconds_bucket",
    "repro_serve_request_seconds_count",
    "repro_serve_rows_total",
    "repro_serve_circuit_state",
    "repro_batcher_requests_total",
    "repro_batcher_queue_depth",
    "repro_batcher_coalesce_size_bucket",
    "repro_batcher_submitted_total",
    "repro_batcher_rows_total",
    "repro_pool_dispatch_total",
    "repro_pool_chunks_total",
    "repro_pool_inflight",
)


def main() -> int:
    import repro
    from repro import datasets
    from repro.obs.export import parse_prometheus
    from repro.serve import SynthesisServer

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp) / "models"
        root.mkdir()
        table = datasets.load("sdata_num", n_records=400, seed=0)
        synth = repro.make_synthesizer("gan", epochs=1,
                                       iterations_per_epoch=3, seed=0)
        synth.fit(table)
        synth.save(root / "smoke-gan")

        with SynthesisServer(root, workers=2).start() as server:
            def post(body: dict) -> dict:
                request = urllib.request.Request(
                    f"{server.url}/models/smoke-gan/sample",
                    data=json.dumps(body).encode(),
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request, timeout=120) as resp:
                    return json.loads(resp.read())

            post({"n": 600, "seed": 7, "batch": 200})  # pooled, sharded
            post({"n": 64})                            # coalesced
            with urllib.request.urlopen(f"{server.url}/healthz",
                                        timeout=30) as resp:
                health = json.loads(resp.read())
            with urllib.request.urlopen(f"{server.url}/metrics",
                                        timeout=30) as resp:
                content_type = resp.headers.get("Content-Type", "")
                text = resp.read().decode("utf-8")

    if "version=0.0.4" not in content_type:
        print(f"FAIL: unexpected /metrics content type {content_type!r}",
              file=sys.stderr)
        return 1
    series = parse_prometheus(text)
    missing = [name for name in REQUIRED_SERIES if name not in series]
    if missing:
        print("FAIL: /metrics is missing series: " + ", ".join(missing),
              file=sys.stderr)
        print(text, file=sys.stderr)
        return 1
    rows = sum(value for _labels, value in
               series["repro_serve_rows_total"])
    if rows < 600 + 64:
        print(f"FAIL: repro_serve_rows_total={rows}, expected >= 664",
              file=sys.stderr)
        return 1
    for key, name in (("requests", "repro_serve_requests_total"),
                      ("rows", "repro_serve_rows_total")):
        scraped = sum(value for _labels, value in series[name])
        if health[key] != scraped:
            print(f"FAIL: /healthz {key}={health[key]} but {name} "
                  f"sums to {scraped:.0f}", file=sys.stderr)
            return 1
    print(f"OK: /metrics serves {len(series)} series "
          f"({rows:.0f} rows counted)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
