#!/usr/bin/env python
"""CI smoke: the /metrics endpoint serves the core serving series, and
the service's in-flight bound refuses and recovers as it should.

Boots a tiny model store, starts the HTTP front end, and drives:

* one seeded sharded request, and one unseeded request whose reported
  seed must be an integer that replays the same rows;
* with ``MAX_INFLIGHT`` patched to 1 and a stream held open, one more
  request, which must get 503 with ``Retry-After``.  The scrape taken
  then must show ``repro_serve_errors_total{error="BackpressureError"}``
  = 1 and ``repro_serve_inflight``, and ``GET /healthz`` ``inflight``
  must equal that gauge;
* after the stream closes, one request, which must succeed.

It then asserts the final exposition parses and carries the serve and
pool-supervision series, and that ``GET /healthz`` reports the same
request and row totals as the scrape.  Exit 0 on success, 1 with a
diagnostic on any missing series or mismatch — cheap enough to run on
every push next to the benchmark gates.

Usage::

    PYTHONPATH=src python benchmarks/smoke_metrics.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
import urllib.error
import urllib.request

#: Every scrape of a served stack must carry these series.
REQUIRED_SERIES = (
    "repro_serve_requests_total",
    "repro_serve_request_seconds_bucket",
    "repro_serve_request_seconds_count",
    "repro_serve_rows_total",
    "repro_serve_errors_total",
    "repro_serve_inflight",
    "repro_serve_circuit_state",
    "repro_pool_dispatch_total",
    "repro_pool_chunks_total",
    "repro_pool_inflight",
)


def _total(series: dict, name: str, **labels) -> float:
    return sum(value for got, value in series.get(name, [])
               if all(got.get(k) == v for k, v in labels.items()))


def main() -> int:
    import repro
    from repro import datasets
    from repro.obs.export import parse_prometheus
    from repro.serve import SynthesisServer
    from repro.serve import service as service_module

    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp) / "models"
        root.mkdir()
        table = datasets.load("sdata_num", n_records=400, seed=0)
        synth = repro.make_synthesizer("gan", epochs=1,
                                       iterations_per_epoch=3, seed=0)
        synth.fit(table)
        synth.save(root / "smoke-gan")

        with SynthesisServer(root, workers=2).start() as server:
            def post(body: dict):
                request = urllib.request.Request(
                    f"{server.url}/models/smoke-gan/sample",
                    data=json.dumps(body).encode(),
                    headers={"Content-Type": "application/json"})
                try:
                    with urllib.request.urlopen(request,
                                                timeout=120) as resp:
                        return resp.status, resp.headers, \
                            json.loads(resp.read())
                except urllib.error.HTTPError as exc:
                    return exc.code, exc.headers, json.loads(exc.read())

            def get(path: str):
                with urllib.request.urlopen(f"{server.url}{path}",
                                            timeout=30) as resp:
                    return resp.headers, resp.read().decode("utf-8")

            post({"n": 600, "seed": 7, "batch": 200})   # sharded
            _, _, unseeded = post({"n": 64})
            seed = unseeded.get("seed")
            if type(seed) is not int:
                problems.append(f"unseeded response reported seed {seed!r}, "
                                "not an integer")
            else:
                _, _, replay = post({"n": 64, "seed": seed})
                if replay.get("columns") != unseeded.get("columns"):
                    problems.append(f"replaying seed {seed} returned "
                                    "different rows")

            limit = service_module.MAX_INFLIGHT
            service_module.MAX_INFLIGHT = 1
            held, _ = server.service.sample_iter("smoke-gan", 600, seed=8)
            try:
                status, headers, refused = post({"n": 64})
                held_health = json.loads(get("/healthz")[1])
                held_scrape = parse_prometheus(get("/metrics")[1])
            finally:
                held.close()
                service_module.MAX_INFLIGHT = limit
            if status != 503 or refused.get("error") != "BackpressureError" \
                    or not headers.get("Retry-After"):
                problems.append(
                    f"request over the in-flight bound got {status} "
                    f"{refused.get('error')!r} with Retry-After "
                    f"{headers.get('Retry-After')!r}, expected 503 "
                    "'BackpressureError' with Retry-After")
            backpressure = _total(held_scrape, "repro_serve_errors_total",
                                  error="BackpressureError")
            if backpressure != 1:
                problems.append("repro_serve_errors_total{error="
                                f"\"BackpressureError\"}}={backpressure:.0f}"
                                ", expected 1")
            if "repro_serve_inflight" not in held_scrape:
                problems.append("a held stream left no repro_serve_inflight "
                                "series in the scrape")
            gauge = _total(held_scrape, "repro_serve_inflight")
            if held_health["inflight"] != gauge:
                problems.append(f"/healthz inflight={held_health['inflight']}"
                                f" but repro_serve_inflight={gauge:.0f}")

            status, _, _ = post({"n": 64})
            if status != 200:
                problems.append(f"request after the stream closed got "
                                f"{status}, expected 200")
            health = json.loads(get("/healthz")[1])
            headers, text = get("/metrics")
            content_type = headers.get("Content-Type", "")

    if "version=0.0.4" not in content_type:
        problems.append(f"unexpected /metrics content type {content_type!r}")
    series = parse_prometheus(text)
    missing = [name for name in REQUIRED_SERIES if name not in series]
    if missing:
        problems.append("/metrics is missing series: " + ", ".join(missing))
    rows = _total(series, "repro_serve_rows_total")
    if rows < 600 + 3 * 64:
        problems.append(f"repro_serve_rows_total={rows:.0f}, expected "
                        f">= {600 + 3 * 64}")
    for key, name in (("requests", "repro_serve_requests_total"),
                      ("rows", "repro_serve_rows_total"),
                      ("inflight", "repro_serve_inflight")):
        scraped = _total(series, name)
        if health[key] != scraped:
            problems.append(f"/healthz {key}={health[key]} but {name} "
                            f"sums to {scraped:.0f}")
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        print(text, file=sys.stderr)
        return 1
    print(f"OK: /metrics serves {len(series)} series "
          f"({rows:.0f} rows counted); the in-flight bound refused, "
          "then recovered")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
