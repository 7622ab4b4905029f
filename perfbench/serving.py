"""The ``serve-small`` and ``serve-bulk`` workloads.

The client (this process) fits and saves the served model, then starts
the server process (:mod:`perfbench.launcher`) several times to time its
set-up, from launch until the first warm-up response, and measures the
last one over HTTP with at most two threads and two keep-alive
connections.  The server runs float64, the engine default, because the
server command line has no dtype option.

* ``serve-small``: unseeded 512-row JSON requests, which the service
  routes through the micro-batcher.  Phase ``base`` and phase ``busy``
  are open loops with Poisson arrivals at fixed mean rates, latency
  counted from each request's due time; phase ``burst`` is a closed
  loop on both connections that measures the latency and the rows per
  second two clients get when each waits for its reply.
* ``serve-bulk``: seeded 100,000-row CSV requests, streamed in chunks
  (they pass the server's 50,000-row streaming threshold) and bypassing
  the batcher, sent back to back on one connection, each with a fresh
  seed derived from the workload seed.
"""

from __future__ import annotations

import glob
import http.client
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from . import loadgen
from .common import (child_env, derive, median, percentile, read_json,
                     read_line, stop, supported, tail_samples)
from .launcher import WORKERS

MODEL = "adult-gan"
SAMPLE_PATH = f"/models/{MODEL}/sample"
#: Fit of the served model (same table and design point as ``publish``;
#: its speed is not measured here, so a shorter budget keeps set-up
#: short).
FIT_EPOCHS, FIT_ITERATIONS = 4, 20
CONNECTIONS = 2
SMALL_ROWS = 512
BULK_ROWS = 100_000
#: Mean arrival rates of the open-loop phases (requests per second);
#: two-connection closed-loop capacity on a 2-CPU box is about 59.
RATES = {"base": 20.0, "busy": 35.0}
#: Share of ``--seconds`` each serve-small phase gets; at 30 s the open
#: loops just hold their 200-plus requests and ``burst`` gets the rest.
SHARES = {"base": 0.4, "busy": 0.23, "burst": 0.37}
#: Every open-loop phase holds at least this many requests, so that at
#: least ten samples lie beyond its 95th percentile.
MIN_PHASE_REQUESTS = 200
#: Server processes started per run; set-up time is their median.
SETUPS = 3
#: Reported in place of a failed request's latency (it missed any limit).
FAILED_LATENCY_S = 60.0


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One launcher process; ``setup_s`` runs from its launch until the
    first warm-up response."""

    def __init__(self, root: str, run_dir: str, store: str, index: int,
                 trace: bool):
        self.out = os.path.join(run_dir, f"server-{index}")
        os.makedirs(self.out)
        launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.launcher", store,
             "--out", self.out, "--trace", str(int(trace))],
            cwd=root, env=child_env(root, run_dir), text=True,
            stdout=subprocess.PIPE)
        try:
            line = read_line(self.proc, 120)
            if not line.startswith("PORT "):
                raise RuntimeError(f"server said {line!r}")
            self.port = int(line.split()[1])
            conn = loadgen.Connection(self.port, 120)
            try:
                status, _, _ = conn.post(SAMPLE_PATH, {"n": SMALL_ROWS},
                                         "w-setup")
            finally:
                conn.close()
            if status != 200:
                raise RuntimeError(f"warm-up request got HTTP {status}")
        except BaseException:
            stop(self.proc, grace=10, signum=signal.SIGKILL)
            raise
        self.setup_s = time.perf_counter() - launched

    def get(self, path: str) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"GET {path} got HTTP {response.status}")
        return data

    def scrape(self) -> dict:
        from repro.obs import parse_prometheus

        return parse_prometheus(self.get("/metrics").decode("utf-8"))

    def close(self) -> dict:
        """Stop the server (SIGINT, as Ctrl-C stops ``repro.serve``) and
        read what it and its workers recorded."""
        code = stop(self.proc, grace=30, signum=signal.SIGINT)
        if code != 0:
            raise RuntimeError(f"server exited with {code}")
        dumps = [read_json(path) for path in
                 sorted(glob.glob(os.path.join(self.out, "*.json")))]
        server = [d for d in dumps if d["role"] == "server"]
        workers = [d for d in dumps if d["role"] == "worker"]
        if len(server) != 1 or len(workers) != WORKERS:
            raise RuntimeError(
                f"expected 1 server and {WORKERS} worker records, got "
                f"{len(server)} and {len(workers)}")
        return {"server": server[0], "workers": workers,
                "peak_rss_mb": server[0]["rusage"]["maxrss_mb"]
                + sum(w["rusage"]["maxrss_mb"] for w in workers)}


def start_servers(root, run_dir, store, trace, count, first_index=0):
    """Start ``count`` servers one after another, keeping the last."""
    setups = []
    server = None
    for index in range(first_index, first_index + count):
        if server is not None:
            server.close()
        server = Server(root, run_dir, store, index, trace)
        setups.append(server.setup_s)
    return server, setups


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def _ok(record: dict) -> bool:
    return record["status"] == 200 and record["error"] is None


def open_phase(server: Server, name: str, seed: int, seconds: float) -> dict:
    rate = RATES[name]
    count = max(MIN_PHASE_REQUESTS, round(rate * seconds * SHARES[name]))
    offsets = loadgen.poisson_schedule(rate, count,
                                       derive(seed, "arrivals", name))
    result = loadgen.open_loop(server.port, SAMPLE_PATH, {"n": SMALL_ROWS},
                               offsets, CONNECTIONS, prefix=name[0])
    records = result["records"]
    latencies = [r["latency"] if _ok(r) else FAILED_LATENCY_S
                 for r in records]
    mid = result["start"] + offsets[len(offsets) // 2]
    backlog_mid = loadgen.backlog_at(records, mid)
    backlog_end = loadgen.backlog_at(records, result["end"])
    ok = sum(1 for r in records if _ok(r))
    return {
        "kind": "open", "rate": rate, "records": records,
        "window": (result["start"], max(r["done"] for r in records)),
        "sent": len(records), "succeeded": ok, "failed": len(records) - ok,
        "samples": len(latencies),
        "latency_ms.p50": 1000 * percentile(latencies, 50),
        "latency_ms.p95": 1000 * percentile(latencies, 95),
        "p95_supported": supported(len(latencies), 95),
        "beyond_p95": tail_samples(len(latencies), 95),
        "client.late_ms.p99": 1000 * percentile(
            [r["late"] for r in records], 99),
        "backlog_mid": backlog_mid, "backlog_end": backlog_end,
        # A phase whose client-side backlog grew did not run at its
        # offered rate: its latencies describe no steady state.
        "valid": not (backlog_end > 2 * CONNECTIONS
                      and backlog_end > backlog_mid),
    }


def closed_phase(server: Server, seconds: float, make_payload, prefix: str,
                 stream: bool, connections: int, keep) -> dict:
    result = loadgen.closed_loop(server.port, SAMPLE_PATH, make_payload,
                                 seconds, prefix, stream,
                                 connections=connections, keep=keep)
    records = result["records"]
    ok = [r for r in records if _ok(r)]
    rows = sum(make_payload(r["index"])["n"] for r in ok)
    elapsed = result["end"] - result["start"]
    latencies = [r["latency"] if _ok(r) else FAILED_LATENCY_S
                 for r in records]
    return {"kind": "closed", "connections": connections,
            "records": records, "window": (result["start"], result["end"]),
            "sent": len(records), "succeeded": len(ok),
            "failed": len(records) - len(ok), "rows": rows,
            "elapsed_s": elapsed, "rows_per_s": rows / elapsed,
            "samples": len(latencies),
            "latency_ms.p50": 1000 * percentile(latencies, 50)}


def small_payload(index: int) -> dict:
    return {"n": SMALL_ROWS}


def bulk_payload(seed: int):
    def payload(index: int) -> dict:
        return {"n": BULK_ROWS, "seed": derive(seed, "request", index) % 2**31,
                "format": "csv"}
    return payload


def warm(server: Server, kind: str, seed: int) -> None:
    """Untimed requests after set-up: lazy imports and buffers settle."""
    if kind == "serve-small":
        loadgen.closed_loop(server.port, SAMPLE_PATH, small_payload, 1.0,
                            "w", False, connections=CONNECTIONS)
        return
    conn = loadgen.Connection(server.port, 120)
    try:
        status, _, _ = conn.post(SAMPLE_PATH,
                                 bulk_payload(derive(seed, "warm-up"))(0),
                                 "w-bulk", stream=True)
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"warm-up request got HTTP {status}")


def run_phases(server: Server, kind: str, seed: int,
               seconds: float) -> Dict[str, dict]:
    """The workload's timed phases, in order."""
    if kind == "serve-bulk":
        return {"bulk": closed_phase(server, seconds, bulk_payload(seed),
                                     "r", True, 1, keep=lambda i: i == 0)}
    return {
        "base": open_phase(server, "base", seed, seconds),
        "busy": open_phase(server, "busy", seed, seconds),
        "burst": closed_phase(server, seconds * SHARES["burst"],
                              small_payload, "x", False, CONNECTIONS,
                              keep=lambda i: True),
    }


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_small(records: List[dict], schema) -> dict:
    """Every 200 response carries ``n`` rows in the model's schema."""
    bad = 0
    checked = 0
    for record in records:
        if not _ok(record):
            continue
        checked += 1
        try:
            payload = json.loads(record["body"])
            columns = payload["columns"]
            good = (payload["n"] == SMALL_ROWS
                    and list(columns) == list(schema.names)
                    and all(len(columns[a.name]) == SMALL_ROWS
                            for a in schema)
                    and all(set(columns[a.name]) <= set(a.categories)
                            for a in schema if a.is_categorical))
        except (ValueError, KeyError, TypeError):
            good = False
        bad += not good
    return {"responses_checked": checked, "responses_bad": bad,
            "ok": checked > 0 and bad == 0}


def check_bulk(records: List[dict], model_dir: str, seed: int) -> dict:
    """The first seeded CSV body equals the CSV encoding of the
    in-process ``sample(n, seed=...)`` (the sharded-seed contract, end
    to end over HTTP); every body holds a header plus ``n`` rows."""
    from repro.api import load_synthesizer
    from repro.serve.encoding import csv_stream

    first = records[0]
    request_seed = bulk_payload(seed)(first["index"])["seed"]
    table = load_synthesizer(model_dir).sample(BULK_ROWS, seed=request_seed)
    expected = "".join(csv_stream([table], table.schema)).encode("utf-8")
    identical = _ok(first) and first["body"] == expected
    rows_ok = all(r["lines"] == BULK_ROWS + 1 for r in records if _ok(r))
    return {"csv_identical": bool(identical), "rows_ok": rows_ok,
            "ok": bool(identical and rows_ok)}


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def prepare(run_dir: str, seed: int) -> dict:
    """Fit the served model (float32, like ``publish``) and save it into
    a fresh store; returns the store, the model directory, its schema
    and the save time."""
    from repro import datasets, nn
    from repro.core import DesignConfig
    from repro.gan import GANSynthesizer

    from .publish import DATASET, RECORDS

    store = os.path.join(run_dir, "store")
    model_dir = os.path.join(store, MODEL)
    with nn.default_dtype("float32"):
        table = datasets.load(DATASET, n_records=RECORDS,
                              seed=derive(seed, "table") % 2**32)
        synth = GANSynthesizer(config=DesignConfig(), epochs=FIT_EPOCHS,
                               iterations_per_epoch=FIT_ITERATIONS,
                               seed=derive(seed, "model") % 2**32)
        synth.fit(table)
        started = time.perf_counter()
        synth.save(model_dir)
        save_s = time.perf_counter() - started
    return {"store": store, "model_dir": model_dir, "schema": table.schema,
            "save_ms": 1000 * save_s}


def _requests(phases: Dict[str, dict]) -> List[dict]:
    return [r for phase in phases.values() for r in phase["records"]]


def run(kind: str, root: str, run_dir: str, seed: int, seconds: float,
        trace: bool) -> dict:
    model = prepare(run_dir, seed)
    server: Optional[Server] = None
    try:
        if not trace:
            server, setups = start_servers(root, run_dir, model["store"],
                                           False, SETUPS)
            warm(server, kind, seed)
            phases = run_phases(server, kind, seed, seconds)
            record = server.close()
            server = None
            result = {"setups_s": setups, "setup_s": median(setups),
                      "peak_rss_mb": record["peak_rss_mb"],
                      "phases": phases}
        else:
            result = _traced(kind, root, run_dir, seed, seconds, model)
    finally:
        if server is not None:
            stop(server.proc, grace=10, signum=signal.SIGKILL)
    requests = _requests(result["phases"])
    if kind == "serve-small":
        result["checks"] = check_small(requests, model["schema"])
    else:
        result["checks"] = check_bulk(result["phases"]["bulk"]["records"],
                                      model["model_dir"], seed)
    return result


def _main_phase(server: Server, kind: str, seed: int,
                seconds: float) -> dict:
    """The phase the declared figures come from, run for all of
    ``seconds``: ``burst`` (serve-small) or ``bulk``."""
    if kind == "serve-small":
        return closed_phase(server, seconds, small_payload, "x", False,
                            CONNECTIONS, keep=lambda i: True)
    return run_phases(server, kind, seed, seconds)["bulk"]


def _traced(kind, root, run_dir, seed, seconds, model) -> dict:
    """An untraced server and then a traced one run the workload's main
    phase; the traced one also yields the per-layer metrics, and the
    two give the tracing overhead."""
    from .analysis import serve_metrics

    plain, _ = start_servers(root, run_dir, model["store"], False, 1)
    try:
        warm(plain, kind, seed)
        plain_phase = _main_phase(plain, kind, seed, seconds)
    finally:
        plain.close()
    traced, _ = start_servers(root, run_dir, model["store"], True, 1,
                              first_index=1)
    try:
        warm(traced, kind, seed)
        before = traced.scrape()
        phase = _main_phase(traced, kind, seed, seconds)
        after = traced.scrape()
    finally:
        record = traced.close()
    rows = SMALL_ROWS if kind == "serve-small" else BULK_ROWS
    ok = [dict(r, rows=rows) for r in phase["records"] if _ok(r)]
    layers = serve_metrics(ok, phase["window"], record["server"],
                           record["workers"], before, after, WORKERS,
                           model["save_ms"])

    def mean_service(records):
        done = [r["service"] for r in records if _ok(r)]
        return sum(done) / len(done)

    layers["metrics"]["obs.trace_overhead_share"] = (
        mean_service(phase["records"])
        / mean_service(plain_phase["records"]) - 1.0)
    name = "burst" if kind == "serve-small" else "bulk"
    return {"phases": {name: phase}, "layers": layers,
            "peak_rss_mb": record["peak_rss_mb"]}
