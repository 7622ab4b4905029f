"""Serving throughput and latency: the first end-to-end concurrency bench.

Measures the :mod:`repro.serve` stack on the MLP-GAN seed workload
(the same design point as ``bench_sampling_throughput``'s ``gan-mlp``
row):

* **throughput** — rows/s of ``WorkerPool.sample(N, seed)`` at 1/2/4
  workers, plus the plain single-process ``sample`` as reference.
  Every pooled result is verified **bit-identical** to the reference
  (the sharded-seed contract is an acceptance criterion, not a hope).
* **latency** — p50/p95 per-request wall clock under a concurrent load
  generator: ``REPRO_BENCH_SERVE_CONCURRENCY`` client threads each
  firing small requests at the largest pool, each with a fresh seed —
  the path the service sends an unseeded request down.

Worker scaling is hardware-bound: with fewer cores than workers the
extra processes only add IPC overhead, so ``BENCH_serving.json``
records the usable ``cpus`` and the parent's ``blas_threads`` in its
``meta`` row (each worker caps its own BLAS threads at
``max(1, cpus // workers)``) — read the scaling numbers against them
(the committed baseline may come from a 1-core container; CI runners
with 4 vCPUs show the real fan-out).

Scale knobs: ``REPRO_BENCH_SERVE_ROWS`` (default 100000),
``REPRO_BENCH_RECORDS`` (training rows, default 1200),
``REPRO_BENCH_SERVE_WORKERS`` (default "1,2,4"),
``REPRO_BENCH_SERVE_REQUESTS`` / ``_CONCURRENCY`` / ``_REQ_ROWS``
(load generator, defaults 64 / 8 / 512).
"""

import os
import tempfile
import threading
import time

import numpy as np
import pytest

from _harness import emit, run_once
from bench_engine_microbench import _bench_table
from repro.check import pool_leak_scope
from repro.core.design_space import DesignConfig
from repro.api.seeding import fresh_seed
from repro.gan.synthesizer import GANSynthesizer
from repro.report import format_table
from repro.serve import WorkerPool
from repro.serve.pool import blas_threads, usable_cpus

N_ROWS = int(os.environ.get("REPRO_BENCH_SERVE_ROWS", "100000"))
N_RECORDS = int(os.environ.get("REPRO_BENCH_RECORDS", "1200"))
WORKER_COUNTS = tuple(
    int(w) for w in
    os.environ.get("REPRO_BENCH_SERVE_WORKERS", "1,2,4").split(","))
N_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVE_REQUESTS", "64"))
CONCURRENCY = int(os.environ.get("REPRO_BENCH_SERVE_CONCURRENCY", "8"))
REQ_ROWS = int(os.environ.get("REPRO_BENCH_SERVE_REQ_ROWS", "512"))

_FIT = dict(epochs=1, iterations_per_epoch=4)
_SEED = 3


def _save_seed_workload(path) -> GANSynthesizer:
    """Fit + persist the MLP-GAN seed workload; returns the live model."""
    table = _bench_table(n=N_RECORDS)
    synth = GANSynthesizer(config=DesignConfig(generator="mlp"),
                           seed=11, **_FIT)
    synth.fit(table)
    synth.save(path)
    return synth


def _assert_identical(a, b) -> bool:
    for name in a.schema.names:
        np.testing.assert_array_equal(a.column(name), b.column(name))
    return True


def _timed(fn, repeats: int = 2) -> float:
    """Best-of-``repeats`` wall clock (same policy as the other benches)."""
    elapsed = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = min(elapsed, time.perf_counter() - start)
    return elapsed


def _throughput_rows(model_dir, reference_table, batch) -> list:
    rows = []
    per_worker = {}
    for workers in WORKER_COUNTS:
        with WorkerPool(model_dir, workers=workers) as pool:
            pool.sample(max(N_ROWS // 20, batch), batch=batch, seed=_SEED)
            served = pool.sample(N_ROWS, batch=batch, seed=_SEED)
            identical = _assert_identical(served, reference_table)
            elapsed = _timed(lambda: pool.sample(N_ROWS, batch=batch,
                                                 seed=_SEED))
        per_worker[workers] = N_ROWS / elapsed
        rows.append({"mode": "throughput", "workers": workers,
                     "n_rows": N_ROWS, "seconds": round(elapsed, 4),
                     "rows_per_sec": round(N_ROWS / elapsed, 1),
                     "bit_identical": identical})
    base = per_worker.get(1) or per_worker[min(per_worker)]
    for row in rows:
        row["scaling_vs_1worker"] = round(
            per_worker[row["workers"]] / base, 3)
    return rows


def _latency_rows(model_dir) -> list:
    """Concurrent small-request load, one fresh seed per request."""
    workers = max(WORKER_COUNTS)
    latencies = []
    lock = threading.Lock()
    per_thread = max(N_REQUESTS // CONCURRENCY, 1)
    with WorkerPool(model_dir, workers=workers) as pool:
        def client():
            for _ in range(per_thread):
                start = time.perf_counter()
                table = pool.sample(REQ_ROWS, seed=fresh_seed())
                elapsed = time.perf_counter() - start
                assert len(table) == REQ_ROWS
                with lock:
                    latencies.append(elapsed)

        threads = [threading.Thread(target=client)
                   for _ in range(CONCURRENCY)]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall_start
    total_rows = len(latencies) * REQ_ROWS
    return [{
        "mode": "latency", "workers": workers,
        "requests": len(latencies), "concurrency": CONCURRENCY,
        "rows_per_request": REQ_ROWS,
        "p50_ms": round(float(np.percentile(latencies, 50)) * 1e3, 2),
        "p95_ms": round(float(np.percentile(latencies, 95)) * 1e3, 2),
        "aggregate_rows_per_sec": round(total_rows / wall, 1),
    }]


def test_serving_throughput(benchmark):
    def run():
        with tempfile.TemporaryDirectory() as tmp:
            model_dir = os.path.join(tmp, "gan-mlp")
            synth = _save_seed_workload(model_dir)
            batch = synth.default_sample_batch
            # Single-process reference: the number worker scaling is
            # measured against, and the bit-identity anchor.
            # The leak scope turns the benchmark into a lifetime check
            # too: every ArrayPool.take performed by the parent-side
            # sampling paths must be donated back by the time the
            # measurement loop finishes, or the bench fails.
            with pool_leak_scope():
                reference = synth.sample(N_ROWS, batch=batch, seed=_SEED)
                ref_elapsed = _timed(
                    lambda: synth.sample(N_ROWS, batch=batch, seed=_SEED))
                rows = [{"mode": "reference", "workers": 0,
                         "n_rows": N_ROWS,
                         "seconds": round(ref_elapsed, 4),
                         "rows_per_sec": round(N_ROWS / ref_elapsed, 1)}]
                rows.extend(_throughput_rows(model_dir, reference, batch))
                rows.extend(_latency_rows(model_dir))
            rows.append({"mode": "meta", "cpus": usable_cpus(),
                         "blas_threads": blas_threads(),
                         "batch": batch, "method": "gan-mlp"})

        headers = ["mode", "workers", "rows/sec", "scaling", "p50 ms",
                   "p95 ms", "identical"]
        table_rows = [[r["mode"], r.get("workers", ""),
                       r.get("rows_per_sec",
                             r.get("aggregate_rows_per_sec", "")),
                       r.get("scaling_vs_1worker", ""),
                       r.get("p50_ms", ""), r.get("p95_ms", ""),
                       r.get("bit_identical", "")]
                      for r in rows if r["mode"] != "meta"]
        text = format_table(
            headers, table_rows,
            title=f"Serving benchmark — sample({N_ROWS}) via worker pool "
                  f"+ {CONCURRENCY}-client seeded small-request load "
                  f"({usable_cpus()} cpus)")
        return emit("serving", text, rows=rows)

    run_once(benchmark, run)


if __name__ == "__main__":  # manual runs without pytest-benchmark
    pytest.main([__file__, "-q"])
