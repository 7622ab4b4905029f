"""Worker pool: concurrent sampling determinism + failure modes.

The acceptance contract (satellite): the same ``(model, n, seed)``
through 1 worker, 4 workers, and plain single-process ``sample()``
produces identical tables — for every method family and for a
relational database.
"""

import numpy as np
import pytest

from repro.serve import (
    RequestTimeout, ServingError, WorkerError, WorkerPool, load_model,
)
from repro.serve.pool import DEFAULT_EVENT_RING, blas_threads, usable_cpus

TABLE_MODELS = ("adult-gan", "adult-vae", "adult-pb")


def assert_tables_equal(a, b):
    assert a.schema.names == b.schema.names
    for name in a.schema.names:
        np.testing.assert_array_equal(a.column(name), b.column(name))


def assert_databases_equal(a, b):
    assert set(a.table_names) == set(b.table_names)
    for name in a.table_names:
        assert_tables_equal(a[name], b[name])


@pytest.mark.parametrize("model", TABLE_MODELS)
def test_worker_counts_bit_identical(model_root, model):
    """1 worker == 4 workers == plain sample(), bit for bit."""
    path = model_root / model
    plain = load_model(path).sample(90, batch=16, seed=5)
    for workers in (1, 4):
        with WorkerPool(path, workers=workers) as pool:
            assert_tables_equal(pool.sample(90, batch=16, seed=5), plain)


def test_inline_pool_bit_identical(model_root):
    path = model_root / "adult-pb"
    plain = load_model(path).sample(70, batch=32, seed=8)
    with WorkerPool(path, workers=0) as pool:
        assert_tables_equal(pool.sample(70, batch=32, seed=8), plain)


def test_inline_pool_counts_its_chunks(model_root):
    """A workers=0 pool counts every chunk it delivers, as inline."""
    from repro.api import chunk_plan
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    with WorkerPool(model_root / "adult-pb", workers=0,
                    metrics=registry) as pool:
        pool.sample(70, batch=32, seed=8)
    with WorkerPool(model_root / "shop-db", workers=0,
                    metrics=registry) as pool:
        pool.sample_database(1.0, seed=7)
    chunks = registry.counter("repro_pool_chunks_total",
                              labelnames=("model", "source"))
    assert chunks.value(model="adult-pb", source="inline") \
        == len(chunk_plan(70, 32))
    assert chunks.value(model="shop-db", source="inline") == 1


def test_inline_pool_counts_its_dispatches(model_root):
    """A workers=0 pool counts one dispatch per chunk it runs, so the
    delivered/dispatched ratio has a base there too."""
    from repro.api import chunk_plan
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    dispatch = registry.counter("repro_pool_dispatch_total",
                                labelnames=("model",))
    with WorkerPool(model_root / "adult-pb", workers=0,
                    metrics=registry) as pool:
        pool.sample(70, batch=32, seed=8)
        assert dispatch.value(model="adult-pb") == len(chunk_plan(70, 32))
        pool.sample(10, batch=4, seed=8)
        assert dispatch.value(model="adult-pb") == \
            len(chunk_plan(70, 32)) + len(chunk_plan(10, 4))
    with WorkerPool(model_root / "shop-db", workers=0,
                    metrics=registry) as pool:
        pool.sample_database(1.0, seed=7)
    assert dispatch.value(model="shop-db") == 1


def test_inflight_gauge_sums_pools_of_one_model(model_root):
    """Pools of one model (a draining pool beside its replacement) add
    up in the in-flight gauge instead of overwriting each other."""
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    path = model_root / "adult-pb"
    with WorkerPool(path, workers=0, metrics=registry) as old, \
            WorkerPool(path, workers=0, metrics=registry) as new:
        gauge = registry.gauge("repro_pool_inflight", labelnames=("model",))
        old.retain()
        new.retain()
        new.release()
        assert gauge.value(model="adult-pb") == 1
        old.release()
        assert gauge.value(model="adult-pb") == 0


def test_default_batch_matches_local_default(model_root):
    """No explicit batch: the pool uses the model's own default chunk
    size, so the unbatched call is covered by the contract too."""
    path = model_root / "adult-pb"
    plain = load_model(path).sample(50, seed=3)
    with WorkerPool(path, workers=2) as pool:
        assert pool.default_batch == load_model(path).default_sample_batch
        assert_tables_equal(pool.sample(50, seed=3), plain)


def test_database_pool_bit_identical(model_root):
    """Database serving: a pooled draw equals the local draw."""
    path = model_root / "shop-db"
    plain = load_model(path).sample(1.0, seed=7)
    for workers in (0, 2):
        with WorkerPool(path, workers=workers) as pool:
            served = pool.sample_database(1.0, seed=7)
            assert_databases_equal(served, plain)
            assert all(v == 0 for v in served.check_integrity().values())


def test_sample_iter_streams_in_order(model_root):
    path = model_root / "adult-pb"
    plain = load_model(path).sample(64, batch=16, seed=2)
    with WorkerPool(path, workers=2) as pool:
        chunks = list(pool.sample_iter(64, batch=16, seed=2))
        assert [len(c) for c in chunks] == [16, 16, 16, 16]
        out = chunks[0]
        for chunk in chunks[1:]:
            out = out.concat_rows(chunk)
        assert_tables_equal(out, plain)


@pytest.mark.parametrize("workers", [1, 0])
def test_streaming_flow_control_bounds_buffering(model_root, workers):
    """A slow sample_iter consumer must not let workers race ahead and
    buffer the whole table in the parent: dispatch is windowed."""
    import time as _time

    path = model_root / "adult-pb"
    with WorkerPool(path, workers=workers) as pool:
        stream = pool.sample_iter(160, batch=8, seed=2)  # 20 chunks
        chunks = [next(stream)]
        _time.sleep(0.5)  # plenty of time to race ahead, were it allowed
        with pool._lock:
            pending = list(pool._pending.values())
        assert len(pending) == 1
        # window = max(2*workers, 4) = 4 outstanding chunks, not 19.
        assert len(pending[0].results) <= 6
        chunks.extend(stream)
        assert sum(len(c) for c in chunks) == 160
        plain = load_model(path).sample(160, batch=8, seed=2)
        out = chunks[0]
        for chunk in chunks[1:]:
            out = out.concat_rows(chunk)
        assert_tables_equal(out, plain)


def test_inline_stream_yields_after_at_most_two_chunks(model_root,
                                                      monkeypatch):
    """A pool without worker slots runs its chunks in the requesting
    thread, so its window is one chunk: the first chunk comes back
    after at most two have been generated, not after the window of a
    worker pool, and the stream's rows are unchanged."""
    from repro.serve import pool as pool_module

    produced = []
    run_task = pool_module._run_task

    def counting(model, task, tags):
        for item in run_task(model, task, tags):
            produced.append(item[0])
            yield item

    monkeypatch.setattr(pool_module, "_run_task", counting)
    path = model_root / "adult-pb"
    draw = dict(n=32768, batch=4096, seed=3)
    with WorkerPool(path, workers=0) as pool:
        stream = pool.sample_iter(**draw)
        chunks = [next(stream)]
        assert len(produced) <= 2
        chunks.extend(stream)
    assert produced == list(range(8))
    assert_tables_equal(chunks[0].concat_rows(*chunks[1:]),
                        load_model(path).sample(**draw))


def test_sample_is_one_call_into_the_stream(model_root, monkeypatch):
    """sample() concatenates the same windowed stream sample_iter()
    yields without calling the public sample_iter(), so a wrapper
    around either method sees each request once."""
    from repro.api import chunk_plan
    from repro.obs import MetricsRegistry
    from repro.obs.trace import Trace

    def refuse(*args, **kwargs):
        raise AssertionError("sample() went through sample_iter()")

    monkeypatch.setattr(WorkerPool, "sample_iter", refuse)
    path = model_root / "adult-pb"
    plain = load_model(path).sample(96, batch=8, seed=2)
    for workers in (0, 2):
        registry = MetricsRegistry()
        trace = Trace("sample")
        with WorkerPool(path, workers=workers, metrics=registry) as pool:
            assert_tables_equal(
                pool.sample(96, batch=8, seed=2, trace=trace), plain)
        # One task per chunk, each with its one chunk span.
        dispatch = registry.counter("repro_pool_dispatch_total",
                                    labelnames=("model",))
        assert dispatch.value(model="adult-pb") == len(chunk_plan(96, 8))
        assert {span.name for span in trace.spans()} == {"chunk"}
        assert set(trace.chunk_coverage()) == set(range(12))


def test_concurrent_requests_one_pool(model_root):
    """Several threads hammering one pool each get their exact table."""
    import threading

    path = model_root / "adult-pb"
    expected = {seed: load_model(path).sample(40, batch=8, seed=seed)
                for seed in (1, 2, 3, 4)}
    results = {}
    with WorkerPool(path, workers=2) as pool:
        def run(seed):
            results[seed] = pool.sample(40, batch=8, seed=seed)

        threads = [threading.Thread(target=run, args=(seed,))
                   for seed in expected]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    for seed, table in expected.items():
        assert_tables_equal(results[seed], table)


def test_inline_requests_sample_at_the_same_time(model_root, monkeypatch):
    """Two threads on one workers=0 pool sample concurrently: every
    chunk waits at a barrier for the other thread's chunk, so a lock
    held across a whole task would break the barrier."""
    import threading

    from repro.privbayes.synthesizer import PrivBayesSynthesizer

    path = model_root / "adult-pb"
    expected = {seed: load_model(path).sample(40, batch=8, seed=seed)
                for seed in (1, 2)}
    barrier = threading.Barrier(2, timeout=10)
    sample_chunk = PrivBayesSynthesizer._sample_chunk

    def meet(self, *args, **kwargs):
        barrier.wait()
        return sample_chunk(self, *args, **kwargs)

    monkeypatch.setattr(PrivBayesSynthesizer, "_sample_chunk", meet)
    results = {}
    with WorkerPool(path, workers=0) as pool:
        def run(seed):
            results[seed] = pool.sample(40, batch=8, seed=seed)

        threads = [threading.Thread(target=run, args=(seed,))
                   for seed in expected]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    for seed, table in expected.items():
        assert_tables_equal(results[seed], table)


def test_inline_pool_reports_no_recoveries(model_root):
    """A workers=0 pool runs every task in the parent, yet only a worker
    pool's takeover counts as an inline recovery."""
    with WorkerPool(model_root / "adult-pb", workers=0) as pool:
        pool.sample(40, batch=8, seed=1)
        assert pool.status()["inline_recoveries"] == 0
    with WorkerPool(model_root / "shop-db", workers=0) as pool:
        pool.sample_database(1.0, seed=7)
        assert pool.status()["inline_recoveries"] == 0


class TestChunkDeadline:
    """``timeout`` bounds each chunk wait, not the whole request."""

    @pytest.mark.parametrize("workers", [0, 1])
    def test_a_stream_that_keeps_delivering_is_not_cut(
            self, model_root, monkeypatch, workers):
        import json

        from repro.obs.clock import ManualClock, use_clock

        # Each chunk leaves a worker 50 ms late, so the consumer always
        # waits for it after the clock has moved past any deadline
        # taken when the stream started.
        monkeypatch.setenv("REPRO_FAULTS", json.dumps({"rules": [
            {"on": "chunk", "action": "delay", "seconds": 0.05}]}))
        path = model_root / "adult-pb"
        plain = load_model(path).sample(64, batch=8, seed=2)
        clock = ManualClock()
        chunks = []
        with WorkerPool(path, workers=workers) as pool, use_clock(clock):
            for chunk in pool.sample_iter(64, batch=8, seed=2,
                                          timeout=1.0):
                chunks.append(chunk)
                clock.advance(5.0)
        assert_tables_equal(chunks[0].concat_rows(*chunks[1:]), plain)

    def test_a_stuck_chunk_fails_the_request(self, model_root,
                                             monkeypatch):
        import json

        monkeypatch.setenv("REPRO_FAULTS", json.dumps({"rules": [
            {"on": "chunk", "chunk_index": 5, "action": "delay",
             "seconds": 3.0}]}))
        with WorkerPool(model_root / "adult-pb", workers=1) as pool:
            with pytest.raises(RequestTimeout, match="chunk 5"):
                pool.sample(96, batch=8, seed=5, timeout=1.0)


class TestValidationAndErrors:
    def test_bad_counts_name_the_argument(self, model_root):
        with WorkerPool(model_root / "adult-pb", workers=0) as pool:
            with pytest.raises(ValueError, match="n must"):
                pool.sample(0)
            with pytest.raises(ValueError, match="batch"):
                pool.sample(10, batch=0)
            with pytest.raises(ValueError, match="batch"):
                pool.sample(10, batch=2.5)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_bad_draw_arguments_raise_before_dispatch(self, model_root,
                                                      workers):
        """The same ValueError at any worker count: nothing reaches a
        worker, whose failure would come back as a WorkerError."""
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        dispatch = registry.counter("repro_pool_dispatch_total",
                                    labelnames=("model",))
        bad_seeds = ["abc", -1, 1.5, True]
        with WorkerPool(model_root / "adult-pb", workers=workers,
                        metrics=registry) as pool:
            for seed in bad_seeds:
                with pytest.raises(ValueError, match="seed"):
                    pool.sample(8, seed=seed)
                with pytest.raises(ValueError, match="seed"):
                    pool.sample_iter(8, seed=seed)
        with WorkerPool(model_root / "shop-db", workers=workers,
                        metrics=registry) as pool:
            for seed in bad_seeds:
                with pytest.raises(ValueError, match="seed"):
                    pool.sample_database(seed=seed)
            for scale in [-1, 0, float("nan"), float("inf"), 10 ** 400,
                          "2", True, None, 1e308, 1e300]:
                with pytest.raises(ValueError, match="scale"):
                    pool.sample_database(scale, seed=1)
            for sizes in [{"customers": -4}, {"customers": "x"},
                          {"customers": 2.5}, [("customers", 3)],
                          {"orders": 5}, {"nope": 3}]:
                with pytest.raises(ValueError, match="sizes"):
                    pool.sample_database(sizes=sizes, seed=1)
            assert dispatch.total() == 0
            database = pool.sample_database(sizes={"customers": 0}, seed=1)
            assert len(database["customers"]) == 0

    def test_kind_mismatch(self, model_root):
        with WorkerPool(model_root / "adult-pb", workers=0) as pool:
            with pytest.raises(ServingError, match="single table"):
                pool.sample_database(1.0)
        with WorkerPool(model_root / "shop-db", workers=0) as pool:
            with pytest.raises(ServingError, match="database"):
                pool.sample(10)

    def test_missing_model_dir(self, tmp_path):
        with pytest.raises(ServingError, match="no saved synthesizer"):
            WorkerPool(tmp_path / "missing", workers=0)

    def test_boot_failure_surfaces(self, tmp_path, model_root):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(model_root / "adult-pb", broken)
        (broken / "arrays.npz").unlink()
        with pytest.raises(WorkerError, match="failed to start"):
            WorkerPool(broken, workers=1)

    def test_pending_releases_chunks_on_handover(self):
        """Streamed chunks leave the pending buffer as they are
        yielded, so a long stream never re-materializes in the parent."""
        from repro.serve.pool import _Pending

        pending = _Pending(expected=2, kind="chunks", spec=(16, 8, 0))
        pending.deliver(0, "chunk-0")
        assert pending.wait_index(0, None) == "chunk-0"
        assert 0 not in pending.results

    def test_worker_death_recovers_bit_identically(self, model_root):
        """A worker killed while idle is respawned and the queued
        request is recovered bit-identically (self-healing default)."""
        reference = load_model(model_root / "adult-pb").sample(
            50, batch=8, seed=1)
        pool = WorkerPool(model_root / "adult-pb", workers=1,
                          request_timeout=60.0)
        try:
            for slot in pool._slots:
                slot.process.terminate()
            out = pool.sample(50, batch=8, seed=1)
            for name in reference.schema.names:
                np.testing.assert_array_equal(out.columns[name],
                                              reference.columns[name])
            status = pool.status()
            assert status["restarts"] >= 1
            assert not pool.crashed and not pool.closed
        finally:
            pool.close()

    def test_closed_pool_rejects(self, model_root):
        pool = WorkerPool(model_root / "adult-pb", workers=1)
        pool.close()
        from repro.serve import PoolClosed

        with pytest.raises(PoolClosed):
            pool.sample(10, seed=1)


class TestEventRing:
    """Supervision event ring: bounded size, obs.clock stamps."""

    def test_ring_capacity_is_configurable(self, model_root):
        """The ring keeps the last DEFAULT_EVENT_RING events."""
        pool = WorkerPool(model_root / "adult-pb", workers=0)
        try:
            for i in range(DEFAULT_EVENT_RING + 6):
                pool._record_event("probe", index=i)
            events = pool.status()["events"]
            assert [e["index"] for e in events] == \
                list(range(6, DEFAULT_EVENT_RING + 6))
        finally:
            pool.close()

    def test_events_are_stamped_via_obs_clock(self, model_root):
        from repro.obs.clock import ManualClock, use_clock

        pool = WorkerPool(model_root / "adult-pb", workers=0)
        try:
            with use_clock(ManualClock(start=12.0, epoch=2_000.0)):
                pool._record_event("probe")
            (event,) = [e for e in pool.status()["events"]
                        if e["event"] == "probe"]
            assert event["at"] == 12.0
            assert event["wall"] == 2_000.0
        finally:
            pool.close()


class TestBlasBudget:
    """Each worker caps numpy's OpenBLAS at its share of the CPUs; the
    parent keeps the library default."""

    @staticmethod
    def expected_cap(workers):
        default = blas_threads()
        if default is None:  # numpy without a bundled OpenBLAS
            return None
        return min(default, max(1, usable_cpus() // workers))

    def test_every_slot_reports_the_cap(self, model_root):
        before = blas_threads()
        with WorkerPool(model_root / "adult-pb", workers=2) as pool:
            slots = pool.status()["slots"]
            booted = blas_threads()
        assert [slot["blas_threads"] for slot in slots] == \
            [self.expected_cap(2)] * 2
        # The parent keeps its own count before, during and after.
        assert before == booted == blas_threads()

    def test_respawned_worker_keeps_the_cap(self, model_root, monkeypatch):
        import json
        import time

        monkeypatch.setenv("REPRO_FAULTS", json.dumps({"rules": [
            {"on": "chunk", "worker": 0, "after": 2, "action": "kill",
             "incarnations": [0], "times": 1}]}))
        with WorkerPool(model_root / "adult-pb", workers=2,
                        request_timeout=60.0) as pool:
            pool.sample(96, batch=8, seed=5)  # worker 0 dies mid-request
            deadline = time.monotonic() + 30.0
            while True:
                slot = pool.status()["slots"][0]
                if slot["incarnation"] >= 1 and slot["ready"]:
                    break
                assert time.monotonic() < deadline, slot
                time.sleep(0.05)
        assert slot["blas_threads"] == self.expected_cap(2)

    def test_cap_never_raises_a_lower_setting(self, model_root):
        """A parent already capped below the budget (as by
        ``OPENBLAS_NUM_THREADS=1``) passes the lower count on."""
        from repro.serve.pool import _openblas

        api = _openblas()
        if api is None:
            pytest.skip("numpy has no bundled OpenBLAS")
        getter, setter, _ = api
        default = getter()
        setter(1)
        try:
            with WorkerPool(model_root / "adult-pb", workers=1) as pool:
                slots = pool.status()["slots"]
        finally:
            setter(default)
        assert [slot["blas_threads"] for slot in slots] == [1]
