"""Service admission: one in-flight bound covers every request, and a
request holds its slot (and its pool) exactly until it ends."""

import gc
import json
import shutil
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import MetricsRegistry, parse_prometheus
from repro.serve import (
    BackpressureError, SynthesisServer, SynthesisService, WorkerPool,
)
from repro.serve import service as service_module


@pytest.fixture
def workers():
    """Worker processes per pool of the ``service`` fixture; a test that
    parametrizes ``workers`` overrides it."""
    return 0


@pytest.fixture
def service(model_root, workers):
    with SynthesisService(model_root, workers=workers,
                          metrics=MetricsRegistry()) as svc:
        yield svc


def inflight(service):
    return service.healthz()["inflight"]


def refused(service):
    series = service.metrics.snapshot()["repro_serve_errors_total"]
    return sum(value for (_, _, error), value in series["series"].items()
               if error == "BackpressureError")


#: Every (drop, read) pair at 0 and 2 workers; a workers=0 case keeps
#: the plain ``drop-read`` id.
STREAM_DROPS = [
    pytest.param(drop, read, workers, id=f"{drop}-{read}"
                 + (f"-workers{workers}" if workers else ""))
    for workers in (0, 2) for drop in ("close", "collect")
    for read in (0, 1)]


class TestStreamRelease:
    @pytest.mark.parametrize("drop, read, workers", STREAM_DROPS)
    def test_dropped_stream_releases_pool_and_slot(self, service, drop,
                                                   read):
        """Also a stream dropped before its first chunk: a generator's
        ``finally`` alone never runs for a generator that never
        started."""
        chunks, _ = service.sample_iter("adult-gan", 1000, seed=1)
        for _ in range(read):
            next(chunks)
        assert service.active_pools() == {"adult-gan": 1}
        if drop == "close":
            chunks.close()
        else:
            del chunks
            gc.collect()
        assert service.active_pools() == {"adult-gan": 0}
        assert inflight(service) == 0

    def test_exhausted_stream_releases(self, service):
        chunks, _ = service.sample_iter("adult-pb", 40, batch=16, seed=1)
        assert sum(len(chunk) for chunk in chunks) == 40
        assert service.active_pools() == {"adult-pb": 0}
        assert inflight(service) == 0


class TestInflightBound:
    def test_one_bound_covers_every_request(self, service, monkeypatch):
        monkeypatch.setattr(service_module, "MAX_INFLIGHT", 1)
        held, _ = service.sample_iter("adult-pb", 64, batch=16, seed=1)
        requests = {
            "seeded": lambda: service.sample("adult-pb", 8, seed=2),
            "unseeded": lambda: service.sample("adult-pb", 8),
            "streamed": lambda: service.sample_iter("adult-pb", 8, seed=3),
            "database": lambda: service.sample_database("shop-db", seed=4),
        }
        for request in requests.values():
            with pytest.raises(BackpressureError):
                request()
        assert refused(service) == len(requests)
        assert inflight(service) == 1
        held.close()
        assert inflight(service) == 0
        table, seed = service.sample("adult-pb", 8)
        assert len(table) == 8 and isinstance(seed, int)

    def test_a_request_failing_after_admission_frees_its_slot(
            self, service, monkeypatch):
        monkeypatch.setattr(service_module, "MAX_INFLIGHT", 1)

        def fail(pool, *args, **kwargs):
            # Admitted and holding its pool when it fails.
            assert inflight(service) == 1
            assert service.active_pools() == {"adult-pb": 1}
            raise ValueError("failed after admission")

        with monkeypatch.context() as patch:
            patch.setattr(WorkerPool, "sample", fail)
            patch.setattr(WorkerPool, "sample_iter", fail)
            with pytest.raises(ValueError, match="after admission"):
                service.sample("adult-pb", 8, seed=5)
            assert inflight(service) == 0
            chunks, _ = service.sample_iter("adult-pb", 8, seed=5)
            with pytest.raises(ValueError, match="after admission"):
                next(chunks)
            assert inflight(service) == 0
        assert service.active_pools() == {"adult-pb": 0}
        table, _ = service.sample("adult-pb", 8, seed=5)
        assert len(table) == 8

    @pytest.mark.parametrize("seed", ["abc", -1, 1.5, True])
    def test_a_bad_seed_is_refused_before_admission(self, service,
                                                    monkeypatch, seed):
        monkeypatch.setattr(service_module, "MAX_INFLIGHT", 0)
        # With no slot to admit into, only a check made before
        # admission can raise ValueError rather than BackpressureError.
        for request in (
                lambda: service.sample("adult-pb", 8, seed=seed),
                lambda: service.sample_iter("adult-pb", 8, seed=seed),
                lambda: service.sample_database("shop-db", seed=seed)):
            with pytest.raises(ValueError, match="seed"):
                request()
        assert refused(service) == 0

    def test_concurrent_requests_never_pass_the_bound(self, service,
                                                      monkeypatch):
        """Admission is check-then-act on shared state: a lost update
        would leave a slot held or let a request past the bound."""
        bound, threads, per_thread = 2, 8, 20
        monkeypatch.setattr(service_module, "MAX_INFLIGHT", bound)
        gauge = service.metrics.gauge("repro_serve_inflight")
        outcomes, peak, done = [], [0], threading.Event()
        lock = threading.Lock()

        def client():
            for _ in range(per_thread):
                try:
                    service.sample("adult-pb", 4)
                    outcome = "served"
                except BackpressureError:
                    outcome = "refused"
                with lock:
                    outcomes.append(outcome)

        def monitor():
            while not done.is_set():
                peak[0] = max(peak[0], gauge.value())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            watcher = threading.Thread(target=monitor)
            watcher.start()
            workers = [threading.Thread(target=client)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            done.set()
            watcher.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not watcher.is_alive()
        assert len(outcomes) == threads * per_thread
        assert refused(service) == outcomes.count("refused")
        assert 1 <= peak[0] <= bound
        assert inflight(service) == 0
        assert service.active_pools() == {"adult-pb": 0}


class TestBoundOverHTTP:
    @staticmethod
    def post(server, model, body):
        request = urllib.request.Request(
            f"{server.url}/models/{model}/sample",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"}, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=60) as resp:
                return resp.status, resp.headers, resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.headers, exc.read()

    def test_each_kind_gets_503_with_retry_after(self, service,
                                                 monkeypatch):
        monkeypatch.setattr(service_module, "MAX_INFLIGHT", 1)
        with SynthesisServer(service).start() as server:
            held, _ = service.sample_iter("adult-pb", 64, batch=16, seed=1)
            for model, body in (
                    ("adult-pb", {"n": 8, "seed": 2}),
                    ("adult-pb", {"n": 8}),
                    ("adult-pb", {"n": 8, "format": "csv", "stream": True}),
                    ("shop-db", {"seed": 4})):
                status, headers, payload = self.post(server, model, body)
                assert status == 503
                assert json.loads(payload)["error"] == "BackpressureError"
                assert int(headers["Retry-After"]) >= 1
            with urllib.request.urlopen(f"{server.url}/metrics",
                                        timeout=30) as resp:
                scrape = parse_prometheus(resp.read().decode())
            assert sum(value for labels, value
                       in scrape["repro_serve_errors_total"]
                       if labels["error"] == "BackpressureError") == 4
            assert scrape["repro_serve_inflight"] == [({}, 1.0)]
            held.close()
            status, _, _ = self.post(server, "adult-pb", {"n": 8})
            assert status == 200
            with urllib.request.urlopen(f"{server.url}/healthz",
                                        timeout=30) as resp:
                assert json.loads(resp.read())["inflight"] == 0


class TestPoolRegistry:
    """The service's pool registry is the one cache of live models: an
    LRU of pools, each owning its loaded model."""

    @staticmethod
    def registry(model_root, pool_capacity=1):
        return SynthesisService(model_root, workers=0,
                                pool_capacity=pool_capacity,
                                metrics=MetricsRegistry())

    @staticmethod
    def live(service):
        return {name: entry.pool for name, entry in service._pools.items()}

    def test_eviction_closes_the_least_recently_used_idle_pool(
            self, model_root):
        with self.registry(model_root, pool_capacity=2) as service:
            for name in ("adult-pb", "adult-vae", "adult-pb"):
                service.sample(name, 4, seed=1)
            vae = self.live(service)["adult-vae"]
            service.sample("adult-gan", 4, seed=1)
            # vae was least recently used when gan needed a pool.
            assert list(self.live(service)) == ["adult-pb", "adult-gan"]
            assert vae.closed

    def test_a_pool_with_a_request_in_flight_is_never_evicted(
            self, model_root):
        with self.registry(model_root) as service:
            held, _ = service.sample_iter("adult-pb", 64, batch=16, seed=1)
            busy = self.live(service)["adult-pb"]
            service.sample("adult-vae", 4, seed=1)
            # Over capacity rather than closing the busy pool.
            assert service.active_pools() == {"adult-pb": 1, "adult-vae": 0}
            assert sum(len(chunk) for chunk in held) == 64
            service.sample("adult-gan", 4, seed=1)
            assert service.active_pools() == {"adult-gan": 0}
            assert busy.closed

    def test_concurrent_requests_for_a_cold_model_share_one_boot(
            self, model_root, monkeypatch):
        boots = []

        class CountingPool(WorkerPool):
            def __init__(self, *args, **kwargs):
                boots.append(args[0])
                # Hold the boot open so every request arrives during it.
                time.sleep(0.2)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(service_module, "WorkerPool", CountingPool)
        start, tables = threading.Barrier(4), []

        def client():
            start.wait()
            tables.append(service.sample("adult-pb", 8, seed=2)[0])

        with self.registry(model_root) as service:
            clients = [threading.Thread(target=client) for _ in range(4)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in clients)
            assert len(boots) == 1
            assert len(tables) == 4
            assert service.active_pools() == {"adult-pb": 0}

    def test_a_failed_boot_is_not_registered(self, model_root, tmp_path):
        shutil.copytree(model_root / "adult-pb", tmp_path / "pb")
        arrays = tmp_path / "pb" / "arrays.npz"
        arrays.rename(tmp_path / "arrays.npz")
        with self.registry(tmp_path) as service:
            with pytest.raises(FileNotFoundError):
                service.sample("pb", 4, seed=1)
            assert service.active_pools() == {}
            assert "pb" not in service._pools
            # The next request boots again, and now succeeds.
            (tmp_path / "arrays.npz").rename(arrays)
            table, _ = service.sample("pb", 4, seed=1)
            assert len(table) == 4
            assert service.active_pools() == {"pb": 0}
