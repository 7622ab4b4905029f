"""Chaos suite: deterministic fault injection against the serving stack.

The acceptance contract (tentpole): killing a worker mid-request leaves
the pool open and the recovered output **byte-identical** to plain
``sample(n, batch, seed)`` — the sharded-seed contract turned into a
fault-tolerance guarantee.  Fault plans ride in via ``REPRO_FAULTS``
(inherited by worker processes at spawn), so every failure here is
scripted, not raced.
"""

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.serve import (
    FAULT_EXIT_CODE, CircuitBreaker, CircuitOpen, FaultPlan, PoolClosed,
    RespawnBackoff, ServingError, SynthesisServer, SynthesisService,
    WorkerError, WorkerPool, load_model,
)

TABLE_MODELS = ("adult-gan", "adult-vae", "adult-pb")


def assert_tables_equal(a, b):
    assert a.schema.names == b.schema.names
    for name in a.schema.names:
        np.testing.assert_array_equal(a.column(name), b.column(name))


def set_plan(monkeypatch, *rules, seed=0):
    monkeypatch.setenv("REPRO_FAULTS",
                       json.dumps({"seed": seed, "rules": list(rules)}))


KILL_AFTER_2 = {"on": "chunk", "worker": 0, "after": 2, "action": "kill",
                "incarnations": [0], "times": 1}


class TestPlanParsing:
    def test_round_trip(self):
        plan = FaultPlan.from_spec({"seed": 7, "rules": [KILL_AFTER_2]})
        assert plan.seed == 7 and len(plan.rules) == 1

    def test_unknown_field_rejected(self):
        with pytest.raises(ServingError, match="unknown field"):
            FaultPlan.from_spec({"rules": [{"on": "chunk", "typo": 1,
                                            "action": "kill"}]})

    def test_bad_action_rejected(self):
        with pytest.raises(ServingError, match="action"):
            FaultPlan.from_spec({"rules": [{"on": "chunk",
                                            "action": "explode"}]})

    def test_probability_coin_is_deterministic(self):
        def fires(plan):
            hits = []
            for i in range(64):
                hit = plan.rules[0].matches(plan.seed, "chunk", 0, 0,
                                            i, i, None)
                hits.append(hit)
            return hits

        spec = {"seed": 3, "rules": [{"on": "chunk", "action": "delay",
                                      "probability": 0.25}]}
        first = fires(FaultPlan.from_spec(spec))
        assert first == fires(FaultPlan.from_spec(spec))
        assert 0 < sum(first) < 64


class TestKillMidRequest:
    """Kill one worker mid-request: bit-identical recovery, pool open."""

    @pytest.mark.parametrize("model", TABLE_MODELS)
    def test_bit_identity_after_kill(self, model_root, monkeypatch,
                                     model):
        path = model_root / model
        reference = load_model(path).sample(96, batch=8, seed=5)
        set_plan(monkeypatch, KILL_AFTER_2)
        with WorkerPool(path, workers=1, request_timeout=60.0) as pool:
            out = pool.sample(96, batch=8, seed=5)
            assert_tables_equal(out, reference)
            status = pool.status()
            assert status["restarts"] >= 1
            assert status["slots"][0]["last_exit"] == FAULT_EXIT_CODE
            assert not pool.crashed and not pool.closed
            # The pool keeps serving afterwards, still bit-identically.
            follow_up = load_model(path).sample(40, batch=8, seed=9)
            assert_tables_equal(pool.sample(40, batch=8, seed=9),
                                follow_up)

    def test_surviving_worker_absorbs_the_chunks(self, model_root,
                                                 monkeypatch):
        """With 2 workers, the victim's chunks requeue to the survivor
        (no respawn wait on the request's critical path needed)."""
        path = model_root / "adult-pb"
        reference = load_model(path).sample(96, batch=8, seed=5)
        set_plan(monkeypatch, KILL_AFTER_2)
        with WorkerPool(path, workers=2, request_timeout=60.0) as pool:
            assert_tables_equal(pool.sample(96, batch=8, seed=5),
                                reference)
            assert pool.status()["chunk_retries"] >= 1
            assert not pool.crashed

    def test_streaming_survives_a_kill(self, model_root, monkeypatch):
        path = model_root / "adult-pb"
        reference = load_model(path).sample(96, batch=8, seed=5)
        set_plan(monkeypatch, KILL_AFTER_2)
        with WorkerPool(path, workers=1, request_timeout=60.0) as pool:
            chunks = list(pool.sample_iter(96, batch=8, seed=5))
            out = chunks[0]
            for chunk in chunks[1:]:
                out = out.concat_rows(chunk)
            assert_tables_equal(out, reference)

    def test_database_draw_survives_a_kill(self, model_root,
                                           monkeypatch):
        """A whole-database draw (chunk index -1) is requeued whole."""
        path = model_root / "shop-db"
        reference = load_model(path).sample(1.0, seed=7)
        set_plan(monkeypatch, {"on": "chunk", "chunk_index": -1,
                               "action": "kill", "incarnations": [0],
                               "times": 1})
        with WorkerPool(path, workers=1, request_timeout=60.0) as pool:
            served = pool.sample_database(1.0, seed=7)
            assert set(served.table_names) == set(reference.table_names)
            for name in reference.table_names:
                assert_tables_equal(served[name], reference[name])
            assert pool.status()["restarts"] >= 1


class TestTracedKill:
    """Trace stitching survives a mid-request worker kill."""

    def test_trace_covers_every_chunk_across_a_kill(self, model_root,
                                                    monkeypatch):
        """The stitched trace reconstructs one worker span per chunk
        with or without an injected kill; the killed chunk reappears as
        a tagged retry span, never as a gap, and the table stays
        bit-identical."""
        from repro.obs.trace import Trace

        path = model_root / "adult-pb"
        n, batch, seed = 96, 8, 5
        chunk_indices = set(range(n // batch))

        clean_trace = Trace("clean")
        with WorkerPool(path, workers=2, request_timeout=60.0) as pool:
            clean = pool.sample(n, batch=batch, seed=seed,
                                trace=clean_trace)
        clean_coverage = clean_trace.chunk_coverage()
        assert set(clean_coverage) == chunk_indices
        assert all(count == 1 for count in clean_coverage.values())

        set_plan(monkeypatch, KILL_AFTER_2)
        killed_trace = Trace("killed")
        with WorkerPool(path, workers=2, request_timeout=60.0) as pool:
            killed = pool.sample(n, batch=batch, seed=seed,
                                 trace=killed_trace)
            assert pool.status()["chunk_retries"] >= 1

        assert_tables_equal(killed, clean)
        killed_coverage = killed_trace.chunk_coverage()
        # Same chunk set as the clean run — the kill never leaves a
        # hole.  The killed attempt dies before its span ships, so the
        # re-executed chunk arrives as a tagged retry span instead.
        assert set(killed_coverage) == chunk_indices
        retry_spans = [s for s in killed_trace.spans()
                       if s.tags.get("retry")]
        assert retry_spans
        assert all("#r" in s.span_id for s in retry_spans)
        assert {s.tags["chunk"] for s in retry_spans} <= chunk_indices
        # Every chunk span closed and carries its executing worker.
        for span in killed_trace.spans():
            if "chunk" not in span.tags:
                continue
            assert span.duration() >= 0.0
            assert span.tags.get("worker") in (0, 1)

    def test_trace_spans_survive_inline_drain(self, model_root,
                                              monkeypatch):
        """When the last slot retires and the parent drains inline, the
        inline chunks still land in the trace (tagged as inline)."""
        from repro.obs.trace import Trace

        path = model_root / "adult-pb"
        set_plan(monkeypatch, KILL_AFTER_2)
        trace = Trace("inline")
        pool = WorkerPool(path, workers=1, request_timeout=60.0,
                          respawn=False, inline_fallback=True)
        try:
            pool.sample(96, batch=8, seed=5, trace=trace)
            assert pool.status()["inline_recoveries"] >= 1
        finally:
            pool.close()
        coverage = trace.chunk_coverage()
        assert set(coverage) == set(range(12))


class TestPoisonChunk:
    def test_poison_chunk_fails_one_request_not_the_pool(
            self, model_root, monkeypatch):
        """A chunk that kills every worker that touches it exhausts its
        retry budget and fails with WorkerError; the pool survives and
        requests that avoid the chunk still work."""
        path = model_root / "adult-pb"
        set_plan(monkeypatch, {"on": "chunk", "chunk_index": 3,
                               "action": "kill"})
        with WorkerPool(path, workers=1, request_timeout=60.0,
                        chunk_retry_budget=1) as pool:
            with pytest.raises(WorkerError, match="retry budget"):
                pool.sample(96, batch=8, seed=5)  # 12 chunks, hits 3
            assert not pool.closed and not pool.crashed
            # Chunks 0-1 only: the poison index is never touched.
            reference = load_model(path).sample(16, batch=8, seed=2)
            assert_tables_equal(pool.sample(16, batch=8, seed=2),
                                reference)

    def test_injected_exception_travels_worker_error_path(
            self, model_root, monkeypatch):
        set_plan(monkeypatch, {"on": "chunk", "chunk_index": 0,
                               "action": "raise",
                               "message": "injected-boom", "times": 1})
        with WorkerPool(model_root / "adult-pb", workers=1,
                        request_timeout=60.0) as pool:
            with pytest.raises(WorkerError, match="injected-boom"):
                pool.sample(32, batch=8, seed=5)
            # The worker survives a raised (non-kill) fault entirely.
            assert pool.status()["restarts"] == 0
            assert pool.sample(16, batch=8, seed=2) is not None


class TestStaleWorkShedding:
    def test_failed_request_chunks_are_skipped(self, model_root,
                                               monkeypatch):
        """After one worker errors a request, the other worker's queued
        chunks for it are dropped at dispatch, not computed."""
        path = model_root / "adult-pb"
        set_plan(monkeypatch,
                 {"on": "chunk", "chunk_index": 0, "action": "raise",
                  "times": 1},
                 {"on": "task", "worker": 1, "action": "delay",
                  "seconds": 0.3})
        with WorkerPool(path, workers=2, request_timeout=60.0) as pool:
            with pytest.raises(WorkerError):
                list(pool.sample_iter(160, batch=8, seed=5))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if pool.status()["stale_dropped"] >= 1:
                    break
                time.sleep(0.05)
            assert pool.status()["stale_dropped"] >= 1


class TestInlineTakeover:
    def test_all_slots_retired_drains_inline_bit_identically(
            self, model_root, monkeypatch):
        """respawn=False + inline_fallback: a mid-request kill retires
        the only slot, the parent finishes the request inline with the
        same bytes, and the crashed pool rejects new work."""
        path = model_root / "adult-pb"
        reference = load_model(path).sample(96, batch=8, seed=5)
        set_plan(monkeypatch, KILL_AFTER_2)
        pool = WorkerPool(path, workers=1, request_timeout=60.0,
                          respawn=False, inline_fallback=True)
        try:
            assert_tables_equal(pool.sample(96, batch=8, seed=5),
                                reference)
            assert pool.crashed
            assert pool.status()["inline_recoveries"] >= 1
            with pytest.raises(PoolClosed):
                pool.sample(10, seed=1)
        finally:
            pool.close()


class TestRespawnBackoff:
    def test_delay_doubles_to_cap(self):
        backoff = RespawnBackoff(base=0.25, cap=15.0)
        delays = [backoff.delay(i) for i in range(8)]
        assert delays[:5] == [0.25, 0.5, 1.0, 2.0, 4.0]
        assert delays[-1] == 15.0

    def test_validation(self):
        with pytest.raises(ValueError, match="base"):
            RespawnBackoff(base=0.0)
        with pytest.raises(ValueError, match="cap"):
            RespawnBackoff(base=1.0, cap=0.5)
        with pytest.raises(ValueError, match="failures"):
            RespawnBackoff().delay(-1)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def test_open_half_open_close_lifecycle(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=5.0,
                                 clock=clock)
        assert breaker.state == "closed"
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(5.0)
        clock.advance(5.0)
        assert breaker.allow()          # half-open probe admitted
        assert breaker.state == "half_open"
        assert not breaker.allow()      # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_doubles_timeout_capped(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=2.0,
                                 max_timeout=5.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        expected = [4.0, 5.0, 5.0]      # doubled, then capped
        for timeout in expected:
            clock.advance(breaker.retry_after())
            assert breaker.allow()
            breaker.record_failure()    # failed probe
            assert breaker.state == "open"
            assert breaker.retry_after() == pytest.approx(timeout)

    def test_lost_probe_is_replaced(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=2.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()          # probe #1 ... never reports
        clock.advance(2.0)
        assert breaker.allow()          # replaced after a full window

    def test_status_snapshot(self):
        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        breaker.record_failure()
        status = breaker.status()
        assert status["state"] == "open"
        assert status["opens"] == 1
        assert status["retry_after"] > 0


BOOT_KILL = {"on": "boot", "action": "kill"}


class TestServiceCircuit:
    """Circuit breaker at the service layer, over real boot failures."""

    def _service(self, model_root, clock, **kwargs):
        # A private registry: status counts are per-model registry
        # counts, so other tests' pools must not leak into them.
        return SynthesisService(
            model_root, workers=1, request_timeout=30.0,
            circuit_factory=lambda: CircuitBreaker(
                failure_threshold=2, reset_timeout=5.0, clock=clock),
            metrics=MetricsRegistry(), **kwargs)

    def test_open_rejects_fast_then_heals_via_probe(
            self, model_root, monkeypatch):
        clock = FakeClock()
        set_plan(monkeypatch, BOOT_KILL)
        with self._service(model_root, clock) as service:
            for _ in range(2):
                with pytest.raises(WorkerError):
                    service.sample("adult-pb", 16, seed=1)
            # Circuit open: fails fast without attempting a boot.
            start = time.monotonic()
            with pytest.raises(CircuitOpen) as info:
                service.sample("adult-pb", 16, seed=1)
            assert time.monotonic() - start < 1.0
            assert info.value.retry_after > 0
            assert service.healthz()["circuits"]["adult-pb"]["state"] \
                == "open"
            # Heal the model and let the open window lapse: the next
            # request is the half-open probe, boots a pool, and closes
            # the circuit.
            monkeypatch.delenv("REPRO_FAULTS")
            clock.advance(5.0)
            reference = load_model(model_root / "adult-pb").sample(
                16, batch=8, seed=1)
            table, _ = service.sample("adult-pb", 16, batch=8, seed=1)
            assert_tables_equal(table, reference)
            assert service.healthz()["circuits"]["adult-pb"]["state"] \
                == "closed"

    def test_degraded_inline_serves_while_open(self, model_root,
                                               monkeypatch):
        clock = FakeClock()
        set_plan(monkeypatch, BOOT_KILL)
        reference = load_model(model_root / "adult-pb").sample(
            48, batch=8, seed=3)
        with self._service(model_root, clock,
                           degraded="inline") as service:
            for _ in range(2):
                with pytest.raises(WorkerError):
                    service.sample("adult-pb", 16, seed=1)
            # Open circuit + degraded mode: served inline, bit-identical
            # (the sharded-seed contract holds at workers=0).
            table, _ = service.sample("adult-pb", 48, batch=8, seed=3)
            assert_tables_equal(table, reference)
            health = service.healthz()
            assert health["degraded"] == ["adult-pb"]
            assert health["circuits"]["adult-pb"]["state"] == "open"
            # Heal: the probe boots a worker pool, the circuit closes,
            # and the degraded fallback is retired.
            monkeypatch.delenv("REPRO_FAULTS")
            clock.advance(5.0)
            table, _ = service.sample("adult-pb", 48, batch=8, seed=3)
            assert_tables_equal(table, reference)
            health = service.healthz()
            assert health["circuits"]["adult-pb"]["state"] == "closed"
            assert health["degraded"] == []

    def test_crashed_pool_is_replaced(self, model_root, monkeypatch):
        """A pool whose every slot retires (crash loop) still finishes
        the in-flight request inline, then is swapped for a fresh pool
        on the next request."""
        clock = FakeClock()
        reference = load_model(model_root / "adult-pb").sample(
            96, batch=8, seed=5)
        # Incarnation 0 dies mid-request; every respawn (1..3) dies at
        # boot, so the slot retires after DEFAULT_MAX_BOOT_FAILURES (3)
        # and the pool crashes — but a fresh pool's incarnation 0 is
        # clean.
        set_plan(monkeypatch, KILL_AFTER_2,
                 {"on": "boot", "action": "kill",
                  "incarnations": [1, 2, 3]})
        with self._service(model_root, clock) as service:
            table, _ = service.sample("adult-pb", 96, batch=8, seed=5)
            assert_tables_equal(table, reference)  # inline drain
            health = service.healthz()
            assert health["pools"]["adult-pb"]["crashed"] is True
            assert health["pools"]["adult-pb"]["inline_recoveries"] >= 1
            # Next request detects the crash, retires the pool, and
            # boots a replacement whose workers survive (plans are
            # re-armed per process, so the fault env must be cleared).
            monkeypatch.delenv("REPRO_FAULTS")
            table, _ = service.sample("adult-pb", 96, batch=8, seed=5)
            assert_tables_equal(table, reference)
            assert service.healthz()["pools"]["adult-pb"]["crashed"] \
                is False


class TestCircuitOverHTTP:
    def test_503_retry_after_and_recovery(self, model_root,
                                          monkeypatch):
        clock = FakeClock()
        set_plan(monkeypatch, BOOT_KILL)
        service = SynthesisService(
            model_root, workers=1, request_timeout=30.0,
            circuit_factory=lambda: CircuitBreaker(
                failure_threshold=2, reset_timeout=5.0, clock=clock))
        with SynthesisServer(service).start() as server:
            def sample_status(body):
                request = urllib.request.Request(
                    f"{server.url}/models/adult-pb/sample",
                    data=json.dumps(body).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST")
                try:
                    with urllib.request.urlopen(request,
                                                timeout=60) as resp:
                        return (resp.status, resp.headers,
                                json.loads(resp.read()))
                except urllib.error.HTTPError as exc:
                    return exc.code, exc.headers, json.loads(exc.read())

            for _ in range(2):
                status, _, payload = sample_status({"n": 16, "seed": 1})
                assert status == 500
                assert payload["error"] == "WorkerError"
            status, headers, payload = sample_status({"n": 16,
                                                      "seed": 1})
            assert status == 503
            assert payload["error"] == "CircuitOpen"
            assert int(headers["Retry-After"]) >= 5
            # /healthz exposes the open circuit.
            with urllib.request.urlopen(f"{server.url}/healthz",
                                        timeout=30) as resp:
                health = json.loads(resp.read())
            assert health["circuits"]["adult-pb"]["state"] == "open"
            # Heal + half-open probe over HTTP.
            monkeypatch.delenv("REPRO_FAULTS")
            clock.advance(5.0)
            status, _, payload = sample_status({"n": 16, "seed": 1})
            assert status == 200
            assert payload["seed"] == 1
        service.close()
