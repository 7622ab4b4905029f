"""Micro-batching scheduler: coalesce small requests into one pass.

Many concurrent clients asking for a few hundred rows each from the
same model is the worst case for per-request overhead: every request
pays the queue hop, session setup, and (per chunk) the python dispatch
around one generator GEMM.  The :class:`MicroBatcher` sits in front of
the worker pools and coalesces **unseeded** requests targeting the same
model into one generator pass (one combined ``sample`` of the summed
row counts), then splits the output back per request in arrival order.

Seeded requests are never coalesced — a request that pins its seed is
asking for an exact stream, which a shared pass cannot provide — and
flow through individually.

Flow control is explicit:

* the request queue is **bounded** — a full queue rejects new requests
  immediately with :class:`BackpressureError` (shed at the edge, don't
  let latency grow without bound);
* every request carries a deadline — waiting past it raises
  :class:`RequestTimeout` for the submitter, and the scheduler drops
  requests that expired while queued instead of running dead work.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Optional

from ..api.base import _count
from ..check.lockorder import make_condition
from ..datasets.schema import Table
from ..obs import clock as _obs_clock
from ..obs.metrics import MetricsRegistry
from .errors import BackpressureError, PoolClosed, RequestTimeout

#: sampler(model_name, n, seed) -> Table; provided by the service layer.
#: When a request carries a trace the batcher calls it with an extra
#: ``trace=`` keyword, so service-layer samplers accept one.
Sampler = Callable[[str, int, Optional[int]], Table]

#: Requests-per-pass buckets for the coalesce-size histogram.
_COALESCE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def slice_rows(table: Table, start: int, stop: int) -> Table:
    """Row-range copy of a table (used to split a coalesced pass).

    Copies rather than views: a view would pin the whole coalesced
    pass's arrays alive for as long as any single request's slice is
    held, so one 512-row caller could retain the full 131072-row pass.
    """
    return Table(table.schema,
                 {name: table.columns[name][start:stop].copy()
                  for name in table.schema.names})


class _Request:
    __slots__ = ("model", "n", "seed", "deadline", "event", "result",
                 "error", "abandoned", "trace")

    def __init__(self, model: str, n: int, seed: Optional[int],
                 deadline: float, trace=None):
        self.model = model
        self.n = n
        self.seed = seed
        self.deadline = deadline
        self.event = threading.Event()
        self.result: Optional[Table] = None
        self.error: Optional[BaseException] = None
        self.abandoned = False
        self.trace = trace

    def finish(self, result: Optional[Table],
               error: Optional[BaseException] = None) -> None:
        self.result = result
        self.error = error
        self.event.set()


class MicroBatcher:
    """Bounded-queue request coalescer over a sampler callable.

    Parameters
    ----------
    sampler:
        ``(model_name, n, seed) -> Table``; the service layer passes the
        worker-pool entry point here.
    max_queue:
        Queue bound; submissions beyond it raise
        :class:`BackpressureError` immediately.
    max_delay:
        How long the scheduler holds the first request of a batch open
        for followers (seconds).  The latency cost of coalescing.
    max_coalesce_rows:
        Row budget per combined pass; a batch closes early when filled.
    timeout:
        Default per-request deadline (seconds).
    executor_threads:
        Concurrent batch executions.  Passes run on an executor so a
        long pass for one model never head-of-line blocks another
        model's requests behind the scheduler.
    metrics:
        :class:`repro.obs.MetricsRegistry` the batcher counts into
        (queue depth, requests per pass, submissions, rows, and
        requests by outcome).  ``None`` (the default) gives it a
        private registry.  :attr:`stats` reads its counts back from
        here.
    """

    def __getstate__(self):
        raise TypeError(
            "MicroBatcher is not picklable: it holds its queue "
            "condition, scheduler thread, and executor; build one per "
            "process")

    def __init__(self, sampler: Sampler, *, max_queue: int = 256,
                 max_delay: float = 0.005,
                 max_coalesce_rows: int = 131072,
                 timeout: float = 30.0, executor_threads: int = 4,
                 metrics=None):
        self._sampler = sampler
        metrics = MetricsRegistry() if metrics is None else metrics
        self._m_depth = metrics.gauge(
            "repro_batcher_queue_depth",
            "Requests currently queued in the micro-batcher.")
        self._m_coalesce = metrics.histogram(
            "repro_batcher_coalesce_size",
            "Requests coalesced into each executed pass.",
            buckets=_COALESCE_BUCKETS)
        self._m_requests = metrics.counter(
            "repro_batcher_requests_total",
            "Batcher requests by outcome.", labelnames=("outcome",))
        self._m_submitted = metrics.counter(
            "repro_batcher_submitted_total",
            "Requests accepted into the batcher queue.")
        self._m_rows = metrics.counter(
            "repro_batcher_rows_total",
            "Rows returned by successful batcher passes.")
        self.max_queue = _count("max_queue", max_queue, minimum=1)
        self.max_delay = float(max_delay)
        self.max_coalesce_rows = _count("max_coalesce_rows",
                                        max_coalesce_rows, minimum=1)
        self.timeout = float(timeout)
        self._max_concurrent = _count("executor_threads",
                                      executor_threads, minimum=1)
        self._executor = ThreadPoolExecutor(
            max_workers=self._max_concurrent,
            thread_name_prefix="repro-serve-batch")
        self._running = 0
        self._queue: deque = deque()
        self._cond = make_condition("batcher.queue")
        self._closed = False
        self._scheduler = threading.Thread(
            target=self._run, daemon=True, name="repro-serve-batcher")
        self._scheduler.start()

    @property
    def stats(self) -> Dict[str, int]:
        """The registry's counts.  Passes are counted when they start
        (a pass that later fails still counts); ``rows_served`` only
        when they succeed."""
        passes = self._m_coalesce.read()
        solo = passes["counts"][0]  # the le=1 bucket: one request
        return {
            "submitted": int(self._m_submitted.value()),
            "rejected": int(self._m_requests.value(outcome="rejected")),
            "timeouts": int(self._m_requests.value(outcome="timeout")),
            "coalesced_batches": passes["count"] - solo,
            "coalesced_requests": int(passes["sum"]) - solo,
            "solo_requests": solo,
            "rows_served": int(self._m_rows.value()),
        }

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(self, model: str, n: int, seed: Optional[int] = None,
               timeout: Optional[float] = None, trace=None) -> Table:
        """Enqueue one request and block until its rows are ready.

        Raises :class:`BackpressureError` immediately when the queue is
        full and :class:`RequestTimeout` when the deadline passes
        first; a timed-out request's late result is discarded.

        ``trace`` (a :class:`repro.obs.Trace`) rides along to the
        sampler so a traced request's spans cover the coalesced pass
        that actually served it.
        """
        n = _count("n", n, minimum=1)
        timeout = self.timeout if timeout is None else float(timeout)
        request = _Request(model, n, seed,
                           _obs_clock.monotonic() + timeout, trace=trace)
        with self._cond:
            if self._closed:
                raise PoolClosed("micro-batcher is closed")
            if len(self._queue) >= self.max_queue:
                self._m_requests.inc(outcome="rejected")
                raise BackpressureError(
                    f"request queue is full ({self.max_queue} pending); "
                    "retry with backoff")
            self._queue.append(request)
            self._m_submitted.inc()
            self._m_depth.set(len(self._queue))
            self._cond.notify_all()
        if not request.event.wait(timeout):
            request.abandoned = True
            self._m_requests.inc(outcome="timeout")
            raise RequestTimeout(
                f"request for {n} rows of {model!r} missed its "
                f"{timeout:.3g}s deadline")
        if request.error is not None:
            raise request.error
        return request.result

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            drained = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        for request in drained:
            request.finish(None, PoolClosed("micro-batcher closed"))
        self._scheduler.join(timeout=5.0)
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Scheduler side
    # ------------------------------------------------------------------
    def _next_request(self) -> Optional[_Request]:
        with self._cond:
            while not self._queue and not self._closed:
                self._cond.wait()
            if self._closed and not self._queue:
                return None
            head = self._queue.popleft()
            self._m_depth.set(len(self._queue))
            return head

    def _gather_followers(self, head: _Request) -> list:
        """Hold the batch open up to ``max_delay`` for coalescible
        followers: unseeded requests for the same model, within the
        row budget.  Waits on the submission condition (woken by every
        ``submit``) rather than polling."""
        group = [head]
        total = head.n
        deadline = _obs_clock.monotonic() + self.max_delay
        with self._cond:
            while total < self.max_coalesce_rows and not self._closed:
                follower = None
                for candidate in self._queue:
                    if candidate.model == head.model \
                            and candidate.seed is None \
                            and total + candidate.n \
                            <= self.max_coalesce_rows:
                        follower = candidate
                        break
                if follower is not None:
                    self._queue.remove(follower)
                    self._m_depth.set(len(self._queue))
                    group.append(follower)
                    total += follower.n
                    continue
                remaining = deadline - _obs_clock.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
        return group

    def _run(self) -> None:
        while True:
            head = self._next_request()
            if head is None:
                return
            now = _obs_clock.monotonic()
            if head.abandoned or now >= head.deadline:
                head.finish(None, RequestTimeout("expired while queued"))
                self._m_requests.inc(outcome="expired")
                continue
            group = ([head] if head.seed is not None
                     else self._gather_followers(head))
            # Execution happens off-thread so one model's slow pass
            # cannot starve another model's queued requests — but only
            # up to executor_threads passes at once: past that the
            # scheduler stalls here, the bounded queue fills, and
            # submit() starts shedding load.  Dispatching into an
            # unbounded executor queue would silently disable
            # backpressure.
            with self._cond:
                while self._running >= self._max_concurrent \
                        and not self._closed:
                    self._cond.wait(0.05)
                if self._closed:
                    head_group = group
                    for request in head_group:
                        request.finish(None,
                                       PoolClosed("micro-batcher closed"))
                    return
                self._running += 1
            self._executor.submit(self._run_pass, group)

    def _run_pass(self, group: list) -> None:
        try:
            self._execute(group)
        finally:
            with self._cond:
                self._running -= 1
                self._cond.notify_all()

    def _execute(self, group: list) -> None:
        live = [r for r in group if not r.abandoned
                and _obs_clock.monotonic() < r.deadline]
        expired = len(group) - len(live)
        for request in group:
            if request not in live:
                request.finish(None, RequestTimeout("expired while queued"))
        if expired:
            self._m_requests.inc(expired, outcome="expired")
        if not live:
            return
        total = sum(r.n for r in live)
        seed = live[0].seed if len(live) == 1 else None
        # Any live request's trace covers the pass (coalesced groups
        # are unseeded, so at most the head is traced in practice).
        trace = next((r.trace for r in live if r.trace is not None), None)
        self._m_coalesce.observe(len(live))
        try:
            if trace is None:
                table = self._sampler(live[0].model, total, seed)
            else:
                with trace.span("batch", model=live[0].model,
                                requests=len(live), rows=total):
                    table = self._sampler(live[0].model, total, seed,
                                          trace=trace)
        except BaseException as exc:
            for request in live:
                request.finish(None, exc)
            self._m_requests.inc(len(live), outcome="error")
            return
        self._m_rows.inc(total)
        offset = 0
        for request in live:
            request.finish(slice_rows(table, offset, offset + request.n))
            offset += request.n
        self._m_requests.inc(len(live), outcome="ok")
