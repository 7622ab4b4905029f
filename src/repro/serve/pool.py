"""Self-healing multi-process sampling pool with deterministic sharding.

A :class:`WorkerPool` owns N worker processes, each holding its **own**
loaded copy of one saved model (single-table synthesizer or database
synthesizer).  Table requests are sharded by the chunk plan of the
sharded-seed contract (:func:`repro.api.chunk_plan`): chunk ``i`` of a
``sample(n, batch, seed)`` request is generated from the substream
``(seed, "chunk", i)`` *wherever it runs*, so the pool's reassembled
output is bit-identical to single-process ``sample(n, batch=batch,
seed=seed)`` — for any worker count, including the inline ``workers=0``
mode.  A table request is one stream of single-chunk tasks, dispatched
a bounded window ahead of its consumer; ``sample`` concatenates the
stream ``sample_iter`` yields.  Database requests are not sharded (a
database draw is a sequential parents-first walk); they run whole on
one worker, with parallelism coming from concurrent requests.

Every task runs one way (:func:`_run_task`), in a worker or in the
parent's :meth:`WorkerPool._run_inline_task`: its chunks are sampled,
each is encoded in the task's wire format when it names one, and one
chunk span is stamped over both.  The parent runs tasks once every
worker slot has retired (the *takeover*); a ``workers=0`` pool is in
takeover from boot, so its requests take a worker pool's dispatch and
wait path.

Transport: every worker slot gets its **own pair of pipes** (tasks
down, results up).  A shared ``mp.Queue`` cannot survive worker death —
a worker killed while blocked in ``get()`` leaves the queue's shared
reader lock held forever, wedging every successor — whereas a dead
worker's private pipes are simply drained and discarded.  The parent
balances load by dispatching each task to the least-loaded live slot,
records the assignment in that slot's claim ledger, and the worker acks
the claim on its result pipe before generating.

Fault tolerance (the self-healing layer):

* **Chunk-level recovery.**  When a worker dies (OOM, SIGKILL,
  segfault), its buffered results are drained, then only its
  claimed-but-undelivered chunks are requeued to surviving workers —
  or executed by the parent inline, as a last resort.  Re-execution
  pulls the same ``(seed, "chunk", i)`` substream, so recovered output
  is bit-identical to an uninterrupted run and duplicate delivery is
  harmless.
* **Respawn with backoff.**  Dead workers are respawned in place (new
  incarnation, fresh pipes) under an exponential
  :class:`repro.serve.circuit.RespawnBackoff`; repeated boot failures
  retire the slot instead of hot-looping fork+load.
* **Poison-chunk isolation.**  A chunk whose execution keeps killing
  workers is retried at most :data:`DEFAULT_CHUNK_RETRY_BUDGET` times,
  then fails *that request* with :class:`WorkerError` — one bad request
  cannot take the pool down.
* **Event-driven supervision.**  Death detection blocks in
  ``multiprocessing.connection.wait`` on process sentinels; the result
  receiver blocks the same way on the result pipes.  An idle pool burns
  no CPU polling.
* **Stale-work shedding.**  When a request fails or is abandoned, its
  id enters a small shared-memory cancellation ring; workers check it
  at dispatch and between chunks and skip dead work instead of
  computing chunks nobody will read.

Deterministic fault injection (:mod:`repro.serve.faults`, env-gated via
``REPRO_FAULTS``) hooks the worker body at boot/task/chunk events so
chaos tests can script exactly these failures and assert bit-identity.

CPU budget: workers are forked after numpy's OpenBLAS has sized its
thread pool for the whole machine, so N uncapped workers would run N
times that many BLAS threads.  Each worker therefore lowers its own
OpenBLAS thread count to ``max(1, usable_cpus // workers)`` at boot
(never raising it, so ``OPENBLAS_NUM_THREADS`` still caps lower) and
reports the count in effect; :meth:`WorkerPool.status` shows it per
slot.  The parent process keeps the library default.

Engine dtype: a worker does not pin one.  Every model samples in the
dtype it was saved in (:meth:`repro.api.Synthesizer.load`), in a worker,
inline, or in the fitting process alike, so one pool's output does not
depend on the parent's default dtype.

Encoding: a request drawn inside
:func:`repro.serve.encoding.encoded_at_source` (every table response of
the HTTP layer) has each chunk encoded in the context's wire format by
the process that generated the chunk, inside its shipped chunk span:
its CSV rows, or its JSON column bodies.  The chunk still arrives as
the same :class:`~repro.datasets.schema.Table`, carrying the bytes
(:func:`repro.serve.encoding.attach`), and ``sample`` joins the bytes
of a buffered draw's chunks (:func:`repro.serve.encoding.join`), so the
parent only splices them.
"""

from __future__ import annotations

import collections
import ctypes
import glob
import itertools
import multiprocessing as mp
import os
import pathlib
import signal
import threading
import traceback
from multiprocessing import connection as mp_connection
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..api.base import PathLike, _count, _request_seed, chunk_plan
from ..check.lockorder import make_condition, make_lock
from ..datasets.schema import Table
from ..obs import clock as _obs_clock
from ..obs.metrics import MetricsRegistry
from . import encoding
from .circuit import RespawnBackoff
from .errors import PoolClosed, RequestTimeout, ServingError, WorkerError
from .faults import plan_from_env
from .store import (KIND_DATABASE, KIND_TABLE, load_model, model_kind,
                    model_name)

#: Handshake budget: covers the worker's model load (arrays from disk).
DEFAULT_START_TIMEOUT = 120.0
#: Budget for each chunk wait when the caller does not pass ``timeout=``.
DEFAULT_REQUEST_TIMEOUT = 300.0
#: Chunk-retry ceiling before a request is failed as a poison chunk.
DEFAULT_CHUNK_RETRY_BUDGET = 2
#: Consecutive boot failures before a worker slot is retired.
DEFAULT_MAX_BOOT_FAILURES = 3
#: Supervision events kept for :meth:`WorkerPool.status`.
DEFAULT_EVENT_RING = 16
#: Fallback delay between a death and requeueing its claims if the
#: receiver cannot confirm the dead worker's result pipe is drained
#: (normally the drain signal arrives within milliseconds).
_RECLAIM_FALLBACK = 5.0
#: Entries in the shared-memory cancellation ring (slot 0 is the write
#: cursor).  Sized for "recently failed" — a worker that misses an
#: overwritten id merely wastes one chunk of work.
_CANCEL_SLOTS = 32


def _mp_context():
    """Prefer ``fork`` (cheap, COW model pages); fall back to spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else methods[0])


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _openblas():
    """numpy's bundled OpenBLAS via ``ctypes`` as ``(get_num_threads,
    set_num_threads, thread_shutdown)``, or ``None`` when numpy ships
    none (``thread_shutdown`` is ``None`` where the build hides it)."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"),
                               ("openblas", "64_"), ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                setter.restype, setter.argtypes = None, [ctypes.c_int]
                shutdown = getattr(lib, "blas_thread_shutdown_", None)
                if shutdown is not None:
                    shutdown.restype, shutdown.argtypes = ctypes.c_int, []
                return getter, setter, shutdown
    return None


def blas_threads() -> Optional[int]:
    """OpenBLAS threads in effect in this process (``None``: no OpenBLAS)."""
    api = _openblas()
    return None if api is None else api[0]()


def _cap_blas_threads(budget: int) -> Optional[int]:
    """Lower this process's OpenBLAS threads to ``budget`` (never raise
    them); returns the count read back, ``None`` without OpenBLAS."""
    api = _openblas()
    if api is None:
        return None
    getter, setter, shutdown = api
    if budget < getter():
        setter(budget)
        # In a forked child the setter restarts the thread pool that
        # fork stopped, and its idle threads spin for about 0.1 s of CPU
        # each, slowing every worker boot.  Stop them again: OpenBLAS
        # restarts them on the first call that can use more than one.
        if shutdown is not None:
            shutdown()
    return getter()


def _is_cancelled(cancel_ring, req_id: int) -> bool:
    """Worker-side check of the shared cancellation ring.

    Lock-free read: only the parent writes (under the ring's lock to
    serialize its own threads), and the parent is never killed, so the
    writer lock cannot be poisoned; a worker reading a torn entry at
    worst mis-skips one cancellation check.
    """
    raw = cancel_ring.get_obj()
    return req_id in list(raw)[1:]


def _run_task(model, task: tuple, tags: dict
              ) -> Iterator[Tuple[int, object, Optional[dict]]]:
    """Run one pool task on a loaded model: yields ``(index, payload,
    span)`` per chunk it produces.

    A ``"chunks"`` task samples its chunk indices (all of the plan when
    ``None``) under the sharded-seed contract; when it names a ``wire``
    format each chunk gets that encoding attached, and when flagged
    ``traced`` one ``chunk`` span (a plain dict: pipes carry data, the
    parent stitches it into the request trace), tagged with ``tags``,
    covers the sampling and the encode.  A ``"database"`` task is one
    whole draw, yielded as index 0 without a span.
    """
    kind, _, indices, *args = task
    if kind == "database":
        scale, sizes, batch, seed = args
        yield 0, model.sample(scale, sizes=sizes, batch=batch,
                              seed=seed), None
        return
    n, batch, seed, wire, traced = args
    started = _obs_clock.perf()
    for index, table in model.sample_chunks(n, batch=batch, seed=seed,
                                            indices=indices):
        if wire is not None:
            encoding.attach(table, wire)
        span = None
        if traced:
            done = _obs_clock.perf()
            span = {"span_id": f"chunk-{index}", "name": "chunk",
                    "start": started, "end": done,
                    "tags": {"chunk": index, **tags}}
            started = done
        yield index, table, span


def _worker_main(path: str, worker_id: int, incarnation: int,
                 blas_budget: int, task_r, result_w, cancel_ring) -> None:
    """Worker process body: load once, then serve tasks until sentinel.

    Runs in the child.  SIGTERM gets its default action back (a forked
    worker inherits the server's handler), so ``terminate()`` ends a
    worker at once.  The process-global tape pool inherited over
    ``fork`` is dropped (:func:`repro.nn.reset_worker_state`) so
    copy-on-write pages sized for the parent's training workload are
    not dirtied per worker.  No engine dtype is pinned: the loaded
    model samples in the dtype it was saved in.  OpenBLAS is then
    capped at ``blas_budget`` threads, and the ready message reports
    the count in effect.

    Every message leads with this worker's slot id.  A claim ack is
    sent *before* generation starts, so the parent's ledger of what
    this process owes is confirmed on the same ordered pipe that later
    carries the chunks.  Tasks run through :func:`_run_task`.
    """
    try:
        from ..nn import reset_worker_state

        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        reset_worker_state()
        threads = _cap_blas_threads(blas_budget)
        plan = plan_from_env()
        model = load_model(path).spawn_sampler(worker_id)
        if plan is not None:
            plan.fire("boot", worker=worker_id, incarnation=incarnation)
        meta = {"method": getattr(model, "method", None),
                "default_batch": getattr(model, "default_sample_batch",
                                         None),
                "blas_threads": threads}
    except BaseException:
        result_w.send(("boot_error", worker_id,
                       traceback.format_exc(limit=16)))
        return
    result_w.send(("ready", worker_id, meta))
    tags = {"worker": worker_id, "incarnation": incarnation}
    produced = 0
    tasks_seen = 0
    while True:
        try:
            task = task_r.recv()
        except EOFError:
            return
        if task is None:
            return
        kind, req_id, indices = task[:3]
        tasks_seen += 1
        if _is_cancelled(cancel_ring, req_id):
            result_w.send(("skip", worker_id, req_id))
            continue
        try:
            if plan is not None:
                plan.fire("task", worker=worker_id,
                          incarnation=incarnation, count=tasks_seen)
            result_w.send(("claim", worker_id, req_id, list(indices)))
            for index, payload, span in _run_task(model, task, tags):
                if _is_cancelled(cancel_ring, req_id):
                    result_w.send(("skip", worker_id, req_id))
                    break
                if plan is not None:
                    # A whole database draw fires as chunk index -1.
                    plan.fire("chunk", worker=worker_id,
                              incarnation=incarnation,
                              index=index if kind == "chunks" else -1,
                              produced=produced)
                result_w.send(("chunk", worker_id, req_id, index,
                               payload, span))
                produced += 1
        except Exception as exc:
            result_w.send(("error", worker_id, req_id,
                           f"{type(exc).__name__}: {exc}"))


class _WorkerSlot:
    """Parent-side supervision state for one worker position.

    The *slot* is stable across respawns; the *incarnation* counts the
    processes that have occupied it.  ``claims`` maps request id ->
    chunk indices dispatched to this incarnation and not yet delivered;
    after a death (and once the result pipe is drained) they are
    requeued elsewhere.  All mutable fields are guarded by the pool's
    ``_lock`` except ``process``/``task_w``/``result_r`` handoffs,
    which only the supervisor thread performs.
    """

    __slots__ = ("slot", "process", "task_w", "result_r", "incarnation",
                 "restarts", "boot_failures", "deaths", "ready", "dead",
                 "drained", "retired", "respawn_at", "reclaim_at",
                 "claims", "last_exit", "blas_threads")

    def __init__(self, slot: int):
        self.slot = slot
        self.process: Optional[mp.process.BaseProcess] = None
        self.task_w = None
        self.result_r = None
        self.incarnation = 0
        self.restarts = 0
        self.boot_failures = 0
        self.deaths = 0
        self.ready = False
        self.dead = False
        self.drained = False
        self.retired = False
        self.respawn_at: Optional[float] = None
        self.reclaim_at: Optional[float] = None
        self.claims: Dict[int, Set[int]] = {}
        self.last_exit: Optional[int] = None
        self.blas_threads: Optional[int] = None

    def outstanding(self) -> int:
        return sum(len(indices) for indices in self.claims.values())


class _Pending:
    """Parent-side state of one in-flight request."""

    __slots__ = ("cond", "results", "expected", "error", "closed",
                 "kind", "spec", "dispatched", "delivered", "retries",
                 "trace")

    def __getstate__(self):
        raise TypeError(
            "_Pending is not picklable: it holds the result condition "
            "of an in-flight request; only payloads cross processes")

    def __init__(self, expected: int, kind: str = "chunks",
                 spec: tuple = (), trace=None):
        self.cond = make_condition("pool.result")
        self.results: Dict[int, object] = {}
        self.expected = expected
        self.error: Optional[str] = None
        self.closed = False
        self.kind = kind            # "chunks" | "database"
        self.spec = spec            # params to rebuild a task for requeue
        self.dispatched: Set[int] = set()
        self.delivered: Set[int] = set()
        self.retries: Dict[int, int] = {}
        self.trace = trace          # repro.obs.Trace or None

    def task_for(self, req_id: int, indices: List[int]) -> tuple:
        """The pipe task covering ``indices`` of this request:
        ``(kind, req_id, indices, *spec)``, plus the ``traced`` flag for
        a chunks task.

        A task rebuilt for a requeue keeps the ``traced`` flag and the
        wire format, so chunks re-executed after a worker death ship
        spans and bytes exactly like the first attempt (the parent
        stitches them as retry spans).
        """
        task = (self.kind, req_id, sorted(indices), *self.spec)
        if self.kind == "chunks":
            task += (self.trace is not None,)
        return task

    def stitch(self, index: int, span: Optional[dict]) -> None:
        """Adopt a worker-shipped chunk span into the request trace."""
        if span is not None and self.trace is not None:
            self.trace.add(span, retry=self.retries.get(index, 0))

    def deliver(self, index: int, payload) -> None:
        with self.cond:
            self.results[index] = payload
            self.delivered.add(index)
            self.cond.notify_all()

    def undelivered(self) -> List[int]:
        with self.cond:
            return sorted(self.dispatched - self.delivered)

    def fail(self, message: str) -> None:
        with self.cond:
            self.error = message
            self.cond.notify_all()

    def abandon(self) -> None:
        with self.cond:
            self.closed = True
            self.cond.notify_all()

    def wait_index(self, index: int, deadline: Optional[float]):
        with self.cond:
            while True:
                if self.error is not None:
                    raise WorkerError(self.error)
                if self.closed:
                    raise PoolClosed("worker pool closed mid-request")
                if index in self.results:
                    # Hand over ownership: a streamed request must not
                    # accumulate every yielded chunk here for its whole
                    # lifetime (that would re-materialize the table the
                    # streaming API exists to avoid).
                    return self.results.pop(index)
                remaining = None
                if deadline is not None:
                    remaining = deadline - _obs_clock.monotonic()
                    if remaining <= 0:
                        raise RequestTimeout(
                            f"request timed out waiting for chunk {index} "
                            f"({len(self.delivered)}/{self.expected} done)")
                self.cond.wait(remaining)


class WorkerPool:
    """Self-healing sampling workers over one saved model.

    Parameters
    ----------
    path:
        Saved model directory (``Synthesizer.save`` or
        ``DatabaseSynthesizer.save`` layout).
    workers:
        Worker process count.  ``0`` runs every task in the requesting
        thread on the pool's own loaded copy of the model (no
        multiprocessing; identical output by the sharded-seed contract)
        — useful for tests, single-core deployments, and the service's
        degraded fallback.  Such a pool is in takeover from boot.
    request_timeout:
        Default deadline in seconds for each chunk wait (overridable
        per call): a request fails with :class:`RequestTimeout` when its
        next chunk takes longer, while a stream that keeps delivering
        has no overall bound.
    metrics:
        :class:`repro.obs.MetricsRegistry` for the supervision counters
        (dispatches, chunk deliveries/retries, deaths, respawns) and
        the in-flight gauge, labelled with the model name (the parent
        directory's name for a published ``<name>/v0001`` version).
        ``None`` (the default) gives the pool a private registry.
        :meth:`status` reads its counts back for the pool's label, so
        with a shared registry they are per-model lifetime counts: a
        replacement pool reports its predecessor's retries too.

    Supervision has no options: dead workers respawn on the
    :class:`repro.serve.circuit.RespawnBackoff` schedule (0.25s doubling
    to a 15s cap), :data:`DEFAULT_MAX_BOOT_FAILURES` consecutive boot
    failures retire a slot, and a chunk requeued more than
    :data:`DEFAULT_CHUNK_RETRY_BUDGET` times fails its request with
    :class:`WorkerError`.  Once every slot has retired, the parent
    finishes in-flight requests inline (bit-identical, slower) and the
    pool is *crashed*: new requests raise :class:`PoolClosed` and the
    service layer replaces the pool.
    """

    def __getstate__(self):
        raise TypeError(
            "WorkerPool is not picklable: it owns worker processes, "
            "pipes, and locks; workers re-load the model from its "
            "saved path instead")

    def __init__(self, path: PathLike, workers: int = 1, *,
                 request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
                 metrics=None):
        workers = _count("workers", workers, minimum=0)
        self.path = pathlib.Path(path)
        self.kind = model_kind(self.path)
        if self.kind is None:
            raise ServingError(f"no saved synthesizer at {self.path}")
        # The tables a database draw's ``sizes`` may name, with the
        # real row counts its ``scale`` multiplies, checked before
        # dispatch.
        self._root_rows: Dict[str, int] = {}
        if self.kind == KIND_DATABASE:
            from ..relational.synthesizer import saved_root_rows

            self._root_rows = saved_root_rows(self.path)
        self.workers = workers
        self.request_timeout = request_timeout
        self._backoff = RespawnBackoff()
        self._closed = False
        self._crashed = False
        # A workers=0 pool has no slot to dispatch to: it is in takeover
        # from boot, and never crashes.
        self._takeover = workers == 0
        self._ids = itertools.count()
        self._lock = make_lock("pool.pending")
        self._pending: Dict[int, _Pending] = {}
        self._cancelled: Set[int] = set()
        self._backlog: List[Tuple[int, Tuple[int, ...]]] = []
        self._inflight = 0
        self._meta: Dict[str, object] = {}
        self._slots: List[_WorkerSlot] = []
        self._events: collections.deque = collections.deque(
            maxlen=DEFAULT_EVENT_RING)
        metrics = MetricsRegistry() if metrics is None else metrics
        self._model_label = model_name(self.path)
        self._m_dispatch = metrics.counter(
            "repro_pool_dispatch_total",
            "Chunk tasks routed to workers/backlog/inline.",
            labelnames=("model",))
        self._m_chunks = metrics.counter(
            "repro_pool_chunks_total",
            "Chunks delivered to requests.",
            labelnames=("model", "source"))
        self._m_retries = metrics.counter(
            "repro_pool_chunk_retries_total",
            "Chunks requeued after worker deaths.",
            labelnames=("model",))
        self._m_deaths = metrics.counter(
            "repro_pool_worker_deaths_total",
            "Unexpected worker process deaths.",
            labelnames=("model",))
        self._m_respawns = metrics.counter(
            "repro_pool_respawns_total",
            "Workers respawned in place after a death.",
            labelnames=("model",))
        self._m_stale = metrics.counter(
            "repro_pool_stale_dropped_total",
            "Cancelled-request tasks skipped by workers.",
            labelnames=("model",))
        self._m_inline = metrics.counter(
            "repro_pool_inline_recoveries_total",
            "Tasks executed inline in the parent as a last resort.",
            labelnames=("model",))
        # Moved by inc/dec, not set: a draining or degraded pool shares
        # its model's series with the live one, and the gauge is their sum.
        self._m_inflight = metrics.gauge(
            "repro_pool_inflight",
            "Requests holding the pool.",
            labelnames=("model",))
        self._fallback_lock = make_lock("pool.fallback")
        self._local_model = None
        if workers == 0:
            model = self._local()
            self._meta = {
                "method": getattr(model, "method", None),
                "default_batch": getattr(model, "default_sample_batch",
                                         None)}
            return
        ctx = _mp_context()
        self._ctx = ctx
        self._blas_budget = max(1, usable_cpus() // workers)
        # Slot 0 is the write cursor; entries hold recently cancelled
        # request ids (-1 = empty).  Shared with every worker.
        self._cancel_ring = ctx.Array("q", [0] + [-1] * _CANCEL_SLOTS)
        # Parent-internal wake pipes for the two event loops.
        self._swake_r, self._swake_w = ctx.Pipe(duplex=False)
        self._rwake_r, self._rwake_w = ctx.Pipe(duplex=False)
        self._boot_ready: Dict[int, dict] = {}
        self._boot_errors: List[str] = []
        self._boot_cond = make_condition("pool.boot")
        self._booting = True
        for worker_id in range(workers):
            slot = _WorkerSlot(worker_id)
            self._slots.append(slot)
            self._spawn(slot)
        self._receiver = threading.Thread(
            target=self._receive_loop, daemon=True,
            name=f"repro-serve-recv-{self.path.name}")
        self._receiver.start()
        self._supervisor = threading.Thread(
            target=self._supervise_loop, daemon=True,
            name=f"repro-serve-mon-{self.path.name}")
        self._supervisor.start()
        self._await_boot(DEFAULT_START_TIMEOUT)

    # ------------------------------------------------------------------
    # Startup / shutdown
    # ------------------------------------------------------------------
    def _spawn(self, slot: _WorkerSlot) -> None:
        """Start a new incarnation in ``slot`` with fresh private pipes."""
        task_r, task_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(str(self.path), slot.slot, slot.incarnation,
                  self._blas_budget, task_r, result_w, self._cancel_ring),
            daemon=True,
            name=(f"repro-serve-{self.path.name}-{slot.slot}"
                  f".{slot.incarnation}"))
        process.start()
        # Drop the parent's copies of the child ends; the child keeps
        # its own (EOF semantics depend on the parent not holding the
        # write end of the result pipe open forever).
        task_r.close()
        result_w.close()
        with self._lock:
            slot.process = process
            slot.task_w = task_w
            slot.result_r = result_r
            slot.dead = False
            slot.drained = False
            slot.ready = False
        self._wake_receiver()

    def _await_boot(self, timeout: float) -> None:
        deadline = _obs_clock.monotonic() + timeout
        with self._boot_cond:
            while (not self._boot_errors and not self._closed
                   and len(self._boot_ready) < self.workers):
                remaining = deadline - _obs_clock.monotonic()
                if remaining <= 0:
                    break
                self._boot_cond.wait(remaining)
            errors = list(self._boot_errors)
            ready = len(self._boot_ready)
            if not errors and ready >= self.workers:
                self._meta = dict(self._boot_ready[min(self._boot_ready)])
                self._booting = False
                return
        self.close()
        if errors:
            raise WorkerError("worker failed to start:\n"
                              + "\n".join(errors))
        raise RequestTimeout(
            f"only {ready}/{self.workers} workers came up within "
            f"{timeout:.0f}s")

    def _wake_supervisor(self) -> None:
        try:
            self._swake_w.send_bytes(b"w")
        except (OSError, ValueError):
            pass  # repro-check: disable=RC006 -- teardown race; supervisor exits via _closed

    def _wake_receiver(self) -> None:
        try:
            self._rwake_w.send_bytes(b"w")
        except (OSError, ValueError):
            pass  # repro-check: disable=RC006 -- teardown race; receiver exits via _closed

    def _record_event(self, what: str, **fields) -> None:
        # Both stamps come from obs.clock: "at" (monotonic) orders
        # events within the process; "wall" makes the ring diagnosable
        # against external logs.  Under a ManualClock both are exact.
        event = {"event": what, "at": round(_obs_clock.monotonic(), 3),
                 "wall": round(_obs_clock.wall(), 3)}
        event.update(fields)
        with self._lock:
            self._events.append(event)

    # ------------------------------------------------------------------
    # Supervision (event-driven; replaces the old 0.25s poll loop)
    # ------------------------------------------------------------------
    def _supervise_loop(self) -> None:
        """Event-driven worker supervision.

        Blocks in ``multiprocessing.connection.wait`` on the live
        process sentinels plus a wake pipe; wakes only on a worker
        death, an explicit nudge (close, drained result pipe), or the
        next scheduled respawn/reclaim deadline — an idle pool burns
        no CPU.

        On an unexpected death: wait for the receiver to drain the dead
        incarnation's result pipe (so already-produced chunks are not
        re-executed), requeue its claimed-but-undelivered chunks,
        schedule a respawn with exponential backoff — or retire the
        slot — and, if every slot is retired, take over: in-flight
        requests finish inline in the parent, and the pool is *crashed*
        and rejects new work.  A worker that dies during initial boot
        fails startup fast instead (no respawn), matching load-error
        behaviour.
        """
        while True:
            with self._lock:
                if self._closed:
                    return
                waitables: List[object] = [self._swake_r]
                for slot in self._slots:
                    if slot.process is not None and not slot.dead:
                        waitables.append(slot.process.sentinel)
            ready = mp_connection.wait(waitables,
                                       timeout=self._next_deadline())
            if self._swake_r in ready:
                try:
                    while self._swake_r.poll():
                        self._swake_r.recv_bytes()
                except (EOFError, OSError):
                    pass  # repro-check: disable=RC006 -- wake pipe closed by close(); loop exits via _closed
            self._note_deaths()
            self._run_reclaims()
            self._run_respawns()
            self._flush_backlog()
            self._maybe_takeover()

    def _next_deadline(self) -> Optional[float]:
        """Seconds until the earliest scheduled respawn/reclaim, if any."""
        with self._lock:
            stamps = [t for slot in self._slots
                      for t in (slot.respawn_at, slot.reclaim_at)
                      if t is not None]
        if not stamps:
            return None
        return max(0.0, min(stamps) - _obs_clock.monotonic())

    def _note_deaths(self) -> None:
        now = _obs_clock.monotonic()
        for slot in self._slots:
            process = slot.process
            if process is None or slot.dead or process.is_alive():
                continue
            process.join(timeout=0)
            detail = f"{process.name} exit={process.exitcode}"
            with self._lock:
                slot.dead = True
                slot.last_exit = process.exitcode
                slot.reclaim_at = now + _RECLAIM_FALLBACK
            # Let the receiver drain whatever the dead worker already
            # sent: chunks in the pipe buffer count as delivered, not
            # as work to redo.
            self._wake_receiver()
            if self._booting and not slot.ready:
                # Fail startup fast: a worker that dies mid-load never
                # reports, so wake _await_boot instead of timing out.
                slot.retired = True
                with self._boot_cond:
                    self._boot_errors.append(
                        f"worker process died during boot ({detail})")
                    self._boot_cond.notify_all()
                continue
            if slot.ready:
                slot.deaths += 1
            else:
                slot.boot_failures += 1
            self._record_event("death", slot=slot.slot,
                               incarnation=slot.incarnation,
                               exitcode=process.exitcode,
                               ready=slot.ready)
            self._m_deaths.inc(model=self._model_label)
            if slot.boot_failures >= DEFAULT_MAX_BOOT_FAILURES:
                slot.retired = True
                self._record_event("retired", slot=slot.slot,
                                   boot_failures=slot.boot_failures)
            else:
                failures = slot.deaths + slot.boot_failures
                slot.respawn_at = now + self._backoff.delay(
                    max(0, failures - 1))

    def _run_reclaims(self) -> None:
        now = _obs_clock.monotonic()
        for slot in self._slots:
            with self._lock:
                if not slot.dead or slot.reclaim_at is None:
                    continue
                if not slot.drained and now < slot.reclaim_at:
                    continue  # receiver still draining the dead pipe
                reclaim, slot.claims = slot.claims, {}
                slot.reclaim_at = None
                exitcode = slot.last_exit
            for req_id, indices in reclaim.items():
                self._recover(
                    req_id, sorted(indices),
                    detail=(f"worker {slot.slot} died "
                            f"(exit={exitcode})"))

    def _recover(self, req_id: int, indices: List[int],
                 detail: str) -> None:
        """Requeue claimed-but-undelivered chunks of a dead worker.

        Re-execution is safe because chunk ``i`` is a pure function of
        ``(seed, "chunk", i)`` — a recovered chunk is bit-identical to
        the lost one, and a duplicate (the dead worker's result was
        already in flight) is simply delivered twice with equal bytes.
        """
        with self._lock:
            pending = self._pending.get(req_id)
            if pending is None or req_id in self._cancelled:
                return
        with pending.cond:
            if pending.error is not None or pending.closed:
                return
            todo = [i for i in indices if i not in pending.delivered]
        if not todo:
            return
        over_budget = None
        for index in todo:
            pending.retries[index] = pending.retries.get(index, 0) + 1
            if pending.retries[index] > DEFAULT_CHUNK_RETRY_BUDGET and \
                    over_budget is None:
                over_budget = index
        self._m_retries.inc(len(todo), model=self._model_label)
        if over_budget is not None:
            pending.fail(
                f"chunk {over_budget} exceeded its retry budget of "
                f"{DEFAULT_CHUNK_RETRY_BUDGET} (poison chunk?); last "
                f"failure: {detail}")
            self._cancel(req_id)
            self._record_event("poison_chunk", request=req_id,
                               chunk=over_budget)
            return
        self._record_event("requeue", request=req_id, chunks=todo,
                           detail=detail)
        self._dispatch(req_id, pending, todo)

    def _run_respawns(self) -> None:
        now = _obs_clock.monotonic()
        for slot in self._slots:
            with self._lock:
                due = (not slot.retired and slot.respawn_at is not None
                       and now >= slot.respawn_at and slot.drained
                       and slot.reclaim_at is None)
            if not due:
                continue
            slot.respawn_at = None
            slot.incarnation += 1
            slot.restarts += 1
            try:
                self._spawn(slot)
                self._record_event("respawn", slot=slot.slot,
                                   incarnation=slot.incarnation)
                self._m_respawns.inc(model=self._model_label)
            except Exception as exc:
                with self._lock:
                    slot.dead = True
                    slot.drained = True
                    slot.boot_failures += 1
                self._record_event("respawn_failed", slot=slot.slot,
                                   detail=f"{type(exc).__name__}: {exc}")
                if slot.boot_failures >= DEFAULT_MAX_BOOT_FAILURES:
                    slot.retired = True
                else:
                    failures = slot.deaths + slot.boot_failures
                    slot.respawn_at = now + self._backoff.delay(
                        max(0, failures - 1))

    def _flush_backlog(self) -> None:
        """Re-dispatch tasks parked while no slot could accept work."""
        while True:
            with self._lock:
                if not self._backlog:
                    return
                if (self._pick_slot_locked() is None
                        and not self._takeover):
                    return
                req_id, indices = self._backlog.pop(0)
                pending = self._pending.get(req_id)
                cancelled = req_id in self._cancelled
            if pending is None or cancelled:
                continue
            self._dispatch(req_id, pending, list(indices))

    def _maybe_takeover(self) -> None:
        with self._lock:
            if self._crashed or self._closed:
                return
            if not all(slot.retired for slot in self._slots):
                return
            self._crashed = True
            self._takeover = True
            self._backlog.clear()  # covered by the undelivered drain
            pendings = dict(self._pending)
        self._record_event("crashed")
        # Last-resort drain: finish everything already dispatched but
        # undelivered, inline in the parent.  Undispatched chunks are
        # routed inline by _dispatch from here on.
        for req_id, pending in pendings.items():
            remaining = pending.undelivered()
            if not remaining:
                continue
            self._run_inline_task(pending.task_for(req_id, remaining))

    def _local(self):
        """The pool's own in-process copy of the model.

        A ``workers=0`` pool loads it at boot; a worker pool loads it on
        its first inline recovery.  ``_fallback_lock`` guards only this
        load: tasks then sample on the copy concurrently, each in its
        own thread.  Worker id ``self.workers`` is outside the slot
        range; by the sharded-seed contract the sampler identity never
        affects chunk content.
        """
        with self._fallback_lock:
            if self._local_model is None:
                self._local_model = load_model(
                    self.path).spawn_sampler(self.workers)
            return self._local_model

    def _run_inline_task(self, task: tuple) -> None:
        """Run one task in the calling thread, delivering to its pending.

        The one routine that runs work in the parent: every task of a
        ``workers=0`` pool, in the requesting thread, and a worker
        pool's takeover, in the supervisor's drain and in the requesting
        threads.  A failure fails the request as a worker's does; only
        a worker pool's takeover counts as an inline recovery.
        """
        req_id = task[1]
        with self._lock:
            pending = self._pending.get(req_id)
            cancelled = req_id in self._cancelled
        if self.workers:
            self._m_inline.inc(model=self._model_label)
        if pending is None or cancelled:
            return
        try:
            for index, payload, span in _run_task(
                    self._local(), task, {"worker": "inline"}):
                if self._closed:
                    return
                pending.stitch(index, span)
                self._m_chunks.inc(model=self._model_label,
                                   source="inline")
                pending.deliver(index, payload)
        except Exception as exc:
            pending.fail(f"{type(exc).__name__}: {exc}")
            self._cancel(req_id)

    def _cancel(self, req_id: int) -> None:
        """Mark a request dead so queued work for it is shed everywhere.

        Publishes the id to the shared ring (workers check it at task
        dispatch and between chunks) and scrubs it from every slot's
        claim ledger and the backlog so the supervisor stops recovering
        it.
        """
        ring = getattr(self, "_cancel_ring", None)
        if ring is not None:
            with ring.get_lock():
                cursor = ring[0]
                ring[1 + (cursor % _CANCEL_SLOTS)] = req_id
                ring[0] = cursor + 1
        with self._lock:
            self._cancelled.add(req_id)
            for slot in self._slots:
                slot.claims.pop(req_id, None)
            self._backlog = [(rid, idx) for rid, idx in self._backlog
                             if rid != req_id]

    # ------------------------------------------------------------------
    # Result receiver (event-driven over the per-slot result pipes)
    # ------------------------------------------------------------------
    def _receive_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                readers = {slot.result_r: slot for slot in self._slots
                           if slot.result_r is not None}
            ready = mp_connection.wait(
                list(readers) + [self._rwake_r], timeout=1.0)
            if self._rwake_r in ready:
                try:
                    while self._rwake_r.poll():
                        self._rwake_r.recv_bytes()
                except (EOFError, OSError):
                    pass  # repro-check: disable=RC006 -- wake pipe closed by close(); loop exits via _closed
            for reader, slot in readers.items():
                if slot.dead or reader in ready:
                    self._drain_reader(slot, reader)

    def _drain_reader(self, slot: _WorkerSlot, reader) -> None:
        """Read everything currently buffered on one result pipe.

        For a dead slot this empties the pipe and marks it ``drained``
        (the signal the supervisor waits for before requeueing the
        slot's claims — anything the worker managed to send before
        dying counts as delivered, not as work to redo).
        """
        broken = False
        try:
            while reader.poll():
                self._handle_message(slot, reader.recv())
        except (EOFError, OSError):
            broken = True
        except Exception as exc:
            # A worker killed mid-send leaves a truncated pickle; the
            # remaining pipe contents are unrecoverable, so record the
            # fact and fall through to the drained/reclaim path, which
            # re-executes whatever was lost.
            broken = True
            self._record_event("reader_corrupt", slot=slot.slot,
                               detail=f"{type(exc).__name__}: {exc}")
        if broken or slot.dead:
            with self._lock:
                if slot.result_r is reader:
                    slot.result_r = None
                    slot.drained = True
            try:
                reader.close()
            except OSError:
                pass  # repro-check: disable=RC006 -- double-close on teardown is harmless
            self._wake_supervisor()

    def _handle_message(self, slot: _WorkerSlot, message: tuple) -> None:
        tag = message[0]
        if tag == "ready":
            _, slot_id, meta = message
            with self._lock:
                slot.ready = True
                slot.boot_failures = 0
                slot.blas_threads = meta["blas_threads"]
            with self._boot_cond:
                self._boot_ready[slot_id] = meta
                self._boot_cond.notify_all()
            self._wake_supervisor()  # flush any backlog onto this slot
        elif tag == "boot_error":
            _, slot_id, text = message
            self._record_event("boot_error", slot=slot_id)
            with self._boot_cond:
                self._boot_errors.append(text)
                self._boot_cond.notify_all()
        elif tag == "claim":
            # The worker's ack that it owns these chunks.  The parent
            # staged the same entries at dispatch, so this is normally
            # a no-op merge; it exists so the ledger is confirmed on
            # the same ordered pipe that carries the chunks.
            _, _, req_id, indices = message
            with self._lock:
                if req_id not in self._cancelled:
                    slot.claims.setdefault(req_id, set()).update(indices)
        elif tag == "chunk":
            _, _, req_id, index, payload, span = message
            with self._lock:
                held = slot.claims.get(req_id)
                if held is not None:
                    held.discard(index)
                    if not held:
                        del slot.claims[req_id]
                slot.deaths = 0  # proof of useful work
                pending = self._pending.get(req_id)
            if pending is not None:
                # Stitch before delivering: once the chunk is visible
                # the request thread may finish and read the trace.
                pending.stitch(index, span)
                self._m_chunks.inc(model=self._model_label,
                                   source="worker")
                pending.deliver(index, payload)
        elif tag == "error":
            _, _, req_id, text = message
            with self._lock:
                slot.claims.pop(req_id, None)
                pending = self._pending.get(req_id)
            if pending is not None:
                pending.fail(text)
            # Shed this request's remaining queued chunks: without
            # this, other workers keep computing chunks nobody will
            # ever read.
            self._cancel(req_id)
        elif tag == "skip":
            _, _, req_id = message
            with self._lock:
                slot.claims.pop(req_id, None)
            self._m_stale.inc(model=self._model_label)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and fail any pending request."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
        for request in pending:
            request.abandon()
        if self.workers == 0:
            return
        with self._boot_cond:  # wake any thread still in _await_boot
            self._boot_cond.notify_all()
        self._wake_supervisor()
        self._wake_receiver()
        for slot in self._slots:
            if slot.task_w is not None and not slot.dead:
                try:
                    slot.task_w.send(None)
                except (OSError, ValueError, BrokenPipeError):
                    pass  # repro-check: disable=RC006 -- worker already gone; terminate below covers it
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for thread_name in ("_receiver", "_supervisor"):
            thread = getattr(self, thread_name, None)
            if (thread is not None
                    and thread is not threading.current_thread()):
                thread.join(timeout=5.0)
        for conn in itertools.chain(
                (slot.task_w for slot in self._slots),
                (slot.result_r for slot in self._slots),
                (self._swake_r, self._swake_w,
                 self._rwake_r, self._rwake_w)):
            if conn is None:
                continue
            try:
                conn.close()
            except OSError:
                pass  # repro-check: disable=RC006 -- double-close on teardown is harmless

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort; explicit close() is the API
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def crashed(self) -> bool:
        """True once every worker slot is retired (pool needs replacing)."""
        return self._crashed

    @property
    def method(self) -> Optional[str]:
        return self._meta.get("method")  # type: ignore[return-value]

    @property
    def default_batch(self) -> Optional[int]:
        return self._meta.get("default_batch")  # type: ignore[return-value]

    @property
    def inflight(self) -> int:
        """Requests holding the pool through :meth:`retain` (the pin the
        service's idle-pool eviction reads).  A pool used without the
        service reads 0 here while it serves a request."""
        with self._lock:
            return self._inflight

    def status(self) -> Dict[str, object]:
        """Supervision snapshot for /healthz and GET /models/{name}.

        ``chunk_retries``, ``stale_dropped`` and ``inline_recoveries``
        are the registry's counts for this pool's model label.
        """
        label = self._model_label
        with self._lock:
            slots = [{
                "slot": slot.slot,
                "alive": (slot.process is not None and not slot.dead
                          and slot.process.is_alive()),
                "ready": slot.ready,
                "incarnation": slot.incarnation,
                "restarts": slot.restarts,
                "retired": slot.retired,
                "last_exit": slot.last_exit,
                "blas_threads": slot.blas_threads,
            } for slot in self._slots]
            return {
                "mode": "inline" if self.workers == 0 else "processes",
                "workers": self.workers,
                "alive": sum(1 for s in slots if s["alive"]),
                "restarts": sum(s["restarts"] for s in slots),
                "crashed": self._crashed,
                "closed": self._closed,
                "inflight": self._inflight,
                "chunk_retries": int(self._m_retries.value(model=label)),
                "stale_dropped": int(self._m_stale.value(model=label)),
                "inline_recoveries": int(
                    self._m_inline.value(model=label)),
                "events": list(self._events),
                "slots": slots,
            }

    def retain(self) -> "WorkerPool":
        """Pin the pool against idle eviction until :meth:`release`.

        The service layer retains a pool *before* handing it to a
        request so LRU eviction can never close it in the gap between
        lookup and first use.  Raises :class:`PoolClosed` if the pool
        already shut down or crashed (the caller then re-resolves).
        """
        with self._lock:
            if self._closed or self._crashed:
                raise PoolClosed(
                    f"pool for {self.path.name} is "
                    f"{'closed' if self._closed else 'crashed'}")
            self._inflight += 1
        self._m_inflight.inc(model=self._model_label)
        return self

    def release(self) -> None:
        """Undo one :meth:`retain`."""
        with self._lock:
            self._inflight -= 1
        self._m_inflight.dec(model=self._model_label)

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _begin(self, expected: int, kind: str, spec: tuple,
               trace=None) -> Tuple[int, _Pending]:
        with self._lock:
            if self._closed or self._crashed:
                raise PoolClosed(
                    f"pool for {self.path.name} is "
                    f"{'closed' if self._closed else 'crashed'}")
            req_id = next(self._ids)
            pending = _Pending(expected, kind, spec, trace=trace)
            self._pending[req_id] = pending
        return req_id, pending

    def _end(self, req_id: int) -> None:
        with self._lock:
            pending = self._pending.pop(req_id, None)
        if pending is None:
            return
        with pending.cond:
            unfinished = (pending.error is not None
                          or len(pending.delivered) < pending.expected)
        if unfinished:
            # Abandoned mid-flight (error, timeout, dropped stream):
            # shed whatever is still queued for it.
            self._cancel(req_id)
        with self._lock:
            self._cancelled.discard(req_id)

    def _pick_slot_locked(self) -> Optional[_WorkerSlot]:
        """Least-loaded ready slot (caller holds _lock).

        A respawned slot only becomes eligible once it reports ready:
        dispatching into a still-booting pipe would charge the chunk's
        retry budget for every boot failure, misreading a crash-looping
        *worker* as a poison *chunk*.  Work waits in the backlog
        instead; the supervisor flushes it on the ready ack.
        """
        eligible = [slot for slot in self._slots
                    if slot.task_w is not None and slot.ready
                    and not slot.dead and not slot.retired]
        if not eligible:
            return None
        return min(eligible, key=_WorkerSlot.outstanding)

    def _dispatch(self, req_id: int, pending: _Pending,
                  indices: List[int]) -> None:
        """Route chunk indices to a worker, the backlog, or inline (a
        takeover runs the task before this returns)."""
        task = pending.task_for(req_id, indices)
        self._m_dispatch.inc(len(indices), model=self._model_label)
        with self._lock:
            pending.dispatched.update(indices)
            if self._takeover:
                target = "inline"
            else:
                slot = self._pick_slot_locked()
                if slot is None:
                    # Every slot is mid-respawn: park the work; the
                    # supervisor re-dispatches as soon as a slot is
                    # back (or the pool crashes and drains inline).
                    self._backlog.append((req_id, tuple(indices)))
                    return
                slot.claims.setdefault(req_id, set()).update(indices)
                conn = slot.task_w
                target = "worker"
        if target == "inline":
            self._run_inline_task(task)
            return
        try:
            conn.send(task)
        except (OSError, ValueError, BrokenPipeError):
            # The slot died between pick and send; its ledger entry
            # stands, so the death path requeues these chunks.
            self._record_event("dispatch_failed", request=req_id)

    def _deadline(self, timeout: Optional[float]) -> Optional[float]:
        timeout = self.request_timeout if timeout is None else timeout
        return None if timeout is None else _obs_clock.monotonic() + timeout

    # ------------------------------------------------------------------
    # Table requests (sharded)
    # ------------------------------------------------------------------
    def _table_plan(self, n: int, batch: Optional[int]
                    ) -> Tuple[int, List[Tuple[int, int, int]]]:
        if self.kind != KIND_TABLE:
            raise ServingError(
                f"model {self.path.name!r} is a database; use "
                "sample_database()")
        if batch is None:
            batch = self._meta.get("default_batch") or 4096
        return batch, chunk_plan(n, batch)

    def sample(self, n: int, batch: Optional[int] = None,
               seed: Optional[int] = None,
               timeout: Optional[float] = None, trace=None) -> Table:
        """Sharded ``sample(n)``, bit-identical to the local call.

        Concatenates, in chunk order, the stream :meth:`sample_iter`
        yields, so the result equals ``load_model(path).sample(n,
        batch=batch, seed=seed)`` exactly.  Unseeded requests get a
        fresh request seed (reported by the service layer) so they
        shard the same way.  ``timeout`` bounds each chunk wait, as it
        does for the stream, not the whole request.

        Called inside :func:`repro.serve.encoding.encoded_at_source`,
        the table also carries its whole encoding, joined from the
        bytes each chunk was given where it was generated.

        ``trace`` (a :class:`repro.obs.Trace`) collects one span per
        chunk, timed in the worker that generated it and shipped back
        on the result pipes; chunks re-executed after a worker death
        appear as retry spans.
        """
        return encoding.join(list(self._stream(n, batch, seed, timeout,
                                               trace)))

    def sample_iter(self, n: int, batch: Optional[int] = None,
                    seed: Optional[int] = None,
                    timeout: Optional[float] = None,
                    trace=None) -> Iterator[Table]:
        """Stream the sharded request's chunks in order as they land.

        Requests are **flow-controlled**: one task per chunk, dispatched
        to the least-loaded worker in a sliding window ahead of the
        consumer, so a slow reader (e.g. an HTTP client on a thin pipe)
        bounds the chunks buffered in the parent instead of letting the
        workers race ahead and re-materialize the whole table in memory.
        Called inside :func:`repro.serve.encoding.encoded_at_source`,
        each chunk also carries its encoding in the context's wire
        format, made where it was generated.

        ``timeout`` bounds each chunk wait: a chunk that takes longer
        fails the stream with :class:`RequestTimeout`, while a stream
        that keeps delivering chunks runs as long as its consumer reads.
        """
        return self._stream(n, batch, seed, timeout, trace)

    def _stream(self, n: int, batch: Optional[int], seed: Optional[int],
                timeout: Optional[float], trace) -> Iterator[Table]:
        # sample() reaches the stream here, never through the public
        # sample_iter(), so a wrapper around either method sees each
        # request once.  The arguments are checked here, at the call;
        # the request starts on the first next().
        n = _count("n", n, minimum=1)
        batch, plan = self._table_plan(n, batch)
        spec = (n, batch, _request_seed(seed), encoding.wire_at_source())
        return self._windowed(spec, len(plan), timeout, trace)

    def _windowed(self, spec: tuple, n_chunks: int,
                  timeout: Optional[float], trace) -> Iterator[Table]:
        req_id, pending = self._begin(expected=n_chunks, kind="chunks",
                                      spec=spec, trace=trace)
        try:
            # One task per chunk, dispatched a bounded window ahead of
            # the consumer, so parent-side buffering never exceeds
            # ~window chunks however slow the reader is.  In takeover
            # each dispatch runs its chunk before returning, so a pool
            # without worker slots keeps a window of one: its stream
            # yields its first chunk after generating two.
            window = max(2 * self.workers, 4) if self.workers else 1
            submitted = min(window, n_chunks)
            for index in range(submitted):
                self._dispatch(req_id, pending, [index])
            for index in range(n_chunks):
                chunk = pending.wait_index(index, self._deadline(timeout))
                if submitted < n_chunks:
                    self._dispatch(req_id, pending, [submitted])
                    submitted += 1
                yield chunk
        finally:
            self._end(req_id)

    # ------------------------------------------------------------------
    # Database requests (whole-request parallelism)
    # ------------------------------------------------------------------
    def sample_database(self, scale: float = 1.0, *,
                        sizes: Optional[Dict[str, int]] = None,
                        batch: Optional[int] = None,
                        seed: Optional[int] = None,
                        timeout: Optional[float] = None):
        """Run one database draw on a worker; returns a ``Database``.

        ``scale``, ``sizes`` (root tables only, read from the save at
        boot with their real row counts), ``batch`` and ``seed`` are
        checked here, before dispatch, so a bad value raises
        :class:`ValueError` at any worker count; so does a ``scale``
        that gives a root table not named in ``sizes`` a row count that
        is not finite or not below ``2**63``.  ``timeout`` bounds the
        wait for the draw.
        """
        if self.kind != KIND_DATABASE:
            raise ServingError(
                f"model {self.path.name!r} is a single table; use "
                "sample()")
        from ..relational.synthesizer import check_draw_arguments

        scale, sizes = check_draw_arguments(scale, sizes, self._root_rows)
        if batch is not None:
            _count("batch", batch, minimum=1)
        seed = _request_seed(seed)
        req_id, pending = self._begin(expected=1, kind="database",
                                      spec=(scale, sizes, batch, seed))
        try:
            self._dispatch(req_id, pending, [0])
            return pending.wait_index(0, self._deadline(timeout))
        finally:
            self._end(req_id)
