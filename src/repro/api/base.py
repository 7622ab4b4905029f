"""The unified synthesizer lifecycle (paper Figure 2, method-agnostic).

Every synthesis method family — GAN design points, the VAE baseline,
PrivBayes — implements the same contract:

* ``fit(table, callbacks=...)``     Phase I + II (transform, train);
* ``partial_fit(chunk)`` / ``fit_stream(source)``  streaming / online
  fitting for families with ``supports_partial_fit`` (out-of-core
  ingestion; the model refreshes lazily on the next sample);
* ``sample(n, batch=..., seed=...)``  Phase III, optionally reproducible;
* ``sample_iter(n, ...)``           streaming generation in table chunks;
* ``fit_sample(table, ...)``        the two phases in one call;
* ``save(path)`` / ``load(path)``   persistence: JSON metadata (config,
  fitted transformer state, engine dtype) plus ``.npz`` arrays via
  :mod:`repro.nn.serialization`.

A synthesizer samples in the engine dtype it was fitted in, not the
process default: every chunk runs inside that dtype's thread-local
:func:`repro.nn.default_dtype` scope, so a seeded draw is the same in
the fitting process, after ``load`` in a process of either default
dtype, and in a serving worker.

Subclasses implement the small hook surface at the bottom of
:class:`Synthesizer` (``_fit``, ``_sample_chunk``, ``_state``,
``_load_state``); everything user-facing lives here, so benchmarks,
the :func:`repro.synthesize` facade, and future services can treat all
families interchangeably.
"""

from __future__ import annotations

import contextlib
import json
import math
import pathlib
import threading
from typing import (
    Any, Callable, ClassVar, Dict, Iterator, List, Optional, Sequence,
    Tuple, Union,
)

import numpy as np

from ..check.lockorder import make_lock
from ..check.sanitize import deterministic_scope
from ..datasets.schema import Table
from ..errors import ConfigError, StreamError, TrainingError
from ..nn.serialization import load_state, save_state
from ..nn.tensor import SUPPORTED_DTYPES, default_dtype, get_default_dtype
from .seeding import fresh_seed, substream

PathLike = Union[str, pathlib.Path]
Callback = Callable[[Any], None]

#: Identifies the on-disk persistence layout written by :meth:`Synthesizer.save`.
FORMAT_NAME = "repro-synthesizer"
FORMAT_VERSION = 1

_META_FILE = "synthesizer.json"
_ARRAYS_FILE = "arrays.npz"


def _count(name: str, value, minimum: int) -> int:
    """Validate an integer count argument, naming it in the error.

    Rejects non-integers (including bools and floats) and values below
    ``minimum`` with a :class:`ValueError` that names the offending
    argument — the serving layer and ``sample_iter`` both route their
    row-count / chunk-size validation through here so a bad request
    fails at the boundary instead of as an opaque downstream error.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(
            f"{name} must be an int, got {value!r} "
            f"(type {type(value).__name__})")
    if value < minimum:
        bound = "positive" if minimum >= 1 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


def _request_seed(seed) -> int:
    """The seed a request draws on: ``seed`` checked as a count (an int
    of at least 0), or :func:`~repro.api.seeding.fresh_seed` when
    ``None``.  The serving layer resolves it before dispatch, so a bad
    seed fails at the boundary at any worker count."""
    return fresh_seed() if seed is None else _count("seed", seed, minimum=0)


def _scale(value) -> float:
    """Validate a database draw's ``scale``: a finite number above 0."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError(f"scale must be a number, got {value!r}")
    try:
        scale = float(value)
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale) or scale <= 0:
        raise ValueError(f"scale must be positive and finite, got {value}")
    return scale


def _sizes(value, roots: Optional[Sequence[str]] = None) -> Dict[str, int]:
    """Validate a database draw's ``sizes``: an object of table name ->
    rows, each an int of at least 0 (``None`` is no override).

    With ``roots`` (the database's tables without a foreign key), every
    name must be one of them: any other table takes its row count from
    its parents' cardinality draws, so a size for it, or for a name that
    is no table, would be silently ignored.
    """
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(
            f"sizes must be an object of table -> rows, got {value!r}")
    for table in value:
        if roots is not None and table not in roots:
            raise ValueError(
                f"sizes[{table!r}] names no root table of this database "
                f"(root tables: {', '.join(roots)})")
    return {table: _count(f"sizes[{table!r}]", rows, minimum=0)
            for table, rows in value.items()}


def chunk_plan(n: int, batch: int) -> List[Tuple[int, int, int]]:
    """The chunk decomposition of a seeded ``n``-row stream.

    Returns ``[(index, offset, size), ...]`` covering rows ``[0, n)`` in
    ``batch``-sized chunks (the last one possibly smaller).  Under the
    sharded-seed contract this plan — not the executing process — defines
    the random stream: chunk ``index`` is always generated from the
    substream ``(seed, "chunk", index)``, so any subset of chunks can be
    computed anywhere and reassembled bit-identically.
    """
    n = _count("n", n, minimum=0)
    batch = _count("batch", batch, minimum=1)
    return [(i, i * batch, min(batch, n - i * batch))
            for i in range((n + batch - 1) // batch)]


def _as_callback_list(callbacks) -> List[Callback]:
    if callbacks is None:
        return []
    if callable(callbacks):
        return [callbacks]
    return [cb for cb in callbacks if cb is not None]


_STREAM_ROWS_COUNTER = None


def _note_stream_rows(method: Optional[str], rows: int) -> None:
    """Count ingested rows in the process metrics registry.

    Module-level and lazy on purpose: synthesizers must stay picklable
    (worker pools ship them), so the instrument is never stored on the
    object, and importing the api does not import ``repro.obs``.
    """
    global _STREAM_ROWS_COUNTER
    if _STREAM_ROWS_COUNTER is None:
        from ..obs.metrics import get_registry

        _STREAM_ROWS_COUNTER = get_registry().counter(
            "repro_stream_rows_ingested_total",
            "Rows ingested through partial_fit / fit_stream.",
            labelnames=("method",))
    _STREAM_ROWS_COUNTER.inc(rows, method=method or "unknown")


class Synthesizer:
    """Abstract base class for all relational data synthesizers.

    Subclasses register under a string key with
    :func:`repro.api.register`, which also sets :attr:`method` so saved
    models can be re-instantiated by name.
    """

    #: Registry key (set by the ``@register`` decorator).
    method: ClassVar[Optional[str]] = None
    #: Default generation chunk size when ``batch`` is not given.
    default_sample_batch: ClassVar[int] = 256
    #: True for families that accept explicit per-row ``conditions=``
    #: in ``fit`` / ``sample`` / ``sample_iter`` (currently the GAN
    #: family: label codes or arbitrary context matrices).
    supports_conditioning: ClassVar[bool] = False
    #: True for families implementing the streaming hooks
    #: (``partial_fit`` / ``finalize_stream`` / ``fit_stream``).
    supports_partial_fit: ClassVar[bool] = False
    #: Default ingestion chunk size when ``fit_stream`` is not given
    #: ``chunk_rows``.
    default_stream_chunk: ClassVar[int] = 4096

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self._fitted = False
        self._active_snapshot: Optional[int] = None
        self._sampling_depth = 0
        self._sampling_generation = 0
        self._session_lock = make_lock("synthesizer.session")
        self._eval_pinned = False
        self._stream_dirty = False
        self._stream_rows = 0
        self._stream_chunks = 0
        # The engine dtype the model is fitted in; sampling runs in it.
        self._dtype = get_default_dtype()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def _require_fitted(self) -> None:
        # A dirty stream (chunks ingested since the last finalize) is
        # sealed lazily: the first sample after a burst of partial_fit
        # calls performs the hot refresh implicitly.
        if self._stream_dirty:
            self.finalize_stream()
        if not self._fitted:
            raise TrainingError("synthesizer is not fitted")

    def _check_conditions(self, conditions, n: int, what: str):
        """Validate an explicit per-row conditioning input of length ``n``.

        Returns ``None`` untouched; otherwise coerces to an ndarray and
        enforces the family's support and the row count, so a mismatched
        conditions vector fails loudly instead of silently recycling.
        """
        if conditions is None:
            return None
        if not self.supports_conditioning:
            raise ConfigError(
                f"{type(self).__name__} does not support explicit "
                f"conditions in {what}")
        conditions = np.asarray(conditions)
        if len(conditions) != n:
            raise ValueError(
                f"conditions must have one row per record: got "
                f"{len(conditions)} for n={n}")
        return conditions

    def fit(self, table: Table, callbacks=None, conditions=None
            ) -> "Synthesizer":
        """Transform ``table`` and train the generative model.

        ``callbacks`` is a callable or sequence of callables invoked with
        per-epoch progress records (family-specific payloads; GAN passes
        :class:`~repro.gan.training.EpochRecord`).  ``conditions``
        optionally supplies one conditioning row per training record
        (families with :attr:`supports_conditioning`; the relational
        subsystem passes parent-context matrices here).
        """
        conditions = self._check_conditions(conditions, len(table), "fit")
        self._begin_clean_fit()
        self._fit(table, _as_callback_list(callbacks), conditions=conditions)
        self._fitted = True
        return self

    def _begin_clean_fit(self) -> None:
        """Shared preamble of ``fit`` and ``fit_stream``.

        Refitting rebuilds models, so any sampling session opened
        before the refit is void: reset the depth counter and bump the
        generation token so stale streams can no longer unwind it.
        Pending stream state is discarded and the family's
        :meth:`_reset_fit_state` hook clears per-fit derived state
        (discretizers, label frequencies, ...) so a re-fit never reuses
        statistics from the previous table — the clean-refit contract.
        """
        with self._session_lock:
            self._sampling_depth = 0
            self._sampling_generation += 1
        self._stream_dirty = False
        self._stream_rows = 0
        self._stream_chunks = 0
        self._dtype = get_default_dtype()
        self._reset_fit_state()

    # ------------------------------------------------------------------
    # Streaming / online fitting
    # ------------------------------------------------------------------
    def partial_fit(self, table: Table) -> "Synthesizer":
        """Absorb one table chunk of an ongoing stream.

        Only families with :attr:`supports_partial_fit` implement this.
        Ingestion is cheap (counts, running statistics, reservoir
        updates); the model itself is re-estimated by
        :meth:`finalize_stream` — which the next ``sample`` triggers
        automatically, so ``partial_fit`` + ``sample`` behaves as a hot
        refresh.
        """
        if not self.supports_partial_fit:
            raise ConfigError(
                f"{type(self).__name__} does not support partial_fit")
        if len(table) == 0:
            return self
        # The refreshed model invalidates open sampling sessions just
        # like a refit does.
        with self._session_lock:
            self._sampling_depth = 0
            self._sampling_generation += 1
        self._partial_fit(table)
        self._stream_dirty = True
        self._stream_rows += len(table)
        self._stream_chunks += 1
        _note_stream_rows(self.method, len(table))
        return self

    def finalize_stream(self) -> "Synthesizer":
        """Re-estimate the model from everything ingested so far.

        No-op when no chunks are pending.  On failure (e.g. a
        :class:`~repro.errors.PrivacyBudgetError` from an exhausted DP
        budget) the pending state is kept dirty, so retrying — or the
        next implicit finalize — raises again instead of silently
        sampling a half-updated model.
        """
        if not self._stream_dirty:
            if not self._fitted and self._stream_chunks == 0:
                raise TrainingError(
                    "no stream chunks ingested: call partial_fit or "
                    "fit_stream first")
            return self
        with self._session_lock:
            self._sampling_depth = 0
            self._sampling_generation += 1
        self._stream_dirty = False
        try:
            self._finalize_partial()
        except Exception:
            self._stream_dirty = True
            raise
        self._dtype = get_default_dtype()
        self._fitted = True
        return self

    def fit_stream(self, source, chunk_rows: Optional[int] = None,
                   schema=None, callbacks=None) -> "Synthesizer":
        """Fit out-of-core: ingest ``source`` chunk by chunk, then finalize.

        ``source`` is anything :func:`repro.stream.ingest.as_chunk_source`
        accepts — a :class:`Table`, a CSV path, an iterable of table
        chunks, or a zero-argument callable returning one.  Re-iterable
        sources additionally run the family's :meth:`_stream_prepass`
        (e.g. PrivBayes fixes global discretization ranges first, which
        is what makes ``fit_stream`` over k chunks reproduce the
        one-shot ``fit`` exactly).  ``callbacks`` receive one
        ``{"stage": "ingest", ...}`` record per chunk.
        """
        from ..stream.ingest import as_chunk_source

        if not self.supports_partial_fit:
            raise ConfigError(
                f"{type(self).__name__} does not support fit_stream")
        chunk_rows = chunk_rows if chunk_rows is not None \
            else self.default_stream_chunk
        chunk_source = as_chunk_source(source, chunk_rows=chunk_rows,
                                       schema=schema)
        callbacks = _as_callback_list(callbacks)
        self._begin_clean_fit()
        if chunk_source.reiterable:
            self._stream_prepass(chunk_source)
        for chunk in chunk_source.chunks():
            # Guarded per chunk (chunk *reading* happens outside, in the
            # for statement): streamed fits must draw only from their
            # seeded generators to reproduce the one-shot fit exactly.
            with deterministic_scope():
                self.partial_fit(chunk)
            for callback in callbacks:
                callback({"stage": "ingest", "chunk": self._stream_chunks - 1,
                          "rows": len(chunk),
                          "total_rows": self._stream_rows})
        if self._stream_chunks == 0:
            raise StreamError("stream source produced no chunks")
        with deterministic_scope():
            return self.finalize_stream()

    @property
    def stream_rows(self) -> int:
        """Rows ingested through the streaming path since the last reset."""
        return self._stream_rows

    def privacy_spent(self) -> Optional[float]:
        """Cumulative DP epsilon spent across fits and stream refreshes.

        ``None`` for families without differential-privacy accounting.
        """
        return None

    def sample_iter(self, n: int, batch: Optional[int] = None,
                    seed: Optional[int] = None,
                    conditions=None) -> Iterator[Table]:
        """Stream ``n`` synthetic records as a sequence of table chunks.

        With ``seed`` given the stream is reproducible and independent
        of the synthesizer's internal generator state, under the
        **sharded-seed contract**: chunk ``i`` of the :func:`chunk_plan`
        is generated from the keyed substream ``(seed, "chunk", i)``, so
        the stream for a given ``(n, batch, seed)`` is bit-identical no
        matter which process — or how many :mod:`repro.serve` workers —
        computes its chunks.  With ``seed=None`` the stream seed is one
        draw from the synthesizer's own generator
        (``int(self.rng.integers(0, 2**63))``, taken at the call), so an
        unseeded stream is the seeded stream of that seed and two
        unseeded calls differ.  Each chunk runs in the model's engine
        dtype (the dtype it was fitted or saved in), scoped to the
        calling thread around that chunk only, so the consumer's code
        between chunks sees its own dtype.  The whole stream runs
        inside one :meth:`_sampling_session`, so per-stream setup
        (e.g. switching models to eval mode) happens once rather than
        per chunk.  ``conditions`` supplies one explicit conditioning
        row per requested record (label codes or a context matrix,
        family-dependent); chunks receive the matching slice.
        """
        self._require_fitted()
        n = _count("n", n, minimum=0)
        batch = batch if batch is not None else self.default_sample_batch
        batch = _count("batch", batch, minimum=1)
        conditions = self._check_conditions(conditions, n, "sample_iter")
        if seed is None:
            seed = int(self.rng.integers(0, 2 ** 63))
        return (chunk for _, chunk in self._iter_chunks(
            chunk_plan(n, batch), seed, conditions))

    def sample_chunks(self, n: int, batch: Optional[int] = None,
                      seed: Optional[int] = None,
                      indices: Optional[Sequence[int]] = None,
                      conditions=None) -> Iterator[Tuple[int, Table]]:
        """Generate selected chunks of a seeded stream as ``(index, table)``.

        This is the worker-side entry point of the sharded-seed
        contract: ``indices`` names which chunks of ``chunk_plan(n,
        batch)`` to produce (default: all of them, making this
        ``enumerate(sample_iter(...))``).  Each chunk's substream
        depends only on ``(seed, index)``, so disjoint index sets
        computed by different processes concatenate — in index order —
        to exactly ``sample(n, batch=batch, seed=seed)``.  All requested
        chunks run inside one sampling session.
        """
        self._require_fitted()
        if seed is None:
            raise ValueError(
                "sample_chunks requires seed: the sharded-seed contract "
                "keys every chunk's substream off it")
        plan = chunk_plan(n, batch if batch is not None
                          else self.default_sample_batch)
        conditions = self._check_conditions(conditions, n, "sample_chunks")
        if indices is not None:
            for index in indices:
                _count("chunk index", index, minimum=0)
                if index >= len(plan):
                    raise ValueError(
                        f"chunk index {index} out of range: the plan for "
                        f"n={n} has {len(plan)} chunks")
            plan = [plan[int(index)] for index in indices]
        return self._iter_chunks(plan, seed, conditions)

    def _iter_chunks(self, plan, seed: int, conditions
                     ) -> Iterator[Tuple[int, Table]]:
        with self._sampling_session():
            for index, offset, m in plan:
                rng = substream(seed, "chunk", index)
                chunk_conditions = None
                if conditions is not None:
                    chunk_conditions = conditions[offset:offset + m]
                # The guard and the dtype scope cover one chunk at a
                # time (not consumer code between yields): any hidden
                # np.random global-state draw inside _sample_chunk
                # breaks bit-identity.
                with deterministic_scope(), self._dtype_scope():
                    chunk = self._sample_chunk(
                        m, rng, conditions=chunk_conditions)
                yield index, chunk

    def spawn_sampler(self, worker_id: int = 0) -> "Synthesizer":
        """Prepare this instance to sample inside an independent worker.

        Called once per :mod:`repro.serve` worker process on its own
        copy of the model (loaded after ``fork``/``spawn``).  It voids
        any sampling session inherited from the parent, replaces the
        session lock (a forked lock may be held by a thread that does
        not exist in the child), re-derives the internal generator on a
        worker-keyed substream so *unseeded* requests never collide
        across workers, and pins eval mode — a serving worker only ever
        samples, so flipping the module tree back to training mode
        between requests is pure overhead.  Returns ``self``.
        """
        self._require_fitted()
        worker_id = _count("worker_id", worker_id, minimum=0)
        self._session_lock = make_lock("synthesizer.session")
        self._sampling_depth = 0
        self._sampling_generation += 1
        self._eval_pinned = True
        self.rng = substream(self.seed, "worker", worker_id)
        return self

    def sample(self, n: int, batch: Optional[int] = None,
               seed: Optional[int] = None, conditions=None) -> Table:
        """Generate a synthetic table of ``n`` records.

        Passing ``seed`` makes repeated calls after the same ``fit``
        return identical tables (reproducible sampling); without it the
        draw is the seeded draw of a seed taken from ``self.rng`` (see
        :meth:`sample_iter`).  ``conditions`` fixes the per-row
        conditioning inputs instead of drawing them from the training
        marginal.
        """
        self._require_fitted()
        n = _count("n", n, minimum=1)
        chunks = list(self.sample_iter(n, batch=batch, seed=seed,
                                       conditions=conditions))
        return chunks[0].concat_rows(*chunks[1:])

    def fit_sample(self, table: Table, n: Optional[int] = None,
                   callbacks=None, batch: Optional[int] = None,
                   seed: Optional[int] = None) -> Table:
        """``fit`` then ``sample`` (``n`` defaults to ``len(table)``)."""
        self.fit(table, callbacks=callbacks)
        return self.sample(n if n is not None else len(table),
                           batch=batch, seed=seed)

    def _dtype_scope(self):
        """The model's engine dtype, scoped to the calling thread.

        Entered around each sampling chunk, never across a ``yield``.
        """
        return default_dtype(self._dtype)

    # ------------------------------------------------------------------
    # Optional capabilities (used by the facade's model selection)
    # ------------------------------------------------------------------
    @property
    def supports_snapshots(self) -> bool:
        """True when per-epoch snapshots are available for selection."""
        return False

    @property
    def snapshots(self) -> List[Optional[Dict[str, np.ndarray]]]:
        """Per-epoch model state dicts (``None`` for unsnapshotted
        epochs); families that support snapshots override this."""
        raise TrainingError(
            f"{type(self).__name__} does not expose snapshots")

    def _snapshot_module(self):
        """The module :meth:`use_snapshot` restores state into."""
        raise NotImplementedError

    def use_snapshot(self, index: int) -> None:
        """Activate the model snapshot taken after epoch ``index``."""
        snapshots = self.snapshots
        if not -len(snapshots) <= index < len(snapshots):
            raise IndexError(f"no snapshot {index}")
        state = snapshots[index]
        if state is None:
            raise TrainingError(
                f"epoch {index % len(snapshots)} was not snapshotted; "
                "fit with keep_snapshots=True to enable selection")
        self._snapshot_module().load_state_dict(state)
        self._active_snapshot = index % len(snapshots)

    @property
    def active_snapshot(self) -> Optional[int]:
        return self._active_snapshot

    def training_curves(self) -> Dict[str, List[float]]:
        """Named per-epoch diagnostic series collected during ``fit``."""
        return {}

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> pathlib.Path:
        """Persist the fitted synthesizer into directory ``path``.

        Layout: ``synthesizer.json`` (method name, engine ``dtype``,
        constructor params, fitted transformer / structure state) and
        ``arrays.npz`` (model parameters via
        :mod:`repro.nn.serialization`).
        """
        self._require_fitted()
        if self.method is None:
            raise ConfigError(
                f"{type(self).__name__} is not registered; only registered "
                "synthesizers can be saved")
        path = pathlib.Path(path)
        path.mkdir(parents=True, exist_ok=True)
        meta, arrays = self._state()
        document = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "method": self.method,
            "dtype": np.dtype(self._dtype).name,
            "state": meta,
        }
        (path / _META_FILE).write_text(json.dumps(document, indent=2))
        save_state(path / _ARRAYS_FILE, dict(arrays))
        return path

    @classmethod
    def load(cls, path: PathLike) -> "Synthesizer":
        """Restore a synthesizer saved with :meth:`save`.

        Called on the base class it dispatches on the saved method name
        through the registry; called on a subclass it additionally
        verifies the saved method matches.  The model is rebuilt, and
        later sampled, in the saved engine ``dtype``; a save without the
        field samples in float64.
        """
        path = pathlib.Path(path)
        meta_path = path / _META_FILE
        if not meta_path.exists():
            raise ConfigError(f"no saved synthesizer at {path}")
        document = json.loads(meta_path.read_text())
        if document.get("format") != FORMAT_NAME:
            raise ConfigError(f"{meta_path} is not a saved synthesizer")
        if document.get("version") != FORMAT_VERSION:
            raise ConfigError(
                f"unsupported synthesizer format version "
                f"{document.get('version')!r}")
        from .registry import resolve

        klass = resolve(document["method"])
        if cls is not Synthesizer and not issubclass(klass, cls):
            raise ConfigError(
                f"saved synthesizer has method {document['method']!r}, "
                f"not a {cls.__name__}")
        dtype = document.get("dtype", "float64")
        if dtype not in [np.dtype(d).name for d in SUPPORTED_DTYPES]:
            raise ConfigError(f"unsupported saved engine dtype {dtype!r}")
        arrays = load_state(path / _ARRAYS_FILE)
        state = document["state"]
        with default_dtype(dtype):
            instance = klass(**klass._init_kwargs_from_state(
                state["params"]))
            instance._load_state(state, arrays)
        instance._fitted = True
        return instance

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _fit(self, table: Table, callbacks: List[Callback],
             conditions=None) -> None:
        raise NotImplementedError

    def _sample_chunk(self, m: int, rng: np.random.Generator,
                      conditions=None) -> Table:
        """Generate one chunk of ``m`` records using ``rng``.

        ``conditions`` (families with :attr:`supports_conditioning`
        only) holds the explicit conditioning rows for this chunk; it is
        ``None`` when the caller wants the family's marginal draw.
        """
        raise NotImplementedError

    def _partial_fit(self, table: Table) -> None:
        """Ingest one non-empty stream chunk (statistics only).

        Families with :attr:`supports_partial_fit` accumulate whatever
        their :meth:`_finalize_partial` needs — additive counts,
        running transformer statistics, reservoir rows.  Must not
        consume ``self.rng`` on the count-exact families, so a streamed
        fit replays the one-shot RNG sequence bit-for-bit.
        """
        raise NotImplementedError

    def _finalize_partial(self) -> None:
        """Re-estimate the model from the accumulated stream state."""
        raise NotImplementedError

    def _stream_prepass(self, chunk_source) -> None:
        """Optional pre-ingestion pass over a re-iterable chunk source.

        Runs before the first :meth:`_partial_fit` when the source can
        be traversed twice; families use it for global statistics that
        must be fixed up front (e.g. discretization ranges).  Default:
        no-op.
        """

    def _reset_fit_state(self) -> None:
        """Clear per-fit derived state before a clean refit.

        Called by ``fit`` and ``fit_stream`` before any data is seen.
        Families override this to drop state their ``_fit`` does not
        unconditionally rebuild (fitted discretizers, label
        frequencies, stream accumulators); lifetime records such as a
        privacy ledger deliberately survive.  Default: no-op.
        """

    def _sampling_session(self):
        """Context manager held open across one ``sample_iter`` stream.

        Subclasses hoist per-chunk bookkeeping here (eval/train mode
        flips, buffer setup); the default is a no-op.  The context must
        be re-entrant: nested streams may open sessions concurrently.
        Families backed by an ``nn.Module`` typically return
        ``self._eval_mode_session(self.<module>)``.
        """
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def _eval_mode_session(self, module):
        """Depth-counted eval/train session over ``module``.

        The eval/train flips walk the module tree; doing them once per
        stream instead of once per chunk matters for large streaming
        runs.  Depth counting keeps nested streams (e.g. snapshot
        scoring while another stream is open) in eval mode until the
        outermost one closes; the generation token voids sessions that
        were still open when a refit replaced the model.  The depth
        bookkeeping is lock-guarded so concurrent streams from serving
        threads interleave safely, and :meth:`spawn_sampler` can pin
        eval mode so worker processes skip the per-request train() walk.
        """
        with self._session_lock:
            token = self._sampling_generation
            self._sampling_depth += 1
            if self._sampling_depth == 1 and module.training:
                module.eval()
        try:
            yield
        finally:
            with self._session_lock:
                if token == self._sampling_generation:
                    self._sampling_depth -= 1
                    if self._sampling_depth == 0 and not self._eval_pinned:
                        module.train()

    def _state(self):
        """Return ``(meta, arrays)``: a JSON-serializable dict (must
        contain a ``"params"`` entry of constructor keyword arguments)
        and a flat ``{key: ndarray}`` mapping."""
        raise NotImplementedError

    def _load_state(self, state: Dict[str, Any],
                    arrays: Dict[str, np.ndarray]) -> None:
        """Restore fitted state produced by :meth:`_state`."""
        raise NotImplementedError

    @classmethod
    def _init_kwargs_from_state(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        """Convert saved constructor params back into keyword arguments
        (hook for families whose params are richer than JSON scalars)."""
        return dict(params)


def prefixed(prefix: str, state: Dict[str, np.ndarray]
             ) -> Dict[str, np.ndarray]:
    """Namespace a state dict's keys (``{prefix}::{key}``)."""
    return {f"{prefix}::{key}": value for key, value in state.items()}


def unprefixed(prefix: str, arrays: Dict[str, np.ndarray]
               ) -> Dict[str, np.ndarray]:
    """Extract and strip one namespace written by :func:`prefixed`."""
    tag = f"{prefix}::"
    return {key[len(tag):]: value for key, value in arrays.items()
            if key.startswith(tag)}


def load_synthesizer(path: PathLike) -> Synthesizer:
    """Load any saved synthesizer, dispatching on its registered method."""
    return Synthesizer.load(path)
