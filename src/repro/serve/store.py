"""Model store: persisted synthesizers by name, versioned, LRU-cached.

A store root is a directory of saved models, one subdirectory per
model name.  A model directory is either a bare save (legacy layout)
or a *versioned* directory of immutable releases with an ``ACTIVE``
pointer file naming the one being served::

    models/
      adult-gan/          # legacy: Synthesizer.save(...) directly
      adult-pb/
        v0001/            # one immutable release per publish
        v0002/
        ACTIVE            # contains "v0002"

:class:`ModelStore` resolves names through the ``ACTIVE`` pointer,
reads metadata without loading arrays, and lends out loaded models
through reference-counted :class:`ModelHandle`\\ s: checkout is
thread-safe, concurrent checkouts of the same name share one load, and
LRU eviction only ever drops models with no handle outstanding — an
in-flight request can never have its model evicted from under it.

:meth:`ModelStore.publish` is the hot-refresh primitive: it writes a
new version directory, swaps ``ACTIVE`` atomically (``os.replace``),
and detaches the cached old version.  Handles checked out before the
swap keep draining on the old model object — their reference counts
live on the detached cache entry, not the name — while every checkout
after the swap loads the new version.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..api.base import _ARRAYS_FILE, _META_FILE, PathLike, load_synthesizer
from ..check.lockorder import make_lock
from .errors import ModelNotFound, ServingError

#: Metadata file of a saved DatabaseSynthesizer directory (kept in sync
#: with repro.relational.synthesizer; imported lazily to avoid pulling
#: the relational stack into table-only services).
_DB_META_FILE = "database.json"

#: Model names are path components; keep them boring so a crafted name
#: can never escape the store root.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Version directories created by :meth:`ModelStore.publish`.
_VERSION_RE = re.compile(r"^v\d{4,}$")
_ACTIVE_FILE = "ACTIVE"

KIND_TABLE = "table"
KIND_DATABASE = "database"


@dataclass(frozen=True)
class ModelInfo:
    """One store entry's metadata (no arrays loaded)."""

    name: str
    path: pathlib.Path
    kind: str          # "table" | "database"
    method: str        # registered family ("gan", ..., "relational")
    version: Optional[str] = None   # active version; None for legacy saves


def model_kind(path: PathLike) -> Optional[str]:
    """The persistence layout found at ``path`` (``None`` if neither)."""
    path = pathlib.Path(path)
    if (path / _DB_META_FILE).exists():
        return KIND_DATABASE
    if (path / _META_FILE).exists():
        return KIND_TABLE
    return None


def model_name(path: PathLike) -> str:
    """The name a saved-model directory is served under: a published
    version (``<root>/<name>/v0001``) takes its parent's name."""
    path = pathlib.Path(path)
    return path.parent.name if _VERSION_RE.match(path.name) else path.name


def load_model(path: PathLike):
    """Load a saved model of either layout.

    Returns a :class:`repro.api.Synthesizer` for single-table saves and
    a :class:`repro.relational.DatabaseSynthesizer` for database saves.
    Worker processes call this on their own copy of the path, so it is
    deliberately a module function rather than a store method.
    """
    kind = model_kind(path)
    if kind == KIND_DATABASE:
        from ..relational.synthesizer import DatabaseSynthesizer

        return DatabaseSynthesizer.load(path)
    if kind == KIND_TABLE:
        return load_synthesizer(path)
    raise ModelNotFound(f"no saved synthesizer at {path}")


def read_model_info(name: str, path: PathLike,
                    version: Optional[str] = None) -> ModelInfo:
    """Read a saved model's metadata without loading its arrays."""
    path = pathlib.Path(path)
    kind = model_kind(path)
    if kind is None:
        raise ModelNotFound(f"no saved synthesizer at {path}")
    meta_file = _DB_META_FILE if kind == KIND_DATABASE else _META_FILE
    document = json.loads((path / meta_file).read_text())
    return ModelInfo(name=name, path=path, kind=kind,
                     method=str(document.get("method", "unknown")),
                     version=version)


class ModelHandle:
    """A checked-out model; release via ``with`` or :meth:`release`."""

    def __init__(self, store: "ModelStore", name: str, model, entry):
        self._store = store
        self.name = name
        self.model = model
        self._entry = entry
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            # The handle releases the entry it checked out — which may
            # have been detached from the cache by a publish since.
            # Keying the release by name alone would decrement whatever
            # *newer* version now sits under the name, corrupting both
            # counts.
            self._store._release(self.name, self._entry)

    def __enter__(self) -> "ModelHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class _Entry:
    __slots__ = ("model", "refs", "ready", "error")

    def __init__(self):
        self.model = None
        self.refs = 0
        self.ready = threading.Event()
        self.error: Optional[BaseException] = None


class ModelStore:
    """Name-addressed cache of loaded synthesizers.

    Parameters
    ----------
    root:
        Directory holding one saved model per subdirectory.
    capacity:
        Resident-model budget.  The ``capacity+1``-th distinct checkout
        evicts the least-recently-used model *with no outstanding
        handles*; busy models are skipped, so the cache can transiently
        exceed ``capacity`` under concurrent traffic rather than break
        an in-flight request.
    """

    def __init__(self, root: PathLike, capacity: int = 4):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.root = pathlib.Path(root)
        self.capacity = capacity
        self._lock = make_lock("store.cache")
        self._cache: "OrderedDict[str, _Entry]" = OrderedDict()
        self._info_cache: dict = {}

    def __getstate__(self):
        raise TypeError(
            "ModelStore is not picklable: it holds a cache lock and "
            "checkout refcounts that cannot cross a fork/pickle "
            "boundary; each process must open its own store")

    # ------------------------------------------------------------------
    # Catalogue
    # ------------------------------------------------------------------
    def _check_name(self, name: str) -> str:
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ModelNotFound(f"invalid model name {name!r}")
        return name

    def _resolve(self, name: str):
        """``(saved-model path, active version)`` for ``name``.

        A versioned directory resolves through its ``ACTIVE`` pointer;
        a bare save resolves to the model directory itself with version
        ``None``.
        """
        self._check_name(name)
        model_dir = self.root / name
        active = model_dir / _ACTIVE_FILE
        if active.is_file():
            version = active.read_text().strip()
            path = model_dir / version
            if not _VERSION_RE.match(version) or model_kind(path) is None:
                raise ServingError(
                    f"model {name!r} has a dangling ACTIVE pointer "
                    f"{version!r}")
            return path, version
        if model_kind(model_dir) is not None:
            return model_dir, None
        raise ModelNotFound(f"no model named {name!r} under {self.root}")

    def path(self, name: str) -> pathlib.Path:
        """Resolve ``name`` to its active saved-model directory."""
        return self._resolve(name)[0]

    def active_version(self, name: str) -> Optional[str]:
        """The version currently served (``None`` for legacy saves)."""
        return self._resolve(name)[1]

    def versions(self, name: str) -> List[str]:
        """All published versions of ``name``, oldest first."""
        self._check_name(name)
        model_dir = self.root / name
        if not model_dir.is_dir():
            raise ModelNotFound(
                f"no model named {name!r} under {self.root}")
        return sorted(child.name for child in model_dir.iterdir()
                      if child.is_dir() and _VERSION_RE.match(child.name)
                      and model_kind(child) is not None)

    def info(self, name: str) -> ModelInfo:
        """Metadata for one model, cached until the next publish.

        A version directory is immutable once published, so the
        kind/method/version never change under a cached entry —
        caching keeps per-request routing (the HTTP layer branches
        table-vs-database on every ``/sample``) off the disk.
        :meth:`publish` invalidates the entry when it swaps ``ACTIVE``.
        """
        with self._lock:
            cached = self._info_cache.get(name)
        if cached is not None:
            return cached
        path, version = self._resolve(name)
        info = read_model_info(name, path, version=version)
        with self._lock:
            self._info_cache[name] = info
        return info

    def list_models(self) -> List[ModelInfo]:
        """Metadata for every saved model under the root (sorted)."""
        if not self.root.is_dir():
            return []
        infos = []
        for child in sorted(self.root.iterdir()):
            if not child.is_dir():
                continue
            try:
                path, version = self._resolve(child.name)
            except (ModelNotFound, ServingError):
                continue
            infos.append(read_model_info(child.name, path, version=version))
        return infos

    def metadata(self, name: str) -> Dict[str, Dict[str, object]]:
        """Array shapes/dtypes of the active version, without data I/O.

        Streams only ``.npy`` headers out of the saved arrays (see
        :func:`repro.nn.serialization.state_manifest`), so listing a
        multi-gigabyte model version faults in no array pages.
        """
        from ..nn.serialization import state_manifest

        path = self.path(name)
        arrays = path / _ARRAYS_FILE
        if not arrays.exists():
            return {}
        return state_manifest(arrays)

    def cached_models(self) -> List[str]:
        """Names currently resident, least- to most-recently used."""
        with self._lock:
            return [name for name, entry in self._cache.items()
                    if entry.ready.is_set() and entry.error is None]

    # ------------------------------------------------------------------
    # Publish (hot refresh)
    # ------------------------------------------------------------------
    def publish(self, name: str, source) -> str:
        """Release a new version of ``name`` and make it active.

        ``source`` is either a directory containing a saved model or a
        live object with a ``save(path)`` method (a fitted
        synthesizer).  The new version directory is written first; only
        then is the ``ACTIVE`` pointer replaced atomically
        (``os.replace``), so a crash mid-publish leaves the old version
        serving.  Returns the new version string.

        In-flight checkouts of the old version are unaffected: the old
        cache entry is detached, its outstanding handles drain on their
        own reference counts, and the object is garbage-collected when
        the last one releases.
        """
        self._check_name(name)
        model_dir = self.root / name
        model_dir.mkdir(parents=True, exist_ok=True)
        with self._lock:
            existing = [int(child.name[1:]) for child in model_dir.iterdir()
                        if child.is_dir() and _VERSION_RE.match(child.name)]
            version = f"v{max(existing, default=0) + 1:04d}"
            target = model_dir / version
            # Claim the directory under the lock so concurrent
            # publishers of the same name pick distinct versions.
            target.mkdir()
        try:
            if hasattr(source, "save"):
                source.save(target)
            else:
                source_dir = pathlib.Path(source)
                if model_kind(source_dir) is None:
                    raise ServingError(
                        f"{source_dir} does not contain a saved model")
                shutil.copytree(source_dir, target, dirs_exist_ok=True)
            if model_kind(target) is None:
                raise ServingError(
                    f"publishing {name!r} produced no saved model in "
                    f"{target}")
        except Exception:
            shutil.rmtree(target, ignore_errors=True)
            raise
        tmp = model_dir / f".{_ACTIVE_FILE}.tmp"
        tmp.write_text(version)
        os.replace(tmp, model_dir / _ACTIVE_FILE)
        with self._lock:
            self._info_cache.pop(name, None)
            # Detach the old version's entry: outstanding handles keep
            # it (and their refcounts) alive; new checkouts re-load.
            self._cache.pop(name, None)
        return version

    # ------------------------------------------------------------------
    # Checkout
    # ------------------------------------------------------------------
    def checkout(self, name: str) -> ModelHandle:
        """Borrow the loaded model called ``name``.

        Thread-safe: concurrent checkouts share one load (late arrivals
        block until the loader finishes), and the handle's reference
        count pins the model against LRU eviction until released.
        """
        path = self.path(name)
        with self._lock:
            entry = self._cache.get(name)
            is_loader = entry is None
            if is_loader:
                entry = _Entry()
                self._cache[name] = entry
            else:
                self._cache.move_to_end(name)
            # Count the reference *before* releasing the lock so the
            # entry is never evictable while this checkout is in flight.
            entry.refs += 1
        if is_loader:
            try:
                model = load_model(path)
            except Exception as exc:  # surface to all waiters, then drop
                with self._lock:
                    entry.error = exc
                    entry.refs -= 1
                    if self._cache.get(name) is entry:
                        self._cache.pop(name)
                entry.ready.set()
                raise
            with self._lock:
                entry.model = model
                self._evict_idle_locked(keep=name)
            entry.ready.set()
        else:
            entry.ready.wait()
            if entry.error is not None:
                with self._lock:
                    entry.refs -= 1
                raise ServingError(
                    f"loading model {name!r} failed: {entry.error}"
                ) from entry.error
        return ModelHandle(self, name, entry.model, entry)

    def _release(self, name: str, entry: _Entry) -> None:
        with self._lock:
            entry.refs -= 1
            # Detached entries (replaced by a publish) are not in the
            # cache anymore; they simply garbage-collect when the last
            # handle lets go.
            if self._cache.get(name) is entry:
                self._evict_idle_locked()

    def _evict_idle_locked(self, keep: Optional[str] = None) -> None:
        over = len(self._cache) - self.capacity
        if over <= 0:
            return
        for name in list(self._cache):
            if over <= 0:
                break
            entry = self._cache[name]
            if name != keep and entry.refs == 0 and entry.ready.is_set():
                del self._cache[name]
                over -= 1

    def evict(self, name: Optional[str] = None) -> None:
        """Drop a resident model (or all idle ones) from the cache.

        Models with outstanding handles are never dropped; they fall
        out on release.
        """
        with self._lock:
            names = [name] if name is not None else list(self._cache)
            for key in names:
                entry = self._cache.get(key)
                if entry is not None and entry.refs == 0 \
                        and entry.ready.is_set():
                    del self._cache[key]
