"""Model store: persisted synthesizers by name, versioned.

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

:class:`ModelStore` is the catalogue: it resolves names through the
``ACTIVE`` pointer and reads metadata without loading arrays.  It holds
no live models; each :class:`~repro.serve.pool.WorkerPool` loads its
own copy (:func:`load_model`), and the service's pool registry is the
one cache of them.

:meth:`ModelStore.publish` is the hot-refresh primitive: it writes a
new version directory and swaps ``ACTIVE`` atomically
(``os.replace``).  Every name resolution after the swap sees the new
version; pools booted on the old one keep serving it until the service
retires them.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
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


class ModelStore:
    """Name-addressed catalogue of saved synthesizers.

    Parameters
    ----------
    root:
        Directory holding one saved model per subdirectory.
    """

    def __init__(self, root: PathLike):
        self.root = pathlib.Path(root)
        self._lock = make_lock("store.cache")
        self._info_cache: dict = {}

    def __getstate__(self):
        raise TypeError(
            "ModelStore is not picklable: it holds a lock that cannot "
            "cross a fork/pickle boundary; each process must open its "
            "own store")

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

        The store loads nothing, so a publish touches no live model:
        pools already booted on the old version keep serving it until
        :meth:`SynthesisService.publish` retires them.
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
        return version
