"""Parameter persistence: save/load module state dicts as ``.npz``.

Keeps trained generators reusable across processes without pickling
code objects — the state dict is plain arrays keyed by parameter path,
so it is robust to refactors that do not rename parameters.

Beyond the eager round-trip, two lazy entry points back the serving
layer's versioned model store:

* ``load_state(path, mmap_mode="r")`` maps each array directly out of
  the archive instead of copying it into fresh pages.  ``np.load``
  silently ignores ``mmap_mode`` for ``.npz`` members, so this module
  does the mapping itself: ``np.savez`` stores members uncompressed
  (``ZIP_STORED``), which makes every ``.npy`` payload a contiguous
  byte range of the archive that ``np.memmap`` can view in place.
* :func:`state_manifest` reads only the ``.npy`` headers — shapes and
  dtypes without faulting in a single data page — which is what lets
  ``ModelStore.metadata`` list large model versions cheaply.
"""

from __future__ import annotations

import pathlib
import struct
import zipfile
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .module import Module

PathLike = Union[str, pathlib.Path]

#: Fixed part of a ZIP local file header (signature .. extra-length).
_LOCAL_HEADER_SIZE = 30


def save_state(path: PathLike, state: Dict[str, np.ndarray]) -> None:
    """Write a state dict to ``path`` (``.npz`` appended if missing)."""
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    np.savez(path, **state)


def _npz_path(path: PathLike) -> pathlib.Path:
    path = pathlib.Path(path)
    if not path.exists() and path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def _read_npy_header(fh) -> Optional[Tuple[tuple, np.dtype, bool, int]]:
    """Parse a ``.npy`` stream header: (shape, dtype, fortran, data offset).

    Returns ``None`` for formats the memmap fast path cannot handle
    (future versions, object dtypes) so callers can fall back to eager
    loading.
    """
    start = fh.tell()
    try:
        version = np.lib.format.read_magic(fh)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
        else:
            return None
    except ValueError:
        return None
    if dtype.hasobject:
        return None
    return shape, dtype, fortran, fh.tell() - start


def _member_data_offset(zf: zipfile.ZipFile,
                        info: zipfile.ZipInfo) -> Optional[int]:
    """Absolute file offset of a ZIP member's payload, or ``None``.

    Only uncompressed (``ZIP_STORED``) members have an in-place
    payload.  The central directory records where the member's *local*
    header starts; the payload follows the local header, whose length
    depends on the member's own name/extra fields (which can differ
    from the central-directory copies), so it is re-read here.
    """
    if info.compress_type != zipfile.ZIP_STORED:
        return None
    fh = zf.fp
    fh.seek(info.header_offset)
    header = fh.read(_LOCAL_HEADER_SIZE)
    if len(header) != _LOCAL_HEADER_SIZE \
            or header[:4] != b"PK\x03\x04":
        return None
    name_len, extra_len = struct.unpack("<HH", header[26:30])
    return info.header_offset + _LOCAL_HEADER_SIZE + name_len + extra_len


def load_state(path: PathLike,
               mmap_mode: Optional[str] = None) -> Dict[str, np.ndarray]:
    """Read a state dict written by :func:`save_state`.

    ``mmap_mode=None`` (default) eagerly copies every array — the
    historical behaviour.  ``mmap_mode="r"`` returns read-only
    memory-mapped views into the archive instead: opening a model then
    touches only the pages actually used.  (The model store lists a
    version's arrays with :func:`state_manifest`, which reads headers
    only.)  Members the mapping fast path cannot handle
    (compressed archives, object dtypes, future ``.npy`` versions) fall
    back to an eager copy, so the result is always usable.
    """
    path = _npz_path(path)
    if mmap_mode is None:
        with np.load(path) as data:
            return {key: data[key].copy() for key in data.files}
    if mmap_mode != "r":
        raise ValueError(
            f"mmap_mode must be None or 'r', got {mmap_mode!r}")
    state: Dict[str, np.ndarray] = {}
    eager = []
    with zipfile.ZipFile(path) as zf:
        for info in zf.infolist():
            if not info.filename.endswith(".npy"):
                continue
            key = info.filename[:-len(".npy")]
            offset = _member_data_offset(zf, info)
            header = None
            if offset is not None:
                with zf.open(info) as member:
                    header = _read_npy_header(member)
            if offset is None or header is None:
                eager.append(key)
                continue
            shape, dtype, fortran, header_len = header
            if int(np.prod(shape)) == 0:
                # memmap rejects zero-length maps; materialize empties.
                state[key] = np.zeros(shape, dtype=dtype,
                                      order="F" if fortran else "C")
                continue
            state[key] = np.memmap(path, mode="r", dtype=dtype,
                                   shape=shape, offset=offset + header_len,
                                   order="F" if fortran else "C")
    if eager:
        with np.load(path, allow_pickle=False) as data:
            for key in eager:
                state[key] = data[key].copy()
    return state


def state_manifest(path: PathLike) -> Dict[str, Dict[str, object]]:
    """Shapes/dtypes of a saved state dict without reading array data.

    Streams only each member's ``.npy`` header out of the archive —
    no payload pages are touched, so this is safe to call on model
    versions far larger than RAM.
    """
    path = _npz_path(path)
    manifest: Dict[str, Dict[str, object]] = {}
    with zipfile.ZipFile(path) as zf:
        for info in zf.infolist():
            if not info.filename.endswith(".npy"):
                continue
            key = info.filename[:-len(".npy")]
            with zf.open(info) as member:
                header = _read_npy_header(member)
            if header is None:
                manifest[key] = {"shape": None, "dtype": None,
                                 "nbytes": info.file_size}
                continue
            shape, dtype, _, _ = header
            manifest[key] = {"shape": tuple(int(s) for s in shape),
                             "dtype": str(dtype),
                             "nbytes": int(np.prod(shape)) * dtype.itemsize}
    return manifest


def save_module(path: PathLike, module: Module) -> None:
    """Persist a module's parameters."""
    save_state(path, module.state_dict())


def load_module(path: PathLike, module: Module) -> Module:
    """Restore parameters into a structurally identical module."""
    module.load_state_dict(load_state(path))
    return module
