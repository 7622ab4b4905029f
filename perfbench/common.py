"""Helpers shared by every workload: seeds, statistics, machine shape
and child processes.

Nothing here imports ``repro``: the load generator and the statistics
stay independent of the program they measure.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import time
from typing import Dict, Optional, Sequence

#: Samples that must lie beyond a percentile before it is reported as
#: supported (e.g. p95 needs at least 200 samples).
MIN_TAIL_SAMPLES = 10


def derive(seed: int, *labels) -> int:
    """A 63-bit seed derived from the workload seed and a label path.

    Every input of a run (the table, model seeds, request seeds, the
    arrival schedule) comes from ``derive(seed, ...)``, so the same
    ``--seed`` reproduces the same inputs.
    """
    text = "/".join([str(int(seed))] + [str(label) for label in labels])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it (``inf`` sorts last)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_samples(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th
    percentile."""
    return n - max(1, math.ceil(q / 100.0 * n - 1e-9))


def supported(n: int, q: float) -> bool:
    """True when ``n`` samples put at least :data:`MIN_TAIL_SAMPLES`
    beyond the ``q``-th percentile."""
    return tail_samples(n, q) >= MIN_TAIL_SAMPLES


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# Machine shape
# ----------------------------------------------------------------------
def _openblas_threads() -> Dict[str, object]:
    """Thread count in effect in numpy's bundled OpenBLAS, via ctypes.

    The benchmark sets no BLAS thread variable; this only reads what
    the library decided.
    """
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return {"blas_threads": int(getter()),
                        "blas_lib": os.path.basename(path)}
    return {"blas_threads": None, "blas_lib": None}


def machine_shape() -> Dict[str, object]:
    """``cpus``, BLAS library/version/threads, Python and NumPy."""
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = {"blas": info.get("name"), "blas_version": info.get("version")}
    except (TypeError, KeyError):
        blas = {"blas": None, "blas_version": None}
    shape = {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **blas,
        **_openblas_threads(),
        "blas_env": {key: os.environ[key] for key in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS") if key in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    return shape


# ----------------------------------------------------------------------
# Resource usage of this process
# ----------------------------------------------------------------------
def rusage_self() -> Dict[str, float]:
    """Peak RSS (MB) and CPU seconds of the calling process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"maxrss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime}


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env(root: str, run_dir: str) -> Dict[str, str]:
    """Environment for benchmark children: the program from ``src/``,
    the benchmark package, and temporary files inside the run dir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = run_dir
    env["PYTHONUNBUFFERED"] = "1"
    return env


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One line from a child's stdout, or ``RuntimeError`` on timeout
    or exit."""
    deadline = time.monotonic() + timeout
    stream = proc.stdout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(f"child {proc.pid} sent no line in "
                               f"{timeout:.0f}s")
        ready, _, _ = select.select([stream], [], [], remaining)
        if ready:
            line = stream.readline()
            if not line:
                raise RuntimeError(
                    f"child {proc.pid} exited with {proc.wait()}")
            return line.rstrip("\n")


def stop(proc: Optional[subprocess.Popen], grace: float = 20.0,
         signum: Optional[int] = None) -> Optional[int]:
    """Stop a child (``signum`` first, then kill) and wait for it."""
    if proc is None:
        return None
    if proc.poll() is None and signum is not None:
        proc.send_signal(signum)
    try:
        return proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait(timeout=10)


def read_json(path: str):
    with open(path) as handle:
        return json.load(handle)
