"""Shared infrastructure for the benchmark harnesses.

Each ``bench_*.py`` module regenerates one table or figure of the paper:
it synthesizes data with the relevant design points / methods, computes
the paper's metric, prints a paper-shaped table (also written under
``benchmarks/results/``), and registers the end-to-end run with
pytest-benchmark (exactly one timed round — these are experiments, not
micro-benchmarks).

Synthesis results are memoized per (dataset, config, seed) for the whole
pytest session, so benchmarks sharing a design point do not retrain.

Scale knobs (environment variables):

* ``REPRO_BENCH_RECORDS``  records per dataset (default 1200)
* ``REPRO_BENCH_EPOCHS``   GAN epochs (default 5)
* ``REPRO_BENCH_ITERS``    iterations per epoch (default 25)
* ``REPRO_BENCH_DTYPE``    engine dtype for the run.  **float32 (the
  fast-math training mode) is the default for the sweep benchmarks** —
  paper-shape conclusions were re-validated under it (see ROADMAP) and
  it roughly halves sweep wall-clock.  Pass ``--parity`` to pytest (or
  set ``REPRO_BENCH_DTYPE=float64``) to run the bit-exact float64
  parity mode instead, e.g. when validating a trajectory against the
  historical engine.

Every ``BENCH_<name>.json`` sidecar records the engine dtype active when
it was written, so perf trajectories across PRs can distinguish parity
runs from fast-math runs.  The engine microbenchmark
(``bench_engine_microbench.py``) times forward/backward/optimizer-step
per architecture in *both* dtypes regardless of the ambient default and
is the regression gate for engine changes:

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_microbench.py
    python benchmarks/check_bench_regression.py \
        <committed BENCH_engine_microbench.json> \
        benchmarks/results/BENCH_engine_microbench.json

The resulting ``BENCH_engine_microbench.json`` rows carry per-arch,
per-dtype wall-clock in milliseconds; ``check_bench_regression.py``
fails (exit 1) when the CNN train step regresses beyond the allowed
margin, which CI runs on every push.  Sampling throughput has its own
harness (``bench_sampling_throughput.py`` ->
``BENCH_sampling_throughput.json``) comparing the streaming generation
path against the pre-PR float64 loop.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import get_default_dtype, set_default_dtype
from repro.serve.pool import blas_threads, usable_cpus
from repro.api import SynthesisResult
from repro.core.design_space import DesignConfig
from repro.core.experiment import ExperimentContext
from repro.datasets.schema import Table
from repro.report import format_series, format_table, print_report

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: ``REPRO_BENCH_JSON=0`` disables the machine-readable BENCH_*.json files.
JSON_ENABLED = os.environ.get("REPRO_BENCH_JSON", "1") not in ("0", "false")

#: The paper's evaluator classifiers (table columns).
CLASSIFIER_COLUMNS = ("DT10", "DT30", "RF10", "RF20", "AB", "LR")

#: ``REPRO_BENCH_DTYPE`` switches the engine dtype for the whole run;
#: the sweep default is the float32 fast-math mode (float64 = the
#: ``--parity`` escape hatch, see module docstring).
_BENCH_DTYPE = os.environ.get("REPRO_BENCH_DTYPE", "float32")
set_default_dtype(_BENCH_DTYPE)

_CONTEXTS: Dict[tuple, ExperimentContext] = {}
_GAN_RUNS: Dict[tuple, SynthesisResult] = {}
_TABLES: Dict[tuple, Table] = {}


def context(dataset: str, seed: int = 0, **dataset_kwargs
            ) -> ExperimentContext:
    """Memoized experiment context (dataset + split + budget)."""
    key = (dataset, seed, tuple(sorted(dataset_kwargs.items())))
    if key not in _CONTEXTS:
        _CONTEXTS[key] = ExperimentContext(dataset, seed=seed,
                                           dataset_kwargs=dataset_kwargs)
    return _CONTEXTS[key]


def gan_run(dataset: str, config: Optional[DesignConfig] = None,
            seed: int = 0, **dataset_kwargs) -> SynthesisResult:
    """Memoized GAN synthesis run (training + snapshot selection)."""
    config = config if config is not None else DesignConfig()
    key = ("gan", dataset, config.describe(), config.lr_g, config.hidden_dim,
           config.batch_size, config.z_dim, config.dp_noise_multiplier,
           seed, tuple(sorted(dataset_kwargs.items())))
    if key not in _GAN_RUNS:
        ctx = context(dataset, seed=seed, **dataset_kwargs)
        _GAN_RUNS[key] = ctx.gan(config)
    return _GAN_RUNS[key]


def gan_synthetic(dataset: str, config: Optional[DesignConfig] = None,
                  seed: int = 0, **dataset_kwargs) -> Table:
    return gan_run(dataset, config, seed=seed, **dataset_kwargs).table


def vae_synthetic(dataset: str, seed: int = 0, **dataset_kwargs) -> Table:
    key = ("vae", dataset, seed, tuple(sorted(dataset_kwargs.items())))
    if key not in _TABLES:
        ctx = context(dataset, seed=seed, **dataset_kwargs)
        _TABLES[key] = ctx.vae()
    return _TABLES[key]


def pb_synthetic(dataset: str, epsilon: Optional[float], seed: int = 0,
                 **dataset_kwargs) -> Table:
    key = ("pb", dataset, epsilon, seed, tuple(sorted(dataset_kwargs.items())))
    if key not in _TABLES:
        ctx = context(dataset, seed=seed, **dataset_kwargs)
        _TABLES[key] = ctx.privbayes(epsilon)
    return _TABLES[key]


# ----------------------------------------------------------------------
# Design-point grids used by several benchmarks
# ----------------------------------------------------------------------
def transform_configs(generator: str, mixed: bool
                      ) -> List[Tuple[str, DesignConfig]]:
    """Table 3's transformation grid for one generator.

    Mixed-type datasets get the full sn/od, sn/ht, gn/od, gn/ht grid;
    numerical-only datasets only vary the normalization (sn, gn), as in
    the paper's Table 3(d).
    """
    grid = []
    if mixed:
        for norm, norm_tag in (("simple", "sn"), ("gmm", "gn")):
            for enc, enc_tag in (("ordinal", "od"), ("onehot", "ht")):
                grid.append((f"{norm_tag}/{enc_tag}", DesignConfig(
                    generator=generator, categorical_encoding=enc,
                    numerical_normalization=norm)))
    else:
        for norm, norm_tag in (("simple", "sn"), ("gmm", "gn")):
            grid.append((norm_tag, DesignConfig(
                generator=generator, categorical_encoding="onehot",
                numerical_normalization=norm)))
    return grid


def cnn_config() -> DesignConfig:
    return DesignConfig(generator="cnn", categorical_encoding="ordinal",
                        numerical_normalization="simple")


def is_mixed(dataset: str) -> bool:
    ctx = context(dataset)
    return bool(ctx.train.schema.categorical_names(include_label=False))


def is_binary_label(dataset: str) -> bool:
    ctx = context(dataset)
    label = ctx.train.schema.label
    return label is not None and label.domain_size == 2


# ----------------------------------------------------------------------
# Output handling
# ----------------------------------------------------------------------
#: Reports emitted during the current ``run_once`` call, so the timed
#: wall-clock can be attached to each one afterwards.
_PENDING_REPORTS: List[Tuple[str, Optional[list]]] = []


def emit(name: str, text: str, rows: Optional[list] = None) -> str:
    """Print a framed report and persist it under benchmarks/results/.

    ``rows`` is an optional JSON-friendly structure (e.g. a list of
    metric dicts) included verbatim in the machine-readable
    ``BENCH_<name>.json`` written alongside the text report, so future
    PRs can track a perf/metric trajectory.
    """
    print_report(text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    _PENDING_REPORTS.append((name, rows))
    if JSON_ENABLED:
        _write_json(name, rows, elapsed_seconds=None)
    return text


def _peak_rss_kb() -> float:
    """Lifetime peak resident set of this process and its children, KB.

    ``ru_maxrss`` is kilobytes on Linux; the OS never resets it, so
    this is a high-water mark at write time, not a per-benchmark delta
    — still enough to catch a benchmark that suddenly doubles memory.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return float(max(own, children))


def _cpu_seconds() -> float:
    """Cumulative CPU time (user+system, children included)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _write_json(name: str, rows: Optional[list],
                elapsed_seconds: Optional[float],
                cpu_seconds: Optional[float] = None) -> None:
    payload = {
        "name": name,
        "elapsed_seconds": elapsed_seconds,
        "cpu_seconds": cpu_seconds,
        "peak_rss_kb": _peak_rss_kb(),
        "engine_dtype": np.dtype(get_default_dtype()).name,
        "cpus": usable_cpus(),
        "blas_threads": blas_threads(),
        "rows": rows,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (RESULTS_DIR / f"BENCH_{name}.json").write_text(
        json.dumps(payload, indent=2, default=float) + "\n")


def run_once(benchmark, fn):
    """Register ``fn`` with pytest-benchmark as a single timed round.

    Reports emitted during ``fn`` get their JSON sidecars re-written
    once timing is available, carrying the measured wall-clock, the
    CPU time burned across the round (workers included), and the
    process's peak RSS.
    """
    _PENDING_REPORTS.clear()
    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    result = benchmark.pedantic(fn, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu_start
    if JSON_ENABLED:
        for name, rows in _PENDING_REPORTS:
            _write_json(name, rows, elapsed_seconds=elapsed,
                        cpu_seconds=cpu)
    _PENDING_REPORTS.clear()
    return result


def diff_table(dataset: str, rows: Sequence[Tuple[str, Dict[str, float]]],
               title: str) -> str:
    """Format per-classifier F1-difference rows like the paper's tables."""
    headers = ["config"] + list(CLASSIFIER_COLUMNS)
    table_rows = []
    for label, diffs in rows:
        table_rows.append([label] + [diffs.get(c, float("nan"))
                                     for c in CLASSIFIER_COLUMNS])
    return format_table(headers, table_rows, title=title)


def diff_rows_payload(rows: Sequence[Tuple[str, Dict[str, float]]]) -> list:
    """JSON-friendly form of ``diff_table`` rows (for ``emit(rows=...)``)."""
    return [{"config": label,
             **{c: float(diffs[c]) for c in CLASSIFIER_COLUMNS if c in diffs}}
            for label, diffs in rows]
