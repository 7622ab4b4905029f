"""One-call synthesis facade: ``repro.synthesize(table, method=...)``.

The one entry point for synthesis with model selection, for every
family: any registered family is constructed by name, fitted,
optionally snapshot-selected against a validation table (paper §6.2),
and returned as a :class:`~repro.api.result.SynthesisResult` carrying
the synthetic table, the fitted synthesizer, and full provenance.  The
experiment runner (:mod:`repro.core.experiment`) and the
hyper-parameter search (:mod:`repro.core.model_selection`) call it.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, Optional

from ..datasets.schema import Table
from ..errors import ConfigError
from ..obs import clock as _obs_clock
from .base import Synthesizer
from .registry import canonical_name, make_synthesizer, resolve
from .result import SynthesisResult
from .selection import extend_to, score_snapshots


def _constructor_kwargs(klass, explicit: Dict[str, Any],
                        defaults: Dict[str, Any]) -> Dict[str, Any]:
    """Assemble constructor keyword arguments for ``klass``.

    ``explicit`` holds what the caller spelled out (facade ``**kwargs``
    plus any named facade parameter they set): unaccepted keys are an
    error, so typos and family mismatches fail loudly, and values —
    including meaningful ``None``\\ s like ``epsilon=None`` — pass
    through verbatim.  ``defaults`` holds unset facade parameters:
    they are dropped so each family keeps its own defaults.
    """
    params = inspect.signature(klass.__init__).parameters
    accepts_var_kwargs = any(p.kind is inspect.Parameter.VAR_KEYWORD
                             for p in params.values())
    rejected = [key for key in explicit
                if key not in params and not accepts_var_kwargs]
    if rejected:
        raise ConfigError(
            f"{klass.__name__} does not accept argument(s) "
            f"{', '.join(sorted(rejected))}")
    accepted = dict(explicit)
    for key, value in defaults.items():
        if key not in accepted and (key in params or accepts_var_kwargs) \
                and value is not None:
            accepted[key] = value
    return accepted


def synthesize(table: Table, method: str = "gan", *,
               config=None,
               valid: Optional[Table] = None,
               n: Optional[int] = None,
               size_ratio: float = 1.0,
               epochs: Optional[int] = None,
               iterations_per_epoch: Optional[int] = None,
               seed: int = 0,
               selection_classifier: str = "DT10",
               selection_sample_size: Optional[int] = None,
               sample_seed: Optional[int] = None,
               sample_batch: Optional[int] = None,
               callbacks=None,
               **kwargs) -> SynthesisResult:
    """Fit a synthesizer by name and emit a synthetic table.

    Parameters
    ----------
    table:
        Training table ``T_train``.
    method:
        Registered family name ("gan", "vae", "privbayes", ...).
    config:
        :class:`~repro.core.design_space.DesignConfig` for families that
        take one (the GAN design space); must be omitted otherwise.
    valid:
        Validation table enabling per-epoch snapshot selection (paper
        §6.2) for families that support snapshots.  The snapshot tables
        generated for scoring are cached and the winner is reused as the
        final output (unless ``sample_seed`` is set), so the best epoch
        is not resampled from scratch.
    n, size_ratio:
        Output size: explicit ``n``, or ``round(len(table) *
        size_ratio)`` (the paper's ``|T'| / |T_train|`` knob).
    epochs, iterations_per_epoch, seed, kwargs:
        Forwarded to the family constructor when it accepts them.
    selection_classifier, selection_sample_size:
        Snapshot scoring knobs (classifier F1 on labeled tables,
        marginal fidelity on unlabeled ones).
    sample_seed:
        Seed for the final sampling pass (reproducible output); setting
        it bypasses the scoring-table cache so the whole output comes
        from one seeded pass.
    sample_batch:
        Streaming chunk size for the final sampling pass (defaults to
        the family's ``default_sample_batch``); generation always runs
        through the ``sample_iter`` streaming path.
    callbacks:
        Per-epoch progress callbacks forwarded to ``fit``.
    """
    method = canonical_name(method)
    klass = resolve(method)
    explicit = dict(kwargs)
    for key, value in (("config", config), ("epochs", epochs),
                       ("iterations_per_epoch", iterations_per_epoch)):
        if value is not None:
            explicit[key] = value
    # Without a validation table no snapshot selection can run, so
    # families that support it default to snapshotting only the final
    # epoch (big memory win on sweeps); an explicit keep_snapshots in
    # ``kwargs`` still wins.
    init_kwargs = _constructor_kwargs(
        klass, explicit,
        {"seed": seed, "keep_snapshots": valid is not None})

    start = _obs_clock.perf()
    synthesizer: Synthesizer = make_synthesizer(method, **init_kwargs)
    synthesizer.fit(table, callbacks=callbacks)

    n_out = n if n is not None else max(1, int(round(len(table) * size_ratio)))
    curves = dict(synthesizer.training_curves())
    best_epoch = None
    criterion = None
    if synthesizer.supports_snapshots and valid is not None:
        selection = score_snapshots(
            synthesizer, valid, classifier=selection_classifier,
            sample_size=selection_sample_size, seed=seed)
        best_epoch = selection.best_index
        criterion = selection.criterion
        synthesizer.use_snapshot(best_epoch)
        curves["selection"] = selection.scores
        if sample_seed is None:
            synthetic = extend_to(selection.tables[best_epoch], n_out,
                                  synthesizer, batch=sample_batch)
        else:
            # A seeded output must be one reproducible sampling pass,
            # not a mix of cached (unseeded) rows and seeded top-up.
            synthetic = synthesizer.sample(n_out, batch=sample_batch,
                                           seed=sample_seed)
    else:
        synthetic = synthesizer.sample(n_out, batch=sample_batch,
                                       seed=sample_seed)
    elapsed = _obs_clock.perf() - start

    provenance = {
        "method": method,
        "seed": seed,
        "n_train": len(table),
        "n_synthetic": len(synthetic),
        "selection_criterion": criterion,
        "elapsed_seconds": elapsed,
    }
    describe = getattr(getattr(synthesizer, "config", None), "describe", None)
    if callable(describe):
        provenance["config"] = describe()
    return SynthesisResult(table=synthetic, synthesizer=synthesizer,
                           method=method, best_epoch=best_epoch,
                           curves=curves, provenance=provenance)


def fit_stream(source, method: str = "privbayes", *,
               chunk_rows: Optional[int] = None,
               schema=None,
               seed: int = 0,
               callbacks=None,
               **kwargs) -> Synthesizer:
    """Fit a synthesizer out-of-core from a chunked source.

    The streaming counterpart of :func:`synthesize`'s fitting step:
    constructs a registered family by name and ingests ``source``
    chunk by chunk through its ``partial_fit`` path, so the training
    table never has to be resident at once.

    Parameters
    ----------
    source:
        Anything :func:`repro.stream.as_chunk_source` accepts: a CSV
        path, a :class:`~repro.datasets.schema.Table`, an iterable of
        tables, or a zero-argument callable returning one.
    method:
        Registered family with ``supports_partial_fit``.  Defaults to
        ``"privbayes"``, whose streamed fit is *bit-identical* to the
        one-shot fit of the concatenated chunks; ``"gan"``/``"vae"``
        stream through a seeded replay reservoir instead (bounded
        memory, approximate).
    chunk_rows:
        Rows per ingested chunk where the source allows re-chunking
        (defaults to the family's ``default_stream_chunk``).
    schema:
        Optional explicit schema for CSV sources (otherwise inferred
        from a leading sample).
    seed, kwargs:
        Forwarded to the family constructor when accepted (e.g.
        ``epsilon=0.8, budget=3.2`` for PrivBayes, ``reservoir_rows``
        for the neural families).
    callbacks:
        Per-chunk progress callbacks: each receives
        ``{"stage": "ingest", "chunk": i, "rows": m, "total_rows": t}``.

    Returns the fitted synthesizer — call ``sample`` / ``save`` on it,
    or hand it straight to ``ModelStore.publish`` for a hot refresh.
    """
    method = canonical_name(method)
    klass = resolve(method)
    init_kwargs = _constructor_kwargs(
        klass, dict(kwargs),
        {"seed": seed, "keep_snapshots": False})
    synthesizer: Synthesizer = make_synthesizer(method, **init_kwargs)
    return synthesizer.fit_stream(source, chunk_rows=chunk_rows,
                                  schema=schema, callbacks=callbacks)


def synthesize_database(database, method: str = "gan", *,
                        per_table: Optional[Dict[str, str]] = None,
                        cardinality: str = "empirical",
                        scale: float = 1.0,
                        seed: int = 0,
                        sample_seed: Optional[int] = None,
                        sample_batch: Optional[int] = None,
                        report: bool = True,
                        callbacks=None,
                        **kwargs):
    """One-call multi-table synthesis: fit + sample + fidelity report.

    The relational analogue of :func:`synthesize`: fits a
    :class:`~repro.relational.DatabaseSynthesizer` (one registered
    per-table family per node of the FK graph, children conditioned on
    parent context where the family supports it), samples a synthetic
    database with referential integrity by construction, and — unless
    ``report=False`` — attaches the relational fidelity report
    (cardinality + parent-child correlation preservation, see
    :func:`repro.relational.database_fidelity_report`).

    Parameters
    ----------
    database:
        Training :class:`~repro.relational.Database`.
    method, per_table:
        Default per-table family name and per-table overrides.
    cardinality:
        Child-count model: ``"empirical"`` or ``"negbin"``.
    scale:
        Synthetic root-table size as a fraction of the real one;
        child sizes follow the cardinality draws.
    seed, kwargs:
        ``seed`` drives fitting; remaining keyword arguments (e.g.
        ``epochs=5``) forward to every per-table constructor.
    sample_seed, sample_batch:
        Reproducible-sampling seed and streaming chunk size for the
        generation pass.
    """
    from ..relational.metrics import database_fidelity_report
    from ..relational.synthesizer import (
        DatabaseSynthesisResult, DatabaseSynthesizer,
    )

    start = _obs_clock.perf()
    synthesizer = DatabaseSynthesizer(
        method=method, per_table=per_table, cardinality=cardinality,
        method_kwargs=kwargs, seed=seed)
    synthesizer.fit(database, callbacks=callbacks)
    synthetic = synthesizer.sample(scale, batch=sample_batch,
                                   seed=sample_seed)
    elapsed = _obs_clock.perf() - start
    fidelity = (database_fidelity_report(database, synthetic)
                if report else None)
    provenance = {
        "method": canonical_name(method),
        "per_table": {name: synthesizer.table_method(name)
                      for name in synthetic.table_names},
        "cardinality": cardinality,
        "seed": seed,
        "scale": scale,
        "n_real": {name: len(database[name])
                   for name in database.table_names},
        "n_synthetic": {name: len(synthetic[name])
                        for name in synthetic.table_names},
        "elapsed_seconds": elapsed,
    }
    return DatabaseSynthesisResult(database=synthetic,
                                   synthesizer=synthesizer,
                                   report=fidelity, provenance=provenance)
