"""repro — reproduction of Fan et al., "Relational Data Synthesis using
Generative Adversarial Networks: A Design Space Exploration" (VLDB 2020).

The package implements the paper's unified synthesis framework (data
transformation -> training -> synthetic generation), its full GAN design
space (Figure 3), the baselines (VAE, PrivBayes), the evaluation
framework (classification / clustering / AQP utility + privacy metrics),
and all the substrates those require (an autograd NN engine, classical ML
models, an AQP engine, dataset generators).

All method families implement one :class:`repro.api.Synthesizer`
contract and are selected by name through a registry, so experiment
code never hard-codes a family.

Quickstart — one call with validation-based model selection::

    import repro
    from repro import datasets

    table = datasets.load("adult", n_records=4000, seed=0)
    train, valid, test = datasets.split(table, seed=0)

    result = repro.synthesize(train, method="gan", valid=valid,
                              epochs=5, seed=0)
    fake = result.table            # the synthetic table
    result.best_epoch              # validation-selected snapshot
    result.curves["selection"]     # the per-epoch selection series

Or drive the lifecycle yourself — any registered family ("gan", "vae",
"privbayes") behaves identically::

    synth = repro.make_synthesizer("gan", epochs=5, seed=0)
    synth.fit(train)
    fake = synth.sample(len(train), seed=0)   # reproducible sampling
    for chunk in synth.sample_iter(100_000, batch=512):
        ...                                    # streaming generation
    synth.save("models/adult-gan")
    same = repro.load_synthesizer("models/adult-gan")

Multi-table databases (``repro.relational``): declare tables + foreign
keys and synthesize the whole database with referential integrity by
construction — children are generated conditioned on their synthetic
parents' encoded rows, with per-parent child counts drawn from a
fitted cardinality model::

    db = repro.datasets.sdata_relational(n_customers=500)
    result = repro.synthesize_database(db, method="gan", epochs=5)
    result.database.check_integrity()   # {fk: 0} — no dangling keys
    result.report                       # cardinality + join-correlation

Explicit conditioning: the GAN family accepts per-row conditions end to
end — ``sample(n, conditions=label_codes)`` fixes the label of every
generated row, and ``fit(table, conditions=context_matrix)`` trains a
context-conditional generator (the relational subsystem's child-table
path)::

    cgan = repro.make_synthesizer("gan",
                                  config=repro.DesignConfig(conditional=True))
    cgan.fit(train)
    positives = cgan.sample(1000, conditions=np.ones(1000, dtype=int))

Serving (``repro.serve``): point the serving layer at a directory of
saved models and synthetic data becomes an HTTP service — a model
store that catalogues them, an LRU of multiprocessing worker pools,
each owning its loaded model (seeded requests shard across workers
**bit-identically** to the local call), streaming CSV for large
draws::

    synth.save("models/adult-gan")
    from repro.serve import SynthesisServer, WorkerPool

    with WorkerPool("models/adult-gan", workers=4) as pool:
        table = pool.sample(1_000_000, seed=7)   # == synth.sample(...)

    SynthesisServer("models/", workers=4).start()   # POST .../sample

(or ``python -m repro.serve models/ --port 8000``; see README).

Streaming & refresh (``repro.stream``): when the training table does
not fit in memory — or keeps growing — fit out-of-core from a chunked
source and hot-refresh a served model without dropping a request::

    # out-of-core: chunks stream from disk, never resident at once.
    synth = repro.fit_stream("data/orders.csv", method="privbayes",
                             epsilon=0.8, budget=3.2, seed=0)
    synth.partial_fit(new_rows)      # online: fold in fresh rows
    synth.sample(10_000, seed=1)     # lazily re-finalizes first

    # hot refresh: publish a new version; in-flight requests drain
    # on the old one, new requests get the new one.
    service = repro.serve.SynthesisService("models/")
    service.publish("orders-pb", synth)   # -> "v0002"

PrivBayes streams *bit-identically* (its count statistics are
additive): ``fit_stream`` over chunks equals the one-shot ``fit`` of
the concatenated table, noise draws included.  The neural families
stream through a seeded replay reservoir with bounded memory.  Every
PrivBayes release spends its ``epsilon`` against a cumulative
per-instance ledger, so ``budget=`` caps total privacy loss across
refreshes (``synth.privacy_spent()`` reports it).

Observability (``repro.obs``): a dependency-free metrics registry
(counters / gauges / histograms), request tracing, and a Prometheus
``GET /metrics`` endpoint on the serving front end.  The service layer
records into the default registry automatically; pass ``trace=`` to a
pooled ``sample`` to get a per-chunk span breakdown (workers ship
their spans back over the result pipes), and set ``REPRO_PROFILE=1``
for per-tape-op forward/backward timings via
``repro.obs.profile_report()``.  ``python -m repro.obs`` pretty-prints
any ``/metrics`` endpoint.  See the README's "Observability" section.

Correctness tooling (``repro.check``): a project lint enforces the
determinism / pool / fork-safety contracts statically
(``python -m repro.check.lint src/``), and ``REPRO_SANITIZE=1`` turns
on the runtime sanitizers — NaN/Inf tape checking, ArrayPool
leak/double-donation detection, lock-order recording over the serving
stack, and a guard that raises on any hidden global-RNG draw inside
seeded sampling.  See the README's "Correctness tooling" section.

The family classes stay importable for direct use
(``GANSynthesizer(config).fit(...)``); synthesis with validation-based
snapshot selection has one entry point, :func:`repro.synthesize`.
"""

import os as _os

from .errors import (
    ReproError, SchemaError, TransformError, TrainingError, ConfigError,
    QueryError,
)

if _os.environ.get("REPRO_SANITIZE", "").strip() not in ("", "0"):
    # Enabled at import so every lock, pool, and tape node constructed
    # afterwards is covered (lock roles are chosen at creation time).
    from .check.sanitize import enable_sanitizers as _enable_sanitizers

    _enable_sanitizers()

if _os.environ.get("REPRO_PROFILE", "").strip() not in ("", "0"):
    # Same at-import pattern as the sanitizers: install the engine
    # profiling hooks before any tape op runs.
    from .obs.profile import enable_profiling as _enable_profiling

    _enable_profiling()

__version__ = "1.2.0"

__all__ = [
    "DesignConfig", "GANSynthesizer", "VAESynthesizer",
    "PrivBayesSynthesizer", "datasets",
    "Synthesizer", "SynthesisResult", "synthesize", "make_synthesizer",
    "register", "available_synthesizers", "load_synthesizer",
    "Database", "ForeignKey", "DatabaseSynthesizer",
    "synthesize_database", "load_database_synthesizer",
    "serve", "stream", "fit_stream", "obs",
    "ReproError", "SchemaError", "TransformError", "TrainingError",
    "ConfigError", "QueryError",
]

_LAZY = {
    "DesignConfig": ("repro.core.design_space", "DesignConfig"),
    "GANSynthesizer": ("repro.gan.synthesizer", "GANSynthesizer"),
    "VAESynthesizer": ("repro.vae.synthesizer", "VAESynthesizer"),
    "PrivBayesSynthesizer": ("repro.privbayes.synthesizer",
                             "PrivBayesSynthesizer"),
    "datasets": ("repro.datasets", None),
    "Synthesizer": ("repro.api", "Synthesizer"),
    "SynthesisResult": ("repro.api", "SynthesisResult"),
    "synthesize": ("repro.api.facade", "synthesize"),
    "make_synthesizer": ("repro.api", "make_synthesizer"),
    "register": ("repro.api", "register"),
    "available_synthesizers": ("repro.api", "available_synthesizers"),
    "load_synthesizer": ("repro.api", "load_synthesizer"),
    "Database": ("repro.relational", "Database"),
    "ForeignKey": ("repro.relational", "ForeignKey"),
    "DatabaseSynthesizer": ("repro.relational", "DatabaseSynthesizer"),
    "synthesize_database": ("repro.api.facade", "synthesize_database"),
    "load_database_synthesizer": ("repro.relational",
                                  "load_database_synthesizer"),
    "serve": ("repro.serve", None),
    "stream": ("repro.stream", None),
    "obs": ("repro.obs", None),
    "fit_stream": ("repro.api.facade", "fit_stream"),
}


def __getattr__(name):
    """Lazily import the public API (PEP 562)."""
    if name in _LAZY:
        import importlib

        module_name, attr = _LAZY[name]
        module = importlib.import_module(module_name)
        value = module if attr is None else getattr(module, attr)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
