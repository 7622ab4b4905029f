"""Multi-table database synthesis with referential-integrity guarantees.

:class:`DatabaseSynthesizer` lifts the paper's single-table framework to
whole databases (Row Conditional-TGAN style):

1. **Fit** walks the tables parents-first.  Each table's *non-key*
   attributes are fitted with a registered per-table
   :class:`~repro.api.Synthesizer` family; child tables whose family
   supports explicit conditioning (the GAN family) are fitted with a
   parent-context matrix — each child row's condition is its real
   parent row pushed through a
   :class:`~repro.relational.context.ParentContextEncoder`.  Every FK
   edge additionally fits a per-parent child-count model
   (:mod:`repro.relational.cardinality`).
2. **Sample** replays the same order.  Parents are sampled first; each
   synthetic parent draws a child count from the cardinality model, the
   FK column is assigned by construction (``repeat(parent_ids,
   counts)``), and the child rows are generated in streaming chunks via
   ``sample(n, conditions=...)`` with each chunk conditioned on its own
   synthetic parents' encoded rows.

Key columns are never modeled: primary keys are fresh dense ids and
foreign keys only ever take values of an existing synthetic parent, so
**referential integrity holds by construction** for every per-table
method family — conditioning merely improves parent-child correlation
fidelity where the family supports it.
"""

from __future__ import annotations

import inspect
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..api.base import (
    PathLike, Synthesizer, _count, _scale, _sizes, load_synthesizer,
)
from ..api.registry import canonical_name, register, resolve
from ..api.seeding import derive_seed, substream
from ..datasets.schema import (
    Schema, Table, schema_from_dict, schema_to_dict,
)
from ..errors import ConfigError, TrainingError
from .cardinality import (
    CardinalityModel, child_counts, make_cardinality_model,
)
from .context import ParentContextEncoder
from .schema import Database, ForeignKey

DB_FORMAT_NAME = "repro-database-synthesizer"
DB_FORMAT_VERSION = 1
_DB_META_FILE = "database.json"
_TABLES_DIR = "tables"


def _empty_table(schema: Schema) -> Table:
    return Table(schema, {a.name: np.empty(0) for a in schema})


@dataclass
class DatabaseSynthesisResult:
    """Output of :func:`repro.synthesize_database`."""

    database: Database
    synthesizer: "DatabaseSynthesizer"
    report: Optional[Dict[str, Any]] = None
    provenance: Dict[str, Any] = field(default_factory=dict)


@register("relational")
class DatabaseSynthesizer:
    """Fit one per-table synthesizer per node of the FK graph.

    Parameters
    ----------
    method:
        Default per-table family name (any registered single-table
        family: "gan", "vae", "privbayes", ...).
    per_table:
        ``{table name: family name}`` overrides, so e.g. a large fact
        table can use PrivBayes while dimensions use the GAN.
    cardinality:
        Child-count model: ``"empirical"`` (exact histogram, default)
        or ``"negbin"`` (fitted negative binomial).
    method_kwargs:
        Keyword arguments forwarded to each per-table constructor
        (e.g. ``epochs=5``).  Keys a family's constructor does not
        accept are dropped for that family, so one kwargs dict can
        serve a mixed ``per_table`` assignment.
    """

    def __init__(self, method: str = "gan",
                 per_table: Optional[Dict[str, str]] = None,
                 cardinality: str = "empirical",
                 method_kwargs: Optional[Dict[str, Any]] = None,
                 seed: int = 0):
        make_cardinality_model(cardinality)  # validate the name early
        # (named default_method: ``method`` is the registry key set by
        # the @register decorator on the class itself.)
        self.default_method = canonical_name(method)
        self.per_table = {name: canonical_name(m)
                          for name, m in (per_table or {}).items()}
        self.cardinality = cardinality
        self.method_kwargs = dict(method_kwargs or {})
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self._fitted = False
        self._order: List[str] = []
        self._schemas: Dict[str, Schema] = {}
        self._primary_keys: Dict[str, str] = {}
        self._foreign_keys: List[ForeignKey] = []
        self._synths: Dict[str, Synthesizer] = {}
        self._encoders: Dict[str, ParentContextEncoder] = {}
        self._cardinality_models: Dict[str, CardinalityModel] = {}
        self._conditioned: Dict[str, bool] = {}
        self._n_rows: Dict[str, int] = {}

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise TrainingError("database synthesizer is not fitted")

    def table_method(self, name: str) -> str:
        return self.per_table.get(name, self.default_method)

    def _make_table_synthesizer(self, name: str, seed: int) -> Synthesizer:
        klass = resolve(self.table_method(name))
        params = inspect.signature(klass.__init__).parameters
        accepts_var = any(p.kind is inspect.Parameter.VAR_KEYWORD
                          for p in params.values())
        kwargs = {key: value for key, value in self.method_kwargs.items()
                  if key in params or accepts_var}
        kwargs.setdefault("seed", seed)
        # Snapshot selection never runs inside the database fit, so
        # families that support lazy snapshots keep only the final
        # epoch unless the caller explicitly asks otherwise.
        if "keep_snapshots" in params or accepts_var:
            kwargs.setdefault("keep_snapshots", False)
        return klass(**kwargs)

    # ------------------------------------------------------------------
    # Fit
    # ------------------------------------------------------------------
    def fit(self, database: Database, callbacks=None
            ) -> "DatabaseSynthesizer":
        """Fit per-table models, context encoders, and cardinality models.

        ``callbacks`` is forwarded to every per-table ``fit`` (records
        are family-specific; use closures to tag the current table).
        """
        dangling = {key: count
                    for key, count in database.check_integrity().items()
                    if count}
        if dangling:
            raise TrainingError(
                f"training database has dangling foreign keys: {dangling}")
        self._order = database.topological_order()
        self._schemas = {name: database[name].schema
                         for name in self._order}
        self._primary_keys = dict(database.primary_keys)
        self._foreign_keys = list(database.foreign_keys)
        self._synths = {}
        self._encoders = {}
        self._cardinality_models = {}
        self._conditioned = {}
        self._n_rows = {name: len(database[name]) for name in self._order}

        inner_tables = {name: database.inner_table(name)
                        for name in self._order}
        # Each parent is encoded once; children referencing it (possibly
        # several, possibly through several FKs) index into the matrix.
        encoded: Dict[str, np.ndarray] = {}
        for name in self._order:
            inner = inner_tables[name]
            fks = database.parents_of(name)
            # Keyed by table name, not drawn in fit order: adding or
            # removing one table never perturbs another table's fit.
            table_seed = derive_seed(self.seed, "fit", name)
            synth = self._make_table_synthesizer(name, table_seed)

            # Parent-first ordering guarantees every referenced encoder
            # is already fitted when a child needs it.
            if database.children_of(name):
                self._encoders[name] = ParentContextEncoder(
                    rng=np.random.default_rng(table_seed)).fit(inner)
                encoded[name] = self._encoders[name].encode(inner)

            conditions = None
            if fks and synth.supports_conditioning:
                parts = []
                for fk in fks:
                    positions = self._parent_positions(
                        database.primary_key_values(fk.parent),
                        database[name].column(fk.column).astype(np.int64))
                    parts.append(encoded[fk.parent][positions])
                conditions = (parts[0] if len(parts) == 1
                              else np.concatenate(parts, axis=1))
            self._conditioned[name] = conditions is not None

            for fk in fks:
                counts = child_counts(
                    database.primary_key_values(fk.parent),
                    database[name].column(fk.column).astype(np.int64))
                self._cardinality_models[fk.key] = make_cardinality_model(
                    self.cardinality).fit(counts)

            if conditions is not None:
                synth.fit(inner, callbacks=callbacks, conditions=conditions)
            else:
                synth.fit(inner, callbacks=callbacks)
            self._synths[name] = synth
        self._fitted = True
        return self

    @staticmethod
    def _parent_positions(parent_ids: np.ndarray,
                          fk_values: np.ndarray) -> np.ndarray:
        """Row position in the parent table for each child row."""
        order = np.argsort(parent_ids, kind="stable")
        sorted_ids = parent_ids[order]
        return order[np.searchsorted(sorted_ids, fk_values)]

    # ------------------------------------------------------------------
    # Sample
    # ------------------------------------------------------------------
    def sample(self, scale: float = 1.0, *, sizes: Optional[Dict[str, int]]
               = None, batch: Optional[int] = None,
               seed: Optional[int] = None) -> Database:
        """Generate a synthetic database.

        Root-table sizes default to ``round(real_rows * scale)``
        (override per table with ``sizes``); child-table sizes are the
        sum of per-parent cardinality draws, so the synthetic database
        reproduces the FK fan-out distribution.  ``seed`` makes the
        whole database reproducible.  ``batch`` is the per-table
        streaming chunk size (children stream through ``sample_iter``
        with per-chunk parent-context slices).

        Randomness is organized as keyed substreams off one request
        seed (``seed``, or a single draw from the shared generator when
        unseeded): each table's generation and each FK edge's
        cardinality / secondary-parent draws get independent streams
        keyed by table / FK name, so adding a table to the schema never
        perturbs another table's draw.
        """
        self._require_fitted()
        scale = _scale(scale)
        sizes = _sizes(sizes)
        if batch is not None:
            _count("batch", batch, minimum=1)
        request_seed = (derive_seed(seed, "sample") if seed is not None
                        else int(self.rng.integers(0, 2 ** 63)))

        tables: Dict[str, Table] = {}
        inner_tables: Dict[str, Table] = {}
        pk_values: Dict[str, np.ndarray] = {}
        # Synthetic parents are encoded lazily, once each, no matter how
        # many child tables (or FK edges) condition on them.
        encoded: Dict[str, np.ndarray] = {}

        def encoded_parent(parent: str) -> np.ndarray:
            if parent not in encoded:
                encoded[parent] = self._encoders[parent].encode(
                    inner_tables[parent])
            return encoded[parent]

        for name in self._order:
            schema = self._schemas[name]
            fks = [fk for fk in self._foreign_keys if fk.child == name]
            table_seed = derive_seed(request_seed, "table", name)
            synth = self._synths[name]

            if not fks:
                n = sizes.get(name)
                if n is None:
                    n = max(1, int(round(self._n_rows[name] * scale)))
                key_columns: Dict[str, np.ndarray] = {}
            else:
                # The first FK edge drives the row count: one
                # cardinality draw per synthetic parent.
                primary = fks[0]
                parent_n = len(pk_values[primary.parent])
                counts = self._cardinality_models[primary.key].sample(
                    parent_n, substream(request_seed, "fk", primary.key))
                n = int(counts.sum())
                key_columns = {
                    primary.column: np.repeat(pk_values[primary.parent],
                                              counts)}
                positions = {primary: np.repeat(np.arange(parent_n), counts)}
                for fk in fks[1:]:
                    # Secondary parents: uniform assignment keeps the
                    # reference valid without a joint fan-out model.
                    other_n = len(pk_values[fk.parent])
                    if other_n == 0:
                        raise TrainingError(
                            f"cannot assign {fk.key}: parent table is empty")
                    pos = substream(request_seed, "fk", fk.key).integers(
                        0, other_n, size=n)
                    positions[fk] = pos
                    key_columns[fk.column] = pk_values[fk.parent][pos]

            conditions = None
            if fks and self._conditioned[name] and n > 0:
                parts = [encoded_parent(fk.parent)[positions[fk]]
                         for fk in fks]
                conditions = (parts[0] if len(parts) == 1
                              else np.concatenate(parts, axis=1))

            if n > 0:
                inner = synth.sample(n, batch=batch, seed=table_seed,
                                     conditions=conditions)
            else:
                inner = _empty_table(self._inner_schema(name))
            inner_tables[name] = inner

            pk_name = self._primary_keys.get(name)
            if pk_name is not None:
                pk_values[name] = np.arange(n, dtype=np.int64)
                key_columns[pk_name] = pk_values[name]

            columns = dict(inner.columns)
            columns.update(key_columns)
            tables[name] = Table(schema, columns)
        return Database(tables, primary_keys=self._primary_keys,
                        foreign_keys=self._foreign_keys)

    def _inner_schema(self, name: str) -> Schema:
        schema = self._schemas[name]
        keys = {fk.column for fk in self._foreign_keys if fk.child == name}
        pk = self._primary_keys.get(name)
        if pk is not None:
            keys.add(pk)
        attrs = tuple(a for a in schema if a.name not in keys)
        label = (schema.label_name
                 if schema.label_name in {a.name for a in attrs} else None)
        return Schema(attrs, label_name=label)

    def fit_sample(self, database: Database, scale: float = 1.0,
                   callbacks=None, batch: Optional[int] = None,
                   seed: Optional[int] = None) -> Database:
        """``fit`` then ``sample`` in one call."""
        self.fit(database, callbacks=callbacks)
        return self.sample(scale, batch=batch, seed=seed)

    def spawn_sampler(self, worker_id: int = 0) -> "DatabaseSynthesizer":
        """Prepare this instance to sample inside an independent worker.

        The database-level analogue of
        :meth:`repro.api.Synthesizer.spawn_sampler`: every per-table
        synthesizer is spawned (sessions voided, eval pinned) and the
        shared generator — the root of *unseeded* ``sample`` requests —
        is re-derived on a worker-keyed substream so forked workers
        never replay each other's draws.  Seeded requests are unaffected
        (their streams derive from the request seed alone).
        """
        self._require_fitted()
        _count("worker_id", worker_id, minimum=0)
        for synth in self._synths.values():
            synth.spawn_sampler(worker_id)
        self.rng = substream(self.seed, "worker", worker_id)
        return self

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> pathlib.Path:
        """Persist into directory ``path``.

        Layout: ``database.json`` (FK structure, schemas, cardinality
        models, context encoders) plus one per-table synthesizer
        directory under ``tables/``.
        """
        self._require_fitted()
        path = pathlib.Path(path)
        path.mkdir(parents=True, exist_ok=True)
        document = {
            "format": DB_FORMAT_NAME,
            "version": DB_FORMAT_VERSION,
            "method": "relational",
            "params": {"method": self.default_method,
                       "per_table": self.per_table,
                       "cardinality": self.cardinality,
                       "method_kwargs": self.method_kwargs,
                       "seed": self.seed},
            "order": self._order,
            "schemas": {name: schema_to_dict(schema)
                        for name, schema in self._schemas.items()},
            "primary_keys": self._primary_keys,
            "foreign_keys": [fk.to_dict() for fk in self._foreign_keys],
            "conditioned": self._conditioned,
            "n_rows": self._n_rows,
            "encoders": {name: encoder.to_state()
                         for name, encoder in self._encoders.items()},
            "cardinality_models": {
                key: model.to_state()
                for key, model in self._cardinality_models.items()},
        }
        (path / _DB_META_FILE).write_text(json.dumps(document, indent=2))
        for name, synth in self._synths.items():
            synth.save(path / _TABLES_DIR / name)
        return path

    @classmethod
    def load(cls, path: PathLike) -> "DatabaseSynthesizer":
        """Restore a database synthesizer saved with :meth:`save`."""
        path = pathlib.Path(path)
        meta_path = path / _DB_META_FILE
        if not meta_path.exists():
            raise ConfigError(f"no saved database synthesizer at {path}")
        document = json.loads(meta_path.read_text())
        if document.get("format") != DB_FORMAT_NAME:
            raise ConfigError(f"{meta_path} is not a saved database "
                              f"synthesizer")
        if document.get("version") != DB_FORMAT_VERSION:
            raise ConfigError(
                f"unsupported database synthesizer format version "
                f"{document.get('version')!r}")
        params = document["params"]
        instance = cls(method=params["method"],
                       per_table=params["per_table"],
                       cardinality=params["cardinality"],
                       method_kwargs=params["method_kwargs"],
                       seed=params["seed"])
        instance._order = list(document["order"])
        instance._schemas = {name: schema_from_dict(data)
                             for name, data in document["schemas"].items()}
        instance._primary_keys = dict(document["primary_keys"])
        instance._foreign_keys = [ForeignKey.from_dict(data)
                                  for data in document["foreign_keys"]]
        instance._conditioned = {name: bool(flag) for name, flag
                                 in document["conditioned"].items()}
        instance._n_rows = {name: int(n)
                            for name, n in document["n_rows"].items()}
        instance._encoders = {
            name: ParentContextEncoder.from_state(state)
            for name, state in document["encoders"].items()}
        instance._cardinality_models = {
            key: CardinalityModel.from_state(state)
            for key, state in document["cardinality_models"].items()}
        instance._synths = {name: load_synthesizer(path / _TABLES_DIR / name)
                            for name in instance._order}
        instance._fitted = True
        return instance


def load_database_synthesizer(path: PathLike) -> DatabaseSynthesizer:
    """Load a :class:`DatabaseSynthesizer` saved with ``save``."""
    return DatabaseSynthesizer.load(path)
