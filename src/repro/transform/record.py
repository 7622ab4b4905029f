"""Record-level transformation: combine attribute blocks into samples.

Implements the paper's two sample forms (§4):

* vector form — concatenation of per-attribute blocks, for MLP/LSTM;
* matrix form — one value per attribute, zero-padded into a square
  matrix, for the CNN pipeline (only ordinal encoding + simple
  normalization are compatible, as the paper notes).

Both directions are implemented, so synthetic samples convert back into
records (Phase III).

Phase III is the sampling hot path: both transformers precompute a
:class:`CompiledInverse` at fit/load time, so decoding a sample chunk
is a handful of whole-array operations on the transposed samples (one
clip+affine over all simple-normalized columns, one gather+max+scan per
width band of one-hot / GMM-mode blocks, ...) instead of per-attribute
numpy calls re-issued for every chunk of a streaming ``sample_iter``.
The sampling forward hands over Fortran-ordered samples, so each column
the inverse reads is one contiguous row of ``samples.T``.  The compiled
path is bit-identical to the per-block reference (``inverse(...,
vectorized=False)``).  It reads float32 samples (a float32 model's
output) without upcasting the whole matrix: see
:meth:`CompiledInverse.__call__`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..datasets.schema import Schema, Table, schema_from_dict, schema_to_dict
from ..errors import TransformError
from .base import AttributeTransformer, BlockSpec, attribute_transformer_from_state
from .categorical import OneHotEncoder, OrdinalEncoder, TanhOrdinalEncoder
from .numerical import GMMNormalizer, SimpleNormalizer

ORDINAL = "ordinal"
ONEHOT = "onehot"
SIMPLE = "simple"
GMM = "gmm"


class CompiledInverse:
    """Whole-matrix inverse transform for a fitted block layout.

    Decoding one sample chunk used to walk the attribute blocks and call
    each :meth:`AttributeTransformer.inverse` in turn — dozens of small
    numpy calls per chunk, re-dispatched for every chunk of a streaming
    ``sample_iter``.  This compiler gathers every block's decode
    parameters **once** (at fit/load time) into flat arrays grouped by
    decode kind, so applying the inverse is a handful of whole-array
    operations regardless of attribute count:

    * ``simple``-normalized columns: one clip + one affine map;
    * ``ordinal`` / ``tanh_ordinal`` columns: one round + clip each;
    * one-hot blocks: per band of similar widths (:class:`_Argmax`),
      one gather of ``(span, blocks, n)`` rows of ``samples.T``, one max
      over axis 0 and a scan for the first row equal to it (NaN counting
      as the maximum), which is numpy's ``argmax`` without its one inner
      loop per row and block;
    * GMM (mode-specific) blocks: the same grouped argmax for the mode,
      then one gather over the stacked per-mode means/stds.

    Every kind reads ``samples.T``, one attribute column per row: the
    sampling forward hands over Fortran-ordered ``(n, D)`` samples
    (:class:`repro.gan.heads.MultiHead`), whose columns are then
    contiguous rows; C-ordered samples are transposed once first.
    Every kind evaluates the exact elementwise expressions of the
    per-block reference ``inverse`` methods, so decoded columns are
    bit-identical to the legacy path.
    """

    def __init__(self, blocks: Sequence[BlockSpec], transformers):
        simple = []     # (name, col, min, range, integral)
        rounded = []    # (name, col, scale, domain, tanh-scaled?)
        onehot = []     # (name, start, width)
        gmm = []        # (name, start, width, means, stds, integral)
        for block in blocks:
            spec = transformers[block.name].inverse_spec()
            kind = spec["kind"]
            if kind == "simple":
                simple.append((block.name, block.start, spec["min"],
                               spec["range"], spec["integral"]))
            elif kind in ("ordinal", "tanh_ordinal"):
                rounded.append((block.name, block.start, spec["scale"],
                                spec["domain_size"],
                                kind == "tanh_ordinal"))
            elif kind == "onehot":
                onehot.append((block.name, block.start, spec["width"]))
            elif kind == "gmm":
                gmm.append((block.name, block.start, block.width - 1,
                            spec["means"], spec["stds"], spec["integral"]))
            else:
                raise TransformError(
                    f"unknown inverse kind {kind!r} for {block.name!r}")
        self._simple = self._pack_simple(simple)
        self._rounded = self._pack_rounded(rounded)
        self._onehot = [name for name, _, _ in onehot]
        self._gmm = self._pack_gmm(gmm)
        # One argmax pass over every one-hot block, then every GMM block's
        # mode indicators.
        argmax_blocks = ([(start, width) for _, start, width in onehot]
                         + [(start + 1, width) for _, start, width, *_ in gmm])
        self._argmax = _Argmax(argmax_blocks) if argmax_blocks else None

    @staticmethod
    def _pack_simple(simple):
        if not simple:
            return None
        names, cols, mins, ranges, integral = zip(*simple)
        return (list(names), np.asarray(cols), np.asarray(mins)[:, None],
                np.asarray(ranges)[:, None],
                np.asarray(integral, dtype=bool))

    @staticmethod
    def _pack_rounded(rounded):
        if not rounded:
            return None
        names, cols, scales, domains, tanh = zip(*rounded)
        return (list(names), np.asarray(cols), np.asarray(scales)[:, None],
                np.asarray(domains, dtype=np.int64)[:, None],
                np.asarray(tanh, dtype=bool)[:, None])

    @staticmethod
    def _pack_gmm(gmm):
        if not gmm:
            return None
        names = [name for name, *_ in gmm]
        vcols = np.asarray([start for _, start, *_ in gmm])
        max_k = max(width for _, _, width, _, _, _ in gmm)
        means = np.zeros((len(gmm), max_k))
        stds = np.ones((len(gmm), max_k))
        for g, (_, _, width, mu, sigma, _) in enumerate(gmm):
            means[g, :width] = mu
            stds[g, :width] = sigma
        integral = np.asarray([flag for *_, flag in gmm], dtype=bool)
        return names, vcols, means, stds, integral

    def __call__(self, samples: np.ndarray) -> Dict[str, np.ndarray]:
        """Decode ``(n, output_dim)`` samples into attribute columns.

        ``samples`` is float32 or float64, in either memory order.  The
        argmax gathers read it in its own dtype (widening is exact and
        keeps the order, so the same column wins); the value columns are
        cast to float64 before any arithmetic.  Decoded columns
        therefore equal those of the float64 upcast bit for bit.
        """
        # One attribute column per row.  Fortran-ordered samples (the
        # sampling forward's) transpose for free; C-ordered ones are
        # copied once, so every gather below reads whole rows (``take``
        # costs about 2.5 us less per call than fancy indexing).
        rows_of = np.ascontiguousarray(samples.T)
        columns: Dict[str, np.ndarray] = {}
        if self._simple is not None:
            names, cols, mins, ranges, integral = self._simple
            clipped = np.clip(_wide(rows_of.take(cols, axis=0)), -1.0, 1.0)
            values = mins + (clipped + 1.0) / 2.0 * ranges
            if integral.any():
                values[integral] = np.rint(values[integral])
            for i, name in enumerate(names):
                columns[name] = values[i]
        if self._rounded is not None:
            names, cols, scales, domains, tanh = self._rounded
            raw = _wide(rows_of.take(cols, axis=0))
            unit = np.where(tanh, (np.clip(raw, -1.0, 1.0) + 1.0) / 2.0, raw)
            codes = np.rint(unit * scales).astype(np.int64)
            codes = np.clip(codes, 0, domains - 1)
            for i, name in enumerate(names):
                columns[name] = codes[i]
        if self._argmax is not None:
            codes = self._argmax(rows_of)
            for i, name in enumerate(self._onehot):
                columns[name] = codes[i]
        if self._gmm is not None:
            names, vcols, means, stds, integral = self._gmm
            modes = codes[len(self._onehot):]
            blocks = np.arange(len(names))[:, None]
            v_gmm = np.clip(_wide(rows_of.take(vcols, axis=0)), -1.0, 1.0)
            values = (v_gmm * 2.0 * stds[blocks, modes]
                      + means[blocks, modes])
            if integral.any():
                values[integral] = np.rint(values[integral])
            for i, name in enumerate(names):
                columns[name] = values[i]
        return columns


class _Argmax:
    """Per-block argmax over the rows of transposed samples, one band of
    blocks at a time, in a fixed number of whole-array passes per band.

    A band holds the blocks of widths 1-8, 9-16, 17-32, 33-64 and so on
    (doubling), each padded to the band's ``span`` with its first column
    (a duplicate after the original never wins a first-occurrence
    argmax), so padding at most doubles the work of any band but the
    first.  A block's code is the index of its first entry equal to its
    max (``-0.0 == 0.0``), as in numpy's ``argmax``: each hit entry gets
    the rank ``span - index``, and the largest rank found gives the code.
    """

    def __init__(self, blocks: Sequence[tuple]):
        bands: Dict[int, list] = {}
        for position, (start, width) in enumerate(blocks):
            bands.setdefault(((width - 1) // 8).bit_length(), []).append(
                (position, start, width))
        #: ``(positions, rows, ranks)`` per band: its blocks' positions in
        #: ``blocks``, the ``(span, blocks)`` sample columns it reads, and
        #: ``(span, 1, 1)`` ranks in the smallest unsigned dtype that
        #: holds them.
        self.bands = []
        spans = np.empty(len(blocks), dtype=np.int64)
        for members in bands.values():
            span = max(width for *_, width in members)
            positions = np.asarray([position for position, *_ in members])
            rows = np.empty((span, len(members)), dtype=np.intp)
            for k, (_, start, width) in enumerate(members):
                rows[:, k] = start
                rows[:width, k] += np.arange(width)
            spans[positions] = span
            ranks = np.arange(span, 0, -1, dtype=np.min_scalar_type(span))
            self.bands.append((positions, rows, ranks[:, None, None]))
        self._spans = spans[:, None]

    def __call__(self, rows_of: np.ndarray) -> np.ndarray:
        """``(blocks, n)`` int64 codes of ``rows_of`` (the samples
        transposed), one row per block in ``blocks`` order."""
        keys = np.empty((len(self._spans), rows_of.shape[1]), dtype=np.int64)
        for positions, rows, ranks in self.bands:
            block = rows_of.take(rows, axis=0)
            keys[positions] = np.multiply(block == block.max(axis=0),
                                          ranks).max(axis=0)
        if not keys.all():
            # A block holding a NaN has a NaN max that no entry equals
            # (key 0); as in numpy, its first NaN wins.
            for positions, rows, ranks in self.bands:
                first_nan = np.multiply(np.isnan(rows_of.take(rows, axis=0)),
                                        ranks).max(axis=0)
                keys[positions] = np.maximum(keys[positions], first_nan)
        return np.subtract(self._spans, keys, out=keys)


def _wide(values: np.ndarray) -> np.ndarray:
    """``values`` as float64 (no copy when it already is)."""
    return values.astype(np.float64, copy=False)


def _as_samples(samples) -> np.ndarray:
    """Generator output for an inverse: float32 stays as it is (the
    compiled inverse reads it), anything else becomes float64."""
    samples = np.asarray(samples)
    return samples if samples.dtype == np.float32 else _wide(samples)


def _make_categorical(encoding: str) -> AttributeTransformer:
    if encoding == ORDINAL:
        return OrdinalEncoder()
    if encoding == ONEHOT:
        return OneHotEncoder()
    raise TransformError(f"unknown categorical encoding {encoding!r}")


def _make_numerical(normalization: str, integral: bool, gmm_components: int,
                    rng: np.random.Generator) -> AttributeTransformer:
    if normalization == SIMPLE:
        return SimpleNormalizer(integral=integral)
    if normalization == GMM:
        return GMMNormalizer(n_components=gmm_components, integral=integral,
                             rng=rng)
    raise TransformError(f"unknown numerical normalization {normalization!r}")


class RecordTransformer:
    """Vector-form sample transformer (MLP / LSTM pipelines).

    Parameters
    ----------
    categorical_encoding:
        ``"ordinal"`` or ``"onehot"``.
    numerical_normalization:
        ``"simple"`` or ``"gmm"``.
    exclude:
        Attribute names excluded from the sample (the conditional-GAN
        pipeline excludes the label, which travels as the condition
        vector instead).
    """

    def __init__(self, categorical_encoding: str = ONEHOT,
                 numerical_normalization: str = GMM,
                 gmm_components: int = 5,
                 exclude: Sequence[str] = (),
                 rng: Optional[np.random.Generator] = None):
        self.categorical_encoding = categorical_encoding
        self.numerical_normalization = numerical_normalization
        self.gmm_components = gmm_components
        self.exclude = tuple(exclude)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.schema: Optional[Schema] = None
        self.transformers: Dict[str, AttributeTransformer] = {}
        self.blocks: List[BlockSpec] = []
        self.output_dim = 0
        self._compiled: Optional[CompiledInverse] = None

    @property
    def attribute_names(self) -> List[str]:
        if self.schema is None:
            raise TransformError("transformer is not fitted")
        return [a.name for a in self.schema.attributes
                if a.name not in self.exclude]

    def fit(self, table: Table) -> "RecordTransformer":
        self.schema = table.schema
        self.transformers = {}
        self.blocks = []
        offset = 0
        for attr in table.schema:
            if attr.name in self.exclude:
                continue
            if attr.is_categorical:
                transformer = _make_categorical(self.categorical_encoding)
            else:
                transformer = _make_numerical(
                    self.numerical_normalization, attr.integral,
                    self.gmm_components, self.rng)
            transformer.fit(table.column(attr.name))
            self.transformers[attr.name] = transformer
            self.blocks.append(BlockSpec(
                name=attr.name, start=offset, width=transformer.width,
                head=transformer.head,
                discrete_block=transformer.discrete_block))
            offset += transformer.width
        self.output_dim = offset
        if self.output_dim == 0:
            raise TransformError("no attributes to transform")
        self._compiled = CompiledInverse(self.blocks, self.transformers)
        return self

    def partial_fit(self, table: Table) -> "RecordTransformer":
        """Absorb one stream chunk into per-attribute running statistics.

        The first chunk establishes the schema and constructs the
        per-attribute transformers; later chunks widen the schema under
        the grow-only contract (see
        :func:`repro.stream.reservoir.widen_schema`) and update each
        transformer's running statistics.  The block layout and
        compiled inverse are only valid after :meth:`finalize`.
        """
        from ..stream.reservoir import widen_schema

        if self.schema is None or not self.transformers:
            self.schema = table.schema
            self.transformers = {}
            for attr in table.schema:
                if attr.name in self.exclude:
                    continue
                if attr.is_categorical:
                    transformer = _make_categorical(self.categorical_encoding)
                else:
                    transformer = _make_numerical(
                        self.numerical_normalization, attr.integral,
                        self.gmm_components, self.rng)
                self.transformers[attr.name] = transformer
        else:
            self.schema = widen_schema(self.schema, table.schema)
        for name, transformer in self.transformers.items():
            transformer.partial_fit(table.column(name))
        # Layout is stale until finalize(): block widths may still grow.
        self.blocks = []
        self.output_dim = 0
        self._compiled = None
        return self

    def finalize(self) -> "RecordTransformer":
        """Seal running statistics and rebuild the block layout."""
        if self.schema is None or not self.transformers:
            raise TransformError("no chunks were partially fitted")
        self.blocks = []
        offset = 0
        for attr in self.schema:
            if attr.name in self.exclude:
                continue
            transformer = self.transformers[attr.name]
            transformer.finalize_partial()
            self.blocks.append(BlockSpec(
                name=attr.name, start=offset, width=transformer.width,
                head=transformer.head,
                discrete_block=transformer.discrete_block))
            offset += transformer.width
        self.output_dim = offset
        if self.output_dim == 0:
            raise TransformError("no attributes to transform")
        self._compiled = CompiledInverse(self.blocks, self.transformers)
        return self

    def reset(self) -> "RecordTransformer":
        """Drop all fitted and accumulated state (refit escape hatch)."""
        self.schema = None
        self.transformers = {}
        self.blocks = []
        self.output_dim = 0
        self._compiled = None
        return self

    def transform(self, table: Table) -> np.ndarray:
        if self.schema is None:
            raise TransformError("transformer is not fitted")
        parts = [self.transformers[name].transform(table.column(name))
                 for name in self.attribute_names]
        return np.concatenate(parts, axis=1)

    def inverse(self, samples: np.ndarray,
                extra_columns: Optional[Dict[str, np.ndarray]] = None,
                vectorized: bool = True) -> Table:
        """Convert samples back into a table.

        ``extra_columns`` supplies excluded attributes (e.g. the label in
        conditional synthesis).  ``vectorized=True`` (the default)
        decodes through the precomputed :class:`CompiledInverse` —
        whole-matrix ops, bit-identical to the per-block reference path
        selected by ``vectorized=False``, for float32 and float64
        samples alike.
        """
        if self.schema is None:
            raise TransformError("transformer is not fitted")
        samples = _as_samples(samples)
        if samples.ndim != 2 or samples.shape[1] != self.output_dim:
            raise TransformError(
                f"expected samples of width {self.output_dim}, "
                f"got {samples.shape}")
        if vectorized:
            if self._compiled is None:
                self._compiled = CompiledInverse(self.blocks,
                                                 self.transformers)
            columns = self._compiled(samples)
        else:
            samples = _wide(samples)
            columns = {}
            for block in self.blocks:
                transformer = self.transformers[block.name]
                columns[block.name] = transformer.inverse(
                    samples[:, block.slice])
        extra_columns = extra_columns or {}
        for name in self.exclude:
            if name not in extra_columns:
                raise TransformError(
                    f"excluded attribute {name!r} needs an explicit column")
            columns[name] = extra_columns[name]
        return Table(self.schema, columns)

    def to_state(self) -> dict:
        """JSON-serializable fitted state (synthesizer persistence)."""
        if self.schema is None:
            raise TransformError("transformer is not fitted")
        return {
            "form": "record",
            "categorical_encoding": self.categorical_encoding,
            "numerical_normalization": self.numerical_normalization,
            "gmm_components": self.gmm_components,
            "exclude": list(self.exclude),
            "schema": schema_to_dict(self.schema),
            "transformers": {name: t.to_state()
                             for name, t in self.transformers.items()},
        }

    @classmethod
    def from_state(cls, state: dict,
                   rng: Optional[np.random.Generator] = None
                   ) -> "RecordTransformer":
        """Rebuild a fitted transformer without refitting any data."""
        transformer = cls(
            categorical_encoding=state["categorical_encoding"],
            numerical_normalization=state["numerical_normalization"],
            gmm_components=state["gmm_components"],
            exclude=state["exclude"], rng=rng)
        transformer.schema = schema_from_dict(state["schema"])
        transformer.transformers = {
            name: attribute_transformer_from_state(sub)
            for name, sub in state["transformers"].items()}
        offset = 0
        for name in transformer.attribute_names:
            sub = transformer.transformers[name]
            transformer.blocks.append(BlockSpec(
                name=name, start=offset, width=sub.width, head=sub.head,
                discrete_block=sub.discrete_block))
            offset += sub.width
        transformer.output_dim = offset
        transformer._compiled = CompiledInverse(transformer.blocks,
                                                transformer.transformers)
        return transformer


class MatrixTransformer:
    """Matrix-form sample transformer (CNN pipeline).

    Each attribute becomes exactly one value in [-1, 1] (tanh-scaled
    ordinal for categorical, simple normalization for numerical); records
    are zero-padded into the smallest square matrix, e.g. 8 attributes ->
    3x3 with one pad cell, matching the paper's §4 example.
    """

    def __init__(self, exclude: Sequence[str] = (),
                 side: Optional[int] = None):
        self.exclude = tuple(exclude)
        self.requested_side = side
        self.schema: Optional[Schema] = None
        self.transformers: Dict[str, AttributeTransformer] = {}
        self.side = 0
        self.n_attributes = 0
        self._compiled: Optional[CompiledInverse] = None

    @property
    def attribute_names(self) -> List[str]:
        if self.schema is None:
            raise TransformError("transformer is not fitted")
        return [a.name for a in self.schema.attributes
                if a.name not in self.exclude]

    def fit(self, table: Table) -> "MatrixTransformer":
        self.schema = table.schema
        self.transformers = {}
        count = 0
        for attr in table.schema:
            if attr.name in self.exclude:
                continue
            if attr.is_categorical:
                transformer = TanhOrdinalEncoder()
            else:
                transformer = SimpleNormalizer(integral=attr.integral)
            transformer.fit(table.column(attr.name))
            self.transformers[attr.name] = transformer
            count += 1
        if count == 0:
            raise TransformError("no attributes to transform")
        self.n_attributes = count
        minimal = int(math.ceil(math.sqrt(count)))
        if self.requested_side is not None:
            if self.requested_side < minimal:
                raise TransformError(
                    f"side {self.requested_side} too small for "
                    f"{count} attributes (need >= {minimal})")
            self.side = self.requested_side
        else:
            self.side = minimal
        self._compiled = CompiledInverse(self._cell_blocks(),
                                         self.transformers)
        return self

    def _cell_blocks(self) -> List[BlockSpec]:
        """One width-1 block per attribute cell of the flattened matrix."""
        return [BlockSpec(name=name, start=i, width=1,
                          head=self.transformers[name].head,
                          discrete_block=False)
                for i, name in enumerate(self.attribute_names)]

    def partial_fit(self, table: Table) -> "MatrixTransformer":
        """Absorb one stream chunk (same contract as RecordTransformer)."""
        from ..stream.reservoir import widen_schema

        if self.schema is None or not self.transformers:
            self.schema = table.schema
            self.transformers = {}
            for attr in table.schema:
                if attr.name in self.exclude:
                    continue
                if attr.is_categorical:
                    transformer = TanhOrdinalEncoder()
                else:
                    transformer = SimpleNormalizer(integral=attr.integral)
                self.transformers[attr.name] = transformer
        else:
            self.schema = widen_schema(self.schema, table.schema)
        for name, transformer in self.transformers.items():
            transformer.partial_fit(table.column(name))
        self._compiled = None
        return self

    def finalize(self) -> "MatrixTransformer":
        """Seal running statistics and fix the matrix layout."""
        if self.schema is None or not self.transformers:
            raise TransformError("no chunks were partially fitted")
        count = 0
        for name in self.attribute_names:
            self.transformers[name].finalize_partial()
            count += 1
        if count == 0:
            raise TransformError("no attributes to transform")
        self.n_attributes = count
        minimal = int(math.ceil(math.sqrt(count)))
        if self.requested_side is not None:
            if self.requested_side < minimal:
                raise TransformError(
                    f"side {self.requested_side} too small for "
                    f"{count} attributes (need >= {minimal})")
            self.side = self.requested_side
        else:
            self.side = minimal
        self._compiled = CompiledInverse(self._cell_blocks(),
                                         self.transformers)
        return self

    def reset(self) -> "MatrixTransformer":
        """Drop all fitted and accumulated state (refit escape hatch)."""
        self.schema = None
        self.transformers = {}
        self.side = 0
        self.n_attributes = 0
        self._compiled = None
        return self

    def transform(self, table: Table) -> np.ndarray:
        """Encode into shape ``(n, 1, side, side)``."""
        if self.schema is None:
            raise TransformError("transformer is not fitted")
        parts = [self.transformers[name].transform(table.column(name))
                 for name in self.attribute_names]
        flat = np.concatenate(parts, axis=1)
        n = flat.shape[0]
        padded = np.zeros((n, self.side * self.side))
        padded[:, :self.n_attributes] = flat
        return padded.reshape(n, 1, self.side, self.side)

    def inverse(self, samples: np.ndarray,
                extra_columns: Optional[Dict[str, np.ndarray]] = None,
                vectorized: bool = True) -> Table:
        if self.schema is None:
            raise TransformError("transformer is not fitted")
        samples = _as_samples(samples)
        if samples.ndim != 4 or samples.shape[2] != self.side:
            raise TransformError(
                f"expected samples (n, 1, {self.side}, {self.side}), "
                f"got {samples.shape}")
        flat = samples.reshape(samples.shape[0], -1)[:, :self.n_attributes]
        if vectorized:
            if self._compiled is None:
                self._compiled = CompiledInverse(self._cell_blocks(),
                                                 self.transformers)
            columns = self._compiled(flat)
        else:
            flat = _wide(flat)
            columns = {}
            for i, name in enumerate(self.attribute_names):
                columns[name] = self.transformers[name].inverse(
                    flat[:, i:i + 1])
        extra_columns = extra_columns or {}
        for name in self.exclude:
            if name not in extra_columns:
                raise TransformError(
                    f"excluded attribute {name!r} needs an explicit column")
            columns[name] = extra_columns[name]
        return Table(self.schema, columns)

    def to_state(self) -> dict:
        """JSON-serializable fitted state (synthesizer persistence)."""
        if self.schema is None:
            raise TransformError("transformer is not fitted")
        return {
            "form": "matrix",
            "exclude": list(self.exclude),
            "requested_side": self.requested_side,
            "side": self.side,
            "n_attributes": self.n_attributes,
            "schema": schema_to_dict(self.schema),
            "transformers": {name: t.to_state()
                             for name, t in self.transformers.items()},
        }

    @classmethod
    def from_state(cls, state: dict) -> "MatrixTransformer":
        """Rebuild a fitted transformer without refitting any data."""
        transformer = cls(exclude=state["exclude"],
                          side=state["requested_side"])
        transformer.schema = schema_from_dict(state["schema"])
        transformer.side = int(state["side"])
        transformer.n_attributes = int(state["n_attributes"])
        transformer.transformers = {
            name: attribute_transformer_from_state(sub)
            for name, sub in state["transformers"].items()}
        transformer._compiled = CompiledInverse(transformer._cell_blocks(),
                                                transformer.transformers)
        return transformer


def transformer_from_state(state: dict,
                           rng: Optional[np.random.Generator] = None):
    """Rebuild either sample-form transformer from its ``to_state`` dict."""
    form = state.get("form")
    if form == "record":
        return RecordTransformer.from_state(state, rng=rng)
    if form == "matrix":
        return MatrixTransformer.from_state(state)
    raise TransformError(f"unknown transformer form {form!r}")
