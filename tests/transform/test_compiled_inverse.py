"""Vectorized (compiled) inverse vs the per-block reference path.

The compiled inverse must be **bit-identical** to walking the attribute
blocks and calling each transformer's ``inverse`` — same values, same
dtypes — for every encoding/normalization combination, after state
round trips, and for the matrix (CNN) sample form.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.datasets.schema import (
    Attribute, CATEGORICAL, NUMERICAL, Schema, Table,
)
from repro.transform import MatrixTransformer, RecordTransformer
from repro.transform.record import CompiledInverse, transformer_from_state

from tests.conftest import make_mixed_table


@pytest.fixture(scope="module")
def table():
    return make_mixed_table(n=250, seed=2)


@pytest.fixture(scope="module")
def integral_table():
    """Mixed table with an integral numerical attribute (rint on decode)."""
    rng = np.random.default_rng(5)
    n = 200
    schema = Schema(
        attributes=(
            Attribute("count", NUMERICAL, integral=True),
            Attribute("score", NUMERICAL),
            Attribute("kind", CATEGORICAL, categories=("a", "b", "c")),
        ),
    )
    return Table(schema, {
        "count": rng.integers(0, 50, n).astype(np.float64),
        "score": rng.normal(size=n),
        "kind": rng.integers(0, 3, n),
    })


def assert_columns_identical(a, b):
    assert a.schema.names == b.schema.names
    for name in a.schema.names:
        ca, cb = a.column(name), b.column(name)
        assert ca.dtype == cb.dtype, name
        np.testing.assert_array_equal(ca, cb)


@pytest.mark.parametrize("encoding", ["onehot", "ordinal"])
@pytest.mark.parametrize("normalization", ["gmm", "simple"])
class TestRecordCompiledInverse:
    def test_bit_identical_to_reference(self, table, encoding,
                                        normalization):
        transformer = RecordTransformer(
            categorical_encoding=encoding,
            numerical_normalization=normalization,
            rng=np.random.default_rng(1)).fit(table)
        samples = np.random.default_rng(0).normal(
            scale=0.8, size=(400, transformer.output_dim))
        assert_columns_identical(
            transformer.inverse(samples),
            transformer.inverse(samples, vectorized=False))

    def test_state_round_trip_keeps_compiled_path(self, table, encoding,
                                                  normalization):
        transformer = RecordTransformer(
            categorical_encoding=encoding,
            numerical_normalization=normalization,
            rng=np.random.default_rng(1)).fit(table)
        samples = np.random.default_rng(0).normal(
            scale=0.8, size=(120, transformer.output_dim))
        restored = transformer_from_state(transformer.to_state())
        assert restored._compiled is not None
        assert_columns_identical(transformer.inverse(samples),
                                 restored.inverse(samples))


class TestIntegralAndEdgeCases:
    def test_integral_columns_are_rounded(self, integral_table):
        for normalization in ("simple", "gmm"):
            transformer = RecordTransformer(
                numerical_normalization=normalization,
                rng=np.random.default_rng(2)).fit(integral_table)
            samples = np.random.default_rng(3).normal(
                scale=0.7, size=(300, transformer.output_dim))
            fast = transformer.inverse(samples)
            slow = transformer.inverse(samples, vectorized=False)
            assert_columns_identical(fast, slow)
            counts = fast.column("count")
            np.testing.assert_array_equal(counts, np.rint(counts))

    def test_out_of_range_values_clip_identically(self, table):
        transformer = RecordTransformer(
            rng=np.random.default_rng(1)).fit(table)
        samples = np.random.default_rng(0).normal(
            scale=5.0, size=(200, transformer.output_dim))  # far outside
        assert_columns_identical(
            transformer.inverse(samples),
            transformer.inverse(samples, vectorized=False))

    def test_transform_inverse_round_trip(self, table):
        transformer = RecordTransformer(
            categorical_encoding="onehot", numerical_normalization="simple",
            rng=np.random.default_rng(1)).fit(table)
        encoded = transformer.transform(table)
        decoded = transformer.inverse(encoded)
        for name in ("job", "city", "label"):
            np.testing.assert_array_equal(decoded.column(name),
                                          table.column(name))


class TestMatrixCompiledInverse:
    def test_bit_identical_to_reference(self, table):
        transformer = MatrixTransformer().fit(table)
        samples = np.random.default_rng(4).normal(
            scale=0.8, size=(300, 1, transformer.side, transformer.side))
        assert_columns_identical(
            transformer.inverse(samples),
            transformer.inverse(samples, vectorized=False))

    def test_state_round_trip(self, table):
        transformer = MatrixTransformer().fit(table)
        samples = np.random.default_rng(4).normal(
            scale=0.8, size=(80, 1, transformer.side, transformer.side))
        restored = transformer_from_state(transformer.to_state())
        assert restored._compiled is not None
        assert_columns_identical(transformer.inverse(samples),
                                 restored.inverse(samples))


class TestCompiledInverseInternals:
    def test_argmax_padding_never_wins(self):
        """Padded duplicate columns must not steal the argmax from the
        real first occurrence (tie-breaking contract)."""
        transformer = RecordTransformer(
            categorical_encoding="onehot", numerical_normalization="simple",
            rng=np.random.default_rng(1))
        table = make_mixed_table(n=100, seed=0)
        transformer.fit(table)
        width = transformer.output_dim
        # All-equal scores: argmax must pick each block's first column.
        samples = np.zeros((5, width))
        decoded = transformer.inverse(samples)
        reference = transformer.inverse(samples, vectorized=False)
        assert_columns_identical(decoded, reference)

    def test_unknown_kind_rejected(self, table):
        transformer = RecordTransformer(
            rng=np.random.default_rng(1)).fit(table)

        class Weird:
            def inverse_spec(self):
                return {"kind": "nope"}

        from repro.errors import TransformError
        with pytest.raises(TransformError, match="unknown inverse kind"):
            CompiledInverse(transformer.blocks[:1],
                            {transformer.blocks[0].name: Weird()})


def assert_bits_identical(a, b):
    """Same columns, dtypes and bit patterns (NaN included)."""
    assert a.schema.names == b.schema.names
    for name in a.schema.names:
        ca, cb = a.column(name), b.column(name)
        assert ca.dtype == cb.dtype, name
        assert ca.tobytes() == cb.tobytes(), name


def _wide_block_table():
    """Categoricals of 1, 9, 17 and 130 categories (one-hot blocks on
    both sides of the argmax's width bands) and a constant numeric
    column (a one-mode GMM block of width 2)."""
    rng = np.random.default_rng(8)
    n = 300
    sizes = {"single": 1, "nine": 9, "seventeen": 17, "wide": 130}
    attributes = tuple(
        Attribute(name, CATEGORICAL,
                  categories=tuple(f"c{i}" for i in range(size)))
        for name, size in sizes.items()) + (Attribute("flat", NUMERICAL),)
    columns = {name: rng.integers(0, size, n) for name, size in sizes.items()}
    columns["flat"] = np.full(n, 2.5)
    return Table(Schema(attributes=attributes), columns)


def _fitted_transformers():
    table = make_mixed_table(n=120, seed=6)
    fitted = [RecordTransformer(categorical_encoding=encoding,
                                numerical_normalization=normalization,
                                rng=np.random.default_rng(1)).fit(table)
              for encoding in ("onehot", "ordinal")
              for normalization in ("gmm", "simple")]
    wide = _wide_block_table()
    fitted += [RecordTransformer(categorical_encoding="onehot",
                                 numerical_normalization=normalization,
                                 rng=np.random.default_rng(1)).fit(wide)
               for normalization in ("gmm", "simple")]
    return fitted + [MatrixTransformer().fit(table)]


_FITTED = _fitted_transformers()

#: Planted values: a few repeated ones (argmax ties), the clip bounds,
#: +-inf, NaN and any other float32.
_PLANTED = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 3.0,
                     float("inf"), float("-inf"), float("nan")]),
    st.floats(width=32))


@st.composite
def _float32_case(draw):
    """A fitted transformer and a float32 sample matrix for it, in C or
    Fortran order: seeded generator-like values with planted ties,
    infinities and NaNs."""
    index = draw(st.integers(0, len(_FITTED) - 1))
    transformer = _FITTED[index]
    rows = draw(st.integers(1, 12))
    if isinstance(transformer, MatrixTransformer):
        shape = (rows, 1, transformer.side, transformer.side)
    else:
        shape = (rows, transformer.output_dim)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    base = np.random.default_rng(seed).uniform(-1.5, 1.5, shape)
    planted = draw(arrays(np.float32, shape, elements=_PLANTED))
    mask = draw(arrays(np.bool_, shape))
    order = draw(st.sampled_from("CF"))
    return transformer, np.asarray(
        np.where(mask, planted, base.astype(np.float32)), order=order)


class TestFloat32Inverse:
    """A float32 model's samples are decoded without upcasting the
    whole matrix, and decode exactly as their float64 upcast does."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_float32_case())
    def test_float32_samples_decode_like_their_upcast(self, case):
        transformer, samples = case
        upcast = samples.astype(np.float64)
        with warnings.catch_warnings():
            # NaN and inf codes hit numpy's invalid-cast warning on
            # every path alike; the decoded codes are clipped after.
            warnings.simplefilter("ignore", RuntimeWarning)
            fast = transformer.inverse(samples)
            wide = transformer.inverse(upcast)
            reference = transformer.inverse(samples, vectorized=False)
        assert_bits_identical(fast, wide)
        assert_bits_identical(fast, reference)
