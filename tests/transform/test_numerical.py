"""Numerical normalizers: simple min-max and GMM-based."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TransformError
from repro.transform import GMMNormalizer, SimpleNormalizer
from repro.transform.base import HEAD_TANH, HEAD_TANH_SOFTMAX


class TestSimpleNormalizer:
    def test_range_is_minus_one_to_one(self, rng):
        values = rng.normal(10.0, 5.0, 100)
        norm = SimpleNormalizer().fit(values)
        out = norm.transform(values)
        assert out.min() == pytest.approx(-1.0)
        assert out.max() == pytest.approx(1.0)

    def test_round_trip(self, rng):
        values = rng.uniform(-50, 50, 40)
        norm = SimpleNormalizer().fit(values)
        np.testing.assert_allclose(norm.inverse(norm.transform(values)),
                                   values, atol=1e-9)

    def test_integral_rounds(self):
        values = np.array([1.0, 5.0, 9.0])
        norm = SimpleNormalizer(integral=True).fit(values)
        block = norm.transform(np.array([4.9]))
        assert float(norm.inverse(block)[0]) == pytest.approx(5.0)

    def test_inverse_clips_overflow(self):
        norm = SimpleNormalizer().fit(np.array([0.0, 10.0]))
        decoded = norm.inverse(np.array([[3.0], [-3.0]]))
        assert decoded[0] == pytest.approx(10.0)
        assert decoded[1] == pytest.approx(0.0)

    def test_constant_column(self):
        norm = SimpleNormalizer().fit(np.array([7.0, 7.0]))
        out = norm.transform(np.array([7.0]))
        assert np.isfinite(out).all()
        assert norm.inverse(out)[0] == pytest.approx(7.0, abs=1e-6)

    def test_head(self):
        assert SimpleNormalizer().head == HEAD_TANH


class TestGMMNormalizer:
    def test_width_is_one_plus_components(self, rng):
        values = rng.normal(size=500)
        norm = GMMNormalizer(n_components=5, rng=rng).fit(values)
        assert norm.width == 1 + norm.n_components
        assert norm.transform(values).shape == (500, norm.width)

    def test_mode_indicator_is_one_hot(self, rng):
        values = np.concatenate([rng.normal(-10, 1, 200),
                                 rng.normal(10, 1, 200)])
        norm = GMMNormalizer(n_components=2, rng=rng).fit(values)
        block = norm.transform(values)
        modes = block[:, 1:]
        np.testing.assert_allclose(modes.sum(axis=1), 1.0)
        assert set(np.unique(modes)) <= {0.0, 1.0}

    def test_bimodal_recovery(self, rng):
        """Values from two far modes map back close to themselves."""
        values = np.concatenate([rng.normal(-10, 0.5, 300),
                                 rng.normal(10, 0.5, 300)])
        norm = GMMNormalizer(n_components=2, rng=rng).fit(values)
        decoded = norm.inverse(norm.transform(values))
        assert np.abs(decoded - values).mean() < 0.5

    def test_vgmm_clipped(self, rng):
        values = rng.normal(size=300)
        norm = GMMNormalizer(n_components=3, rng=rng).fit(values)
        block = norm.transform(np.array([1e6]))  # extreme outlier
        assert abs(block[0, 0]) <= 1.0

    def test_low_cardinality_collapses_components(self, rng):
        values = np.array([1.0, 2.0] * 50)
        norm = GMMNormalizer(n_components=5, rng=rng).fit(values)
        assert norm.n_components <= 2

    def test_head_and_discreteness(self, rng):
        norm = GMMNormalizer(rng=rng)
        assert norm.head == HEAD_TANH_SOFTMAX
        assert norm.discrete_block

    def test_unfitted_raises(self):
        with pytest.raises(TransformError):
            GMMNormalizer().transform(np.array([1.0]))

    def test_integral_rounds(self, rng):
        values = np.round(rng.normal(100, 20, 200))
        norm = GMMNormalizer(integral=True, rng=rng).fit(values)
        decoded = norm.inverse(norm.transform(values))
        np.testing.assert_allclose(decoded, np.round(decoded))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=50))
def test_property_simple_normalizer_round_trip(values):
    values = np.array(values)
    norm = SimpleNormalizer().fit(values)
    decoded = norm.inverse(norm.transform(values))
    span = max(values.max() - values.min(), 1.0)
    assert np.abs(decoded - values).max() <= 1e-6 * span + 1e-9


@st.composite
def _gmm_fit(draw):
    """A GMM normalizer fitted on a drawn mixture, plus values to encode:
    the training values and outliers beyond them."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, 4))
    means = rng.uniform(-1e3, 1e3, k)
    stds = 10.0 ** rng.uniform(-2, 2, k)
    n = draw(st.integers(2, 300))
    modes = rng.integers(0, k, n)
    values = rng.normal(means[modes], stds[modes])
    if draw(st.booleans()):
        values = np.round(values)
    norm = GMMNormalizer(n_components=draw(st.integers(1, 5)),
                         integral=draw(st.booleans()), rng=rng).fit(values)
    reach = rng.exponential(1e3, 5)
    return norm, np.concatenate([values, values.min() - reach,
                                 values.max() + reach])


@settings(max_examples=100, deadline=None)
@given(_gmm_fit())
def test_property_gmm_inverse_forward_is_identity_up_to_the_clip(case):
    """inverse(transform(x)) for a value of assigned mode k is x itself
    within 2 sigma_k of mu_k and the clip bound mu_k +- 2 sigma_k beyond
    it (the normalized value is clipped to [-1, 1]); an integral column
    decodes to the rint of that."""
    norm, values = case
    block = norm.transform(values)
    mode = norm.gmm.assign(values)
    mu, sigma = norm.gmm.means[mode], norm.gmm.stds[mode]
    bound = mu + np.sign(values - mu) * 2.0 * sigma
    expected = np.where(np.abs(values - mu) <= 2.0 * sigma, values, bound)
    state = norm.to_state()
    plain = GMMNormalizer.from_state({**state, "integral": False})
    decoded = plain.inverse(block)
    tolerance = 1e-12 * (np.maximum(np.abs(values), np.abs(mu)) + 2 * sigma)
    assert (np.abs(decoded - expected) <= tolerance).all()
    np.testing.assert_array_equal(norm.inverse(block),
                                  np.rint(decoded) if norm.integral
                                  else decoded)
