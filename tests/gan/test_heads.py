"""Attribute-aware output heads (cases C1-C4)."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ConfigError
from repro.gan.heads import BlockHead, MultiHead, _multi_activation
from repro.nn import Tensor, default_dtype, no_grad
from repro.transform.base import (
    BlockSpec, HEAD_SIGMOID, HEAD_SOFTMAX, HEAD_TANH, HEAD_TANH_SOFTMAX,
)


def block(head, width, start=0, name="b"):
    return BlockSpec(name=name, start=start, width=width, head=head,
                     discrete_block=head in (HEAD_SOFTMAX,
                                             HEAD_TANH_SOFTMAX))


class TestBlockHead:
    def test_tanh_head_bounded(self, rng):
        head = BlockHead(8, block(HEAD_TANH, 1), rng=rng)
        out = head(Tensor(rng.normal(size=(16, 8)) * 10)).data
        assert (np.abs(out) <= 1.0).all()
        assert out.shape == (16, 1)

    def test_sigmoid_head_in_unit_interval(self, rng):
        head = BlockHead(8, block(HEAD_SIGMOID, 1), rng=rng)
        out = head(Tensor(rng.normal(size=(16, 8)) * 10)).data
        assert ((out >= 0) & (out <= 1)).all()

    def test_softmax_head_distribution(self, rng):
        head = BlockHead(8, block(HEAD_SOFTMAX, 5), rng=rng)
        out = head(Tensor(rng.normal(size=(16, 8)))).data
        assert out.shape == (16, 5)
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_tanh_softmax_head_structure(self, rng):
        head = BlockHead(8, block(HEAD_TANH_SOFTMAX, 4), rng=rng)
        out = head(Tensor(rng.normal(size=(16, 8)))).data
        assert out.shape == (16, 4)
        assert (np.abs(out[:, 0]) <= 1.0).all()
        np.testing.assert_allclose(out[:, 1:].sum(axis=1), 1.0)

    def test_unknown_head_rejected(self, rng):
        spec = BlockSpec(name="x", start=0, width=1, head="linear",
                         discrete_block=False)
        head = BlockHead.__new__(BlockHead)
        # Constructing with a bad head should fail at forward at latest.
        with pytest.raises(Exception):
            BlockHead(8, spec, rng=rng)(Tensor(rng.normal(size=(2, 8))))


class TestMultiHead:
    def test_concatenates_blocks_in_order(self, rng):
        blocks = [block(HEAD_TANH, 1, start=0, name="a"),
                  block(HEAD_SOFTMAX, 3, start=1, name="b"),
                  block(HEAD_SIGMOID, 1, start=4, name="c")]
        multi = MultiHead(8, blocks, rng=rng)
        out = multi(Tensor(rng.normal(size=(10, 8)))).data
        assert out.shape == (10, 5)
        np.testing.assert_allclose(out[:, 1:4].sum(axis=1), 1.0)

    def test_gradients_reach_all_heads(self, rng):
        blocks = [block(HEAD_TANH, 1, start=0, name="a"),
                  block(HEAD_SOFTMAX, 3, start=1, name="b")]
        multi = MultiHead(8, blocks, rng=rng)
        multi(Tensor(rng.normal(size=(4, 8)))).sum().backward()
        for param in multi.parameters():
            assert param.grad is not None


#: Softmax widths: small ones, the edges of numpy's pairwise-sum shapes
#: (a rest of 7/8 terms, 15/16, 127/128/129) and anything up to 160.
_SOFTMAX_WIDTH = st.one_of(
    st.integers(1, 12),
    st.sampled_from([8, 9, 16, 17, 128, 129, 130]),
    st.integers(1, 160))

_HEAD = st.one_of(
    st.tuples(st.sampled_from([HEAD_TANH, HEAD_SIGMOID]), st.just(1)),
    st.tuples(st.just(HEAD_SOFTMAX), _SOFTMAX_WIDTH),
    st.tuples(st.just(HEAD_TANH_SOFTMAX),
              _SOFTMAX_WIDTH.map(lambda width: width + 1)))

#: Planted pre-activations: infinities, NaN, signed zeros and repeated
#: values (ties within a segment).
_PLANTED = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0, 3.0])


@st.composite
def _activation_case(draw):
    """A head layout, a dtype and a pre-activation matrix for it."""
    heads = draw(st.lists(_HEAD, min_size=1, max_size=6))
    blocks, start = [], 0
    for i, (head, width) in enumerate(heads):
        blocks.append(block(head, width, start=start, name=f"b{i}"))
        start += width
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rows = draw(st.one_of(st.integers(1, 40), st.integers(1, 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([0.5, 5.0, 60.0]))
    pre = rng.normal(scale=scale, size=(rows, start))
    rate = draw(st.sampled_from([0.0, 0.01, 0.2]))
    planted = rng.choice(_PLANTED, size=pre.shape)
    pre = np.where(rng.random(pre.shape) < rate, planted, pre)
    return blocks, pre.astype(dtype)


class TestSamplingActivation:
    """The no-grad activation kernel (sampling and the float32 D step)
    against the taped one (the ``reduceat`` reference) it replaces."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(_activation_case())
    def test_no_grad_branch_matches_taped_branch_bit_for_bit(self, case):
        blocks, pre = case
        with default_dtype(pre.dtype), warnings.catch_warnings():
            # inf - inf and the like warn on both branches alike.
            warnings.simplefilter("ignore", RuntimeWarning)
            multi = MultiHead(4, blocks, rng=np.random.default_rng(0))
            taped = _multi_activation(Tensor(pre.copy(), requires_grad=True),
                                      multi._seg_info)
            with no_grad():
                sampled = _multi_activation(Tensor(pre.copy()),
                                            multi._seg_info, order="F")
        assert taped.requires_grad
        assert sampled.data.dtype == taped.data.dtype == pre.dtype
        assert sampled.data.flags.f_contiguous
        assert (np.ascontiguousarray(sampled.data).tobytes()
                == taped.data.tobytes())

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_eval_forward_is_fortran_ordered_train_forward_c_ordered(
            self, dtype):
        """Sampling hands the inverse Fortran order (each column one
        contiguous row of the transposed buffer); a training-mode
        forward, which the discriminator's GEMM reads, stays C-ordered."""
        blocks = [block(HEAD_TANH_SOFTMAX, 6, start=0, name="a"),
                  block(HEAD_SOFTMAX, 9, start=6, name="b"),
                  block(HEAD_SIGMOID, 1, start=15, name="c")]
        with default_dtype(dtype):
            multi = MultiHead(8, blocks, rng=np.random.default_rng(0))
            h = Tensor(np.random.default_rng(1).normal(size=(32, 8)))
            with no_grad():
                multi.eval()
                sampled = multi(h).data
                multi.train()
                trained = multi(h).data
        assert sampled.flags.f_contiguous and not sampled.flags.c_contiguous
        assert trained.flags.c_contiguous
        if dtype == "float32":
            # Both take the joint kernel (float64 training keeps the
            # per-head one), so only the memory order differs.
            assert (np.ascontiguousarray(sampled).tobytes()
                    == trained.tobytes())
