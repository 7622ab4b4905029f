"""Finite-difference gradient checks over every Tensor op, both dtypes.

The engine runs in a configurable dtype: ``float64`` is the bit-exact
parity mode, ``float32`` the fast-math training mode whose fused/batched
kernels re-associate sums.  Each case builds a scalar loss from the op
under test and compares the tape gradient against central finite
differences computed in float64 parity mode — so the float32 cases also
validate that the fast-math rewrites stay numerically faithful.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor, concat, fused_linear, stack, where
from repro.nn.losses import categorical_kl, categorical_kl_sum
from repro.nn.rnn import addmm, lstm_gates, lstm_step

from tests.conftest import numeric_gradient

TOLS = {
    "float64": dict(atol=1e-7, rtol=1e-5),
    "float32": dict(atol=5e-3, rtol=5e-2),
}


@pytest.fixture(params=["float64", "float32"])
def engine_dtype(request):
    with nn.default_dtype(request.param):
        yield request.param


def check(build, *arrays, dtype):
    """Autograd grads (engine dtype) vs float64 finite differences."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    with nn.default_dtype("float64"):
        for arr, tensor in zip(arrays, tensors):
            numeric = numeric_gradient(
                lambda: float(build(*[Tensor(a) for a in arrays]).data), arr)
            assert tensor.grad is not None
            assert tensor.grad.dtype == np.dtype(dtype)
            np.testing.assert_allclose(tensor.grad, numeric, **TOLS[dtype])


class TestElementwise:
    def test_add_mul_broadcast(self, rng, engine_dtype):
        check(lambda a, b: (a * b + a).sum(),
              rng.normal(size=(3, 4)), rng.normal(size=(4,)),
              dtype=engine_dtype)

    def test_sub_div(self, rng, engine_dtype):
        check(lambda a, b: ((a - b) / (b * b + 1.0)).sum(),
              rng.normal(size=(2, 3)), rng.uniform(0.5, 2.0, size=(2, 3)),
              dtype=engine_dtype)

    def test_pow_neg(self, rng, engine_dtype):
        check(lambda a: (-(a ** 3)).sum(), rng.uniform(0.5, 2.0, size=(4,)),
              dtype=engine_dtype)

    def test_nonlinearity_chain(self, rng, engine_dtype):
        check(lambda a: a.tanh().sigmoid().sum() + a.relu().sum()
              + a.leaky_relu(0.1).sum(),
              rng.normal(size=(3, 3)), dtype=engine_dtype)

    def test_exp_log_sqrt(self, rng, engine_dtype):
        check(lambda a: (a.exp().log().sqrt()).sum(),
              rng.uniform(0.5, 2.0, size=(4,)), dtype=engine_dtype)

    def test_clip(self, rng, engine_dtype):
        # Stay away from the clip boundaries: the subgradient there is
        # ill-defined and finite differences straddle the kink.
        data = rng.uniform(-2.0, 2.0, size=(8,))
        data = data[np.abs(np.abs(data) - 1.0) > 0.05]
        check(lambda a: (a.clip(-1.0, 1.0) * 2.0).sum(), data,
              dtype=engine_dtype)

    def test_where(self, rng, engine_dtype):
        cond = rng.random((3, 4)) > 0.5
        check(lambda a, b: (where(cond, a, b) ** 2).sum(),
              rng.normal(size=(3, 4)), rng.normal(size=(4,)),
              dtype=engine_dtype)


class TestReductions:
    def test_sum_negative_axis(self, rng, engine_dtype):
        check(lambda a: (a.sum(axis=-1) ** 2).sum(),
              rng.normal(size=(3, 4)), dtype=engine_dtype)

    def test_sum_tuple_axes(self, rng, engine_dtype):
        check(lambda a: (a.sum(axis=(0, 2)) ** 2).sum(),
              rng.normal(size=(2, 3, 4)), dtype=engine_dtype)

    def test_sum_keepdims(self, rng, engine_dtype):
        check(lambda a: ((a - a.sum(axis=0, keepdims=True)) ** 2).sum(),
              rng.normal(size=(3, 4)), dtype=engine_dtype)

    def test_mean_tuple_axes(self, rng, engine_dtype):
        check(lambda a: (a.mean(axis=(0, 1)) ** 2).sum(),
              rng.normal(size=(2, 3, 2)), dtype=engine_dtype)

    def test_softmax_log_softmax(self, rng, engine_dtype):
        w = np.arange(5.0)
        check(lambda a: (a.softmax() * w).sum()
              + (a.log_softmax() * w).sum(),
              rng.normal(size=(3, 5)), dtype=engine_dtype)


class TestMatmul:
    def test_2d_2d(self, rng, engine_dtype):
        check(lambda a, b: (a @ b).sum(),
              rng.normal(size=(3, 4)), rng.normal(size=(4, 2)),
              dtype=engine_dtype)

    def test_1d_2d(self, rng, engine_dtype):
        """Regression: 1-D left operand used to raise ValueError."""
        check(lambda a, b: ((a @ b) ** 2).sum(),
              rng.normal(size=(4,)), rng.normal(size=(4, 3)),
              dtype=engine_dtype)

    def test_2d_1d(self, rng, engine_dtype):
        check(lambda a, b: ((a @ b) ** 2).sum(),
              rng.normal(size=(3, 4)), rng.normal(size=(4,)),
              dtype=engine_dtype)

    def test_1d_1d(self, rng, engine_dtype):
        check(lambda a, b: (a @ b) * 2.0,
              rng.normal(size=(4,)), rng.normal(size=(4,)),
              dtype=engine_dtype)

    def test_transpose_reshape(self, rng, engine_dtype):
        check(lambda a: ((a.T @ a).reshape(-1) ** 2).sum(),
              rng.normal(size=(3, 4)), dtype=engine_dtype)


class TestIndexing:
    def test_basic_slice(self, rng, engine_dtype):
        check(lambda a: (a[:, 1:3] ** 2).sum(), rng.normal(size=(3, 5)),
              dtype=engine_dtype)

    def test_row_index(self, rng, engine_dtype):
        check(lambda a: (a[1] ** 2).sum(), rng.normal(size=(3, 5)),
              dtype=engine_dtype)

    def test_boolean_mask(self, rng, engine_dtype):
        mask = rng.random(6) > 0.4
        if not mask.any():
            mask[0] = True
        check(lambda a: (a[mask] ** 2).sum(), rng.normal(size=(6,)),
              dtype=engine_dtype)

    def test_fancy_repeated_indices(self, rng, engine_dtype):
        """Repeated fancy indices must still accumulate via add.at."""
        idx = np.array([0, 2, 2, 1])
        check(lambda a: (a[idx] * np.arange(1.0, 5.0)).sum(),
              rng.normal(size=(4,)), dtype=engine_dtype)


class TestCombinators:
    def test_concat(self, rng, engine_dtype):
        check(lambda a, b: (concat([a, b], axis=1) ** 2).sum(),
              rng.normal(size=(2, 3)), rng.normal(size=(2, 2)),
              dtype=engine_dtype)

    def test_concat_axis0(self, rng, engine_dtype):
        check(lambda a, b: (concat([a, b], axis=0) ** 2).sum(),
              rng.normal(size=(2, 3)), rng.normal(size=(1, 3)),
              dtype=engine_dtype)

    def test_stack(self, rng, engine_dtype):
        check(lambda a, b: (stack([a, b], axis=0) ** 2).sum(),
              rng.normal(size=(2, 3)), rng.normal(size=(2, 3)),
              dtype=engine_dtype)


class TestFusedKernels:
    @pytest.mark.parametrize("activation", [None, "relu", "leaky_relu",
                                            "tanh", "sigmoid"])
    def test_fused_linear(self, rng, engine_dtype, activation):
        check(lambda x, w, b: (fused_linear(
                  x, w, b, activation=activation) ** 2).sum(),
              rng.normal(size=(4, 3)), rng.normal(size=(3, 2)),
              rng.normal(size=(2,)), dtype=engine_dtype)

    def test_fused_linear_no_bias(self, rng, engine_dtype):
        check(lambda x, w: (fused_linear(x, w) ** 2).sum(),
              rng.normal(size=(4, 3)), rng.normal(size=(3, 2)),
              dtype=engine_dtype)

    def test_fused_linear_rejects_unknown_activation(self):
        with pytest.raises(ValueError):
            fused_linear(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))),
                         activation="softmax")

    def test_addmm(self, rng, engine_dtype):
        check(lambda base, x, w: (addmm(base, x, w) ** 2).sum(),
              rng.normal(size=(4, 2)), rng.normal(size=(4, 3)),
              rng.normal(size=(3, 2)), dtype=engine_dtype)

    def test_lstm_gates_and_step(self, rng, engine_dtype):
        hidden = 3
        coef_h = rng.normal(size=(2, hidden))
        coef_c = rng.normal(size=(2, hidden))

        def build(x, wx, h, wh, b, c):
            gates = lstm_gates(x, wx, h, wh, b)
            h_new, c_new = lstm_step(gates, c, hidden)
            return (h_new * coef_h).sum() + (c_new * coef_c).sum()

        check(build,
              rng.normal(size=(2, 4)), rng.normal(size=(4, 4 * hidden)),
              rng.normal(size=(2, hidden)),
              rng.normal(size=(hidden, 4 * hidden)),
              rng.normal(size=(4 * hidden,)), rng.normal(size=(2, hidden)),
              dtype=engine_dtype)

    def test_categorical_kl_fused(self, rng, engine_dtype):
        p_real = np.abs(rng.normal(size=4)) + 0.1

        def build(p):
            return categorical_kl(p_real, p.softmax(axis=-1).mean(axis=0))

        check(build, rng.normal(size=(3, 4)), dtype=engine_dtype)

    def test_categorical_kl_sum_two_blocks(self, rng, engine_dtype):
        real = np.abs(rng.normal(size=(6, 5))) + 0.05
        slices = [slice(0, 2), slice(2, 5)]

        def build(p):
            return categorical_kl_sum(real, p.softmax(axis=-1), slices)

        check(build, rng.normal(size=(4, 5)), dtype=engine_dtype)


class TestDtypeConfig:
    def test_set_default_dtype_validates(self):
        with pytest.raises(ValueError):
            nn.set_default_dtype("int32")
        assert nn.get_default_dtype() is np.float64

    def test_context_manager_restores(self):
        assert nn.get_default_dtype() is np.float64
        with nn.default_dtype("float32"):
            assert nn.get_default_dtype() is np.float32
            assert nn.fast_math()
        assert nn.get_default_dtype() is np.float64
        assert not nn.fast_math()

    def test_tensor_follows_default(self):
        with nn.default_dtype(np.float32):
            t = Tensor([1.0, 2.0])
            assert t.data.dtype == np.float32
            assert (t * 2).data.dtype == np.float32
            assert t.sigmoid().data.dtype == np.float32

    def test_no_grad_detaches(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with nn.no_grad():
            y = x * 2.0
        assert not y.requires_grad
        z = x * 2.0
        assert z.requires_grad
        assert nn.is_grad_enabled()

    def test_scope_and_grad_mode_are_per_thread(self):
        """A dtype scope and no_grad apply to the thread that entered
        them; other threads keep the process default and grad mode."""
        import threading

        entered, release = threading.Event(), threading.Event()
        seen = {}

        def scoped():
            with nn.default_dtype("float32"), nn.no_grad():
                entered.set()
                release.wait(10)
                seen["scoped"] = (nn.get_default_dtype(),
                                  nn.is_grad_enabled())
            seen["after"] = (nn.get_default_dtype(), nn.is_grad_enabled())

        thread = threading.Thread(target=scoped)
        thread.start()
        try:
            assert entered.wait(10)
            assert nn.get_default_dtype() is np.float64
            assert nn.is_grad_enabled()
            assert not nn.fast_math()
            assert Tensor([1.0]).data.dtype == np.float64
        finally:
            release.set()
            thread.join(10)
        assert seen == {"scoped": (np.float32, False),
                        "after": (np.float64, True)}

    def test_set_default_dtype_is_process_wide(self):
        """set_default_dtype reaches threads outside a scope; a scope
        keeps its dtype in its own thread."""
        import threading

        seen = []
        try:
            with nn.default_dtype("float64"):
                nn.set_default_dtype("float32")
                assert nn.get_default_dtype() is np.float64
                thread = threading.Thread(
                    target=lambda: seen.append(nn.get_default_dtype()))
                thread.start()
                thread.join(10)
            assert nn.get_default_dtype() is np.float32
        finally:
            nn.set_default_dtype("float64")
        assert seen == [np.float32]


class TestBatchedProjectionSplit:
    def test_sequence_lstm_fast_path_gradcheck(self, rng):
        """Numerical gradcheck through the shared-buffer row split."""
        from repro.nn import SequenceToOneLSTM

        xs = [rng.normal(size=(3, 4)) for _ in range(4)]

        def run(dtype):
            with nn.default_dtype(dtype):
                model = SequenceToOneLSTM(4, 5, rng=np.random.default_rng(2))
                steps = [Tensor(x, requires_grad=True) for x in xs]
                out = model(steps)
                (out * out).sum().backward()
                wx_grad = model.cell.weight_x.grad.copy()
                return [s.grad.copy() for s in steps], wx_grad

        grads64, wx64 = run("float64")   # parity path (per-step matmuls)
        grads32, wx32 = run("float32")   # batched projection + split
        for g64, g32 in zip(grads64, grads32):
            np.testing.assert_allclose(g32, g64, atol=1e-3, rtol=1e-2)
        np.testing.assert_allclose(wx32, wx64, atol=1e-3, rtol=1e-2)

    def test_split_backward_twice(self, rng):
        """The shared buffer must reset between backward passes."""
        from repro.nn import SequenceToOneLSTM

        with nn.default_dtype("float32"):
            model = SequenceToOneLSTM(3, 4, rng=np.random.default_rng(1))
            steps = [Tensor(rng.normal(size=(2, 3)), requires_grad=True)
                     for _ in range(3)]
            loss = (model(steps) ** 2).sum()
            loss.backward()
            first = steps[0].grad.copy()
            loss.backward()
            np.testing.assert_allclose(steps[0].grad, 2 * first, rtol=1e-5)
