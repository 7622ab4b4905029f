"""Core dense layers: Linear, BatchNorm1d, activations, Dropout.

These are the building blocks of the MLP generator/discriminator of the
paper (Appendix A.1.2): ``h^{l+1} = phi(BN(FC(h^l)))``.

The hot path is :func:`fused_linear`: one tape node computes
``phi(x W + b)`` with an analytic backward, replacing the matmul /
broadcast-add / activation node chain the autograd tape would otherwise
record (3-4 nodes and as many temporaries per layer call).  The fused
kernel evaluates the exact same floating point operations in the same
order, so results are bit-identical to the composed form.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import (
    Tensor, _donate_mask, _mask_for_backward, _stable_sigmoid, _take_sign_mask,
    _unbroadcast, fast_math, is_grad_enabled,
)

#: Activations :func:`fused_linear` can fuse into the affine kernel.
FUSABLE_ACTIVATIONS = (None, "relu", "leaky_relu", "tanh", "sigmoid")


def _act_forward(pre: np.ndarray, activation: Optional[str],
                 slope: float = 0.2):
    """Elementwise activation shared by every fused kernel.

    Returns ``(out, state)`` where ``state`` holds the pooled sign mask
    for relu-family activations (``None`` otherwise); pass it through to
    :func:`_act_backward`, which donates the mask back to the tape pool
    after its single use.  The operations are exactly those of the
    composed :class:`~repro.nn.tensor.Tensor` ops, so fused nodes stay
    bit-identical to the op-by-op tape.
    """
    if activation is None:
        return pre, None
    if activation == "relu":
        state = [_take_sign_mask(pre)]
        return pre * state[0], state
    if activation == "leaky_relu":
        state = [_take_sign_mask(pre)]
        return np.where(state[0], pre, slope * pre), state
    if activation == "tanh":
        return np.tanh(pre), None
    if activation == "sigmoid":
        return _stable_sigmoid(pre), None
    raise ValueError(f"cannot fuse activation {activation!r}")


def _act_backward(grad: np.ndarray, activation: Optional[str],
                  out: np.ndarray, state, slope: float = 0.2) -> np.ndarray:
    """Backward of :func:`_act_forward` given its saved forward state.

    Relu-family masks come from the shared tape pool and are donated
    back here (recomputed from ``out``'s sign on a repeated backward).
    """
    if activation is None:
        return grad
    if activation == "relu":
        g = grad * _mask_for_backward(state, out)
        _donate_mask(state)
        return g
    if activation == "leaky_relu":
        g = np.where(_mask_for_backward(state, out), grad, slope * grad)
        _donate_mask(state)
        return g
    if activation == "tanh":
        return grad * (1.0 - out ** 2)
    return grad * out * (1.0 - out)  # sigmoid


def _bn_input_grad(d_normed: np.ndarray, normed: np.ndarray,
                   inv_std, inv_n: float, axes=0,
                   keepdims: bool = False) -> np.ndarray:
    """Closed-form batch-norm input gradient (fast-math kernels).

    Shared by :class:`BatchNorm1d`, :class:`~repro.nn.conv.BatchNorm2d`
    and the fused conv nodes; ``axes`` selects the reduction layout
    (``0`` for ``(batch, features)`` matrices, ``(0, 2, 3)`` with
    ``keepdims=True`` for ``(N, C, H, W)`` activations).
    """
    return (d_normed - d_normed.sum(axis=axes, keepdims=keepdims) * inv_n
            - normed * ((d_normed * normed).sum(axis=axes,
                                                keepdims=keepdims) * inv_n)
            ) * inv_std


def fused_linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
                 activation: Optional[str] = None,
                 slope: float = 0.2) -> Tensor:
    """Fused ``phi(x @ weight + bias)`` as a single autograd node.

    ``activation`` is one of :data:`FUSABLE_ACTIVATIONS`; ``slope`` is
    the negative-half slope used when ``activation="leaky_relu"``.
    """
    if activation not in FUSABLE_ACTIVATIONS:
        raise ValueError(f"cannot fuse activation {activation!r}")
    xd, wd = x.data, weight.data
    if xd.ndim != 2:
        # Rare non-batched call: fall back to the composed ops.
        out = x @ weight
        if bias is not None:
            out = out + bias
        if activation == "relu":
            out = out.relu()
        elif activation == "leaky_relu":
            out = out.leaky_relu(slope)
        elif activation == "tanh":
            out = out.tanh()
        elif activation == "sigmoid":
            out = out.sigmoid()
        return out

    pre = xd @ wd
    if bias is not None:
        pre += bias.data

    if activation in ("relu", "tanh") and not is_grad_enabled():
        # No-grad fast path (both dtypes): no backward will run, so the
        # activation can overwrite the pre-activation in place (no sign
        # mask, no second full-width temporary).  ``maximum`` returns
        # +0.0 where the composed ``pre * mask`` yields -0.0; the values
        # are otherwise identical.
        mask = None
        out = (np.maximum(pre, 0.0, out=pre) if activation == "relu"
               else np.tanh(pre, out=pre))
    else:
        out, mask = _act_forward(pre, activation, slope)

    def backward(grad: np.ndarray):
        d_pre = _act_backward(grad, activation, out, mask, slope)
        gx = d_pre @ wd.T if x.requires_grad else None
        gw = xd.T @ d_pre if weight.requires_grad else None
        if bias is None:
            return (gx, gw)
        gb = _unbroadcast(d_pre, bias.data.shape) if bias.requires_grad else None
        return (gx, gw, gb)

    parents = (x, weight) if bias is None else (x, weight, bias)
    node = Tensor._make(out, parents, backward)
    if node._backward is None and mask is not None:
        _donate_mask(mask)  # no-grad path: backward never runs
    return node


class Linear(Module):
    """Fully connected layer ``y = x W + b``.

    ``forward`` optionally fuses an elementwise activation into the
    affine kernel (one tape node instead of up to four):
    ``layer(x, activation="leaky_relu")``.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None, bias: bool = True):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(rng, in_features, out_features))
        self.bias = Parameter(init.zeros(out_features)) if bias else None

    def forward(self, x: Tensor, activation: Optional[str] = None,
                slope: float = 0.2) -> Tensor:
        return fused_linear(x, self.weight, self.bias,
                            activation=activation, slope=slope)


class BatchNorm1d(Module):
    """Batch normalization over the feature axis of ``(batch, features)``.

    Keeps running statistics for eval-mode normalization, matching the
    standard formulation of Ioffe & Szegedy used by the paper's models.
    """

    def __init__(self, num_features: int, momentum: float = 0.1,
                 eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones(num_features))
        self.beta = Parameter(init.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor, activation: Optional[str] = None) -> Tensor:
        """Normalize ``x``; ``activation="relu"`` optionally fuses the
        nonlinearity that follows BN in the paper's generator stack."""
        if self.training and x.shape[0] > 1:
            if fast_math():
                return self._forward_fused(x, activation)
            mean = x.mean(axis=0)
            centered = x - mean
            var = (centered * centered).mean(axis=0)
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mean.data)
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var.data)
            inv_std = (var + self.eps) ** -0.5
            normed = centered * inv_std
            out = normed * self.gamma + self.beta
            return out.relu() if activation == "relu" else out
        return self._forward_eval(x, activation)

    def _forward_eval(self, x: Tensor,
                      activation: Optional[str] = None) -> Tensor:
        """Running-stat normalization as one tape node (both dtypes).

        Eval-mode BN is a fixed per-feature affine map; the composed op
        chain spends ~6 full-width temporaries per call, which used to
        dominate streaming-sampling profiles.  The fused node evaluates
        the same elementwise expressions (constants cast to the input
        dtype exactly as the Tensor wrapper would), so forward values
        stay bit-identical to the composed path.
        """
        dtype = x.data.dtype
        inv = np.asarray(1.0 / np.sqrt(self.running_var + self.eps),
                         dtype=dtype)
        mean = np.asarray(self.running_mean, dtype=dtype)
        normed = (x.data - mean) * inv
        gamma, beta = self.gamma, self.beta
        out, mask = _act_forward(normed * gamma.data + beta.data, activation)

        def backward(grad: np.ndarray):
            grad = _act_backward(grad, activation, out, mask)
            dgamma = (grad * normed).sum(axis=0)
            dbeta = grad.sum(axis=0)
            return (grad * (gamma.data * inv), dgamma, dbeta)

        node = Tensor._make(out, (x, gamma, beta), backward)
        if node._backward is None and mask is not None:
            _donate_mask(mask)  # no-grad path: backward never runs
        return node

    def _forward_fused(self, x: Tensor,
                       activation: Optional[str] = None) -> Tensor:
        """Single-node batch norm (+ optional ReLU) with the analytic
        backward.

        Fast-math only: the closed-form input gradient re-associates the
        batch sums, so it is not bit-identical to the composed op chain
        the parity path records (~12 tape nodes per call).
        """
        xd = x.data
        inv_n = 1.0 / xd.shape[0]
        mean = xd.sum(axis=0) * inv_n
        centered = xd - mean
        var = (centered * centered).sum(axis=0) * inv_n
        self.running_mean = ((1 - self.momentum) * self.running_mean
                             + self.momentum * mean)
        self.running_var = ((1 - self.momentum) * self.running_var
                            + self.momentum * var)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        normed = centered * inv_std
        gamma, beta = self.gamma, self.beta
        out = normed * gamma.data + beta.data
        state = None
        if activation == "relu":
            state = [_take_sign_mask(out)]
            out = out * state[0]

        def backward(grad: np.ndarray):
            if state is not None:
                grad = grad * _mask_for_backward(state, out)
                _donate_mask(state)
            dgamma = (grad * normed).sum(axis=0)
            dbeta = grad.sum(axis=0)
            d_normed = grad * gamma.data
            dx = _bn_input_grad(d_normed, normed, inv_std, inv_n)
            return (dx, dgamma, dbeta)

        node = Tensor._make(out, (x, gamma, beta), backward)
        if node._backward is None and state is not None:
            _donate_mask(state)  # no-grad path: backward never runs
        return node


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, slope: float = 0.2):
        super().__init__()
        self.slope = slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.slope)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        mask = (self.rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * mask
