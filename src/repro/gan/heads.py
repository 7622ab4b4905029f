"""Attribute-aware generator output heads (paper Appendix A.1.2, C1-C4).

The generator's last hidden representation is mapped per attribute block
using the activation the block's transformation scheme requires:

* C1 simple normalization  -> ``tanh(FC(h))``
* C2 GMM normalization     -> ``tanh(FC(h)) ⊕ softmax(FC(h))``
* C3 one-hot encoding      -> ``softmax(FC(h))``
* C4 ordinal encoding      -> ``sigmoid(FC(h))``

The heads are shared by the MLP generator (all from one hidden vector)
and the LSTM generator (one or two timesteps per attribute).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..nn import Linear, Module, Tensor, concat, fused_linear
from ..nn.tensor import _stable_sigmoid, fast_math, is_grad_enabled
from ..transform.base import (
    BlockSpec, HEAD_SIGMOID, HEAD_SOFTMAX, HEAD_TANH, HEAD_TANH_SOFTMAX,
)
from ..errors import ConfigError


class BlockHead(Module):
    """Output head for one attribute block."""

    def __init__(self, in_features: int, block: BlockSpec,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.block = block
        self.head = block.head
        if self.head == HEAD_TANH_SOFTMAX:
            # value part (width 1) + mode-indicator part (width - 1)
            self.value_fc = Linear(in_features, 1, rng=rng)
            self.mode_fc = Linear(in_features, block.width - 1, rng=rng)
        else:
            self.fc = Linear(in_features, block.width, rng=rng)

    def forward(self, h: Tensor) -> Tensor:
        if self.head == HEAD_TANH:
            return self.fc(h, activation="tanh")
        if self.head == HEAD_SIGMOID:
            return self.fc(h, activation="sigmoid")
        if self.head == HEAD_SOFTMAX:
            return self.fc(h).softmax(axis=-1)
        if self.head == HEAD_TANH_SOFTMAX:
            value = self.value_fc(h, activation="tanh")
            mode = self.mode_fc(h).softmax(axis=-1)
            return concat([value, mode], axis=1)
        raise ConfigError(f"unknown head kind {self.head!r}")


class MultiHead(Module):
    """All attribute heads applied to one shared hidden vector (MLP G).

    Under fast-math, and for eval-mode no-grad forwards (sampling) in
    either dtype, all head projections run as one wide matmul — weights
    are concatenated per forward and the activations applied to slices
    of the joint pre-activation.  Flop-equivalent but with one
    input-gradient GEMM instead of one per head.  Taped and
    training-mode float64 forwards keep the per-head kernels
    (bit-identical to the historical graph).
    """

    def __init__(self, in_features: int, blocks: List[BlockSpec],
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.blocks = blocks
        self.heads: List[BlockHead] = []
        for i, block in enumerate(blocks):
            head = BlockHead(in_features, block, rng=rng)
            self.heads.append(head)
            self.register_module(f"head{i}", head)
        # (activation, width, fc) segments of the joint projection.
        self._plan = []
        for head, block in zip(self.heads, blocks):
            if head.head == HEAD_TANH_SOFTMAX:
                self._plan.append(("tanh", 1, head.value_fc))
                self._plan.append(("softmax", block.width - 1, head.mode_fc))
            else:
                act = {HEAD_TANH: "tanh", HEAD_SIGMOID: "sigmoid",
                       HEAD_SOFTMAX: "softmax"}[head.head]
                self._plan.append((act, block.width, head.fc))
        self._seg_info = self._build_seg_info()

    def forward(self, h: Tensor) -> Tensor:
        if not fast_math() and (self.training or is_grad_enabled()):
            return concat([head(h) for head in self.heads], axis=1)
        weight = concat([fc.weight for _, _, fc in self._plan], axis=1)
        bias = concat([fc.bias for _, _, fc in self._plan], axis=0)
        pre = fused_linear(h, weight, bias)
        return _multi_activation(pre, self._seg_info)

    def _build_seg_info(self):
        """Segment layout for :func:`_multi_activation` (fixed by _plan)."""
        starts, widths = [], []
        offset = 0
        total = sum(width for _, width, _ in self._plan)
        tanh_cols = np.zeros(total, dtype=bool)
        sigmoid_cols = np.zeros(total, dtype=bool)
        for act, width, _ in self._plan:
            starts.append(offset)
            widths.append(width)
            if act == "tanh":
                tanh_cols[offset:offset + width] = True
            elif act == "sigmoid":
                sigmoid_cols[offset:offset + width] = True
            offset += width
        return (np.asarray(starts), np.asarray(widths),
                tanh_cols, sigmoid_cols)


def _multi_activation(pre: Tensor, seg_info) -> Tensor:
    """Per-column-segment activations on ``pre`` as one tape node.

    ``seg_info`` is ``(starts, widths, tanh_cols, sigmoid_cols)``: the
    segment layout plus boolean column masks for the non-softmax
    segments.  The row-wise softmax runs group-vectorized over ALL
    segments via ``reduceat`` (width-1 tanh/sigmoid segments come out as
    1.0 and are overwritten through their masks), so the cost does not
    scale with the number of attribute heads.  Fast-math companion of
    the per-head op chain.
    """
    starts, widths, tanh_cols, sigmoid_cols = seg_info
    pd = pre.data
    mx = np.maximum.reduceat(pd, starts, axis=1)
    if not is_grad_enabled():
        # Sampling fast path: no backward reads ``pd``/``e``, so the
        # exp/normalize passes can run in place (two fewer full-width
        # temporaries per chunk).
        tanh_in = pd[:, tanh_cols] if tanh_cols.any() else None
        sigmoid_in = pd[:, sigmoid_cols] if sigmoid_cols.any() else None
        e = np.subtract(pd, mx.repeat(widths, axis=1), out=pd)
        np.exp(e, out=e)
        s = np.add.reduceat(e, starts, axis=1)
        out = np.divide(e, s.repeat(widths, axis=1), out=e)
        if tanh_in is not None:
            out[:, tanh_cols] = np.tanh(tanh_in)
        if sigmoid_in is not None:
            out[:, sigmoid_cols] = _stable_sigmoid(sigmoid_in)
        return Tensor(out)
    e = np.exp(pd - mx.repeat(widths, axis=1))
    s = np.add.reduceat(e, starts, axis=1)
    out = e / s.repeat(widths, axis=1)
    if tanh_cols.any():
        out[:, tanh_cols] = np.tanh(pd[:, tanh_cols])
    if sigmoid_cols.any():
        out[:, sigmoid_cols] = _stable_sigmoid(pd[:, sigmoid_cols])

    def backward(grad: np.ndarray):
        dot = np.add.reduceat(grad * out, starts, axis=1)
        d = out * (grad - dot.repeat(widths, axis=1))
        if tanh_cols.any():
            o = out[:, tanh_cols]
            d[:, tanh_cols] = grad[:, tanh_cols] * (1.0 - o ** 2)
        if sigmoid_cols.any():
            o = out[:, sigmoid_cols]
            d[:, sigmoid_cols] = grad[:, sigmoid_cols] * o * (1.0 - o)
        return (d,)

    return Tensor._make(out, (pre,), backward)
