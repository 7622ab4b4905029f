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

from typing import List, NamedTuple, Optional, Tuple

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
    of the joint pre-activation (:func:`_multi_activation`).
    Flop-equivalent but with one input-gradient GEMM instead of one per
    head.  Taped and training-mode float64 forwards keep the per-head
    kernels (bit-identical to the historical graph).

    A no-grad joint forward returns its ``(n, D)`` output in Fortran
    order in eval mode (sampling: the inverse then reads each column as
    one contiguous row of ``samples.T``) and in C order in training mode
    (the float32 discriminator step feeds it to a GEMM, whose kernel,
    and so its rounding, could change with the operand layout).
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
        return _multi_activation(pre, self._seg_info,
                                 order="C" if self.training else "F")

    def _build_seg_info(self) -> "_SegInfo":
        """Segment layout for :func:`_multi_activation` (fixed by _plan)."""
        starts, widths, softmax = [], [], []
        tanh_rows, sigmoid_rows = [], []
        offset = 0
        for act, width, _ in self._plan:
            starts.append(offset)
            widths.append(width)
            rows = range(offset, offset + width)
            if act == "tanh":
                tanh_rows.extend(rows)
            elif act == "sigmoid":
                sigmoid_rows.extend(rows)
            else:
                softmax.append((offset, width))
            offset += width
        tanh_cols = np.zeros(offset, dtype=bool)
        tanh_cols[tanh_rows] = True
        sigmoid_cols = np.zeros(offset, dtype=bool)
        sigmoid_cols[sigmoid_rows] = True
        return _SegInfo(np.asarray(starts), np.asarray(widths), tanh_cols,
                        sigmoid_cols, np.asarray(tanh_rows, dtype=np.intp),
                        np.asarray(sigmoid_rows, dtype=np.intp),
                        _softmax_groups(softmax, offset))


class _SegInfo(NamedTuple):
    """Column layout of the joint pre-activation.

    The taped branch of :func:`_multi_activation` reads ``starts``,
    ``widths`` and the two column masks; the no-grad branch reads the
    row lists and the softmax groups of the transposed pre-activation.
    """

    starts: np.ndarray
    widths: np.ndarray
    tanh_cols: np.ndarray
    sigmoid_cols: np.ndarray
    tanh_rows: np.ndarray
    sigmoid_rows: np.ndarray
    softmax_groups: Tuple[Tuple[np.ndarray, np.ndarray], ...]


#: numpy sums a reduction's terms pairwise (``pairwise_sum`` in its
#: float loops): fewer than ``_PW_UNROLL`` terms in a plain loop, up to
#: ``_PW_BLOCK`` terms in ``_PW_UNROLL`` accumulators, more by halving.
_PW_UNROLL, _PW_BLOCK = 8, 128


def _sum_order(terms: int):
    """Key shared by every term count whose pairwise sum, zero-padded at
    the end to the largest count with the same key, adds the same
    values in the same order: trailing zeros fall in the plain loop or
    in the remainder loop after the accumulators, where adding ``+0.0``
    to a sum of non-negative terms changes no bit."""
    if terms < _PW_UNROLL:
        return ("loop",)
    if terms <= _PW_BLOCK:
        return ("block", terms // _PW_UNROLL)
    return ("split", terms)


def _softmax_groups(segments, total: int):
    """``(gather, scatter)`` index pairs, one per group of softmax
    segments whose sums share an order (:func:`_sum_order` of the
    segment's rest, ``width - 1`` terms).

    Both are ``(W, segments)`` row indices into the transposed
    pre-activation buffer of ``total + 2`` rows: ``gather`` pads a
    segment narrower than the group's ``W`` with row ``total`` (all
    ``-inf``, so its exponential is ``+0.0``), and ``scatter`` sends the
    padding to row ``total + 1``, which nothing reads.
    """
    groups: dict = {}
    for start, width in segments:
        groups.setdefault(_sum_order(width - 1), []).append((start, width))
    out = []
    for members in groups.values():
        span = max(width for _, width in members)
        gather = np.full((span, len(members)), total, dtype=np.intp)
        scatter = np.full((span, len(members)), total + 1, dtype=np.intp)
        for k, (start, width) in enumerate(members):
            gather[:width, k] = scatter[:width, k] = np.arange(
                start, start + width)
        out.append((gather, scatter))
    return tuple(out)


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over axis 0 of ``terms`` in numpy's pairwise order, each step
    one whole-array add over the remaining axes."""
    n = len(terms)
    if n < _PW_UNROLL:
        # A plain left-to-right sum, which is also the order of an
        # add-reduce over the outer axis.
        return np.add.reduce(terms, axis=0)
    if n <= _PW_BLOCK:
        acc = terms[:_PW_UNROLL].copy()
        stop = n - n % _PW_UNROLL
        for i in range(_PW_UNROLL, stop, _PW_UNROLL):
            acc += terms[i:i + _PW_UNROLL]
        # The accumulators' fixed tree, one level per add:
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)).
        while len(acc) > 1:
            acc = acc[0::2] + acc[1::2]
        total = acc[0]
        for row in terms[stop:]:
            total += row
        return total
    half = n // 2
    half -= half % _PW_UNROLL
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def _multi_activation(pre: Tensor, seg_info: _SegInfo,
                      order: str = "C") -> Tensor:
    """Per-column-segment activations on ``pre`` as one tape node.

    ``seg_info`` is the :class:`_SegInfo` layout of ``pre``'s columns.
    The taped branch runs the row-wise softmax over ALL segments via
    ``reduceat`` (width-1 tanh/sigmoid segments come out as 1.0 and are
    overwritten through their masks), so the cost does not scale with
    the number of attribute heads.  Fast-math companion of the per-head
    op chain.

    The no-grad branch (sampling, and the float32 discriminator step's
    generator call) computes the same bits in whole-array passes instead
    of ``reduceat``'s one inner loop per row and segment: it transposes
    ``pre`` once to ``(D + 2, n)`` and, per group of softmax segments,
    gathers one padded ``(W, segments, n)`` block, takes its max over
    axis 0, subtracts, exponentiates, sums the first row plus the
    pairwise sum of the rest (``reduceat``'s exact order), divides and
    scatters back.  It consumes ``pre``'s memory, as the in-place kernel
    it replaces did: the ``(n, D)`` result is written over it, as the
    Fortran-ordered view of a ``(D, n)`` array with ``order="F"`` and in
    C order with ``"C"``.  The taped branch always returns C order.
    """
    starts, widths, tanh_cols, sigmoid_cols = seg_info[:4]
    pd = pre.data
    if not is_grad_enabled():
        return Tensor(_activate_transposed(pd, seg_info, order))
    mx = np.maximum.reduceat(pd, starts, axis=1)
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


def _activate_transposed(pd: np.ndarray, seg_info: _SegInfo,
                         order: str) -> np.ndarray:
    """The no-grad activations of ``pd`` (``(n, D)``), written over
    ``pd``'s own memory in ``order``.

    They are computed in a transposed buffer whose last two rows are the
    softmax groups' padding source and sink.  Writing the result back,
    rather than returning the buffer, keeps each chunk's heap footprint
    as it was: a fresh output buffer held for the rest of the chunk made
    glibc trim and re-fault the heap on every chunk (about 2.3k against
    0.35k minor page faults per 4096-row float32 chunk of the Adult
    stand-in)."""
    n, total = pd.shape
    buf = np.empty((total + 2, n), dtype=pd.dtype)
    buf[:total] = pd.T
    buf[total] = -np.inf
    # Row gathers use ``take``: the same rows as fancy indexing, for
    # about 2.5 us less per call, which a 64-row chunk notices.
    for gather, scatter in seg_info.softmax_groups:
        block = buf.take(gather, axis=0)
        block -= block.max(axis=0)
        np.exp(block, out=block)
        sums = block[0].copy()
        if len(block) > 1:
            sums += _pairwise_sum(block[1:])
        buf[scatter] = np.divide(block, sums, out=block)
    if len(seg_info.tanh_rows):
        rows = buf.take(seg_info.tanh_rows, axis=0)
        buf[seg_info.tanh_rows] = np.tanh(rows, out=rows)
    if len(seg_info.sigmoid_rows):
        buf[seg_info.sigmoid_rows] = _stable_sigmoid(
            buf.take(seg_info.sigmoid_rows, axis=0))
    if order == "F":
        out = pd.reshape(total, n)
        out[...] = buf[:total]
        return out.T
    pd[...] = buf[:total].T
    return pd
