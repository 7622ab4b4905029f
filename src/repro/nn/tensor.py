"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate for every neural model in the
library (the paper's experiments used PyTorch; this engine replaces it —
see DESIGN.md §1).  A :class:`Tensor` wraps a ``numpy.ndarray`` and records
the operations applied to it on a tape; :meth:`Tensor.backward` replays the
tape in reverse topological order and accumulates gradients.

Only the operations needed by the paper's models are implemented, but each
is fully general with respect to broadcasting and shapes.

Engine dtype
------------
The engine computes in a configurable default dtype:

* ``float64`` (the default) — exact-parity mode for training and taped
  forwards.  Training trajectories are bit-for-bit reproducible and
  match the reference implementation; the test suite's tight tolerances
  assume it.  Eval-mode no-grad forwards (sampling) take the fused
  kernels in both dtypes — folded batch norm, one joint head GEMM,
  in-place activations — and differ from the op-by-op graph by float64
  rounding only.
* ``float32`` — training mode.  Halves memory traffic and roughly
  doubles BLAS throughput; additionally enables *fast-math* rewrites
  (e.g. batched LSTM input projections) that re-associate floating point
  sums and therefore are not bit-identical to the float64 path.

:func:`set_default_dtype` sets the process-wide default;
:func:`default_dtype` overrides it for the calling thread only, so
threads can run models of different dtypes at once::

    from repro import nn
    nn.set_default_dtype("float32")      # fast training mode
    with nn.default_dtype("float64"):    # this thread only
        ...

A fitted synthesizer records the dtype it was trained in and samples
every chunk inside that dtype's scope (see
:meth:`repro.api.Synthesizer.sample_iter`), whatever the process
default is.  The grad mode (:func:`no_grad`) is per thread as well.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

#: Engine dtypes supported by :func:`set_default_dtype`.
SUPPORTED_DTYPES = (np.float32, np.float64)

#: Legacy alias for the parity-mode dtype (the historical engine dtype).
DTYPE = np.float64

_default_dtype = np.float64


class _ThreadState(threading.local):
    """Per-thread engine state: the dtype override of a
    :func:`default_dtype` scope (``None`` outside one) and the grad
    mode.  Class attributes are the values a new thread starts with."""

    dtype = None
    grad_enabled = True


_thread = _ThreadState()


def _resolve_dtype(dtype: Union[str, np.dtype, type]) -> type:
    resolved = np.dtype(dtype).type
    if resolved not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported engine dtype {dtype!r}; expected one of "
            f"{[np.dtype(d).name for d in SUPPORTED_DTYPES]}")
    return resolved


def set_default_dtype(dtype: Union[str, np.dtype, type]) -> None:
    """Set the process-wide dtype new tensors are created with
    (``float32``/``float64``).

    ``float64`` is the parity mode used by the test suite; ``float32`` is
    the fast training mode and additionally unlocks fast-math rewrites
    in the LSTM stacks (see module docstring).  Existing tensors,
    parameters, and optimizer state keep their dtype — switch *before*
    building models, not mid-training.  A thread inside a
    :func:`default_dtype` scope keeps the scope's dtype until it exits.
    """
    global _default_dtype
    _default_dtype = _resolve_dtype(dtype)


def get_default_dtype() -> type:
    """The numpy scalar type new tensors are created with in this
    thread: its :func:`default_dtype` scope, else the process default."""
    scoped = _thread.dtype
    return _default_dtype if scoped is None else scoped


def fast_math() -> bool:
    """True when fast-math (non-bit-exact) rewrites are allowed.

    Tied to the engine dtype: float32 already trades exactness for
    speed, so sum re-associations (batched projections, split matmuls)
    are only taken there; float64 keeps the bit-exact op-by-op path for
    training and taped forwards.  Eval-mode no-grad sampling does not
    consult this flag: it takes the fused kernels in both dtypes.
    """
    return get_default_dtype() is np.float32


@contextlib.contextmanager
def default_dtype(dtype: Union[str, np.dtype, type]) -> Iterator[None]:
    """Scope the engine dtype for the calling thread only.

    Other threads keep their own scope or the process default, so
    models of different dtypes can run concurrently.
    """
    resolved = _resolve_dtype(dtype)
    previous = _thread.dtype
    _thread.dtype = resolved
    try:
        yield
    finally:
        _thread.dtype = previous


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable tape recording inside the block (calling thread only).

    Forward values are identical; ops simply skip wiring backward
    closures, so tensors built inside come out detached.  Used for the
    generator forward feeding the discriminator step (immediately
    detached anyway) and for sampling.
    """
    previous = _thread.grad_enabled
    _thread.grad_enabled = False
    try:
        yield
    finally:
        _thread.grad_enabled = previous


def is_grad_enabled() -> bool:
    return _thread.grad_enabled


def _as_array(value: ArrayLike) -> np.ndarray:
    return np.asarray(value, dtype=get_default_dtype())


class ArrayPool:
    """Recycled scratch ndarrays keyed by ``(shape, dtype)``.

    A buffer-donation scheme for tape kernels with known buffer
    lifetimes (the tape-allocation-churn item): a forward pass
    :meth:`take`\\ s a scratch buffer and its backward closure
    :meth:`put`\\ s it back once gradients no longer alias it, so
    repeated train steps stop churning the allocator for their largest
    temporaries (e.g. the unfolded convolution columns).  Buffers are
    returned uninitialized, like ``np.empty``.

    The pool is purely an optimization: a buffer that is never returned
    (a tape that is dropped without running backward) is simply garbage
    collected and the next ``take`` allocates a fresh one.
    """

    __slots__ = ("_buffers", "max_per_key")

    #: Lifetime-tracking hook installed by ``repro.check.sanitize`` (a
    #: class attribute, so enabling sanitizers covers every pool at
    #: once).  ``None`` in normal runs — the checks below are a single
    #: attribute test.
    _tracker = None

    #: Hit/miss collector installed by ``repro.obs.profile`` when
    #: profiling is enabled (``REPRO_PROFILE=1``); same class-attribute
    #: pattern as ``_tracker``.
    _profiler = None

    def __init__(self, max_per_key: int = 4):
        self._buffers: dict = {}
        self.max_per_key = max_per_key

    def take(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Pop a cached ``(shape, dtype)`` buffer or allocate a new one."""
        stack = self._buffers.get((tuple(shape), np.dtype(dtype)))
        profiler = ArrayPool._profiler
        if profiler is not None:
            profiler.on_pool(bool(stack))
        array = stack.pop() if stack else np.empty(shape, dtype=dtype)
        tracker = ArrayPool._tracker
        if tracker is not None:
            tracker.on_take(self, array)
        return array

    def put(self, array: np.ndarray) -> None:
        """Return ``array`` to the pool for a later :meth:`take`.

        The caller must not touch ``array`` afterwards — the next taker
        will overwrite it.
        """
        tracker = ArrayPool._tracker
        if tracker is not None:
            tracker.on_put(self, array)
        profiler = ArrayPool._profiler
        if profiler is not None:
            profiler.on_put()
        key = (array.shape, array.dtype)
        stack = self._buffers.setdefault(key, [])
        if len(stack) < self.max_per_key:
            stack.append(array)

    def clear(self) -> None:
        """Drop every cached buffer (frees the backing memory)."""
        tracker = ArrayPool._tracker
        if tracker is not None:
            tracker.on_clear(self)
        self._buffers.clear()


#: Shared pool for the small per-node tape scratch (activation sign
#: masks and friends): the forward pass takes a buffer, the backward
#: closure donates it after its single use, so a train step stops
#: allocating ~dozens of short-lived bool arrays (the remaining
#: "tape allocation churn" item after the conv unfold pooling).
_TAPE_POOL = ArrayPool(max_per_key=32)


def reset_worker_state() -> None:
    """Reset process-global engine scratch state after a ``fork``.

    Serving workers call this once at startup: buffers cached in the
    shared tape pool were sized for the *parent's* workloads and, under
    copy-on-write ``fork``, dirty them on first reuse — dropping them
    keeps each worker's footprint proportional to its own traffic.
    Module-owned scratch pools (e.g. conv unfold buffers) are per-model
    instances and repopulate naturally, so only the process-global pool
    needs resetting.
    """
    _TAPE_POOL.clear()


def _take_sign_mask(data: np.ndarray) -> np.ndarray:
    """Pooled ``data > 0`` mask (bit-identical to the fresh allocation)."""
    mask = _TAPE_POOL.take(data.shape, np.bool_)
    return np.greater(data, 0, out=mask)


def _mask_for_backward(state: list, out: np.ndarray) -> np.ndarray:
    """The saved sign mask, or its recomputation if already donated.

    ``state`` is the one-element list holding the pooled mask.  After
    the usual single backward pass the mask has been donated; a repeated
    backward (legal, if unused in practice) recomputes it from the
    activation output — sign-equivalent for the relu family since both
    ``relu`` and positive-slope ``leaky_relu`` preserve sign.
    """
    mask = state[0]
    return (out > 0) if mask is None else mask


def _donate_mask(state: list) -> None:
    """One-shot return of a pooled mask after its backward use."""
    mask = state[0]
    if mask is not None:
        state[0] = None
        _TAPE_POOL.put(mask)


def _donate_scratch(state: list, pool: Optional["ArrayPool"]) -> None:
    """One-shot donation of a pooled forward scratch buffer.

    ``state`` is a one-element list holding the buffer, nulled on
    donation so a repeated backward can detect that the pool reclaimed
    the scratch and recompute it privately instead of reading (or
    re-donating) a buffer a later ``take`` may already own.  No-op
    without a pool: a privately allocated buffer stays valid for
    repeated backwards and needs no return.
    """
    if pool is not None and state[0] is not None:
        pool.put(state[0])
        state[0] = None


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic with a single ``exp`` evaluation.

    Bit-identical to the textbook two-branch form
    ``where(x >= 0, 1/(1+exp(-clip(x))), exp(clip(x))/(1+exp(clip(x))))``
    because both branches reduce to the same ``e = exp(-min(|x|, 500))``.
    """
    e = np.exp(-np.minimum(np.abs(x), 500.0))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast to reach ``grad.shape``.

    When an operand of shape ``shape`` was broadcast during the forward
    pass, its gradient must be reduced back to ``shape``.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(index) -> bool:
    """True when ``index`` performs numpy *basic* (or boolean) indexing.

    Basic and boolean indices select each source element at most once,
    so the backward scatter can be a plain assignment into zeros instead
    of the much slower ``np.add.at`` (which must handle repeated fancy
    indices).
    """
    if isinstance(index, tuple):
        return all(_is_basic_index(part) for part in index)
    if index is None or index is Ellipsis:
        return True
    if isinstance(index, (int, np.integer, slice)):
        return True
    if isinstance(index, np.ndarray) and index.dtype == np.bool_:
        return True
    return False


class Tensor:
    """A numpy array with an autograd tape.

    Parameters
    ----------
    data:
        Array data (converted to the engine's default dtype).
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` on backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    #: Timing collector installed by ``repro.obs.profile`` when
    #: profiling is enabled; ``None`` in normal runs, so the tape pays
    #: one attribute test per node.
    _profiler = None

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Tuple["Tensor", ...],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out._backward = None
        out._parents = ()
        if _thread.grad_enabled:
            for p in parents:
                if p.requires_grad:
                    out.requires_grad = True
                    out._parents = parents
                    out._backward = backward
                    break
        profiler = Tensor._profiler
        if profiler is not None:
            profiler.on_make(backward)
        return out

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the tape."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (use on scalar losses).  Gradients
        accumulate into ``.grad`` of every reachable tensor that has
        ``requires_grad=True``.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"grad shape {grad.shape} != tensor shape {self.data.shape}")

        # Topological order via iterative DFS (avoids recursion limits for
        # long LSTM tapes).  Node ids are computed once and carried along.
        order: list[tuple[Tensor, int]] = []
        visited: set[int] = set()
        stack: list[tuple[int, Tensor, bool]] = [(id(self), self, False)]
        while stack:
            nid, node, processed = stack.pop()
            if processed:
                order.append((node, nid))
                continue
            if nid in visited:
                continue
            visited.add(nid)
            stack.append((nid, node, True))
            for parent in node._parents:
                pid = id(parent)
                if pid not in visited:
                    stack.append((pid, parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node, nid in reversed(order):
            node_grad = grads.pop(nid, None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward is None:
                # Leaf tensor: accumulate.
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
            if node._backward is not None:
                node._propagate(node_grad, grads)

    def _propagate(self, grad: np.ndarray,
                   grads: dict[int, np.ndarray]) -> None:
        """Run this node's backward fn, accumulating into ``grads``."""
        profiler = Tensor._profiler
        if profiler is None:
            parent_grads = self._backward(grad)
        else:
            started = profiler.backward_start()
            parent_grads = self._backward(grad)
            profiler.backward_end(started, self._backward)
        if not isinstance(parent_grads, tuple):
            parent_grads = (parent_grads,)
        for parent, pgrad in zip(self._parents, parent_grads):
            if pgrad is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pgrad
            else:
                grads[key] = pgrad

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = _ensure_tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray):
            return (_unbroadcast(grad, self.data.shape),
                    _unbroadcast(grad, other.data.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-_ensure_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _ensure_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = _ensure_tensor(other)
        data = self.data * other.data

        def backward(grad: np.ndarray):
            return (_unbroadcast(grad * other.data, self.data.shape),
                    _unbroadcast(grad * self.data, other.data.shape))

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = _ensure_tensor(other)
        data = self.data / other.data

        def backward(grad: np.ndarray):
            ga = _unbroadcast(grad / other.data, self.data.shape)
            gb = _unbroadcast(-grad * self.data / (other.data ** 2),
                              other.data.shape)
            return (ga, gb)

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _ensure_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(grad: np.ndarray):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix ops
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = _ensure_tensor(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray):
            a, b = self.data, other.data
            need_a, need_b = self.requires_grad, other.requires_grad
            if a.ndim == 1 and b.ndim == 1:
                # inner product: scalar grad
                ga = grad * b if need_a else None
                gb = grad * a if need_b else None
            elif a.ndim == 1:
                # (k,) @ (k, n) -> (n,)
                ga = grad @ b.T if need_a else None
                gb = np.outer(a, grad) if need_b else None
            elif b.ndim == 1:
                # (m, k) @ (k,) -> (m,)
                ga = np.outer(grad, b) if need_a else None
                gb = a.T @ grad if need_b else None
            else:
                ga = grad @ b.T if need_a else None
                gb = a.T @ grad if need_b else None
            return (ga, gb)

        return Tensor._make(data, (self, other), backward)

    __matmul__ = matmul

    def transpose(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (grad.T,)

        return Tensor._make(self.data.T, (self,), backward)

    @property
    def T(self) -> "Tensor":  # noqa: N802 - numpy-style alias
        return self.transpose()

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray):
            return (grad.reshape(original),)

        return Tensor._make(data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        if _is_basic_index(index):
            # Basic/boolean indexing never selects an element twice, so
            # the scatter is a plain assignment — ``np.add.at`` (which
            # tolerates repeated fancy indices) is ~10x slower and used
            # to dominate LSTM and kl_term profiles.
            def backward(grad: np.ndarray):
                full = np.zeros_like(self.data)
                full[index] = grad
                return (full,)
        else:
            def backward(grad: np.ndarray):
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                return (full,)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            if axis is None:
                return (np.broadcast_to(grad, self.data.shape).copy(),)
            g = grad
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.data.shape).copy(),)

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray):
            return (grad * data,)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray):
            return (grad / self.data,)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray):
            return (grad * 0.5 / data,)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray):
            return (grad * (1.0 - data ** 2),)

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = _stable_sigmoid(self.data)

        def backward(grad: np.ndarray):
            return (grad * data * (1.0 - data),)

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        state = [_take_sign_mask(self.data)]
        data = self.data * state[0]

        def backward(grad: np.ndarray):
            g = grad * _mask_for_backward(state, data)
            _donate_mask(state)
            return (g,)

        out = Tensor._make(data, (self,), backward)
        if out._backward is None:  # no-grad path: backward never runs
            _donate_mask(state)
        return out

    def leaky_relu(self, slope: float = 0.2) -> "Tensor":
        state = [_take_sign_mask(self.data)]
        data = np.where(state[0], self.data, slope * self.data)

        def backward(grad: np.ndarray):
            g = np.where(_mask_for_backward(state, data), grad, slope * grad)
            _donate_mask(state)
            return (g,)

        out = Tensor._make(data, (self,), backward)
        if out._backward is None:  # no-grad path: backward never runs
            _donate_mask(state)
        return out

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray):
            # dL/dx = s * (g - sum(g*s))
            dot = (grad * data).sum(axis=axis, keepdims=True)
            return (data * (grad - dot),)

        return Tensor._make(data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        data = shifted - log_sum
        softmax = np.exp(data)

        def backward(grad: np.ndarray):
            return (grad - softmax * grad.sum(axis=axis, keepdims=True),)

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Differentiable clip (straight-through outside the range)."""
        mask = _TAPE_POOL.take(self.data.shape, np.bool_)
        np.greater_equal(self.data, low, out=mask)
        np.logical_and(mask, self.data <= high, out=mask)
        state = [mask]
        data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray):
            m = state[0]
            if m is None:  # repeated backward: mask was already donated
                m = (self.data >= low) & (self.data <= high)
            g = grad * m
            _donate_mask(state)
            return (g,)

        out = Tensor._make(data, (self,), backward)
        if out._backward is None:  # no-grad path: backward never runs
            _donate_mask(state)
        return out


def _ensure_tensor(value: ArrayLike) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


# ----------------------------------------------------------------------
# Free functions
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [_ensure_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray):
        out = []
        for i in range(len(tensors)):
            index = [slice(None)] * grad.ndim
            index[axis if axis >= 0 else grad.ndim + axis] = slice(
                offsets[i], offsets[i + 1])
            out.append(grad[tuple(index)])
        return tuple(out)

    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [_ensure_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray):
        parts = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in parts)

    return Tensor._make(data, tuple(tensors), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; ``condition`` is a constant boolean array."""
    a = _ensure_tensor(a)
    b = _ensure_tensor(b)
    data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray):
        ga = _unbroadcast(np.where(condition, grad, 0.0), a.data.shape)
        gb = _unbroadcast(np.where(condition, 0.0, grad), b.data.shape)
        return (ga, gb)

    return Tensor._make(data, (a, b), backward)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a non-differentiable :class:`Tensor`."""
    return _ensure_tensor(value)
