"""MLP generator and discriminator (paper Appendix A.1.2, Figure 11).

Generator: ``h^{l+1} = ReLU(BN(FC(h^l)))`` over the noise (plus the
condition vector for conditional GAN), finished by the attribute-aware
heads.  Discriminator: fully connected LeakyReLU stack ending in a single
logit (the sigmoid lives in the loss; WGAN uses the raw logit).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..nn import (
    BatchNorm1d, Linear, Module, Tensor, concat, fused_linear,
)
from ..nn.tensor import get_default_dtype, is_grad_enabled
from ..transform.base import BlockSpec
from .heads import MultiHead


def _fold_eval_bn(fc: Linear, bn: BatchNorm1d) -> tuple:
    """Fold eval-mode batch norm into the preceding linear layer.

    ``relu(BN_eval(x W + b))`` equals ``relu(x W' + b')`` with
    ``W' = W * s`` and ``b' = (b - mean) * s + beta`` for the fixed
    per-feature scale ``s = gamma / sqrt(running_var + eps)``.  The fold
    costs two elementwise passes over the (small) weight matrix and
    removes every full-batch BN temporary from the sampling hot loop.
    The re-associated affine differs from the composed BN chain by
    rounding only.  It is computed in the engine dtype, which sampling
    scopes to the model's own (:meth:`repro.api.Synthesizer.sample_iter`),
    so the fold is the same in every process that samples the model.
    """
    dtype = get_default_dtype()
    inv = np.asarray(1.0 / np.sqrt(bn.running_var + bn.eps), dtype=dtype)
    mean = np.asarray(bn.running_mean, dtype=dtype)
    scale = bn.gamma.data * inv
    weight = Tensor(fc.weight.data * scale)
    bias = Tensor((fc.bias.data - mean) * scale + bn.beta.data)
    return weight, bias


class MLPGenerator(Module):
    """Noise (+ condition) -> sample vector via fully connected layers."""

    def __init__(self, z_dim: int, blocks: List[BlockSpec],
                 hidden_dim: int = 128, n_layers: int = 2,
                 cond_dim: int = 0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.z_dim = z_dim
        self.cond_dim = cond_dim
        self.blocks = blocks
        in_dim = z_dim + cond_dim
        self.hidden_layers: List[Module] = []
        for i in range(n_layers):
            fc = Linear(in_dim, hidden_dim, rng=rng)
            bn = BatchNorm1d(hidden_dim)
            self.register_module(f"fc{i}", fc)
            self.register_module(f"bn{i}", bn)
            self.hidden_layers.append((fc, bn))
            in_dim = hidden_dim
        self.heads = MultiHead(in_dim, blocks, rng=rng)
        self._folded_cache = None

    # The folded eval-BN weights are constant for a whole eval-mode
    # sampling stream; any event that could change weights or mode
    # invalidates the cache.
    def train(self) -> "Module":
        self._folded_cache = None
        return super().train()

    def eval(self) -> "Module":
        self._folded_cache = None
        return super().eval()

    def load_state_dict(self, state) -> None:
        self._folded_cache = None
        super().load_state_dict(state)

    @property
    def output_dim(self) -> int:
        return sum(block.width for block in self.blocks)

    def forward(self, z: Tensor, cond: Optional[Tensor] = None) -> Tensor:
        h = z if cond is None else concat([z, cond], axis=1)
        if not self.training and not is_grad_enabled():
            # Sampling path (both dtypes): eval-mode BN is a constant
            # affine, so each hidden layer collapses to one fused GEMM
            # (the fold is computed once per stream, not per chunk).
            if self._folded_cache is None:
                self._folded_cache = [_fold_eval_bn(fc, bn)
                                      for fc, bn in self.hidden_layers]
            for weight, bias in self._folded_cache:
                h = fused_linear(h, weight, bias, activation="relu")
        else:
            for fc, bn in self.hidden_layers:
                h = bn(fc(h), activation="relu")
        return self.heads(h)


class MLPDiscriminator(Module):
    """Sample (+ condition) -> realness logit.

    ``simplified=True`` realizes the paper's mode-collapse remedy (§5.2):
    a single narrow hidden layer so D never trains "too well" and G's
    gradient does not vanish.
    """

    def __init__(self, input_dim: int, hidden_dim: int = 128,
                 n_layers: int = 2, cond_dim: int = 0,
                 simplified: bool = False,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.cond_dim = cond_dim
        if simplified:
            hidden_dim = max(16, hidden_dim // 4)
            n_layers = 1
        in_dim = input_dim + cond_dim
        self.hidden_layers: List[Linear] = []
        for i in range(n_layers):
            fc = Linear(in_dim, hidden_dim, rng=rng)
            self.register_module(f"fc{i}", fc)
            self.hidden_layers.append(fc)
            in_dim = hidden_dim
        self.out = Linear(in_dim, 1, rng=rng)

    def forward(self, t: Tensor, cond: Optional[Tensor] = None) -> Tensor:
        h = t if cond is None else concat([t, cond], axis=1)
        for fc in self.hidden_layers:
            h = fc(h, activation="leaky_relu", slope=0.2)
        return self.out(h)
