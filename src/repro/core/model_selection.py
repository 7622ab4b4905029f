"""Hyper-parameter search (paper §6.4).

The paper follows Lucic et al.: draw candidate hyper-parameter settings,
train each, score on the validation set, keep the best.
:func:`hyperparameter_candidates` draws settings from the ranges the
GAN literature uses (learning rates, widths, batch sizes);
:func:`random_search` runs the loop.  The per-candidate epoch curves are
exactly the Figure 4 robustness series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..api.facade import synthesize
from ..api.result import SynthesisResult
from ..datasets.schema import Table
from .design_space import DesignConfig

_LEARNING_RATES = (5e-4, 1e-3, 2e-3, 5e-3)
_HIDDEN_DIMS = (64, 128, 256)
_BATCH_SIZES = (32, 64, 128)
_Z_DIMS = (16, 32, 64)


def hyperparameter_candidates(base: DesignConfig, n: int = 6,
                              rng: Optional[np.random.Generator] = None,
                              seed: int = 0) -> List[DesignConfig]:
    """Draw ``n`` random hyper-parameter settings around ``base``."""
    rng = rng if rng is not None else np.random.default_rng(seed)
    candidates = []
    for _ in range(n):
        lr = float(_LEARNING_RATES[rng.integers(0, len(_LEARNING_RATES))])
        candidates.append(base.with_(
            lr_g=lr,
            lr_d=float(_LEARNING_RATES[
                rng.integers(0, len(_LEARNING_RATES))]),
            hidden_dim=int(_HIDDEN_DIMS[rng.integers(0, len(_HIDDEN_DIMS))]),
            batch_size=int(_BATCH_SIZES[rng.integers(0, len(_BATCH_SIZES))]),
            z_dim=int(_Z_DIMS[rng.integers(0, len(_Z_DIMS))]),
        ))
    return candidates


@dataclass
class SearchResult:
    """Outcome of a random hyper-parameter search."""

    best_config: DesignConfig
    best_run: SynthesisResult
    curves: List[List[float]] = field(default_factory=list)
    configs: List[DesignConfig] = field(default_factory=list)

    @property
    def best_f1(self) -> float:
        return self.best_run.final_score


def random_search(base: DesignConfig, train: Table, valid: Table,
                  n_trials: int = 4, epochs: int = 10,
                  iterations_per_epoch: int = 40,
                  selection_classifier: str = "DT10",
                  seed: int = 0) -> SearchResult:
    """Train each candidate, keep the best validation score."""
    candidates = hyperparameter_candidates(base, n=n_trials, seed=seed)
    best: Optional[SynthesisResult] = None
    best_config = base
    curves: List[List[float]] = []
    for i, config in enumerate(candidates):
        run = synthesize(
            train, method="gan", config=config, valid=valid, epochs=epochs,
            iterations_per_epoch=iterations_per_epoch,
            selection_classifier=selection_classifier, seed=seed + i)
        curves.append(run.selection_curve)
        if best is None or run.final_score > best.final_score:
            best = run
            best_config = config
    return SearchResult(best_config=best_config, best_run=best,
                        curves=curves, configs=candidates)
