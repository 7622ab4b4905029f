"""Shared experiment runner used by the benchmark harnesses.

An :class:`ExperimentContext` pins a dataset (stand-in), its 4:1:1 split,
and the training budget; helpers synthesize with any of the three method
families (GAN design points, VAE, PrivBayes) and compute the paper's
utility rows.  Benchmark scale is tunable via environment variables:

* ``REPRO_BENCH_RECORDS`` — records per dataset (default 1200)
* ``REPRO_BENCH_EPOCHS`` — training epochs (default 5)
* ``REPRO_BENCH_ITERS`` — iterations per epoch (default 25)

Larger values sharpen the reproduction at proportional CPU cost.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .. import datasets
from ..api import SynthesisResult, make_synthesizer
from ..datasets.schema import Table
from .design_space import DesignConfig
from .evaluation import classification_utilities


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


DEFAULT_RECORDS = _env_int("REPRO_BENCH_RECORDS", 1200)
DEFAULT_EPOCHS = _env_int("REPRO_BENCH_EPOCHS", 5)
DEFAULT_ITERS = _env_int("REPRO_BENCH_ITERS", 25)


@dataclass
class ExperimentContext:
    """One dataset + split + training budget."""

    dataset: str
    n_records: int = DEFAULT_RECORDS
    epochs: int = DEFAULT_EPOCHS
    iterations_per_epoch: int = DEFAULT_ITERS
    seed: int = 0
    dataset_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        table = datasets.load(self.dataset, n_records=self.n_records,
                              seed=self.seed, **self.dataset_kwargs)
        self.train, self.valid, self.test = datasets.split(
            table, seed=self.seed)

    # -- synthesis ------------------------------------------------------
    def synthesize(self, method: str, valid: bool = True,
                   **kwargs) -> SynthesisResult:
        """Run any registered family through :func:`repro.synthesize`.

        The context's training table, validation table (when ``valid``),
        seed, and training budget (``epochs`` / ``iterations_per_epoch``,
        where the family accepts them) are supplied automatically;
        ``kwargs`` go to the facade (and through it to the family
        constructor).
        """
        import inspect

        from ..api.facade import synthesize
        from ..api.registry import resolve

        params = inspect.signature(resolve(method).__init__).parameters
        for key, value in (("epochs", self.epochs),
                           ("iterations_per_epoch",
                            self.iterations_per_epoch)):
            if key in params:
                kwargs.setdefault(key, value)
        return synthesize(self.train, method=method,
                          valid=self.valid if valid else None,
                          seed=kwargs.pop("seed", self.seed), **kwargs)

    def gan(self, config: Optional[DesignConfig] = None,
            size_ratio: float = 1.0, seed_offset: int = 0
            ) -> SynthesisResult:
        """GAN synthesis with validation-based snapshot selection."""
        return self.synthesize(
            "gan", config=config if config is not None else DesignConfig(),
            size_ratio=size_ratio, seed=self.seed + seed_offset)

    def vae(self, **kwargs) -> Table:
        synth = make_synthesizer(
            "vae", epochs=max(self.epochs, 8),
            iterations_per_epoch=max(self.iterations_per_epoch, 40),
            seed=self.seed, **kwargs)
        return synth.fit_sample(self.train)

    def privbayes(self, epsilon: Optional[float], **kwargs) -> Table:
        synth = make_synthesizer("privbayes", epsilon=epsilon,
                                 seed=self.seed, **kwargs)
        return synth.fit_sample(self.train)

    # -- evaluation -----------------------------------------------------
    def diff_row(self, synthetic: Table,
                 classifiers: Sequence[str] = ("DT10", "DT30", "RF10",
                                               "RF20", "AB", "LR")
                 ) -> Dict[str, float]:
        """Per-classifier F1 differences — one row of a paper table."""
        utilities = classification_utilities(
            synthetic, self.train, self.test, classifiers, seed=self.seed)
        return {name: utilities[name].diff for name in classifiers}


@lru_cache(maxsize=32)
def get_context(dataset: str, n_records: int = DEFAULT_RECORDS,
                epochs: int = DEFAULT_EPOCHS,
                iterations_per_epoch: int = DEFAULT_ITERS,
                seed: int = 0,
                dataset_kwargs: Tuple = ()) -> ExperimentContext:
    """Cached contexts so benchmarks sharing a dataset reuse the split."""
    return ExperimentContext(dataset, n_records=n_records, epochs=epochs,
                             iterations_per_epoch=iterations_per_epoch,
                             seed=seed, dataset_kwargs=dict(dataset_kwargs))
