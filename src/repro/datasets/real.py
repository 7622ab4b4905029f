"""Schema-faithful stand-ins for the paper's eight real datasets.

The evaluation datasets (Table 2 of the paper: HTRU2, Digits, Adult,
CovType, SAT, Anuran, Census, Bing) cannot be downloaded offline, so each
is simulated by a class-conditional generative model that reproduces the
characteristics the paper's experiments vary over:

* attribute counts and types (numerical / categorical mix),
* label cardinality and skewness (ratio most-popular : rarest > 9),
* attribute correlation (shared latent factors),
* multi-modal numerical marginals (class-dependent component means).

Absolute values are synthetic; the *relative* behaviour of synthesizers
across these characteristics — which is what every experiment measures —
is preserved.  See DESIGN.md §1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .schema import Attribute, CATEGORICAL, NUMERICAL, Schema, Table


@dataclass(frozen=True)
class DatasetSpec:
    """Declarative description of one stand-in dataset."""

    name: str
    n_numerical: int
    categorical_domains: Tuple[int, ...]  # one entry per categorical attr
    n_labels: int                         # 0 -> unlabeled (Bing)
    label_weights: Tuple[float, ...]      # class prior (empty if unlabeled)
    default_records: int
    latent_dim: int = 2                   # shared factors -> correlations
    noise_scale: float = 1.6              # class overlap (harder learning)
    label_noise: float = 0.05             # fraction of flipped labels
    integral_numerical: bool = False
    #: exp-transform numerics into skewed positive values (counts /
    #: latencies), as in production workload statistics (Bing).
    positive_numerical: bool = False


def _skewed_weights(n_labels: int, ratio: float) -> Tuple[float, ...]:
    """Geometric class prior with most-popular : rarest == ratio."""
    if n_labels == 1:
        return (1.0,)
    decay = ratio ** (1.0 / (n_labels - 1))
    raw = np.array([decay ** -i for i in range(n_labels)])
    return tuple(raw / raw.sum())


SPECS = {
    "htru2": DatasetSpec(
        name="htru2", n_numerical=8, categorical_domains=(), n_labels=2,
        label_weights=_skewed_weights(2, 10.0), default_records=4000,
        noise_scale=1.2),
    "digits": DatasetSpec(
        name="digits", n_numerical=16, categorical_domains=(), n_labels=10,
        label_weights=tuple([0.1] * 10), default_records=4000,
        noise_scale=1.0),
    "adult": DatasetSpec(
        name="adult", n_numerical=6,
        categorical_domains=(7, 9, 16, 7, 14, 6, 5, 2), n_labels=2,
        label_weights=(0.75, 0.25), default_records=4000,
        integral_numerical=True),
    "covtype": DatasetSpec(
        name="covtype", n_numerical=10, categorical_domains=(4, 8),
        n_labels=7, label_weights=_skewed_weights(7, 9.5),
        default_records=5000, noise_scale=1.2),
    "sat": DatasetSpec(
        name="sat", n_numerical=36, categorical_domains=(), n_labels=6,
        label_weights=tuple([1.0 / 6] * 6), default_records=3000,
        noise_scale=1.0),
    "anuran": DatasetSpec(
        name="anuran", n_numerical=22, categorical_domains=(), n_labels=10,
        label_weights=_skewed_weights(10, 20.0), default_records=3600,
        noise_scale=0.7, label_noise=0.02),
    "census": DatasetSpec(
        name="census", n_numerical=9,
        categorical_domains=(9, 8, 7, 6, 5, 5, 4, 4, 3, 3, 3, 3, 2, 2, 2, 2,
                             6, 5, 4, 3, 7, 2, 2, 3, 4, 5, 2, 3, 2, 2),
        n_labels=2, label_weights=(0.95, 0.05), default_records=5000),
    "bing": DatasetSpec(
        name="bing", n_numerical=7,
        categorical_domains=(8, 7, 6, 6, 5, 5, 4, 4, 4, 3, 3, 3, 3, 2, 2, 2,
                             2, 2, 5, 4, 3, 6, 2),
        n_labels=0, label_weights=(), default_records=8000,
        integral_numerical=True, positive_numerical=True),
}

LOW_DIMENSIONAL = ("htru2", "digits", "adult", "covtype")
HIGH_DIMENSIONAL = ("sat", "anuran", "census", "bing")


def generate(spec: DatasetSpec, n_records: Optional[int] = None,
             seed: int = 0) -> Table:
    """Draw ``n_records`` rows from the spec's class-conditional model.

    The generator is keyed on ``seed`` and a SHA-256 digest of the
    dataset name, so a seed yields the same table in every process.
    """
    # Imported here: repro.api imports this package.
    from ..api.seeding import substream

    n = n_records if n_records is not None else spec.default_records
    rng = substream(seed, "dataset", spec.name)

    n_classes = max(spec.n_labels, 1)
    # Class priors.
    if spec.n_labels:
        weights = np.asarray(spec.label_weights)
        labels = rng.choice(spec.n_labels, size=n, p=weights)
    else:
        labels = np.zeros(n, dtype=np.int64)

    # Shared latent factors induce attribute correlations.
    latent = rng.standard_normal((n, spec.latent_dim))

    columns = {}
    attributes = []

    # Numerical attributes: class-dependent component means plus latent
    # projection -> correlated, multi-modal marginals.  Means overlap and
    # noise dominates part of the signal so classification is non-trivial
    # (the paper's real datasets have F1 well below 1).
    class_means = rng.uniform(-1.2, 1.2, size=(n_classes, spec.n_numerical))
    class_scales = rng.uniform(0.4, 1.2, size=(n_classes, spec.n_numerical))
    latent_proj = rng.normal(0.0, 0.8,
                             size=(spec.latent_dim, spec.n_numerical))
    numeric = (class_means[labels]
               + latent @ latent_proj
               + rng.standard_normal((n, spec.n_numerical))
               * class_scales[labels] * spec.noise_scale)
    if spec.positive_numerical:
        # Skewed positive values (counts / latencies): log-normal shape.
        numeric = np.exp(numeric / 2.0) * 10.0
    for j in range(spec.n_numerical):
        name = f"num{j}"
        values = numeric[:, j]
        if spec.integral_numerical and j % 2 == 0:
            values = np.rint(values * 10)
            attributes.append(Attribute(name, NUMERICAL, integral=True))
        else:
            attributes.append(Attribute(name, NUMERICAL))
        columns[name] = values

    # Categorical attributes: class- and latent-dependent logits.
    for j, domain in enumerate(spec.categorical_domains):
        name = f"cat{j}"
        base_logits = rng.normal(0.0, 0.6, size=(n_classes, domain))
        latent_weight = rng.normal(0.0, 0.7, size=(spec.latent_dim, domain))
        logits = base_logits[labels] + latent @ latent_weight
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        u = rng.random(n)
        codes = (u[:, None] > probs.cumsum(axis=1)).sum(axis=1)
        codes = np.minimum(codes, domain - 1)
        attributes.append(Attribute(
            name, CATEGORICAL,
            categories=tuple(f"{name}_v{v}" for v in range(domain))))
        columns[name] = codes

    label_name = None
    if spec.n_labels:
        # Flip a small fraction of labels: an irreducible error floor.
        flip = rng.random(n) < spec.label_noise
        labels = labels.copy()
        labels[flip] = rng.integers(0, spec.n_labels, size=int(flip.sum()))
        columns["label"] = labels
        label_name = "label"
        attributes.append(Attribute(
            "label", CATEGORICAL,
            categories=tuple(f"class{c}" for c in range(spec.n_labels))))
        columns["label"] = labels

    schema = Schema(attributes=tuple(attributes), label_name=label_name)
    return Table(schema, columns)
