"""Shared fixtures: small deterministic tables and RNGs."""

import numpy as np
import pytest

from repro.datasets.schema import Attribute, CATEGORICAL, NUMERICAL, Schema, Table


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_mixed_table(n=200, seed=0, label_skew=0.3):
    """A small mixed-type labeled table used across test modules."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < label_skew).astype(np.int64)
    age = np.where(labels == 1, rng.normal(52, 6, n), rng.normal(33, 8, n))
    income = rng.normal(30 + 40 * labels, 10, n)
    job = np.where(labels == 1,
                   rng.choice(3, n, p=[0.6, 0.3, 0.1]),
                   rng.choice(3, n, p=[0.1, 0.3, 0.6])).astype(np.int64)
    city = rng.integers(0, 4, n)
    schema = Schema(
        attributes=(
            Attribute("age", NUMERICAL),
            Attribute("income", NUMERICAL),
            Attribute("job", CATEGORICAL, categories=("eng", "doc", "art")),
            Attribute("city", CATEGORICAL,
                      categories=("a", "b", "c", "d")),
            Attribute("label", CATEGORICAL, categories=("neg", "pos")),
        ),
        label_name="label",
    )
    return Table(schema, {"age": age, "income": income, "job": job,
                          "city": city, "label": labels})


@pytest.fixture
def mixed_table():
    return make_mixed_table()


@pytest.fixture
def numeric_table():
    """Numerical-attributes-only labeled table."""
    rng = np.random.default_rng(7)
    n = 150
    labels = rng.integers(0, 2, n)
    x = rng.normal(labels * 3.0, 1.0, n)
    y = rng.normal(-labels * 2.0, 1.0, n)
    schema = Schema(
        attributes=(
            Attribute("x", NUMERICAL),
            Attribute("y", NUMERICAL),
            Attribute("label", CATEGORICAL, categories=("neg", "pos")),
        ),
        label_name="label",
    )
    return Table(schema, {"x": x, "y": y, "label": labels})


def numeric_gradient(func, x, eps=1e-6):
    """Central finite differences of ``func()`` w.r.t. array ``x``."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + eps
        f_plus = func()
        x[idx] = original - eps
        f_minus = func()
        x[idx] = original
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


#: One seeded draw per saved model of :func:`dtype_model_store`: three
#: chunks, so the draw spans pool workers.
DTYPE_DRAW = dict(n=300, batch=128, seed=11)


@pytest.fixture(scope="session")
def dtype_model_store(tmp_path_factory):
    """GAN (mlp, conditional lstm, cnn) and VAE models, each fitted and
    saved under float32 and under float64, with the fitting process's
    own :data:`DTYPE_DRAW` of each.

    Returns ``(root, {name: draw})``; model ``name`` is saved at
    ``root / name``.
    """
    from repro import nn
    from repro.api import make_synthesizer
    from repro.core import DesignConfig

    root = tmp_path_factory.mktemp("dtype-models")
    table = make_mixed_table(n=160, seed=3)
    tiny = dict(seed=0, epochs=1, iterations_per_epoch=3)
    families = {
        "gan-mlp": ("gan", dict(config=DesignConfig())),
        "gan-lstm": ("gan", dict(config=DesignConfig(generator="lstm",
                                                     conditional=True))),
        "gan-cnn": ("gan", dict(config=DesignConfig(
            generator="cnn", categorical_encoding="ordinal",
            numerical_normalization="simple"))),
        "vae": ("vae", {}),
    }
    draws = {}
    for dtype in ("float32", "float64"):
        with nn.default_dtype(dtype):
            for family, (method, kwargs) in families.items():
                name = f"{family}-{dtype}"
                synth = make_synthesizer(method, **tiny, **kwargs).fit(table)
                synth.save(root / name)
                draws[name] = synth.sample(**DTYPE_DRAW)
    return root, draws
