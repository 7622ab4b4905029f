#!/usr/bin/env python
"""Seeded-draw digests: one sha256 per model family, config and dtype.

Each configuration is fitted briefly (seeded) on a 1500-row Adult
stand-in, in float32 and in float64, and then draws
``sample(9000, batch=4096, seed=s)`` for ``s`` in 0-4.  The digest
covers every column's name, dtype and bytes of those draws.  Because
every draw comes from a fresh fit, a digest also covers the training
path that shaped the weights (for the MLP heads in float32, the
discriminator step's no-grad generator call).

Two checkouts that sample the same bits print the same lines, so the
output of a change that claims to keep behaviour can be compared with
that of its parent line by line.  The script exits 0 once every digest
is printed; it checks nothing itself.

Usage::

    PYTHONPATH=src python benchmarks/seeded_digest.py
"""

from __future__ import annotations

import hashlib
import sys

#: The Adult stand-in the models are fitted on.
DATASET, RECORDS = "adult", 1500
#: Tiny fit budget: enough steps to move every weight off its init.
EPOCHS, ITERATIONS = 2, 5
#: Rows, chunk size and seeds of the hashed draws.
ROWS, BATCH, SEEDS = 9000, 4096, range(5)
DTYPES = ("float32", "float64")


def configurations():
    """``(name, family, constructor kwargs)`` per hashed configuration."""
    from repro.core import DesignConfig

    gan = dict(epochs=EPOCHS, iterations_per_epoch=ITERATIONS, seed=0)
    return [
        ("gan-mlp-onehot-gmm", "gan", dict(config=DesignConfig(), **gan)),
        ("gan-mlp-ordinal-simple", "gan", dict(config=DesignConfig(
            categorical_encoding="ordinal",
            numerical_normalization="simple"), **gan)),
        ("gan-mlp-conditional", "gan",
         dict(config=DesignConfig(conditional=True), **gan)),
        ("gan-lstm", "gan",
         dict(config=DesignConfig(generator="lstm"), **gan)),
        ("gan-cnn", "gan", dict(config=DesignConfig(
            generator="cnn", categorical_encoding="ordinal",
            numerical_normalization="simple"), **gan)),
        ("vae", "vae", dict(epochs=EPOCHS, iterations_per_epoch=ITERATIONS,
                            seed=0)),
        ("privbayes", "privbayes", dict(seed=0)),
    ]


def digest(synth) -> str:
    """sha256 over the seeded draws' column names, dtypes and bytes."""
    hasher = hashlib.sha256()
    for seed in SEEDS:
        table = synth.sample(ROWS, batch=BATCH, seed=seed)
        for name in table.schema.names:
            column = table.column(name)
            hasher.update(name.encode())
            hasher.update(column.dtype.str.encode())
            hasher.update(column.tobytes())
    return hasher.hexdigest()


def main() -> int:
    from repro import datasets, make_synthesizer
    from repro.nn import default_dtype

    table = datasets.load(DATASET, n_records=RECORDS, seed=0)
    for name, family, kwargs in configurations():
        for dtype in DTYPES:
            synth = make_synthesizer(family, **kwargs)
            with default_dtype(dtype):
                synth.fit(table)
            print(f"{name:24s} {dtype:8s} {digest(synth)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
