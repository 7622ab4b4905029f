"""DatabaseSynthesizer: integrity, row counts, persistence, families."""

import numpy as np
import pytest

import repro
from repro.datasets import sdata_relational
from repro.errors import TrainingError
from repro.relational import (
    DatabaseSynthesizer, child_counts, load_database_synthesizer,
)

FAST = dict(epochs=1, iterations_per_epoch=3)


@pytest.fixture(scope="module")
def database():
    return sdata_relational(n_customers=80, orders_per_customer=2.0, seed=0)


def _method_kwargs(method):
    # PrivBayes takes no epoch knobs; neural families get tiny budgets.
    return {} if method == "privbayes" else dict(FAST)


@pytest.mark.parametrize("method", ["gan", "vae", "privbayes"])
def test_referential_integrity_and_row_counts(database, method):
    synth = DatabaseSynthesizer(method=method,
                                method_kwargs=_method_kwargs(method),
                                seed=0)
    synth.fit(database)
    out = synth.sample(scale=1.0, seed=11)

    # Zero dangling foreign keys, for every per-table family.
    assert out.check_integrity() == {
        "orders.customer_id->customers": 0}

    # Exact row counts: the parent honours scale; the child table has
    # exactly one row per drawn cardinality unit.
    assert len(out["customers"]) == len(database["customers"])
    counts = child_counts(out.primary_key_values("customers"),
                          out["orders"].column("customer_id"))
    assert counts.sum() == len(out["orders"])

    # Primary keys are dense, unique ids.
    assert (np.sort(out.primary_key_values("orders"))
            == np.arange(len(out["orders"]))).all()

    # Only the GAN family trains with parent-context conditioning.
    assert synth._conditioned["orders"] == (method == "gan")


def test_seeded_sampling_reproducible(database):
    synth = DatabaseSynthesizer(method="vae", method_kwargs=FAST, seed=0)
    synth.fit(database)
    a = synth.sample(scale=0.5, seed=3)
    b = synth.sample(scale=0.5, seed=3)
    for name in a.table_names:
        for column in a[name].columns:
            assert (a[name].columns[column] == b[name].columns[column]).all()


def test_scale_and_sizes(database):
    synth = DatabaseSynthesizer(method="privbayes", seed=0)
    synth.fit(database)
    half = synth.sample(scale=0.5, seed=1)
    assert len(half["customers"]) == round(len(database["customers"]) * 0.5)
    fixed = synth.sample(sizes={"customers": 17}, seed=1)
    assert len(fixed["customers"]) == 17
    with pytest.raises(ValueError, match="scale must be positive"):
        synth.sample(scale=0.0)
    for scale in (1e300, 1e308):
        with pytest.raises(ValueError, match="scale"):
            synth.sample(scale=scale)


def test_fit_rejects_dangling_training_data(database):
    broken = sdata_relational(n_customers=30, seed=1)
    broken["orders"].columns["customer_id"][0] = 10_000
    synth = DatabaseSynthesizer(method="privbayes", seed=0)
    with pytest.raises(TrainingError, match="dangling foreign keys"):
        synth.fit(broken)


def test_sample_requires_fit():
    with pytest.raises(TrainingError, match="not fitted"):
        DatabaseSynthesizer().sample()


def test_per_table_method_overrides(database):
    synth = DatabaseSynthesizer(method="privbayes",
                                per_table={"orders": "vae"},
                                method_kwargs=FAST, seed=0)
    synth.fit(database)
    assert synth.table_method("customers") == "privbayes"
    assert synth.table_method("orders") == "vae"
    assert type(synth._synths["orders"]).__name__ == "VAESynthesizer"


def test_save_load_roundtrip(tmp_path, database):
    synth = DatabaseSynthesizer(method="gan", method_kwargs=FAST, seed=0)
    synth.fit(database)
    synth.save(tmp_path / "model")
    restored = load_database_synthesizer(tmp_path / "model")
    a = synth.sample(scale=1.0, seed=5)
    b = restored.sample(scale=1.0, seed=5)
    for name in a.table_names:
        for column in a[name].columns:
            np.testing.assert_array_equal(a[name].columns[column],
                                          b[name].columns[column])
    assert restored._conditioned == synth._conditioned


def test_registry_exposes_relational():
    assert "relational" in repro.available_synthesizers()
    assert repro.make_synthesizer("relational",
                                  method="vae").method == "relational"


def test_facade_synthesize_database(database):
    result = repro.synthesize_database(database, method="vae", seed=0,
                                       sample_seed=2, **FAST)
    assert result.database.check_integrity() == {
        "orders.customer_id->customers": 0}
    assert result.report is not None
    assert set(result.report) == {"tables", "foreign_keys",
                                  "dangling_references"}
    assert result.provenance["per_table"] == {"customers": "vae",
                                              "orders": "vae"}
    assert result.provenance["n_synthetic"]["customers"] == len(
        database["customers"])
