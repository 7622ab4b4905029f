"""The GAN pipeline through the facade: snapshot selection, size
ratio, hyper-parameter search, and the experiment context."""

import numpy as np
import pytest

from repro import synthesize
from repro.api.selection import score_snapshots
from repro.core import (
    DesignConfig, hyperparameter_candidates, random_search,
)
from repro.core.experiment import ExperimentContext
from repro.gan import GANSynthesizer

from tests.conftest import make_mixed_table


@pytest.fixture(scope="module")
def split():
    table = make_mixed_table(n=360, seed=5)
    from repro import datasets

    return datasets.split(table, seed=0)


class TestPipeline:
    def test_run_selects_best_epoch(self, split):
        train, valid, test = split
        run = synthesize(train, "gan", config=DesignConfig(), valid=valid,
                         epochs=3, iterations_per_epoch=5, seed=0)
        assert len(run.selection_curve) == 3
        assert run.best_epoch == int(np.argmax(run.selection_curve))
        assert len(run.table) == len(train)

    def test_size_ratio(self, split):
        train, valid, _ = split
        run = synthesize(train, "gan", config=DesignConfig(), valid=valid,
                         epochs=2, iterations_per_epoch=3, size_ratio=0.5,
                         seed=0)
        assert len(run.table) == round(len(train) * 0.5)

    def test_snapshot_curve_length(self, split):
        train, valid, _ = split
        synth = GANSynthesizer(DesignConfig(), epochs=3,
                               iterations_per_epoch=4, seed=0).fit(train)
        scores = score_snapshots(synth, valid, sample_size=200)
        assert scores.criterion == "f1:DT10"
        curve = scores.scores
        assert len(curve) == 3
        assert all(0.0 <= v <= 1.0 for v in curve)

    def test_unlabeled_table_uses_fidelity_selection(self):
        """Bing-style unlabeled tables must not always pick epoch 0."""
        from repro import datasets

        table = datasets.load("bing", n_records=360, seed=0)
        train, valid, _ = datasets.split(table, seed=0)
        run = synthesize(train, "gan", config=DesignConfig(), valid=valid,
                         epochs=3, iterations_per_epoch=4, seed=0)
        assert len(run.selection_curve) == 3
        assert run.provenance["selection_criterion"] == "fidelity"
        # Fidelity scores are negative mean marginal TVs.
        assert all(v <= 0.0 for v in run.selection_curve)
        synth = GANSynthesizer(DesignConfig(), epochs=2,
                               iterations_per_epoch=3, seed=0).fit(train)
        scores = score_snapshots(synth, valid, sample_size=150)
        assert scores.criterion == "fidelity"
        assert len(scores.scores) == 2


class TestModelSelection:
    def test_candidates_vary(self):
        base = DesignConfig()
        candidates = hyperparameter_candidates(base, n=6, seed=0)
        assert len(candidates) == 6
        assert len({(c.lr_g, c.hidden_dim, c.batch_size, c.z_dim)
                    for c in candidates}) > 1

    def test_random_search_returns_best(self, split):
        train, valid, _ = split
        result = random_search(DesignConfig(), train, valid, n_trials=2,
                               epochs=2, iterations_per_epoch=3, seed=0)
        assert len(result.curves) == 2
        assert result.best_f1 == result.best_run.final_score == max(
            max(curve) for curve in result.curves)


class TestExperimentContext:
    def test_context_splits(self):
        ctx = ExperimentContext("adult", n_records=300, epochs=1,
                                iterations_per_epoch=2, seed=0)
        assert len(ctx.train) + len(ctx.valid) + len(ctx.test) == 300

    def test_gan_and_diff_row(self):
        ctx = ExperimentContext("adult", n_records=300, epochs=2,
                                iterations_per_epoch=3, seed=0)
        run = ctx.gan()
        assert run.best_epoch is not None
        row = ctx.diff_row(run.table, classifiers=("DT10",))
        assert set(row) == {"DT10"}
        assert 0.0 <= row["DT10"] <= 1.0

    def test_privbayes_and_vae_helpers(self):
        ctx = ExperimentContext("adult", n_records=300, epochs=1,
                                iterations_per_epoch=2, seed=0)
        fake_pb = ctx.privbayes(epsilon=1.6)
        assert len(fake_pb) == len(ctx.train)
