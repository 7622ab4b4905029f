"""Cross-module integration: full synthesize-evaluate loops per method.

These are the library's end-to-end guarantees: every synthesizer family
can fit a mixed-type table, produce a schema-valid synthetic table, and
be pushed through every utility and privacy evaluation.
"""

import numpy as np
import pytest

from repro import datasets, synthesize
from repro.core import (
    DesignConfig, aqp_utility, classification_utility, clustering_utility,
    privacy_report,
)
from repro.privbayes import PrivBayesSynthesizer
from repro.vae import VAESynthesizer


@pytest.fixture(scope="module")
def split():
    table = datasets.load("adult", n_records=600, seed=0)
    return datasets.split(table, seed=0)


@pytest.fixture(scope="module")
def gan_synthetic(split):
    train, valid, _ = split
    run = synthesize(train, "gan", config=DesignConfig(), valid=valid,
                     epochs=3, iterations_per_epoch=10, seed=0)
    return run.table


class TestGANEndToEnd:
    def test_full_evaluation_stack(self, split, gan_synthetic):
        train, _, test = split
        result = classification_utility(gan_synthetic, train, test, "DT10")
        assert 0.0 <= result.diff <= 1.0
        assert 0.0 <= clustering_utility(gan_synthetic, train) <= 1.0
        assert aqp_utility(gan_synthetic, train, n_queries=20,
                           n_sample_draws=2) >= 0.0
        report = privacy_report(gan_synthetic, train, hit_samples=100,
                                dcr_samples=100)
        assert 0.0 <= report.hitting_rate <= 1.0
        assert report.dcr >= 0.0

    def test_gan_is_not_memorizing(self, split, gan_synthetic):
        """No one-to-one record correspondence (the paper's privacy claim)."""
        train, _, _ = split
        report = privacy_report(gan_synthetic, train, hit_samples=150,
                                dcr_samples=100)
        assert report.dcr > 0.0


class TestBaselinesEndToEnd:
    def test_vae(self, split):
        train, _, test = split
        synth = VAESynthesizer(epochs=3, iterations_per_epoch=10, seed=0)
        fake = synth.fit(train).sample(len(train))
        assert fake.schema.names == train.schema.names
        result = classification_utility(fake, train, test, "DT10")
        assert 0.0 <= result.diff <= 1.0

    def test_privbayes_eps_sweep_is_usable(self, split):
        train, _, test = split
        for eps in (0.2, 1.6, None):
            fake = PrivBayesSynthesizer(epsilon=eps, seed=0).fit(
                train).sample(len(train))
            assert len(fake) == len(train)

    def test_all_generator_families_run(self, split):
        train, valid, _ = split
        for config in (
            DesignConfig(generator="mlp"),
            DesignConfig(generator="lstm"),
            DesignConfig(generator="cnn", categorical_encoding="ordinal",
                         numerical_normalization="simple"),
        ):
            run = synthesize(train, "gan", config=config, valid=valid,
                             epochs=1, iterations_per_epoch=3, seed=0)
            assert len(run.table) == len(train)


class TestDatasetsIntegration:
    @pytest.mark.parametrize("name", ["covtype", "census"])
    def test_multilabel_datasets_flow(self, name):
        table = datasets.load(name, n_records=400, seed=0)
        train, valid, test = datasets.split(table, seed=0)
        run = synthesize(train, "gan", config=DesignConfig(), valid=valid,
                         epochs=1, iterations_per_epoch=3, seed=0)
        result = classification_utility(run.table, train, test, "DT10")
        assert 0.0 <= result.diff <= 1.0

    def test_unlabeled_bing_for_aqp(self):
        table = datasets.load("bing", n_records=400, seed=0)
        train, _, _ = datasets.split(table, seed=0)
        from repro.gan import GANSynthesizer

        synth = GANSynthesizer(DesignConfig(), epochs=1,
                               iterations_per_epoch=3, seed=0).fit(train)
        fake = synth.sample(len(train))
        assert aqp_utility(fake, train, n_queries=15, n_sample_draws=2) >= 0.0
