"""Training algorithms: VTrain, WTrain, CTrain, DPTrain."""

import numpy as np
import pytest

from repro.core.design_space import DesignConfig
from repro.errors import TrainingError
from repro.gan import (
    CTrainTrainer, DPTrainer, MLPDiscriminator, MLPGenerator,
    VanillaTrainer, WGANTrainer, make_trainer,
)
from repro.transform import RecordTransformer

from tests.conftest import make_mixed_table


@pytest.fixture
def setup():
    table = make_mixed_table(n=200, seed=1)
    rng = np.random.default_rng(0)
    rt = RecordTransformer("onehot", "simple", rng=rng).fit(table)
    data = rt.transform(table)
    labels = table.label_codes
    return table, rt, data, labels


def build(rt, config, rng, cond_dim=0):
    gen = MLPGenerator(config.z_dim, rt.blocks,
                       hidden_dim=config.hidden_dim, cond_dim=cond_dim,
                       rng=rng)
    disc = MLPDiscriminator(rt.output_dim, hidden_dim=config.hidden_dim,
                            cond_dim=cond_dim, rng=rng)
    return gen, disc


class TestVanillaTrainer:
    def test_runs_and_snapshots(self, setup):
        table, rt, data, labels = setup
        config = DesignConfig(batch_size=32)
        rng = np.random.default_rng(0)
        gen, disc = build(rt, config, rng)
        trainer = VanillaTrainer(gen, disc, config, rng)
        result = trainer.train(data, labels, 2, epochs=3,
                               iterations_per_epoch=4)
        assert len(result.epochs) == 3
        assert len(result.g_losses) == 12
        assert all(np.isfinite(result.g_losses))

    def test_snapshots_differ_across_epochs(self, setup):
        table, rt, data, labels = setup
        config = DesignConfig(batch_size=32)
        rng = np.random.default_rng(0)
        gen, disc = build(rt, config, rng)
        result = VanillaTrainer(gen, disc, config, rng).train(
            data, labels, 2, epochs=2, iterations_per_epoch=5)
        first = result.snapshots[0]
        second = result.snapshots[1]
        changed = any(not np.allclose(first[k], second[k]) for k in first)
        assert changed

    def test_kl_term_differentiable_and_positive(self, setup):
        table, rt, data, labels = setup
        config = DesignConfig(batch_size=32)
        rng = np.random.default_rng(0)
        gen, disc = build(rt, config, rng)
        trainer = VanillaTrainer(gen, disc, config, rng)
        from repro.nn import Tensor
        fake = gen(Tensor(rng.standard_normal((32, config.z_dim))))
        kl = trainer.kl_term(data[:32], fake)
        assert kl is not None
        assert float(kl.data) >= -1e-9
        kl.backward()  # must propagate into generator params
        assert any(p.grad is not None for p in gen.parameters())

    def test_empty_data_raises(self, setup):
        table, rt, data, labels = setup
        config = DesignConfig()
        rng = np.random.default_rng(0)
        gen, disc = build(rt, config, rng)
        with pytest.raises(TrainingError):
            VanillaTrainer(gen, disc, config, rng).train(
                data[:0], None, 0, epochs=1, iterations_per_epoch=1)

    def test_epoch_callback_invoked(self, setup):
        table, rt, data, labels = setup
        config = DesignConfig(batch_size=16)
        rng = np.random.default_rng(0)
        gen, disc = build(rt, config, rng)
        seen = []
        VanillaTrainer(gen, disc, config, rng).train(
            data, None, 0, epochs=2, iterations_per_epoch=2,
            callbacks=[lambda rec: seen.append(rec.epoch)])
        assert seen == [0, 1]


class TestWGANTrainer:
    def test_weight_clipping_enforced(self, setup):
        table, rt, data, labels = setup
        config = DesignConfig(training="wtrain", batch_size=32,
                              weight_clip=0.01, d_steps=2)
        rng = np.random.default_rng(0)
        gen, disc = build(rt, config, rng)
        WGANTrainer(gen, disc, config, rng).train(
            data, None, 0, epochs=1, iterations_per_epoch=3)
        for param in disc.parameters():
            assert np.abs(param.data).max() <= 0.01 + 1e-12

    def test_multiple_critic_steps(self, setup):
        table, rt, data, labels = setup
        config = DesignConfig(training="wtrain", batch_size=16, d_steps=3)
        rng = np.random.default_rng(0)
        gen, disc = build(rt, config, rng)
        result = WGANTrainer(gen, disc, config, rng).train(
            data, None, 0, epochs=1, iterations_per_epoch=2)
        assert len(result.epochs) == 1


class TestCTrain:
    def test_requires_labels(self, setup):
        table, rt, data, labels = setup
        config = DesignConfig(training="ctrain", batch_size=16)
        rng = np.random.default_rng(0)
        gen, disc = build(rt, config, rng, cond_dim=2)
        with pytest.raises(TrainingError):
            CTrainTrainer(gen, disc, config, rng).train(
                data, None, 2, epochs=1, iterations_per_epoch=1)

    def test_trains_per_label(self, setup):
        table, rt, data, labels = setup
        config = DesignConfig(training="ctrain", batch_size=16)
        rng = np.random.default_rng(0)
        gen, disc = build(rt, config, rng, cond_dim=2)
        result = CTrainTrainer(gen, disc, config, rng).train(
            data, labels, 2, epochs=2, iterations_per_epoch=2)
        assert len(result.epochs) == 2


class TestDPTrain:
    def test_runs_with_noise(self, setup):
        table, rt, data, labels = setup
        config = DesignConfig(training="dptrain", batch_size=32,
                              dp_noise_multiplier=2.0, dp_grad_bound=1.0)
        rng = np.random.default_rng(0)
        gen, disc = build(rt, config, rng)
        result = DPTrainer(gen, disc, config, rng).train(
            data, None, 0, epochs=1, iterations_per_epoch=3)
        assert all(np.isfinite(result.d_losses))

    def test_critic_gradients_bounded_before_noise(self, setup):
        """The clip must cap the critic grad norm at dp_grad_bound."""
        from repro.nn import clip_gradients, global_gradient_norm

        table, rt, data, labels = setup
        config = DesignConfig(training="dptrain", dp_grad_bound=0.5,
                              dp_noise_multiplier=0.0, batch_size=32)
        rng = np.random.default_rng(0)
        gen, disc = build(rt, config, rng)
        trainer = DPTrainer(gen, disc, config, rng)
        trainer.prepare(data, None, 0)
        real, _ = trainer.sampler.batch(32)
        from repro.nn import Tensor
        trainer.opt_d.zero_grad()
        loss = (trainer.discriminator(Tensor(real)).mean()
                - trainer.discriminator(
                    trainer.generator(trainer.sample_noise(32)).detach()
                ).mean())
        loss.backward()
        clip_gradients(disc.parameters(), config.dp_grad_bound)
        assert global_gradient_norm(disc.parameters()) <= 0.5 + 1e-9


class TestMakeTrainer:
    @pytest.mark.parametrize("training,expected", [
        ("vtrain", VanillaTrainer),
        ("wtrain", WGANTrainer),
        ("ctrain", CTrainTrainer),
        ("dptrain", DPTrainer),
    ])
    def test_dispatch(self, setup, training, expected):
        table, rt, data, labels = setup
        config = DesignConfig(training=training)
        rng = np.random.default_rng(0)
        cond = 2 if config.is_conditional else 0
        gen, disc = build(rt, config, rng, cond_dim=cond)
        trainer = make_trainer(config, gen, disc, rng)
        assert type(trainer) is expected

    def test_vtrain_conditional_is_cgan_v(self, setup):
        from repro.gan import ConditionalVanillaTrainer

        table, rt, data, labels = setup
        config = DesignConfig(training="vtrain", conditional=True)
        rng = np.random.default_rng(0)
        gen, disc = build(rt, config, rng, cond_dim=2)
        trainer = make_trainer(config, gen, disc, rng)
        assert type(trainer) is ConditionalVanillaTrainer


class TestLazySnapshots:
    def test_default_snapshots_every_epoch(self, setup):
        table, rt, data, labels = setup
        config = DesignConfig(batch_size=32)
        rng = np.random.default_rng(0)
        trainer = VanillaTrainer(*build(rt, config, rng), config, rng)
        result = trainer.train(data, labels, 2, epochs=3,
                               iterations_per_epoch=2)
        assert all(e.snapshot is not None for e in result.epochs)

    def test_empty_snapshot_epochs_keeps_only_final(self, setup):
        table, rt, data, labels = setup
        config = DesignConfig(batch_size=32)
        rng = np.random.default_rng(0)
        trainer = VanillaTrainer(*build(rt, config, rng), config, rng)
        result = trainer.train(data, labels, 2, epochs=4,
                               iterations_per_epoch=2, snapshot_epochs=())
        assert [e.snapshot is not None for e in result.epochs] == [
            False, False, False, True]

    def test_explicit_snapshot_epochs(self, setup):
        table, rt, data, labels = setup
        config = DesignConfig(batch_size=32)
        rng = np.random.default_rng(0)
        trainer = VanillaTrainer(*build(rt, config, rng), config, rng)
        result = trainer.train(data, labels, 2, epochs=4,
                               iterations_per_epoch=2, snapshot_epochs=(1,))
        assert [e.snapshot is not None for e in result.epochs] == [
            False, True, False, True]


class TestEngineDtypeTraining:
    def test_float32_mode_trains_all_algorithms(self, setup):
        from repro import nn
        table, rt, data, labels = setup
        with nn.default_dtype("float32"):
            for training in ("vtrain", "wtrain", "dptrain"):
                config = DesignConfig(batch_size=32, training=training)
                rng = np.random.default_rng(0)
                trainer = make_trainer(config, *build(rt, config, rng), rng)
                result = trainer.train(data, labels, 2, epochs=1,
                                       iterations_per_epoch=3)
                assert np.isfinite(result.g_losses).all()
                assert np.isfinite(result.d_losses).all()
                # Parameters train in the engine dtype (running-stat
                # buffers keep float64 on purpose).
                for param in trainer.generator.parameters():
                    assert param.data.dtype == np.float32
                    assert param.grad is None or param.grad.dtype == np.float32

    def test_float64_training_is_deterministic(self, setup):
        """Fixed seeds must reproduce the trajectory bit for bit."""
        table, rt, data, labels = setup

        def run():
            config = DesignConfig(batch_size=32)
            rng = np.random.default_rng(7)
            gen, disc = build(rt, config, np.random.default_rng(3))
            trainer = VanillaTrainer(gen, disc, config, rng)
            result = trainer.train(data, labels, 2, epochs=2,
                                   iterations_per_epoch=3)
            return result, gen

        result_a, gen_a = run()
        result_b, gen_b = run()
        assert result_a.g_losses == result_b.g_losses
        assert result_a.d_losses == result_b.d_losses
        state_a, state_b = gen_a.state_dict(), gen_b.state_dict()
        for key in state_a:
            assert np.array_equal(state_a[key], state_b[key]), key
