"""Streaming sampling: chunk equivalence, sampling sessions, fast paths.

The acceptance contract for the streaming overhaul: ``sample_iter``
output concatenates to exactly what one-shot ``sample`` returns under a
fixed seed (any batch size, either engine dtype), and the sampling
session leaves models back in training mode however the stream ends.
"""

import numpy as np
import pytest

from repro import nn
from repro.api import make_synthesizer
from repro.api.facade import synthesize
from repro.core.design_space import DesignConfig

from tests.conftest import make_mixed_table

FAMILIES = {
    "gan": dict(epochs=1, iterations_per_epoch=3),
    "vae": dict(epochs=1, iterations_per_epoch=3),
    "privbayes": dict(epsilon=None),
}


@pytest.fixture(scope="module")
def table():
    return make_mixed_table(n=240, seed=3)


@pytest.fixture(scope="module")
def fitted(table):
    return {name: make_synthesizer(name, seed=0, **kwargs).fit(table)
            for name, kwargs in FAMILIES.items()}


def assert_tables_equal(a, b):
    assert a.schema.names == b.schema.names
    for name in a.schema.names:
        np.testing.assert_array_equal(a.column(name), b.column(name))


def concat_all(chunks):
    out = chunks[0]
    for chunk in chunks[1:]:
        out = out.concat_rows(chunk)
    return out


@pytest.mark.parametrize("method", sorted(FAMILIES))
class TestStreamingEquivalence:
    def test_sample_iter_matches_sample_default_batch(self, fitted, method):
        synth = fitted[method]
        streamed = concat_all(list(synth.sample_iter(150, seed=17)))
        assert_tables_equal(streamed, synth.sample(150, seed=17))

    def test_sample_iter_matches_sample_small_batch(self, fitted, method):
        synth = fitted[method]
        streamed = concat_all(list(synth.sample_iter(75, batch=16, seed=4)))
        assert_tables_equal(streamed, synth.sample(75, batch=16, seed=4))

    def test_partial_stream_restores_training_mode(self, fitted, method):
        synth = fitted[method]
        stream = synth.sample_iter(100, batch=10, seed=1)
        next(stream)
        stream.close()  # abandon mid-stream: session must unwind
        model = getattr(synth, "generator", None) or getattr(
            synth, "model", None)
        if model is not None:
            assert model.training


class TestSamplingSession:
    def test_generator_eval_once_per_stream(self, fitted):
        synth = fitted["gan"]
        calls = []
        original_eval = type(synth.generator).eval

        class Spy:
            def __get__(self, obj, objtype=None):
                def eval_():
                    calls.append("eval")
                    return original_eval(obj)
                return eval_

        try:
            type(synth.generator).eval = Spy()
            synth.sample(100, batch=10, seed=2)
        finally:
            type(synth.generator).eval = original_eval
        # One eval per stream (plus none per chunk); the module tree is
        # walked recursively, so only count top-level generator calls.
        assert calls == ["eval"]
        assert synth.generator.training

    def test_nested_sessions_stay_in_eval(self, fitted):
        synth = fitted["gan"]
        with synth._sampling_session():
            assert not synth.generator.training
            with synth._sampling_session():
                assert not synth.generator.training
            assert not synth.generator.training
        assert synth.generator.training

    def test_refit_voids_open_sessions(self, table):
        """A stream left open across a refit must not poison the depth
        counter: post-refit sampling still runs in eval mode and the
        stale stream's unwind must not flip the new model to train."""
        synth = make_synthesizer("gan", seed=0, epochs=1,
                                 iterations_per_epoch=3).fit(table)
        stale = synth.sample_iter(100, batch=10, seed=1)
        next(stale)  # session now open at depth 1
        synth.fit(table)  # rebuilds the generator, voids the session
        with synth._sampling_session():
            assert not synth.generator.training  # eval ran despite refit
            stale.close()  # stale unwind is a no-op for the new session
            assert not synth.generator.training
        assert synth.generator.training


class TestFastMathStreaming:
    def test_float32_sample_iter_matches_sample(self, table):
        with nn.default_dtype("float32"):
            synth = make_synthesizer("gan", seed=0, epochs=1,
                                     iterations_per_epoch=3).fit(table)
            streamed = concat_all(list(synth.sample_iter(120, seed=8)))
            assert_tables_equal(streamed, synth.sample(120, seed=8))

    def test_float32_cnn_sampling(self, table):
        with nn.default_dtype("float32"):
            config = DesignConfig(generator="cnn",
                                  categorical_encoding="ordinal",
                                  numerical_normalization="simple")
            synth = make_synthesizer("gan", seed=0, config=config, epochs=1,
                                     iterations_per_epoch=3).fit(table)
            streamed = concat_all(list(synth.sample_iter(90, batch=32,
                                                         seed=5)))
            assert_tables_equal(streamed, synth.sample(90, batch=32, seed=5))

    def test_folded_mlp_sampling_close_to_composed(self, table):
        """The fast-math BN-folded generator stays numerically faithful
        to the float64 composed eval path given identical weights and
        noise."""
        synth = make_synthesizer("gan", seed=0, epochs=1,
                                 iterations_per_epoch=3).fit(table)
        z = np.random.default_rng(3).standard_normal(
            (64, synth.config.z_dim))
        ref = composed_forward(synth.generator, z)
        state = synth.generator.state_dict()
        with nn.default_dtype("float32"):
            synth32 = make_synthesizer("gan", seed=0, epochs=1,
                                       iterations_per_epoch=3).fit(table)
            synth32.generator.load_state_dict(
                {k: v.astype(np.float32) for k, v in state.items()})
            out = sampling_forward(synth32.generator, z)  # folded-BN path
        np.testing.assert_allclose(out, ref, atol=5e-3, rtol=5e-2)

    @pytest.mark.parametrize("saved_dtype", ["float64", "float32"])
    def test_float64_sampling_matches_composed_to_rounding(
            self, table, tmp_path, saved_dtype):
        """Sampling takes the folded BN and the joint head GEMM in both
        dtypes, and differs from the composed graph by rounding only.
        A model loaded by the float64 engine samples in the dtype it was
        saved in: a float32 model keeps float32 parameters, folds in
        float32 inside its own dtype scope, and matches its float32
        composed graph to float32 rounding."""
        from repro.api import load_synthesizer

        with nn.default_dtype(saved_dtype):
            make_synthesizer("gan", seed=0, epochs=1,
                             iterations_per_epoch=3).fit(table).save(
                                 tmp_path / "gan")
        synth = load_synthesizer(tmp_path / "gan")
        fc, _ = synth.generator.hidden_layers[0]
        assert fc.weight.data.dtype == np.dtype(saved_dtype)
        z = np.random.default_rng(3).standard_normal(
            (64, synth.config.z_dim))
        with synth._dtype_scope():
            folded = sampling_forward(synth.generator, z)
            composed = composed_forward(synth.generator, z)
        assert folded.dtype == np.dtype(saved_dtype)
        tolerance = 1e-12 if saved_dtype == "float64" else 1e-5
        np.testing.assert_allclose(folded, composed, rtol=tolerance,
                                   atol=tolerance)


def sampling_forward(generator, z):
    """The generator's eval-mode no-grad forward (the sampling path)."""
    from repro.nn import Tensor, no_grad

    generator.eval()
    try:
        with no_grad():
            return generator(Tensor(z)).data
    finally:
        generator.train()


def composed_forward(generator, z):
    """The MLP generator's composed eval graph: each hidden layer's
    batch norm on its own, and one GEMM per attribute head."""
    from repro.nn import Tensor, concat, no_grad

    generator.eval()
    try:
        with no_grad():
            h = Tensor(z)
            for fc, bn in generator.hidden_layers:
                h = bn(fc(h), activation="relu")
            return concat([head(h) for head in generator.heads.heads],
                          axis=1).data
    finally:
        generator.train()


class TestFacadeSampleBatch:
    def test_sample_batch_forwarded(self, table):
        result = synthesize(table, method="privbayes", epsilon=None, n=64,
                            sample_seed=3, sample_batch=16)
        reference = synthesize(table, method="privbayes", epsilon=None, n=64,
                               sample_seed=3, sample_batch=16)
        assert_tables_equal(result.table, reference.table)
        assert len(result.table) == 64
