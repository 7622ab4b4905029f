"""A model samples in the engine dtype it was fitted in.

The dtype is saved with the model, and every sampling chunk runs in a
thread-local scope of it, so a seeded draw is the same in the fitting
process, after ``load_synthesizer`` in a float32 or a float64 process,
and on threads that sample models of other dtypes at the same time.
"""

import contextlib
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.api import load_synthesizer, make_synthesizer

from tests.conftest import DTYPE_DRAW, make_mixed_table


def assert_tables_equal(a, b):
    assert a.schema.names == b.schema.names
    for name in a.schema.names:
        np.testing.assert_array_equal(a.column(name), b.column(name))


def _draw_in_subprocess(root, names, dtype, out):
    """Each model's DTYPE_DRAW after load_synthesizer in a fresh process
    whose default engine dtype is ``dtype`` (arrays saved to ``out``)."""
    import repro

    script = (
        "import sys, numpy as np\n"
        "from repro import nn\n"
        "from repro.api import load_synthesizer\n"
        f"nn.set_default_dtype({dtype!r})\n"
        f"root, out, names = sys.argv[1], sys.argv[2], sys.argv[3:]\n"
        "arrays = {}\n"
        "for name in names:\n"
        f"    table = load_synthesizer(f'{{root}}/{{name}}').sample("
        f"**{DTYPE_DRAW!r})\n"
        "    for column in table.schema.names:\n"
        "        arrays[f'{name}/{column}'] = table.column(column)\n"
        "np.savez(out, **arrays)\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    subprocess.run([sys.executable, "-c", script, str(root), out, *names],
                   env=dict(os.environ, PYTHONPATH=src), check=True,
                   timeout=300)
    with np.load(out) as arrays:
        return {key: arrays[key] for key in arrays.files}


class TestSavedDtype:
    def test_save_records_the_fit_dtype(self, dtype_model_store):
        root, draws = dtype_model_store
        for name in draws:
            document = json.loads((root / name / "synthesizer.json")
                                  .read_text())
            assert document["dtype"] == name.rsplit("-", 1)[1]

    def test_loaded_draw_equals_the_publishers(self, dtype_model_store):
        """In this (float64) process, and inside a float32 scope."""
        root, draws = dtype_model_store
        for name, expected in draws.items():
            synth = load_synthesizer(root / name)
            assert_tables_equal(synth.sample(**DTYPE_DRAW), expected)
            with nn.default_dtype("float32"):
                assert_tables_equal(synth.sample(**DTYPE_DRAW), expected)
                assert nn.get_default_dtype() is np.float32

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_draw_is_identical_in_a_fresh_process(self, dtype_model_store,
                                                  dtype, tmp_path):
        root, draws = dtype_model_store
        arrays = _draw_in_subprocess(root, sorted(draws), dtype,
                                     str(tmp_path / "draws.npz"))
        for name, expected in draws.items():
            for column in expected.schema.names:
                got = arrays[f"{name}/{column}"]
                assert got.tobytes() == expected.column(column).tobytes(), \
                    (name, column)

    def test_save_without_dtype_samples_in_float64(self, tmp_path):
        """Saves that predate the field sample as before: float64."""
        table = make_mixed_table(n=160, seed=3)
        with nn.default_dtype("float32"):
            synth = make_synthesizer("gan", seed=0, epochs=1,
                                     iterations_per_epoch=3).fit(table)
            synth.save(tmp_path / "pinned")
        synth.save(tmp_path / "legacy")
        meta = tmp_path / "legacy" / "synthesizer.json"
        document = json.loads(meta.read_text())
        del document["dtype"]
        meta.write_text(json.dumps(document))
        synth.save(tmp_path / "as64")
        meta = tmp_path / "as64" / "synthesizer.json"
        document = json.loads(meta.read_text())
        document["dtype"] = "float64"
        meta.write_text(json.dumps(document))

        legacy = load_synthesizer(tmp_path / "legacy")
        # float32 weights, sampled by the float64 engine.
        fc, _ = legacy.generator.hidden_layers[0]
        assert fc.weight.data.dtype == np.float32
        draw = legacy.sample(**DTYPE_DRAW)
        assert_tables_equal(draw, load_synthesizer(tmp_path / "as64")
                            .sample(**DTYPE_DRAW))
        own = load_synthesizer(tmp_path / "pinned").sample(**DTYPE_DRAW)
        assert not np.array_equal(draw.column("age"), own.column("age"))

    def test_stream_refresh_records_its_dtype(self, tmp_path):
        """A model retrained by a stream refresh samples in the dtype
        of that refresh, whatever it was built in."""
        table = make_mixed_table(n=160, seed=3)
        synth = make_synthesizer("vae", seed=0, epochs=1,
                                 iterations_per_epoch=3)
        with nn.default_dtype("float32"):
            synth.partial_fit(table)
            synth.finalize_stream()
        expected = synth.sample(**DTYPE_DRAW)
        synth.save(tmp_path / "vae")
        document = json.loads((tmp_path / "vae" / "synthesizer.json")
                              .read_text())
        assert document["dtype"] == "float32"
        assert_tables_equal(
            load_synthesizer(tmp_path / "vae").sample(**DTYPE_DRAW),
            expected)

    def test_unsupported_saved_dtype_is_refused(self, tmp_path):
        from repro.errors import ConfigError

        table = make_mixed_table(n=80, seed=3)
        make_synthesizer("privbayes", epsilon=None, seed=0).fit(
            table).save(tmp_path / "pb")
        meta = tmp_path / "pb" / "synthesizer.json"
        document = json.loads(meta.read_text())
        document["dtype"] = "int8"
        meta.write_text(json.dumps(document))
        with pytest.raises(ConfigError, match="dtype"):
            load_synthesizer(tmp_path / "pb")


class TestConcurrentDtypes:
    def test_threads_sample_models_of_both_dtypes_at_once(
            self, dtype_model_store):
        """Each thread's draws equal the sequential ones, and no
        thread's dtype moves: sampling scopes only its own chunks."""
        root, draws = dtype_model_store
        models = {name: load_synthesizer(root / name)
                  for name in ("gan-mlp-float32", "gan-mlp-float64",
                               "gan-lstm-float32", "vae-float64")}
        # Thread i samples model i; odd threads run inside their own
        # float32 scope, even ones on the process default.
        jobs = list(models.items()) * 2
        start = threading.Barrier(len(jobs))
        failures, dtypes = [], {}

        def run(index, name, synth):
            try:
                scope = (nn.default_dtype("float32") if index % 2
                         else contextlib.nullcontext())
                with scope:
                    before = nn.get_default_dtype()
                    start.wait(30)
                    for _ in range(3):
                        assert_tables_equal(synth.sample(**DTYPE_DRAW),
                                            draws[name])
                    dtypes[index] = (before, nn.get_default_dtype())
            except BaseException as exc:  # surfaced below
                failures.append((name, exc))

        threads = [threading.Thread(target=run, args=(i, name, synth))
                   for i, (name, synth) in enumerate(jobs)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not failures, failures
        assert dtypes == {i: ((np.float32, np.float32) if i % 2
                              else (np.float64, np.float64))
                          for i in range(len(jobs))}
        assert nn.get_default_dtype() is np.float64
