"""Seed substreams, the sharded-seed contract, and count validation."""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import chunk_plan, derive_seed, fresh_seed, make_synthesizer
from repro.api.seeding import seed_sequence, substream

from tests.conftest import make_mixed_table


def assert_tables_equal(a, b):
    assert a.schema.names == b.schema.names
    for name in a.schema.names:
        np.testing.assert_array_equal(a.column(name), b.column(name))


# ----------------------------------------------------------------------
# Substream derivation
# ----------------------------------------------------------------------
class TestSubstreams:
    def test_same_key_same_stream(self):
        a = substream(7, "chunk", 3).standard_normal(8)
        b = substream(7, "chunk", 3).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_different_tags_differ(self):
        draws = {tags: substream(7, *tags).standard_normal(4).tobytes()
                 for tags in [("chunk", 0), ("chunk", 1), ("table", 0),
                              ("chunk", "0"), ("worker", 0)]}
        assert len(set(draws.values())) == len(draws)

    def test_different_seeds_differ(self):
        a = substream(0, "chunk", 0).standard_normal(4)
        b = substream(1, "chunk", 0).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_derive_seed_deterministic_and_bounded(self):
        values = [derive_seed(3, "table", name)
                  for name in ("customers", "orders", "customers")]
        assert values[0] == values[2]
        assert values[0] != values[1]
        assert all(0 <= v < 2 ** 63 for v in values)

    def test_seed_validation(self):
        for bad in (-1, 1.5, "7", True, None):
            with pytest.raises(ValueError, match="seed"):
                seed_sequence(bad, "x")

    def test_fresh_seed_varies(self):
        seeds = {fresh_seed() for _ in range(8)}
        assert len(seeds) > 1
        assert all(0 <= s < 2 ** 63 for s in seeds)


# ----------------------------------------------------------------------
# Chunk plans + argument validation (the "name the argument" contract)
# ----------------------------------------------------------------------
class TestChunkPlan:
    def test_plan_covers_rows(self):
        plan = chunk_plan(10, 4)
        assert plan == [(0, 0, 4), (1, 4, 4), (2, 8, 2)]
        assert chunk_plan(0, 4) == []
        assert chunk_plan(4, 4) == [(0, 0, 4)]

    @pytest.mark.parametrize("bad", [0, -3, 2.5, "16", None, True])
    def test_bad_batch_names_argument(self, bad):
        with pytest.raises(ValueError, match="batch"):
            chunk_plan(10, bad)

    @pytest.mark.parametrize("bad", [-1, 1.5, "10", True])
    def test_bad_n_names_argument(self, bad):
        with pytest.raises(ValueError, match="n must"):
            chunk_plan(bad, 4)


@pytest.fixture(scope="module")
def fitted_pb():
    table = make_mixed_table(n=180, seed=2)
    return make_synthesizer("privbayes", epsilon=None, seed=0).fit(table)


class TestSampleArgValidation:
    @pytest.mark.parametrize("bad", [0, -2, 3.5, "64", True])
    def test_sample_iter_bad_batch(self, fitted_pb, bad):
        with pytest.raises(ValueError, match="batch"):
            fitted_pb.sample_iter(10, batch=bad)

    @pytest.mark.parametrize("bad", [-1, 2.5, "10"])
    def test_sample_iter_bad_n(self, fitted_pb, bad):
        with pytest.raises(ValueError, match="n must"):
            fitted_pb.sample_iter(bad)

    def test_sample_zero_rows_rejected(self, fitted_pb):
        with pytest.raises(ValueError, match="n must be positive"):
            fitted_pb.sample(0)

    def test_errors_are_eager_not_lazy(self, fitted_pb):
        # sample_iter validates before the generator starts: the bad
        # argument surfaces at the call, not at first iteration.
        with pytest.raises(ValueError, match="batch"):
            fitted_pb.sample_iter(10, batch=0)


# ----------------------------------------------------------------------
# The sharded-seed contract
# ----------------------------------------------------------------------
@st.composite
def shard_splits(draw):
    """``(n, batch, seed, shards)``: a plan of at most 64 chunks, every
    chunk index given to one of 1-5 workers, each worker's indices in a
    random order."""
    n = draw(st.integers(1, 300))
    batch = draw(st.integers(-(-n // 64), 2 * n))
    n_chunks = len(chunk_plan(n, batch))
    workers = draw(st.integers(1, 5))
    owners = draw(st.lists(st.integers(0, workers - 1),
                           min_size=n_chunks, max_size=n_chunks))
    shards = [draw(st.permutations([index for index, owner
                                    in enumerate(owners) if owner == w]))
              for w in range(workers)]
    return n, batch, draw(st.integers(0, 2 ** 63 - 1)), shards


class TestSampleChunks:
    def test_chunks_match_full_sample(self, fitted_pb):
        full = fitted_pb.sample(50, batch=16, seed=9)
        parts = dict(fitted_pb.sample_chunks(50, batch=16, seed=9))
        assert sorted(parts) == [0, 1, 2, 3]
        out = parts[0]
        for index in (1, 2, 3):
            out = out.concat_rows(parts[index])
        assert_tables_equal(out, full)

    @settings(max_examples=40, deadline=None)
    @given(split=shard_splits())
    @example(split=(40, 8, 4, [[0, 2, 4], [3, 1]]))
    def test_disjoint_shards_reassemble(self, fitted_pb, split):
        """Any assignment of the plan's chunks to any number of workers,
        each computing its chunks in any order, reassembles in index
        order to exactly ``sample()``: every pooled request relies on
        this."""
        n, batch, seed, shards = split
        merged = {}
        for indices in shards:
            merged.update(fitted_pb.sample_chunks(n, batch=batch, seed=seed,
                                                  indices=indices))
        assert sorted(merged) == list(range(len(chunk_plan(n, batch))))
        out = merged[0].concat_rows(*(merged[i]
                                      for i in range(1, len(merged))))
        assert_tables_equal(out, fitted_pb.sample(n, batch=batch,
                                                  seed=seed))

    def test_chunk_independent_of_other_chunks(self, fitted_pb):
        solo = dict(fitted_pb.sample_chunks(40, batch=8, seed=4,
                                            indices=[2]))[2]
        in_full = dict(fitted_pb.sample_chunks(40, batch=8, seed=4))[2]
        assert_tables_equal(solo, in_full)

    def test_requires_seed(self, fitted_pb):
        with pytest.raises(ValueError, match="seed"):
            fitted_pb.sample_chunks(10, batch=4)

    def test_index_out_of_range(self, fitted_pb):
        with pytest.raises(ValueError, match="chunk index"):
            list(fitted_pb.sample_chunks(10, batch=4, seed=1, indices=[9]))

    def test_gan_chunks_match_full_sample(self):
        table = make_mixed_table(n=160, seed=5)
        synth = make_synthesizer("gan", seed=0, epochs=1,
                                 iterations_per_epoch=3).fit(table)
        full = synth.sample(60, batch=20, seed=11)
        parts = dict(synth.sample_chunks(60, batch=20, seed=11))
        out = parts[0].concat_rows(parts[1]).concat_rows(parts[2])
        assert_tables_equal(out, full)


# ----------------------------------------------------------------------
# Unseeded draws: the seeded draw of a seed taken from self.rng
# ----------------------------------------------------------------------
UNSEEDED_FAMILIES = {
    "gan": dict(epochs=1, iterations_per_epoch=3),
    "vae": dict(epochs=1, iterations_per_epoch=3),
    "privbayes": dict(epsilon=None),
}


@pytest.fixture(scope="module")
def fitted_families():
    table = make_mixed_table(n=160, seed=5)
    return {name: make_synthesizer(name, seed=0, **kwargs).fit(table)
            for name, kwargs in UNSEEDED_FAMILIES.items()}


@pytest.mark.parametrize("method", sorted(UNSEEDED_FAMILIES))
class TestUnseededDraws:
    """An unseeded draw runs the sharded-seed chunk path on one seed
    drawn from the model's own generator, so it is replayable from a
    copy of that generator (that two unseeded draws differ is
    ``tests/api/test_contract.py``'s ``test_unseeded_sampling_varies``)."""

    def test_sample_is_the_seeded_draw_of_an_rng_seed(self, fitted_families,
                                                      method):
        synth = fitted_families[method]
        rng = copy.deepcopy(synth.rng)
        drawn = synth.sample(70, batch=16)
        seed = int(rng.integers(0, 2 ** 63))
        assert_tables_equal(drawn, synth.sample(70, batch=16, seed=seed))

    def test_sample_iter_is_the_seeded_stream_of_an_rng_seed(
            self, fitted_families, method):
        synth = fitted_families[method]
        rng = copy.deepcopy(synth.rng)
        chunks = list(synth.sample_iter(70, batch=16))
        seeded = list(synth.sample_iter(
            70, batch=16, seed=int(rng.integers(0, 2 ** 63))))
        assert [len(c) for c in chunks] == [16, 16, 16, 16, 6]
        for chunk, expected in zip(chunks, seeded):
            assert_tables_equal(chunk, expected)


# ----------------------------------------------------------------------
# spawn_sampler (worker prep)
# ----------------------------------------------------------------------
class TestSpawnSampler:
    def test_pins_eval_and_keeps_determinism(self, tmp_path):
        table = make_mixed_table(n=160, seed=5)
        synth = make_synthesizer("gan", seed=0, epochs=1,
                                 iterations_per_epoch=3).fit(table)
        reference = synth.sample(30, batch=16, seed=2)
        synth.save(tmp_path / "m")

        from repro.api import load_synthesizer

        worker = load_synthesizer(tmp_path / "m").spawn_sampler(0)
        assert worker.discriminator is None  # sampling-only worker
        assert_tables_equal(worker.sample(30, batch=16, seed=2), reference)
        # Eval stays pinned between requests: no train() flip happened.
        assert not worker.generator.training

    def test_unseeded_streams_disjoint_across_workers(self, tmp_path):
        table = make_mixed_table(n=160, seed=5)
        synth = make_synthesizer("privbayes", epsilon=None, seed=0)
        synth.fit(table)
        synth.save(tmp_path / "pb")

        from repro.api import load_synthesizer

        w0 = load_synthesizer(tmp_path / "pb").spawn_sampler(0)
        w1 = load_synthesizer(tmp_path / "pb").spawn_sampler(1)
        a = w0.sample(40)
        b = w1.sample(40)
        assert any(not np.array_equal(a.column(c), b.column(c))
                   for c in a.schema.names)
