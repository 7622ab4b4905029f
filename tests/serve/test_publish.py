"""Versioned model store + hot refresh: publish never breaks a request."""

import json

import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import make_synthesizer
from repro.obs import MetricsRegistry
from repro.serve import (
    ModelNotFound, ModelStore, SynthesisServer, SynthesisService, load_model,
)

from tests.conftest import make_mixed_table


def fitted_pb(seed):
    # Different seeds train on different tables, so the published
    # versions are distinguishable by their samples.
    table = make_mixed_table(n=160, seed=seed)
    return make_synthesizer("privbayes", epsilon=None,
                            seed=0).fit(table)


def tables_equal(a, b):
    for name in a.schema.names:
        np.testing.assert_array_equal(a.column(name), b.column(name))


class TestVersionedStore:
    def test_publish_creates_versions_and_active_pointer(self, tmp_path):
        store = ModelStore(tmp_path)
        assert store.publish("pb", fitted_pb(0)) == "v0001"
        assert store.publish("pb", fitted_pb(1)) == "v0002"
        assert store.active_version("pb") == "v0002"
        assert store.versions("pb") == ["v0001", "v0002"]
        assert store.path("pb").name == "v0002"
        assert (tmp_path / "pb" / "ACTIVE").read_text().strip() == "v0002"

    def test_publish_from_saved_directory(self, tmp_path):
        saved = tmp_path / "staging"
        fitted_pb(0).save(saved)
        store = ModelStore(tmp_path / "models")
        assert store.publish("pb", saved) == "v0001"
        assert store.info("pb").method == "privbayes"

    def test_legacy_unversioned_layout_still_resolves(self, tmp_path):
        fitted_pb(0).save(tmp_path / "old-pb")
        store = ModelStore(tmp_path)
        assert store.active_version("old-pb") is None
        assert store.info("old-pb").version is None
        assert len(load_model(store.path("old-pb")).sample(5, seed=1)) == 5

    def test_info_cache_invalidated_by_publish(self, tmp_path):
        store = ModelStore(tmp_path)
        store.publish("pb", fitted_pb(0))
        assert store.info("pb").version == "v0001"
        store.publish("pb", fitted_pb(1))
        assert store.info("pb").version == "v0002"

    def test_metadata_lists_arrays_without_loading(self, tmp_path):
        store = ModelStore(tmp_path)
        store.publish("pb", fitted_pb(0))
        manifest = store.metadata("pb")
        assert manifest  # one entry per conditional table
        for entry in manifest.values():
            assert set(entry) == {"shape", "dtype", "nbytes"}

    def test_unknown_model(self, tmp_path):
        with pytest.raises(ModelNotFound):
            ModelStore(tmp_path).versions("missing")


class TestServicePublish:
    def test_publish_swaps_the_serving_pool(self, tmp_path):
        store_root = tmp_path / "models"
        old_model, new_model = fitted_pb(0), fitted_pb(1)
        with SynthesisService(store_root, workers=0) as service:
            service.store.publish("pb", old_model)
            before, _ = service.sample("pb", 15, seed=9)
            tables_equal(before, old_model.sample(15, seed=9))

            assert service.publish("pb", new_model) == "v0002"
            after, _ = service.sample("pb", 15, seed=9)
            tables_equal(after, new_model.sample(15, seed=9))
            assert service.model_info("pb")["version"] == "v0002"

    def test_publish_mid_stream_keeps_the_old_version_bit_identical(
            self, tmp_path):
        # A seeded streaming request that started before the publish
        # must complete on the old version with zero failures and an
        # unchanged byte stream.
        old_model, new_model = fitted_pb(0), fitted_pb(1)
        with SynthesisService(tmp_path / "models", workers=0) as service:
            service.publish("pb", old_model)
            chunks, used_seed = service.sample_iter("pb", 60, batch=20,
                                                    seed=13)
            iterator = iter(chunks)
            received = [next(iterator)]        # request is in flight
            service.publish("pb", new_model)   # hot refresh lands now
            received.extend(iterator)          # old stream drains fine

            expected = old_model.sample(60, batch=20, seed=13)
            got = {name: np.concatenate([c.column(name) for c in received])
                   for name in expected.schema.names}
            for name in expected.schema.names:
                np.testing.assert_array_equal(got[name],
                                              expected.column(name))
            # And the very next request is served by the new version.
            fresh, _ = service.sample("pb", 30, seed=13)
            tables_equal(fresh, new_model.sample(30, seed=13))

    def test_drained_pool_is_reaped(self, tmp_path):
        with SynthesisService(tmp_path / "models", workers=0) as service:
            service.publish("pb", fitted_pb(0))
            service.sample("pb", 5, seed=1)
            service.publish("pb", fitted_pb(1))
            service.sample("pb", 5, seed=1)
            # The retired pool had no in-flight requests left, so a
            # registry sweep closes it.
            assert service.healthz()["draining"] == 0

    def test_pool_series_are_labelled_with_the_model_name(self,
                                                          tmp_path):
        # Both models are published at <name>/v0001: labelling by the
        # version directory would merge their series into one.
        registry = MetricsRegistry()
        with SynthesisService(tmp_path / "models", workers=1,
                              metrics=registry) as service:
            service.publish("alpha", fitted_pb(0))
            service.publish("beta", fitted_pb(1))
            service.sample("alpha", 24, batch=8, seed=1)
            service.sample("beta", 16, batch=8, seed=1)
        chunks = registry.snapshot()["repro_pool_chunks_total"]["series"]
        assert chunks == {("alpha", "worker"): 3, ("beta", "worker"): 2}


class TestHttpModelDetail:
    def test_get_model_reports_versions(self, tmp_path):
        with SynthesisService(tmp_path / "models", workers=0) as service:
            service.store.publish("pb", fitted_pb(0))
            with SynthesisServer(service) as server:
                server.start()
                with urllib.request.urlopen(
                        f"{server.url}/models/pb") as response:
                    payload = json.loads(response.read())
                assert payload["version"] == "v0001"
                assert payload["versions"] == ["v0001"]
                assert payload["method"] == "privbayes"
                assert payload["arrays"]
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(f"{server.url}/models/nope")
                assert err.value.code == 404
