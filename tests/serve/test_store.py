"""Model store: the catalogue of saved models by name."""

import pytest

from repro.serve import ModelNotFound, ModelStore


class TestCatalogue:
    def test_list_models(self, model_root):
        store = ModelStore(model_root)
        infos = {info.name: info for info in store.list_models()}
        assert set(infos) == {"adult-gan", "adult-vae", "adult-pb",
                              "shop-db"}
        assert infos["adult-gan"].kind == "table"
        assert infos["adult-gan"].method == "gan"
        assert infos["shop-db"].kind == "database"
        assert infos["shop-db"].method == "relational"

    def test_unknown_name(self, model_root):
        store = ModelStore(model_root)
        with pytest.raises(ModelNotFound):
            store.path("no-such-model")

    @pytest.mark.parametrize("name", ["../escape", ".hidden", "a/b", ""])
    def test_hostile_names_rejected(self, model_root, name):
        with pytest.raises(ModelNotFound):
            ModelStore(model_root).path(name)

    def test_empty_root(self, tmp_path):
        assert ModelStore(tmp_path / "nowhere").list_models() == []
