"""Dataset generators: simulated (SDataNum/SDataCat) and real stand-ins."""

import numpy as np
import pytest

from repro import datasets
from repro.datasets.real import SPECS, generate
from repro.datasets.simulated import GRID_VALUES, sdata_cat, sdata_num


class TestSDataNum:
    def test_shape_and_schema(self):
        table = sdata_num(n_records=500, seed=1)
        assert len(table) == 500
        assert table.schema.numerical_names() == ["x", "y"]
        assert table.schema.label_name == "label"

    def test_means_cover_grid(self):
        table = sdata_num(n_records=20000, rho=0.5, seed=0)
        x = table.column("x")
        # Values concentrate near grid coordinates -4..4.
        assert x.min() > min(GRID_VALUES) - 4
        assert x.max() < max(GRID_VALUES) + 4

    def test_correlation_increases_with_rho(self):
        low = sdata_num(n_records=20000, rho=0.1, seed=0)
        high = sdata_num(n_records=20000, rho=0.9, seed=0)

        def within_component_corr(t):
            # Correlation of residuals around the nearest grid point.
            x, y = t.column("x"), t.column("y")
            gx = np.round(x / 2) * 2
            gy = np.round(y / 2) * 2
            return np.corrcoef(x - gx, y - gy)[0, 1]

        assert within_component_corr(high) > within_component_corr(low)

    def test_skew_flag_controls_label_ratio(self):
        balanced = sdata_num(n_records=5000, skew=False, seed=0)
        skewed = sdata_num(n_records=5000, skew=True, seed=0)
        assert abs(balanced.column("label").mean() - 0.5) < 0.15
        assert skewed.column("label").mean() < 0.2

    def test_deterministic_by_seed(self):
        a = sdata_num(n_records=100, seed=42)
        b = sdata_num(n_records=100, seed=42)
        np.testing.assert_array_equal(a.column("x"), b.column("x"))

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            sdata_num(rho=1.5)


class TestSDataCat:
    def test_schema(self):
        table = sdata_cat(n_records=300, seed=0)
        assert len(table.schema.categorical_names(include_label=False)) == 5
        assert table.schema.label_name == "label"

    def test_chain_correlation_increases_with_p(self):
        low = sdata_cat(n_records=10000, p=0.3, seed=0)
        high = sdata_cat(n_records=10000, p=0.95, seed=0)

        def agreement(t):
            return float(np.mean(t.column("a0") == t.column("a1")))

        assert agreement(high) > agreement(low) + 0.3

    def test_deterministic_chain_when_p_is_one(self):
        table = sdata_cat(n_records=1000, p=1.0, seed=0)
        np.testing.assert_array_equal(table.column("a0"),
                                      table.column("a4"))

    def test_skew_flag(self):
        skewed = sdata_cat(n_records=5000, skew=True, seed=0)
        assert skewed.column("label").mean() < 0.2

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            sdata_cat(p=0.0)


class TestRealStandIns:
    @pytest.mark.parametrize("name", list(SPECS))
    def test_schema_matches_paper_table2(self, name):
        spec = SPECS[name]
        table = datasets.load(name, n_records=300, seed=0)
        schema = table.schema
        include_label = spec.n_labels == 0
        assert len(schema.numerical_names(include_label=True)) == \
            spec.n_numerical
        n_cat = len(schema.categorical_names(include_label=False))
        assert n_cat == len(spec.categorical_domains)
        if spec.n_labels:
            assert schema.label.domain_size == spec.n_labels
        else:
            assert schema.label is None

    def test_census_is_very_skew(self):
        table = datasets.load("census", n_records=8000, seed=0)
        rate = (table.label_codes == 1).mean()
        assert rate < 0.12

    def test_digits_is_balanced(self):
        table = datasets.load("digits", n_records=8000, seed=0)
        counts = np.bincount(table.label_codes, minlength=10)
        assert counts.max() / max(counts.min(), 1) < 2.0

    def test_attribute_correlation_exists(self):
        """Latent factors must induce numeric correlations (paper char.)."""
        table = datasets.load("sat", n_records=5000, seed=0)
        cols = [table.column(f"num{i}") for i in range(6)]
        corr = np.corrcoef(np.vstack(cols))
        off_diag = np.abs(corr[np.triu_indices(6, 1)])
        assert off_diag.max() > 0.2

    def test_deterministic_by_seed(self):
        a = datasets.load("adult", n_records=200, seed=5)
        b = datasets.load("adult", n_records=200, seed=5)
        np.testing.assert_array_equal(a.column("num0"), b.column("num0"))
        c = datasets.load("adult", n_records=200, seed=6)
        assert not np.array_equal(a.column("num0"), c.column("num0"))

    def test_same_table_in_every_process(self):
        """``hash()`` of a str is salted per process (PYTHONHASHSEED);
        the table a seed yields must not be."""
        import os
        import subprocess
        import sys

        import repro

        script = ("import sys; from repro import datasets; "
                  "t = datasets.load('adult', n_records=600, seed=3); "
                  "sys.stdout.buffer.write(b''.join("
                  "t.column(n).tobytes() for n in t.schema.names))")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=src)
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, timeout=120).stdout)
        assert outputs[0] and outputs[0] == outputs[1]

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            datasets.load("nope")

    def test_available_lists_everything(self):
        names = datasets.available()
        assert "adult" in names
        assert "sdata_num" in names

    def test_load_sdata_with_kwargs(self):
        table = datasets.load("sdata_cat", n_records=100, p=0.9, skew=True)
        assert len(table) == 100
