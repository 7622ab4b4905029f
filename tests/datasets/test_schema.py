"""Schema/Table invariants."""

import numpy as np
import pytest

from repro.datasets.schema import (
    Attribute, CATEGORICAL, NUMERICAL, Schema, Table, split_train_valid_test,
)
from repro.errors import SchemaError

from tests.conftest import make_mixed_table


class TestAttribute:
    def test_categorical_needs_categories(self):
        with pytest.raises(SchemaError):
            Attribute("a", CATEGORICAL)

    def test_numerical_rejects_categories(self):
        with pytest.raises(SchemaError):
            Attribute("a", NUMERICAL, categories=("x",))

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            Attribute("a", "text")

    def test_domain_size(self):
        attr = Attribute("a", CATEGORICAL, categories=("x", "y", "z"))
        assert attr.domain_size == 3

    def test_domain_size_on_numerical_raises(self):
        with pytest.raises(SchemaError):
            Attribute("a", NUMERICAL).domain_size


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema((Attribute("a", NUMERICAL), Attribute("a", NUMERICAL)))

    def test_unknown_label_rejected(self):
        with pytest.raises(SchemaError):
            Schema((Attribute("a", NUMERICAL),), label_name="b")

    def test_feature_attributes_exclude_label(self, mixed_table):
        names = [a.name for a in mixed_table.schema.feature_attributes]
        assert "label" not in names
        assert len(names) == 4

    def test_numerical_and_categorical_names(self, mixed_table):
        schema = mixed_table.schema
        assert schema.numerical_names() == ["age", "income"]
        assert schema.categorical_names(include_label=False) == ["job", "city"]

    def test_without_label(self, mixed_table):
        stripped = mixed_table.schema.without_label()
        assert stripped.label is None
        assert len(stripped) == 4


class TestTable:
    def test_missing_column_rejected(self):
        schema = Schema((Attribute("a", NUMERICAL),))
        with pytest.raises(SchemaError):
            Table(schema, {})

    def test_misaligned_columns_rejected(self):
        schema = Schema((Attribute("a", NUMERICAL),
                         Attribute("b", NUMERICAL)))
        with pytest.raises(SchemaError):
            Table(schema, {"a": np.zeros(3), "b": np.zeros(4)})

    def test_out_of_domain_codes_rejected(self):
        schema = Schema((Attribute("c", CATEGORICAL, categories=("x", "y")),))
        with pytest.raises(SchemaError):
            Table(schema, {"c": np.array([0, 2])})

    def test_take_preserves_schema(self, mixed_table):
        subset = mixed_table.take(np.arange(10))
        assert len(subset) == 10
        assert subset.schema is mixed_table.schema

    def test_decoded_column(self, mixed_table):
        decoded = mixed_table.decoded_column("job")
        assert set(decoded) <= {"eng", "doc", "art"}

    def test_to_records_shape(self, mixed_table):
        records = mixed_table.to_records()
        assert len(records) == len(mixed_table)
        assert len(records[0]) == 5

    def test_concat_rows(self, mixed_table):
        both = mixed_table.concat_rows(mixed_table)
        assert len(both) == 2 * len(mixed_table)

    def test_concat_rows_takes_any_number_of_tables(self, mixed_table):
        assert mixed_table.concat_rows() is mixed_table
        three = mixed_table.concat_rows(mixed_table, mixed_table)
        pairwise = mixed_table.concat_rows(mixed_table).concat_rows(
            mixed_table)
        assert three.schema.names == mixed_table.schema.names
        for name in mixed_table.schema.names:
            np.testing.assert_array_equal(three.column(name),
                                          pairwise.column(name))
        with pytest.raises(SchemaError, match="schema mismatch"):
            mixed_table.concat_rows(mixed_table, mixed_table.drop_label()
                                    .select(mixed_table.schema.names[:2]))

    def test_drop_label(self, mixed_table):
        dropped = mixed_table.drop_label()
        assert dropped.schema.label is None
        assert "label" not in dropped.columns

    def test_label_codes_without_label_raises(self, mixed_table):
        with pytest.raises(SchemaError):
            mixed_table.drop_label().label_codes

    def test_sample_rows(self, mixed_table, rng):
        sample = mixed_table.sample_rows(17, rng)
        assert len(sample) == 17


class TestSplit:
    def test_ratios(self, rng):
        table = make_mixed_table(n=600)
        train, valid, test = split_train_valid_test(table, rng)
        assert len(train) == 400
        assert len(valid) == 100
        assert len(test) == 100

    def test_partition_is_disjoint_and_complete(self, rng):
        table = make_mixed_table(n=120)
        train, valid, test = split_train_valid_test(table, rng)
        total = len(train) + len(valid) + len(test)
        assert total == 120
        # Disjointness: age values are almost surely unique floats.
        ages = np.concatenate([train.column("age"), valid.column("age"),
                               test.column("age")])
        assert len(np.unique(ages)) == len(np.unique(table.column("age")))

    def test_bad_ratio_count(self, rng):
        with pytest.raises(ValueError):
            split_train_valid_test(make_mixed_table(50), rng, ratios=(1, 1))
