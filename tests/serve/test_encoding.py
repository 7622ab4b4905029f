"""Wire encoders: ``csv_rows`` and ``columns_payload`` against a
per-value reference.

The reference below is the straightforward encoder: one numpy-scalar
cast per value and one ``writerow`` per row.  The served encoders must
produce the same CSV text and the same JSON bytes on any table,
including hostile labels, IEEE edge values, rounding ties and empty
tables, and must fail the same way on values that have no integer.
"""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.datasets.schema import (
    CATEGORICAL, NUMERICAL, Attribute, Schema, Table,
)
from repro.serve.encoding import columns_payload, csv_rows


def reference_column(table, attribute):
    values = table.column(attribute.name)
    if attribute.is_categorical:
        return [attribute.categories[int(code)] for code in values]
    if attribute.integral:
        return [int(round(float(v))) for v in values]
    return [float(v) for v in values]


def reference_csv_rows(table):
    columns = [reference_column(table, a) for a in table.schema]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    for row in zip(*columns):
        writer.writerow(row)
    return buffer.getvalue()


def reference_json(table):
    return json.dumps({a.name: reference_column(table, a)
                       for a in table.schema})


def outcome(encode, table):
    """The encoder's text, or the type of the exception it raised."""
    try:
        return encode(table)
    except Exception as exc:
        return type(exc)


def assert_same_encoding(table):
    assert outcome(csv_rows, table) == outcome(reference_csv_rows, table)
    assert outcome(lambda t: json.dumps(columns_payload(t)), table) \
        == outcome(reference_json, table)


#: Characters that CSV must quote or escape, plus unicode and spaces.
LABEL_CHARS = st.one_of(st.sampled_from(list(',"\r\n \t')),
                        st.characters(blacklist_categories=("Cs",)))
LABELS = st.text(LABEL_CHARS, max_size=6)
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, -1e16,
               math.inf, -math.inf, math.nan]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
#: Integral columns hold finite values; ``k + 0.5`` are rounding ties.
INTEGRAL = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(lambda k: k + 0.5),
    st.integers(-2 ** 53, 2 ** 53).map(float),
    st.sampled_from([-0.0, 5e-324, 1e-5, 1e16, -1e16]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(["categorical", "integral",
                                           "float"]),
                          min_size=1, max_size=4))
    attributes, columns = [], {}
    for i, kind in enumerate(kinds):
        name = f"c{i}"
        if kind == "categorical":
            categories = tuple(draw(st.lists(LABELS, min_size=1,
                                             max_size=5, unique=True)))
            attributes.append(Attribute(name, CATEGORICAL,
                                        categories=categories))
            codes = st.integers(0, len(categories) - 1)
            values = draw(st.lists(codes, min_size=n, max_size=n))
        else:
            integral = kind == "integral"
            attributes.append(Attribute(name, NUMERICAL,
                                        integral=integral))
            values = draw(st.lists(INTEGRAL if integral else FLOATS,
                                   min_size=n, max_size=n))
        columns[name] = np.array(values)
    return Table(Schema(tuple(attributes)), columns)


def table_of(values, integral):
    return Table(Schema((Attribute("x", NUMERICAL, integral=integral),)),
                 {"x": np.array(values, dtype=np.float64)})


@settings(max_examples=200, deadline=None)
@given(tables())
@example(table_of([], integral=True))
@example(table_of(EDGE_FLOATS, integral=False))
def test_encoders_match_the_per_value_reference(table):
    assert_same_encoding(table)


def test_integral_ties_round_half_to_even():
    table = table_of([0.5, 1.5, 2.5, -0.5, -1.5, -2.5], integral=True)
    assert_same_encoding(table)
    assert columns_payload(table)["x"] == [0, 2, 2, 0, -2, -2]
    assert csv_rows(table) == "0\r\n2\r\n2\r\n0\r\n-2\r\n-2\r\n"


@pytest.mark.parametrize("value, error", [(math.nan, ValueError),
                                          (math.inf, OverflowError),
                                          (-math.inf, OverflowError)])
def test_integral_without_an_integer_raises_as_before(value, error):
    table = table_of([1.0, value], integral=True)
    assert outcome(reference_csv_rows, table) is error
    assert_same_encoding(table)
