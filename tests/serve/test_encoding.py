"""Wire encoders: ``csv_rows`` and ``columns_payload`` against a
per-value reference.

The reference below is the straightforward encoder: one numpy-scalar
cast per value and one ``writerow`` per row.  The served encoders must
produce the same CSV text and the same JSON bytes on any table,
including hostile labels, IEEE edge values, rounding ties and empty
tables, and must fail the same way on values that have no integer.

A served table is encoded a chunk at a time where the chunks are
generated, and the bodies are joined and spliced where the response is
written; the splice must give the same bytes as encoding the whole
table in one place, over HTTP too.
"""

import csv
import io
import json
import math
import urllib.request

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import load_synthesizer
from repro.datasets.schema import (
    CATEGORICAL, NUMERICAL, Attribute, Schema, Table,
)
from repro.obs import MetricsRegistry
from repro.serve import SynthesisServer, SynthesisService
from repro.serve.encoding import (
    attach, columns_payload, csv_rows, csv_stream, join, json_table,
    schema_payload,
)


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
    st.sampled_from([-0.0, 5e-324, 1e-5, 1e16, -1e16,
                     2.0 ** 63, -2.0 ** 63, 2.0 ** 63 - 1024,
                     -2.0 ** 63 - 2048, 1e300]),
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


def categorical_table(*columns):
    """One categorical column per ``(categories, codes)`` pair."""
    attributes = tuple(Attribute(f"c{i}", CATEGORICAL,
                                 categories=tuple(categories))
                       for i, (categories, _) in enumerate(columns))
    return Table(Schema(attributes),
                 {f"c{i}": np.array(codes)
                  for i, (_, codes) in enumerate(columns)})


@settings(max_examples=200, deadline=None)
@given(tables())
@example(table_of([], integral=True))
@example(table_of(EDGE_FLOATS, integral=False))
@example(categorical_table((["", "a"], [0, 1, 0])))
@example(categorical_table((["", 'say "hi"', "a,b"], [0, 1, 2, 0]),
                           (["x", ""], [1, 0, 1, 1])))
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


def split(table, cuts):
    """``table`` cut at the row positions ``cuts`` into consecutive
    chunks (a repeated cut gives an empty chunk)."""
    bounds = [0, *sorted(cuts), len(table)]
    return [table.take(np.arange(lo, hi))
            for lo, hi in zip(bounds, bounds[1:])]


def head_of(table):
    return {"model": "m", "n": len(table), "seed": 7,
            "schema": schema_payload(table.schema)}


def spliced_json(table, cuts, tail):
    chunks = [attach(chunk, "json") for chunk in split(table, cuts)]
    return json_table(head_of(table), join(chunks), tail)


def reference_payload(table, tail):
    columns = {a.name: reference_column(table, a) for a in table.schema}
    return json.dumps({**head_of(table), "columns": columns,
                       **tail}).encode("utf-8")


def joined_csv(table, cuts):
    chunks = [attach(chunk, "csv") for chunk in split(table, cuts)]
    return join(chunks)._csv_utf8


@st.composite
def split_tables(draw):
    """A table, 0-3 cuts (1-4 chunks) and a trace tail or none."""
    table = draw(tables())
    cuts = draw(st.lists(st.integers(0, len(table)), max_size=3))
    trace = st.dictionaries(
        st.text(max_size=4),
        st.one_of(st.floats(), st.integers(), st.text(max_size=4),
                  st.lists(st.floats(), max_size=3)), max_size=3)
    tail = draw(st.one_of(st.just({}),
                          st.fixed_dictionaries({"trace": trace})))
    return table, cuts, tail


@settings(max_examples=200, deadline=None)
@given(split_tables())
@example((table_of([1.0, math.nan, 2.0], integral=True), [1], {}))
@example((table_of([math.inf, 1.0], integral=True), [1, 1], {}))
@example((table_of([2.0 ** 63, -2.0 ** 63, 0.5, 2.0 ** 63 - 1024],
                   integral=True), [2], {"trace": {"spans": []}}))
@example((categorical_table((["", 'say "hi"', "\u00e9"], [0, 1, 2, 0])),
          [0, 4], {}))
def test_chunked_encodings_splice_to_the_whole_tables(case):
    """Bodies encoded per chunk, joined and spliced, are the bytes of
    encoding the whole table at once (or fail with the same error)."""
    table, cuts, tail = case
    assert outcome(lambda t: spliced_json(t, cuts, tail), table) \
        == outcome(lambda t: reference_payload(t, tail), table)
    assert outcome(lambda t: joined_csv(t, cuts), table) \
        == outcome(lambda t: csv_rows(t).encode("utf-8"), table)


def post(server, name, body):
    request = urllib.request.Request(
        f"{server.url}/models/{name}/sample",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=120) as resp:
        return resp.read()


@pytest.mark.parametrize("workers", [0, 2])
def test_served_buffered_bodies_are_the_publishers_bytes(model_root,
                                                         workers):
    """A seeded multi-chunk draw, encoded in the workers and spliced by
    the handler, is byte for byte the publisher's draw encoded whole."""
    name, draw = "adult-gan", dict(n=10000, batch=4096, seed=11)
    table = load_synthesizer(model_root / name).sample(**draw)
    expected_json = json.dumps({
        "model": name, "n": draw["n"], "seed": draw["seed"],
        "schema": schema_payload(table.schema),
        "columns": columns_payload(table)}).encode("utf-8")
    expected_csv = "".join(csv_stream([table], table.schema)).encode(
        "utf-8")
    service = SynthesisService(model_root, workers=workers,
                               pool_capacity=1, metrics=MetricsRegistry())
    with SynthesisServer(service).start() as server:
        assert post(server, name, draw) == expected_json
        assert post(server, name, dict(draw, format="csv")) \
            == expected_csv
        traced = post(server, name, dict(draw, trace=True))
    service.close()
    trace = json.dumps(json.loads(traced)["trace"]).encode("utf-8")
    assert traced == expected_json[:-1] + b', "trace": ' + trace + b"}"
