"""repro.obs.export: Prometheus text exposition + JSON rendering."""

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE, parse_prometheus, render_json,
    render_prometheus,
)
from repro.obs.metrics import MetricsRegistry


def _sample_map(text, name):
    return {tuple(sorted(labels.items())): value
            for labels, value in parse_prometheus(text)[name]}


class TestRenderPrometheus:
    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry().snapshot()) == ""
        assert parse_prometheus("") == {}

    def test_help_and_type_lines(self):
        registry = MetricsRegistry()
        registry.counter("events_total", "Things that\nhappened.").inc()
        text = render_prometheus(registry.snapshot())
        assert "# HELP events_total Things that\\nhappened." in text
        assert "# TYPE events_total counter" in text
        assert text.endswith("\n")

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        counter = registry.counter("rows_total", "Rows.",
                                   labelnames=("model",))
        nasty = 'a"b\\c\nd'
        counter.inc(2, model=nasty)
        text = render_prometheus(registry.snapshot())
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        ((labels, value),) = parse_prometheus(text)["rows_total"]
        assert labels == {"model": nasty}
        assert value == 2

    def test_integer_values_render_without_decimal_point(self):
        registry = MetricsRegistry()
        registry.counter("events_total", "E.").inc(5)
        text = render_prometheus(registry.snapshot())
        assert "events_total 5\n" in text

    def test_histogram_buckets_are_cumulative_and_end_in_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds", "L.",
                                  buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.7, 1.5, 3.0, 100.0):
            hist.observe(value)
        text = render_prometheus(registry.snapshot())
        buckets = _sample_map(text, "latency_seconds_bucket")
        assert buckets[(("le", "1"),)] == 2
        assert buckets[(("le", "2"),)] == 3
        assert buckets[(("le", "4"),)] == 4
        assert buckets[(("le", "+Inf"),)] == 5
        counts = _sample_map(text, "latency_seconds_count")
        assert counts[()] == 5  # +Inf bucket == _count
        sums = _sample_map(text, "latency_seconds_sum")
        assert sums[()] == pytest.approx(105.7)

    def test_histogram_labels_compose_with_le(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds", "L.",
                                  labelnames=("model",), buckets=(1.0,))
        hist.observe(0.5, model="m")
        text = render_prometheus(registry.snapshot())
        buckets = parse_prometheus(text)["latency_seconds_bucket"]
        assert ({"model": "m", "le": "1"}, 1.0) in buckets
        assert ({"model": "m", "le": "+Inf"}, 1.0) in buckets

    def test_rendering_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            counter = registry.counter("b_total", "B.",
                                       labelnames=("x",))
            counter.inc(1, x="2")
            counter.inc(1, x="1")
            registry.gauge("a_level", "A.").set(3)
            return registry.snapshot()

        assert render_prometheus(build()) == render_prometheus(build())

    def test_content_type_pins_the_exposition_version(self):
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE


class TestRenderJson:
    def test_document_shape(self):
        registry = MetricsRegistry()
        registry.counter("rows_total", "Rows.",
                         labelnames=("model",)).inc(4, model="m")
        registry.histogram("latency", "L.", buckets=(1.0,)).observe(0.5)
        document = json.loads(render_json(registry.snapshot()))
        assert document["rows_total"]["type"] == "counter"
        assert document["rows_total"]["samples"] == [
            {"labels": {"model": "m"}, "value": 4.0}]
        hist = document["latency"]
        assert hist["buckets"] == [1.0]
        assert hist["samples"][0]["counts"] == [1, 0]
        assert hist["samples"][0]["count"] == 1


class TestParsePrometheus:
    def test_inf_values(self):
        parsed = parse_prometheus('x_bucket{le="+Inf"} 3\ny -Inf\n')
        assert parsed["x_bucket"] == [({"le": "+Inf"}, 3.0)]
        assert parsed["y"] == [({}, -math.inf)]

    def test_unquoted_label_rejected(self):
        with pytest.raises(ValueError, match="quoted"):
            parse_prometheus("x{le=1} 3\n")



def _key(labels):
    """A series' labels as a sortable key; ``le`` compares as a number."""
    return tuple(sorted((name, float(value) if name == "le" else value)
                        for name, value in labels.items()))


def _expected_series(snapshot):
    """Every series the text format carries for ``snapshot``:
    ``{series name: {label key: value}}``, histograms expanded into
    cumulative ``_bucket`` series plus ``_sum`` and ``_count``."""
    expected = {}
    for name, entry in snapshot.items():
        labelnames = tuple(entry["labelnames"])
        for key, cell in entry["series"].items():
            labels = dict(zip(labelnames, key))
            if entry["type"] != "histogram":
                expected.setdefault(name, {})[_key(labels)] = cell
                continue
            cumulative = 0
            for le, count in zip([*entry["buckets"], math.inf],
                                 cell["counts"]):
                cumulative += count
                expected.setdefault(f"{name}_bucket", {})[
                    _key({**labels, "le": le})] = cumulative
            expected.setdefault(f"{name}_sum", {})[_key(labels)] = \
                cell["sum"]
            expected.setdefault(f"{name}_count", {})[_key(labels)] = \
                cell["count"]
    return expected


_LABEL_NAMES = st.lists(st.sampled_from(["model", "endpoint", "error"]),
                        max_size=2, unique=True)
_BOUNDED = st.floats(min_value=-1e6, max_value=1e6)


@st.composite
def _registries(draw):
    """A registry of counters, gauges and histograms whose label values
    and help texts are any text."""
    registry = MetricsRegistry()
    kinds = draw(st.lists(st.sampled_from(["counter", "gauge",
                                           "histogram"]),
                          min_size=1, max_size=4))
    for index, kind in enumerate(kinds):
        name, help_text = f"m{index}_{kind}", draw(st.text())
        labelnames = draw(_LABEL_NAMES)
        labels = st.fixed_dictionaries(
            {label: st.text() for label in labelnames})
        if kind == "counter":
            metric = registry.counter(name, help_text, labelnames)
            for values, amount in draw(st.lists(st.tuples(
                    labels, st.floats(min_value=0, max_value=1e12)),
                    max_size=4)):
                metric.inc(amount, **values)
        elif kind == "gauge":
            metric = registry.gauge(name, help_text, labelnames)
            for values, level in draw(st.lists(
                    st.tuples(labels, st.floats()), max_size=4)):
                metric.set(level, **values)
        else:
            bounds = draw(st.lists(_BOUNDED, min_size=1, max_size=4,
                                   unique=True).map(sorted))
            metric = registry.histogram(name, help_text, labelnames,
                                        buckets=bounds)
            for values, value in draw(st.lists(
                    st.tuples(labels, _BOUNDED), max_size=6)):
                metric.observe(value, **values)
    return registry


def _line_breaks_in_text():
    """Characters ``str.splitlines`` breaks on, in a label value and in
    help texts: none of them is a line break in the text format."""
    registry = MetricsRegistry()
    registry.counter("m0_counter", "a\rb",
                     labelnames=("model",)).inc(2, model="a\rb")
    registry.gauge("m1_gauge", "c\x0bd", labelnames=("model",)).set(
        1.5, model="a\u2028b\x1c\x85")
    return registry


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(registry=_registries())
    @example(registry=_line_breaks_in_text())
    def test_parse_reads_back_every_rendered_series(self, registry):
        snapshot = registry.snapshot()
        parsed = parse_prometheus(render_prometheus(snapshot))
        expected = _expected_series(snapshot)
        assert set(parsed) == set(expected)
        for name, series in expected.items():
            got = {_key(labels): value for labels, value in parsed[name]}
            assert len(got) == len(parsed[name])
            assert set(got) == set(series), name
            for key, value in series.items():
                assert got[key] == value or (
                    math.isnan(got[key]) and math.isnan(value)), (name, key)
