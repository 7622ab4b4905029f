"""Tests of the benchmark's own helpers (no server, no training).

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import math
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench.analysis import (  # noqa: E402
    _link_workers, breakdown, linked,
)
from perfbench.common import (  # noqa: E402
    derive, percentile, supported, tail_samples,
)
from perfbench.loadgen import (  # noqa: E402
    backlog_at, poisson_schedule, request_record,
)
from perfbench.layers import _record_chunks  # noqa: E402
from perfbench.spans import (  # noqa: E402
    ID, PARENT, Node, Tracer, build_forest, roots, self_times,
)


# -- percentiles and their sample support --------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert percentile(values, 50) == 100
    assert percentile(values, 95) == 190
    assert percentile(values, 100) == 200
    assert percentile([3.0], 99) == 3.0


def test_percentile_sorts_failures_last():
    values = [0.01] * 190 + [math.inf] * 10
    assert percentile(values, 95) == 0.01
    assert percentile(values, 96) == math.inf


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_sample_support_needs_ten_beyond():
    assert tail_samples(200, 95) == 10
    assert supported(200, 95)
    assert not supported(199, 95)
    assert tail_samples(1000, 99) == 10 and supported(1000, 99)
    assert not supported(15, 50)


# -- latency from the due time -------------------------------------------
def test_latency_counts_from_due_time():
    record = request_record("r0", due=1.0, picked=1.5, sent=1.6, done=2.0,
                            status=200, body=b"{}")
    assert record["latency"] == pytest.approx(1.0)
    assert record["service"] == pytest.approx(0.4)
    # The generator ran 0.1 s behind the moment a connection took it.
    assert record["late"] == pytest.approx(0.1)


def test_backlog_counts_due_but_unsent():
    records = [request_record(f"r{i}", due=due, picked=due, sent=sent,
                              done=sent + 0.01, status=200, body=b"")
               for i, (due, sent) in enumerate(
                   [(0.0, 0.0), (1.0, 2.5), (2.0, 2.6), (3.0, 3.0)])]
    assert backlog_at(records, 0.5) == 0
    assert backlog_at(records, 2.2) == 2
    assert backlog_at(records, 3.5) == 0


# -- seeds and schedules -------------------------------------------------
def test_derive_is_deterministic_and_label_sensitive():
    assert derive(7, "table") == derive(7, "table")
    assert derive(7, "table") != derive(8, "table")
    assert derive(7, "table") != derive(7, "model")
    assert 0 <= derive(7, "x") < 2**63


def test_poisson_schedule_reproducible_from_seed():
    a = poisson_schedule(20.0, 300, seed=5)
    assert a == poisson_schedule(20.0, 300, seed=5)
    assert a != poisson_schedule(20.0, 300, seed=6)
    assert all(later > earlier for earlier, later in zip(a, a[1:]))
    many = poisson_schedule(20.0, 20000, seed=1)
    assert many[-1] / len(many) == pytest.approx(1 / 20.0, rel=0.05)
    with pytest.raises(ValueError):
        poisson_schedule(0.0, 10, seed=1)


# -- self time -----------------------------------------------------------
def _tree():
    root = Node("bench.cycle", 0.0, 10.0)
    a = Node("gan.fit", 1.0, 4.0)
    a.children.append(Node("nn.backward", 2.0, 3.0))
    root.children += [a, Node("transform.inverse", 5.0, 9.0)]
    return root


def test_self_time_subtracts_children():
    times = self_times(_tree())
    assert times == pytest.approx({"bench.cycle": 3.0, "gan.fit": 2.0,
                                   "nn.backward": 1.0,
                                   "transform.inverse": 4.0})
    assert sum(times.values()) == pytest.approx(10.0)


def test_overlapping_siblings_still_sum_to_parent():
    parent = Node("pool.sample", 0.0, 12.0)
    first = Node("pool.chunk", 0.0, 10.0)
    second = Node("pool.chunk", 1.0, 11.0)
    second.children.append(Node("nn.forward", 2.0, 10.5))
    parent.children += [second, first]
    times = self_times(parent)
    assert times["pool.sample"] == pytest.approx(1.0)
    assert times["pool.chunk"] + times["nn.forward"] == pytest.approx(11.0)
    # The later chunk keeps only the part after the first one ended.
    assert times["nn.forward"] == pytest.approx(0.5)
    assert sum(times.values()) == pytest.approx(12.0)


def test_children_are_clipped_to_parent():
    parent = Node("http.post", 1.0, 2.0)
    parent.children.append(Node("pool.transport", 0.5, 1.5))
    assert self_times(parent) == pytest.approx(
        {"http.post": 0.5, "pool.transport": 0.5})


def test_breakdown_reports_unattributed_remainder():
    parts = breakdown([_tree(), Node("client.request", 0.0, 2.0)])
    assert parts["wall"] == pytest.approx(12.0)
    assert parts["unattributed"] == pytest.approx(3.0 + 2.0)
    assert parts["gan"] == pytest.approx(2.0)
    assert parts["nn"] == pytest.approx(1.0)
    assert parts["transform"] == pytest.approx(4.0)
    assert parts["sum"] == pytest.approx(parts["wall"])


# -- the tracer ----------------------------------------------------------
class _Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    @classmethod
    def build(cls):
        return cls()


def test_tracer_records_nested_spans_and_uninstalls():
    tracer = Tracer()
    original = _Layer.__dict__["outer"]
    tracer.wrap(_Layer, "outer", "test.outer", req=lambda a, k: "r1",
                rows=lambda a, k, result: a[1])
    tracer.wrap(_Layer, "inner", "test.inner")
    tracer.wrap(_Layer, "build", "test.build")
    assert _Layer.build().outer(3) == 7
    tracer.uninstall()
    assert _Layer.__dict__["outer"] is original
    assert isinstance(_Layer.__dict__["build"], classmethod)

    nodes = build_forest(tracer.spans)
    top = sorted((n for n in roots(nodes)), key=lambda n: n.start)
    assert [n.name for n in top] == ["test.build", "test.outer"]
    outer = top[1]
    assert [c.name for c in outer.children] == ["test.inner"]
    assert outer.children[0].span[5] == "r1"  # request id is inherited
    assert outer.span[7] == 3                 # rows
    assert outer.children[0].start >= outer.start
    assert outer.children[0].end <= outer.end


def test_wrapping_an_inherited_method_restores_inheritance():
    class Child(_Layer):
        pass

    tracer = Tracer()
    tracer.wrap(Child, "inner", "test.inner")
    assert "inner" in Child.__dict__
    tracer.uninstall()
    assert "inner" not in Child.__dict__


def test_timed_iter_records_one_span_per_item():
    tracer = Tracer()
    items = list(tracer.timed_iter(iter([[1, 2], [3]]), "test.next",
                                   rows=len))
    assert items == [[1, 2], [3]]
    spans = [s for s in tracer.spans if s[1] == "test.next"]
    assert [s[7] for s in spans] == [2, 1, 0]  # last span hits the end


def test_timed_iter_hands_out_its_spans():
    tracer = Tracer()
    spans = []
    assert list(tracer.timed_iter(iter("ab"), "test.next",
                                  spans=spans)) == ["a", "b"]
    assert [s[ID] for s in spans] == [s[ID] for s in tracer.spans]


# -- linking spans across threads and processes --------------------------
class _Shipped:
    def __init__(self, index, start, end, arrived):
        self.name, self.start, self.end = "chunk", start, end
        self.tags = {"chunk": index, "worker": index % 2,
                     "arrived": arrived}


class _Trace:
    def __init__(self, spans):
        self._spans = spans

    def spans(self):
        return self._spans


def test_streamed_chunk_goes_under_the_wait_it_caused():
    tracer = Tracer()
    waits = [tracer.record("pool.next", 1.0, 2.0),
             tracer.record("pool.next", 2.5, 3.0)]
    # Chunk 1 ran on a worker while the handler still waited for chunk 0.
    trace = _Trace([_Shipped(1, 0.5, 2.8, 2.9), _Shipped(0, 0.5, 1.8, 1.9)])
    _record_chunks(tracer, trace, lambda index: waits[index][ID], "r1")
    nodes = build_forest(tracer.spans)
    by_parent = {}
    for span in tracer.spans[2:]:
        by_parent.setdefault(span[PARENT], []).append(span[1])
    assert by_parent == {waits[0][ID]: ["pool.chunk", "pool.transport"],
                         waits[1][ID]: ["pool.chunk", "pool.transport"]}
    second = self_times(nodes[waits[1][ID]])
    # Only the part of chunk 1 inside the second wait is on the path.
    assert second["pool.chunk"] == pytest.approx(0.3)
    assert second["pool.transport"] == pytest.approx(0.1)
    assert second["pool.next"] == pytest.approx(0.1)


def test_worker_spans_link_to_the_chunk_they_ran_in():
    chunk = Node("pool.chunk", 1.0, 2.0, span=[1, "pool.chunk", 1.0, 2.0,
                                               None, None, 0, 0,
                                               {"worker": 0}])
    worker = Tracer()
    worker.record("nn.forward", 1.1, 1.5)
    worker.record("transform.inverse", 1.5, 1.9)
    worker.record("nn.forward", 2.5, 2.9)    # no chunk shipped for it
    forest = build_forest(worker.spans)
    assert _link_workers([chunk], [(0, forest)], 0.0, 3.0) == [2, 3]
    assert [c.name for c in chunk.children] == ["nn.forward",
                                                "transform.inverse"]
    assert _link_workers([], [(0, forest)], 0.0, 2.0) == [0, 2]


def test_linked_needs_every_span_placed():
    assert linked({"requests": [5, 5], "submits": [0, 0]})
    assert not linked({"requests": [4, 5], "submits": [0, 0]})
    assert not linked({"requests": [0, 0]})


def test_uniform_reference_table_follows_schema_and_seed():
    pytest.importorskip("repro")
    from repro import datasets

    from perfbench.publish import uniform_table

    table = datasets.load("adult", n_records=200, seed=1)
    a = uniform_table(table, 500, seed=3)
    b = uniform_table(table, 500, seed=3)
    assert len(a) == 500
    for attr in table.schema:
        assert (a.columns[attr.name] == b.columns[attr.name]).all()
        real = table.columns[attr.name]
        if attr.is_numerical:
            assert real.min() <= a.columns[attr.name].min()
            assert a.columns[attr.name].max() <= real.max()
