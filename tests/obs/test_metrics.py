"""repro.obs.metrics: registry, instruments, snapshot/merge."""

import pickle
import threading

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry, get_registry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        counter = registry.counter("events_total", "Events.")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labeled_series_are_independent(self, registry):
        counter = registry.counter("rows_total", "Rows.",
                                   labelnames=("model",))
        counter.inc(5, model="a")
        counter.inc(7, model="b")
        assert counter.value(model="a") == 5
        assert counter.value(model="b") == 7

    def test_negative_increment_rejected(self, registry):
        counter = registry.counter("events_total", "Events.")
        with pytest.raises(ValueError, match="amount"):
            counter.inc(-1)

    def test_wrong_labels_rejected(self, registry):
        counter = registry.counter("rows_total", "Rows.",
                                   labelnames=("model",))
        with pytest.raises(ValueError, match="rows_total"):
            counter.inc(1)
        with pytest.raises(ValueError, match="rows_total"):
            counter.inc(1, model="a", extra="b")

    def test_label_values_coerced_to_str(self, registry):
        counter = registry.counter("chunks_total", "Chunks.",
                                   labelnames=("index",))
        counter.inc(1, index=3)
        assert counter.value(index="3") == 1

    def test_total_sums_every_series(self, registry):
        counter = registry.counter("rows_total", "Rows.",
                                   labelnames=("model",))
        assert counter.total() == 0
        counter.inc(5, model="a")
        counter.inc(7, model="b")
        assert counter.total() == 12


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("depth", "Queue depth.")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value() == 7

    def test_gauges_go_negative(self, registry):
        gauge = registry.gauge("delta", "Signed level.")
        gauge.dec(3)
        assert gauge.value() == -3


class TestHistogram:
    def test_observation_lands_in_first_covering_bucket(self, registry):
        hist = registry.histogram("latency", "Latency.",
                                  buckets=(1.0, 2.0, 4.0))
        hist.observe(0.5)   # -> bucket 1.0
        hist.observe(2.0)   # boundary is inclusive -> bucket 2.0
        hist.observe(99.0)  # -> overflow (+Inf)
        snapshot = registry.snapshot()
        cell = snapshot["latency"]["series"][()]
        assert cell["counts"] == [1, 1, 0, 1]
        assert cell["count"] == 3
        assert cell["sum"] == pytest.approx(101.5)

    def test_read_copies_one_series(self, registry):
        hist = registry.histogram("size", "Size.", labelnames=("model",),
                                  buckets=(1.0, 2.0))
        assert hist.read(model="a") == {"counts": [0, 0, 0], "sum": 0.0,
                                        "count": 0}
        hist.observe(1, model="a")
        hist.observe(3, model="a")
        hist.observe(2, model="b")
        cell = hist.read(model="a")
        assert cell == {"counts": [1, 0, 1], "sum": 4.0, "count": 2}
        cell["counts"][0] = 99
        assert hist.read(model="a")["counts"][0] == 1
        assert hist.count(model="b") == 1

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))
        assert len(DEFAULT_BUCKETS) == 16

    def test_bad_buckets_rejected(self, registry):
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("h", "H.", buckets=())
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("h", "H.", buckets=(2.0, 1.0))


class TestRegistry:
    def test_get_or_create_is_idempotent(self, registry):
        first = registry.counter("events_total", "Events.")
        again = registry.counter("events_total", "Events.")
        assert first is again

    def test_kind_mismatch_rejected(self, registry):
        registry.counter("events_total", "Events.")
        with pytest.raises(ValueError, match="events_total"):
            registry.gauge("events_total", "Events.")

    def test_labelnames_mismatch_rejected(self, registry):
        registry.counter("rows_total", "Rows.", labelnames=("model",))
        with pytest.raises(ValueError, match="rows_total"):
            registry.counter("rows_total", "Rows.",
                             labelnames=("model", "endpoint"))

    def test_bucket_mismatch_rejected(self, registry):
        registry.histogram("latency", "L.", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="latency"):
            registry.histogram("latency", "L.", buckets=(1.0, 2.0, 4.0))

    def test_not_picklable(self, registry):
        with pytest.raises(TypeError, match="not picklable"):
            pickle.dumps(registry)

    def test_concurrent_increments_are_exact(self, registry):
        counter = registry.counter("events_total", "Events.",
                                   labelnames=("worker",))
        threads = 8
        per_thread = 500

        def worker(i):
            for _ in range(per_thread):
                counter.inc(worker=str(i % 2))

        pool = [threading.Thread(target=worker, args=(i,))
                for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        total = counter.value(worker="0") + counter.value(worker="1")
        assert total == threads * per_thread


class TestSnapshotMerge:
    def test_snapshot_is_a_deep_copy(self, registry):
        counter = registry.counter("events_total", "Events.")
        counter.inc(3)
        snapshot = registry.snapshot()
        snapshot["events_total"]["series"][()] = 999
        assert counter.value() == 3

    def test_merge_adds_counters_and_histograms(self, registry):
        counter = registry.counter("events_total", "Events.")
        hist = registry.histogram("latency", "L.", buckets=(1.0, 2.0))
        counter.inc(3)
        hist.observe(0.5)
        other = MetricsRegistry()
        other.merge(registry.snapshot())
        other.merge(registry.snapshot())
        assert other.counter("events_total").value() == 6
        cell = other.snapshot()["latency"]["series"][()]
        assert cell["counts"] == [2, 0, 0]
        assert cell["count"] == 2

    def test_merge_overwrites_gauges(self, registry):
        registry.gauge("depth", "Depth.").set(4)
        other = MetricsRegistry()
        other.gauge("depth", "Depth.").set(99)
        other.merge(registry.snapshot())
        assert other.gauge("depth").value() == 4

    def test_merge_creates_missing_metrics(self, registry):
        registry.counter("events_total", "Events.",
                         labelnames=("kind",)).inc(2, kind="x")
        other = MetricsRegistry()
        other.merge(registry.snapshot())
        assert other.counter("events_total",
                             labelnames=("kind",)).value(kind="x") == 2

    def test_merge_unknown_type_rejected(self, registry):
        with pytest.raises(ValueError, match="unknown type"):
            registry.merge({"weird": {"type": "summary",
                                      "labelnames": (), "series": {}}})


class TestDefaultRegistry:
    def test_singleton(self):
        assert get_registry() is get_registry()
