"""Thread-safe metrics registry: counters, gauges, histograms.

Dependency-free instrumentation for the serving / streaming stack.  A
:class:`MetricsRegistry` owns a flat namespace of named instruments;
each instrument carries a fixed tuple of label names and holds one
series per observed label-value combination:

    registry = MetricsRegistry()
    chunks = registry.counter(
        "repro_pool_chunks_total", "Chunks delivered to requests.",
        labelnames=("model", "source"))
    chunks.inc(1, model="adult-gan", source="worker")

Design constraints, in order:

* **One source of truth.**  A registry always records; there is no
  off switch.  The serving layer keeps no counts of its own: the pool's
  ``status()``, the batcher's ``stats`` and the service's ``/healthz``
  read their numbers back from the instruments ``GET /metrics``
  renders, so the views cannot disagree.  A component handed no
  registry records into a private one.
* **Exact under concurrency.**  Mutations take the registry lock, so N
  threads incrementing a counter M times yield exactly N*M.
* **Mergeable snapshots.**  :meth:`MetricsRegistry.snapshot` returns a
  plain-dict copy; :meth:`MetricsRegistry.merge` folds one registry's
  snapshot into another (counters and histogram bins add, gauges take
  the incoming value) for cross-process aggregation.

Histograms use fixed exponential buckets (default 0.5 ms doubling to
~16 s — request-latency shaped) and render Prometheus-style cumulative
``le`` buckets via :mod:`repro.obs.export`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..check.lockorder import make_lock

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_BUCKETS", "get_registry",
]

#: 0.5 ms doubling through ~16.4 s: 16 bounds + the implicit +Inf.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    0.0005 * (2.0 ** i) for i in range(16))

LabelKey = Tuple[str, ...]


class _Instrument:
    """Shared plumbing: name, help text, label schema, series table."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help_text: str, labelnames: Tuple[str, ...]):
        self._registry = registry
        self.name = name
        self.help = help_text
        self.labelnames = labelnames

    def _key(self, labels: Dict[str, str]) -> LabelKey:
        if len(labels) != len(self.labelnames) or \
                any(name not in labels for name in self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{list(self.labelnames)}, got {sorted(labels)}")
        return tuple(str(labels[name]) for name in self.labelnames)


class Counter(_Instrument):
    """Monotonically increasing count (events, rows, retries)."""

    kind = "counter"

    def __init__(self, registry, name, help_text, labelnames):
        super().__init__(registry, name, help_text, labelnames)
        self._series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(
                f"amount must be >= 0, got {amount!r}: counters only "
                f"go up (use a Gauge for signed values)")
        key = self._key(labels)
        with self._registry._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._registry._lock:
            return self._series.get(self._key(labels), 0.0)

    def total(self) -> float:
        """The sum over every label combination."""
        with self._registry._lock:
            return sum(self._series.values())


class Gauge(_Instrument):
    """A value that goes up and down (queue depth, circuit state)."""

    kind = "gauge"

    def __init__(self, registry, name, help_text, labelnames):
        super().__init__(registry, name, help_text, labelnames)
        self._series: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._registry._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._registry._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        with self._registry._lock:
            return self._series.get(self._key(labels), 0.0)


class Histogram(_Instrument):
    """Distribution over fixed buckets (latencies, batch sizes).

    Buckets are *upper bounds*; an observation lands in the first
    bucket whose bound is >= the value, or the implicit overflow
    (``+Inf``) bin past the last bound.  Per-bin counts are stored
    non-cumulative and cumulated at export time.
    """

    kind = "histogram"

    def __init__(self, registry, name, help_text, labelnames,
                 buckets: Tuple[float, ...]):
        super().__init__(registry, name, help_text, labelnames)
        self.buckets = buckets
        self._series: Dict[LabelKey, Dict[str, object]] = {}

    def _empty_cell(self) -> Dict[str, object]:
        return {"counts": [0] * (len(self.buckets) + 1), "sum": 0.0,
                "count": 0}

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._registry._lock:
            cell = self._series.get(key)
            if cell is None:
                cell = self._series[key] = self._empty_cell()
            cell["counts"][index] += 1
            cell["sum"] += value
            cell["count"] += 1

    def read(self, **labels: str) -> Dict[str, object]:
        """A copy of one series: ``counts`` per bin (non-cumulative,
        the overflow bin last), ``sum`` and ``count``; all zero for a
        series never observed."""
        with self._registry._lock:
            cell = self._series.get(self._key(labels))
            if cell is None:
                return self._empty_cell()
            return {"counts": list(cell["counts"]), "sum": cell["sum"],
                    "count": cell["count"]}

    def count(self, **labels: str) -> int:
        return int(self.read(**labels)["count"])


class MetricsRegistry:
    """A namespace of instruments plus the lock they all mutate under.

    Getter-or-creator semantics: asking for an existing name returns
    the existing instrument, provided the kind and label schema match
    (a mismatch raises ``ValueError`` — two call sites disagreeing on
    a metric's shape is a bug, not a merge).
    """

    def __getstate__(self):
        raise TypeError(
            "MetricsRegistry is not picklable: it holds the process's "
            "series lock; ship snapshot() dicts across processes and "
            "merge() them instead")

    def __init__(self):
        self._lock = make_lock("obs.registry")
        self._instruments: Dict[str, _Instrument] = {}

    # -- instrument construction --------------------------------------
    def _get_or_create(self, cls, name: str, help_text: str,
                       labelnames: Iterable[str], **extra) -> _Instrument:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or \
                        existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric name {name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{list(existing.labelnames)}")
                return existing
            instrument = cls(self, name, help_text, labelnames, **extra)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "",
                labelnames: Iterable[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Iterable[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: Optional[Iterable[float]] = None) -> Histogram:
        bounds = (DEFAULT_BUCKETS if buckets is None
                  else tuple(float(b) for b in buckets))
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"buckets must be a non-empty strictly increasing "
                f"sequence, got {list(bounds)!r}")
        instrument = self._get_or_create(
            Histogram, name, help_text, labelnames, buckets=bounds)
        if instrument.buckets != bounds:
            raise ValueError(
                f"metric name {name!r} already registered with buckets "
                f"{list(instrument.buckets)}")
        return instrument

    # -- snapshot / merge ---------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A deep plain-dict copy of every series (JSON-shapeable by
        :func:`repro.obs.export.render_json`)."""
        out: Dict[str, Dict[str, object]] = {}
        with self._lock:
            for name, inst in self._instruments.items():
                entry: Dict[str, object] = {
                    "type": inst.kind, "help": inst.help,
                    "labelnames": inst.labelnames,
                }
                if isinstance(inst, Histogram):
                    entry["buckets"] = inst.buckets
                    entry["series"] = {
                        key: {"counts": list(cell["counts"]),
                              "sum": cell["sum"], "count": cell["count"]}
                        for key, cell in inst._series.items()}
                else:
                    entry["series"] = dict(inst._series)
                out[name] = entry
        return out

    def merge(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram bins add; gauges take the incoming value
        (last write wins — a gauge is a level, not a flow).  Metrics
        absent here are created from the snapshot's metadata.
        """
        for name, entry in snapshot.items():
            kind = entry["type"]
            labelnames = tuple(entry["labelnames"])
            if kind == "counter":
                inst = self.counter(name, entry.get("help", ""), labelnames)
                with self._lock:
                    for key, value in entry["series"].items():
                        key = tuple(key)
                        inst._series[key] = \
                            inst._series.get(key, 0.0) + value
            elif kind == "gauge":
                inst = self.gauge(name, entry.get("help", ""), labelnames)
                with self._lock:
                    for key, value in entry["series"].items():
                        inst._series[tuple(key)] = float(value)
            elif kind == "histogram":
                inst = self.histogram(name, entry.get("help", ""),
                                      labelnames,
                                      buckets=entry["buckets"])
                with self._lock:
                    for key, cell in entry["series"].items():
                        key = tuple(key)
                        mine = inst._series.get(key)
                        if mine is None:
                            mine = inst._series[key] = inst._empty_cell()
                        for i, c in enumerate(cell["counts"]):
                            mine["counts"][i] += c
                        mine["sum"] += cell["sum"]
                        mine["count"] += cell["count"]
            else:
                raise ValueError(
                    f"snapshot entry {name!r} has unknown type {kind!r}")


#: Process-global default registry: the service layer records into it
#: unless handed an explicit one, and ``GET /metrics`` renders it.
_default_registry: Optional[MetricsRegistry] = None


def get_registry() -> MetricsRegistry:
    """The process-global registry (created on first use)."""
    global _default_registry
    if _default_registry is None:
        _default_registry = MetricsRegistry()
    return _default_registry
