"""Lightweight spans with explicit context propagation.

No thread-locals, no global collector: a :class:`Trace` is an ordinary
object the caller threads through the code path it wants to watch
(``service.sample(..., trace=t)`` → ``WorkerPool.sample`` → worker
processes).  Spans are plain dicts at
the transport layer, so workers can time their chunk loop with zero
knowledge of this module's classes and ship ``span.to_dict()`` back
over the per-slot result pipes; the parent stitches them into the
request trace as they arrive.

Worker death is part of the model, not an error case: when a chunk is
re-dispatched after a kill, the re-executed chunk's span is adopted
with a ``retry`` tag and a ``#r<n>`` span-id suffix, so a recovered
request shows *retry spans*, not gaps — and the chunk coverage of the
trace (which chunk indices completed) is identical with and without
the kill.

Timestamps come from :func:`repro.obs.clock.perf`; under a
:class:`~repro.obs.clock.ManualClock` whole traces are exact values.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from ..check.lockorder import make_lock
from . import clock as _clock

__all__ = ["Span", "Trace"]

_ids = itertools.count(1)


class Span:
    """One timed region: identity, parentage, and tags.

    ``start``/``end`` are :func:`repro.obs.clock.perf` readings in the
    process that ran the span; durations are meaningful everywhere,
    absolute values only within one process.
    """

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "tags")

    def __init__(self, span_id: str, name: str, start: float,
                 end: Optional[float] = None,
                 parent_id: Optional[str] = None,
                 tags: Optional[Dict[str, object]] = None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = float(start)
        self.end = None if end is None else float(end)
        self.tags: Dict[str, object] = dict(tags or {})

    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.span_id!r} is still open")
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id, "parent_id": self.parent_id,
            "name": self.name, "start": self.start, "end": self.end,
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Span":
        return cls(
            span_id=str(payload["span_id"]), name=str(payload["name"]),
            start=payload["start"], end=payload.get("end"),
            parent_id=payload.get("parent_id"),
            tags=payload.get("tags"),
        )

    def __repr__(self) -> str:
        took = "open" if self.end is None else f"{self.duration():.6f}s"
        return f"Span({self.span_id!r}, name={self.name!r}, {took})"


class Trace:
    """A request's span tree, collected parent-side.

    The trace owns a ``root`` span covering the whole request; child
    spans attach to it either via the :meth:`span` context manager
    (parent-process work: queueing, dispatch) or via :meth:`add`
    (worker-shipped dicts).  Thread-safe: pool reader threads and the
    request thread stitch concurrently.
    """

    def __getstate__(self):
        raise TypeError(
            "Trace is not picklable: it holds a stitching lock; ship "
            "plain span dicts (Span.to_dict) across processes instead")

    def __init__(self, name: str = "request",
                 tags: Optional[Dict[str, object]] = None):
        # No wall clock in the id: pid + process-local counter is unique
        # enough for stitching and keeps traces deterministic under test.
        self.trace_id = f"trace-{os.getpid()}-{next(_ids)}"
        self._lock = make_lock("obs.trace")
        self.root = Span("root", name, _clock.perf(), tags=tags)
        self._spans: List[Span] = []
        self._seen: Dict[str, int] = {}

    # -- collection ----------------------------------------------------
    @contextmanager
    def span(self, name: str, span_id: Optional[str] = None,
             **tags: object) -> Iterator[Span]:
        """Time a parent-process region as a child of root."""
        sp = Span(span_id or f"{name}-{next(_ids)}", name,
                  _clock.perf(), parent_id="root", tags=tags)
        try:
            yield sp
        finally:
            sp.end = _clock.perf()
            with self._lock:
                self._spans.append(sp)

    def add(self, payload: Dict[str, object], retry: int = 0) -> Span:
        """Stitch a worker-shipped span dict into the trace.

        ``retry`` is how many times this unit of work had been requeued
        when the span arrived; retried executions get a ``retry`` tag
        and a ``#r<n>`` id suffix so they read as retry spans rather
        than silently replacing the first attempt.  A genuine id
        collision (same id, same retry count — e.g. a stale duplicate
        from a killed worker) gets ``#dup<n>`` instead of being lost.
        """
        sp = Span.from_dict(payload)
        if sp.parent_id is None:
            sp.parent_id = "root"
        if retry:
            sp.tags["retry"] = retry
            sp.span_id = f"{sp.span_id}#r{retry}"
        with self._lock:
            n = self._seen.get(sp.span_id, 0)
            self._seen[sp.span_id] = n + 1
            if n:
                sp.span_id = f"{sp.span_id}#dup{n}"
            self._spans.append(sp)
        return sp

    def finish(self) -> None:
        if self.root.end is None:
            self.root.end = _clock.perf()

    # -- views ---------------------------------------------------------
    def spans(self) -> List[Span]:
        """All collected child spans, in a deterministic order
        (by start time, then span id)."""
        with self._lock:
            return sorted(self._spans,
                          key=lambda s: (s.start, s.span_id))

    def chunk_coverage(self) -> Dict[int, int]:
        """``{chunk index: completed executions}`` over chunk spans —
        the recovery invariant: identical with and without a mid-request
        worker kill (retries add executions, never remove indices)."""
        coverage: Dict[int, int] = {}
        for sp in self.spans():
            if "chunk" in sp.tags:
                index = int(sp.tags["chunk"])
                coverage[index] = coverage.get(index, 0) + 1
        return coverage

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "root": self.root.to_dict(),
            "spans": [sp.to_dict() for sp in self.spans()],
        }

    def report(self) -> str:
        """A human-readable breakdown of where the request's time went."""
        self.finish()
        total = self.root.duration()
        lines = [f"trace {self.trace_id}: {self.root.name} "
                 f"{total * 1000:.2f} ms"]
        for sp in self.spans():
            took = sp.duration() * 1000 if sp.end is not None else 0.0
            offset = (sp.start - self.root.start) * 1000
            tags = " ".join(f"{k}={v}" for k, v in sorted(sp.tags.items()))
            lines.append(
                f"  +{offset:8.2f} ms  {took:8.2f} ms  "
                f"{sp.name:<12} {sp.span_id}"
                + (f"  [{tags}]" if tags else ""))
        return "\n".join(lines)
