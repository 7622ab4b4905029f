"""Spans recorded from the benchmark's side of each layer boundary.

A :class:`Tracer` wraps functions of the program at run time (class
attributes or module globals), so every call records one span: name,
start, end, parent span, request id, thread and row count.  Spans stay
in memory and are written to a JSON file when the process ends.  A
``fork``ed worker inherits the wrappers, starts with an empty span list
and writes its own file when it exits (:meth:`Tracer.follow_forks`).

:func:`self_times` turns a tree of spans into self time per span name:
a span's duration minus the part of its interval its children cover.
Summed over a tree the self times give back the root's duration
exactly.

Timestamps are ``time.perf_counter()``, which on Linux reads
``CLOCK_MONOTONIC``: spans of different processes on one machine share
one time line.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

from .common import rusage_self

# Span record layout (lists, not objects: cheap to build and to dump).
ID, NAME, START, END, PARENT, REQ, TID, ROWS, TAGS = range(9)

_MISSING = object()


class Tracer:
    """Collects spans of one process; see the module docstring."""

    def __init__(self, out_dir: Optional[str] = None, role: str = "main"):
        self.out_dir = out_dir
        self.role = role
        self.spans: List[list] = []
        self.meta: Dict[str, object] = {}
        self.observations: Dict[str, List[float]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, req=None, rows: int = 0,
              tags: Optional[dict] = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if req is None and parent is not None:
            req = parent[REQ]
        span = [next(self._ids), name, time.perf_counter(), None,
                None if parent is None else parent[ID], req,
                threading.get_ident(), rows, tags]
        stack.append(span)
        return span

    def end(self, span: list, rows: Optional[int] = None) -> None:
        span[END] = time.perf_counter()
        if rows is not None:
            span[ROWS] = rows
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        self.spans.append(span)

    def record(self, name: str, start: float, end: float, parent=None,
               req=None, rows: int = 0, tags: Optional[dict] = None) -> list:
        """Add a finished span timed elsewhere (e.g. in a worker)."""
        span = [next(self._ids), name, start, end, parent, req,
                threading.get_ident(), rows, tags]
        self.spans.append(span)
        return span

    def observe(self, name: str, value: float) -> None:
        """A measured value that is not a span, kept per name as
        ``[time, value]``."""
        self.observations.setdefault(name, []).append(
            [time.perf_counter(), value])

    def is_open(self, name: str) -> bool:
        """True when a span called ``name`` is open on this thread."""
        return any(span[NAME] == name for span in self._stack())

    def current_req(self):
        """Request id of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][REQ] if stack else None

    # -- wrapping --------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str,
             rows: Optional[Callable] = None,
             when: Optional[Callable[[], bool]] = None,
             req: Optional[Callable] = None, cpu: bool = False) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``rows(args, kwargs, result)`` gives the rows the call handled;
        ``when()`` false skips recording; ``req(args, kwargs)`` names
        the request the call serves (children inherit it); ``cpu``
        stores the process CPU time at both ends as tags ``cpu0`` and
        ``cpu1``.  Class methods and static methods keep their kind.
        """
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        original = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if when is not None and not when():
                return original(*args, **kwargs)
            span = tracer.begin(
                name, req=None if req is None else req(args, kwargs),
                tags={"cpu0": time.process_time()} if cpu else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
                if cpu:
                    span[TAGS]["cpu1"] = time.process_time()
            if rows is not None:
                span[ROWS] = rows(args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper if kind is None else kind(wrapper))

    def replace(self, owner, attr: str, make: Callable) -> None:
        """Install ``make(original)`` in place of ``owner.attr``."""
        self._patch(owner, attr, make(inspect.getattr_static(owner, attr)))

    def timed_iter(self, iterator, name: str,
                   rows: Optional[Callable] = None,
                   spans: Optional[list] = None):
        """Yield from ``iterator``, one ``name`` span per item fetched,
        each also appended to ``spans`` when given."""
        iterator = iter(iterator)
        while True:
            span = self.begin(name)
            if spans is not None:
                spans.append(span)
            try:
                item = next(iterator)
            except StopIteration:
                self.end(span)
                return
            except BaseException:
                self.end(span)
                raise
            self.end(span, None if rows is None else rows(item))
            yield item

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last wrapped first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output ----------------------------------------------------------
    def dump(self, path: Optional[str] = None) -> str:
        if path is None:
            path = os.path.join(self.out_dir,
                                f"{self.role}-{os.getpid()}.json")
        payload = {"pid": os.getpid(), "role": self.role,
                   "meta": self.meta, "spans": self.spans,
                   "observations": self.observations,
                   "rusage": rusage_self()}
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
        return path

    def follow_forks(self, role: str) -> None:
        """Make ``fork``ed ``multiprocessing`` children record into a
        fresh span list and write ``<role>-<pid>.json`` at exit.

        Uses the hooks ``multiprocessing`` runs in every child it starts
        (after-fork callbacks, exit finalizers), so the program's worker
        code is not touched.
        """
        from multiprocessing import util

        def after_fork(tracer):
            tracer.role = role
            tracer.spans = []
            tracer.observations = {}
            tracer.meta = {}
            tracer._local = threading.local()
            util.Finalize(tracer, tracer.dump, exitpriority=100)

        util.register_after_fork(self, after_fork)


def load_dump(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Trees and self time
# ----------------------------------------------------------------------
class Node:
    """One span in an analysis tree (children may come from other
    threads or processes)."""

    __slots__ = ("name", "start", "end", "children", "span")

    def __init__(self, name: str, start: float, end: float, span=None):
        self.name = name
        self.start = start
        self.end = end
        self.children: List["Node"] = []
        self.span = span

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(node: Node, lo: Optional[float] = None,
               hi: Optional[float] = None,
               out: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Self time per span name over the tree under ``node``.

    A span's self time is its duration minus the part of its interval
    its children cover.  Children are clipped to their parent.  Where
    sibling spans overlap (parallel work, e.g. chunks on two workers)
    each instant goes to the sibling that ends first and later siblings
    keep only what lies after it, so the self times of a tree always sum
    to the root's duration.
    """
    lo = node.start if lo is None else lo
    hi = node.end if hi is None else hi
    out = {} if out is None else out
    covered = 0.0
    cursor = lo
    for child in sorted(node.children, key=lambda c: (c.end, c.start)):
        start = max(child.start, cursor)
        end = min(child.end, hi)
        if end <= start:
            continue
        self_times(child, start, end, out)
        covered += end - start
        cursor = end
    out[node.name] = out.get(node.name, 0.0) + (hi - lo) - covered
    return out


def build_forest(spans: List[list]) -> Dict[int, Node]:
    """Nodes for one process's spans, linked by their parent ids.

    Returns ``{span id: node}``; roots are the nodes whose parent is
    missing.
    """
    nodes = {span[ID]: Node(span[NAME], span[START], span[END], span)
             for span in spans if span[END] is not None}
    for node in nodes.values():
        parent = node.span[PARENT]
        if parent is not None and parent in nodes:
            nodes[parent].children.append(node)
    return nodes


def roots(nodes: Dict[int, Node]) -> List[Node]:
    return [node for node in nodes.values()
            if node.span[PARENT] is None or node.span[PARENT] not in nodes]
