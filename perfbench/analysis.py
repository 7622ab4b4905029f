"""Per-layer metrics and the self-time breakdown of a traced run.

Inputs are span dumps (:mod:`perfbench.spans`), the client's request
records and ``GET /metrics`` scrapes; nothing here imports ``repro``.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional

from .common import median
from .layers import LAYER_OF, LAYERS
from .spans import PARENT, REQ, ROWS, TAGS, TID, Node, build_forest, roots, \
    self_times

#: Per-layer metric -> the end-to-end metric it should move, the
#: workload it should move on, and where it should stay flat.  Names,
#: units and directions are declared in BENCHMARK.json; every traced run
#: reports all of these (0 where the workload does not run the layer).
MOVES = {
    "gan.train_step_ms": ("fit_s", "publish", "serve-*"),
    "nn.backward_ms": ("fit_s", "publish", "serve-*"),
    "nn.opt_step_ms": ("fit_s", "publish", "serve-*"),
    "transform.fit_ms": ("fit_s", "publish", "serve-*"),
    "transform.transform_ms": ("fit_s", "publish", "serve-*"),
    "nn.forward_ms_per_krow": ("sample_rows_per_s; rows_per_s",
                               "publish (f32); serve-bulk (f64)",
                               "serve-small"),
    "transform.inverse_ms_per_krow": ("sample_rows_per_s; rows_per_s",
                                      "publish; serve-bulk", "serve-small"),
    "api.sample_self_ms_per_krow": ("sample_rows_per_s", "publish",
                                    "serve-*"),
    "api.save_ms": ("setup_s", "serve-*", "-"),
    "api.load_ms": ("setup_s", "serve-*", "-"),
    "pool.boot_ms": ("setup_s", "serve-*", "publish"),
    "pool.chunk_ms": ("rows_per_s", "serve-bulk", "serve-small"),
    "pool.transport_ms": ("rows_per_s; latency_ms.p50",
                          "serve-bulk; serve-small", "publish"),
    "pool.worker_busy_share": ("rows_per_s", "serve-bulk", "-"),
    "pool.useful_chunk_share": ("failed/attempted; rows_per_s", "serve-*",
                                "-"),
    "batching.queue_wait_ms.p50": ("latency_ms.p50", "serve-small",
                                   "serve-bulk"),
    "batching.requests_per_pass": ("busy.latency_ms.p95", "serve-small",
                                   "serve-bulk"),
    "batching.refused": ("failed/attempted", "serve-small", "-"),
    "service.sample_ms.p50": ("latency_ms.p50", "serve-small", "-"),
    "service.first_chunk_ms.p50": ("ttfb_ms.p50", "serve-bulk", "-"),
    "encoding.json_ms_per_krow": ("latency_ms.p50", "serve-small",
                                  "serve-bulk"),
    "encoding.csv_ms_per_krow": ("rows_per_s", "serve-bulk", "serve-small"),
    "http.self_ms.p50": ("latency_ms.p50", "serve-small", "-"),
    "http.bytes_per_row": ("rows_per_s", "serve-bulk", "-"),
    "proc.cpu_ms_per_krow": ("sample_rows_per_s; rows_per_s",
                             "publish; serve-bulk", "-"),
    "obs.trace_overhead_share": ("(validity of the traced run)", "all", "-"),
    **{f"self_ms.{layer}": ("the workload's latency or throughput",
                            "where the layer runs", "-")
       for layer in LAYERS + ("unattributed",)},
}


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _mean_ms(nodes: List[Node]) -> float:
    return _ms(sum(n.duration for n in nodes) / len(nodes)) if nodes else 0.0


def _per_krow(seconds: float, rows: float) -> float:
    return seconds * 1e6 / rows if rows else 0.0


def _by_name(nodes: Iterable[Node]) -> Dict[str, List[Node]]:
    out: Dict[str, List[Node]] = {}
    for node in nodes:
        out.setdefault(node.name, []).append(node)
    return out


def breakdown(tree_roots: Iterable[Node]) -> Dict[str, float]:
    """Self seconds per layer over the trees, plus ``unattributed`` (the
    self time of benchmark-owned roots), ``wall`` (the summed root
    durations) and ``sum`` (layers plus unattributed)."""
    layers = {layer: 0.0 for layer in LAYERS}
    layers["unattributed"] = 0.0
    wall = 0.0
    for root in tree_roots:
        wall += root.duration
        for name, seconds in self_times(root).items():
            layer = LAYER_OF.get(name, "unattributed")
            layers[layer] += seconds
    layers["wall"] = wall
    layers["sum"] = sum(v for k, v in layers.items() if k != "wall")
    return layers


def self_ms_metrics(parts: Dict[str, float], count: int) -> Dict[str, float]:
    """``self_ms.<layer>``: self time per root (cycle or request)."""
    return {f"self_ms.{layer}": _ms(parts[layer] / count) if count else 0.0
            for layer in LAYERS + ("unattributed",)}


def empty_metrics() -> Dict[str, float]:
    return dict.fromkeys(MOVES, 0.0)


def _cpu_seconds(nodes: List[Node]) -> float:
    """Process CPU between the first and the last of these spans."""
    tagged = [n for n in nodes if n.span[TAGS] and "cpu1" in n.span[TAGS]]
    if not tagged:
        return 0.0
    return (max(n.span[TAGS]["cpu1"] for n in tagged)
            - min(n.span[TAGS]["cpu0"] for n in tagged))


# ----------------------------------------------------------------------
# publish
# ----------------------------------------------------------------------
def publish_metrics(dump: dict) -> Dict[str, object]:
    """Per-layer metrics of the traced ``publish`` cycles."""
    nodes = build_forest(dump["spans"])
    cycles = [n for n in roots(nodes) if n.name == "bench.cycle"]
    named = _by_name(nodes.values())
    metrics = empty_metrics()
    samples = named.get("api.sample", [])
    sample_rows = sum(n.span[ROWS] for n in samples)
    forwards = named.get("nn.forward", [])
    inverses = named.get("transform.inverse", [])
    metrics.update({
        "gan.train_step_ms": _mean_ms(named.get("gan.train_step", [])),
        "nn.backward_ms": _mean_ms(named.get("nn.backward", [])),
        "nn.opt_step_ms": _mean_ms(named.get("nn.opt_step", [])),
        "transform.fit_ms": _mean_ms(named.get("transform.fit", [])),
        "transform.transform_ms": _mean_ms(
            named.get("transform.transform", [])),
        "nn.forward_ms_per_krow": _per_krow(
            sum(n.duration for n in forwards),
            sum(n.span[ROWS] for n in forwards)),
        "transform.inverse_ms_per_krow": _per_krow(
            sum(n.duration for n in inverses),
            sum(n.span[ROWS] for n in inverses)),
        "api.sample_self_ms_per_krow": _per_krow(
            sum(self_times(n)["api.sample"] for n in samples), sample_rows),
        "api.save_ms": _mean_ms(named.get("api.save", [])),
        "api.load_ms": _mean_ms(named.get("api.load", [])),
        "proc.cpu_ms_per_krow": _per_krow(
            sum(n.span[TAGS]["cpu1"] - n.span[TAGS]["cpu0"]
                for n in samples), sample_rows),
    })
    parts = breakdown(cycles)
    metrics.update(self_ms_metrics(parts, len(cycles)))
    serve_spans = sorted({n.name for n in nodes.values()
                          if LAYER_OF.get(n.name, "").startswith("serve.")})
    engine = parts["gan"] + parts["nn"] + parts["transform"]
    premise = {
        "engine_share": engine / parts["wall"] if parts["wall"] else 0.0,
        "serve_spans": serve_spans,
    }
    # Every span lies inside a traced cycle (none outside the breakdown).
    linkage = {"roots": [len(cycles), len(roots(nodes))]}
    return {"metrics": metrics, "breakdown": parts, "premise": premise,
            "roots": len(cycles), "linkage": linkage}


# ----------------------------------------------------------------------
# serve-small / serve-bulk
# ----------------------------------------------------------------------
def _within(node: Node, lo: float, hi: float) -> bool:
    return node.start >= lo and node.end <= hi


def _link_workers(chunks: List[Node], worker_forests, lo: float,
                  hi: float) -> List[int]:
    """Attach each worker's top-level spans (generator forward, inverse
    transform) to the shipped chunk span they ran inside; returns
    ``[attached, all]`` counts of the top-level spans in ``[lo, hi]``."""
    by_slot: Dict[object, List[Node]] = {}
    for slot, forest in worker_forests:
        by_slot.setdefault(slot, []).extend(roots(forest))
    for tops in by_slot.values():
        tops.sort(key=lambda n: n.start)
    starts = {slot: [n.start for n in tops] for slot, tops in by_slot.items()}
    attached = set()
    for chunk in chunks:
        slot = (chunk.span[TAGS] or {}).get("worker")
        tops = by_slot.get(slot, [])
        i = bisect.bisect_left(starts.get(slot, []), chunk.start)
        while i < len(tops) and tops[i].start < chunk.end:
            if tops[i].end <= chunk.end:
                chunk.children.append(tops[i])
                attached.add(id(tops[i]))
            i += 1
    in_window = [n for tops in by_slot.values() for n in tops
                 if _within(n, lo, hi)]
    return [sum(1 for n in in_window if id(n) in attached), len(in_window)]


def _metric_delta(before: dict, after: dict, name: str,
                  **labels) -> float:
    def total(scrape):
        return sum(value for got, value in scrape.get(name, [])
                   if all(got.get(k) == v for k, v in labels.items()))
    return total(after) - total(before)


def serve_metrics(records: List[dict], window, server: dict,
                  workers: List[dict], scrape_before: dict,
                  scrape_after: dict, n_workers: int,
                  save_ms: float) -> Dict[str, object]:
    """Per-layer metrics of a traced serve phase.

    ``records`` are the client's successful phase requests (``id``,
    ``sent``, ``done``, ``rows``, ``bytes``); ``window`` is the phase's
    ``(start, end)``.  Each request's tree is its blocking path: client
    request -> ``http.post`` (matched by request id) -> service ->
    batcher submit -> the pass that served it (the latest-ending
    ``pool.sample`` of a batcher thread inside the submit) -> shipped
    chunk and transport spans -> worker forward/inverse spans.
    """
    lo, hi = window
    nodes = build_forest(server["spans"])
    named = _by_name(n for n in nodes.values() if _within(n, lo, hi))
    chunks = named.get("pool.chunk", [])
    worker_forests = [(dump["meta"].get("worker"), build_forest(dump["spans"]))
                      for dump in workers]
    workers_linked = _link_workers(chunks, worker_forests, lo, hi)

    # Batched requests: link each submit to the pass that served it.
    passes = sorted((n for n in named.get("pool.sample", [])
                     if n.span[PARENT] is None), key=lambda n: n.end)
    waits = []
    submits = named.get("batching.submit", [])
    for submit in submits:
        served = [p for p in passes
                  if p.start >= submit.start and p.end <= submit.end
                  and p.span[TID] != submit.span[TID]]
        if served:
            submit.children.append(served[-1])
            waits.append(served[-1].start - submit.start)

    posts = {n.span[REQ]: n for n in named.get("http.post", [])}
    request_roots, http_self = [], []
    for record in records:
        root = Node("client.request", record["sent"], record["done"])
        post = posts.get(record["id"])
        if post is not None:
            root.children.append(post)
            for child in post.children:
                if child.name == "service.sample":
                    http_self.append(root.duration - child.duration)
        request_roots.append(root)
    parts = breakdown(request_roots)

    worker_named = _by_name(n for _, forest in worker_forests
                            for n in forest.values() if _within(n, lo, hi))
    forwards = worker_named.get("nn.forward", [])
    inverses = worker_named.get("transform.inverse", [])
    loads = _by_name(n for _, forest in worker_forests
                     for n in forest.values()).get("api.load", [])
    rows = sum(r["rows"] for r in records)
    encoded = named.get("encoding.columns", []) + named.get(
        "encoding.schema", [])
    csv = named.get("encoding.csv", [])
    cpu = _cpu_seconds(named.get("http.post", [])) + sum(
        _cpu_seconds([n for n in forest.values()
                      if n.name == "nn.forward" and _within(n, lo, hi)])
        for _, forest in worker_forests)
    coalesce_passes = _metric_delta(scrape_before, scrape_after,
                                    "repro_batcher_coalesce_size_count")
    coalesced = _metric_delta(scrape_before, scrape_after,
                              "repro_batcher_coalesce_size_sum")
    dispatched = _metric_delta(scrape_before, scrape_after,
                               "repro_pool_dispatch_total")
    delivered = _metric_delta(scrape_before, scrape_after,
                              "repro_pool_chunks_total")
    refused = sum(_metric_delta(scrape_before, scrape_after,
                                "repro_batcher_requests_total",
                                outcome=outcome)
                  for outcome in ("rejected", "timeout", "expired"))
    first_chunks = [value for at, value in
                    server["observations"].get("service.first_chunk", [])
                    if lo <= at <= hi]

    metrics = empty_metrics()
    metrics.update({
        "nn.forward_ms_per_krow": _per_krow(
            sum(n.duration for n in forwards),
            sum(n.span[ROWS] for n in forwards)),
        "transform.inverse_ms_per_krow": _per_krow(
            sum(n.duration for n in inverses),
            sum(n.span[ROWS] for n in inverses)),
        "api.save_ms": save_ms,
        "api.load_ms": _mean_ms(loads),
        "pool.boot_ms": _mean_ms(_by_name(nodes.values()).get(
            "pool.boot", [])),
        "pool.chunk_ms": _mean_ms(chunks),
        "pool.transport_ms": _mean_ms(named.get("pool.transport", [])),
        "pool.worker_busy_share": (sum(n.duration for n in chunks)
                                   / (n_workers * (hi - lo))),
        "pool.useful_chunk_share": (delivered / dispatched
                                    if dispatched else 0.0),
        "batching.queue_wait_ms.p50": _ms(median(waits)) if waits else 0.0,
        "batching.requests_per_pass": (coalesced / coalesce_passes
                                       if coalesce_passes else 0.0),
        "batching.refused": refused,
        "service.sample_ms.p50": _ms(median(
            [n.duration for n in named.get("service.sample", [])]))
        if named.get("service.sample") else 0.0,
        "service.first_chunk_ms.p50": _ms(median(first_chunks))
        if first_chunks else 0.0,
        "encoding.json_ms_per_krow": _per_krow(
            sum(n.duration for n in encoded),
            sum(n.span[ROWS] for n in named.get("encoding.columns", []))),
        "encoding.csv_ms_per_krow": _per_krow(
            sum(n.duration for n in csv), sum(n.span[ROWS] for n in csv)),
        "http.self_ms.p50": _ms(median(http_self)) if http_self else 0.0,
        "http.bytes_per_row": (sum(r["bytes"] for r in records) / rows
                               if rows else 0.0),
        "proc.cpu_ms_per_krow": _per_krow(cpu, rows),
    })
    metrics.update(self_ms_metrics(parts, len(request_roots)))

    worker_parts = breakdown(chunks)
    busy = worker_parts["wall"]
    worker_parts["idle"] = n_workers * (hi - lo) - busy

    def share(seconds: float) -> float:
        return seconds / parts["wall"] if parts["wall"] else 0.0

    per_request = parts["serve.http"] + parts["serve.batching"] + \
        parts["serve.encoding"] + parts["serve.pool"]
    engine = parts["nn"] + parts["transform"]
    # On the blocking path a chunk's worker time (``pool.chunk``, layer
    # api, with the worker's nn and transform spans under it) is the
    # part of a pool wait it covers; the server runs no engine span.
    generation = parts["api"] + engine
    premise = {
        "batcher_passes": coalesce_passes,
        "per_request_share": share(per_request),
        "engine_share": share(engine),
        "chunk_plus_encoding_share": share(generation
                                           + parts["serve.encoding"]),
        "per_request_over_engine": per_request > engine,
    }
    # Each pair is [linked, all]: client requests matched to their
    # server-side handler span, batcher submits to the pass that served
    # them, worker spans to the shipped chunk they ran inside.
    linkage = {
        "requests": [sum(1 for r in request_roots if r.children),
                     len(request_roots)],
        "submits": [len(waits), len(submits)],
        "worker_spans": workers_linked,
    }
    return {"metrics": metrics, "breakdown": parts,
            "worker_breakdown": worker_parts, "premise": premise,
            "roots": len(request_roots), "linkage": linkage}


def linked(linkage: Dict[str, List[int]]) -> bool:
    """Every span the breakdown needs found its place in a tree (and the
    run traced something)."""
    return all(got == total for got, total in linkage.values()) and any(
        total for _, total in linkage.values())


def premise_holds(workload: str, premise: dict) -> Optional[bool]:
    """The workload's design premise, checked on the traced run."""
    if workload == "publish":
        return premise["engine_share"] > 0.5 and not premise["serve_spans"]
    if workload == "serve-bulk":
        return (premise["batcher_passes"] == 0
                and premise["chunk_plus_encoding_share"] > 0.5)
    if workload == "serve-small":
        return premise["per_request_over_engine"]
    return None
