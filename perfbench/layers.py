"""Which calls into the program the traced runs time, and how.

Every span name starts with the layer it times (``gan``, ``nn``,
``transform``, ``api``, ``pool``, ``batching``, ``service``,
``encoding``, ``http``); :data:`LAYER_OF` maps names to the repo's
modules for the self-time breakdown.  Nothing under ``src/`` changes:
the wrappers are installed from here, in the process that runs the
workload, and ``fork``ed serving workers inherit them.
"""

from __future__ import annotations

import time

from .spans import ID, REQ, Tracer

#: Span name -> layer (module of the repo) in the self-time breakdown.
LAYER_OF = {
    "gan.fit": "gan", "gan.train_step": "gan",
    "nn.backward": "nn", "nn.opt_step": "nn", "nn.forward": "nn",
    "transform.fit": "transform", "transform.transform": "transform",
    "transform.inverse": "transform",
    "api.sample": "api", "api.save": "api", "api.load": "api",
    "pool.chunk": "api",
    "pool.sample": "serve.pool", "pool.next": "serve.pool",
    "pool.transport": "serve.pool", "pool.boot": "serve.pool",
    "batching.submit": "serve.batching",
    "service.sample": "serve.service",
    "service.sample_iter": "serve.service",
    "encoding.columns": "serve.encoding", "encoding.schema": "serve.encoding",
    "encoding.csv": "serve.encoding",
    "http.post": "serve.http",
}

#: Layers of the breakdown, in report order.
LAYERS = ("gan", "nn", "transform", "api", "serve.pool", "serve.batching",
          "serve.service", "serve.encoding", "serve.http")


def _rows_of_table(args, kwargs, result) -> int:
    return len(result)


def install_engine(tracer: Tracer) -> None:
    """Training and sampling layers: ``gan``, ``nn``, ``transform``,
    ``api``.  Used in-process by ``publish`` and, inherited over fork,
    by the serving workers."""
    from repro.api.base import Synthesizer
    from repro.gan import cnn, lstm, mlp, training
    from repro.gan.synthesizer import GANSynthesizer
    from repro.nn import is_grad_enabled, optim
    from repro.nn.tensor import Tensor
    from repro.transform.record import RecordTransformer

    tracer.wrap(GANSynthesizer, "fit", "gan.fit")
    for klass in vars(training).values():
        if isinstance(klass, type) \
                and issubclass(klass, training.BaseTrainer) \
                and "iteration" in vars(klass):
            tracer.wrap(klass, "iteration", "gan.train_step")
    tracer.wrap(Tensor, "backward", "nn.backward")
    for klass in vars(optim).values():
        if isinstance(klass, type) and issubclass(klass, optim.Optimizer) \
                and "step" in vars(klass):
            tracer.wrap(klass, "step", "nn.opt_step")

    # The generator call while sampling: no tape, and not inside a
    # training step (the discriminator step also runs G under no_grad).
    def sampling_forward() -> bool:
        return not is_grad_enabled() and not tracer.is_open("gan.train_step")

    for klass in (mlp.MLPGenerator, lstm.LSTMGenerator, cnn.CNNGenerator):
        tracer.wrap(klass, "__call__", "nn.forward", when=sampling_forward,
                    rows=lambda args, kwargs, result: len(args[1].data),
                    cpu=True)
    tracer.wrap(RecordTransformer, "fit", "transform.fit")
    tracer.wrap(RecordTransformer, "transform", "transform.transform")
    tracer.wrap(RecordTransformer, "inverse", "transform.inverse",
                rows=lambda args, kwargs, result: len(args[1]))
    tracer.wrap(Synthesizer, "sample", "api.sample", rows=_rows_of_table,
                cpu=True)
    tracer.wrap(Synthesizer, "save", "api.save")
    tracer.wrap(Synthesizer, "load", "api.load")

    def note_worker(original):
        def spawn_sampler(self, worker_id=0):
            tracer.meta["worker"] = worker_id
            return original(self, worker_id)
        return spawn_sampler

    tracer.replace(Synthesizer, "spawn_sampler", note_worker)


def _arrival_trace_class():
    from repro.obs.trace import Trace

    class ArrivalTrace(Trace):
        """A request trace that also stamps when each worker-shipped
        chunk span reached the parent (the pool's receiver thread calls
        :meth:`add` right before it delivers the chunk)."""

        def add(self, payload, retry=0):
            payload.setdefault("tags", {})["arrived"] = time.perf_counter()
            return super().add(payload, retry=retry)

    return ArrivalTrace


def _record_chunks(tracer: Tracer, trace, parent_of, req) -> None:
    """Copy a pool request's shipped chunk spans into the tracer: one
    ``pool.chunk`` (worker time) and one ``pool.transport`` (chunk end
    until arrival in the parent) per chunk, both under the span
    ``parent_of(chunk index)``."""
    for span in trace.spans():
        if span.name != "chunk" or span.end is None:
            continue
        tags = {"worker": span.tags.get("worker"),
                "chunk": span.tags.get("chunk")}
        parent = parent_of(tags["chunk"])
        tracer.record("pool.chunk", span.start, span.end, parent=parent,
                      req=req, tags=tags)
        arrived = span.tags.get("arrived")
        if arrived is not None:
            tracer.record("pool.transport", span.end, arrived,
                          parent=parent, req=req, tags=tags)


def install_server(tracer: Tracer) -> None:
    """Serving layers, in the server process before it forks workers."""
    from repro.serve import encoding, http
    from repro.serve.batching import MicroBatcher
    from repro.serve.pool import WorkerPool
    from repro.serve.service import SynthesisService

    arrival_trace = _arrival_trace_class()

    def request_id(args, kwargs):
        return args[0].headers.get("X-Bench-Id")

    # The request handler is the only place the client's request id
    # header is visible; its spans are matched to the client's records.
    tracer.wrap(http._Handler, "do_POST", "http.post", req=request_id,
                cpu=True)
    tracer.wrap(SynthesisService, "sample", "service.sample",
                rows=lambda args, kwargs, result: len(result[0]))
    tracer.wrap(MicroBatcher, "submit", "batching.submit")
    tracer.wrap(WorkerPool, "__init__", "pool.boot")
    tracer.wrap(http, "columns_payload", "encoding.columns",
                rows=lambda args, kwargs, result: len(args[0]))
    tracer.wrap(http, "schema_payload", "encoding.schema")
    tracer.wrap(encoding, "csv_rows", "encoding.csv",
                rows=lambda args, kwargs, result: len(args[0]))

    # A pool request that carries a trace gets per-chunk spans shipped
    # back from the workers; the benchmark's trace also stamps arrival.
    def pool_sample(original):
        def sample(self, n, batch=None, seed=None, timeout=None, trace=None):
            span = tracer.begin("pool.sample", rows=n)
            trace = trace if trace is not None else arrival_trace()
            try:
                return original(self, n, batch=batch, seed=seed,
                                timeout=timeout, trace=trace)
            finally:
                tracer.end(span)
                _record_chunks(tracer, trace, lambda index: span[ID],
                               span[REQ])
        return sample

    def pool_sample_iter(original):
        def sample_iter(self, n, batch=None, seed=None, timeout=None,
                        trace=None):
            trace = trace if trace is not None else arrival_trace()
            return _stream(original(self, n, batch=batch, seed=seed,
                                    timeout=timeout, trace=trace), trace)
        return sample_iter

    # A stream delivers its chunks in index order, so chunk i goes under
    # the i-th ``pool.next`` span: the wait it caused the handler.
    def _stream(stream, trace):
        req = tracer.current_req()
        waits = []
        try:
            yield from tracer.timed_iter(stream, "pool.next", rows=len,
                                         spans=waits)
        finally:
            _record_chunks(
                tracer, trace,
                lambda index: waits[index][ID] if index < len(waits)
                else None, req)

    tracer.replace(WorkerPool, "sample", pool_sample)
    tracer.replace(WorkerPool, "sample_iter", pool_sample_iter)

    def service_sample_iter(original):
        def sample_iter(self, name, n, batch=None, seed=None, timeout=None):
            started = time.perf_counter()
            span = tracer.begin("service.sample_iter", rows=n)
            try:
                chunks, used_seed = original(self, name, n, batch=batch,
                                             seed=seed, timeout=timeout)
            finally:
                tracer.end(span)
            return _first_chunk(chunks, started), used_seed
        return sample_iter

    def _first_chunk(chunks, started):
        for index, chunk in enumerate(chunks):
            if index == 0:
                tracer.observe("service.first_chunk",
                               time.perf_counter() - started)
            yield chunk

    tracer.replace(SynthesisService, "sample_iter", service_sample_iter)
