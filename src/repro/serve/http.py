"""Dependency-free HTTP front end over a :class:`SynthesisService`.

Built on :class:`http.server.ThreadingHTTPServer` — one thread per
connection, no third-party web stack.  Endpoints:

``GET /healthz``
    Liveness + counters (JSON).
``GET /metrics``
    Prometheus text exposition of the service's metrics registry
    (request latency histograms, pool supervision counters, the
    in-flight and circuit-state gauges...).  Point a scraper here.
``GET /models``
    The model catalogue with live-pool status (JSON).
``GET /models/{name}``
    One model's detail: active version, published versions, pool
    status, and the array manifest of the active version (shapes and
    dtypes read lazily from the saved headers).
``POST /models/{name}/sample``
    Synthesize rows.  JSON body for a **table** model::

        {"n": 5000, "seed": 17, "batch": 4096,
         "format": "json" | "csv", "stream": false}

    and for a **database** model::

        {"scale": 1.0, "sizes": {"customers": 200}, "seed": 17}

    ``seed`` makes the response reproducible (and is echoed back);
    an unseeded request reports the fresh seed the service assigned
    (the JSON ``seed``, the CSV ``X-Repro-Seed`` header), so every
    response can be replayed.  With ``"format": "csv"`` and
    ``"stream": true`` (or ``n`` past the server's streaming threshold)
    the response is sent with chunked transfer-encoding, one CSV
    fragment per generated chunk, so large draws start flowing before
    generation finishes.  A response that is not streamed is built in
    memory, so it holds at most :data:`MAX_BUFFERED_ROWS` rows.  A JSON
    table request may add ``"trace": true`` to get the request's
    stitched span breakdown (one span per chunk, timed in the worker
    that generated it) back in the response under ``"trace"``.

    Every table response is encoded by the process that generated its
    chunks (:func:`repro.serve.encoding.encoded_at_source`): a CSV
    chunk's rows, or a JSON chunk's column bodies.  The handler only
    splices bytes: the CSV header before the rows, or the JSON head
    (``model``, ``n``, ``seed``, ``schema``), the columns and the
    optional ``trace`` (:func:`repro.serve.encoding.json_table`).  A
    value with no encoding (an integral NaN or infinity from a diverged
    model) therefore fails where it is encoded, as a worker failure.

Errors map 1:1 from the serving exception hierarchy: 404 unknown model,
400 invalid request, 413 body over :data:`MAX_BODY_BYTES` or buffered
response over :data:`MAX_BUFFERED_ROWS`, 503 over the service's
in-flight bound or an open circuit (with ``Retry-After``), 504
deadline, 500 worker failure (an encode failure included).

Every connection reads and writes under a :data:`CONNECTION_TIMEOUT`
socket timeout: a client that stalls mid-request, or idles on a
keep-alive connection, has its connection closed instead of holding a
handler thread forever.
"""

from __future__ import annotations

import json
import math
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from ..obs.export import PROMETHEUS_CONTENT_TYPE, render_prometheus
from ..obs.trace import Trace
# columns_payload is no longer called here; it stays a name of this
# module, where perfbench/layers.py times it.
from .encoding import (  # noqa: F401
    columns_payload, csv_bytes, database_payload, encoded_at_source,
    json_table, schema_payload,
)
from .errors import (
    BackpressureError, CircuitOpen, ModelNotFound, PoolClosed,
    RequestTimeout,
)
from .service import SynthesisService
from .store import KIND_DATABASE

_SAMPLE_ROUTE = re.compile(r"^/models/([A-Za-z0-9][A-Za-z0-9._-]*)/sample$")
_MODEL_ROUTE = re.compile(r"^/models/([A-Za-z0-9][A-Za-z0-9._-]*)$")

#: CSV responses for at least this many rows stream chunked by default.
DEFAULT_STREAM_THRESHOLD = 50_000
#: Largest request body read (sample requests are a few hundred bytes).
MAX_BODY_BYTES = 1 << 20
#: Most rows in a response that is not streamed (about 45 MB of JSON
#: at 15 columns); larger draws must stream as CSV.
MAX_BUFFERED_ROWS = 1 << 18
#: Seconds a connection may block in one socket read or write (a
#: stalled request, an idle keep-alive connection, a client that stops
#: reading) before the handler closes it.
CONNECTION_TIMEOUT = 60.0


class BodyTooLarge(ValueError):
    """The declared request body exceeds :data:`MAX_BODY_BYTES` (413)."""


class ResponseTooLarge(ValueError):
    """A response that is not streamed would exceed
    :data:`MAX_BUFFERED_ROWS` rows (413)."""


class _StreamAborted(Exception):
    """A chunked response failed after its headers were sent.

    The only protocol-valid signal left is a truncated stream: the
    handler must close the connection without the terminal 0-chunk and
    must NOT write a second status line (which would land inside the
    chunk framing and corrupt the wire).  Carries nothing; the original
    error was already logged.
    """


def _status_for(exc: Exception) -> int:
    if isinstance(exc, (BodyTooLarge, ResponseTooLarge)):
        return 413
    if isinstance(exc, ModelNotFound):
        return 404
    if isinstance(exc, (BackpressureError, CircuitOpen)):
        return 503
    if isinstance(exc, RequestTimeout):
        return 504
    if isinstance(exc, PoolClosed):
        return 503
    if isinstance(exc, (ValueError, TypeError)):
        return 400
    return 500


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    # Headers and body go out in separate sends; with Nagle on, a
    # response smaller than one segment waits for the client's delayed
    # ACK (~40 ms) before its body leaves.
    disable_nagle_algorithm = True

    @property
    def timeout(self) -> float:
        """Per-connection socket timeout (read by ``setup``)."""
        return CONNECTION_TIMEOUT

    # The ThreadingHTTPServer subclass carries the service + knobs.
    @property
    def service(self) -> SynthesisService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # quiet by default
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # Response plumbing
    # ------------------------------------------------------------------
    def _send_bytes(self, status: int, payload: bytes,
                    content_type: str,
                    retry_after: Optional[float] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            # The client learns this is the connection's last response
            # from the response itself, not only from the EOF after it.
            self.send_header("Connection", "close")
        if status == 503:
            # An open circuit reports the breaker's own estimate of
            # when a probe will be admitted; plain backpressure keeps
            # the generic hint.
            seconds = 1 if retry_after is None else \
                max(1, math.ceil(retry_after))
            self.send_header("Retry-After", str(seconds))
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, payload: dict,
                   retry_after: Optional[float] = None) -> None:
        self._send_bytes(status, json.dumps(payload).encode("utf-8"),
                         "application/json", retry_after=retry_after)

    def _send_error_json(self, exc: Exception) -> None:
        status = _status_for(exc)
        self._send_json(status, {"error": type(exc).__name__,
                                 "detail": str(exc)},
                        retry_after=getattr(exc, "retry_after", None))

    def _send_chunked(self, fragments, content_type: str,
                      trailer_headers=None) -> None:
        """Chunked transfer-encoding: forward byte fragments as they
        come."""
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Transfer-Encoding", "chunked")
        if trailer_headers:
            for key, value in trailer_headers.items():
                self.send_header(key, value)
        self.end_headers()
        try:
            for data in fragments:
                if not data:
                    continue
                self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
                self.wfile.write(data)
                self.wfile.write(b"\r\n")
            self.wfile.write(b"0\r\n\r\n")
        except Exception as exc:
            # Headers are gone: a mid-stream failure (including the
            # terminal-chunk write racing a client disconnect) cannot
            # become an error response.  Truncate and drop the
            # connection so the client sees a hard framing error
            # instead of silently-complete-looking data.
            self.log_error("chunked response aborted: %s: %s",
                           type(exc).__name__, exc)
            self.close_connection = True
            raise _StreamAborted() from exc

    def _body_length(self) -> int:
        """The request body's declared length, refused when the body
        cannot be read safely: framed by ``Transfer-Encoding``, of no
        valid ``Content-Length``, or over :data:`MAX_BODY_BYTES`."""
        if "Transfer-Encoding" in self.headers:
            raise ValueError(
                "request bodies must be sent with Content-Length, not "
                "Transfer-Encoding")
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            raise ValueError(
                f"Content-Length must be a non-negative integer, got "
                f"{declared[:40]!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise BodyTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        return length

    def _read_body(self) -> dict:
        try:
            length = self._body_length()
        except Exception:
            # Refused before any body byte is read (a body of unknown
            # length cannot be skipped, and rfile.read(-1) would block
            # until the client hangs up); the connection then closes,
            # so the unread body is never parsed as a next request.
            self.close_connection = True
            raise
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}")
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        try:
            if self.path == "/healthz":
                self._send_json(200, self.service.healthz())
            elif self.path == "/metrics":
                text = render_prometheus(self.service.metrics.snapshot())
                self._send_bytes(200, text.encode("utf-8"),
                                 PROMETHEUS_CONTENT_TYPE)
            elif self.path == "/models":
                self._send_json(200, {"models": self.service.models()})
            elif _MODEL_ROUTE.match(self.path):
                name = _MODEL_ROUTE.match(self.path).group(1)
                self._send_json(200, self.service.model_info(name))
            else:
                self._send_json(404, {"error": "NotFound",
                                      "detail": f"no route {self.path}"})
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(exc)

    def do_POST(self) -> None:  # noqa: N802
        match = _SAMPLE_ROUTE.match(self.path)
        if match is None:
            self._send_json(404, {"error": "NotFound",
                                  "detail": f"no route {self.path}"})
            return
        name = match.group(1)
        try:
            body = self._read_body()
            info = self.service.store.info(name)
            if info.kind == KIND_DATABASE:
                self._serve_database(name, body)
            else:
                self._serve_table(name, body)
        except _StreamAborted:
            pass  # response already truncated; never double-respond
        except TimeoutError:
            raise  # a stalled client: handle_one_request closes it
        except Exception as exc:
            self._send_error_json(exc)

    def _serve_table(self, name: str, body: dict) -> None:
        if "n" not in body:
            raise ValueError("table request body requires \"n\" (rows)")
        n = body["n"]
        seed = body.get("seed")
        batch = body.get("batch")
        out_format = body.get("format", "json")
        if out_format not in ("json", "csv"):
            raise ValueError(
                f"format must be \"json\" or \"csv\", got {out_format!r}")
        threshold = getattr(self.server, "stream_threshold",
                            DEFAULT_STREAM_THRESHOLD)
        stream = bool(body.get("stream",
                               out_format == "csv" and isinstance(n, int)
                               and n >= threshold))
        if stream and out_format != "csv":
            raise ValueError("streaming responses require format=csv")
        traced = bool(body.get("trace", False))
        if traced and (stream or out_format != "json"):
            raise ValueError(
                "trace=true requires a non-streaming json response")
        if not stream and isinstance(n, int) and n > MAX_BUFFERED_ROWS:
            raise ResponseTooLarge(
                f"a response that is not streamed holds at most "
                f"{MAX_BUFFERED_ROWS} rows, got n={n}; request "
                f"\"format\": \"csv\", \"stream\": true for larger draws")
        if stream:
            with encoded_at_source("csv"):
                chunks, used_seed = self.service.sample_iter(
                    name, n, batch=batch, seed=seed)
                # The first chunk carries the schema; pull it eagerly so
                # the CSV header (and any generation error) precedes the
                # chunked response instead of corrupting it midway.
                iterator = iter(chunks)
                first = next(iterator)
                self._send_chunked(
                    csv_bytes(_chain_first(first, iterator), first.schema),
                    "text/csv", {"X-Repro-Seed": str(used_seed)})
            return
        trace = Trace("http.sample", tags={"model": name}) if traced \
            else None
        with encoded_at_source(out_format):
            table, used_seed = self.service.sample(name, n, batch=batch,
                                                   seed=seed, trace=trace)
        if out_format == "csv":
            data = b"".join(csv_bytes([table], table.schema))
            self.send_response(200)
            self.send_header("Content-Type", "text/csv")
            self.send_header("Content-Length", str(len(data)))
            self.send_header("X-Repro-Seed", str(used_seed))
            self.end_headers()
            self.wfile.write(data)
            return
        head = {"model": name, "n": len(table), "seed": used_seed,
                "schema": schema_payload(table.schema)}
        tail = {} if trace is None else {"trace": trace.to_dict()}
        self._send_bytes(200, json_table(head, table, tail),
                         "application/json")

    def _serve_database(self, name: str, body: dict) -> None:
        database, used_seed = self.service.sample_database(
            name, body.get("scale", 1.0), sizes=body.get("sizes"),
            seed=body.get("seed"))
        self._send_json(200, {
            "model": name, "seed": used_seed,
            **database_payload(database),
        })


def _chain_first(first, rest):
    yield first
    yield from rest


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class SynthesisServer:
    """A :class:`SynthesisService` behind a threading HTTP server.

    ``port=0`` binds an ephemeral port (see :attr:`port`).  The server
    owns the service when it constructed it from ``root``; a service
    passed in explicitly stays the caller's to close.
    """

    def __init__(self, service_or_root, host: str = "127.0.0.1",
                 port: int = 0, *, workers: int = 2,
                 stream_threshold: int = DEFAULT_STREAM_THRESHOLD,
                 verbose: bool = False, degraded: str = "reject"):
        if isinstance(service_or_root, SynthesisService):
            self.service = service_or_root
            self._owns_service = False
        else:
            self.service = SynthesisService(service_or_root,
                                            workers=workers,
                                            degraded=degraded)
            self._owns_service = True
        self._httpd = _Server((host, port), _Handler)
        self._httpd.service = self.service  # type: ignore[attr-defined]
        self._httpd.stream_threshold = stream_threshold
        self._httpd.verbose = verbose
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "SynthesisServer":
        """Serve in a background thread (returns immediately)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True,
            name="repro-serve-http")
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (blocks until ``close``)."""
        self._httpd.serve_forever()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "SynthesisServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
