"""HTTP front end: routes, formats, determinism, error mapping."""

import json
import math
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry, parse_prometheus
from repro.serve import SynthesisServer, SynthesisService, WorkerPool


@pytest.fixture(scope="module")
def server(model_root):
    service = SynthesisService(model_root, workers=0)
    with SynthesisServer(service).start() as srv:
        yield srv
    service.close()


def get(server, path):
    with urllib.request.urlopen(f"{server.url}{path}", timeout=30) as resp:
        return resp.status, resp.headers, resp.read()


def post(server, path, body):
    request = urllib.request.Request(
        f"{server.url}{path}", data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=60) as resp:
        return resp.status, resp.headers, resp.read()


def post_error(server, path, body):
    try:
        post(server, path, body)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())
    raise AssertionError("expected an HTTP error")


class TestInfoRoutes:
    def test_healthz(self, server):
        status, _, body = get(server, "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["models"] == 4
        assert "inflight" in payload

    def test_models(self, server):
        status, _, body = get(server, "/models")
        models = {m["name"]: m for m in json.loads(body)["models"]}
        assert status == 200
        assert models["adult-pb"]["kind"] == "table"
        assert models["shop-db"]["kind"] == "database"
        assert models["shop-db"]["method"] == "relational"

    def test_unknown_route(self, server):
        try:
            get(server, "/nope")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
        else:
            raise AssertionError("expected 404")


class TestTableSampling:
    def test_json_seeded_is_deterministic(self, server):
        body = {"n": 25, "seed": 17}
        _, _, first = post(server, "/models/adult-pb/sample", body)
        _, _, second = post(server, "/models/adult-pb/sample", body)
        a, b = json.loads(first), json.loads(second)
        assert a["n"] == 25 and a["seed"] == 17
        assert a["columns"] == b["columns"]
        assert {c["name"] for c in a["schema"]["columns"]} \
            == set(a["columns"])
        assert all(len(v) == 25 for v in a["columns"].values())

    def test_categoricals_decoded_to_labels(self, server):
        _, _, body = post(server, "/models/adult-pb/sample",
                          {"n": 10, "seed": 1})
        payload = json.loads(body)
        assert set(payload["columns"]["job"]) <= {"eng", "doc", "art"}

    def test_unseeded_small_request_reports_a_replayable_seed(self,
                                                             server):
        status, _, body = post(server, "/models/adult-pb/sample",
                               {"n": 10})
        payload = json.loads(body)
        assert status == 200
        assert isinstance(payload["seed"], int)
        assert len(payload["columns"]["age"]) == 10
        _, _, replay = post(server, "/models/adult-pb/sample",
                            {"n": 10, "seed": payload["seed"]})
        assert json.loads(replay)["columns"] == payload["columns"]

    def test_unseeded_large_request_reports_assigned_seed(self, server):
        _, _, body = post(server, "/models/adult-pb/sample", {"n": 100})
        payload = json.loads(body)
        assert isinstance(payload["seed"], int)
        # Replaying with the reported seed reproduces the draw.
        _, _, replay = post(server, "/models/adult-pb/sample",
                            {"n": 100, "seed": payload["seed"]})
        assert json.loads(replay)["columns"] == payload["columns"]

    def test_unseeded_csv_reports_a_replayable_seed_header(self, server):
        for stream in (False, True):
            _, headers, body = post(server, "/models/adult-pb/sample",
                                    {"n": 10, "format": "csv",
                                     "stream": stream})
            seed = int(headers["X-Repro-Seed"])
            assert len(body.decode().strip().splitlines()) == 11
            _, replay_headers, replay = post(
                server, "/models/adult-pb/sample",
                {"n": 10, "format": "csv", "stream": stream, "seed": seed})
            assert replay_headers["X-Repro-Seed"] == str(seed)
            assert replay == body

    def test_csv_format(self, server):
        _, headers, body = post(server, "/models/adult-pb/sample",
                                {"n": 30, "seed": 3, "format": "csv"})
        assert headers["Content-Type"] == "text/csv"
        assert headers["X-Repro-Seed"] == "3"
        lines = body.decode().strip().splitlines()
        assert lines[0] == "age,income,job,city,label"
        assert len(lines) == 31

    def test_csv_streaming_chunked(self, server):
        _, headers, body = post(
            server, "/models/adult-pb/sample",
            {"n": 90, "seed": 4, "batch": 32, "format": "csv",
             "stream": True})
        assert headers["Content-Type"] == "text/csv"
        lines = body.decode().strip().splitlines()
        assert len(lines) == 91
        # The streamed rows equal the one-shot response (same contract).
        _, _, oneshot = post(
            server, "/models/adult-pb/sample",
            {"n": 90, "seed": 4, "batch": 32, "format": "csv"})
        assert body.decode() == oneshot.decode()


class TestDatabaseSampling:
    def test_database_draw(self, server):
        _, _, body = post(server, "/models/shop-db/sample",
                          {"scale": 1.0, "seed": 9})
        payload = json.loads(body)
        assert payload["seed"] == 9
        assert set(payload["tables"]) == {"customers", "orders"}
        orders = payload["tables"]["orders"]
        assert orders["n"] == len(orders["columns"]["order_id"])
        assert payload["foreign_keys"]

    def test_database_deterministic(self, server):
        body = {"scale": 1.0, "seed": 9}
        _, _, first = post(server, "/models/shop-db/sample", body)
        _, _, second = post(server, "/models/shop-db/sample", body)
        assert json.loads(first)["tables"] == json.loads(second)["tables"]


class TestErrorMapping:
    def test_unknown_model_404(self, server):
        code, payload = post_error(server, "/models/ghost/sample",
                                   {"n": 5})
        assert code == 404
        assert payload["error"] == "ModelNotFound"

    def test_missing_n_400(self, server):
        code, payload = post_error(server, "/models/adult-pb/sample", {})
        assert code == 400
        assert "n" in payload["detail"]

    def test_bad_n_400_names_argument(self, server):
        code, payload = post_error(server, "/models/adult-pb/sample",
                                   {"n": "ten", "seed": 1})
        assert code == 400
        assert "n must" in payload["detail"]

    def test_bad_batch_400(self, server):
        code, payload = post_error(server, "/models/adult-pb/sample",
                                   {"n": 10, "seed": 1, "batch": 0})
        assert code == 400
        assert "batch" in payload["detail"]

    def test_bad_format_400(self, server):
        code, _ = post_error(server, "/models/adult-pb/sample",
                             {"n": 10, "format": "parquet"})
        assert code == 400

    def test_stream_requires_csv(self, server):
        code, payload = post_error(
            server, "/models/adult-pb/sample",
            {"n": 10, "stream": True, "format": "json"})
        assert code == 400
        assert "csv" in payload["detail"]

    def test_invalid_body_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/models/adult-pb/sample", data=b"not json{",
            headers={"Content-Type": "application/json"}, method="POST")
        try:
            urllib.request.urlopen(request, timeout=30)
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
        else:
            raise AssertionError("expected 400")

    def test_encode_failure_is_a_worker_failure_500(self, model_root,
                                                    monkeypatch):
        """A table is encoded where its chunks are generated, so a value
        with no encoding (an integral NaN from a diverged model) fails
        as a worker failure, for JSON and buffered CSV alike."""
        from repro.serve import encoding

        def no_integer(table):
            raise ValueError("cannot convert float NaN to integer")

        monkeypatch.setattr(encoding, "json_columns", no_integer)
        monkeypatch.setattr(encoding, "csv_rows", no_integer)
        service = SynthesisService(model_root, workers=0,
                                   metrics=MetricsRegistry())
        with SynthesisServer(service).start() as srv:
            for out_format in ("json", "csv"):
                code, payload = post_error(
                    srv, "/models/adult-pb/sample",
                    {"n": 10, "seed": 1, "format": out_format})
                assert code == 500, out_format
                assert payload["error"] == "WorkerError"
                assert "NaN" in payload["detail"]
        service.close()


class TestKeepAlive:
    def test_small_responses_do_not_wait_for_a_delayed_ack(self, server):
        """Headers and body leave in separate sends.  With Nagle on, a
        response smaller than one segment waits for the client's
        delayed ACK (~40 ms) on a keep-alive connection."""
        import http.client
        import statistics
        import time

        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        seconds = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                seconds.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(seconds) < 0.020


class TestBodyLimits:
    """Content-Length is checked before any body byte is read, so a
    hostile length is refused at once instead of pinning a handler
    thread in a read that waits for the client to hang up."""

    @staticmethod
    def raw_post(server, length):
        """Send only the request head; the response must arrive and the
        server must close the connection without reading a body."""
        import socket

        host, port = server.address
        head = (f"POST /models/adult-pb/sample HTTP/1.1\r\n"
                f"Host: {host}\r\nContent-Type: application/json\r\n"
                f"Content-Length: {length}\r\n\r\n")
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(head.encode("ascii"))
            response = b""
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                response += data
        status_line, _, rest = response.partition(b"\r\n")
        body = rest.partition(b"\r\n\r\n")[2]
        return int(status_line.split()[1]), json.loads(body)

    def test_negative_length_400(self, server):
        code, payload = self.raw_post(server, -1)
        assert code == 400
        assert "Content-Length" in payload["detail"]

    def test_oversized_length_413(self, server):
        from repro.serve.http import MAX_BODY_BYTES

        code, payload = self.raw_post(server, MAX_BODY_BYTES + 1)
        assert code == 413
        assert payload["error"] == "BodyTooLarge"
        # The server keeps serving normal requests.
        status, _, _ = post(server, "/models/adult-pb/sample",
                            {"n": 5, "seed": 1})
        assert status == 200

    @pytest.mark.parametrize("framing", ["Content-Length: abc",
                                         "Transfer-Encoding: chunked"])
    def test_body_of_unknown_length_400_then_close(self, server, framing):
        """A body whose length the server cannot know is refused before
        a byte of it is read, and the connection closes: the body and
        the request after it on the same connection are never parsed,
        so the client gets exactly one response and then EOF."""
        import socket

        host, port = server.address
        body = b'{"n": 5}'
        if framing.startswith("Transfer-Encoding"):
            body = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        head = (f"POST /models/adult-pb/sample HTTP/1.1\r\n"
                f"Host: {host}\r\nContent-Type: application/json\r\n"
                f"{framing}\r\n\r\n").encode("ascii")
        follow_up = (b"POST /models/adult-pb/sample HTTP/1.1\r\n"
                     b"Content-Type: application/json\r\n"
                     b"Content-Length: 8\r\n\r\n{\"n\": 5}")
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(head + body + follow_up)
            response = b""
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                response += data
        head_bytes, _, rest = response.partition(b"\r\n\r\n")
        lines = head_bytes.decode("latin-1").split("\r\n")
        assert int(lines[0].split()[1]) == 400
        headers = dict(line.split(": ", 1) for line in lines[1:])
        assert headers["Connection"] == "close"
        length = int(headers["Content-Length"])
        payload = json.loads(rest[:length])
        assert payload["error"] == "ValueError"
        assert rest[length:] == b""  # one response, then EOF
        # Another client still gets served.
        status, _, _ = post(server, "/models/adult-pb/sample",
                            {"n": 5, "seed": 1})
        assert status == 200


class TestBufferedRowLimit:
    """A response that is not streamed is built in memory, so its row
    count is bounded; a streamed CSV is flow-controlled and is not."""

    def test_oversized_buffered_response_413(self, server):
        from repro.serve.http import MAX_BUFFERED_ROWS

        for body in ({"n": 100_000_000},
                     {"n": MAX_BUFFERED_ROWS + 1, "format": "csv",
                      "stream": False}):
            code, payload = post_error(server, "/models/adult-pb/sample",
                                       body)
            assert code == 413
            assert payload["error"] == "ResponseTooLarge"
            assert '"stream": true' in payload["detail"]
        # The server keeps serving normal requests.
        status, _, _ = post(server, "/models/adult-pb/sample",
                            {"n": 5, "seed": 1})
        assert status == 200

    def test_streamed_csv_is_not_row_bounded(self, server, monkeypatch):
        from repro.serve import http

        monkeypatch.setattr(http, "MAX_BUFFERED_ROWS", 16)
        code, _ = post_error(server, "/models/adult-pb/sample",
                             {"n": 17, "seed": 1})
        assert code == 413
        _, _, body = post(server, "/models/adult-pb/sample",
                          {"n": 40, "seed": 1, "format": "csv",
                           "stream": True})
        assert len(body.decode().strip().splitlines()) == 41


class TestOneTelemetrySource:
    def test_healthz_counts_match_the_metrics_scrape(self, model_root,
                                                     monkeypatch):
        """/healthz reads its counts from the registry /metrics renders,
        including for a request that fails after it was accepted."""
        service = SynthesisService(model_root, workers=0,
                                   metrics=MetricsRegistry())
        with SynthesisServer(service).start() as srv:
            post(srv, "/models/adult-pb/sample", {"n": 25, "seed": 17})
            post(srv, "/models/adult-pb/sample", {"n": 10})

            def fail(pool, *args, **kwargs):
                raise ValueError("failed after acceptance")

            monkeypatch.setattr(WorkerPool, "sample", fail)
            code, _ = post_error(srv, "/models/adult-pb/sample",
                                 {"n": 12, "seed": 1})
            assert code == 400
            health = json.loads(get(srv, "/healthz")[2])
            scrape = parse_prometheus(get(srv, "/metrics")[2].decode())
        service.close()

        def total(name, **labels):
            return sum(value for got, value in scrape.get(name, [])
                       if all(got.get(k) == v for k, v in labels.items()))

        assert health["requests"] == total("repro_serve_requests_total") \
            == 3
        assert health["rows"] == total("repro_serve_rows_total") == 35
        assert health["inflight"] == total("repro_serve_inflight") == 0


class TestStreamedBatchValidation:
    def test_bad_batch_refused_before_admission(self, model_root):
        """A streamed request validates ``batch`` as a buffered one
        does: before it is admitted, boots a pool or counts a series."""
        service = SynthesisService(model_root, workers=0,
                                   metrics=MetricsRegistry())
        with SynthesisServer(service).start() as srv:
            code, payload = post_error(srv, "/models/adult-pb/sample",
                                       {"n": 40, "batch": 0, "seed": 1,
                                        "format": "csv", "stream": True})
            assert code == 400
            assert "batch" in payload["detail"]
            assert service.active_pools() == {}
            scrape = parse_prometheus(get(srv, "/metrics")[2].decode())
        service.close()
        assert not scrape.get("repro_serve_requests_total")
        assert not scrape.get("repro_serve_errors_total")



#: JSON values of the wrong type for a number or an object.
_NOT_A_NUMBER = st.one_of(st.none(), st.booleans(), st.text(max_size=6),
                          st.lists(st.integers(), max_size=2),
                          st.dictionaries(st.text(max_size=4),
                                          st.integers(), max_size=2))
_NOT_AN_INT = st.one_of(_NOT_A_NUMBER,
                        st.floats(allow_nan=True, allow_infinity=True))


def _body(**fields):
    """A request body where every field may be left out."""
    return st.fixed_dictionaries({}, optional=fields)


#: Table bodies: every value bounded so a draw stays small (n <= 512).
_TABLE_BODIES = _body(
    n=st.one_of(st.integers(max_value=512), _NOT_AN_INT),
    seed=st.one_of(st.integers(), _NOT_AN_INT),
    batch=st.one_of(st.integers(max_value=512), _NOT_AN_INT),
    format=st.one_of(st.sampled_from(["json", "csv"]), _NOT_A_NUMBER),
    stream=st.one_of(st.booleans(), _NOT_A_NUMBER))

#: Database bodies: scale <= 4 and each size <= 200 (50 real customers).
_DATABASE_BODIES = _body(
    scale=st.one_of(st.floats(max_value=4), st.integers(max_value=4),
                    st.sampled_from([math.nan, math.inf]), _NOT_A_NUMBER),
    sizes=st.one_of(
        st.dictionaries(
            st.one_of(st.sampled_from(["customers", "orders"]),
                      st.text(max_size=4)),
            st.one_of(st.integers(max_value=200), _NOT_AN_INT),
            max_size=3),
        _NOT_A_NUMBER.filter(lambda value: not isinstance(value, dict))),
    seed=st.one_of(st.integers(), _NOT_AN_INT))


@pytest.fixture(scope="module")
def worker_server(model_root):
    service = SynthesisService(model_root, workers=2,
                               metrics=MetricsRegistry())
    with SynthesisServer(service).start() as srv:
        yield srv
    service.close()


class TestRequestArgumentsAtTheEdge:
    """Any small body, valid or not, gets an answer a client can act
    on, and the same answer at every worker count: a bad ``seed``,
    ``scale`` or ``sizes`` is a 400 raised before any task reaches a
    worker, never a worker failure (500)."""

    @settings(max_examples=60, deadline=None)
    @given(route=st.sampled_from(["table", "database"]), data=st.data())
    def test_every_body_gets_200_or_4xx(self, worker_server, route, data):
        model, bodies = (("adult-pb", _TABLE_BODIES) if route == "table"
                         else ("shop-db", _DATABASE_BODIES))
        body = data.draw(bodies, label="body")
        try:
            status, _, _ = post(worker_server, f"/models/{model}/sample",
                                body)
        except urllib.error.HTTPError as exc:
            status = exc.code
            detail = json.loads(exc.read())
        else:
            detail = None
        assert status in (200, 400, 404, 413), (body, detail)


def read_until_closed(sock) -> bytes:
    """Everything the peer sends until it closes the connection (the
    socket's own timeout fails the read if it never does)."""
    data = b""
    while True:
        part = sock.recv(65536)
        if not part:
            return data
        data += part


class TestConnectionTimeout:
    def test_stalled_and_idle_connections_are_closed(self, model_root,
                                                     monkeypatch):
        import socket
        import time

        from repro.serve import http

        monkeypatch.setattr(http, "CONNECTION_TIMEOUT", 0.5)
        service = SynthesisService(model_root, workers=0,
                                   metrics=MetricsRegistry())
        with SynthesisServer(service).start() as srv:
            host, port = srv.address
            started = time.perf_counter()
            with socket.create_connection((host, port), timeout=10) as half, \
                    socket.create_connection((host, port),
                                             timeout=10) as idle:
                half.sendall(b"POST /models/adult-pb/sa")
                idle.sendall(f"GET /healthz HTTP/1.1\r\nHost: {host}"
                             f"\r\n\r\n".encode("ascii"))
                # Another client is served while both connections stall.
                status, _, _ = get(srv, "/healthz")
                assert status == 200
                assert read_until_closed(half) == b""
                response = read_until_closed(idle)
            assert response.startswith(b"HTTP/1.1 200")
            assert time.perf_counter() - started < 8
            status, _, _ = get(srv, "/healthz")
            assert status == 200
        service.close()


class TestSigterm:
    def test_sigterm_stops_the_server_like_ctrl_c(self, model_root):
        """SIGTERM closes the pools, the workers exit, and the port can
        be bound again at once (a live worker would still hold it)."""
        import os
        import re
        import signal
        import socket
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        # Its own process group, so whatever a failed shutdown leaves
        # behind is killed below.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", str(model_root),
             "--port", "0", "--workers", "2"],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
            text=True, start_new_session=True)
        try:
            line = proc.stdout.readline()
            port = int(re.search(r"http://[\d.]+:(\d+)", line).group(1))
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/models/adult-pb/sample",
                data=json.dumps({"n": 20, "seed": 1}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST")
            with urllib.request.urlopen(request, timeout=60) as resp:
                assert resp.status == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            with socket.socket() as sock:
                # As a restarted server binds (SO_REUSEADDR): only a
                # socket still listening on the port refuses it.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind(("127.0.0.1", port))
                sock.listen()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the whole group is gone, as it should be
