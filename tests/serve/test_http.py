"""HTTP front end: routes, formats, determinism, error mapping."""

import json
import urllib.error
import urllib.request

import pytest

from repro.serve import SynthesisServer, SynthesisService


@pytest.fixture(scope="module")
def server(model_root):
    service = SynthesisService(model_root, workers=0,
                               coalesce_max_rows=64)
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
        assert "batcher" in payload

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

    def test_unseeded_small_request_coalesced(self, server):
        status, _, body = post(server, "/models/adult-pb/sample",
                               {"n": 10})
        payload = json.loads(body)
        assert status == 200
        assert payload["seed"] is None  # rows came from a shared pass
        assert len(payload["columns"]["age"]) == 10

    def test_unseeded_large_request_reports_assigned_seed(self, server):
        _, _, body = post(server, "/models/adult-pb/sample", {"n": 100})
        payload = json.loads(body)
        assert isinstance(payload["seed"], int)
        # Replaying with the reported seed reproduces the draw.
        _, _, replay = post(server, "/models/adult-pb/sample",
                            {"n": 100, "seed": payload["seed"]})
        assert json.loads(replay)["columns"] == payload["columns"]

    def test_coalesced_csv_omits_seed_header(self, server):
        # Unseeded + small -> coalesced: no standalone stream, so the
        # replay-token header must be absent (not the string "None").
        _, headers, body = post(server, "/models/adult-pb/sample",
                                {"n": 10, "format": "csv"})
        assert headers.get("X-Repro-Seed") is None
        assert len(body.decode().strip().splitlines()) == 11

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
