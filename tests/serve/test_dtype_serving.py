"""Served draws equal the publisher's, whatever the model's dtype.

Every model samples in the engine dtype it was saved in, in a pool
worker and inline alike, so the body served for a seed is byte-identical
to the fitting process's own ``sample(n, seed)``: as JSON, as buffered
CSV, and as streamed CSV, whose chunks are encoded where they are
generated.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro.api import load_synthesizer
from repro.obs import MetricsRegistry
from repro.serve import SynthesisServer, SynthesisService, WorkerPool
from repro.serve.encoding import (
    columns_payload, csv_rows, csv_stream, encoded_at_source,
)

from tests.conftest import DTYPE_DRAW


def post(server, name, body):
    request = urllib.request.Request(
        f"{server.url}/models/{name}/sample",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=120) as resp:
        return resp.headers, resp.read()


def csv_body(table) -> bytes:
    return "".join(csv_stream([table], table.schema)).encode("utf-8")


@pytest.mark.parametrize("workers", [2, 0])
def test_served_bodies_equal_the_publishers_draw(dtype_model_store,
                                                 workers):
    root, draws = dtype_model_store
    service = SynthesisService(root, workers=workers, pool_capacity=2,
                               metrics=MetricsRegistry())
    request = dict(DTYPE_DRAW)
    with SynthesisServer(service).start() as server:
        for name, draw in draws.items():
            _, body = post(server, name, request)
            assert json.loads(body)["columns"] == json.loads(
                json.dumps(columns_payload(draw))), name
            expected = csv_body(draw)
            _, body = post(server, name, dict(request, format="csv"))
            assert body == expected, name
            headers, body = post(server, name, dict(
                request, format="csv", stream=True))
            assert headers["Transfer-Encoding"] == "chunked"
            assert body == expected, name
    service.close()


@pytest.mark.parametrize("workers", [2, 0])
def test_pool_stream_chunks_carry_their_csv(dtype_model_store, workers):
    """Inside encoded_at_source a pool stream still yields the in-process
    chunks, each carrying its rows encoded where it was generated."""
    root, _ = dtype_model_store
    path = root / "gan-mlp-float32"
    reference = list(load_synthesizer(path).sample_iter(**DTYPE_DRAW))
    with WorkerPool(path, workers=workers) as pool:
        with encoded_at_source("csv"):
            chunks = list(pool.sample_iter(**DTYPE_DRAW))
        plain = list(pool.sample_iter(**DTYPE_DRAW))
    assert len(chunks) == len(reference) == 3
    for chunk, expected, bare in zip(chunks, reference, plain):
        for name in expected.schema.names:
            np.testing.assert_array_equal(chunk.column(name),
                                          expected.column(name))
        assert chunk._csv_utf8 == csv_rows(expected).encode("utf-8")
        assert not hasattr(bare, "_csv_utf8")


def test_streamed_csv_survives_a_worker_kill(dtype_model_store,
                                             monkeypatch):
    """A worker killed mid-stream: its chunks are generated and encoded
    again elsewhere, and the body is the uninterrupted one."""
    root, _ = dtype_model_store
    name = "gan-mlp-float32"
    draw = dict(n=1000, batch=64, seed=5)
    expected = csv_body(load_synthesizer(root / name).sample(**draw))
    monkeypatch.setenv("REPRO_FAULTS", json.dumps({"seed": 0, "rules": [
        {"on": "chunk", "worker": 0, "after": 3, "action": "kill",
         "incarnations": [0], "times": 1}]}))
    service = SynthesisService(root, workers=2, pool_capacity=1,
                               metrics=MetricsRegistry())
    with SynthesisServer(service).start() as server:
        _, body = post(server, name, dict(draw, format="csv", stream=True))
        assert body == expected
        supervision = service.model_info(name)["pool"]["supervision"]
    service.close()
    assert [event["event"] for event in supervision["events"]
            ].count("death") == 1, supervision["events"]
    assert supervision["chunk_retries"] >= 1
