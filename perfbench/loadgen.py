"""HTTP load generation: a Poisson open loop and a closed loop.

Pure standard library, no ``repro`` import: the client measures the
server from outside.  Times are ``time.perf_counter()`` readings, the
clock the server-side spans use.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Callable, Dict, List, Optional


def poisson_schedule(rate: float, count: int, seed: int) -> List[float]:
    """``count`` arrival offsets (seconds from phase start) of a Poisson
    process with mean ``rate`` per second; the same seed gives the same
    schedule."""
    if rate <= 0 or count < 1:
        raise ValueError("rate and count must be positive")
    rng = random.Random(seed)
    offsets, at = [], 0.0
    for _ in range(count):
        at += rng.expovariate(rate)
        offsets.append(at)
    return offsets


def request_record(rid: str, due: float, picked: float, sent: float,
                   done: float, status: int, body: Optional[bytes],
                   error: Optional[str] = None,
                   first_byte: Optional[float] = None) -> Dict:
    """One request as the client saw it.

    ``latency`` counts from the due time, so a request that waited for
    a free connection (the client-side backlog) is charged that wait;
    ``late`` is how far the generator itself ran behind: send time
    minus the later of due time and the moment a connection took it.
    """
    return {"id": rid, "due": due, "picked": picked, "sent": sent,
            "done": done, "status": status, "body": body, "error": error,
            "first_byte": first_byte,
            "latency": done - due, "service": done - sent,
            "late": sent - max(due, picked),
            "bytes": 0 if body is None else len(body)}


def post(conn: http.client.HTTPConnection, path: str, payload: dict,
         rid: str, stream: bool = False):
    """POST a JSON body; returns ``(status, body, first_byte_time)``."""
    body = json.dumps(payload).encode("utf-8")
    conn.request("POST", path, body=body,
                 headers={"Content-Type": "application/json",
                          "X-Bench-Id": rid})
    response = conn.getresponse()
    first_byte = None
    if stream:
        head = response.read(1)
        first_byte = time.perf_counter()
        data = head + response.read()
    else:
        data = response.read()
    return response.status, data, first_byte


class Connection:
    """A keep-alive connection that reconnects after a failure."""

    def __init__(self, port: int, timeout: float):
        self.port = port
        self.timeout = timeout
        self.conn: Optional[http.client.HTTPConnection] = None

    def post(self, path: str, payload: dict, rid: str,
             stream: bool = False):
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=self.timeout)
        try:
            return post(self.conn, path, payload, rid, stream)
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def open_loop(port: int, path: str, payload: dict, offsets: List[float],
              connections: int, prefix: str, timeout: float = 30.0,
              lead: float = 0.05) -> Dict:
    """Send one request per offset, on schedule, over ``connections``
    keep-alive connections (one thread each).

    A request whose due time passes while every connection is busy
    waits in the client-side backlog and is sent by the next free
    connection; its latency still counts from the due time.
    """
    start = time.perf_counter() + lead
    records: List[Optional[Dict]] = [None] * len(offsets)
    cursor = iter(range(len(offsets)))
    lock = threading.Lock()

    def sender() -> None:
        conn = Connection(port, timeout)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = start + offsets[index]
                picked = time.perf_counter()
                if due > picked:
                    time.sleep(due - picked)
                rid = f"{prefix}{index}"
                sent = time.perf_counter()
                try:
                    status, body, _ = conn.post(path, payload, rid)
                    error = None
                except (OSError, http.client.HTTPException) as exc:
                    status, body, error = 0, None, repr(exc)
                records[index] = request_record(
                    rid, due, picked, sent, time.perf_counter(), status,
                    body, error)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender, name=f"loadgen-{i}",
                                daemon=True)
               for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"start": start, "end": start + offsets[-1],
            "records": records}


def backlog_at(records: List[Dict], at: float) -> int:
    """Requests due by ``at`` that no connection had sent yet."""
    return sum(1 for r in records if r["due"] <= at < r["sent"])


def closed_loop(port: int, path: str, make_payload: Callable[[int], dict],
                seconds: float, prefix: str, stream: bool,
                connections: int = 1, timeout: float = 60.0,
                keep: Callable[[int], bool] = lambda i: False) -> Dict:
    """Send requests back to back on each of ``connections`` connections
    until ``seconds`` have passed (requests in flight then complete).
    Bodies are kept only for the request indices ``keep`` selects;
    ``lines`` counts the newlines of every body."""
    records: List[Dict] = []
    counter = iter(range(1 << 62))
    lock = threading.Lock()
    start = time.perf_counter()

    def sender() -> None:
        conn = Connection(port, timeout)
        try:
            while time.perf_counter() - start < seconds:
                with lock:
                    index = next(counter)
                rid = f"{prefix}{index}"
                sent = time.perf_counter()
                try:
                    status, body, first = conn.post(
                        path, make_payload(index), rid, stream=stream)
                    error = None
                except (OSError, http.client.HTTPException) as exc:
                    status, body, first, error = 0, None, None, repr(exc)
                record = request_record(rid, sent, sent, sent,
                                        time.perf_counter(), status, body,
                                        error, first_byte=first)
                record["index"] = index
                record["lines"] = 0 if body is None else body.count(b"\n")
                if not keep(index):
                    record["body"] = None
                with lock:
                    records.append(record)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender, name=f"loadgen-{i}",
                                daemon=True)
               for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records.sort(key=lambda r: r["index"])
    return {"start": start, "end": time.perf_counter(), "records": records}
