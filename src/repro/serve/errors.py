"""Exception hierarchy for the synthesis serving layer.

Every serving error derives from :class:`ServingError` (itself a
:class:`repro.errors.ReproError`), and each class maps onto one HTTP
status in :mod:`repro.serve.http`, so front ends translate failures
mechanically instead of pattern-matching messages.
"""

from __future__ import annotations

from ..errors import ReproError


class ServingError(ReproError):
    """Base class for all serving-layer errors."""


class ModelNotFound(ServingError):
    """No model with the requested name exists in the store (HTTP 404)."""


class BackpressureError(ServingError):
    """The service is at its in-flight bound (or a batcher queue is
    full); the client should back off (HTTP 503).

    Raised *immediately* at admission time — bounded admission sheds
    load at the edge rather than letting latency grow without bound.
    """


class RequestTimeout(ServingError):
    """The request missed its deadline while queued or running (HTTP 504)."""


class WorkerError(ServingError):
    """A worker process failed while serving the request (HTTP 500).

    Carries the worker-side exception rendering; the worker itself
    survives and keeps serving subsequent requests.
    """


class CircuitOpen(ServingError):
    """The model's circuit breaker is open after repeated pool
    failures; the request is rejected fast instead of paying a boot
    timeout (HTTP 503 with ``Retry-After``).

    ``retry_after`` is the breaker's estimate, in seconds, of when a
    half-open probe will next be admitted.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class PoolClosed(ServingError):
    """The worker pool (or service) was closed while the request was
    pending, or a request was submitted after shutdown."""
