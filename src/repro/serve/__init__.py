"""repro.serve — multi-worker synthesis serving over saved models.

The consumer-facing layer of the reproduction: load persisted
synthesizers by name, shard ``sample`` requests across worker
processes with bit-identical reassembly, bound the requests in flight,
and expose it all over a dependency-free HTTP API.

Layers (composable bottom-up)::

    ModelStore        name -> saved-model directory, versioned catalogue
    WorkerPool        owns one loaded model: N processes (or inline),
                      sharded-seed sampling
    SynthesisService  LRU of pools over the store, seeded routing,
                      in-flight bound
    SynthesisServer   ThreadingHTTPServer front end

Every table request takes the seeded, sharded path: an unseeded one
gets a fresh seed, which the response reports so the draw can be
replayed.  :class:`MicroBatcher` (coalescing small unseeded requests
into one pass) is still exported, but no service builds one.

Hot refresh: ``service.publish(name, synthesizer_or_dir)`` writes an
immutable new version directory, swaps the model's ``ACTIVE`` pointer
atomically, and boots a fresh pool on the new version — requests in
flight on the old version drain untouched (seeded streams stay
bit-identical end to end), and the old pool is closed once idle.

Quick start::

    from repro.serve import SynthesisServer, WorkerPool

    # direct, deterministic, parallel:
    with WorkerPool("models/adult-gan", workers=4) as pool:
        table = pool.sample(1_000_000, seed=7)   # == local sample(...)

    # or the whole service over HTTP:
    with SynthesisServer("models/", workers=4).start() as server:
        print(server.url)   # POST /models/adult-gan/sample

Or from a shell: ``python -m repro.serve models/ --port 8000``.

The determinism contract: ``pool.sample(n, batch=b, seed=s)`` is
bit-identical to ``Synthesizer.sample(n, batch=b, seed=s)`` for any
worker count — chunk ``i`` always derives its RNG from the substream
``(s, "chunk", i)`` (see :mod:`repro.api.seeding`), so where a chunk
runs never changes what it contains.
"""

from .batching import MicroBatcher
from .circuit import CircuitBreaker, RespawnBackoff
from .errors import (
    BackpressureError, CircuitOpen, ModelNotFound, PoolClosed,
    RequestTimeout, ServingError, WorkerError,
)
from .faults import FAULT_EXIT_CODE, FaultInjected, FaultPlan
from .http import SynthesisServer
from .pool import WorkerPool
from .service import SynthesisService
from .store import ModelInfo, ModelStore, load_model

__all__ = [
    "ModelStore", "ModelInfo", "load_model",
    "WorkerPool", "MicroBatcher", "SynthesisService", "SynthesisServer",
    "CircuitBreaker", "RespawnBackoff",
    "FaultPlan", "FaultInjected", "FAULT_EXIT_CODE",
    "ServingError", "ModelNotFound", "BackpressureError",
    "RequestTimeout", "WorkerError", "PoolClosed", "CircuitOpen",
]
