"""``repro.obs`` — dependency-free observability for the whole stack.

Four small pieces, wired through serve / stream / nn:

* :mod:`repro.obs.metrics` — thread-safe :class:`MetricsRegistry` with
  labeled counters, gauges, and fixed-bucket histograms; snapshot and
  cross-process merge.
* :mod:`repro.obs.clock` — the single sanctioned clock (RC001/RC007):
  ``monotonic()`` for deadlines, ``perf()`` for durations, ``wall()``
  for human-facing timestamps; injectable for deterministic tests.
* :mod:`repro.obs.trace` — explicit-propagation request spans: a traced
  pooled ``sample`` stitches per-chunk worker spans shipped over the
  result pipes, surviving worker death (retries become retry spans).
* :mod:`repro.obs.export` — Prometheus text exposition + JSON dump of
  a registry snapshot (what ``GET /metrics`` serves).

Plus opt-in engine profiling (:mod:`repro.obs.profile`,
``REPRO_PROFILE=1``): per-tape-op forward/backward time and ArrayPool
hit rates via ``profile_report()``.

``python -m repro.obs`` pretty-prints the process registry, a metrics
URL, or a scraped exposition file.
"""

from . import clock
from .clock import Clock, ManualClock, SystemClock, set_clock, use_clock
from .export import (PROMETHEUS_CONTENT_TYPE, parse_prometheus,
                     render_json, render_prometheus)
from .metrics import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry, get_registry)
from .profile import (disable_profiling, enable_profiling, profile_report,
                      profile_snapshot, profiling_enabled, reset_profile)
from .trace import Span, Trace

__all__ = [
    "clock", "Clock", "SystemClock", "ManualClock", "set_clock",
    "use_clock",
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "DEFAULT_BUCKETS", "get_registry",
    "Span", "Trace",
    "render_prometheus", "render_json", "parse_prometheus",
    "PROMETHEUS_CONTENT_TYPE",
    "enable_profiling", "disable_profiling", "profiling_enabled",
    "reset_profile", "profile_report", "profile_snapshot",
]
