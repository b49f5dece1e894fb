"""Fleet-wide observability: metrics, traces, exposition.

Two small stdlib-only modules:

* :mod:`repro.obs.metrics` — typed counters / gauges /
  fixed-exponential-bucket histograms in a process-local
  :class:`~repro.obs.metrics.MetricsRegistry`, with a deterministic
  snapshot/merge API so per-worker registries aggregate fleet-wide and
  a Prometheus-text renderer for ``GET /metrics``.
* :mod:`repro.obs.trace` — :class:`~repro.obs.trace.TraceContext`
  request correlation across the gateway→worker process boundary,
  plus ``span()`` timers and ``event()`` decision markers that emit
  structured JSON log lines when ``REPRO_OBS_LOG`` is set.
"""

from repro.obs.metrics import (
    BATCH_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    merge_snapshots,
    observe_stage_seconds,
    render_prometheus,
)
from repro.obs.trace import (
    OBS_LOG_ENV,
    TraceContext,
    event,
    log_enabled,
    span,
)

__all__ = [
    "BATCH_BUCKETS",
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OBS_LOG_ENV",
    "TraceContext",
    "event",
    "get_registry",
    "log_enabled",
    "merge_snapshots",
    "observe_stage_seconds",
    "render_prometheus",
    "span",
]
