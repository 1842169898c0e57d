"""Runtime observability: span tracing and a metrics registry.

The package has three layers (see docs/observability.md):

* :mod:`repro.obs.tracer` — the process-wide span recorder.  A single
  module-level :data:`~repro.obs.tracer.TRACE` singleton is consulted by
  every instrumented call site with one attribute check
  (``TRACE.enabled``); while disabled it records nothing and hands out a
  shared no-op context manager, so tracing-off runs stay byte-identical
  to an uninstrumented build.
* :mod:`repro.obs.metrics` — counters / gauges / histograms with flat
  dict, JSON and Prometheus text renderings.  ``DistTrainResult.metrics``
  is a snapshot of this registry.
* :mod:`repro.obs.export` — Chrome/Perfetto JSON export of the
  wall-clock spans from any backend
  (:func:`~repro.obs.export.save_trace`) and the ``repro trace view``
  summarizer.
"""

from .tracer import NULL_SPAN, TRACE, Tracer, enable
from .metrics import MetricsRegistry, percentile, prometheus_text
from .export import (metrics_from_spans, save_trace, trace_events,
                     trace_summary)

__all__ = [
    "NULL_SPAN",
    "TRACE",
    "Tracer",
    "MetricsRegistry",
    "enable",
    "metrics_from_spans",
    "percentile",
    "prometheus_text",
    "save_trace",
    "trace_events",
    "trace_summary",
]
