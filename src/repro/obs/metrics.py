"""Metrics registry: counters, gauges, histograms.

Naming follows the Prometheus conventions (see docs/observability.md
for the full catalogue): snake_case metric names, ``_total`` suffix for
counters, ``_seconds`` / ``_bytes`` unit suffixes, labels for
categorical axes (``comm_bytes_total{category="alltoall"}``).

The registry renders three ways:

* :meth:`MetricsRegistry.as_dict` — a flat ``{key: value}`` mapping
  whose keys already carry the labels in Prometheus sample syntax.
  Histograms expand into ``_count`` / ``_sum`` / ``_min`` / ``_max`` /
  ``_mean`` / ``_p50`` / ``_p95`` / ``_p99`` summary samples.  This is what
  ``DistTrainResult.metrics`` stores (plain JSON-able dict, picklable).
* :meth:`MetricsRegistry.to_json` — the same dict as a JSON document.
* :func:`prometheus_text` — Prometheus text exposition rendered from a
  flat dict, so a snapshot that travelled through a result object can
  still be exported without the registry that produced it.  String
  values render as info-style samples (``name{value="..."} 1``).
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any, Dict, List, Mapping, Tuple

__all__ = ["MetricsRegistry", "percentile", "prometheus_text"]

_Key = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, Any]) -> _Key:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _fmt(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample list."""
    if not sorted_values:
        return math.nan
    idx = min(len(sorted_values) - 1,
              max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[idx]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of an arbitrary sample sequence.

    The same estimator the histogram expansion uses (``NaN`` on an empty
    sample, the single value at ``n = 1`` for every ``q``); exposed so
    the serving load generator reports latencies with identical
    semantics to the registry's ``_p50``/``_p95``/``_p99`` samples.
    """
    return _percentile(sorted(float(v) for v in values), q)


class MetricsRegistry:
    """Process-local metrics store.

    Recording and rendering hold one lock, so client threads and the
    serving thread may record concurrently and a snapshot never sees a
    half-applied update.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[_Key, float] = {}
        self._gauges: Dict[_Key, Any] = {}
        self._hists: Dict[_Key, List[float]] = {}

    # -- recording -----------------------------------------------------
    def counter(self, name: str, value: float = 1.0, **labels) -> None:
        """Increment a monotonically-growing counter."""
        k = _key(name, labels)
        with self._lock:
            self._counters[k] = self._counters.get(k, 0.0) + float(value)

    def gauge(self, name: str, value: Any, **labels) -> None:
        """Set a point-in-time value (numbers, or strings for info)."""
        k = _key(name, labels)
        with self._lock:
            self._gauges[k] = value

    def observe(self, name: str, value: float, **labels) -> None:
        """Add one observation to a histogram."""
        k = _key(name, labels)
        with self._lock:
            self._hists.setdefault(k, []).append(float(value))

    # -- rendering -----------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Flat snapshot with Prometheus-style keys (sorted)."""
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            hists = [(k, list(v)) for k, v in self._hists.items()]
        flat: Dict[str, Any] = {}
        for (name, labels), v in counters:
            flat[_fmt(name, labels)] = v
        for (name, labels), v in gauges:
            flat[_fmt(name, labels)] = v
        for (name, labels), values in hists:
            ordered = sorted(values)
            flat[_fmt(name + "_count", labels)] = float(len(ordered))
            flat[_fmt(name + "_sum", labels)] = float(sum(ordered))
            flat[_fmt(name + "_min", labels)] = ordered[0]
            flat[_fmt(name + "_max", labels)] = ordered[-1]
            flat[_fmt(name + "_mean", labels)] = sum(ordered) / len(ordered)
            flat[_fmt(name + "_p50", labels)] = _percentile(ordered, 0.50)
            flat[_fmt(name + "_p95", labels)] = _percentile(ordered, 0.95)
            flat[_fmt(name + "_p99", labels)] = _percentile(ordered, 0.99)
        return dict(sorted(flat.items()))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)


def prometheus_text(flat: Mapping[str, Any]) -> str:
    """Render a flat metrics dict as Prometheus text exposition.

    Keys are assumed to already be in sample syntax
    (``name{label="v"}`` or bare names); booleans render as 0/1 and
    strings as info-style samples with a ``value`` label.
    """
    lines = []
    for key in sorted(flat):
        v = flat[key]
        if isinstance(v, bool):
            v = int(v)
        if isinstance(v, (int, float)):
            if isinstance(v, float) and math.isnan(v):
                v = "NaN"
            lines.append(f"{key} {v}")
        else:
            label = f'value="{v}"'
            if key.endswith("}"):
                lines.append(f"{key[:-1]},{label}}} 1")
            else:
                lines.append(f"{key}{{{label}}} 1")
    return "\n".join(lines) + ("\n" if lines else "")
