"""Trace exporters and the ``repro trace view`` summarizer.

:func:`save_trace` is the one trace API for every backend: it writes a
wall-clock Chrome/Perfetto JSON built from the spans the tracer recorded
while tracing was enabled — identically on ``sim``, ``threaded`` and
``process`` runs, with per-rank tracks for process-backend workers.

Open the output at https://ui.perfetto.dev or ``chrome://tracing``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Union

from .metrics import MetricsRegistry
from .tracer import DRIVER_TRACK, TRACE, Tracer

__all__ = ["metrics_from_spans", "save_trace", "trace_events",
           "trace_summary"]


def _track_order(tracks) -> List[str]:
    """Driver row first, then worker tracks in name order."""
    ordered = sorted(t for t in tracks if t != DRIVER_TRACK)
    return ([DRIVER_TRACK] if DRIVER_TRACK in tracks else []) + ordered


def trace_events(tracer: Optional[Tracer] = None) -> List[dict]:
    """Chrome trace events from recorded spans ([] when none exist),
    timed in microseconds."""
    tracer = TRACE if tracer is None else tracer
    spans = tracer.spans()
    if not spans:
        return []
    t_origin = min(s[3] for s in spans)
    tids = {track: tid for tid, track
            in enumerate(_track_order({s[0] for s in spans}))}
    events: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": "repro"},
    }]
    for track, tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": tid, "args": {"name": track}})
    slices = []
    for track, name, cat, t0, t1, args in spans:
        slices.append({
            "name": name,
            "cat": cat or "default",
            "ph": "X",
            "pid": 0,
            "tid": tids[track],
            "ts": (t0 - t_origin) * 1e6,
            "dur": max(0.0, t1 - t0) * 1e6,
            "args": dict(args),
        })
    slices.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
    return events + slices


def save_trace(path: str, tracer: Optional[Tracer] = None) -> str:
    """Write the recorded spans to ``path`` as a Chrome/Perfetto trace."""
    events = trace_events(tracer)
    if not events:
        raise ValueError(
            "no spans recorded — enable tracing before the run "
            "(repro train/bench --trace, or repro.obs.enable())")
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _self_times(slices: Sequence[dict]):
    """Per-(tid, name) self time via a containment sweep.

    Chrome "X" slices on one tid nest by time containment; a slice's
    self time is its duration minus its *direct* children's durations.
    Slices are processed in (ts, -dur) order with a stack of open
    parents — the standard flame-graph reconstruction.
    """
    by_tid: Dict[int, List[dict]] = {}
    for s in slices:
        by_tid.setdefault(s["tid"], []).append(s)
    per_name: Dict[tuple, Dict[str, float]] = {}
    per_tid_busy: Dict[int, float] = {}

    def account(tid: int, name: str, self_us: float) -> None:
        row = per_name.setdefault((tid, name),
                                  {"self_us": 0.0, "count": 0.0})
        row["self_us"] += self_us
        row["count"] += 1
        per_tid_busy[tid] = per_tid_busy.get(tid, 0.0) + self_us

    for tid, rows in by_tid.items():
        rows.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack: List[list] = []  # [end_ts, child_us, name, dur]
        for s in rows:
            ts, dur = float(s["ts"]), float(s["dur"])
            while stack and ts >= stack[-1][0] - 1e-9:
                end, child, name, d = stack.pop()
                account(tid, name, max(0.0, d - child))
            if stack:
                stack[-1][1] += dur
            stack.append([ts + dur, 0.0, s["name"], dur])
        while stack:
            end, child, name, d = stack.pop()
            account(tid, name, max(0.0, d - child))
    return per_name, per_tid_busy


def trace_summary(trace: Union[dict, Sequence[dict]],
                  top: int = 12) -> Dict[str, Any]:
    """Summarize a Chrome trace: top slices by self time + rank balance.

    Accepts a loaded trace payload (``{"traceEvents": [...]}``) or a raw
    event list.  Returns ``{"slices": [...], "tracks": [...],
    "imbalance": float}`` where ``imbalance`` is ``max/mean - 1`` of the
    busy time across tracks (0.0 means perfectly balanced).
    """
    events = trace["traceEvents"] if isinstance(trace, dict) else trace
    names = {}
    for e in events:
        if e.get("ph") == "M" and e.get("name") == "thread_name":
            names[e["tid"]] = e.get("args", {}).get("name", str(e["tid"]))
    slices = [e for e in events if e.get("ph") == "X"]
    per_name, per_tid_busy = _self_times(slices)

    agg: Dict[str, Dict[str, float]] = {}
    for (tid, name), row in per_name.items():
        a = agg.setdefault(name, {"self_us": 0.0, "count": 0.0})
        a["self_us"] += row["self_us"]
        a["count"] += row["count"]
    top_rows = [{"name": name, "self_ms": v["self_us"] / 1e3,
                 "count": int(v["count"])}
                for name, v in sorted(agg.items(),
                                      key=lambda kv: -kv[1]["self_us"])]
    tracks = [{"track": names.get(tid, str(tid)),
               "busy_ms": busy / 1e3,
               "slices": sum(1 for s in slices if s["tid"] == tid)}
              for tid, busy in sorted(per_tid_busy.items())]
    busys = [t["busy_ms"] for t in tracks]
    imbalance = 0.0
    if busys and sum(busys) > 0:
        imbalance = max(busys) / (sum(busys) / len(busys)) - 1.0
    return {"slices": top_rows[:top], "tracks": tracks,
            "imbalance": imbalance}


def metrics_from_spans(tracer: Optional[Tracer] = None) -> MetricsRegistry:
    """Derive span-level metrics (collective latency histograms etc.)."""
    tracer = TRACE if tracer is None else tracer
    reg = MetricsRegistry()
    for track, name, cat, t0, t1, args in tracer.spans():
        dur = max(0.0, t1 - t0)
        if name.startswith("comm."):
            reg.observe("collective_seconds", dur, op=name[len("comm."):])
        reg.counter("spans_total", 1, track=track)
    return reg
