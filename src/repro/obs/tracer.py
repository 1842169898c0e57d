"""Process-wide span tracer (the ``TRACE`` singleton).

Span model
----------
A span is one closed interval on one *track*: a tuple
``(track, name, cat, t_start, t_end, args)``.  Tracks name timeline rows
("driver" for the driver process, ``"rank{r}"`` for process-backend
workers); timestamps are raw :func:`time.perf_counter` readings.  On
Linux ``perf_counter`` is ``CLOCK_MONOTONIC``, which shares its epoch
across all processes of one host, so spans recorded inside worker
processes merge directly with driver spans into one coherent timeline —
the exporter normalises everything to the earliest recorded start.

Nesting is positional: Chrome/Perfetto nest complete ("X") slices on the
same track by time containment, so nested ``with TRACE.span(...)``
blocks render as a flame graph without any parent bookkeeping.

Zero-overhead contract
----------------------
``TRACE`` is a module-level singleton that is *disabled* by default.
Instrumented hot paths pay exactly one attribute check
(``TRACE.enabled``) while tracing is off; :meth:`Tracer.span` then
returns the shared :data:`NULL_SPAN` no-op context manager without
allocating anything.  Enabling tracing must never change numerical
results — instrumentation only ever brackets existing work
(``tests/test_obs.py`` asserts both halves of the contract).

Only the driver thread opens spans through :meth:`Tracer.span`
(worker-process spans arrive pre-closed via :meth:`Tracer.add_span`),
so the open-span stack used by :meth:`Tracer.annotate` needs no locking.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["NULL_SPAN", "Span", "TRACE", "Tracer", "enable"]

#: Track name for spans recorded in the driver process.
DRIVER_TRACK = "driver"

#: One recorded span: ``(track, name, cat, t_start, t_end, args)``.
SpanTuple = Tuple[str, str, str, float, float, Dict[str, Any]]


class _NullSpan:
    """Shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> None:
        """Discard annotations (the real :meth:`Span.set` records them)."""


#: The singleton no-op context manager (never allocated per call).
NULL_SPAN = _NullSpan()


class Span:
    """An open span; records itself into the tracer buffer on exit."""

    __slots__ = ("_tracer", "track", "name", "cat", "args", "t0")

    def __init__(self, tracer: "Tracer", track: str, name: str, cat: str,
                 args: Optional[Dict[str, Any]]) -> None:
        self._tracer = tracer
        self.track = track
        self.name = name
        self.cat = cat
        self.args = args
        self.t0 = 0.0

    def set(self, **args) -> None:
        """Attach key/value annotations to this span."""
        if self.args is None:
            self.args = {}
        self.args.update(args)

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        t1 = perf_counter()
        tracer = self._tracer
        if tracer._stack and tracer._stack[-1] is self:
            tracer._stack.pop()
        tracer._spans.append(
            (self.track, self.name, self.cat, self.t0, t1, self.args or {}))
        return False


class Tracer:
    """Append-only span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.enabled = False
        self._spans: List[SpanTuple] = []
        self._stack: List[Span] = []

    # -- lifecycle -----------------------------------------------------
    def enable(self) -> "Tracer":
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        self.enabled = False
        self._stack.clear()
        return self

    def clear(self) -> None:
        """Drop all recorded spans (the enabled flag is untouched)."""
        self._spans.clear()
        self._stack.clear()

    # -- recording -----------------------------------------------------
    def span(self, name: str, cat: str = "", track: str = DRIVER_TRACK,
             args: Optional[Dict[str, Any]] = None):
        """Open a span as a context manager (no-op while disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, track, name, cat, args)

    def add_span(self, track: str, name: str, cat: str, t0: float, t1: float,
                 args: Optional[Dict[str, Any]] = None) -> None:
        """Record an already-closed span (merging worker buffers)."""
        if self.enabled:
            self._spans.append((track, name, cat, t0, t1, args or {}))

    def annotate(self, **args) -> None:
        """Attach annotations to the innermost open driver span, if any.

        The comm layer's volume-accounting helpers use this to stamp the
        enclosing collective span with its event-log step id and byte
        count without threading those values through every call site.
        """
        if self.enabled and self._stack:
            self._stack[-1].set(**args)

    # -- querying ------------------------------------------------------
    def spans(self) -> List[SpanTuple]:
        """Snapshot of all recorded spans."""
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)


#: The process-wide tracer consulted by every instrumented call site.
TRACE = Tracer()


def enable() -> Tracer:
    """Turn span recording on (module-level convenience)."""
    return TRACE.enable()
