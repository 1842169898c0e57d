"""Outside tracing: timing wrappers installed on live objects.

The traced pass never touches ``src/`` and leaves ``repro.obs`` tracing
off.  It shadows the public methods of the objects the benchmark holds
(a model, its communicator, a serving engine) with instance attributes
that record one span per call — name, start, end, the span that was open
on the same thread when it started, and the operation (epoch or served
batch) it belongs to.  Spans stay in memory until :meth:`Tracer.dump`.

A span's *self time* is its duration minus the durations of its direct
children; every layer call here is synchronous on its thread, so children
never overlap each other.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from time import perf_counter

#: Blocking collectives, nonblocking posts, and what the model exposes.
COLLECTIVES = ("alltoallv", "broadcast", "allreduce", "reduce", "allgather",
               "exchange")
POSTS = ("ialltoallv", "ibroadcast", "iallreduce", "iexchange")
GCN_PHASES = {"forward": "gcn.forward",
              "loss_and_logits_grad": "gcn.loss",
              "backward": "gcn.backward",
              "apply_gradients": "gcn.optimizer"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "thread", "width",
                 "index")

    def __init__(self, name, start, parent, op, thread, width, index):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = thread
        self.width = width
        self.index = index

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Span store plus the install/uninstall bookkeeping."""

    def __init__(self) -> None:
        self.spans: list = []
        self._local = threading.local()
        self._lock = threading.Lock()       # client + serving thread record
        self._installed: list = []          # (object, attribute)
        #: Operation id stamped on root spans (children inherit their
        #: parent's): a value, or a callable ``(span name) -> id``.
        self.op = None
        #: Last operand the model multiplied at each width (for replay).
        self.operands: dict = {}

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, width=None) -> Span:
        stack = self._stack()
        if stack:
            parent, op = stack[-1].index, stack[-1].op
        else:
            parent = None
            op = self.op(name) if callable(self.op) else self.op
        with self._lock:
            span = Span(name, perf_counter(), parent, op,
                        threading.get_ident(), width, len(self.spans))
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    # -- wrappers ------------------------------------------------------
    def wrap(self, obj, attr: str, name, on_result=None):
        """Shadow ``obj.attr`` with a recording wrapper.

        ``name`` is a string or a callable ``(parent_span) -> str``;
        ``on_result(result)`` may replace the returned value (used to
        instrument returned handles / compiled operators).
        """
        inner = getattr(obj, attr)

        def wrapper(*args, **kwargs):
            label = name(self.current()) if callable(name) else name
            span = self.begin(label)
            try:
                result = inner(*args, **kwargs)
            finally:
                self.end(span)
            return on_result(result) if on_result else result

        setattr(obj, attr, wrapper)
        self._installed.append((obj, attr))

    def _wrap_handle(self, handle):
        """Record ``CommHandle.wait`` of a handle a post returned."""
        if hasattr(handle, "wait"):
            inner = handle.wait

            def wait():
                if handle.done:
                    return inner()
                span = self.begin("comm.wait")
                try:
                    return inner()
                finally:
                    self.end(span)

            handle.wait = wait
        return handle

    def install_comm(self, comm) -> None:
        for op in COLLECTIVES:
            self.wrap(comm, op, "comm." + op)
        for op in POSTS:
            self.wrap(comm, op, "comm." + op + ".post",
                      on_result=self._wrap_handle)
        # The process backend runs every rank's local closure through
        # parallel_for; whose work it is depends on who called it.
        self.wrap(comm, "parallel_for",
                  lambda parent: "spmm.compute"
                  if parent is not None and parent.name == "spmm"
                  else "gcn.dense")

    def install_model(self, model) -> None:
        for attr, name in GCN_PHASES.items():
            self.wrap(model, attr, name)

        def traced_spmm(inner):
            def run(dense):
                self.operands[dense.width] = dense
                span = self.begin("spmm", dense.width)
                try:
                    return inner(dense)
                finally:
                    self.end(span)
            return run

        # Training multiplies through model.spmm, inference through the
        # operator model.compiled_op hands out.
        self._installed.append((model, "spmm"))
        model.spmm = traced_spmm(model.spmm)
        self.wrap(model, "compiled_op", "spmm.lookup", on_result=traced_spmm)

    def install_engine(self, engine) -> None:
        self.wrap(engine, "submit", "serve.submit")

    def uninstall(self) -> None:
        for obj, attr in reversed(self._installed):
            delattr(obj, attr)
        self._installed.clear()

    # -- analysis ------------------------------------------------------
    def children_ms(self) -> dict:
        """``span index -> summed duration of its direct children``."""
        covered = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.ms
        return covered

    def by_op(self) -> dict:
        """``op id -> spans`` (spans outside any operation are dropped)."""
        groups = defaultdict(list)
        for span in self.spans:
            if span.op is not None:
                groups[span.op].append(span)
        return groups

    def dump(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [{"name": s.name, "start_ms": (s.start - t0) * 1e3,
                 "end_ms": (s.end - t0) * 1e3, "parent": s.parent,
                 "op": s.op, "thread": s.thread, "width": s.width}
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)
