"""Wait-free gradient exchange: overlap, fusion buckets, compression.

The trainer's per-layer weight-gradient all-reduces are the last serial
communication on the training critical path: each one is small (``f_in x
f_out``), latency-dominated, and until now issued *blocking* between the
weight-gradient GEMMs of layer ``l`` and the input-gradient SpMM of layer
``l-1``.  This module decouples them, DeAR-style:

* **Wait-free overlap** (``overlap=True``) — :meth:`GradExchangeSession.post`
  issues the reduction with ``iallreduce`` the moment a layer's gradient
  contribution is ready and returns immediately; the handles drain in
  ``apply_gradients``.  Under the simulator the deferred time charge makes
  an overlapped window cost ``max(comm, compute)``; posting and draining
  immediately reproduces the blocking clocks exactly.
* **Tensor-fusion buckets** (``bucket_bytes > 0``) — consecutive small
  per-layer gradients are packed into one flat fused buffer before
  reduction, amortising the per-message cost.  The element-wise
  :func:`~repro.comm.base.reduce_stack` reduction is oblivious to buffer
  layout, so fusion is bit-identical to per-layer reduction.
  :func:`default_bucket_bytes` sizes buckets from the calibrated
  per-message overhead of the active backend (``repro calibrate``), or
  from the machine model's alpha/beta for the simulator.
* **Compressed exchange** (``grad_dtype``) — gradients are cast down for
  the wire (``float32`` / ``float16`` natively; ``bfloat16`` via a uint16
  view, since NumPy has no native bf16) and applied to the full-precision
  master weights.  Native float wires ride ``(i)allreduce`` unchanged;
  the bf16 wire cannot (summing uint16 views is garbage), so it runs a
  two-phase reduce: quantised payloads travel to a root with
  ``(i)exchange``, are decoded and summed in float32 in deterministic
  rank order, re-encoded, and broadcast back — every rank receives the
  same bf16-rounded result on every backend.

In *transparent* mode — no overlap, no fusion, wire dtype equal to the
model dtype — the session issues exactly one blocking ``allreduce`` per
posted layer under the legacy ``"allreduce"`` category: byte-identical
events, clocks and results to the pre-gradsync trainer.  Every other mode
accounts its traffic under the ``"gradsync"`` category so the win shows
up in the per-epoch breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm.base import CommHandle, Communicator, reduce_stack
from ..comm.machine import MachineModel, get_machine
from ..obs.tracer import TRACE

__all__ = [
    "GRAD_DTYPES",
    "DeferredScalar",
    "GradExchangeSession",
    "GradientExchanger",
    "PendingGradients",
    "bucket_bytes_for_overhead",
    "decode_bfloat16",
    "default_bucket_bytes",
    "encode_bfloat16",
]

#: Wire precisions accepted for ``grad_dtype`` (``None`` = model dtype).
GRAD_DTYPES = ("float32", "float16", "bfloat16")

#: Conservative host-memory bandwidth used to turn a calibrated
#: per-message overhead (seconds) into an amortising bucket size (bytes):
#: fuse until moving the bucket costs at least as long as the per-message
#: overhead it amortises.
_AMORTIZE_BANDWIDTH_BYTES_S = 1.0e9

#: Fuse until the per-message cost is at most ~1/this of the transfer.
_AMORTIZE_FACTOR = 4.0

#: Upper bound on automatically chosen bucket sizes.  Oversized buckets
#: defeat overlap (one fused bucket flushed after the last layer has no
#: compute left to hide behind).
_MAX_AUTO_BUCKET_BYTES = 1 << 22

_BF16_NAN = np.uint16(0x7FC0)


# ----------------------------------------------------------------------
# bfloat16 wire codec (uint16 view; NumPy has no native bf16)
# ----------------------------------------------------------------------
def encode_bfloat16(arr: np.ndarray) -> np.ndarray:
    """Quantise a float array to bfloat16, returned as a ``uint16`` view.

    Round-to-nearest-even on the truncated 16 mantissa bits, matching the
    hardware bf16 conversion; NaNs map to a canonical quiet NaN.
    """
    f32 = np.ascontiguousarray(arr, dtype=np.float32)
    bits = f32.view(np.uint32)
    rounded = bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))
    out = (rounded >> np.uint32(16)).astype(np.uint16)
    nan = np.isnan(f32)
    if nan.any():
        out[nan] = _BF16_NAN
    return out.reshape(arr.shape)


def decode_bfloat16(bits: np.ndarray, dtype=np.float32) -> np.ndarray:
    """Expand a ``uint16`` bfloat16 view back to a float array."""
    if bits.dtype != np.uint16:
        raise ValueError(f"bfloat16 wire buffers are uint16, got {bits.dtype}")
    u32 = np.ascontiguousarray(bits, dtype=np.uint32) << np.uint32(16)
    return u32.view(np.float32).reshape(bits.shape).astype(dtype, copy=False)


# ----------------------------------------------------------------------
# Bucket sizing from calibration / machine model
# ----------------------------------------------------------------------
def bucket_bytes_for_overhead(overhead_s: float) -> int:
    """Bucket size amortising a measured per-message overhead: fuse until
    the bucket's own transfer time dwarfs the per-message cost."""
    if overhead_s <= 0.0:
        return 0
    nbytes = overhead_s * _AMORTIZE_BANDWIDTH_BYTES_S * _AMORTIZE_FACTOR
    return int(min(nbytes, _MAX_AUTO_BUCKET_BYTES))


def default_bucket_bytes(backend: str, machine: "str | MachineModel",
                         nranks: int) -> int:
    """Fusion bucket size for ``nranks`` ranks of ``backend`` on
    ``machine``: the one rule the trainer runs and the planner prices.

    Real backends use the effective per-message overhead table (shipped
    defaults overlaid with this host's ``repro calibrate`` data): fuse
    until the per-message cost is amortised against the bucket's own
    transfer time.  The simulator has no host overhead (it is pinned to
    zero in the table), so its buckets come from the machine model
    instead: the payload size at which the alpha (latency) term of the
    modelled ring all-reduce equals the beta (bandwidth) term.
    """
    # Imported lazily: repro.plan depends on repro.core, not vice versa.
    from ..plan.score import effective_message_overheads

    overhead_s = effective_message_overheads().get(backend, 0.0)
    if overhead_s > 0.0:
        return bucket_bytes_for_overhead(overhead_s)
    p = int(nranks)
    if p <= 1:
        return 0
    alpha, beta = get_machine(machine).worst_link(p)
    if beta <= 0.0:
        return 0
    # 2 log2(p) alpha = 2 nbytes beta (p-1)/p  =>  the crossover payload.
    crossover = math.log2(max(2, p)) * alpha * p / (beta * (p - 1))
    return int(min(crossover * _AMORTIZE_FACTOR, _MAX_AUTO_BUCKET_BYTES))


def _resolve_wire_dtype(grad_dtype: Optional[str],
                        model_dtype: np.dtype) -> Tuple[np.dtype, bool]:
    """The physical wire dtype and whether it is the bf16 uint16 view."""
    if grad_dtype is None:
        return np.dtype(model_dtype), False
    if grad_dtype == "bfloat16":
        return np.dtype(np.uint16), True
    if grad_dtype in ("float64", "float32", "float16"):
        return np.dtype(grad_dtype), False
    raise ValueError(
        f"grad_dtype must be one of {GRAD_DTYPES} (or None for the model "
        f"dtype), got {grad_dtype!r}")


class DeferredScalar:
    """A scalar riding a nonblocking all-reduce; resolved on :meth:`value`."""

    def __init__(self, handle: CommHandle, divisor: float) -> None:
        self._handle = handle
        self._divisor = float(divisor)

    def value(self) -> float:
        reduced = self._handle.wait()
        return float(reduced[0][0]) / self._divisor

    def __float__(self) -> float:
        return self.value()


@dataclass
class _Slot:
    """One posted gradient's place inside a fused bucket."""

    index: int
    shape: Tuple[int, ...]
    offset: int
    size: int


@dataclass
class _Bucket:
    """A fused flat buffer with its in-flight reduction state."""

    slots: List[_Slot] = field(default_factory=list)
    size: int = 0                      # elements
    contribs: List[List[np.ndarray]] = field(default_factory=list)
    handle: Optional[CommHandle] = None
    result: Optional[np.ndarray] = None   # reduced flat buffer (wire layout)
    bf16_wires: Optional[List[np.ndarray]] = None

    @property
    def nbytes_wire(self) -> int:
        return self.size * self._wire_itemsize

    _wire_itemsize: int = 8


class GradExchangeSession:
    """Per-backward-pass state of one gradient exchange.

    :meth:`post` once per layer (any order), :meth:`close` after the last
    post, then :meth:`drain` (usually via :class:`PendingGradients` from
    ``apply_gradients``) to collect the reduced gradients, cast back to
    the master dtype, indexed as posted.
    """

    def __init__(self, exchanger: "GradientExchanger", n_items: int) -> None:
        self._x = exchanger
        self.n_items = int(n_items)
        self._open = _Bucket(_wire_itemsize=exchanger.wire_dtype.itemsize)
        self._issued: List[_Bucket] = []
        self._results: Optional[List[np.ndarray]] = None
        self._posted = 0
        self._closed = False

    # -- posting -------------------------------------------------------
    def post(self, index: int, contributions: Sequence[np.ndarray]) -> None:
        """Enqueue per-rank contributions of gradient ``index`` for
        reduction; flushes the open bucket when it crosses the fusion
        threshold (always, when fusion is off)."""
        if self._closed:
            raise RuntimeError("session already closed")
        if not 0 <= index < self.n_items:
            raise ValueError(f"gradient index {index} out of range")
        shape = contributions[0].shape
        size = int(np.prod(shape)) if shape else 1
        bucket = self._open
        bucket.slots.append(_Slot(index=index, shape=tuple(shape),
                                  offset=bucket.size, size=size))
        bucket.contribs.append([np.asarray(c) for c in contributions])
        bucket.size += size
        self._posted += 1
        if bucket.nbytes_wire >= self._x.bucket_bytes:
            self._flush()

    def _flush(self) -> None:
        bucket = self._open
        if not bucket.slots:
            return
        self._open = _Bucket(_wire_itemsize=self._x.wire_dtype.itemsize)
        self._x._issue(bucket)
        self._issued.append(bucket)

    def close(self) -> None:
        """Flush the trailing (partially filled) bucket."""
        if not self._closed:
            self._flush()
            self._closed = True

    # -- draining ------------------------------------------------------
    def drain(self) -> List[np.ndarray]:
        """Wait for every in-flight bucket and unpack the gradients."""
        if self._results is not None:
            return self._results
        self.close()
        if self._posted != self.n_items:
            raise RuntimeError(
                f"session posted {self._posted} of {self.n_items} gradients")
        t0 = self._x.comm.elapsed()
        by_index: Dict[int, np.ndarray] = {}
        with TRACE.span("gradsync.drain", cat="gradsync",
                        args={"buckets": len(self._issued)}):
            for bucket in self._issued:
                flat = self._x._finish(bucket)
                for slot in bucket.slots:
                    part = flat[slot.offset:slot.offset + slot.size]
                    by_index[slot.index] = part.reshape(slot.shape)
        self._x.stats["drain_wait_s"] += self._x.comm.elapsed() - t0
        self._results = [by_index[i] for i in range(self.n_items)]
        return self._results


class PendingGradients(Sequence):
    """Sequence view over a session's gradients; drains lazily on access.

    ``backward()`` returns this so callers that index or iterate the
    gradients keep working unchanged, while ``apply_gradients`` drains
    explicitly — the wait-free window spans everything in between.
    """

    def __init__(self, session: GradExchangeSession) -> None:
        self._session = session

    def wait(self) -> List[np.ndarray]:
        """Drain the exchange (idempotent) and return the gradients."""
        return self._session.drain()

    def __len__(self) -> int:
        return self._session.n_items

    def __getitem__(self, index):
        return self.wait()[index]

    def __iter__(self):
        return iter(self.wait())


class GradientExchanger:
    """Policy + accounting for a model's weight-gradient reductions.

    Parameters
    ----------
    comm:
        The model's communicator (any backend).
    model_dtype:
        Master-weight precision; reduced gradients are returned in it.
    grad_dtype:
        Wire precision (``None`` = master dtype; see :data:`GRAD_DTYPES`).
    overlap:
        Post reductions nonblocking and drain in ``apply_gradients``.
    bucket_bytes:
        Fusion threshold in wire bytes (0 = one reduction per gradient).
    """

    def __init__(self, comm: Communicator, model_dtype,
                 grad_dtype: Optional[str] = None,
                 overlap: bool = False,
                 bucket_bytes: int = 0) -> None:
        self.comm = comm
        self.model_dtype = np.dtype(model_dtype)
        self.grad_dtype = grad_dtype
        self.wire_dtype, self.is_bfloat16 = _resolve_wire_dtype(
            grad_dtype, self.model_dtype)
        self.overlap = bool(overlap)
        self.bucket_bytes = int(bucket_bytes)
        if self.bucket_bytes < 0:
            raise ValueError("bucket_bytes must be non-negative")
        #: Transparent mode reproduces the pre-gradsync trainer exactly:
        #: blocking per-gradient reduces in the model dtype under the
        #: legacy "allreduce" category.
        self.transparent = (not self.overlap and self.bucket_bytes == 0
                            and not self.is_bfloat16
                            and self.wire_dtype == self.model_dtype)
        self.category = "allreduce" if self.transparent else "gradsync"
        self.stats: Dict[str, float] = {
            "posts": 0.0, "buckets": 0.0, "wire_bytes": 0.0,
            "drain_wait_s": 0.0,
        }

    # -- session lifecycle ---------------------------------------------
    def open(self, n_items: int) -> GradExchangeSession:
        return GradExchangeSession(self, n_items)

    # -- wire packing --------------------------------------------------
    def _pack_dtype(self) -> np.dtype:
        # bf16 packs in float32 and quantises the whole flat buffer at
        # issue time (identical to quantising each gradient separately).
        return np.dtype(np.float32) if self.is_bfloat16 else self.wire_dtype

    def _pack(self, bucket: _Bucket) -> List[np.ndarray]:
        pack_dtype = self._pack_dtype()
        nranks = self.comm.nranks
        flats = [np.empty(bucket.size, dtype=pack_dtype)
                 for _ in range(nranks)]
        for slot, contribs in zip(bucket.slots, bucket.contribs):
            sl = slice(slot.offset, slot.offset + slot.size)
            for r in range(nranks):
                flats[r][sl] = contribs[r].ravel()
        return flats

    # -- issue / finish ------------------------------------------------
    def _issue(self, bucket: _Bucket) -> None:
        flats = self._pack(bucket)
        bucket.contribs = []           # packed; release the originals
        self.stats["posts"] += len(bucket.slots)
        self.stats["buckets"] += 1
        self.stats["wire_bytes"] += bucket.size * self.wire_dtype.itemsize
        tr = TRACE
        if not tr.enabled:
            return self._issue_bucket(bucket, flats)
        with tr.span("gradsync.post", cat="gradsync",
                     args={"slots": len(bucket.slots),
                           "wire_bytes": bucket.size
                           * self.wire_dtype.itemsize}):
            self._issue_bucket(bucket, flats)

    def _issue_bucket(self, bucket: _Bucket, flats: List[np.ndarray]) -> None:
        if self.is_bfloat16:
            self._issue_bf16(bucket, flats)
        elif self.overlap:
            bucket.handle = self.comm.iallreduce(flats,
                                                 category=self.category)
        else:
            bucket.result = self.comm.allreduce(flats,
                                                category=self.category)[0]

    def _issue_bf16(self, bucket: _Bucket, flats: List[np.ndarray]) -> None:
        # Phase 1 of the two-phase compressed reduce: every rank's
        # quantised wire buffer travels to the root.  The uint16 view
        # cannot ride (i)allreduce — summing raw bit patterns is garbage
        # — so the reduction itself happens driver-side at drain.
        wires = [encode_bfloat16(f) for f in flats]
        bucket.bf16_wires = wires
        group = list(range(self.comm.nranks))
        messages = [(r, 0, wires[r]) for r in group[1:]]
        if not messages:
            bucket.result = wires[0]
            return
        if self.overlap:
            bucket.handle = self.comm.iexchange(messages,
                                                category=self.category,
                                                sync_ranks=group)
        else:
            self.comm.exchange(messages, category=self.category,
                               sync_ranks=group)

    def _finish(self, bucket: _Bucket) -> np.ndarray:
        """Complete a bucket's reduction; returns the reduced gradient
        flat buffer in the *master* dtype."""
        if self.is_bfloat16:
            return self._finish_bf16(bucket)
        if bucket.handle is not None:
            bucket.result = bucket.handle.wait()[0]
            bucket.handle = None
        flat = bucket.result
        if flat.dtype != self.model_dtype:
            flat = flat.astype(self.model_dtype)
        return flat

    def _finish_bf16(self, bucket: _Bucket) -> np.ndarray:
        wires = bucket.bf16_wires
        if bucket.handle is not None:
            bucket.handle.wait()
            bucket.handle = None
        if bucket.result is None:
            # Decode every rank's quantised contribution and sum in
            # float32 in rank order — the same deterministic group order
            # reduce_stack uses — then re-quantise for the wire.
            decoded = [decode_bfloat16(w) for w in wires]
            reduced = reduce_stack(decoded, "sum")
            wire_sum = encode_bfloat16(reduced)
            # Phase 2: the bf16-rounded result returns to every rank.
            self.comm.broadcast(wire_sum, root=0, category=self.category)
            self.stats["wire_bytes"] += wire_sum.nbytes
            bucket.result = wire_sum
        bucket.bf16_wires = None
        return decode_bfloat16(bucket.result, dtype=self.model_dtype)

    # -- scalar loss ---------------------------------------------------
    def reduce_scalar(self, contributions: Sequence[np.ndarray],
                      divisor: float):
        """The training-loss reduction, riding the same nonblocking path.

        Blocking (legacy ``"allreduce"`` category, identical to the
        pre-gradsync trainer) when overlap is off; with overlap on, the
        tiny all-reduce is posted here and resolves when the returned
        :class:`DeferredScalar` is read — after the backward pass, so the
        loss reduction hides behind the first backward SpMM.
        """
        if not self.overlap:
            reduced = self.comm.allreduce(list(contributions),
                                          category="allreduce")
            return float(reduced[0][0]) / float(divisor)
        handle = self.comm.iallreduce(list(contributions),
                                      category=self.category)
        return DeferredScalar(handle, divisor)

    # -- reporting -----------------------------------------------------
    def summary(self, n_epochs: int = 1) -> Dict[str, object]:
        n = max(1, int(n_epochs))
        return {
            "overlap": self.overlap,
            "wire_dtype": self.grad_dtype or str(self.model_dtype),
            "bucket_bytes": self.bucket_bytes,
            "posts_per_epoch": self.stats["posts"] / n,
            "buckets_per_epoch": self.stats["buckets"] / n,
            "wire_MB_per_epoch": self.stats["wire_bytes"] / n / 1e6,
            "drain_wait_s_per_epoch": self.stats["drain_wait_s"] / n,
        }
