"""Distributed full-graph GCN training on the pluggable comm runtime.

:class:`DistributedGCN` performs exactly the arithmetic of the reference
model in :mod:`repro.gcn` with its SpMMs — one forward propagation and one
backward ``A G`` per layer, ``2L`` per epoch, or ``2L - 2`` at the narrow
side of each layer once the constant layer-0 product ``A X`` is cached
(``cache_input_propagation``, :meth:`DistributedGCN.backward`) —
replaced by the distributed 1D / 1.5D,
sparsity-oblivious / sparsity-aware algorithms of the paper, compiled by
:func:`repro.core.engine.compile` for any
:class:`~repro.comm.base.Communicator` backend (simulated or real).  Activations,
losses and weight updates are computed on the simulated ranks that own the
corresponding block rows, with weight gradients combined by a small
all-reduce (the lower-order term of the paper's analysis).

Because every rank applies the same (all-reduced) weight gradient to the
same (replicated, identically-initialised) weights, the distributed model
stays numerically equivalent to the single-process reference — the
integration tests assert this for every algorithm variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..comm.base import Communicator
from ..gcn.activations import get_activation
from ..obs.tracer import TRACE
from ..gcn.init import init_weights
from ..gcn.loss import softmax
from .config import Algorithm
from .costmodel import epoch_spmm_widths, inference_spmm_widths
from .dist_matrix import DistDenseMatrix, DistSparseMatrix
from .engine import CompiledSpmm, compile as compile_spmm
from .gradsync import DeferredScalar, GradientExchanger, PendingGradients
from .spmm_15d import ProcessGrid

__all__ = ["DistLayerCache", "DistributedGCN"]

#: Rows per layer-0 chunk of :meth:`DistributedGCN.global_logits`.  BLAS
#: may round a GEMM row differently at small row counts (chunks of 64
#: rows or fewer did not match the whole block row at ``K >= 500``; from
#: 256 rows on every ``K`` tested, 300–602, matched), so a chunk is never
#: smaller than this unless its block row is.
LOGITS_CHUNK_ROWS = 512


def _row_chunks(rows: int) -> List[Tuple[int, int]]:
    """``[lo, hi)`` chunks of ``rows`` rows, :data:`LOGITS_CHUNK_ROWS`
    each with the tail folded into the last: no chunk is smaller, and a
    shorter block row is one chunk."""
    count = max(1, rows // LOGITS_CHUNK_ROWS)
    bounds = [i * LOGITS_CHUNK_ROWS for i in range(count)] + [rows]
    return list(zip(bounds[:-1], bounds[1:]))


def _column_streams(matrix: DistDenseMatrix, width: int):
    """``(block, i) -> `` stream ``i``'s ``width`` columns of ``block``
    in a column-concatenated distributed matrix (a view)."""
    def stream_block(block: int, i: int) -> np.ndarray:
        return matrix.block(block)[:, i * width:(i + 1) * width]
    return stream_block


@dataclass
class DistLayerCache:
    """Distributed analogue of :class:`repro.gcn.layers.LayerCache`.

    ``propagated`` is the layer's ``A H`` in owned blocks when the
    narrow-side backward reads it (layer 0's kept ``A X`` and every
    widening layer, with ``cache_input_propagation``), else ``None``.
    ``h_in`` is ``None`` exactly when layer 0 reads the kept ``A X``:
    nothing reads ``X`` then.
    """

    h_in: Optional[DistDenseMatrix]
    z: DistDenseMatrix
    h_out: DistDenseMatrix
    propagated: Optional[DistDenseMatrix] = None


class DistributedGCN:
    """An L-layer GCN whose propagation runs on distributed SpMM.

    Parameters
    ----------
    adjacency_dist:
        The (already normalised, already permuted) adjacency distributed in
        block rows — ``P`` blocks for 1D, ``P/c`` blocks for 1.5D.
    features:
        Layer 0's input ``X``: one global ``(n, f_0)`` array at any
        dtype, held as given (a read-only view, never copied or
        written) and read only through :meth:`_read_input`; what is
        read is cast to ``dtype`` one column panel at a time.
    labels / train_mask:
        Global label vector and training mask, *in the permuted vertex
        order* (each rank only reads its own slice).
    layer_dims:
        ``[f_0, ..., f_L]`` layer widths.
    comm:
        Any :class:`~repro.comm.base.Communicator` backend (``P`` ranks)
        from :func:`repro.comm.make_communicator`.
    algorithm / sparsity_aware / grid:
        Which distributed SpMM variant to run.
    seed:
        Weight initialisation seed (must match the reference model's for
        equivalence checks).
    dtype:
        Training precision (``float64`` default; ``float32`` halves every
        exchanged payload and activation buffer).  Weights and the
        adjacency should share it — the trainer threads one config value
        through both; the features keep their storage dtype.
    pipeline_depth:
        Double-buffering depth of the model's compiled SpMM plan
        (``1`` = synchronous exchanges; ``> 1`` overlaps staged exchanges
        with local multiplies, bit-identically — see
        ``docs/performance.md``).
    grad_overlap / grad_bucket_bytes / grad_dtype:
        Gradient-exchange policy (see :mod:`repro.core.gradsync`):
        wait-free nonblocking weight-gradient reductions drained in
        :meth:`apply_gradients`, tensor-fusion bucket size in wire
        bytes, and the wire precision (``None`` = the model dtype;
        reduced gradients always apply to the full-precision master
        weights).  The defaults reproduce the synchronous trainer
        bit- and clock-identically.
    feature_order:
        ``None`` when ``features`` is in the adjacency's (permuted)
        vertex order; else model row ``i`` reads ``features[
        feature_order[i]]`` (``feature_order[new] = old``, what
        :meth:`~repro.graphs.features.NodeData.permuted` records), so a
        partitioned run reads the caller's array in the caller's order
        and no permuted copy of ``X`` exists.
    cache_input_propagation:
        Compute layer 0's ``A X`` once, in the first *training*
        :meth:`forward`, and reuse it every later epoch (see
        :meth:`input_propagation`), and run the backward at the narrow
        side of each layer (see :meth:`backward`): the per-epoch schedule
        drops to ``2L - 2`` SpMMs, each at most ``min(f_l, f_{l+1})``
        wide in the backward, with results that agree with the paper's
        schedule to rounding.  The reassociation uses ``A = A^T``, so the
        adjacency is checked for exact symmetry once, here, and a
        ``ValueError`` is raised if it is not.  Off by default here: the
        paper's figures count the paper's schedule; the trainer turns it
        on through ``DistTrainConfig.cache_input_propagation``.

    Every distributed SpMM the model issues runs through **one compiled
    operator** (:func:`repro.core.engine.compile`),
    compiled at construction time — i.e. once per training run or serving
    engine.  The plan is width-free: the training forward/backward SpMMs,
    the one-off ``A X`` panels and every serving batch width run on it,
    with no metadata work and in workspaces that grow to the widest
    operand seen and are reused by every narrower call.
    """

    def __init__(self,
                 adjacency_dist: DistSparseMatrix,
                 features: np.ndarray,
                 labels: np.ndarray,
                 train_mask: np.ndarray,
                 layer_dims: Sequence[int],
                 comm: Communicator,
                 algorithm: str = Algorithm.ONE_D,
                 sparsity_aware: bool = True,
                 grid: Optional[ProcessGrid] = None,
                 seed: int = 0,
                 dtype=np.float64,
                 pipeline_depth: int = 1,
                 grad_overlap: bool = False,
                 grad_bucket_bytes: int = 0,
                 grad_dtype: Optional[str] = None,
                 cache_input_propagation: bool = False,
                 feature_order: Optional[np.ndarray] = None) -> None:
        self.adjacency = adjacency_dist
        self.dtype = np.dtype(dtype)
        self.dist = adjacency_dist.dist
        self.labels = np.asarray(labels)
        self.train_mask = np.asarray(train_mask, dtype=bool)
        if self.labels.shape[0] != self.dist.n or \
                self.train_mask.shape[0] != self.dist.n:
            raise ValueError("labels / mask length does not match the graph")
        self.comm = comm
        self.algorithm = algorithm
        self.sparsity_aware = sparsity_aware
        self.grid = grid
        # One persistent SpMM plan for the (static) graph: packed gather
        # indices and exchange schedules, derived once; compiling checks
        # the algorithm, the grid and the block rows against the ranks.
        # It serves every width — the epoch schedule's, the A X panels',
        # and the serving path's coalesced micro-batches at ``streams *
        # f`` columns — and sizes its workspaces on first use.
        self.pipeline_depth = int(pipeline_depth)
        self._op = compile_spmm(adjacency_dist, comm, algorithm=algorithm,
                                sparsity_aware=sparsity_aware, grid=grid,
                                dtype=self.dtype,
                                pipeline_depth=self.pipeline_depth)
        #: Ranks holding (a replica of) each block row; the first, the
        #: block's lead, runs its dense work (:meth:`_blockwise`).
        self._owners = [[block] if grid is None else grid.row_group(block)
                        for block in range(self.dist.nblocks)]
        self._leads = [owners[0] for owners in self._owners]

        self.layer_dims = [int(d) for d in layer_dims]
        self.set_features(features, feature_order)
        # Weight matrices are fully replicated; we store one canonical copy
        # and charge the replicated compute to every rank that owns it.
        self.weights: List[np.ndarray] = [
            w.astype(self.dtype) for w in init_weights(self.layer_dims,
                                                       seed=seed)]
        self._activations = [
            get_activation("identity" if l == len(self.weights) - 1 else "relu")
            for l in range(len(self.weights))]

        self.cache_input_propagation = bool(cache_input_propagation)
        if self.cache_input_propagation:
            asymmetric = adjacency_dist.asymmetric_entries()
            if asymmetric:
                raise ValueError(
                    f"adjacency_dist is not exactly symmetric ({asymmetric} "
                    "entries differ from their transpose); "
                    "cache_input_propagation reassociates the backward "
                    "through A = A^T")
        # (stored features array, owned A X): keyed on the array's
        # identity, so set_features on a live model recomputes.
        self._input_propagation: Optional[
            Tuple[np.ndarray, DistDenseMatrix]] = None

        # Number of training vertices (global) — needed for the mean in the
        # loss; known to every process after setup.
        self.n_train = int(self.train_mask.sum())
        if self.n_train == 0:
            raise ValueError("the training mask selects no vertices")

        self.gradsync = GradientExchanger(comm, model_dtype=self.dtype,
                                          grad_dtype=grad_dtype,
                                          overlap=grad_overlap,
                                          bucket_bytes=grad_bucket_bytes)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def set_features(self, features: np.ndarray,
                     order: Optional[np.ndarray] = None) -> None:
        """Make ``features`` layer 0's input ``X``, in the caller's row
        order ``order`` (see the ``feature_order`` parameter).

        The array is held as a read-only view, not copied.  The
        model-dtype operand :attr:`features` built from the previous one
        is dropped, and :meth:`input_propagation` recomputes.
        """
        source = np.asarray(features).view()
        source.flags.writeable = False
        if source.ndim != 2 or source.shape[0] != self.dist.n:
            raise ValueError(
                f"features have shape {source.shape}, expected "
                f"({self.dist.n}, f_0) rows for the graph's vertices")
        if source.shape[1] != self.layer_dims[0]:
            raise ValueError(
                f"layer_dims[0] = {self.layer_dims[0]} does not match the "
                f"feature width {source.shape[1]}")
        if order is not None:
            order = np.asarray(order, dtype=np.intp)
            if order.shape != (self.dist.n,):
                raise ValueError(f"feature order has shape {order.shape}, "
                                 f"expected ({self.dist.n},)")
        self._source, self._order = source, order
        #: Each block row's rows of the stored array.
        self._block_rows = [self._source_rows(self._block_slice(block))
                            for block in range(self.dist.nblocks)]
        self._features: Optional[DistDenseMatrix] = None

    def _source_rows(self, rows):
        """The stored array's rows of model rows ``rows`` (a slice or an
        index array)."""
        return rows if self._order is None else self._order[rows]

    def _read_input(self, rows, lo: int, hi: int) -> np.ndarray:
        """Columns ``[lo, hi)`` of the stored array's rows ``rows`` (see
        :meth:`_source_rows`), at the storage dtype: the one read of
        layer 0's input.  A slice is a view and an index array a gather
        of just those rows; callers cast to the model dtype only what
        they multiply."""
        return self._source[rows, lo:hi]

    @property
    def features(self) -> DistDenseMatrix:
        """Layer 0's input ``X`` in the model's row order and dtype,
        built through :meth:`_read_input` on first access and kept:
        read-only views of the stored array when it needs neither a
        reorder nor a cast, else one copy.  Only the uncached training
        forward and callers that pass ``X`` on (the inference forward,
        the planner's primed ``A X``) read this: the cached ``A X`` and
        :meth:`global_logits` read the stored array directly and cast one
        column panel at a time.
        """
        if self._features is None:
            width = self.layer_dims[0]
            self._features = self._distributed(
                [self._read_input(rows, 0, width)
                 for rows in self._block_rows])
        return self._features

    def _input_panels(self) -> List[Tuple[int, int]]:
        """``[lo, hi)`` column panels of ``X``, each at most ``P`` wide,
        ``P`` the widest width the cached epoch schedule runs
        (``max(epoch_spmm_widths(layer_dims, True))``; ``f_0`` for a
        one-layer model, whose epoch runs no SpMM)."""
        width = self.layer_dims[0]
        panel = max(epoch_spmm_widths(self.layer_dims, True), default=width)
        return [(lo, min(lo + panel, width)) for lo in range(0, width, panel)]

    def _charge_blockwise_gemm(self, rows: int, f_in: int, f_out: int,
                               block: int) -> None:
        flops = 2.0 * rows * f_in * f_out
        for rank in self._owners[block]:
            self.comm.charge_gemm(rank, flops, category="local")

    def _charge_blockwise_elementwise(self, nelements: float, block: int) -> None:
        for rank in self._owners[block]:
            self.comm.charge_elementwise(rank, nelements, category="local")

    def _block_slice(self, block: int) -> slice:
        lo, hi = self.dist.block_range(block)
        return slice(lo, hi)

    def _distributed(self, blocks) -> DistDenseMatrix:
        """``blocks``, one per block row, as a matrix of the model dtype."""
        return DistDenseMatrix(blocks, self.dist, dtype=self.dtype)

    def _blockwise(self, step) -> list:
        """``[step(0), ..., step(nblocks - 1)]``: one ``parallel_for``
        whose task for block row ``b`` runs ``step(b)`` on ``b``'s lead
        owner rank.

        Under the simulator the steps run sequentially (time comes from
        the ``charge_*`` hooks inside them, attributed to every replica);
        real backends run the dense per-block math on the owning workers
        so its wall time lands on the timeline.
        """
        results = [None] * self.dist.nblocks

        def task(block: int) -> None:
            results[block] = step(block)

        self.comm.parallel_for(
            [partial(task, block) for block in range(self.dist.nblocks)],
            ranks=self._leads, category="local")
        return results

    def _lead_operands(self, parts) -> List[np.ndarray]:
        """Per-rank operands of an all-reduce of one part per block row:
        each block's lead owner contributes its part and every other
        rank zeros, so a replicated block counts once."""
        operands = [np.zeros_like(parts[0]) for _ in range(self.comm.nranks)]
        for lead, part in zip(self._leads, parts):
            operands[lead] = part
        return operands

    # ------------------------------------------------------------------
    # distributed SpMM dispatch
    # ------------------------------------------------------------------
    def spmm(self, dense: DistDenseMatrix) -> DistDenseMatrix:
        """``A^T @ dense`` with the configured distributed algorithm.

        Any width in the model dtype runs on the compiled plan
        (metadata-free hot path); another dtype raises ``ValueError``.
        The result is valid until the model's next SpMM of any width
        (the plan's lifetime rule).
        """
        return self._op(dense)

    def compiled_op(self, width: int) -> CompiledSpmm:
        """The model's compiled plan, which runs ``width`` like any
        other width.  This is the serving hot path: a micro-batch of ``k``
        coalesced requests propagates at ``k * f`` columns, and a width
        wider than any before only grows the plan's workspaces."""
        return self._op

    def plan_stats(self) -> dict:
        """Counters of the one compiled plan: calls that fit its
        workspaces (``plan_hits``) and calls that grew them
        (``plan_misses``)."""
        return {"plan_hits": self._op.calls - self._op.grows,
                "plan_misses": self._op.grows, "plans_retained": 1}

    def input_propagation(self) -> DistDenseMatrix:
        """Layer 0's ``A X`` for the model's own ``features``, computed
        through the distributed SpMM on first use and kept.

        The product is computed in column panels ``[c, c + P)`` of
        ``X`` (:meth:`_input_panels`), each read from the stored array
        by :meth:`_read_input` (gathered through the feature order, cast
        to the model dtype), so the plan's
        workspaces grow only to a width training needs anyway and no
        width-``f_0`` workspace, exchange arena or model-dtype ``X`` ever
        exists.  The tail
        panel (``f_0 mod P`` columns) is an ordinary narrower call on the
        same plan; with ``f_0 <= P`` the product is one SpMM.  CSR @ dense
        is column-separable, so the panels assemble the one-shot product
        bit for bit and move its exact bytes, at the price of
        ``ceil(f_0 / P)`` collectives' latency instead of one.

        The kept product owns its memory: a compiled operator's result
        aliases its output workspace, which the next SpMM overwrites, so
        each panel is copied out into ``(n_b x f_0)`` blocks as soon as it
        is computed.

        Keyed on the identity of the stored array: :meth:`set_features`
        recomputes, mutating the caller's array in place does not.
        ``A X`` does not depend on the weights, so
        :meth:`load_weight_state` leaves it alone.
        """
        source = self._source
        cached = self._input_propagation
        if cached is not None and cached[0] is source:
            return cached[1]
        owned = self._distributed(
            [np.empty((size, self.layer_dims[0]), dtype=self.dtype)
             for size in self.dist.block_sizes])
        for lo, hi in self._input_panels():
            product = self.spmm(self._distributed(
                [self._read_input(rows, lo, hi) for rows in self._block_rows]))
            for out, block in zip(owned.blocks, product.blocks):
                out[:, lo:hi] = block
        self._input_propagation = (source, owned)
        return owned

    def prime_input_propagation(self, product: DistDenseMatrix) -> None:
        """Keep ``product`` as layer 0's ``A X`` for the current
        ``features`` instead of computing it (:meth:`input_propagation`).

        The planner prices a cached-schedule epoch this way
        (:mod:`repro.plan.score`): the simulated clock of an epoch does
        not depend on the values it multiplies, so any operand of the
        product's shape prices the epoch the trainer runs after its real
        one-off.  ``product`` must share the model's distribution, input
        width and dtype; it is kept, not copied, and is only read.
        """
        if product.dist != self.dist or \
                product.width != self.layer_dims[0] or \
                product.dtype != self.dtype:
            raise ValueError("the primed A X must match the features' "
                             "distribution, width and dtype")
        self._input_propagation = (self._source, product)

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def forward(self, features=None, *, streams: int = 1):
        """Forward pass.

        With no arguments this is the **training** forward: propagate the
        model's own feature matrix and return the per-layer
        :class:`DistLayerCache` list the backward pass consumes.  With
        ``cache_input_propagation`` layer 0 reuses the kept ``A X``
        (:meth:`input_propagation`) instead of running its SpMM, and a
        widening layer (``f_l < f_{l+1}``) keeps an owned copy of its
        ``A H^l`` for the narrow-side backward; the inference-only forward
        below never reads or fills either.

        With ``features`` given this is the **inference-only** forward:
        propagate the supplied features and return just the logits
        (:class:`DistDenseMatrix`, blocks owned by the caller) — no
        ``z``/``h`` activation caches are built or retained.  ``features``
        is either

        * a :class:`DistDenseMatrix` of ``streams`` column-concatenated
          feature matrices of width ``f_0`` each, or
        * a sequence of ``k`` global ``(n, f_0)`` request matrices (the
          serving path; ``streams`` is then ``k``) — no ``n x k f_0``
          operand is ever built from them when layer 0 narrows.

        **Association order.**  Each layer moves only what its SpMM needs
        (:func:`~repro.core.costmodel.inference_spmm_widths`): a layer
        that narrows (``f_l < f_{l-1}``) computes ``A (H W)`` — the
        per-stream GEMM first, then one SpMM at ``streams * f_l`` columns
        — and every other layer keeps the training order ``(A H) W``.
        The choice depends on the weight's shape alone.  When no layer
        narrows the logits equal the training forward's bit for bit;
        when one does they agree with it to rounding (``rtol=1e-9,
        atol=1e-12`` in float64), not bitwise — the two orders sum the
        same products in a different order.

        **Batching.**  The SpMMs run once at the combined width on the
        model's compiled plan, while the per-layer GEMM applies
        the weight to each stream independently.  Because the distributed
        SpMM is column-separable (segment-sum reductions act per element
        along sparse rows, independently across columns) and each
        per-stream GEMM sees bitwise the same operand it would see alone,
        the split results are **bit-identical** to running each request
        through ``forward([request_i])`` sequentially — the serving tests
        assert this on every backend.
        """
        if features is not None:
            return self._forward_inference(features, streams=streams)
        if streams != 1:
            raise ValueError("streams > 1 requires an explicit features "
                             "operand (inference-only path)")
        # The cached layer 0 reads its kept A X, never X itself.
        h = None if self.cache_input_propagation else self.features
        caches: List[DistLayerCache] = []
        for l, weight in enumerate(self.weights):
            act, _ = self._activations[l]
            kept: Optional[DistDenseMatrix] = None
            if l == 0 and self.cache_input_propagation:
                propagated = kept = self.input_propagation()  # A X, kept
            else:
                propagated = self.spmm(h)                   # A H^l
            # A widening layer's backward reads its A H^l, which the
            # plan's next SpMM overwrites: keep an owned copy.
            widening = self.cache_input_propagation and l > 0 and \
                weight.shape[0] < weight.shape[1]

            def step(block):
                rows = self.dist.block_size(block)
                p_b = propagated.block(block)
                z_b = p_b @ weight                          # (A H) W
                self._charge_blockwise_gemm(rows, weight.shape[0],
                                            weight.shape[1], block)
                h_b = act(z_b)
                self._charge_blockwise_elementwise(z_b.size, block)
                return z_b, h_b, p_b.copy() if widening else None

            z, h_out, copies = zip(*self._blockwise(step))
            h_out = self._distributed(h_out)
            if widening:
                kept = self._distributed(copies)
            caches.append(DistLayerCache(h_in=h, z=self._distributed(z),
                                         h_out=h_out, propagated=kept))
            h = h_out
        return caches

    def _forward_inference(self, features, streams: int = 1
                           ) -> DistDenseMatrix:
        """Cache-free forward of ``streams`` feature matrices; returns the
        column-concatenated logits (width ``streams * f_L``) in blocks the
        caller owns.  See :meth:`forward`."""
        f0 = self.layer_dims[0]
        if isinstance(features, DistDenseMatrix):
            streams = int(streams)
            if streams < 1:
                raise ValueError(f"streams must be >= 1, got {streams}")
            if features.dist != self.dist:
                raise ValueError(
                    "features use a different distribution than the model")
            if features.width != streams * f0:
                raise ValueError(
                    f"features width {features.width} is not streams "
                    f"({streams}) x input width ({f0})")
            self._check_inference_dtype(features.dtype)
            h: Optional[DistDenseMatrix] = features
            stream_block = _column_streams(features, f0)
        else:
            requests = list(features)
            if streams not in (1, len(requests)):
                raise ValueError(
                    f"streams ({streams}) does not match the "
                    f"{len(requests)} request matrices given")
            streams = len(requests)
            if streams < 1:
                raise ValueError("no request matrices given")
            for request in requests:
                if request.shape != (self.dist.n, f0):
                    raise ValueError(
                        f"request features must have shape "
                        f"({self.dist.n}, {f0}), got {request.shape}")
                self._check_inference_dtype(request.dtype)
            h = None                    # assembled only if layer 0 needs it
            bounds = self.dist.bounds

            def stream_block(block: int, i: int) -> np.ndarray:
                return requests[i][bounds[block]:bounds[block + 1]]

        for weight, (act, _), width in zip(
                self.weights, self._activations,
                inference_spmm_widths(self.layer_dims)):
            f_in, f_out = weight.shape
            # One SpMM at the combined width amortises the exchange's
            # alpha term across every coalesced request.
            spmm = self.compiled_op(streams * width)
            if width < f_in:                                # A (H W)
                projected = self._per_stream_gemm(stream_block, streams,
                                                  weight)
                h = self._activate(spmm(projected), act)
            else:                                           # (A H) W
                if h is None:
                    h = self._assemble_streams(stream_block, streams)
                h = self._per_stream_gemm(
                    _column_streams(spmm(h), f_in), streams, weight, act)
            stream_block = _column_streams(h, f_out)
        return h

    def _check_inference_dtype(self, dtype) -> None:
        if dtype != self.dtype:
            raise ValueError(
                f"features dtype {dtype} does not match the model dtype "
                f"{self.dtype} — a cast would make the served logits depend "
                "on the caller's precision; cast explicitly")

    def _per_stream_gemm(self, stream_block, streams: int,
                         weight: np.ndarray, act=None) -> DistDenseMatrix:
        """``[H_1 W | ... | H_k W]`` (then ``act``, if given), one task
        per block row; ``stream_block(block, i)`` is stream ``i``'s
        ``f_in``-wide rows of ``block``.

        Each stream is multiplied by ``W`` on its own, so every stream
        sees exactly the operand it would see when served alone
        (bit-identity across batch compositions).
        """
        f_in, f_out = weight.shape

        def step(block):
            rows = self.dist.block_size(block)
            if streams == 1:
                z_b = stream_block(block, 0) @ weight
            else:
                z_b = np.empty((rows, streams * f_out), dtype=self.dtype)
                for i in range(streams):
                    z_b[:, i * f_out:(i + 1) * f_out] = \
                        stream_block(block, i) @ weight
            for _ in range(streams):
                self._charge_blockwise_gemm(rows, f_in, f_out, block)
            if act is not None:
                z_b = act(z_b)
                self._charge_blockwise_elementwise(z_b.size, block)
            return z_b

        return self._distributed(self._blockwise(step))

    def _activate(self, propagated: DistDenseMatrix, act) -> DistDenseMatrix:
        """``act`` of a compiled operator's result, in owned blocks.

        The result aliases the plan's output workspace, which the next
        SpMM overwrites; ``identity`` (the output layer)
        returns its argument, so anything still sharing that memory is
        copied out.
        """
        def step(block):
            p_b = propagated.block(block)
            h_b = act(p_b)
            if np.may_share_memory(h_b, p_b):
                h_b = h_b.copy()
            self._charge_blockwise_elementwise(p_b.size, block)
            return h_b

        return self._distributed(self._blockwise(step))

    def _assemble_streams(self, stream_block,
                          streams: int) -> DistDenseMatrix:
        """The column-concatenated SpMM operand of ``streams`` request
        matrices, built per block row in one copy (none for one stream:
        the plan only reads its operand)."""
        return self._distributed([
            stream_block(block, 0) if streams == 1 else np.concatenate(
                [stream_block(block, i) for i in range(streams)], axis=1)
            for block in range(self.dist.nblocks)])

    def loss_and_logits_grad(self, logits: DistDenseMatrix
                             ) -> tuple[float, DistDenseMatrix]:
        """Masked softmax cross-entropy, computed block-locally.

        The scalar loss is combined with a tiny all-reduce (a lower-order
        term, as the paper notes for the ``f x f`` reductions) through the
        gradient exchanger (:meth:`~repro.core.gradsync.GradientExchanger
        .reduce_scalar`): blocking without ``grad_overlap``; with it the
        reduction is posted nonblocking and the first element of the
        returned tuple is a :class:`~repro.core.gradsync.DeferredScalar`
        — it resolves after the backward pass, so the loss reduction
        hides behind the first backward SpMM.
        """
        def step(block):
            sl = self._block_slice(block)
            z = logits.block(block)
            labels = self.labels[sl]
            mask = self.train_mask[sl]
            probs = softmax(z)
            grad = probs.copy()
            idx = np.flatnonzero(mask)
            if idx.size:
                picked = probs[idx, labels[idx]]
                local = float(-np.log(np.clip(picked, 1e-12, None)).sum())
                grad[idx, labels[idx]] -= 1.0
            else:
                local = 0.0
            grad[~mask] = 0.0
            grad /= self.n_train
            self._charge_blockwise_elementwise(z.size * 2, block)
            return np.array([local]), grad

        losses, grads = zip(*self._blockwise(step))
        loss = self.gradsync.reduce_scalar(self._lead_operands(losses),
                                           self.n_train)
        return loss, self._distributed(grads)

    def backward(self, caches: List[DistLayerCache], grad_logits: DistDenseMatrix
                 ) -> PendingGradients:
        """Backward pass; returns the weight gradients as a
        :class:`~repro.core.gradsync.PendingGradients` sequence.

        The paper's schedule runs one SpMM per layer, ``S = A G^l`` at
        ``f_{l+1}`` columns, and forms ``dW^l = (H^l)^T S`` and ``dH^l =
        S (W^l)^T``.  A layer whose forward ``A H^l`` is kept (its cache's
        ``propagated``) runs at the narrow side instead, using ``A =
        A^T``: ``dW^l = (A H^l)^T G^l`` needs no SpMM, and ``dH^l = A (G^l
        (W^l)^T)`` propagates at ``f_l < f_{l+1}`` columns.  Layer 0 with
        the kept ``A X`` therefore runs no SpMM at all.  Both orders sum
        the same products differently, so they agree to rounding.

        Each layer's per-rank contributions are handed to the gradient
        exchanger the moment they are computed — with ``grad_overlap``
        the reduction is posted nonblocking and the input-gradient SpMM
        of the next (earlier) layer proceeds immediately; the handles
        drain in :meth:`apply_gradients` (or on first access to the
        returned sequence).  Without overlap the exchanger issues the
        same blocking per-layer all-reduce as always.
        """
        session = self.gradsync.open(self.n_layers)
        grad_z = grad_logits
        for l in range(self.n_layers - 1, -1, -1):
            weight = self.weights[l]
            f_in, f_out = weight.shape
            cache = caches[l]
            narrow = cache.propagated is not None
            if narrow:
                left, right = cache.propagated, grad_z      # (A H^l)^T G^l
            else:
                s = self.spmm(grad_z)                       # A G^l
                left, right = cache.h_in, s                 # (H^l)^T A G^l
            project = narrow and l > 0

            # Local weight-gradient contributions (and, at the narrow
            # side, the projection G^l (W^l)^T the next SpMM propagates).
            def contribute(block):
                rows = self.dist.block_size(block)
                contrib = left.block(block).T @ right.block(block)
                self._charge_blockwise_gemm(rows, f_in, f_out, block)
                if not project:
                    return contrib, None
                projected = right.block(block) @ weight.T
                self._charge_blockwise_gemm(rows, f_out, f_in, block)
                return contrib, projected

            contribs, projected = zip(*self._blockwise(contribute))
            # All-reduce of the f_in x f_out gradient (lower-order term),
            # via the gradient exchanger (wait-free when configured); each
            # contribution is sent as zeros + itself (a -0.0 goes as 0.0).
            session.post(l, self._lead_operands(
                [np.zeros_like(weight) + c for c in contribs]))

            if l > 0:
                _, act_grad = self._activations[l - 1]
                prev_z = caches[l - 1].z
                # A (G^l (W^l)^T) at the narrow side, else the A G^l above.
                spread = self.spmm(self._distributed(projected)) \
                    if project else s

                def input_grad(block):
                    g = spread.block(block)
                    if not project:                         # (A G^l) (W^l)^T
                        g = g @ weight.T
                        self._charge_blockwise_gemm(
                            self.dist.block_size(block), f_out, f_in, block)
                    gz = g * act_grad(prev_z.block(block))
                    self._charge_blockwise_elementwise(gz.size, block)
                    return gz

                grad_z = self._distributed(self._blockwise(input_grad))
        session.close()
        return PendingGradients(session)

    def apply_gradients(self, grads: Sequence[np.ndarray], lr: float) -> None:
        """SGD step on the replicated full-precision master weights
        (charged to every rank); drains any in-flight gradient exchange
        first — this is where the wait-free window ends."""
        if isinstance(grads, PendingGradients):
            grads = grads.wait()
        if len(grads) != self.n_layers:
            raise ValueError("gradient count does not match the layer count")
        for l, g in enumerate(grads):
            if g.shape != self.weights[l].shape:
                raise ValueError("gradient shape mismatch")
            self.weights[l] = self.weights[l] - lr * np.asarray(g, dtype=self.dtype)
            for rank in range(self.comm.nranks):
                self.comm.charge_elementwise(rank, g.size, category="local")

    # ------------------------------------------------------------------
    # checkpoint state (weights are replicated — every rank holds the
    # full set — so this state is rank-count independent and an elastic
    # restore at a different p is a plain load)
    # ------------------------------------------------------------------
    def weight_state(self) -> List[np.ndarray]:
        """Independent copies of the replicated weight matrices."""
        return [w.copy() for w in self.weights]

    def load_weight_state(self, weights: Sequence[np.ndarray]) -> None:
        """Restore weights from a checkpoint (exact, no dtype change)."""
        if len(weights) != self.n_layers:
            raise ValueError(
                f"checkpoint has {len(weights)} weight matrices, model has "
                f"{self.n_layers} layers")
        restored = []
        for l, w in enumerate(weights):
            arr = np.asarray(w)
            if arr.shape != self.weights[l].shape:
                raise ValueError(
                    f"checkpoint weight {l} has shape {arr.shape}, model "
                    f"expects {self.weights[l].shape}")
            if arr.dtype != self.dtype:
                raise ValueError(
                    f"checkpoint weight {l} has dtype {arr.dtype}, model "
                    f"trains in {np.dtype(self.dtype)} — a cast would break "
                    "bit-identical resume")
            restored.append(arr.copy())
        self.weights = restored

    # ------------------------------------------------------------------
    # training / evaluation entry points
    # ------------------------------------------------------------------
    def train_epoch(self, lr: float) -> float:
        """One full-graph training epoch; returns the training loss."""
        tr = TRACE
        with tr.span("forward", cat="train"):
            caches = self.forward()
        with tr.span("loss", cat="train"):
            loss, grad_logits = self.loss_and_logits_grad(caches[-1].h_out)
        with tr.span("backward", cat="train"):
            grads = self.backward(caches, grad_logits)
        with tr.span("optimizer", cat="train"):
            self.apply_gradients(grads, lr)
            if isinstance(loss, DeferredScalar):
                loss = loss.value()
        return loss

    def global_logits(self) -> np.ndarray:
        """Global logits, recomputed host-side with no simulated-time charges.

        This is a diagnostic utility — the paper's timed training loop never
        gathers activations, and neither does ours.  Each layer runs one
        adjacency block row at a time, so neither a stacked global
        adjacency nor a global ``n x f_0`` ``A X`` is ever built.  Layer
        0 runs each block row in row chunks (:func:`_row_chunks`): a
        chunk's CSR is compacted to the columns it touches (each row
        keeps its entry order), only those rows of ``X`` are gathered
        (:meth:`_read_input`, at the storage dtype), and the chunk
        multiplies them in the column panels of :meth:`input_propagation`,
        each cast to the model dtype as it is read, so neither a
        model-dtype ``X`` nor an ``n_b x f_0`` block is built.  The host
        CSR product is row- and column-separable, and every chunk's GEMM
        sees at least :data:`LOGITS_CHUNK_ROWS` rows (or its whole block
        row), so the result is the one-shot row-blocked product bit for
        bit (``tests/oracle.py::row_blocked_logits``).
        """
        panels = self._input_panels()
        h = None
        for weight, (act, _) in zip(self.weights, self._activations):
            out = []
            for rows in self.adjacency.block_rows:
                if h is None:                               # layer 0
                    out.extend(act(self._propagate_input(rows, lo, hi,
                                                         panels) @ weight)
                               for lo, hi in _row_chunks(rows.shape[0]))
                else:
                    out.append(act((rows @ h) @ weight))
            h = np.concatenate(out)
        return h

    def _propagate_input(self, rows, lo: int, hi: int,
                         panels: List[Tuple[int, int]]) -> np.ndarray:
        """Rows ``[lo, hi)`` of the CSR block row ``rows`` times ``X``,
        in the model dtype, one column panel at a time.  The touched
        rows are gathered once, at full width: one gather per panel
        re-reads every row ``f_0 / P`` times and took 1.85x the
        unchunked time on amazon 1.0's 1.5D blocks (1.32x this way)."""
        start, stop = rows.indptr[lo], rows.indptr[hi]
        cols, local = np.unique(self._source_rows(rows.indices[start:stop]),
                                return_inverse=True)
        chunk = sp.csr_matrix(
            (rows.data[start:stop], local, rows.indptr[lo:hi + 1] - start),
            shape=(hi - lo, cols.size))
        width = self.layer_dims[0]
        touched = self._read_input(cols, 0, width)
        propagated = np.empty((hi - lo, width), dtype=self.dtype)
        for a, b in panels:
            propagated[:, a:b] = chunk @ touched[:, a:b].astype(self.dtype)
        return propagated

    def predictions(self) -> np.ndarray:
        """Predicted class per vertex (permuted vertex order)."""
        return softmax(self.global_logits()).argmax(axis=1)
