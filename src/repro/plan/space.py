"""Plan-space enumeration for the autotuning planner.

A *plan candidate* is one fully concrete schedule for distributed
training: an SpMM variant from the engine registry, a partitioner from
the partitioner registry, a 1.5D replication factor, a rank count, a
pipeline depth and a gradient-exchange mode.  The communicator backend
that executes the schedule is not an axis: the planner prices the one it
is given (:class:`~repro.plan.planner.Planner`).  :func:`enumerate_candidates` produces the cross
product of those axes, pruned to configurations the trainer can actually
execute (grid divisibility, block rows <= vertices), in a deterministic
order so pricing and caching are reproducible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.config import ALGORITHMS, Algorithm
from ..core.config import scheme_label as _scheme_label
from ..core.engine import available_spmm_variants, mode_name
from ..core.spmm_15d import ProcessGrid
from ..partition import PARTITIONERS

__all__ = [
    "DEFAULT_GRAD_OVERLAPS",
    "DEFAULT_PARTITIONERS",
    "DEFAULT_PIPELINE_DEPTHS",
    "DEFAULT_REPLICATION_CANDIDATES",
    "PlanCandidate",
    "enumerate_candidates",
    "valid_replication_factors",
]

#: Partitioners the planner considers by default.  ``None`` is the natural
#: block distribution (no reordering); the multilevel pair are the paper's
#: METIS / Graph-VB stand-ins.  The full registry is allowed, this is just
#: a sane default plan-space size.
DEFAULT_PARTITIONERS: Tuple[Optional[str], ...] = (None, "metis_like", "gvb")

#: 1.5D replication factors tried by default (Figure 7 uses c in {2, 4}).
DEFAULT_REPLICATION_CANDIDATES: Tuple[int, ...] = (2, 4, 8)

#: Pipeline depths tried by default.  The single-entry default keeps the
#: enumerated plan space identical to the pre-overlap planner (every
#: candidate synchronous); pass ``pipeline_depths=(1, 2)`` to let the
#: planner weigh the double-buffered compiled schedules against the
#: synchronous ones.  Note that cached plan *keys* still roll over once
#: on upgrade — the depth axis joins the space signature, so pre-overlap
#: cache records are re-planned (never silently served for a space they
#: did not describe).
DEFAULT_PIPELINE_DEPTHS: Tuple[int, ...] = (1,)

#: Gradient-exchange overlap settings tried by default.  Single-entry for
#: the same reason as the pipeline depths: the default plan space stays
#: identical to the synchronous planner; pass ``grad_overlaps=(False,
#: True)`` (``repro tune --grad-overlap``) to let the planner weigh the
#: wait-free backward pass against the synchronous one.
DEFAULT_GRAD_OVERLAPS: Tuple[bool, ...] = (False,)


@dataclass(frozen=True)
class PlanCandidate:
    """One point of the plan space: a runnable training configuration."""

    algorithm: str
    sparsity_aware: bool
    partitioner: Optional[str]
    replication_factor: int
    n_ranks: int
    pipeline_depth: int = 1
    grad_overlap: bool = False

    @property
    def mode(self) -> str:
        return mode_name(self.sparsity_aware)

    @property
    def n_block_rows(self) -> int:
        """Block rows of the data distribution (P for 1D, P/c for 1.5D)."""
        if self.algorithm == Algorithm.ONE_POINT_FIVE_D:
            return self.n_ranks // self.replication_factor
        return self.n_ranks

    @property
    def scheme_label(self) -> str:
        """The paper-style scheme label (CAGNET / SA / SA+<PART>)."""
        return _scheme_label(self.sparsity_aware, self.partitioner)

    def sort_key(self) -> Tuple:
        """Deterministic tie-break order (stable across runs)."""
        return (self.algorithm, self.mode, self.partitioner or "",
                self.replication_factor, self.n_ranks,
                self.pipeline_depth, self.grad_overlap)

    def as_config_kwargs(self) -> Dict[str, object]:
        """The plan point as :class:`~repro.core.config.DistTrainConfig`
        keyword arguments (an :class:`~repro.plan.planner.ExecutionPlan`'s
        backend and prices are not among them: the config chose the
        backend)."""
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(PlanCandidate)}

    def as_dict(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "mode": self.mode,
            "scheme": self.scheme_label,
            "partitioner": self.partitioner,
            "c": self.replication_factor,
            "p": self.n_ranks,
            "depth": self.pipeline_depth,
            "grad_overlap": self.grad_overlap,
        }


def valid_replication_factors(n_ranks: int,
                              candidates: Sequence[int]
                              = DEFAULT_REPLICATION_CANDIDATES) -> List[int]:
    """Replication factors among ``candidates`` that form a 1.5D grid
    (:meth:`~repro.core.spmm_15d.ProcessGrid.fits`) for ``n_ranks`` ranks.  The
    defaults start at ``c = 2`` because ``c = 1`` degenerates to the 1D
    layout (which the planner enumerates separately)."""
    return [c for c in sorted(set(candidates)) if ProcessGrid.fits(n_ranks, c)]


def _trainable_variants(algorithms: Sequence[str],
                        modes: Optional[Sequence[str]]) -> List[Tuple[str, str]]:
    """(algorithm, mode) pairs from the engine registry the trainer can run."""
    allowed = set(algorithms)
    unknown = allowed - set(ALGORITHMS)
    if unknown:
        raise ValueError(
            f"planner cannot train algorithms {sorted(unknown)}; "
            f"trainable families: {ALGORITHMS}")
    allowed_modes = None if modes is None else set(modes)
    return [(alg, mode) for alg, mode in available_spmm_variants()
            if alg in allowed
            and (allowed_modes is None or mode in allowed_modes)]


def enumerate_candidates(n_ranks: "int | Sequence[int]",
                         partitioners: Optional[Sequence[Optional[str]]] = None,
                         algorithms: Optional[Sequence[str]] = None,
                         modes: Optional[Sequence[str]] = None,
                         replication_candidates: Sequence[int]
                         = DEFAULT_REPLICATION_CANDIDATES,
                         n_vertices: Optional[int] = None,
                         pipeline_depths: Sequence[int]
                         = DEFAULT_PIPELINE_DEPTHS,
                         grad_overlaps: Sequence[bool]
                         = DEFAULT_GRAD_OVERLAPS
                         ) -> List[PlanCandidate]:
    """Enumerate the plan space in deterministic order.

    Parameters
    ----------
    n_ranks:
        One rank count or a sequence of candidate rank counts.
    partitioners:
        Partitioner registry names, ``None`` meaning the natural block
        distribution (default: :data:`DEFAULT_PARTITIONERS`).
    algorithms:
        Algorithm families to consider (default: every trainable family
        with a registered engine variant).
    modes:
        Sparsity modes to consider (``"oblivious"`` / ``"sparsity_aware"``;
        default: both).
    replication_candidates:
        1.5D replication factors to try; infeasible ones are pruned per
        rank count.
    n_vertices:
        When given, candidates needing more block rows than vertices are
        pruned (they could never be distributed).
    pipeline_depths:
        Compiled-execution pipeline depths to enumerate (default ``(1,)``
        — the synchronous schedule only, keeping the default space
        identical to the pre-overlap planner).  Depths above 1 are
        pruned for the sparsity-aware 1D variant, whose single un-staged
        all-to-allv has nothing to pipeline.
    grad_overlaps:
        Gradient-exchange overlap settings to enumerate (default
        ``(False,)`` — synchronous weight-gradient all-reduces only,
        keeping the default space unchanged).
    """
    rank_counts = [n_ranks] if isinstance(n_ranks, int) else list(n_ranks)
    if not rank_counts or any(p <= 0 for p in rank_counts):
        raise ValueError(f"rank counts must be positive, got {rank_counts}")

    partitioners = DEFAULT_PARTITIONERS if partitioners is None \
        else tuple(partitioners)
    unknown = {p for p in partitioners if p is not None} - set(PARTITIONERS)
    if unknown:
        raise ValueError(f"unknown partitioners {sorted(unknown)}; "
                         f"available: {sorted(PARTITIONERS)}")

    variants = _trainable_variants(ALGORITHMS if algorithms is None
                                   else algorithms, modes)

    depths = sorted(set(int(d) for d in pipeline_depths))
    if not depths or any(d < 1 for d in depths):
        raise ValueError(
            f"pipeline depths must be positive, got {list(pipeline_depths)}")

    overlaps = sorted(set(bool(g) for g in grad_overlaps))
    if not overlaps:
        raise ValueError("grad_overlaps must not be empty")

    out: List[PlanCandidate] = []
    for p in sorted(set(rank_counts)):
        for algorithm, mode in variants:
            if algorithm == Algorithm.ONE_POINT_FIVE_D:
                factors = valid_replication_factors(p, replication_candidates)
            else:
                factors = [1]
            for c in factors:
                nblocks = p // c if algorithm == Algorithm.ONE_POINT_FIVE_D \
                    else p
                if n_vertices is not None and nblocks > n_vertices:
                    continue
                for partitioner in partitioners:
                    for depth in depths:
                        if depth != depths[0] \
                                and algorithm == Algorithm.ONE_D \
                                and mode == "sparsity_aware":
                            # A single un-staged all-to-allv per call:
                            # identical execution at every depth, so only
                            # one (the smallest requested depth) is
                            # enumerated — the rest would be duplicates.
                            continue
                        for grad_overlap in overlaps:
                            out.append(PlanCandidate(
                                algorithm=algorithm,
                                sparsity_aware=(mode == "sparsity_aware"),
                                partitioner=partitioner,
                                replication_factor=c,
                                n_ranks=p,
                                pipeline_depth=depth,
                                grad_overlap=grad_overlap,
                            ))
    out.sort(key=PlanCandidate.sort_key)
    return out
