"""Machine performance models for the simulated distributed runtime.

The paper evaluates on NERSC Perlmutter: 4 NVIDIA A100 GPUs per node,
NVLink (25 GB/s per link) between GPUs within a node, and HPE Slingshot-11
NICs (25 GB/s) between nodes, with one process pinned per GPU.

This module provides :class:`MachineModel`, an alpha-beta (latency /
reciprocal-bandwidth) description of such a machine, plus effective
compute rates used to charge local SpMM / GEMM time.  The simulator in
:mod:`repro.comm.simulator` consults the machine model for every message
and local kernel it executes, which is how per-epoch times and timing
breakdowns are produced without real GPUs.

All times are seconds, all sizes are bytes, all rates are per second.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

__all__ = ["MachineModel", "perlmutter", "perlmutter_scaled", "laptop",
           "PRESETS", "get_machine"]


@dataclass(frozen=True)
class MachineModel:
    """Alpha-beta model of a distributed (multi-GPU, multi-node) machine.

    Parameters
    ----------
    name:
        Human readable preset name.
    gpus_per_node:
        Number of processes (GPUs) hosted on one node.  Ranks ``r`` and
        ``s`` are *intra-node* peers when ``r // gpus_per_node ==
        s // gpus_per_node``.
    alpha_intra / alpha_inter:
        Per-message latency for intra-node (NVLink) and inter-node
        (NIC) transfers, in seconds.
    beta_intra / beta_inter:
        Reciprocal bandwidth (seconds per byte) for intra- and
        inter-node transfers.
    spmm_flop_rate:
        Effective sustained flop rate of the local sparse-times-dense
        multiply (cuSPARSE ``csrmm2`` in the paper).
    gemm_flop_rate:
        Effective sustained flop rate of local dense GEMM.
    elementwise_rate:
        Elements per second for cheap element-wise kernels
        (activations, Hadamard products).
    memory_bytes:
        Device memory available per rank; used to emulate the paper's
        out-of-memory data points.
    """

    name: str = "perlmutter"
    gpus_per_node: int = 4
    alpha_intra: float = 3.0e-6
    alpha_inter: float = 1.5e-5
    beta_intra: float = 1.0 / 25.0e9
    beta_inter: float = 1.0 / 25.0e9
    spmm_flop_rate: float = 2.0e11
    gemm_flop_rate: float = 8.0e12
    elementwise_rate: float = 2.0e11
    memory_bytes: float = 40.0e9

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank``."""
        if rank < 0:
            raise ValueError(f"rank must be non-negative, got {rank}")
        return rank // self.gpus_per_node

    def same_node(self, src: int, dst: int) -> bool:
        """Whether two ranks share a node (and hence NVLink-class links)."""
        return self.node_of(src) == self.node_of(dst)

    def link(self, src: int, dst: int) -> tuple[float, float]:
        """Return ``(alpha, beta)`` of the link connecting two ranks."""
        if src == dst:
            # Local "copies" are modelled as free; the compute model
            # already accounts for touching the data.
            return (0.0, 0.0)
        if self.same_node(src, dst):
            return (self.alpha_intra, self.beta_intra)
        return (self.alpha_inter, self.beta_inter)

    # ------------------------------------------------------------------
    # Cost primitives
    # ------------------------------------------------------------------
    def p2p_time(self, src: int, dst: int, nbytes: float) -> float:
        """Time to move ``nbytes`` from ``src`` to ``dst`` (one message)."""
        alpha, beta = self.link(src, dst)
        return alpha + float(nbytes) * beta

    def worst_link(self, nranks: int) -> tuple[float, float]:
        """The slowest (alpha, beta) pair that may appear in a job of
        ``nranks`` ranks.  Used by collective cost formulas that do not
        track topology message by message."""
        if nranks <= self.gpus_per_node:
            return (self.alpha_intra, self.beta_intra)
        return (self.alpha_inter, self.beta_inter)

    def spmm_time(self, flops: float) -> float:
        """Time of a local sparse-dense multiply performing ``flops``."""
        return float(flops) / self.spmm_flop_rate

    def gemm_time(self, flops: float) -> float:
        """Time of a local dense GEMM performing ``flops``."""
        return float(flops) / self.gemm_flop_rate

    def elementwise_time(self, nelements: float) -> float:
        """Time of an element-wise kernel over ``nelements`` elements."""
        return float(nelements) / self.elementwise_rate

    # ------------------------------------------------------------------
    def scaled(self, **overrides) -> "MachineModel":
        """Return a copy with some fields overridden (keyword args)."""
        return replace(self, **overrides)


def perlmutter() -> MachineModel:
    """The machine used in the paper (Perlmutter GPU nodes)."""
    return MachineModel(name="perlmutter")


def perlmutter_scaled(factor: float = 1000.0) -> MachineModel:
    """Perlmutter with per-message latencies scaled down by ``factor``.

    The reproduction's synthetic datasets are roughly three orders of
    magnitude smaller than the paper's, which shrinks every bandwidth and
    compute term by the same amount but leaves per-message latency
    unchanged — artificially pushing every experiment into the
    latency-bound regime.  Scaling the latencies by the same factor keeps
    the compute : bandwidth : latency proportions of the paper's setting,
    which is what the figure-shape reproductions rely on (see
    docs/performance.md, "Paper claims").
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    base = perlmutter()
    return base.scaled(name=f"perlmutter-scaled",
                       alpha_intra=base.alpha_intra / factor,
                       alpha_inter=base.alpha_inter / factor)


def laptop() -> MachineModel:
    """A much smaller machine preset, useful in tests: single 'node',
    lower bandwidth, slower compute.  Keeps ratios comparable so the
    qualitative behaviour of the algorithms is unchanged."""
    return MachineModel(
        name="laptop",
        gpus_per_node=1,
        alpha_intra=5.0e-6,
        alpha_inter=5.0e-5,
        beta_intra=1.0 / 10.0e9,
        beta_inter=1.0 / 2.0e9,
        spmm_flop_rate=2.0e10,
        gemm_flop_rate=2.0e11,
        elementwise_rate=2.0e10,
        memory_bytes=8.0e9,
    )


PRESETS: Dict[str, MachineModel] = {
    "perlmutter": perlmutter(),
    "perlmutter-scaled": perlmutter_scaled(),
    "laptop": laptop(),
}


def get_machine(name_or_model: "str | MachineModel") -> MachineModel:
    """Resolve a machine preset by name, or pass a model through.

    Raises
    ------
    KeyError
        If ``name_or_model`` is a string not present in :data:`PRESETS`.
    """
    if isinstance(name_or_model, MachineModel):
        return name_or_model
    try:
        return PRESETS[name_or_model]
    except KeyError:
        raise KeyError(
            f"unknown machine preset {name_or_model!r}; "
            f"available: {sorted(PRESETS)}"
        ) from None
