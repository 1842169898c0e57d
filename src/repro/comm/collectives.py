"""Cost formulas for collective operations under the alpha-beta model.

These mirror the formulas used in the paper's analysis (Section 4) and
standard references on collective algorithms:

* broadcast of ``m`` bytes to ``P`` ranks: a pipelined tree/ring costs
  roughly ``log2(P) * alpha + m * beta``;
* ring all-reduce of ``m`` bytes over ``P`` ranks:
  ``2 (P-1) alpha + 2 m beta (P-1)/P``;
* all-gather of per-rank ``m`` bytes: ``(P-1) alpha + (P-1) m beta``;
* all-to-allv implemented (as NCCL does) as grouped pairwise sends and
  receives: each rank pays one latency per peer plus the maximum of its
  total send and total receive bandwidth time.

The :class:`~repro.comm.simulator.SimCommunicator` uses the per-message
variant for point-to-point style operations (all-to-allv, 1.5D staged
sends) so that intra- vs inter-node links are priced individually, and
uses these closed forms for the rooted/ring collectives.
"""

from __future__ import annotations

import math
from typing import Sequence

from .machine import MachineModel

__all__ = [
    "broadcast_time",
    "allreduce_time",
    "allgather_time",
    "reduce_time",
    "alltoallv_time_per_rank",
]


def _group_link(machine: MachineModel, ranks: Sequence[int]) -> tuple[float, float]:
    """Slowest (alpha, beta) link present within a group of ranks.

    The closed form of the worst :meth:`MachineModel.link` over every pair
    of the group under the two-level (intra-/inter-node) model: one node
    prices every pair intra-node; otherwise some pair crosses nodes, and
    the intra-node link also counts when two distinct ranks share a node.
    """
    if len(ranks) <= 1:
        return (0.0, 0.0)
    nodes = {machine.node_of(r) for r in ranks}
    if len(nodes) == 1:
        return (machine.alpha_intra, machine.beta_intra)
    if len(nodes) < len(set(ranks)):
        return (max(machine.alpha_inter, machine.alpha_intra),
                max(machine.beta_inter, machine.beta_intra))
    return (machine.alpha_inter, machine.beta_inter)


def broadcast_time(machine: MachineModel, ranks: Sequence[int],
                   nbytes: float) -> float:
    """Time for a broadcast of ``nbytes`` within ``ranks``."""
    p = len(ranks)
    if p <= 1 or nbytes <= 0:
        return 0.0
    alpha, beta = _group_link(machine, ranks)
    return math.log2(p) * alpha + float(nbytes) * beta


def allreduce_time(machine: MachineModel, ranks: Sequence[int],
                   nbytes: float) -> float:
    """Time for a ring all-reduce of ``nbytes`` within ``ranks``."""
    p = len(ranks)
    if p <= 1 or nbytes <= 0:
        return 0.0
    alpha, beta = _group_link(machine, ranks)
    # Tree-style latency (what NCCL uses for small messages) plus the
    # bandwidth-optimal ring term for the payload.
    return 2.0 * math.log2(p) * alpha + 2.0 * float(nbytes) * beta * (p - 1) / p


def reduce_time(machine: MachineModel, ranks: Sequence[int],
                nbytes: float) -> float:
    """Time for a rooted reduction of ``nbytes`` within ``ranks``."""
    p = len(ranks)
    if p <= 1 or nbytes <= 0:
        return 0.0
    alpha, beta = _group_link(machine, ranks)
    return math.log2(p) * alpha + float(nbytes) * beta


def allgather_time(machine: MachineModel, ranks: Sequence[int],
                   nbytes_per_rank: float) -> float:
    """Time for an all-gather where each rank contributes
    ``nbytes_per_rank`` bytes."""
    p = len(ranks)
    if p <= 1 or nbytes_per_rank <= 0:
        return 0.0
    alpha, beta = _group_link(machine, ranks)
    return (p - 1) * alpha + (p - 1) * float(nbytes_per_rank) * beta


def alltoallv_time_per_rank(machine: MachineModel,
                            ranks: Sequence[int],
                            send_bytes: Sequence[Sequence[float]]) -> list[float]:
    """Per-rank time of a grouped pairwise all-to-allv.

    Parameters
    ----------
    ranks:
        Global rank ids participating, in group order.
    send_bytes:
        ``send_bytes[i][j]`` is the number of bytes the ``i``-th group
        member sends to the ``j``-th group member.

    Returns
    -------
    list of float
        ``t[i]``: the time the ``i``-th group member is busy, computed as
        ``max(send path, receive path)`` where each path is the sum over
        peers of ``alpha_link + bytes * beta_link``.  The caller (the
        simulator) synchronises the group to ``max_i t[i]`` afterwards,
        matching the bulk-synchronous bound used in the paper.
    """
    p = len(ranks)
    times = [0.0] * p
    for i in range(p):
        t_send = 0.0
        t_recv = 0.0
        for j in range(p):
            if i == j:
                continue
            sb = float(send_bytes[i][j])
            rb = float(send_bytes[j][i])
            if sb > 0:
                alpha, beta = machine.link(ranks[i], ranks[j])
                t_send += alpha + sb * beta
            if rb > 0:
                alpha, beta = machine.link(ranks[j], ranks[i])
                t_recv += alpha + rb * beta
        times[i] = max(t_send, t_recv)
    return times
