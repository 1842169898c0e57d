"""The paper's conclusions as predicates over recorded rows.

A :class:`Claim` is one conclusion: ``cells`` picks ``(label, lhs, rhs)``
values out of the recorded rows (the row filter), ``compare(lhs, rhs)``
decides each cell, and the claim holds when every cell does.  The rows
are the committed records, read by :func:`load_figures`:

* ``BENCH_spmm.json`` — Figure 3's sweep, which Figure 4 (its p = 64 rows),
  Figure 6 (the SA+GVB line) and the broadcast / all-to-allv crossover
  read too;
* ``BENCH_spmm_plan.json`` — the planner's pick per (dataset, p);
* ``BENCH_paper.json`` — Tables 2-3, Figures 5, 6 (SA+METIS) and 7, and
  the ablation and cost-model cells no paper row covers.

All three are recorded at the default bench config (sim, scale 0.4, two
epochs, ``perlmutter-scaled``, seed 0) by ``scripts/record_baseline.py``,
whose ``--paper`` mode re-records the last and prints
:func:`format_claims`.  ``tests/test_paper_claims.py`` pins which claims
hold, so a change that flips one shows up as an edit to that list.
"""

from __future__ import annotations

import json
import math
import operator
import pathlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..partition import PARTITIONERS
from .reporting import format_table

__all__ = ["Claim", "CLAIMS", "load_figures", "evaluate", "format_claims"]

Figures = Dict[str, List[Dict[str, object]]]
Cell = Tuple[str, object, object]


@dataclass(frozen=True)
class Claim:
    """One conclusion of the paper, checked cell by cell."""

    name: str
    figure: str
    text: str
    cells: Callable[[Figures], List[Cell]]
    compare: Callable[[object, object], bool]

    def check(self, figures: Figures) -> List[Tuple[str, object, object,
                                                    bool]]:
        return [(label, lhs, rhs, bool(self.compare(lhs, rhs)))
                for label, lhs, rhs in self.cells(figures)]


def _get(rows, key: str, **match):
    """``key`` of the one row matching ``match``.  A row carries only the
    ``time_*`` categories its run charged; an absent one reads 0."""
    found = [r for r in rows if all(r.get(k) == v for k, v in match.items())]
    if len(found) != 1:
        raise LookupError(f"{len(found)} rows match {match}")
    return found[0].get(key, 0.0) if key.startswith("time_") \
        else found[0][key]


def _label(cell: Dict[str, object]) -> str:
    return " ".join(v if isinstance(v, str) else f"{k}={v}"
                    for k, v in cell.items())


def _vs(figure: str, key: str, lhs, rhs,
        over: Sequence[Dict[str, object]], rkey: str = "",
        rfigure: str = ""):
    """Cells comparing ``key`` of the ``lhs`` row with ``rkey`` (default
    ``key``) of the ``rhs`` row of ``rfigure`` (default ``figure``), once
    per cell filter in ``over``; ``lhs`` / ``rhs`` add to that filter, a
    string standing for ``{"scheme": name}``."""
    lhs, rhs = ({"scheme": side} if isinstance(side, str) else side
                for side in (lhs, rhs))
    return lambda figs: [
        (_label(cell),
         _get(figs[figure], key, **{**cell, **lhs}),
         _get(figs[rfigure or figure], rkey or key, **{**cell, **rhs}))
        for cell in over]


#: Figure 3 / 4's shape claims are stated at the largest p, 64.
_P64 = [{"dataset": d, "p": 64} for d in ("amazon", "protein")]
_C2P64 = [{"dataset": d, "c": 2, "p": 64} for d in ("amazon", "protein")]
_FIG7 = [{"dataset": d, "c": c, "p": p} for d in ("amazon", "protein")
         for c in (2, 4) for p in (16, 32, 64)]
_WIDTHS = [{"f": f} for f in (32, 128, 300)]
_AMAZON = [{"dataset": "amazon"}]
_GVB, _BLOCK = {"partitioner": "gvb"}, {"partitioner": "block"}


def _table3_extreme(key: str, name: str, pick) -> Callable:
    return lambda figs: [(name, _get(figs["table3"], key, name=name),
                          pick(r[key] for r in figs["table3"]))]


def _auto_cells(figs: Figures) -> List[Cell]:
    """The planner's pick against the best fixed scheme at its (dataset, p)."""
    return [(_label({"dataset": r["dataset"], "p": r["p"]}),
             r["epoch_time_s"],
             min(f["epoch_time_s"] for f in figs["fig3"]
                 if (f["dataset"], f["p"]) == (r["dataset"], r["p"])))
            for r in figs["auto"]]


def _costmodel_mb(figs: Figures) -> List[Cell]:
    rows = figs["costmodel"]
    return [(_label({"p": p}),
             sum(_get(rows, "measured_bytes", p=p, scheme="SA")) / 1e6,
             sum(_get(rows, "measured_bytes", p=p, scheme="CAGNET")) / 1e6)
            for p in sorted({r["p"] for r in rows})]


def _width_gap(figs: Figures) -> List[Cell]:
    """CAGNET's epoch time over SA+GVB's at the widest f against the
    narrowest."""
    def gap(f):
        rows = figs["feature_width"]
        return (_get(rows, "epoch_time_s", scheme="CAGNET", f=f)
                / _get(rows, "epoch_time_s", scheme="SA+GVB", f=f))
    return [("f=300 vs f=32", gap(300), gap(32))]


def _both(a, b) -> bool:
    """``a`` is positive and ``b`` is zero."""
    return a > 0 and b == 0


CLAIMS: Tuple[Claim, ...] = (
    # Table 3: the scaled stand-ins keep the datasets' relative character.
    Claim("table3.datasets", "Table 3",
          "the four datasets are reddit, amazon, protein and papers",
          lambda figs: [("names", sorted(r["name"] for r in figs["table3"]),
                         ["amazon", "papers", "protein", "reddit"])],
          operator.eq),
    Claim("table3.papers_largest", "Table 3", "papers has the most vertices",
          _table3_extreme("vertices", "papers", max), operator.eq),
    Claim("table3.reddit_smallest", "Table 3",
          "reddit has the fewest vertices",
          _table3_extreme("vertices", "reddit", min), operator.eq),
    Claim("table3.reddit_densest", "Table 3",
          "reddit has the highest average degree",
          _table3_extreme("avg_degree", "reddit", max), operator.eq),
    # Table 2: METIS leaves a send imbalance that grows with p.
    Claim("table2.imbalance_grows", "Table 2",
          "under METIS the send imbalance at p = 64 exceeds p = 4's",
          _vs("table2", "load_imbalance_pct", {"p": 64}, {"p": 4},
              [{"dataset": "amazon"}]),
          operator.gt),
    Claim("table2.average_drops", "Table 2",
          "under METIS the average MB a process sends drops from p = 4 to 64",
          _vs("table2", "average_MB", {"p": 64}, {"p": 4},
              [{"dataset": "amazon"}]),
          operator.lt),
    # Figure 3: 1D scaling.
    Claim("fig3.sagvb_beats_cagnet", "Figure 3",
          "SA+GVB is faster than CAGNET at p = 64",
          _vs("fig3", "epoch_time_s", "SA+GVB", "CAGNET", _P64),
          operator.lt),
    Claim("fig3.sagvb_not_slower_than_sa", "Figure 3",
          "SA+GVB is within 5 % of SA or faster at p = 64",
          _vs("fig3", "epoch_time_s", "SA+GVB", "SA", _P64),
          lambda a, b: a <= 1.05 * b),
    Claim("fig3.cagnet_does_not_scale", "Figure 3",
          "CAGNET at p = 64 is above 0.8x its p = 4 time",
          _vs("fig3", "epoch_time_s", {"p": 64}, {"p": 4},
              [{"dataset": d, "scheme": "CAGNET"}
               for d in ("amazon", "protein")]),
          lambda a, b: a > 0.8 * b),
    # Figure 4: the 1D breakdown at p = 64.
    Claim("fig4.cagnet_only_broadcasts", "Figure 4",
          "CAGNET's communication is all broadcast (bcast > 0, alltoall = 0)",
          _vs("fig3", "time_bcast_s", "CAGNET", "CAGNET", _P64,
              rkey="time_alltoall_s"),
          _both),
    Claim("fig4.sa_only_alltoall", "Figure 4",
          "SA's communication is all all-to-all (alltoall > 0, bcast = 0)",
          _vs("fig3", "time_alltoall_s", "SA", "SA", _P64,
              rkey="time_bcast_s"),
          _both),
    Claim("fig4.sa_alltoall_below_bcast", "Figure 4",
          "SA's all-to-all time is below CAGNET's broadcast time",
          _vs("fig3", "time_alltoall_s", "SA", "CAGNET", _P64,
              rkey="time_bcast_s"),
          operator.lt),
    Claim("fig4.gvb_shrinks_alltoall", "Figure 4",
          "SA+GVB's all-to-all time is at most SA's",
          _vs("fig3", "time_alltoall_s", "SA+GVB", "SA", _P64),
          operator.le),
    # Figure 5: Papers at p = 16 (the paper reports about 2.3x).
    Claim("fig5.sagvb_speedup", "Figure 5",
          "CAGNET takes over 1.3x SA+GVB's epoch time on papers at p = 16",
          _vs("fig5", "epoch_time_s", "CAGNET", "SA+GVB",
              [{"dataset": "papers", "p": 16}]),
          lambda a, b: a > 1.3 * b),
    # Figure 6: GVB against METIS; the SA+GVB line is Figure 3's.
    Claim("fig6.gvb_not_slower_amazon", "Figure 6",
          "on amazon at p = 64 SA+GVB is within 10 % of SA+METIS or faster",
          _vs("fig3", "epoch_time_s", "SA+GVB", "SA+METIS", _P64[:1],
              rfigure="fig6"),
          lambda a, b: a <= 1.10 * b),
    Claim("fig6.gvb_bottleneck_amazon", "Figure 6",
          "on amazon at p = 64 SA+GVB's busiest rank sends within 5 % of "
          "SA+METIS's or less",
          _vs("fig3", "comm_max_MB_per_rank_per_epoch", "SA+GVB", "SA+METIS",
              _P64[:1], rfigure="fig6"),
          lambda a, b: a <= 1.05 * b),
    Claim("fig6.tied_protein", "Figure 6",
          "on protein at p = 64 SA+GVB takes 0.4x to 2.5x SA+METIS's time",
          _vs("fig3", "epoch_time_s", "SA+GVB", "SA+METIS", _P64[1:],
              rfigure="fig6"),
          lambda a, b: 0.4 * b <= a <= 2.5 * b),
    # Figure 7: 1.5D.
    Claim("fig7.sa_not_below_cagnet", "Figure 7",
          "at c = 2, p = 64 plain SA takes over 0.9x CAGNET's time",
          _vs("fig7", "epoch_time_s", "SA", "CAGNET", _C2P64),
          lambda a, b: a > 0.9 * b),
    Claim("fig7.gvb_beats_sa", "Figure 7",
          "at c = 2, p = 64 SA+GVB is faster than plain SA",
          _vs("fig7", "epoch_time_s", "SA+GVB", "SA", _C2P64),
          operator.lt),
    Claim("fig7.allreduce_everywhere", "Figure 7",
          "every 1.5D row spends time in the all-reduce",
          lambda figs: [(_label({"dataset": r["dataset"],
                                 "scheme": r["scheme"], "c": r["c"],
                                 "p": r["p"]}),
                         r.get("time_allreduce_s", 0.0), 0.0)
                        for r in figs["fig7"]],
          operator.gt),
    Claim("fig7.sagvb_beats_cagnet", "Figure 7",
          "SA+GVB is faster than CAGNET 1.5D in every (dataset, c, p) cell. "
          "It loses where one rank per stage sends its block to the other "
          "P/c - 1 block rows in turn (ROADMAP item 23); the all-reduce is "
          "the same for SA and CAGNET",
          _vs("fig7", "epoch_time_s", "SA+GVB", "CAGNET", _FIG7),
          operator.lt),
    # The planner tracks the lower envelope of Figure 3.
    Claim("auto.no_worse_than_fixed", "Figure 3",
          "the planner's pick is no slower than the best fixed scheme at "
          "its (dataset, p)",
          _auto_cells, operator.le),
    # Ablation: feature width (amazon 0.3, p = 16).
    Claim("width.sagvb_not_slower", "ablation",
          "SA+GVB is no slower than CAGNET at f = 32, 128 and 300",
          _vs("feature_width", "epoch_time_s", "SA+GVB", "CAGNET", _WIDTHS),
          operator.le),
    Claim("width.sagvb_fewer_bytes", "ablation",
          "SA+GVB moves no more data than CAGNET at every f",
          _vs("feature_width", "comm_total_MB_per_epoch", "SA+GVB", "CAGNET",
              _WIDTHS),
          operator.le),
    Claim("width.bytes_grow_with_f", "ablation",
          "each scheme's volume grows with f",
          lambda figs: [(scheme, vols, sorted(vols)) for scheme, vols in (
              (s, [_get(figs["feature_width"], "comm_total_MB_per_epoch",
                        scheme=s, **w) for w in _WIDTHS])
              for s in ("CAGNET", "SA+GVB"))],
          operator.eq),
    Claim("width.gap_does_not_shrink", "ablation",
          "CAGNET / SA+GVB at f = 300 is at least 0.8x the ratio at f = 32",
          _width_gap, lambda a, b: a >= 0.8 * b),
    # Ablation: every partitioner driving SA 1D (amazon 0.3, p = 16).
    Claim("partitioners.every_registered", "ablation",
          "every registered partitioner has a row",
          lambda figs: [("partitioners",
                         sorted(r["partitioner"]
                                for r in figs["partitioners"]),
                         sorted(PARTITIONERS))],
          operator.eq),
    Claim("partitioners.gvb_total_volume", "ablation",
          "GVB's total volume is at most block's",
          _vs("partitioners", "total_volume", _GVB, _BLOCK, _AMAZON),
          operator.le),
    Claim("partitioners.gvb_max_send", "ablation",
          "GVB's bottleneck send volume is at most block's",
          _vs("partitioners", "max_send_volume", _GVB, _BLOCK, _AMAZON),
          operator.le),
    Claim("partitioners.gvb_not_slower", "ablation",
          "GVB trains within 5 % of block or faster",
          _vs("partitioners", "epoch_time_s", _GVB, _BLOCK, _AMAZON),
          lambda a, b: a <= 1.05 * b),
    # Ablation: 1.5D replication factor (protein 0.3, P = 16).
    Claim("replication.rows", "ablation",
          "at least four replication rows ran",
          lambda figs: [("rows", sum(math.isfinite(r["epoch_time_s"])
                                     for r in figs["replication"]), 4)],
          operator.ge),
    Claim("replication.allreduce_grows", "ablation",
          "SA+GVB's all-reduce time at c = 4 is at least c = 1's",
          _vs("replication", "time_allreduce_s", {"c": 4}, {"c": 1},
              [{"scheme": "SA+GVB"}]),
          operator.ge),
    Claim("replication.sa_fewer_bytes", "ablation",
          "SA+GVB moves no more data than CAGNET at every c",
          _vs("replication", "comm_total_MB_per_epoch", "SA+GVB", "CAGNET",
              [{"c": c} for c in (1, 2, 4)]),
          lambda a, b: a <= b + 1e-9),
    # Ablation: GVB balance tolerance (amazon 0.4, p = 32).
    Claim("balance.looser_no_worse", "ablation",
          "loosening GVB's balance factor 1.02 -> 1.30 keeps the "
          "bottleneck send volume within 10 %",
          _vs("balance", "max_send_volume", {"balance_factor": 1.30},
              {"balance_factor": 1.02}, _AMAZON),
          lambda a, b: a <= 1.10 * b),
    # Ablation: broadcast vs all-to-allv crossover.
    Claim("crossover.sa_wins_at_64", "ablation",
          "on protein at p = 64 SA is faster than CAGNET",
          _vs("fig3", "epoch_time_s", "SA", "CAGNET", _P64[1:]),
          operator.lt),
    # Validation: the closed-form volumes and model against the simulator
    # (amazon 0.3, GVB, f = 64, machine perlmutter).
    Claim("costmodel.volume_exact", "validation",
          "the bytes each rank sends equal the NnzCols prediction",
          lambda figs: [(_label({"scheme": r["scheme"], "p": r["p"]}),
                         r["predicted_bytes"], r["measured_bytes"])
                        for r in figs["costmodel"]],
          operator.eq),
    Claim("costmodel.sa_fewer_bytes", "validation",
          "SA sends no more MB than CAGNET in one SpMM",
          _costmodel_mb, lambda a, b: a <= b + 1e-9),
    Claim("costmodel.sa_model_cheaper", "validation",
          "the alpha-beta model prices SA's communication at most CAGNET's",
          _vs("costmodel", "model_comm_s", "SA", "CAGNET",
              [{"p": p} for p in (4, 8, 16)]),
          lambda a, b: a <= b + 1e-12),
)


#: The config keys every record the claims read must share.
_CONFIG_KEYS = ("scale", "epochs", "machine", "seed")


def load_figures(root, paper="BENCH_paper.json") -> Figures:
    """The recorded rows the claims read, by figure: ``BENCH_spmm.json``
    and ``BENCH_spmm_plan.json`` under ``root`` and the ``paper`` record
    (a path relative to ``root``, or absolute).  The claims compare rows
    across the three, so they must share the keys in ``_CONFIG_KEYS``."""
    root = pathlib.Path(root)
    records = {str(name): json.loads((root / name).read_text())
               for name in (paper, "BENCH_spmm.json", "BENCH_spmm_plan.json")}
    configs = {name: {k: record["config"][k] for k in _CONFIG_KEYS}
               for name, record in records.items()}
    if len({json.dumps(c, sort_keys=True) for c in configs.values()}) > 1:
        raise ValueError(f"records made at different configs: {configs}")
    paper, spmm, plan = records.values()
    figures = dict(paper["figures"])
    figures["fig3"] = spmm["rows"]
    figures["auto"] = plan["rows"]
    return figures


def evaluate(figures: Figures):
    """``[(claim, holds, cells)]`` for every claim in :data:`CLAIMS`,
    ``cells`` as :meth:`Claim.check` returns them; a claim holds when it
    has cells and each one holds."""
    out = []
    for claim in CLAIMS:
        cells = claim.check(figures)
        out.append((claim, bool(cells) and all(c[3] for c in cells), cells))
    return out


def _show(value) -> object:
    if isinstance(value, list) and len(value) > 4:
        return f"{len(value)} values, sum {sum(value):g}"
    return value


def format_claims(results) -> str:
    """The holds / fails table, then every cell with its numbers."""
    summary = [{"claim": claim.name, "figure": claim.figure,
                "holds": holds,
                "cells": f"{sum(c[3] for c in cells)}/{len(cells)}",
                "statement": claim.text}
               for claim, holds, cells in results]
    detail = [{"claim": claim.name, "cell": label, "lhs": _show(lhs),
               "rhs": _show(rhs), "holds": ok}
              for claim, _, cells in results
              for label, lhs, rhs, ok in cells]
    held = sum(holds for _, holds, _ in results)
    return "\n\n".join([
        format_table(summary, title=f"Paper claims: {held} of "
                                    f"{len(results)} hold"),
        format_table(detail, title="Claim cells (lhs compared with rhs)")])
