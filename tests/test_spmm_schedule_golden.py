"""Golden simulated schedule of every compiled SpMM variant.

Each case compiles one variant on the sim backend at one pipeline depth
and grid, then calls the plan at widths 5, 9, 3 and 9 (grow, shrink,
regrow-free).  For every case the test records:

* a digest of the ordered communicator call log — every collective and
  nonblocking post (payload shapes and dtypes, keyword arguments), every
  handle ``wait()``, every ``parallel_for`` (group and category) and
  every ``charge_*`` hook;
* a digest of the ``EventLog`` (kind, ranks, bytes, category, step);
* the per-rank clocks and the per-rank, per-category breakdown as
  ``float.hex``;
* a digest of the four results.

It compares them with ``spmm_schedule_golden.json``.  The conformance
suite's sim check compares a compiled plan with the one-shot ``spmm``,
which compiles the same plan class, so a changed
schedule moves both sides; this file is what pins the schedule itself.
Regenerate the golden (only when the schedule is meant to change) with::

    PYTHONPATH=src python tests/test_spmm_schedule_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.comm import make_communicator
from repro.core import (BlockRowDistribution, DistDenseMatrix,
                        DistSparseMatrix, ProcessGrid)
from repro.core.engine import compile as compile_spmm
from repro.graphs import gcn_normalize
from repro.graphs.generators import grid_graph

GOLDEN = os.path.join(os.path.dirname(__file__),
                      "spmm_schedule_golden.json")
WIDTHS = (5, 9, 3, 9)
DEPTHS = (1, 2, 3)
MODES = ("oblivious", "sparsity_aware")
#: (algorithm, grid spec): 1D takes p, 1.5D (p, c).  1D at p = 5 splits
#: the 36 rows unevenly; 1.5D at (18, 3) replicates three ways over
#: s = 2 stages, at (16, 4) four ways in a single stage.
GRIDS = [("1d", 1), ("1d", 4), ("1d", 5),
         ("1.5d", (4, 1)), ("1.5d", (4, 2)), ("1.5d", (8, 2)),
         ("1.5d", (18, 3)), ("1.5d", (16, 4))]
POSTS = ("ibroadcast", "ialltoallv", "iallreduce", "iexchange")
LOGGED = ("broadcast", "alltoallv", "allreduce", "allgather", "reduce",
          "exchange", "parallel_for", "charge_spmm", "charge_gemm",
          "charge_elementwise", "charge_seconds") + POSTS


def _cases() -> List[Tuple[str, str, object, int]]:
    return [(algorithm, mode, spec, depth)
            for algorithm, spec in GRIDS
            for mode in MODES for depth in DEPTHS]


def _case_id(algorithm, mode, spec, depth) -> str:
    grid = "x".join(map(str, spec)) if isinstance(spec, tuple) else spec
    return f"{algorithm}-{mode}-{grid}-d{depth}"


def _describe(value):
    """JSON-able shape-level description of a call argument."""
    if isinstance(value, np.ndarray):
        return ["a", list(value.shape), value.dtype.str]
    if isinstance(value, (list, tuple, range)):
        return [_describe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _describe(v) for k, v in sorted(value.items())}
    if callable(value):
        return "fn"
    if isinstance(value, float):
        return float.hex(value)
    return value


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _install_log(comm, log: List) -> None:
    """Shadow the logged communicator methods with recording wrappers."""
    def wrap(name):
        inner = getattr(comm, name)

        def recorded(*args, **kwargs):
            if name == "parallel_for":
                log.append([name, len(args[0]),
                            _describe(args[1:]), _describe(kwargs)])
            else:
                log.append([name, _describe(args), _describe(kwargs)])
            result = inner(*args, **kwargs)
            if name in POSTS:
                wait = result.wait

                def logged_wait():
                    log.append(["wait", name])
                    return wait()
                result.wait = logged_wait
            return result
        setattr(comm, name, recorded)

    for name in LOGGED:
        wrap(name)


def _operands(algorithm, spec):
    """``(nranks, matrix, grid, wrap(h), unwrap(z))`` for one case."""
    adj = gcn_normalize(grid_graph(6))
    n = adj.shape[0]
    if algorithm == "1.5d":
        grid = ProcessGrid(*spec)
        nranks, nblocks = grid.nranks, grid.nrows
    else:
        grid, nranks, nblocks = None, spec, spec
    dist = BlockRowDistribution.uniform(n, nblocks)
    matrix = DistSparseMatrix(adj, dist)
    return (nranks, matrix, grid,
            lambda h: DistDenseMatrix.from_global(h, dist),
            lambda z: z.to_global())


def run_case(algorithm, mode, spec, depth) -> Dict[str, object]:
    nranks, matrix, grid, wrap, unwrap = _operands(algorithm, spec)
    rng = np.random.default_rng(7)
    log: List = []
    with make_communicator(nranks, backend="sim") as comm:
        op = compile_spmm(matrix, comm, algorithm=algorithm,
                          sparsity_aware=mode == "sparsity_aware",
                          grid=grid, pipeline_depth=depth)
        _install_log(comm, log)
        results = []
        for width in WIDTHS:
            h = rng.normal(size=(matrix.shape[0], width))
            results.append(unwrap(op(wrap(h))))
        events = [[e.kind, e.src, e.dst, e.nbytes, e.category, e.step]
                  for e in comm.events]
        timeline = comm.timeline
        return {
            "case": _case_id(algorithm, mode, spec, depth),
            "calls": _digest(log),
            "events": _digest(events),
            "clocks": [float.hex(float(t)) for t in timeline.clocks],
            "breakdown": {cat: [float.hex(float(t)) for t in secs]
                          for cat, secs in
                          sorted(timeline.per_rank_breakdown().items())},
            "result": hashlib.sha256(b"".join(
                np.ascontiguousarray(z).tobytes() for z in results)
            ).hexdigest()[:16],
        }


@lru_cache(maxsize=None)
def _golden() -> Dict[str, dict]:
    with open(GOLDEN) as fh:
        return {record["case"]: record for record in json.load(fh)}


@pytest.mark.parametrize("algorithm,mode,spec,depth", _cases(),
                         ids=[_case_id(*c) for c in _cases()])
def test_schedule_matches_golden(algorithm, mode, spec, depth):
    want = _golden()[_case_id(algorithm, mode, spec, depth)]
    have = run_case(algorithm, mode, spec, depth)
    for field in ("calls", "events", "clocks", "breakdown", "result"):
        assert have[field] == want[field], (
            f"{want['case']}: {field} differs\n"
            f"  got:    {json.dumps(have[field])}\n"
            f"  golden: {json.dumps(want[field])}")


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(_case_id(*c) for c in _cases())


if __name__ == "__main__":
    records = [run_case(*case) for case in _cases()]
    with open(GOLDEN, "w") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(r, sort_keys=True) for r in records))
        fh.write("\n]\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")
