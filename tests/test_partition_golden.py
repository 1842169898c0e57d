"""Golden partitions of the multilevel partitioners and their phases.

The partition vector decides every byte a training epoch exchanges, so a
rewrite of the partitioner's loops must not move a single vertex.  This
test pins, for fixed inputs and seeds:

* the full partitioners (``gvb`` and ``metis_like`` on the scaled amazon,
  protein and reddit stand-ins and a synthetic community graph) — a
  sha256 of the ``parts`` vector with its edgecut, total and maximum
  send volume;
* each phase on its own — ``(parts, moves)`` of ``edgecut_refine``,
  ``rebalance`` and ``volume_refine`` on unit and weighted (coarsened)
  graphs, ``edgecut_refine`` / ``rebalance`` on a graph with non-integer
  edge weights (their sums depend on the summation order), and
  ``heavy_edge_matching`` / ``contract_graph`` on that graph.

It compares them with ``partition_golden.json``.  Regenerate the golden
(only when partitions are meant to change) with::

    PYTHONPATH=src python tests/test_partition_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from typing import Dict

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import community_ring_graph, load_dataset
from repro.partition import (PARTITIONERS, coarsen_graph,
                             communication_volumes_1d, contract_graph,
                             edgecut, get_partitioner, heavy_edge_matching)
from repro.partition.refine import edgecut_refine, rebalance
from repro.partition.volume_refine import volume_refine

GOLDEN = os.path.join(os.path.dirname(__file__), "partition_golden.json")

#: graph name -> builder of its (unweighted, loop-free) adjacency
GRAPHS = {
    "amazon-1.0": lambda: load_dataset("amazon", scale=1.0).adjacency,
    "amazon-0.25": lambda: load_dataset("amazon", scale=0.25).adjacency,
    "protein-1.0": lambda: load_dataset("protein", scale=1.0).adjacency,
    "reddit-0.1": lambda: load_dataset("reddit", scale=0.1).adjacency,
    "community-1200": lambda: community_ring_graph(
        1200, avg_degree=10, n_communities=20, p_external=0.1, seed=0),
}

#: (partitioner, graph, nparts); the amazon 1.0 cases are the end-to-end
#: gate's scale (``train_1d_exchange`` at p = 4 and ``train_15d_overlap``'s
#: two block rows at p = 2), pinned for both partitioners since they share
#: coarsening, ``rebalance`` and ``edgecut_refine``
PARTITIONS = [(method, graph, p)
              for method in ("gvb", "metis_like")
              for graph, p in (("amazon-0.25", 2), ("amazon-0.25", 4),
                               ("protein-1.0", 4), ("reddit-0.1", 2),
                               ("reddit-0.1", 4), ("community-1200", 8))
              ] + [("gvb", "amazon-1.0", 4), ("gvb", "amazon-1.0", 2),
                   ("metis_like", "amazon-1.0", 4),
                   ("metis_like", "amazon-1.0", 2)]


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(f"{arr.shape}{arr.dtype.str}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def _graph(name: str) -> sp.csr_matrix:
    return GRAPHS[name]().tocsr()


def _partition_record(method, graph, nparts) -> dict:
    adj = _graph(graph)
    parts = get_partitioner(method, seed=0).partition(adj, nparts).parts
    vol = communication_volumes_1d(adj, parts, nparts)
    return {"parts_sha256": _digest(parts), "edgecut": int(edgecut(adj, parts)),
            "total_volume": vol.total, "max_send_volume": vol.max_send}


def _partition_key(method, graph, nparts) -> str:
    return f"{method}/{graph}/p{nparts}"


# ----------------------------------------------------------------------
# Fixed inputs of the phase-level records
# ----------------------------------------------------------------------
def _unit_graph():
    return community_ring_graph(300, avg_degree=8, n_communities=6,
                                p_external=0.05, seed=1).astype(np.float64)


def _weighted_level():
    """A coarsened level: float edge weights and vertex weights."""
    adj = community_ring_graph(600, avg_degree=8, n_communities=8,
                               p_external=0.05, seed=2)
    level = coarsen_graph(adj, target_vertices=150, seed=3)[-1]
    return level.adj, level.vertex_weights


def _float_weighted_graph():
    adj = community_ring_graph(200, avg_degree=6, n_communities=4, seed=4)
    upper = sp.triu(adj, k=1).tocoo()
    w = np.random.default_rng(4).uniform(0.1, 3.0, size=upper.nnz)
    half = sp.coo_matrix((w, (upper.row, upper.col)), shape=adj.shape)
    return (half + half.T).tocsr()


def _random_parts(n, nparts, seed):
    return np.random.default_rng(seed).integers(0, nparts, size=n)


def _skewed_parts(n, nparts):
    parts = np.zeros(n, dtype=np.int64)
    parts[: 2 * nparts] = np.arange(2 * nparts) % nparts
    return parts


def _unit_records() -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    adj = _unit_graph()
    n = adj.shape[0]
    parts = _random_parts(n, 4, 0)
    refined, moves = edgecut_refine(adj, parts, 4, seed=0)
    out["edgecut_refine/unit"] = {"sha256": _digest(refined), "moves": moves}
    refined, moves = volume_refine(adj, parts, 4, seed=0)
    out["volume_refine/unit"] = {"sha256": _digest(refined), "moves": moves}
    out["rebalance/unit"] = {"sha256": _digest(
        rebalance(adj, _skewed_parts(n, 4), 4, balance_factor=1.1, seed=0))}

    wadj, wv = _weighted_level()
    nw = wadj.shape[0]
    parts = _random_parts(nw, 3, 1)
    refined, moves = edgecut_refine(wadj, parts, 3, vertex_weights=wv,
                                    balance_factor=1.2, seed=1)
    out["edgecut_refine/weighted"] = {"sha256": _digest(refined),
                                      "moves": moves}
    refined, moves = volume_refine(wadj, parts, 3, vertex_weights=wv,
                                   balance_factor=1.3, seed=1)
    out["volume_refine/weighted"] = {"sha256": _digest(refined),
                                     "moves": moves}
    out["rebalance/weighted"] = {"sha256": _digest(
        rebalance(wadj, _skewed_parts(nw, 3), 3, vertex_weights=wv,
                  balance_factor=1.1, seed=1))}

    fadj = _float_weighted_graph()
    parts = _random_parts(fadj.shape[0], 4, 2)
    refined, moves = edgecut_refine(fadj, parts, 4, balance_factor=1.2,
                                    seed=2)
    out["edgecut_refine/float"] = {"sha256": _digest(refined),
                                   "moves": moves}
    out["rebalance/float"] = {"sha256": _digest(
        rebalance(fadj, _skewed_parts(fadj.shape[0], 4), 4,
                  balance_factor=1.1, seed=2))}
    fw = np.random.default_rng(5).integers(1, 4, size=fadj.shape[0]) * 1.0
    match = heavy_edge_matching(fadj, np.random.default_rng(6),
                                vertex_weights=fw, max_vertex_weight=5.0)
    level = contract_graph(fadj, match, fw)
    out["heavy_edge_matching/float"] = {"sha256": _digest(match)}
    out["contract_graph/float"] = {"sha256": _digest(
        level.coarse_map, level.adj.indptr, level.adj.indices,
        level.adj.data, level.vertex_weights)}
    return out


def build_golden() -> dict:
    return {"partitions": {_partition_key(*case): _partition_record(*case)
                           for case in PARTITIONS},
            "phases": _unit_records()}


# ----------------------------------------------------------------------
# The tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_every_partitioning_partitioner_has_golden_records(golden):
    """Only ``block`` and ``random`` (which ignore the graph) go unpinned:
    a new partitioner lands with golden records, a deleted one takes its
    records with it."""
    assert {case[0] for case in PARTITIONS} == \
        set(PARTITIONERS) - {"block", "random"}
    assert sorted(golden["partitions"]) == \
        sorted(_partition_key(*case) for case in PARTITIONS)


@pytest.mark.parametrize("case", PARTITIONS,
                         ids=[_partition_key(*c) for c in PARTITIONS])
def test_partition_matches_golden(golden, case):
    key = _partition_key(*case)
    assert _partition_record(*case) == golden["partitions"][key], key


def test_phases_match_golden(golden):
    got = _unit_records()
    assert sorted(got) == sorted(golden["phases"])
    for key, want in golden["phases"].items():
        assert got[key] == want, key


if __name__ == "__main__":
    records = build_golden()
    with open(GOLDEN, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records['partitions'])} partitions and "
          f"{len(records['phases'])} phase records to {GOLDEN}")
