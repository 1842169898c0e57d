"""The shipped refiners against the straightforward reference loops.

``edgecut_refine``, ``rebalance`` and ``volume_refine`` skip work that
cannot change a decision: idle vertices, kept move deltas, moves pruned
before they are priced, one numpy pass per ``rebalance`` move.  Skipping
must not move a vertex, so on random graphs they must return exactly the
``(parts, moves)`` of the loops in ``tests/partition_reference.py``, which
evaluate everything every time.  The graphs mix hubs, stars, self-loops,
non-integer edge weights and vertex weights, with 2 to 16 parts from
random or skewed starting partitions.
"""

from __future__ import annotations

import pathlib

import numpy as np
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import partition_reference as reference
from repro.partition.refine import edgecut_refine, rebalance
from repro.partition.volume_refine import (VolumeState, _forget_deltas,
                                           volume_refine)

SETTINGS = dict(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def refine_case(draw, float_weights: bool):
    """``(adj, parts, nparts, vertex_weights, balance_factor, seed)``."""
    n = draw(st.integers(min_value=16, max_value=120))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    density = draw(st.floats(min_value=0.01, max_value=0.15))
    upper = sp.triu(sp.random(n, n, density=density, random_state=rng,
                              format="coo"), k=1).tocoo()
    rows, cols = list(upper.row), list(upper.col)
    # Hubs adjacent to most of the graph, and stars whose leaves hang off
    # a single centre.
    for _ in range(draw(st.integers(0, 3))):
        hub = int(rng.integers(n))
        reach = rng.random(n) < draw(st.floats(0.3, 1.0))
        rows += [hub] * int(reach.sum())
        cols += np.flatnonzero(reach).tolist()
    for _ in range(draw(st.integers(0, 2))):
        centre = int(rng.integers(n))
        leaves = rng.choice(n, size=min(n, int(rng.integers(3, 12))),
                            replace=False)
        rows += [centre] * len(leaves)
        cols += leaves.tolist()
    pairs = {(min(r, c), max(r, c)) for r, c in zip(rows, cols) if r != c}
    if draw(st.booleans()):   # self-loops
        pairs |= {(v, v) for v in rng.choice(n, size=n // 4, replace=False)}
    pairs = sorted(pairs)
    src = np.array([a for a, _ in pairs] + [b for a, b in pairs if a != b],
                   dtype=np.int64)
    dst = np.array([b for _, b in pairs] + [a for a, b in pairs if a != b],
                   dtype=np.int64)
    weight = (rng.uniform(0.1, 3.0, size=len(pairs)) if float_weights
              else np.ones(len(pairs)))
    weight = np.concatenate([weight, weight[[a != b for a, b in pairs]]])
    adj = sp.csr_matrix((weight, (src, dst)), shape=(n, n))

    nparts = draw(st.integers(min_value=2, max_value=16))
    nparts = min(nparts, n)
    if draw(st.booleans()):
        parts = rng.integers(0, nparts, size=n)
    else:   # skewed: one giant part plus one vertex per other part
        parts = np.zeros(n, dtype=np.int64)
        parts[: nparts] = np.arange(nparts)
        parts = rng.permutation(parts)
    vertex_weights = (rng.integers(1, 5, size=n).astype(np.float64)
                      if draw(st.booleans()) else None)
    balance = draw(st.sampled_from([1.0, 1.03, 1.1, 1.3, 2.0]))
    return adj, parts, nparts, vertex_weights, balance, draw(
        st.integers(0, 1000))


def _assert_same(got, want):
    got_parts, got_moves = got
    want_parts, want_moves = want
    np.testing.assert_array_equal(got_parts, want_parts)
    assert got_parts.dtype == want_parts.dtype
    assert got_moves == want_moves


#: unit edge weights make gain ties (zero gains) common, non-integer ones
#: make the summation order matter
ANY_WEIGHTS = st.booleans().flatmap(lambda fw: refine_case(float_weights=fw))


@settings(**SETTINGS)
@given(ANY_WEIGHTS, st.integers(1, 8))
def test_edgecut_refine_matches_reference(case, passes):
    adj, parts, nparts, vw, balance, seed = case
    kwargs = dict(vertex_weights=vw, balance_factor=balance,
                  max_passes=passes, seed=seed)
    _assert_same(edgecut_refine(adj, parts, nparts, **kwargs),
                 reference.edgecut_refine(adj, parts, nparts, **kwargs))


@settings(**SETTINGS)
@given(ANY_WEIGHTS)
def test_rebalance_matches_reference(case):
    adj, parts, nparts, vw, balance, seed = case
    kwargs = dict(vertex_weights=vw, balance_factor=balance, seed=seed)
    np.testing.assert_array_equal(
        rebalance(adj, parts, nparts, **kwargs),
        reference.rebalance(adj, parts, nparts, **kwargs))


@settings(**SETTINGS)
@given(refine_case(float_weights=False), st.integers(1, 8),
       st.sampled_from([None, 0.0, 0.5, 3.0]))
def test_volume_refine_matches_reference(case, passes, max_volume_weight):
    adj, parts, nparts, vw, balance, seed = case
    kwargs = dict(vertex_weights=vw, balance_factor=balance,
                  max_volume_weight=max_volume_weight, max_passes=passes,
                  seed=seed)
    _assert_same(volume_refine(adj, parts, nparts, **kwargs),
                 reference.volume_refine(adj, parts, nparts, **kwargs))


@settings(**dict(SETTINGS, max_examples=40))
@given(refine_case(float_weights=False))
def test_kept_deltas_equal_fresh_ones_after_a_move(case):
    """Every delta ``_forget_deltas`` keeps equals a recomputation."""
    adj, parts, nparts, _, _, seed = case
    n = adj.shape[0]
    indptr, indices = adj.indptr.tolist(), adj.indices.tolist()
    state = VolumeState.build(adj, parts, nparts, np.ones(n))
    rng = np.random.default_rng(seed)
    for _ in range(3):
        deltas_of = [[state.move_deltas(indptr, indices, v, q)
                      for q in range(nparts)] for v in range(n)]
        x = int(rng.integers(n))
        p = state._parts[x]
        q = (p + 1 + int(rng.integers(nparts - 1))) % nparts
        _forget_deltas(deltas_of, indptr, indices, state._nbr, x, p, q)
        state.apply_move(indptr, indices, x, q, np.ones(n),
                         state.move_deltas(indptr, indices, x, q))
        for v, deltas in enumerate(deltas_of):
            for r, kept in enumerate(deltas or ()):
                if r != state._parts[v]:
                    assert kept == state.move_deltas(indptr, indices, v, r)


def test_no_src_module_imports_the_reference():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    assert not [path for path in src.rglob("*.py")
                if "partition_reference" in path.read_text()]
