"""The shipped refiners against the straightforward reference loops.

``edgecut_refine``, ``rebalance`` and ``volume_refine`` skip work that
cannot change a decision: idle vertices, kept move deltas, moves pruned
before they are priced, one numpy pass per ``rebalance`` move.  Skipping
must not move a vertex, so on random graphs they must return exactly the
``(parts, moves)`` of the loops in ``tests/partition_reference.py``, which
evaluate everything every time.  The graphs mix hubs, stars, self-loops,
non-integer edge weights and vertex weights, with 2 to 16 parts from
random or skewed starting partitions.

The state the refiners keep across moves (``CutState``'s external-degree
counts, part copy, connectivities and idle markers; ``volume_refine``'s
live delta lists; ``DeltaBatch``'s numpy copies; ``rebalance``'s
``KeptRows``) is checked against a fresh recomputation after every move.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import partition_reference as reference
from repro.partition.refine import (_IDLE, KeptRows, CutState, LevelGraph,
                                    connectivity_rows, edgecut_refine,
                                    rebalance)
from repro.partition.volume_refine import (DeltaBatch, VolumeState,
                                           _forget_deltas,
                                           neighbour_part_counts,
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


def live_deltas(state, indptr, indices, v):
    """``v``'s live deltas recomputed one move at a time: ``(q,
    move_deltas(v, q))`` for each part ``q`` other than its own that holds
    a neighbour, if the deltas lower the total or some part's volume."""
    out = []
    for q in range(len(state._send)):
        if q != state._parts[v] and state._nbr[v][q]:
            delta = state.move_deltas(indptr, indices, v, q)
            if delta.total < 0 or min(delta.delta_send) < 0 or \
                    min(delta.delta_recv) < 0:
                out.append((q, delta))
    return out


def _delta_batch(adj, state, parts, nparts):
    graph = LevelGraph(adj)
    return DeltaBatch(graph, state, neighbour_part_counts(graph, parts,
                                                          nparts))


def _random_moves(state_parts, n, nparts, rng, count):
    """``count`` random ``(vertex, new part)`` moves, drawn as they go."""
    for _ in range(count):
        x = int(rng.integers(n))
        p = state_parts[x]
        yield x, (p + 1 + int(rng.integers(nparts - 1))) % nparts


@settings(**dict(SETTINGS, max_examples=40))
@given(refine_case(float_weights=False))
def test_kept_deltas_equal_fresh_ones_after_a_move(case):
    """Every live list ``_forget_deltas`` keeps, idle markers (``[]``)
    included, equals a recomputation after every move."""
    adj, parts, nparts, _, _, seed = case
    n = adj.shape[0]
    indptr, indices = adj.indptr.tolist(), adj.indices.tolist()
    state = VolumeState.build(adj, parts, nparts, np.ones(n))
    deltas_of = [live_deltas(state, indptr, indices, v) for v in range(n)]
    for x, q in _random_moves(state._parts, n, nparts,
                              np.random.default_rng(seed), 6):
        _forget_deltas(deltas_of, indptr, indices, state, x, q)
        state.apply_move(indptr, indices, x, q, np.ones(n),
                         state.move_deltas(indptr, indices, x, q))
        for v, kept in enumerate(deltas_of):
            if kept is not None:
                assert kept == live_deltas(state, indptr, indices, v)
        # refill what was dropped, as a later visit would
        deltas_of = [kept if kept is not None else
                     live_deltas(state, indptr, indices, v)
                     for v, kept in enumerate(deltas_of)]


@settings(**dict(SETTINGS, max_examples=40))
@given(refine_case(float_weights=False))
def test_live_deltas_are_the_moves_that_can_improve(case):
    """``DeltaBatch`` keeps exactly the candidate moves whose deltas lower
    the total or some part's volume: the rest cost >= 0 under any
    bottleneck, and a vertex with none left cannot move."""
    adj, parts, nparts, _, _, _ = case
    n = adj.shape[0]
    indptr, indices = adj.indptr.tolist(), adj.indices.tolist()
    state = VolumeState.build(adj, parts, nparts, np.ones(n))
    got = _delta_batch(adj, state, parts, nparts).live_deltas(
        list(range(n)))
    for v in range(n):
        want = []
        for q in range(nparts):
            if q == state._parts[v] or not state._nbr[v][q]:
                continue
            delta = state.move_deltas(indptr, indices, v, q)
            if delta.total < 0 or min(delta.delta_send) < 0 or \
                    min(delta.delta_recv) < 0:
                want.append((q, delta))
            else:   # never priced: it costs >= 0 whatever the weighting
                bottleneck = max(state._send + state._recv)
                for weight in (0.0, 0.5, 1.0, nparts / 2.0):
                    assert state.cost_change(delta, weight, bottleneck) >= 0
        assert got[v] == want


@settings(**dict(SETTINGS, max_examples=40))
@given(ANY_WEIGHTS)
def test_cut_state_equals_a_fresh_one_after_every_move(case):
    """``CutState``'s external-degree counts, numpy part copy, kept
    connectivities (filled by ``connectivity_rows``, as the refiner fills
    them) and idle markers equal a recomputation after every move."""
    adj, parts, nparts, vw, _, seed = case
    n = adj.shape[0]
    vw = np.ones(n) if vw is None else vw
    graph = LevelGraph(adj)
    data = graph.csr.data.tolist()
    state = CutState(graph, np.asarray(parts, dtype=np.int64).copy(), vw,
                     nparts)
    rng = np.random.default_rng(seed)
    for x, q in _random_moves(state.part_of, n, nparts, rng, 6):
        # what a pass would have cached, then the move (of a vertex the
        # refiner could move: never an idle one)
        missing = [v for v in range(n)
                   if state.conn_of[v] is None and rng.random() < 0.7]
        for v, conn in zip(missing, connectivity_rows(
                graph.csr, state.parts, np.array(missing, dtype=np.int64),
                nparts).tolist()):
            p = state.part_of[v]
            idle = all(conn[r] - conn[p] < 0 for r in range(nparts)
                       if r != p and conn[r] > 0)
            state.conn_of[v] = _IDLE if idle else conn
        if state.conn_of[x] is _IDLE:
            continue
        state.move(x, q, float(vw[x]))

        fresh = CutState(graph, np.array(state.part_of), vw, nparts)
        assert state.ext == fresh.ext
        assert state.weights == pytest.approx(fresh.weights)
        np.testing.assert_array_equal(state.parts, state.part_of)
        for v, kept in enumerate(state.conn_of):
            conn = reference._connectivity(graph.indptr, graph.indices,
                                           data, state.part_of, v, nparts)
            if kept is _IDLE:
                p = state.part_of[v]
                assert all(conn[r] - conn[p] < 0 for r in range(nparts)
                           if r != p and conn[r] > 0)
            elif kept is not None:
                assert kept == conn


@settings(**dict(SETTINGS, max_examples=40))
@given(refine_case(float_weights=False))
def test_batched_deltas_equal_scalar_ones_after_every_move(case):
    """``DeltaBatch`` prices vertices from numpy copies of the parts and
    neighbour-part counts that it keeps across moves: after every move its
    live lists equal ones recomputed a move at a time by
    ``VolumeState.move_deltas``."""
    adj, parts, nparts, _, _, seed = case
    n = adj.shape[0]
    indptr, indices = adj.indptr.tolist(), adj.indices.tolist()
    state = VolumeState.build(adj, parts, nparts, np.ones(n))
    batch = _delta_batch(adj, state, parts, nparts)
    rng = np.random.default_rng(seed)
    for x, q in _random_moves(state._parts, n, nparts, rng, 6):
        vertices = rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist()
        assert batch.live_deltas(vertices) == \
            [live_deltas(state, indptr, indices, v) for v in vertices]
        batch.note_move(x, state._parts[x], q)
        state.apply_move(indptr, indices, x, q, np.ones(n),
                         state.move_deltas(indptr, indices, x, q))
        np.testing.assert_array_equal(batch.parts, state._parts)
    assert batch.live_deltas(list(range(n))) == \
        [live_deltas(state, indptr, indices, v) for v in range(n)]
    np.testing.assert_array_equal(batch.counts, state.nbr_part_count)


@settings(**dict(SETTINGS, max_examples=40))
@given(ANY_WEIGHTS)
def test_rebalance_rows_equal_fresh_ones_after_every_move(case):
    """Every row ``KeptRows`` hands out equals a fresh
    ``connectivity_rows`` bit for bit, after every move."""
    adj, parts, nparts, _, _, seed = case
    n = adj.shape[0]
    parts = np.asarray(parts, dtype=np.int64).copy()
    kept = KeptRows(adj, parts, nparts)
    rng = np.random.default_rng(seed)
    for x, q in _random_moves(parts, n, nparts, rng, 8):
        sample = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        got = kept.rows(sample)
        want = connectivity_rows(adj, parts, sample, nparts)
        assert got.tobytes() == want.tobytes()
        parts[x] = q
        kept.moved(x)


def test_no_src_module_imports_the_reference():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    assert not [path for path in src.rglob("*.py")
                if "partition_reference" in path.read_text()]
