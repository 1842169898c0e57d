"""Tests for the one distribution path (repro.core.distribute).

* The planner prices the matrix the trainer runs: for a resolved default
  config (float64, normalised) the planner's :class:`DistSparseMatrix`
  is bitwise the trainer's, for every partitioner and for none.
* A relabelling keeps every vertex's row at its new position.
* A supplied partition without a partitioner is an error, not ignored.
* No sixth copy: ``permutation_from_parts`` / ``symmetric_permutation``
  are called in ``src/repro`` only from ``core/distribute.py``.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AUTO, DistTrainConfig
from repro.core.distribute import distribute
from repro.core.trainer import setup_distributed
from repro.graphs import gcn_normalize, load_dataset
from repro.partition import get_partitioner
from repro.plan import resolve_config, score

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

SETTINGS = dict(max_examples=4, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])


def assert_bitwise_equal(left, right):
    assert left.dtype == right.dtype
    assert left.dist == right.dist
    for a, b in zip(left.block_rows, right.block_rows, strict=True):
        assert a.shape == b.shape
        for name in ("indptr", "indices", "data"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


class TestPlannerMatchesTrainer:
    @pytest.mark.parametrize("partitioner", ["gvb", "metis_like", None])
    @given(name=st.sampled_from(["amazon", "reddit", "protein"]),
           seed=st.integers(min_value=0, max_value=3))
    @settings(**SETTINGS)
    def test_resolved_config_matrix_is_the_trainers(self, partitioner, name,
                                                    seed, monkeypatch):
        dataset = load_dataset(name, scale=0.03, n_features=8, n_classes=3,
                               seed=seed)
        priced = {}

        def recording(adjacency, *key, **kwargs):
            result = distribute(adjacency, *key, **kwargs)
            priced[key] = result[0]
            return result

        monkeypatch.setattr(score, "distribute", recording)
        config = DistTrainConfig(n_ranks=4, algorithm=AUTO,
                                 partitioner=partitioner, seed=seed,
                                 machine="laptop")
        resolved, plan, _ = resolve_config(dataset, config, use_cache=False,
                                           probe=False)
        assert plan is not None
        assert resolved.dtype == "float64"
        setup = setup_distributed(dataset, resolved)
        with setup.comm:
            assert_bitwise_equal(
                priced[resolved.partitioner, resolved.n_block_rows],
                setup.model.adjacency)


class TestDistribute:
    def test_relabelling_moves_each_row_to_its_new_position(self):
        ds = load_dataset("reddit", scale=0.05, n_features=6, n_classes=3,
                          seed=0)
        matrix, perm, part = distribute(ds.adjacency, "random", 4)
        assert part.method == "random"
        # Vertices of each part are contiguous, in part order.
        assert np.array_equal(np.sort(perm[part.parts == 0]),
                              np.arange(matrix.dist.block_size(0)))
        # Degree of vertex v is preserved at its new position.
        deg_new = np.concatenate([np.diff(rows.indptr)
                                  for rows in matrix.block_rows])
        np.testing.assert_array_equal(
            deg_new[perm], np.diff(gcn_normalize(ds.adjacency).indptr))

    def test_natural_blocks_have_no_relabelling(self):
        ds = load_dataset("reddit", scale=0.05, seed=0)
        matrix, perm, part = distribute(ds.adjacency, None, 3)
        assert perm is None and part is None
        assert matrix.dist.block_sizes.sum() == ds.n_vertices

    def test_supplied_partition_needs_a_partitioner(self):
        """A partition with ``partitioner=None`` is an error, in
        ``distribute`` and in ``setup_distributed`` alike."""
        ds = load_dataset("amazon", scale=0.05, seed=0)
        supplied = get_partitioner("gvb", seed=0).partition(ds.adjacency, 4)
        with pytest.raises(ValueError, match="without a partitioner"):
            distribute(ds.adjacency, None, 4, partition=supplied)
        config = DistTrainConfig(n_ranks=4, partitioner=None, epochs=1)
        with pytest.raises(ValueError, match="without a partitioner"):
            setup_distributed(ds, config, partition=supplied)


def test_permutation_is_applied_only_in_distribute():
    """The partition -> relabel -> distribute step has one home."""
    relabelling = {"permutation_from_parts", "symmetric_permutation"}
    callers = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            if name in relabelling:
                callers.add(path.relative_to(SRC).as_posix())
    assert callers == {"core/distribute.py"}
