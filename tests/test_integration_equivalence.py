"""Integration tests: distributed training is numerically equivalent to the
single-process reference.

This is the reproduction of the paper's correctness claim (Section 6.2):
"we observed no change in accuracy apart from floating-point rounding
errors" between the sparsity-oblivious and sparsity-aware implementations.
We verify something stronger — every distributed variant (1D / 1.5D,
oblivious / sparsity-aware, with and without partitioning) produces the
same per-epoch losses and final accuracy as the reference GCN, up to
floating-point rounding; and every registered (algorithm, sparsity-mode)
SpMM variant produces **bitwise identical** ``Z = M H`` on the simulated,
the real threaded and the real multi-process communicator backends.
(The randomized cross-backend matrix lives in
``tests/test_comm_conformance.py``.)
"""

import numpy as np
import pytest

from repro.comm import make_communicator
from repro.core import (BlockRowDistribution, DistDenseMatrix,
                        DistSparseMatrix, DistTrainConfig, ProcessGrid,
                        available_spmm_variants, spmm, train_distributed)
from repro.core.config import ALGORITHMS
from repro.core.engine import MODES
from repro.gcn import ReferenceTrainConfig, train_reference
from repro.graphs import gcn_normalize, load_dataset
from repro.graphs.generators import erdos_renyi_graph

EPOCHS = 8
LR = 0.08


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("protein", scale=0.05, n_features=14, n_classes=4,
                        seed=7)


@pytest.fixture(scope="module")
def reference(dataset):
    return train_reference(
        dataset.adjacency, dataset.node_data,
        ReferenceTrainConfig(epochs=EPOCHS, learning_rate=LR, hidden=16,
                             n_layers=3, seed=0))


def run_variant(dataset, **kwargs):
    config = DistTrainConfig(epochs=EPOCHS, learning_rate=LR, hidden=16,
                             n_layers=3, seed=0, **kwargs)
    return train_distributed(dataset, config, eval_every=0)


VARIANTS = [
    pytest.param(dict(n_ranks=1, algorithm="1d", sparsity_aware=True,
                      partitioner=None), id="1d-sa-p1"),
    pytest.param(dict(n_ranks=4, algorithm="1d", sparsity_aware=True,
                      partitioner=None), id="1d-sa-p4"),
    pytest.param(dict(n_ranks=4, algorithm="1d", sparsity_aware=False,
                      partitioner=None), id="1d-oblivious-p4"),
    pytest.param(dict(n_ranks=6, algorithm="1d", sparsity_aware=True,
                      partitioner="metis_like"), id="1d-sa-metis-p6"),
    pytest.param(dict(n_ranks=6, algorithm="1d", sparsity_aware=True,
                      partitioner="gvb"), id="1d-sa-gvb-p6"),
    pytest.param(dict(n_ranks=4, algorithm="1.5d", replication_factor=2,
                      sparsity_aware=True, partitioner=None), id="15d-sa-c2"),
    pytest.param(dict(n_ranks=4, algorithm="1.5d", replication_factor=2,
                      sparsity_aware=False, partitioner=None),
                 id="15d-oblivious-c2"),
    pytest.param(dict(n_ranks=8, algorithm="1.5d", replication_factor=2,
                      sparsity_aware=True, partitioner="gvb"),
                 id="15d-sa-gvb-c2-p8"),
    pytest.param(dict(n_ranks=16, algorithm="1.5d", replication_factor=4,
                      sparsity_aware=True, partitioner=None), id="15d-sa-c4"),
    pytest.param(dict(n_ranks=4, algorithm="1d", sparsity_aware=True,
                      partitioner="gvb", backend="threaded"),
                 id="1d-sa-gvb-threaded"),
    pytest.param(dict(n_ranks=4, algorithm="1.5d", replication_factor=2,
                      sparsity_aware=True, partitioner=None,
                      backend="threaded"), id="15d-sa-c2-threaded"),
    pytest.param(dict(n_ranks=4, algorithm="1d", sparsity_aware=True,
                      partitioner="gvb", backend="process"),
                 id="1d-sa-gvb-process"),
    pytest.param(dict(n_ranks=4, algorithm="1.5d", replication_factor=2,
                      sparsity_aware=True, partitioner=None,
                      backend="process"), id="15d-sa-c2-process"),
]


@pytest.mark.parametrize("variant", VARIANTS)
def test_loss_trajectory_matches_reference(dataset, reference, variant):
    result = run_variant(dataset, **variant)
    ref_losses = np.array([h.loss for h in reference.history])
    dist_losses = np.array([h.loss for h in result.history])
    np.testing.assert_allclose(dist_losses, ref_losses, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("variant", VARIANTS[:4])
def test_test_accuracy_matches_reference(dataset, reference, variant):
    result = run_variant(dataset, **variant)
    assert result.test_accuracy == pytest.approx(reference.test_accuracy,
                                                 abs=1e-12)


def test_all_schemes_agree_with_each_other(dataset):
    """Cross-check the distributed variants directly against one another."""
    losses = {}
    for variant in [dict(n_ranks=4, algorithm="1d", sparsity_aware=True,
                         partitioner=None),
                    dict(n_ranks=4, algorithm="1d", sparsity_aware=False,
                         partitioner=None),
                    dict(n_ranks=4, algorithm="1.5d", replication_factor=2,
                         sparsity_aware=True, partitioner=None)]:
        key = (variant["algorithm"], variant["sparsity_aware"])
        losses[key] = run_variant(dataset, **variant).final_loss
    values = list(losses.values())
    assert max(values) - min(values) < 1e-8


class TestSpmmEngineBackendMatrix:
    """Every registered (algorithm, mode) variant, on every backend, equals
    the dense NumPy reference — and the backends agree bit for bit."""

    N, F, P = 48, 6, 4

    @pytest.fixture(scope="class")
    def problem(self):
        adj = gcn_normalize(erdos_renyi_graph(self.N, avg_degree=6, seed=11))
        rng = np.random.default_rng(11)
        h = rng.normal(size=(self.N, self.F))
        return adj, h, adj @ h

    def _operands(self, algorithm, adj, h, replication=2):
        if algorithm == "1.5d":
            grid = ProcessGrid(self.P, replication)
            nblocks = grid.nrows
        else:
            grid, nblocks = None, self.P
        dist = BlockRowDistribution.uniform(self.N, nblocks)
        return (DistSparseMatrix(adj, dist),
                DistDenseMatrix.from_global(h, dist), grid)

    def test_registry_is_complete(self):
        """Exactly the trainable families are registered: every variant
        is one the trainer, planner and server accept, and every
        trainable (family, mode) has a plan class."""
        assert available_spmm_variants() == [
            ("1.5d", "oblivious"), ("1.5d", "sparsity_aware"),
            ("1d", "oblivious"), ("1d", "sparsity_aware"),
        ]
        assert available_spmm_variants() == sorted(
            (a, m) for a in ALGORITHMS for m in MODES)

    @pytest.mark.parametrize("algorithm,mode,replication", [
        pytest.param("1d", "oblivious", None, id="1d-oblivious"),
        pytest.param("1d", "sparsity_aware", None, id="1d-sparsity_aware"),
        pytest.param("1.5d", "oblivious", 2, id="1.5d-oblivious"),
        pytest.param("1.5d", "sparsity_aware", 2, id="1.5d-sparsity_aware"),
        pytest.param("1.5d", "oblivious", 1, id="1.5d-c1-oblivious"),
        pytest.param("1.5d", "sparsity_aware", 1,
                     id="1.5d-c1-sparsity_aware"),
    ])
    def test_variant_identical_across_backends(self, problem, algorithm, mode,
                                               replication):
        adj, h, reference = problem
        matrix, dense, grid = self._operands(algorithm, adj, h, replication)
        results = {}
        for backend in ("sim", "threaded", "process"):
            with make_communicator(self.P, backend=backend) as comm:
                z = spmm(matrix, dense, comm, algorithm=algorithm,
                         sparsity_aware=(mode == "sparsity_aware"), grid=grid)
            results[backend] = z.to_global()
            np.testing.assert_allclose(results[backend], reference, atol=1e-10)
        np.testing.assert_array_equal(results["sim"], results["threaded"])
        np.testing.assert_array_equal(results["sim"], results["process"])

    @pytest.mark.parametrize("backend", ["sim", "threaded", "process"])
    def test_engine_run_charges_timing_and_volume(self, problem, backend):
        """``spmm`` is compile-and-call-once: its product equals a
        compiled plan's, and the communicator it runs on accounts for
        the time and the messages of the call."""
        from repro.core.engine import compile as compile_spmm, spmm
        adj, h, reference = problem
        matrix, dense, _ = self._operands("1d", adj, h)
        with make_communicator(self.P, backend=backend) as comm:
            z = spmm(matrix, dense, comm, algorithm="1d",
                     sparsity_aware=True).to_global()
            assert comm.elapsed() > 0.0
            assert comm.events.total_bytes() > 0
            assert comm.events.message_count() > 0
            op = compile_spmm(matrix, comm, algorithm="1d",
                              sparsity_aware=True)
            assert (op.algorithm, op.mode) == ("1d", "sparsity_aware")
            planned = op(dense).to_global()
        np.testing.assert_allclose(z, reference, atol=1e-10)
        np.testing.assert_array_equal(z, planned)


def test_accuracy_is_meaningful(dataset):
    """The synthetic dataset is learnable: a fully-trained reference model
    scores well above chance, so the equivalence checks above are not
    comparing degenerate models."""
    trained = train_reference(
        dataset.adjacency, dataset.node_data,
        ReferenceTrainConfig(epochs=80, learning_rate=0.1, seed=0))
    chance = 1.0 / dataset.node_data.n_classes
    assert trained.test_accuracy > chance + 0.1
