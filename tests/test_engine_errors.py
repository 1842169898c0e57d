"""Error paths of the SpMM engine, config and backend plumbing.

The engine is the seam every caller goes through, so its failures must be
*clear* ``ValueError``s naming what was wrong — not index errors three
frames deep inside a kernel.  Covers: unknown variant/backend names,
mismatched operand shapes/distributions, and rank-count / process-grid
mismatches.
"""

import numpy as np
import pytest

from repro.comm import make_communicator
from repro.core import (BlockRowDistribution, DistDenseMatrix,
                        DistSparseMatrix, DistTrainConfig, ProcessGrid,
                        spmm)
from repro.core import engine as engine_mod
from repro.core.engine import (check_block_operands, check_grid_operands,
                               compile as compile_spmm, get_spmm,
                               register_spmm_compiler)
from repro.graphs import gcn_normalize
from repro.graphs.generators import erdos_renyi_graph

N, F = 32, 5
VARIANTS = [("1d", "oblivious"), ("1d", "sparsity_aware"),
            ("1.5d", "oblivious"), ("1.5d", "sparsity_aware")]


@pytest.fixture(scope="module")
def problem():
    adj = gcn_normalize(erdos_renyi_graph(N, avg_degree=5, seed=2))
    rng = np.random.default_rng(2)
    return adj, rng.normal(size=(N, F))


def _operands_1d(adj, h, nblocks):
    dist = BlockRowDistribution.uniform(N, nblocks)
    return DistSparseMatrix(adj, dist), DistDenseMatrix.from_global(h, dist)


class TestUnknownNames:
    def test_unknown_algorithm_lists_available(self, problem):
        adj, h = problem
        matrix, dense = _operands_1d(adj, h, 4)
        comm = make_communicator(4)
        with pytest.raises(ValueError, match=r"no SpMM variant.*3d"):
            spmm(matrix, dense, comm, algorithm="3d")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="oblivious"):
            get_spmm("1d", mode="half_aware")

    def test_engine_rejects_unknown_variant(self):
        comm = make_communicator(2)
        with pytest.raises(ValueError, match="available"):
            compile_spmm(None, comm, algorithm="4d")

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ValueError, match=r"carrier-pigeon.*sim"):
            make_communicator(4, backend="carrier-pigeon")

    def test_config_rejects_unknown_backend_and_algorithm(self):
        with pytest.raises(ValueError, match="backend"):
            DistTrainConfig(backend="mpi-someday")
        with pytest.raises(ValueError, match="algorithm"):
            DistTrainConfig(algorithm="2.5d")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_spmm_compiler("1d", "oblivious")(type("Dup", (), {}))

    def test_bad_mode_registration_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            register_spmm_compiler("9d", "telepathic")


class TestGridRequirements:
    def test_grid_algorithm_without_grid(self, problem):
        adj, h = problem
        matrix, dense = _operands_1d(adj, h, 2)
        comm = make_communicator(4)
        with pytest.raises(ValueError, match="requires a process grid"):
            spmm(matrix, dense, comm, algorithm="1.5d")
        with pytest.raises(ValueError, match="requires a process grid"):
            compile_spmm(matrix, comm, algorithm="1.5d")

    def test_gridless_algorithm_with_grid(self, problem):
        adj, h = problem
        matrix, dense = _operands_1d(adj, h, 4)
        comm = make_communicator(4)
        grid = ProcessGrid(4, 2)
        with pytest.raises(ValueError, match="does not take a process grid"):
            spmm(matrix, dense, comm, algorithm="1d", grid=grid)
        with pytest.raises(ValueError, match="does not take a process grid"):
            compile_spmm(matrix, comm, algorithm="1d", grid=grid)

    @pytest.mark.parametrize("algorithm,mode", VARIANTS)
    def test_variant_checks_its_grid(self, algorithm, mode):
        """Every registered variant carries the one grid-presence check:
        1.5D needs a grid, 1D refuses one."""
        variant = get_spmm(algorithm, mode=mode)
        assert variant.needs_grid == (algorithm == "1.5d")
        grid = ProcessGrid(4, 2)
        if variant.needs_grid:
            variant.check_grid(grid)
            with pytest.raises(ValueError, match="requires a process grid"):
                variant.check_grid(None)
        else:
            variant.check_grid(None)
            with pytest.raises(ValueError,
                               match="does not take a process grid"):
                variant.check_grid(grid)

    def test_invalid_process_grid(self):
        with pytest.raises(ValueError):
            ProcessGrid(6, 4)      # c must divide P
        with pytest.raises(ValueError):
            ProcessGrid(8, 0)


class TestOperandMismatches:
    def test_rank_count_mismatch_1d(self, problem):
        adj, h = problem
        matrix, dense = _operands_1d(adj, h, 4)
        comm = make_communicator(6)
        with pytest.raises(ValueError, match=r"4 block rows.*6 ranks"):
            check_block_operands(matrix, comm)
        with pytest.raises(ValueError, match=r"block rows"):
            spmm(matrix, dense, comm, algorithm="1d")

    def test_distribution_mismatch_1d(self, problem):
        adj, h = problem
        matrix, _ = _operands_1d(adj, h, 4)
        other = BlockRowDistribution.uniform(N, 2)
        dense = DistDenseMatrix.from_global(h, other)
        comm = make_communicator(4)
        with pytest.raises(ValueError, match="different distribution"):
            spmm(matrix, dense, comm, algorithm="1d")

    def test_grid_mismatches_15d(self, problem):
        adj, h = problem
        grid = ProcessGrid(4, 2)
        matrix, _ = _operands_1d(adj, h, grid.nrows)
        with pytest.raises(ValueError, match=r"communicator has 6 ranks"):
            check_grid_operands(matrix, grid, make_communicator(6))
        wrong_rows, _ = _operands_1d(adj, h, 4)
        with pytest.raises(ValueError, match="block rows"):
            check_grid_operands(wrong_rows, grid, make_communicator(4))

    @pytest.mark.parametrize("sparsity_aware", (False, True))
    def test_compile_checks_the_matrix_against_the_communicator(
            self, problem, sparsity_aware):
        """Compiling needs no dense operand: it checks the matrix, the
        grid and the communicator alone."""
        adj, h = problem
        comm = make_communicator(6)
        matrix, _ = _operands_1d(adj, h, 4)
        with pytest.raises(ValueError, match=r"4 block rows.*6 ranks"):
            engine_mod.compile(matrix, comm, sparsity_aware=sparsity_aware)
        grid = ProcessGrid(4, 2)
        matrix, _ = _operands_1d(adj, h, grid.nrows)
        with pytest.raises(ValueError, match="communicator has 6 ranks"):
            engine_mod.compile(matrix, comm, algorithm="1.5d", grid=grid,
                               sparsity_aware=sparsity_aware)

    @pytest.mark.parametrize("algorithm,mode", VARIANTS)
    def test_each_call_checks_its_dense_operand(self, problem, algorithm,
                                                mode):
        """A compiled plan of any variant rejects a dense operand of
        another dtype or distribution before it moves a byte."""
        adj, h = problem
        grid = ProcessGrid(4, 2) if algorithm == "1.5d" else None
        nblocks = grid.nrows if grid is not None else 4
        matrix, dense = _operands_1d(adj, h, nblocks)
        with make_communicator(4) as comm:
            op = engine_mod.compile(matrix, comm, algorithm=algorithm,
                                    mode=mode, grid=grid)
            f32 = DistDenseMatrix.from_global(h, matrix.dist,
                                              dtype=np.float32)
            with pytest.raises(ValueError, match="dtype"):
                op(f32)
            other = DistDenseMatrix.from_global(
                h, BlockRowDistribution([N - nblocks + 1]
                                        + [1] * (nblocks - 1)))
            with pytest.raises(ValueError, match="different distribution"):
                op(other)
            assert op.calls == 0 and comm.events.message_count() == 0
            np.testing.assert_allclose(op(dense).to_global(), adj @ h,
                                       atol=1e-10)

    @pytest.mark.parametrize("backend", ["sim", "threaded", "process"])
    def test_grid_mismatches_raise_before_any_transport(self, problem,
                                                        backend):
        """A 1.5D grid that disagrees with the communicator or with the
        matrix's block rows fails before workers move a single byte."""
        adj, h = problem
        grid = ProcessGrid(8, 2)
        matrix, dense = _operands_1d(adj, h, grid.nrows)
        with make_communicator(4, backend=backend) as comm:
            with pytest.raises(ValueError, match="grid expects 8"):
                spmm(matrix, dense, comm, algorithm="1.5d", grid=grid)
            wrong_rows, wrong_dense = _operands_1d(adj, h, 4)
            with pytest.raises(ValueError, match="block rows"):
                spmm(wrong_rows, wrong_dense, comm, algorithm="1.5d",
                     grid=ProcessGrid(4, 2))
            assert comm.events.message_count() == 0
            assert comm.elapsed() == 0.0

    @pytest.mark.parametrize("backend", ["sim", "threaded", "process"])
    def test_mismatches_raise_before_any_transport(self, problem, backend):
        """Operand validation fires before workers move a single byte."""
        adj, h = problem
        matrix, dense = _operands_1d(adj, h, 4)
        with make_communicator(3, backend=backend) as comm:
            with pytest.raises(ValueError):
                spmm(matrix, dense, comm, algorithm="1d")
            assert comm.events.message_count() == 0
            assert comm.elapsed() == 0.0


class TestTrainerErrorPaths:
    def test_too_many_block_rows(self):
        from repro.core import train_distributed
        from repro.graphs import load_dataset
        dataset = load_dataset("reddit", scale=0.05, seed=0)
        config = DistTrainConfig(n_ranks=10 * dataset.n_vertices, epochs=1,
                                 partitioner=None)
        with pytest.raises(ValueError, match="cannot distribute"):
            train_distributed(dataset, config)

    def test_setup_failure_closes_communicator(self, monkeypatch):
        """A failure after the communicator exists must not leak workers."""
        import repro.core.trainer as trainer_mod
        from repro.graphs import load_dataset
        closed = []

        real_make = trainer_mod.make_communicator

        def tracking_make(*args, **kwargs):
            comm = real_make(*args, **kwargs)
            original_close = comm.close

            def close():
                closed.append(True)
                original_close()

            comm.close = close
            return comm

        monkeypatch.setattr(trainer_mod, "make_communicator", tracking_make)
        monkeypatch.setattr(trainer_mod, "DistributedGCN",
                            lambda *a, **k: (_ for _ in ()).throw(
                                ValueError("model construction failed")))
        dataset = load_dataset("reddit", scale=0.05, seed=0)
        with pytest.raises(ValueError, match="model construction failed"):
            trainer_mod.setup_distributed(
                dataset, DistTrainConfig(n_ranks=2, epochs=1,
                                         partitioner=None))
        assert closed, "setup_distributed must close the communicator"
