"""Tests for the distributed GCN model (forward/backward/step mechanics)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.comm import make_communicator
from repro.core import (Algorithm, BlockRowDistribution, DeferredScalar,
                        DistSparseMatrix, DistributedGCN, ProcessGrid)
from repro.gcn import GCNModel, softmax
from repro.graphs import gcn_normalize, load_dataset


@pytest.fixture(scope="module")
def problem():
    ds = load_dataset("reddit", scale=0.05, n_features=10, n_classes=4, seed=2)
    matrix = gcn_normalize(ds.adjacency)
    return ds, matrix


def build_model(ds, matrix, p=4, algorithm=Algorithm.ONE_D, c=1,
                sparsity_aware=True, seed=0, grad_overlap=False):
    nblocks = p // c if algorithm == Algorithm.ONE_POINT_FIVE_D else p
    dist = BlockRowDistribution.uniform(matrix.shape[0], nblocks)
    comm = make_communicator(p)
    grid = ProcessGrid(p, c) if algorithm == Algorithm.ONE_POINT_FIVE_D else None
    model = DistributedGCN(
        adjacency_dist=DistSparseMatrix(matrix, dist),
        features=ds.node_data.features.astype(np.float64),
        labels=ds.node_data.labels,
        train_mask=ds.node_data.train_mask,
        layer_dims=[ds.node_data.n_features, 8, ds.node_data.n_classes],
        comm=comm,
        algorithm=algorithm,
        sparsity_aware=sparsity_aware,
        grid=grid,
        seed=seed,
        grad_overlap=grad_overlap,
    )
    return model, comm


class TestConstruction:
    def test_requires_grid_for_15d(self, problem):
        ds, matrix = problem
        dist = BlockRowDistribution.uniform(matrix.shape[0], 2)
        with pytest.raises(ValueError, match="requires a process grid"):
            DistributedGCN(
                adjacency_dist=DistSparseMatrix(matrix, dist),
                features=ds.node_data.features.astype(np.float64),
                labels=ds.node_data.labels,
                train_mask=ds.node_data.train_mask,
                layer_dims=[ds.node_data.n_features, 8, ds.node_data.n_classes],
                comm=make_communicator(4),
                algorithm=Algorithm.ONE_POINT_FIVE_D,
                grid=None,
            )

    def test_cached_schedule_requires_an_exactly_symmetric_adjacency(
            self, problem):
        """The narrow-side backward reassociates through ``A = A^T``, so
        the cached schedule checks symmetry once, at construction."""
        ds, matrix = problem
        dist = BlockRowDistribution.uniform(matrix.shape[0], 4)
        skewed = matrix.tolil(copy=True)
        i, j = matrix.nonzero()
        off = np.flatnonzero(i != j)[0]
        skewed[i[off], j[off]] = 2.0 * matrix[i[off], j[off]]
        asymmetric = DistSparseMatrix(skewed.tocsr(), dist)
        assert asymmetric.asymmetric_entries() == 2
        assert DistSparseMatrix(matrix, dist).asymmetric_entries() == 0

        def build(adjacency, cached):
            return DistributedGCN(
                adjacency_dist=adjacency,
                features=ds.node_data.features.astype(np.float64),
                labels=ds.node_data.labels,
                train_mask=ds.node_data.train_mask,
                layer_dims=[ds.node_data.n_features, 8,
                            ds.node_data.n_classes],
                comm=make_communicator(4),
                cache_input_propagation=cached)

        with pytest.raises(ValueError, match="adjacency_dist is not exactly "
                                             r"symmetric \(2 entries"):
            build(asymmetric, cached=True)
        build(asymmetric, cached=False)      # the paper's schedule: no check
        build(DistSparseMatrix(matrix, dist), cached=True)

    def test_symmetry_is_checked_once_per_matrix(self, problem, monkeypatch):
        """A ``DistSparseMatrix`` never changes, so every model built over
        one matrix shares a single symmetry check (one stacked copy)."""
        ds, matrix = problem
        dist = BlockRowDistribution.uniform(matrix.shape[0], 4)
        stacks = []
        vstack = sp.vstack

        def counting_vstack(*args, **kwargs):
            stacks.append(args)
            return vstack(*args, **kwargs)

        monkeypatch.setattr(sp, "vstack", counting_vstack)
        adjacency = DistSparseMatrix(matrix, dist)
        for _ in range(2):
            DistributedGCN(
                adjacency_dist=adjacency,
                features=ds.node_data.features,
                labels=ds.node_data.labels,
                train_mask=ds.node_data.train_mask,
                layer_dims=[ds.node_data.n_features, 8,
                            ds.node_data.n_classes],
                comm=make_communicator(4),
                cache_input_propagation=True)
        assert len(stacks) == 1
        assert adjacency.asymmetric_entries() == 0
        assert len(stacks) == 1

    def test_rejects_block_rank_mismatch_for_1d(self, problem):
        ds, matrix = problem
        dist = BlockRowDistribution.uniform(matrix.shape[0], 2)
        with pytest.raises(ValueError, match=r"2 block rows.*4 ranks"):
            DistributedGCN(
                adjacency_dist=DistSparseMatrix(matrix, dist),
                features=ds.node_data.features.astype(np.float64),
                labels=ds.node_data.labels,
                train_mask=ds.node_data.train_mask,
                layer_dims=[ds.node_data.n_features, 8, ds.node_data.n_classes],
                comm=make_communicator(4),   # 4 ranks but only 2 block rows
                algorithm=Algorithm.ONE_D,
            )

    def test_rejects_feature_width_mismatch(self, problem):
        ds, matrix = problem
        dist = BlockRowDistribution.uniform(matrix.shape[0], 2)
        with pytest.raises(ValueError):
            DistributedGCN(
                adjacency_dist=DistSparseMatrix(matrix, dist),
                features=ds.node_data.features.astype(np.float64),
                labels=ds.node_data.labels,
                train_mask=ds.node_data.train_mask,
                layer_dims=[999, 8, ds.node_data.n_classes],
                comm=make_communicator(2),
            )

    def test_rejects_empty_train_mask(self, problem):
        ds, matrix = problem
        dist = BlockRowDistribution.uniform(matrix.shape[0], 2)
        with pytest.raises(ValueError):
            DistributedGCN(
                adjacency_dist=DistSparseMatrix(matrix, dist),
                features=ds.node_data.features.astype(np.float64),
                labels=ds.node_data.labels,
                train_mask=np.zeros(matrix.shape[0], dtype=bool),
                layer_dims=[ds.node_data.n_features, 8, ds.node_data.n_classes],
                comm=make_communicator(2),
            )

    def test_unknown_algorithm(self, problem):
        ds, matrix = problem
        dist = BlockRowDistribution.uniform(matrix.shape[0], 2)
        with pytest.raises(ValueError, match="no SpMM variant"):
            DistributedGCN(
                adjacency_dist=DistSparseMatrix(matrix, dist),
                features=ds.node_data.features.astype(np.float64),
                labels=ds.node_data.labels,
                train_mask=ds.node_data.train_mask,
                layer_dims=[ds.node_data.n_features, 8, ds.node_data.n_classes],
                comm=make_communicator(2),
                algorithm="3d",
            )


class TestForwardBackward:
    def test_forward_matches_reference(self, problem):
        ds, matrix = problem
        dist_model, _ = build_model(ds, matrix, p=4)
        ref = GCNModel([ds.node_data.n_features, 8, ds.node_data.n_classes],
                       seed=0)
        ref_state = ref.forward(matrix, ds.node_data.features.astype(np.float64))
        caches = dist_model.forward()
        np.testing.assert_allclose(caches[-1].h_out.to_global(),
                                   ref_state.logits, atol=1e-9)

    def test_loss_matches_reference(self, problem):
        ds, matrix = problem
        dist_model, _ = build_model(ds, matrix, p=4)
        ref = GCNModel([ds.node_data.n_features, 8, ds.node_data.n_classes],
                       seed=0)
        feats = ds.node_data.features.astype(np.float64)
        ref_state = ref.forward(matrix, feats)
        ref_loss, _ = ref.loss_and_logits_grad(
            ref_state.logits, ds.node_data.labels, ds.node_data.train_mask)
        caches = dist_model.forward()
        dist_loss, _ = dist_model.loss_and_logits_grad(caches[-1].h_out)
        assert dist_loss == pytest.approx(ref_loss, rel=1e-9)

    def test_weight_gradients_match_reference(self, problem):
        ds, matrix = problem
        dist_model, _ = build_model(ds, matrix, p=4)
        ref = GCNModel([ds.node_data.n_features, 8, ds.node_data.n_classes],
                       seed=0)
        feats = ds.node_data.features.astype(np.float64)
        ref_state = ref.forward(matrix, feats)
        _, ref_grad_logits = ref.loss_and_logits_grad(
            ref_state.logits, ds.node_data.labels, ds.node_data.train_mask)
        ref_grads = ref.backward(matrix, ref_state, ref_grad_logits)

        caches = dist_model.forward()
        _, grad_logits = dist_model.loss_and_logits_grad(caches[-1].h_out)
        dist_grads = dist_model.backward(caches, grad_logits)
        for ref_g, dist_g in zip(ref_grads, dist_grads):
            np.testing.assert_allclose(dist_g, ref_g, atol=1e-9)

    def test_train_epoch_updates_weights_and_returns_loss(self, problem):
        ds, matrix = problem
        dist_model, _ = build_model(ds, matrix, p=4)
        before = [w.copy() for w in dist_model.weights]
        loss = dist_model.train_epoch(lr=0.1)
        assert np.isfinite(loss)
        assert any(not np.allclose(b, w)
                   for b, w in zip(before, dist_model.weights))

    def test_apply_gradients_validation(self, problem):
        ds, matrix = problem
        dist_model, _ = build_model(ds, matrix, p=4)
        with pytest.raises(ValueError):
            dist_model.apply_gradients([np.zeros((2, 2))], lr=0.1)

    def test_predictions_shape_and_range(self, problem):
        ds, matrix = problem
        dist_model, _ = build_model(ds, matrix, p=4)
        preds = dist_model.predictions()
        assert preds.shape == (ds.n_vertices,)
        assert preds.min() >= 0 and preds.max() < ds.node_data.n_classes


def _spy_allreduces(comm):
    """Record ``(method, category, operands)`` of every blocking or
    posted all-reduce on ``comm``."""
    calls = []
    for name in ("allreduce", "iallreduce"):
        def spy(operands, *args, _name=name, _inner=getattr(comm, name),
                **kwargs):
            calls.append((_name, kwargs.get("category"),
                          [np.array(o) for o in operands]))
            return _inner(operands, *args, **kwargs)
        setattr(comm, name, spy)
    return calls


LOSS_LAYOUTS = [pytest.param(Algorithm.ONE_D, 1, id="1d"),
                pytest.param(Algorithm.ONE_POINT_FIVE_D, 2, id="1.5d-c2")]


class TestLossReduction:
    """The loss all-reduce always goes through the gradient exchanger."""

    @pytest.mark.parametrize("algorithm,c", LOSS_LAYOUTS)
    def test_overlap_posts_the_loss_under_gradsync(self, problem, algorithm,
                                                    c):
        """A direct call on an overlapping model defers the reduction:
        one ``gradsync`` post, no blocking all-reduce, and the resolved
        value is the blocking model's loss."""
        ds, matrix = problem
        model, comm = build_model(ds, matrix, algorithm=algorithm, c=c,
                                  grad_overlap=True)
        logits = model.forward()[-1].h_out
        calls = _spy_allreduces(comm)
        loss, _ = model.loss_and_logits_grad(logits)
        assert isinstance(loss, DeferredScalar)
        assert [call[:2] for call in calls] == [("iallreduce", "gradsync")]
        plain, _ = build_model(ds, matrix, algorithm=algorithm, c=c)
        want, _ = plain.loss_and_logits_grad(plain.forward()[-1].h_out)
        assert loss.value() == want

    @pytest.mark.parametrize("algorithm,c", LOSS_LAYOUTS)
    def test_without_overlap_one_blocking_allreduce(self, problem, algorithm,
                                                    c):
        """Without overlap the call issues one blocking ``allreduce``
        whose operands are each block's masked ``-log p`` sum on its
        first owner and zero on every other rank, and the loss is that
        sum over the training-vertex count, bit for bit."""
        ds, matrix = problem
        model, comm = build_model(ds, matrix, algorithm=algorithm, c=c)
        logits = model.forward()[-1].h_out
        calls = _spy_allreduces(comm)
        loss, _ = model.loss_and_logits_grad(logits)
        assert [call[:2] for call in calls] == [("allreduce", "allreduce")]
        want = [np.zeros(1) for _ in range(comm.nranks)]
        for block in range(model.dist.nblocks):
            lo, hi = model.dist.block_range(block)
            labels = model.labels[lo:hi]
            idx = np.flatnonzero(model.train_mask[lo:hi])
            picked = softmax(logits.block(block))[idx, labels[idx]]
            owner = block if model.grid is None else \
                model.grid.row_group(block)[0]
            want[owner] = np.array(
                [float(-np.log(np.clip(picked, 1e-12, None)).sum())])
        operands = calls[0][2]
        assert len(operands) == comm.nranks
        for got, expected in zip(operands, want):
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
        reduced = make_communicator(comm.nranks).allreduce(want)
        assert loss == float(reduced[0][0]) / model.n_train


class TestBlockwise:
    """Per-block dense work runs through one runner on each block's lead."""

    @staticmethod
    def _leads(model):
        return [block if model.grid is None else model.grid.row_group(block)[0]
                for block in range(model.dist.nblocks)]

    @pytest.mark.parametrize("algorithm,c", LOSS_LAYOUTS)
    def test_one_task_per_block_on_its_lead(self, problem, algorithm, c):
        """``_blockwise(step)`` issues one ``local`` ``parallel_for`` with
        a task per block row on the block's first owner, and returns the
        steps' results in block order."""
        ds, matrix = problem
        model, comm = build_model(ds, matrix, algorithm=algorithm, c=c)
        calls = []
        inner = comm.parallel_for

        def spy(tasks, ranks=None, category="local"):
            calls.append((len(tasks), list(ranks), category))
            return inner(tasks, ranks=ranks, category=category)

        comm.parallel_for = spy
        results = model._blockwise(lambda block: ("ran", block))
        nblocks = model.dist.nblocks
        assert results == [("ran", block) for block in range(nblocks)]
        assert calls == [(nblocks, self._leads(model), "local")]

    @pytest.mark.parametrize("algorithm,c", LOSS_LAYOUTS)
    def test_lead_operands_count_a_replicated_block_once(self, problem,
                                                         algorithm, c):
        """Each block's part lands on its lead rank only; every other
        rank contributes zeros of the part's shape and dtype, so the
        reduced sum counts each block once."""
        ds, matrix = problem
        model, comm = build_model(ds, matrix, algorithm=algorithm, c=c)
        parts = [np.full((2, 3), block + 1.0, dtype=np.float32)
                 for block in range(model.dist.nblocks)]
        operands = model._lead_operands(parts)
        assert len(operands) == comm.nranks
        by_lead = dict(zip(self._leads(model), parts))
        for rank, operand in enumerate(operands):
            want = by_lead.get(rank, np.zeros_like(parts[0]))
            assert operand.dtype == want.dtype
            assert operand.tobytes() == want.tobytes()
        np.testing.assert_array_equal(sum(operands), sum(parts))


class TestTimingSideEffects:
    def test_epoch_advances_simulated_time(self, problem):
        ds, matrix = problem
        dist_model, comm = build_model(ds, matrix, p=4)
        dist_model.train_epoch(lr=0.05)
        assert comm.timeline.elapsed() > 0
        breakdown = comm.timeline.breakdown()
        assert "alltoall" in breakdown
        assert "allreduce" in breakdown
        assert "local" in breakdown

    def test_oblivious_uses_bcast_category(self, problem):
        ds, matrix = problem
        dist_model, comm = build_model(ds, matrix, p=4, sparsity_aware=False)
        dist_model.train_epoch(lr=0.05)
        breakdown = comm.timeline.breakdown()
        assert breakdown.get("bcast", 0) > 0
        assert breakdown.get("alltoall", 0) == 0

    def test_predictions_do_not_advance_clock(self, problem):
        ds, matrix = problem
        dist_model, comm = build_model(ds, matrix, p=4)
        before = comm.timeline.elapsed()
        dist_model.predictions()
        assert comm.timeline.elapsed() == before

    def test_15d_charges_every_replica(self, problem):
        ds, matrix = problem
        dist_model, comm = build_model(ds, matrix, p=4,
                                       algorithm=Algorithm.ONE_POINT_FIVE_D,
                                       c=2)
        dist_model.train_epoch(lr=0.05)
        local = comm.timeline.per_rank_breakdown()["local"]
        assert np.all(local > 0)
