"""Weight-first inference: serve at the narrow width.

A layer that narrows runs ``A (H W)`` in the inference forward — the
per-stream GEMM first, one SpMM at ``streams * f_out`` — and the serving
engine hands the model its request matrices unassembled, so a narrowing
layer 0 means no ``n x k f_0`` array exists anywhere on the serve path.
These tests pin what must survive that: batched == sequential bit for
bit on every variant x backend x depth x precision, owned results, exact
communication volume at the schedule ``inference_spmm_widths`` defines,
and a supervised restart that comes back to the same compiled state.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import oracle
from repro.comm.faults import FaultPlan
from repro.core import (DistDenseMatrix, DistTrainConfig,
                        inference_spmm_widths, predicted_bytes_per_forward,
                        setup_distributed, spmm)
from repro.graphs import load_dataset
from repro.serve import (ServeError, ServeOptions, ServingEngine,
                         prepare_checkpoint)

BACKENDS = ("sim", "threaded", "process")
MAX_BATCH = 8
TIMEOUT_S = 120.0


@pytest.fixture(scope="module")
def dataset():
    # [12, 4, 4, 3] with three layers: layer 0 narrows (weight-first),
    # layer 1 does not (paper order), the output layer narrows again.
    return load_dataset("reddit", scale=0.05, n_features=12, n_classes=3,
                        seed=2)


def make_config(**overrides) -> DistTrainConfig:
    base = dict(n_ranks=2, partitioner=None, epochs=2, hidden=4, n_layers=3,
                backend="sim", seed=0)
    base.update(overrides)
    return DistTrainConfig(**base)


def make_requests(dataset, count: int, dtype=np.float64, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [np.ascontiguousarray(
        rng.standard_normal((dataset.n_vertices, dataset.n_features)),
        dtype=dtype) for _ in range(count)]


def forced_batch(engine, requests):
    """Serve ``requests`` as one coalesced batch (queued while the drain
    thread is stopped); leaves the engine stopped."""
    futures = [engine.submit(x) for x in requests]
    engine.start()
    try:
        results = [f.result(timeout=TIMEOUT_S) for f in futures]
    finally:
        engine.stop()
    assert {r.batch_size for r in results} == {len(requests)}
    return results


# ----------------------------------------------------------------------
# The schedule
# ----------------------------------------------------------------------
class TestSchedule:
    def test_each_layer_propagates_at_its_narrower_side(self):
        assert inference_spmm_widths([300, 16, 16, 24]) == [16, 16, 16]
        assert inference_spmm_widths([12, 4, 4, 3]) == [4, 4, 3]
        assert inference_spmm_widths([6, 8, 9]) == [6, 8]
        assert inference_spmm_widths([5]) == []

    def test_dims_under_test_mix_both_orders(self, dataset):
        setup = setup_distributed(dataset, make_config())
        with setup.comm:
            dims = setup.model.layer_dims
        assert dims == [12, 4, 4, 3]
        assert oracle.association_order(dims) == oracle.WEIGHT_FIRST


# ----------------------------------------------------------------------
# Batched == sequential, bit for bit, on the whole matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", ("float64", "float32"))
@pytest.mark.parametrize("pipeline_depth", (1, 2))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sparsity_aware", (False, True),
                         ids=("oblivious", "sparsity_aware"))
@pytest.mark.parametrize("layout", (
    dict(algorithm="1d", n_ranks=2),
    dict(algorithm="1.5d", n_ranks=4, replication_factor=2)),
    ids=("1d", "1.5d-c2"))
def test_batched_equals_sequential(dataset, layout, sparsity_aware, backend,
                                   pipeline_depth, dtype):
    setup = setup_distributed(dataset, make_config(
        sparsity_aware=sparsity_aware, backend=backend,
        pipeline_depth=pipeline_depth, dtype=dtype, **layout))
    with setup.comm:
        model = setup.model
        requests = make_requests(dataset, MAX_BATCH, model.dtype)
        alone = [model.forward([x]).to_global() for x in requests]
        f_out = model.layer_dims[-1]
        for k in range(2, MAX_BATCH + 1):
            logits = model.forward(requests[:k]).to_global()
            assert logits.shape == (dataset.n_vertices, k * f_out)
            for i in range(k):
                np.testing.assert_array_equal(
                    logits[:, i * f_out:(i + 1) * f_out], alone[i])
        # Self-consistent is not enough: the logits are the right ones.
        for x, logits in zip(requests, alone):
            oracle.assert_matches_single_node(logits, model, x)


def test_request_list_and_concatenated_operand_agree(dataset):
    """``forward([x_1..x_k])`` and ``forward(DistDenseMatrix, streams=k)``
    are two spellings of one batch."""
    setup = setup_distributed(dataset, make_config())
    with setup.comm:
        model = setup.model
        requests = make_requests(dataset, 3)
        operand = DistDenseMatrix.from_global(
            np.concatenate(requests, axis=1), model.dist, dtype=model.dtype)
        np.testing.assert_array_equal(
            model.forward(requests).to_global(),
            model.forward(operand, streams=3).to_global())
        with pytest.raises(ValueError, match="streams"):
            model.forward(requests, streams=2)
        with pytest.raises(ValueError, match="shape"):
            model.forward([requests[0][:, :5]])
        with pytest.raises(ValueError, match="dtype"):
            model.forward([requests[0].astype(np.float32)])
        with pytest.raises(ValueError, match="no request"):
            model.forward([])


# ----------------------------------------------------------------------
# Results own their memory
# ----------------------------------------------------------------------
def test_weight_first_output_layer_does_not_alias_the_plan_workspace():
    """hidden=64 > n_classes: the output layer runs weight-first, its
    result is the compiled plan's output workspace and ``identity``
    returns its argument — the caller must still get owned blocks."""
    dataset = load_dataset("reddit", scale=0.05, n_features=6, n_classes=3,
                           seed=2)
    setup = setup_distributed(dataset, make_config(hidden=64, n_layers=2))
    with setup.comm:
        model = setup.model
        assert inference_spmm_widths(model.layer_dims) == [6, 3]
        x1, x2 = make_requests(dataset, 2)
        first = model.forward([x1])
        snapshot = [block.copy() for block in first.blocks]
        second = model.forward([x2])
        for kept, was, other in zip(first.blocks, snapshot, second.blocks):
            np.testing.assert_array_equal(kept, was)
            assert not np.shares_memory(kept, other)
        assert not np.array_equal(first.to_global(), second.to_global())


# ----------------------------------------------------------------------
# The engine: no wide operand, no wide plan, exact volume
# ----------------------------------------------------------------------
def make_engine(dataset, config, **options) -> ServingEngine:
    setup = setup_distributed(dataset, config)
    options.setdefault("max_batch_width", MAX_BATCH * dataset.n_features)
    return ServingEngine(setup.model, comm=setup.comm,
                         options=ServeOptions(**options), owns_comm=True)


class TestEngine:
    def test_model_is_handed_the_requests_as_they_arrived(self, dataset):
        """The engine never builds an ``n x k f_0`` array: the model gets
        the ``k`` submitted matrices themselves, and no SpMM operand on
        the way to the logits is as wide as one request."""
        engine = make_engine(dataset, make_config())
        try:
            model, f0 = engine.model, engine.input_width
            handed, spmm_widths = [], []
            forward, compiled_op = model.forward, model.compiled_op

            def spy_forward(features=None, **kwargs):
                handed.append((features, kwargs))
                return forward(features, **kwargs)

            def spy_compiled_op(width):
                spmm_widths.append(width)
                return compiled_op(width)

            model.forward, model.compiled_op = spy_forward, spy_compiled_op
            requests = make_requests(dataset, 5)
            forced_batch(engine, requests)
            (features, kwargs), = handed
            assert kwargs == {}
            assert len(features) == 5
            for got, sent in zip(features, requests):
                assert got is sent          # already model dtype: no copy
                assert got.shape == (dataset.n_vertices, f0)
            assert spmm_widths == [5 * w for w in
                                   inference_spmm_widths(model.layer_dims)]
            assert max(spmm_widths) < 5 * f0
        finally:
            engine.close()

    @pytest.mark.parametrize("backend", ("sim", "process"))
    def test_no_workspace_as_wide_as_the_input_is_grown(self, dataset,
                                                        backend):
        # hidden=1: even a full batch (8 x 1 columns) stays under f_0.
        engine = make_engine(dataset, make_config(backend=backend, hidden=1,
                                                  n_layers=2))
        try:
            f0 = engine.input_width
            model = engine.model
            op = model.compiled_op(f0)
            assert inference_spmm_widths(model.layer_dims) == [1, 1]
            requests = make_requests(dataset, MAX_BATCH)
            grown = []
            for k in (1, 3, MAX_BATCH, 3, 1):
                forced_batch(engine, requests[:k])
                grown.append(op.workspace_width)
            # One plan: each wider batch grew it, narrower ones fit.
            assert grown == [1, 3, MAX_BATCH, MAX_BATCH, MAX_BATCH] and \
                MAX_BATCH < f0
            assert model.plan_stats() == {      # 5 batches x 2 SpMMs
                "plan_hits": 10 - 3, "plan_misses": 3, "plans_retained": 1}
        finally:
            engine.close()

    @pytest.mark.parametrize("layout", (
        dict(algorithm="1d", n_ranks=2),
        dict(algorithm="1.5d", n_ranks=4, replication_factor=2)),
        ids=("1d", "1.5d-c2"))
    def test_batch_volume_is_the_schedules_prediction(self, dataset, layout):
        """Sim ``EventLog`` bytes of one served batch == the sum over
        ``inference_spmm_widths`` of one SpMM's volume at ``k`` streams,
        and the message / collective counts are the paper order's."""
        k = 4
        engine = make_engine(dataset, make_config(**layout))
        try:
            model, events = engine.model, engine.comm.events
            rng = np.random.default_rng(1)

            def traffic_of(run):
                """``(bytes, messages, collectives)`` that ``run()`` adds."""
                nbytes, start = events.total_bytes(), len(events)
                run()
                added = list(events)[start:]
                return (events.total_bytes() - nbytes, len(added),
                        len({e.step for e in added}))

            def standalone_spmms(widths):
                for w in widths:
                    dense = DistDenseMatrix.from_global(
                        rng.standard_normal((dataset.n_vertices, w)),
                        model.dist, dtype=model.dtype)
                    spmm(model.adjacency, dense, model.comm,
                         algorithm=model.algorithm,
                         sparsity_aware=model.sparsity_aware, grid=model.grid)

            widths = [k * w for w in inference_spmm_widths(model.layer_dims)]
            served = traffic_of(
                lambda: forced_batch(engine, make_requests(dataset, k)))
            if layout["algorithm"] == "1d":
                assert served[0] == predicted_bytes_per_forward(
                    model.adjacency, widths, sparsity_aware=True,
                    element_bytes=model.dtype.itemsize)
                assert served[1:] == (6, 3)     # 3 layers at p = 2
            # Any layout: exactly the schedule's SpMMs issued one by one;
            # the paper order issues as many, wider.
            assert served == traffic_of(lambda: standalone_spmms(widths))
            paper_order = traffic_of(lambda: standalone_spmms(
                [k * f for f in model.layer_dims[:-1]]))
            assert served[1:] == paper_order[1:]
            assert served[0] < paper_order[0]
        finally:
            engine.close()

    def test_per_tenant_bytes_split_the_narrow_volume(self, dataset):
        k = 2
        engine = make_engine(dataset, make_config())
        try:
            model = engine.model
            forced_batch(engine, make_requests(dataset, k))
            predicted = predicted_bytes_per_forward(
                model.adjacency, inference_spmm_widths(model.layer_dims),
                sparsity_aware=True)
            stats = engine.stats()
            assert stats['tenant_comm_bytes_total{tenant="default"}'] \
                == k * predicted
        finally:
            engine.close()


# ----------------------------------------------------------------------
# Supervised restart: one fresh plan, nothing re-warmed, same logits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ("sim", "process"))
def test_restart_rebuilds_one_plan_and_the_same_logits(dataset, backend,
                                                       tmp_path):
    config = make_config(backend=backend)
    checkpoint = prepare_checkpoint(
        dataset, dataclasses.replace(config, backend="sim"),
        tmp_path / "serve.ckpt", epochs=2)
    engine = ServingEngine.from_checkpoint(
        dataset, config, checkpoint,
        options=ServeOptions(max_batch_width=MAX_BATCH * dataset.n_features,
                             max_restarts=1))
    try:
        requests = make_requests(dataset, 2)
        before = [r.logits for r in forced_batch(engine, requests)]
        alone = forced_batch(engine, requests[:1])[0].logits
        np.testing.assert_array_equal(alone, before[0])
        grown = 2 * max(inference_spmm_widths(engine.model.layer_dims))
        assert engine.model.compiled_op(0).workspace_width == grown
        assert grown < engine.input_width

        old_model = engine.model
        engine.inject_faults(FaultPlan.kill(rank=1, op_index=0))
        engine.start()
        with pytest.raises(ServeError) as excinfo:
            engine.submit(requests[0]).result(timeout=TIMEOUT_S)
        assert excinfo.value.retryable
        engine.stop()
        assert engine.restarts == 1 and engine.model is not old_model
        # The rebuilt model compiled its one plan and sized nothing: the
        # first batch after the restart only allocates.
        op = engine.model.compiled_op(0)
        assert (op.calls, op.workspace_width) == (0, 0)

        after = [r.logits for r in forced_batch(engine, requests)]
        for got, want in zip(after, before):
            np.testing.assert_array_equal(got, want)
        assert op.workspace_width == grown
    finally:
        engine.close()
