"""The input-propagation cache: layer 0's ``A X`` is computed once, and
the backward runs at the narrow side.

``A`` and ``X`` are constant for a training run, so
``DistTrainConfig(cache_input_propagation=True)`` (the default) keeps the
layer-0 product across epochs; layer 0's weight gradient is then ``(A
X)^T G``, with no SpMM, and a widening layer propagates ``G W^T`` at its
narrower input width (``DistributedGCN.backward``).  These tests pin
what that must not change beyond rounding (every loss and weight, within
``oracle``'s narrow-side row, on every backend and variant), what it
must change (the ``2 L - 2`` SpMMs ``epoch_spmm_widths(dims, True)``
names, in order, and exactly their volume), how the one-off is paid (one
``f_0``-wide SpMM's bytes in narrow column panels on the model's one
plan, with no workspace or arena wider than the epoch schedule's), what
stays bit for bit (interleaved wide calls, new features, resume and
kill-restart, against cached runs), and what must never touch it (the
inference forward, the host-side oracle, serving).
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.comm import make_communicator
from repro.comm.faults import FaultPlan
from repro.core import (DistDenseMatrix, DistributedGCN, DistTrainConfig,
                        epoch_spmm_widths, spmm,
                        predicted_bytes_per_spmm, setup_distributed,
                        train_distributed)
from repro.core.dist_gcn import LOGITS_CHUNK_ROWS, _row_chunks
from repro.core.engine import CompiledSpmm
from repro.gcn import GCNModel, ReferenceTrainConfig, train_reference
from repro.graphs import gcn_normalize, load_dataset
from repro.serve import ServeOptions, ServingEngine, prepare_checkpoint

import oracle

BACKENDS = ("sim", "threaded", "process")
EPOCHS = 3

VARIANTS = [
    pytest.param(dict(algorithm="1d"), id="1d"),
    pytest.param(dict(algorithm="1.5d", replication_factor=2), id="1.5d-c2"),
]


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("amazon", scale=0.05, n_features=12, n_classes=4,
                        seed=3)


def make_config(**kw) -> DistTrainConfig:
    base = dict(n_ranks=4, partitioner=None, epochs=EPOCHS, hidden=8,
                n_layers=3, seed=0)
    base.update(kw)
    return DistTrainConfig(**base)


def train_pair(dataset, **kw):
    """``(cached, recomputed)`` results of the same configuration: the
    narrow-side schedule and the paper's."""
    cached = train_distributed(
        dataset, make_config(cache_input_propagation=True, **kw),
        eval_every=0)
    recomputed = train_distributed(
        dataset, make_config(cache_input_propagation=False, **kw),
        eval_every=0)
    return cached, recomputed


def assert_same_training(a, b) -> None:
    assert [h.loss for h in a.history] == [h.loss for h in b.history]
    for got, want in zip(a.model.weight_state(), b.model.weight_state()):
        np.testing.assert_array_equal(got, want)


def random_operand(model, width: int, seed: int) -> DistDenseMatrix:
    rng = np.random.default_rng(seed)
    return DistDenseMatrix.from_global(
        rng.standard_normal((model.dist.n, width)).astype(model.dtype),
        model.dist, dtype=model.dtype)


# ----------------------------------------------------------------------
# The oracle's narrow-side row: cached vs the paper's schedule
# ----------------------------------------------------------------------
class TestAgainstPaperOrder:
    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    @pytest.mark.parametrize("pipeline_depth", (1, 2))
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("sparsity_aware", (False, True),
                             ids=("oblivious", "sparsity_aware"))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_cached_matches_recomputed(self, dataset, variant, sparsity_aware,
                                       backend, pipeline_depth, dtype):
        cached, recomputed = train_pair(
            dataset, sparsity_aware=sparsity_aware, backend=backend,
            pipeline_depth=pipeline_depth, dtype=dtype, **variant)
        oracle.assert_training_matches(cached, recomputed)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_grad_overlap_bf16_wire(self, dataset, variant, backend):
        cached, recomputed = train_pair(
            dataset, backend=backend, pipeline_depth=2, grad_overlap=True,
            grad_dtype="bfloat16", **variant)
        oracle.assert_training_matches(cached, recomputed)

    def test_partitioned_graph(self, dataset):
        cached, recomputed = train_pair(dataset, partitioner="gvb")
        oracle.assert_training_matches(cached, recomputed)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_widening_output_layer(self, dataset, variant, backend):
        """hidden 3 < 4 classes: the output layer keeps its ``A H`` and
        propagates ``G W^T`` at width 3."""
        cached, recomputed = train_pair(dataset, backend=backend, hidden=3,
                                        **variant)
        assert cached.model.layer_dims == [12, 3, 3, 4]
        oracle.assert_training_matches(cached, recomputed)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cached_runs_are_bit_identical_across_backends(self, dataset,
                                                           backend):
        want = train_distributed(dataset, make_config(hidden=3),
                                 eval_every=0)
        got = train_distributed(dataset, make_config(
            hidden=3, backend=backend), eval_every=0)
        assert_same_training(got, want)

    def test_logits_match_the_host_oracle(self, dataset):
        """``global_logits`` recomputes ``A X`` host-side; it neither
        reads nor fills the cache and still agrees with the cached
        training forward."""
        setup = setup_distributed(dataset, make_config())
        with setup.comm:
            model = setup.model
            oracle_first = model.global_logits()
            assert model._input_propagation is None
            model.train_epoch(0.05)
            distributed = model.forward()[-1].h_out.to_global()
            np.testing.assert_allclose(distributed, model.global_logits(),
                                       rtol=1e-9, atol=1e-12)
        assert oracle_first.shape == distributed.shape


# ----------------------------------------------------------------------
# The cache owns its memory
# ----------------------------------------------------------------------
class TestAliasing:
    # Every SpMM runs on the model's one plan, so a borrowed cache would
    # be overwritten inside every epoch.  hidden == f_0 runs A X as one
    # SpMM (layer 1 propagates at that width too); hidden < f_0 streams it
    # in width-8 column panels, and the interleaved f_0-wide calls below
    # then grow the plan's workspaces past anything training needs.
    @pytest.mark.parametrize("hidden", (8, 12), ids=("panelled", "retained"))
    @pytest.mark.parametrize("sparsity_aware", (False, True),
                             ids=("oblivious", "sparsity_aware"))
    def test_interleaved_wide_calls_leave_training_unchanged(
            self, dataset, hidden, sparsity_aware):
        lr = 0.05
        plain = setup_distributed(dataset, make_config(
            hidden=hidden, sparsity_aware=sparsity_aware))
        with plain.comm:
            want = [plain.model.train_epoch(lr) for _ in range(4)]

        cached = setup_distributed(dataset, make_config(
            hidden=hidden, sparsity_aware=sparsity_aware))
        with cached.comm:
            model = cached.model
            f0 = model.layer_dims[0]
            op = model.compiled_op(f0)
            got = [model.train_epoch(lr)]
            assert op.workspace_width == hidden
            for epoch in range(1, 4):
                # The inference forward and model.spmm run f_0 wide on the
                # same plan the training epochs use.
                model.forward(random_operand(model, f0, seed=epoch))
                model.spmm(random_operand(model, f0, seed=100 + epoch))
                got.append(model.train_epoch(lr))
            assert op.workspace_width == f0
        assert got == want
        for a, b in zip(model.weight_state(), plain.model.weight_state()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_widening_hidden_layer_keeps_an_owned_product(self, dataset,
                                                          variant):
        """Layer 1 of ``[12, 3, 6, 4]`` widens: its kept ``A H^1`` must
        survive layer 2's forward SpMM, which reuses the plan's output
        workspace, to be read by layer 1's backward."""
        config = make_config(**variant)
        base = setup_distributed(dataset, config)
        dims = [base.model.layer_dims[0], 3, 6, base.model.layer_dims[-1]]

        def train(cached: bool) -> list:
            setup = setup_distributed(dataset, dataclasses.replace(
                config, cache_input_propagation=cached))
            with setup.comm:
                m = setup.model
                model = DistributedGCN(
                    m.adjacency, setup.node_data.features, m.labels,
                    m.train_mask, dims, setup.comm,
                    algorithm=config.algorithm, grid=setup.grid,
                    cache_input_propagation=cached,
                    feature_order=setup.node_data.feature_order)
                caches = model.forward()
                assert [c.propagated is not None for c in caches] == \
                    [cached, cached, False]
                if cached:
                    assert not np.shares_memory(
                        caches[1].propagated.block(0),
                        model.spmm(caches[1].h_in).block(0))
                loss, grad = model.loss_and_logits_grad(caches[-1].h_out)
                return [loss, *model.backward(caches, grad).wait()]

        cached, paper = train(True), train(False)
        assert cached[0] == paper[0]
        for got, want in zip(cached[1:], paper[1:]):
            np.testing.assert_allclose(
                got, want, **oracle.TOLERANCES[("float64",
                                                oracle.NARROW_SIDE)])


# ----------------------------------------------------------------------
# Exact counts
# ----------------------------------------------------------------------
def epoch_traffic(model, comm, epochs: int = 2):
    """``(bytes, messages, spmm widths)`` of each of ``epochs`` epochs."""
    widths = []
    inner = model.spmm

    def counting_spmm(dense):
        widths.append(dense.width)
        return inner(dense)

    model.spmm = counting_spmm
    rows = []
    try:
        for _ in range(epochs):
            del widths[:]
            bytes0 = comm.events.total_bytes()
            msgs0 = comm.events.message_count()
            model.train_epoch(0.05)
            rows.append((comm.events.total_bytes() - bytes0,
                         comm.events.message_count() - msgs0, list(widths)))
    finally:
        del model.spmm
    return rows


def spmm_volume(setup, config, width: int):
    """``(bytes, messages)`` of one standalone distributed SpMM of the
    configured variant at ``width``, on a fresh simulator."""
    model = setup.model
    with make_communicator(config.n_ranks, backend="sim",
                           machine=config.machine) as comm:
        spmm(model.adjacency, random_operand(model, width, seed=1), comm,
             algorithm=config.algorithm,
             sparsity_aware=config.sparsity_aware, grid=setup.grid)
        return comm.events.total_bytes(), comm.events.message_count()


def panel_width(dims) -> int:
    """Column-panel width of the one-off ``A X``: the widest SpMM the
    cached epoch schedule runs."""
    return max(epoch_spmm_widths(dims, True))


class TestExactCounts:
    @pytest.mark.parametrize("hidden", (8, 3), ids=("narrowing",
                                                    "widening"))
    @pytest.mark.parametrize("sparsity_aware", (False, True),
                             ids=("oblivious", "sparsity_aware"))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_epoch_runs_the_narrow_side_schedule(self, dataset, variant,
                                                 sparsity_aware, hidden):
        config = make_config(sparsity_aware=sparsity_aware, hidden=hidden,
                             **variant)
        on = setup_distributed(dataset, config)
        off = setup_distributed(dataset, dataclasses.replace(
            config, cache_input_propagation=False))
        with on.comm, off.comm:
            on.model.input_propagation()
            rows_on = epoch_traffic(on.model, on.comm)
            rows_off = epoch_traffic(off.model, off.comm)
        dims = on.model.layer_dims
        n_layers = len(dims) - 1
        volume = {w: spmm_volume(on, config, w) for w in set(dims)}
        wide_bytes, wide_messages = volume[dims[0]]

        assert rows_on[0] == rows_on[1] and rows_off[0] == rows_off[1]
        bytes_on, messages_on, widths_on = rows_on[0]
        bytes_off, messages_off, widths_off = rows_off[0]
        assert len(widths_off) == 2 * n_layers
        assert len(widths_on) == 2 * n_layers - 2
        assert bytes_off - bytes_on > wide_bytes > 0
        assert messages_off - messages_on > wide_messages > 0

        # The schedule the cost model prices is the schedule that ran, in
        # order, and its volume is what the simulator's event log
        # recorded.
        assert sorted(widths_off) == sorted(epoch_spmm_widths(dims))
        assert widths_on == epoch_spmm_widths(dims, True)
        assert max(widths_on) == dims[1]
        other = bytes_off - sum(volume[w][0]
                                for w in epoch_spmm_widths(dims))
        assert bytes_on == other + sum(
            volume[w][0] for w in epoch_spmm_widths(dims, True))
        if config.algorithm == "1d":
            for w, (nbytes, _) in volume.items():
                assert nbytes == predicted_bytes_per_spmm(
                    on.model.adjacency, w, sparsity_aware).sum()

    def test_one_layer_epoch_runs_no_spmm(self, dataset):
        """``[f_0, C]``: layer 0 is the only layer, so once ``A X`` is
        kept the epoch propagates nothing; the one-off runs as one
        ``f_0``-wide SpMM."""
        config = make_config(n_layers=1)
        setup = setup_distributed(dataset, config)
        with setup.comm:
            model = setup.model
            model.input_propagation()
            rows = epoch_traffic(model, setup.comm)
            assert model.compiled_op(0).workspace_width == \
                model.layer_dims[0]
        assert epoch_spmm_widths(model.layer_dims, True) == []
        assert [widths for _, _, widths in rows] == [[], []]
        cached, recomputed = train_pair(dataset, n_layers=1)
        oracle.assert_training_matches(cached, recomputed)

    def test_first_training_forward_fills_lazily(self, dataset):
        """Without the trainer's priming the first epoch pays the one-off
        ``A X`` — ``ceil(f_0 / P)`` column panels (the gate's warm-up
        epoch does)."""
        setup = setup_distributed(dataset, make_config())
        with setup.comm:
            rows = epoch_traffic(setup.model, setup.comm, epochs=3)
        dims = setup.model.layer_dims
        n_layers = len(dims) - 1
        panel = panel_width(dims)
        panels = -(-dims[0] // panel)
        assert dims[0] > panel and panels > 1
        assert [len(widths) for _, _, widths in rows] == \
            [2 * n_layers - 2 + panels, 2 * n_layers - 2, 2 * n_layers - 2]


# ----------------------------------------------------------------------
# The one-off streams through the model's one plan in column panels
# ----------------------------------------------------------------------
def spy_on_plans(monkeypatch):
    """Every plan constructed from here on (compile-and-run-once
    wrappers included)."""
    built = []
    plan_init = CompiledSpmm.__init__

    def spy_init(self, *args, **kwargs):
        built.append(self)
        plan_init(self, *args, **kwargs)

    monkeypatch.setattr(CompiledSpmm, "__init__", spy_init)
    return built


@pytest.fixture(scope="module")
def wide_dataset():
    """f_0 = 96 over a width-8 schedule: one f_0-wide exchange needs 12x
    the widest one an epoch runs, far beyond an arena's doubling."""
    return load_dataset("amazon", scale=0.05, n_features=96, n_classes=4,
                        seed=3)


class TestPanels:
    @pytest.mark.parametrize("sparsity_aware", (False, True),
                             ids=("oblivious", "sparsity_aware"))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_off_is_one_wide_spmm_in_narrow_messages(
            self, dataset, variant, sparsity_aware):
        config = make_config(sparsity_aware=sparsity_aware, **variant)
        setup = setup_distributed(dataset, config)
        model = setup.model
        with setup.comm as comm:
            bytes0 = comm.events.total_bytes()
            msgs0 = comm.events.message_count()
            kept = model.input_propagation()
            one_off = (comm.events.total_bytes() - bytes0,
                       comm.events.message_count() - msgs0)
        dims = model.layer_dims
        panel = panel_width(dims)
        assert dims[0] % panel, "the tail panel must be exercised"
        wide_bytes, _ = spmm_volume(setup, config, dims[0])
        _, narrow_messages = spmm_volume(setup, config, panel)
        assert one_off[0] == wide_bytes > 0
        assert one_off[1] == -(-dims[0] // panel) * narrow_messages > 0

        # Column-separable: the panels assemble the one-shot product.
        with make_communicator(config.n_ranks, backend="sim") as comm:
            one_shot = spmm(model.adjacency, model.features, comm,
                            algorithm=config.algorithm,
                            sparsity_aware=sparsity_aware, grid=setup.grid)
            for got, want in zip(kept.blocks, one_shot.blocks):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("sparsity_aware", (False, True),
                             ids=("oblivious", "sparsity_aware"))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_no_workspace_wider_than_the_panel_is_grown(
            self, dataset, variant, sparsity_aware, monkeypatch):
        built = spy_on_plans(monkeypatch)
        setup = setup_distributed(dataset, make_config(
            sparsity_aware=sparsity_aware, **variant))
        with setup.comm:
            model = setup.model
            for _ in range(2):
                model.train_epoch(0.05)
        dims = model.layer_dims
        op = model.compiled_op(dims[0])
        # One plan, never a compile-and-run-once one for the tail panel,
        # grown once, to the panel width: every later call fits.
        assert built == [op]
        assert op.workspace_width == panel_width(dims) < dims[0]
        assert dims[0] % panel_width(dims)              # the tail ran
        panels = -(-dims[0] // panel_width(dims))
        assert op.calls == panels + 2 * len(epoch_spmm_widths(dims, True))
        assert model.plan_stats()["plan_misses"] == op.grows == 1

    @pytest.mark.parametrize("variant", [
        pytest.param(dict(algorithm="1d"), id="1d"),
        pytest.param(dict(algorithm="1.5d", replication_factor=2,
                          pipeline_depth=2), id="1.5d-c2-pipelined"),
    ])
    def test_process_arenas_stay_narrower_than_one_wide_exchange(
            self, wide_dataset, variant):
        config = make_config(backend="process", **variant)
        setup = setup_distributed(wide_dataset, config)
        model = setup.model
        assert model.layer_dims[0] >= 12 * panel_width(model.layer_dims)
        with setup.comm as comm:
            model.train_epoch(0.05)
            trained = max(arena.size for arena in comm._arenas.values())
        with make_communicator(config.n_ranks, backend="process") as comm:
            spmm(model.adjacency, model.features, comm,
                 algorithm=config.algorithm, grid=setup.grid)
            wide = max(arena.size for arena in comm._arenas.values())
        assert trained < wide

    def test_serving_never_grows_an_input_wide_workspace(
            self, dataset, tmp_path, monkeypatch):
        config = make_config(n_ranks=2, n_layers=2)
        ckpt = prepare_checkpoint(dataset, config, tmp_path / "serve.ckpt",
                                  epochs=1)
        built = spy_on_plans(monkeypatch)
        engine = ServingEngine.from_checkpoint(
            dataset, config, ckpt, options=ServeOptions(batching=False))
        request = np.random.default_rng(0).standard_normal(
            (dataset.n_vertices, dataset.n_features))
        try:
            with engine:
                engine.submit(request).result(timeout=120.0)
        finally:
            engine.close()
        assert built == [engine.model.compiled_op(0)]
        assert 0 < built[0].workspace_width < dataset.n_features

    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    def test_row_blocked_oracle_matches_the_full_matrix_one(self, dataset,
                                                           dtype):
        setup = setup_distributed(dataset, make_config(dtype=dtype))
        with setup.comm:
            model = setup.model
            model.train_epoch(0.05)
            oracle.assert_matches_single_node(
                model.global_logits(), model, model.features.to_global())


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------
class TestInvalidation:
    def test_new_features_recompute(self, dataset):
        config = make_config()
        lr = 0.05
        setup = setup_distributed(dataset, config)
        with setup.comm:
            model = setup.model
            model.train_epoch(lr)
            first = model.input_propagation()
            trained = model.weight_state()
            replacement = random_operand(model, model.layer_dims[0],
                                         seed=9).to_global()
            model.set_features(replacement)
            got = [model.train_epoch(lr) for _ in range(2)]
            assert model.input_propagation() is not first

        # A model whose cache was never filled, at the same weights.
        fresh = setup_distributed(dataset, config)
        with fresh.comm:
            fresh.model.load_weight_state(trained)
            fresh.model.set_features(replacement)
            want = [fresh.model.train_epoch(lr) for _ in range(2)]
        assert got == want
        for a, b in zip(model.weight_state(), fresh.model.weight_state()):
            np.testing.assert_array_equal(a, b)

    def test_loading_weights_keeps_the_product(self, dataset):
        setup = setup_distributed(dataset, make_config())
        with setup.comm:
            model = setup.model
            kept = model.input_propagation()
            model.load_weight_state(model.weight_state())
            assert model.input_propagation() is kept


# ----------------------------------------------------------------------
# Layer 0's operand: held once, at its storage dtype
# ----------------------------------------------------------------------
#: The train gate's graphs and variants (``benchmarks/e2e/workloads.py``):
#: amazon 1.0 at p = 4 on 1D and 1.5D c = 2, protein 1.0 at p = 4 on 1D.
GATE_SHAPES = [
    pytest.param(("amazon", dict(algorithm="1d")), id="amazon-1d"),
    pytest.param(("amazon", dict(algorithm="1.5d", replication_factor=2)),
                 id="amazon-1.5d-c2"),
    pytest.param(("protein", dict(algorithm="1d")), id="protein-1d"),
]


def gate_config(variant: dict, dtype: str) -> DistTrainConfig:
    return DistTrainConfig(n_ranks=4, partitioner="gvb", hidden=16,
                           n_layers=3, dtype=dtype, **variant)


class TestLayerZeroOperand:
    @pytest.fixture(scope="class")
    def amazon(self):
        return load_dataset("amazon", scale=0.2, seed=0)

    @pytest.fixture(scope="class")
    def gate_partitions(self):
        """``(name, variant) -> (dataset, partition)``, each partitioned
        once for the class."""
        datasets, partitions = {}, {}

        def get(name: str, variant: dict):
            if name not in datasets:
                datasets[name] = load_dataset(name, scale=1.0, seed=0)
            config = gate_config(variant, "float64")
            key = (name, config.n_block_rows)
            if key not in partitions:
                setup = setup_distributed(datasets[name], config)
                setup.comm.close()
                partitions[key] = setup.partition
            return datasets[name], partitions[key]
        return get

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_driver_holds_x_once(self, amazon, variant):
        """After set-up plus one cached epoch the driver holds the kept
        ``A X`` (1.0 in units of ``n f_0`` float64 words) and the rest
        of the model, and reads the caller's storage-dtype ``X`` in
        place: 1.37x (1D) and 1.35x (1.5D c = 2) measured.  A permuted
        copy of ``X`` (0.5) on top was 1.86x, a model-dtype one 2.86x."""
        n, f0 = amazon.node_data.features.shape
        assert amazon.node_data.features.dtype == np.float32
        config = DistTrainConfig(n_ranks=4, partitioner="gvb",
                                 dtype="float64", **variant)
        tracemalloc.start()
        try:
            setup = setup_distributed(amazon, config)
            with setup.comm:
                setup.model.train_epoch(0.05)
                held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1.6 * n * f0 * 8

    @pytest.mark.parametrize("cached", (True, False))
    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_global_logits_is_the_one_shot_product(self, amazon, variant,
                                                   dtype, cached):
        setup = setup_distributed(amazon, DistTrainConfig(
            n_ranks=4, partitioner="gvb", dtype=dtype,
            cache_input_propagation=cached, **variant))
        with setup.comm:
            model = setup.model
            assert model.layer_dims[0] % panel_width(model.layer_dims)
            model.train_epoch(0.05)
            logits = model.global_logits()
        assert logits.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(
            logits, oracle.row_blocked_logits(
                model, oracle.vertex_order_features(setup.node_data)))

    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    @pytest.mark.parametrize("shape", GATE_SHAPES)
    def test_global_logits_chunks_are_bitwise_on_the_gate_shapes(
            self, gate_partitions, shape, dtype):
        """The gate's blocks split into several chunks, and the chunked
        layer 0 (compacted CSR, gathered rows, GEMMs of >= 512 rows)
        still equals the one-shot row-blocked product bit for bit."""
        name, variant = shape
        dataset, partition = gate_partitions(name, variant)
        setup = setup_distributed(dataset, gate_config(variant, dtype),
                                  partition=partition)
        with setup.comm:
            model = setup.model
            model.train_epoch(0.05)
            logits = model.global_logits()
        chunks = [_row_chunks(rows.shape[0])
                  for rows in model.adjacency.block_rows]
        assert max(map(len, chunks)) >= 2
        assert min(hi - lo for block in chunks for lo, hi in block) >= \
            LOGITS_CHUNK_ROWS
        assert logits.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(
            logits, oracle.row_blocked_logits(
                model, oracle.vertex_order_features(setup.node_data)))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_global_logits_holds_no_block_of_a_x(self, gate_partitions,
                                                 variant):
        """``global_logits()``' transient peak on amazon 1.0 stays under
        half of ``n f_0`` float64 words: 0.44x (1.5D c = 2) and 0.38x
        (1D) measured.  One ``n_b x f_0`` ``A X`` block per block row
        was 1.03x and 0.57x."""
        dataset, partition = gate_partitions("amazon", variant)
        n, f0 = dataset.node_data.features.shape
        setup = setup_distributed(dataset, gate_config(variant, "float64"),
                                  partition=partition)
        with setup.comm:
            model = setup.model
            model.train_epoch(0.05)
            tracemalloc.start()
            try:
                model.global_logits()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 0.5 * n * f0 * 8

    def test_row_chunks_fold_the_tail(self):
        c = LOGITS_CHUNK_ROWS
        # Chunks of >= 256 rows matched the whole block row bitwise at
        # every K measured (300-602); 64 rows or fewer did not at K >= 500.
        assert c >= 256
        assert _row_chunks(0) == [(0, 0)]
        assert _row_chunks(c - 1) == [(0, c - 1)]
        assert _row_chunks(2 * c - 1) == [(0, 2 * c - 1)]
        assert _row_chunks(2 * c) == [(0, c), (c, 2 * c)]
        assert _row_chunks(3 * c + 7) == [(0, c), (c, 2 * c),
                                          (2 * c, 3 * c + 7)]

    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    def test_features_are_the_permuted_input_in_the_model_dtype(
            self, dataset, dtype):
        setup = setup_distributed(dataset, make_config(partitioner="gvb",
                                                       dtype=dtype))
        with setup.comm:
            model = setup.model
            features = model.features
            assert isinstance(features, DistDenseMatrix)
            assert features.dtype == model.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(
                features.to_global(),
                oracle.vertex_order_features(setup.node_data).astype(dtype))
            assert model.features is features           # built once
            model.train_epoch(0.05)
            assert model.features is features

    def test_storage_dtype_operand_is_a_read_only_view_of_the_input(
            self, dataset):
        """With no partitioner and a float32 model the model reads the
        caller's own array: no copy at all."""
        setup = setup_distributed(dataset, make_config(dtype="float32"))
        with setup.comm:
            model = setup.model
            model.train_epoch(0.05)
            for lo, block in zip(model.dist.bounds, model.features.blocks):
                assert np.shares_memory(block,
                                        dataset.node_data.features)
                assert not block.flags.writeable
                np.testing.assert_array_equal(
                    block, dataset.node_data.features[lo:lo + len(block)])


# ----------------------------------------------------------------------
# Trainer accounting
# ----------------------------------------------------------------------
class TestTrainerAccounting:
    def test_one_off_is_reported_apart_from_the_epochs(self, dataset):
        cached, recomputed = train_pair(dataset, epochs=4)
        times = np.array([h.epoch_time_s for h in cached.history])
        np.testing.assert_allclose(times, times[0], rtol=1e-9)
        assert cached.input_propagation_s > 0.0
        assert cached.metrics["input_propagation_s"] == \
            cached.input_propagation_s
        assert cached.total_time_s == pytest.approx(
            times.sum() + cached.input_propagation_s, rel=1e-9)
        assert times[0] < recomputed.history[0].epoch_time_s

        assert recomputed.input_propagation_s == 0.0
        assert recomputed.metrics["input_propagation_s"] == 0.0

    def test_bench_harness_pins_the_paper_schedule(self, dataset):
        from repro.bench.harness import STANDARD_SCHEMES, run_single
        row = run_single(dataset, STANDARD_SCHEMES["SA"], 4, epochs=2)
        plain = train_distributed(dataset, DistTrainConfig(
            n_ranks=4, partitioner=None, epochs=2, machine="perlmutter-scaled",
            cache_input_propagation=False), eval_every=0)
        assert row["epoch_time_s"] == plain.avg_epoch_time_s


# ----------------------------------------------------------------------
# Serving never enters the training forward
# ----------------------------------------------------------------------
class TestServing:
    @pytest.mark.parametrize("backend", ("sim", "process"))
    def test_engine_never_fills_the_cache(self, dataset, backend, tmp_path):
        config = make_config(n_ranks=2, n_layers=2, backend=backend)
        ckpt = prepare_checkpoint(dataset, config, tmp_path / "serve.ckpt",
                                  epochs=2)
        rng = np.random.default_rng(0)
        request = rng.standard_normal((dataset.n_vertices,
                                       dataset.n_features))

        def serve(cfg):
            engine = ServingEngine.from_checkpoint(
                dataset, cfg, ckpt, options=ServeOptions(batching=False))
            try:
                with engine:
                    logits = engine.submit(request).result(
                        timeout=120.0).logits.copy()
                return (logits, len(engine.comm.events),
                        engine.model._input_propagation,
                        engine.model.compiled_op(0).workspace_width)
            finally:
                engine.close()

        logits_on, events_on, product, widths_on = serve(config)
        logits_off, events_off, _, widths_off = serve(dataclasses.replace(
            config, cache_input_propagation=False))
        np.testing.assert_array_equal(logits_on, logits_off)
        assert events_on == events_off
        assert product is None
        assert widths_on == widths_off


# ----------------------------------------------------------------------
# Fault tolerance
# ----------------------------------------------------------------------
class TestRestarts:
    @pytest.mark.parametrize("backend", ("sim", "process"))
    def test_resume_and_kill_restart_stay_bit_identical(self, dataset,
                                                        backend, tmp_path):
        base = dict(n_ranks=2, n_layers=2, epochs=4, backend=backend)
        reference = train_distributed(dataset, make_config(**base),
                                      eval_every=0)

        resume_dir = str(tmp_path / "resume")
        half = make_config(checkpoint_dir=resume_dir, checkpoint_every=1,
                           **base)
        train_distributed(dataset, dataclasses.replace(half, epochs=2),
                          eval_every=0)
        resumed = train_distributed(
            dataset, dataclasses.replace(half, resume=True), eval_every=0)
        assert resumed.resumed_from_epoch == 2
        assert resumed.input_propagation_s > 0.0

        killed = train_distributed(
            dataset, make_config(checkpoint_dir=str(tmp_path / "kill"),
                                 checkpoint_every=1, max_restarts=1, **base),
            eval_every=0, fault_plan=FaultPlan.kill(rank=1, epoch=2))
        assert killed.restarts == 1 and killed.resumed_from_epoch == 2

        for result in (resumed, killed):
            for got, want in zip(result.model.weight_state(),
                                 reference.model.weight_state()):
                np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# The single-process reference keeps the same product
# ----------------------------------------------------------------------
class TestReference:
    def test_reference_trainer_is_bit_identical_to_recomputing(self, dataset):
        cfg = ReferenceTrainConfig(hidden=8, n_layers=3, epochs=4,
                                   learning_rate=0.05, seed=0)
        result = train_reference(dataset.adjacency, dataset.node_data, cfg)

        adj = gcn_normalize(dataset.adjacency)
        data = dataset.node_data
        features = data.features.astype(np.float64)
        model = GCNModel([data.n_features, 8, 8, data.n_classes], seed=0)
        losses = []
        for _ in range(cfg.epochs):
            state = model.forward(adj, features)
            loss, grad = model.loss_and_logits_grad(
                state.logits, data.labels, data.train_mask)
            model.apply_gradients(model.backward(adj, state, grad),
                                  cfg.learning_rate)
            losses.append(loss)
        assert [h.loss for h in result.history] == losses
        for got, want in zip(result.model.weights, model.weights):
            np.testing.assert_array_equal(got, want)

    def test_precomputed_product_is_shape_checked(self, dataset):
        adj = gcn_normalize(dataset.adjacency)
        features = dataset.node_data.features.astype(np.float64)
        model = GCNModel([dataset.n_features, 8, dataset.n_classes], seed=0)
        with pytest.raises(ValueError, match="precomputed propagation"):
            model.forward(adj, features, (adj @ features)[:, :3])
