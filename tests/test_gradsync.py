"""Tests for the wait-free gradient exchange (repro.core.gradsync).

Covers the three mechanisms — overlap, fusion buckets, compressed wires —
at the unit level (codec round trips, bucket packing) and end-to-end
(bit-identity of the overlapped float32 exchange on every backend,
loss-trajectory tolerance of the reduced-precision wires).
"""

import numpy as np
import pytest

from repro.comm import make_communicator
from repro.core import DistTrainConfig, train_distributed
from repro.core.gradsync import (GradientExchanger, PendingGradients,
                                 bucket_bytes_for_overhead, decode_bfloat16,
                                 default_bucket_bytes, encode_bfloat16)
from repro.graphs import load_dataset

BACKENDS = ("sim", "threaded", "process")


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("amazon", scale=0.05, n_features=12, n_classes=4,
                        seed=3)


def _train(dataset, backend="sim", **overrides):
    cfg = DistTrainConfig(n_ranks=4, partitioner=None, epochs=4,
                          learning_rate=0.1, seed=0, backend=backend,
                          **overrides)
    return train_distributed(dataset, cfg, eval_every=0)


def _losses(result):
    return [h.loss for h in result.history]


# ----------------------------------------------------------------------
# bfloat16 wire codec
# ----------------------------------------------------------------------
class TestBf16Codec:
    def test_exactly_representable_values_round_trip(self):
        # Powers of two and small sums with <= 8 mantissa bits are exact.
        x = np.array([0.0, 1.0, -2.0, 0.5, 1.5, -0.375, 256.0, 2.0 ** 100],
                     dtype=np.float64)
        out = decode_bfloat16(encode_bfloat16(x), dtype=np.float64)
        np.testing.assert_array_equal(out, x)

    def test_relative_error_bounded_by_half_ulp(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4096).astype(np.float32)
        out = decode_bfloat16(encode_bfloat16(x))
        # bf16 stores 7 mantissa bits: RNE error <= 2^-8 relative.
        rel = np.abs(out - x) / np.abs(x)
        assert rel.max() <= 2.0 ** -8 + 1e-12

    def test_round_to_nearest_even_on_ties(self):
        # 0x3F808000 is exactly halfway between bf16 0x3F80 and 0x3F81:
        # ties go to the even mantissa (0x3F80).  0x3F818000 ties up to
        # 0x3F82 (even) rather than down to 0x3F81 (odd).
        ties = np.array([0x3F808000, 0x3F818000], dtype=np.uint32)
        bits = encode_bfloat16(ties.view(np.float32))
        np.testing.assert_array_equal(bits,
                                      np.array([0x3F80, 0x3F82], np.uint16))

    def test_nan_maps_to_canonical_quiet_nan(self):
        bits = encode_bfloat16(np.array([np.nan, 1.0], dtype=np.float32))
        assert bits[0] == np.uint16(0x7FC0)
        out = decode_bfloat16(bits)
        assert np.isnan(out[0]) and out[1] == 1.0

    def test_decode_rejects_non_uint16(self):
        with pytest.raises(ValueError):
            decode_bfloat16(np.zeros(4, dtype=np.float32))

    def test_shapes_preserved(self):
        x = np.arange(12, dtype=np.float32).reshape(3, 4)
        bits = encode_bfloat16(x)
        assert bits.shape == x.shape
        assert decode_bfloat16(bits).shape == x.shape


# ----------------------------------------------------------------------
# Bucket packing (exchanger round trips on the sim backend)
# ----------------------------------------------------------------------
def _random_contribs(rng, nranks, shapes):
    """Per-layer lists of one contribution array per rank."""
    return [[rng.standard_normal(shape) for _ in range(nranks)]
            for shape in shapes]


def _expected_sums(contribs):
    return [np.sum(np.stack(per_layer), axis=0) for per_layer in contribs]


class TestBucketPacking:
    SHAPES = [(3, 5), (7,), (2, 2, 2), (1,), (4, 6)]

    def _run_session(self, overlap, bucket_bytes, contribs):
        comm = make_communicator(len(contribs[0]))
        x = GradientExchanger(comm, np.float64, overlap=overlap,
                              bucket_bytes=bucket_bytes)
        session = x.open(len(contribs))
        for i, per_layer in enumerate(contribs):
            session.post(i, per_layer)
        session.close()
        return session.drain()

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("bucket_bytes", [0, 1, 64, 10 ** 9])
    def test_round_trip_matches_per_layer_sum(self, overlap, bucket_bytes):
        rng = np.random.default_rng(7)
        contribs = _random_contribs(rng, 4, self.SHAPES)
        grads = self._run_session(overlap, bucket_bytes, contribs)
        assert len(grads) == len(self.SHAPES)
        for got, want in zip(grads, _expected_sums(contribs)):
            np.testing.assert_array_equal(got, want)

    def test_fusion_is_bit_identical_to_per_layer(self):
        rng = np.random.default_rng(11)
        contribs = _random_contribs(rng, 4, self.SHAPES)
        unfused = self._run_session(False, 0, contribs)
        fused = self._run_session(True, 10 ** 9, contribs)
        for a, b in zip(unfused, fused):
            np.testing.assert_array_equal(a, b)

    def test_out_of_order_posts_unpack_by_index(self):
        rng = np.random.default_rng(13)
        contribs = _random_contribs(rng, 2, self.SHAPES)
        comm = make_communicator(2)
        x = GradientExchanger(comm, np.float64, overlap=True,
                              bucket_bytes=10 ** 9)
        session = x.open(len(contribs))
        order = [4, 0, 3, 1, 2]
        for i in order:
            session.post(i, contribs[i])
        grads = PendingGradients(session)
        for i, want in enumerate(_expected_sums(contribs)):
            np.testing.assert_array_equal(grads[i], want)

    def test_pending_gradients_is_a_lazy_sequence(self):
        rng = np.random.default_rng(17)
        contribs = _random_contribs(rng, 2, [(2, 3), (4,)])
        comm = make_communicator(2)
        x = GradientExchanger(comm, np.float64, overlap=True)
        session = x.open(2)
        for i, per_layer in enumerate(contribs):
            session.post(i, per_layer)
        pending = PendingGradients(session)
        assert len(pending) == 2
        listed = list(pending)
        assert len(listed) == 2
        # wait() is idempotent: same objects on the second drain.
        assert pending.wait() is pending.wait()

    def test_incomplete_session_raises_on_drain(self):
        comm = make_communicator(2)
        x = GradientExchanger(comm, np.float64)
        session = x.open(3)
        session.post(0, [np.ones(2), np.ones(2)])
        with pytest.raises(RuntimeError):
            session.drain()

    def test_post_after_close_raises(self):
        comm = make_communicator(2)
        x = GradientExchanger(comm, np.float64)
        session = x.open(2)
        session.post(0, [np.ones(2), np.ones(2)])
        session.close()
        with pytest.raises(RuntimeError):
            session.post(1, [np.ones(2), np.ones(2)])

    def test_bad_index_rejected(self):
        comm = make_communicator(2)
        x = GradientExchanger(comm, np.float64)
        session = x.open(2)
        with pytest.raises(ValueError):
            session.post(2, [np.ones(2), np.ones(2)])

    def test_float16_wire_reduces_in_half_precision(self):
        comm = make_communicator(2)
        x = GradientExchanger(comm, np.float64, grad_dtype="float16")
        session = x.open(1)
        contrib = [np.array([1.0, 1e-9]), np.array([1.0, 1e-9])]
        session.post(0, contrib)
        (grad,) = session.drain()
        assert grad.dtype == np.float64
        # 1e-9 underflows the f16 wire; the ones survive exactly.
        assert grad[0] == 2.0 and grad[1] == 0.0

    def test_bfloat16_wire_round_trips_representable_sums(self):
        comm = make_communicator(4)
        x = GradientExchanger(comm, np.float64, grad_dtype="bfloat16")
        session = x.open(1)
        session.post(0, [np.full(8, 0.5) for _ in range(4)])
        (grad,) = session.drain()
        np.testing.assert_array_equal(grad, np.full(8, 2.0))

    def test_transparent_mode_detection(self):
        comm = make_communicator(2)
        assert GradientExchanger(comm, np.float64).transparent
        assert not GradientExchanger(comm, np.float64, overlap=True).transparent
        assert not GradientExchanger(comm, np.float64,
                                     bucket_bytes=64).transparent
        assert not GradientExchanger(comm, np.float64,
                                     grad_dtype="float32").transparent
        # Wire dtype equal to the model dtype stays transparent.
        assert GradientExchanger(comm, np.float32,
                                 grad_dtype="float32").transparent


# ----------------------------------------------------------------------
# Bucket sizing
# ----------------------------------------------------------------------
class TestBucketSizing:
    def test_zero_overhead_means_no_fusion(self):
        assert bucket_bytes_for_overhead(0.0) == 0
        assert bucket_bytes_for_overhead(-1.0) == 0

    def test_monotone_and_capped(self):
        small = bucket_bytes_for_overhead(2.0e-5)
        large = bucket_bytes_for_overhead(2.0e-4)
        assert 0 < small < large
        assert bucket_bytes_for_overhead(1.0) == 1 << 22

    def test_sim_default_comes_from_machine_model(self):
        assert default_bucket_bytes("sim", "perlmutter", 4) > 0

    def test_single_rank_needs_no_fusion(self):
        assert default_bucket_bytes("sim", "perlmutter", 1) == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_planner_prices_the_trainers_bucket(self, dataset, backend,
                                                monkeypatch):
        """The scorer prices a grad-overlap candidate on a model with the
        fusion bucket the trainer then runs on that backend."""
        from repro.core.config import training_layer_dims
        from repro.core.trainer import setup_distributed
        from repro.plan import enumerate_candidates, score, score_candidates

        priced = []
        build = score.build_setup

        def spy(*args, **kwargs):
            setup = build(*args, **kwargs)
            priced.append(setup.model.gradsync.bucket_bytes)
            return setup

        monkeypatch.setattr(score, "build_setup", spy)
        config = DistTrainConfig(n_ranks=4, partitioner=None, epochs=1,
                                 backend=backend, grad_overlap=True,
                                 machine="perlmutter-scaled")
        dims = training_layer_dims(dataset.node_data.n_features,
                                   dataset.node_data.n_classes,
                                   config.hidden, config.n_layers)
        candidates = enumerate_candidates(
            4, partitioners=[None], algorithms=["1d"],
            modes=["sparsity_aware"], grad_overlaps=(True,))
        score_candidates(candidates, dataset.adjacency,
                         dims, config.machine, backend=backend)
        setup = setup_distributed(dataset, config)
        with setup.comm:
            trained = setup.model.gradsync.bucket_bytes
        assert priced == [trained] and trained > 0


# ----------------------------------------------------------------------
# End-to-end training equivalence
# ----------------------------------------------------------------------
class TestTrainingEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_overlap_is_bit_identical_at_full_wire_precision(self, dataset,
                                                             backend):
        plain = _train(dataset, backend, dtype="float32")
        waitfree = _train(dataset, backend, dtype="float32",
                          grad_overlap=True, grad_dtype="float32")
        assert _losses(plain) == _losses(waitfree)
        assert plain.final_loss == waitfree.final_loss

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("grad_dtype", ["float16", "bfloat16"])
    def test_reduced_precision_wire_tracks_f64_trajectory(self, dataset,
                                                          backend, grad_dtype):
        exact = _train(dataset, backend)
        compressed = _train(dataset, backend, grad_overlap=True,
                            grad_dtype=grad_dtype)
        for a, b in zip(_losses(exact), _losses(compressed)):
            assert b == pytest.approx(a, rel=1e-3)

    @pytest.mark.parametrize("grad_dtype", ["float16", "bfloat16"])
    def test_compressed_wire_is_backend_independent(self, dataset, grad_dtype):
        runs = [_train(dataset, backend, grad_overlap=True,
                       grad_dtype=grad_dtype) for backend in BACKENDS]
        for other in runs[1:]:
            assert _losses(runs[0]) == _losses(other)

    def test_explicit_bucket_sizes_do_not_change_results(self, dataset):
        base = _train(dataset, grad_overlap=True)
        for bucket in (0, 128, 1 << 20):
            run = _train(dataset, grad_overlap=True, grad_bucket_bytes=bucket)
            assert _losses(run) == _losses(base)


# ----------------------------------------------------------------------
# Simulated-clock accounting
# ----------------------------------------------------------------------
class TestSimAccounting:
    def test_overlap_saves_simulated_time(self, dataset):
        plain = _train(dataset)
        waitfree = _train(dataset, grad_overlap=True)
        assert waitfree.total_time_s < plain.total_time_s

    def test_breakdown_category_tracks_engagement(self, dataset):
        plain = _train(dataset)
        assert "gradsync" not in plain.breakdown
        assert "allreduce" in plain.breakdown
        waitfree = _train(dataset, grad_overlap=True)
        assert "gradsync" in waitfree.breakdown

    def test_grad_summary_reports_the_exchange(self, dataset):
        result = _train(dataset, grad_overlap=True, grad_dtype="bfloat16")
        summary = result.grad_summary
        assert summary["overlap"] is True
        assert summary["wire_dtype"] == "bfloat16"
        assert summary["bucket_bytes"] > 0     # auto-sized when engaged
        assert summary["posts_per_epoch"] == 3.0
        assert summary["wire_MB_per_epoch"] > 0

    def test_transparent_run_reports_no_fusion(self, dataset):
        result = _train(dataset)
        summary = result.grad_summary
        assert summary["overlap"] is False
        assert summary["bucket_bytes"] == 0
