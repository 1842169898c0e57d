"""Checkpoint/restore and fault-tolerant training.

Four layers, matching the fault-tolerance claims bottom-up:

1. the on-disk format: atomic writes, header validation (magic, version,
   truncation, CRC), pruning;
2. corruption handling: a damaged newest checkpoint falls back to the
   previous intact one with a warning, an all-corrupt directory raises a
   clear :class:`CheckpointError`, and a fingerprint mismatch refuses to
   resume into a silently diverging run;
3. the bit-identity property (Hypothesis over the kill epoch, every
   backend): train with checkpoint-every-1, kill a rank mid-run, let the
   supervised retry restore and finish — the final weights must be
   **bitwise identical** to the uninterrupted run;
4. elastic restart: a killed rank at p=4 re-plans to p=3 (a pinned 1.5D
   run at p=8 walks down to the first count with a grid, p=4), training
   continues and converges, and the dead configuration is recorded in
   the plan cache and never served again.
"""

from __future__ import annotations

import dataclasses
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.comm.faults import FaultPlan, WorkerFailure
from repro.core import AUTO, DistTrainConfig, train_distributed
from repro.core.checkpoint import (CheckpointError, CheckpointManager,
                                   TrainingCheckpoint, config_fingerprint,
                                   read_checkpoint, write_checkpoint)
from repro.core.config import training_layer_dims
from repro.graphs import load_dataset
from repro.partition import get_partitioner
from repro.plan import PlanCache, Planner, matrix_fingerprint

SETTINGS = dict(max_examples=4, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("reddit", scale=0.05, n_features=10, n_classes=3,
                        seed=9)


def _ckpt(epoch: int, seed: int = 0, fingerprint: str = "fp") \
        -> TrainingCheckpoint:
    rng = np.random.default_rng(seed)
    return TrainingCheckpoint(
        epoch=epoch,
        weights=[rng.normal(size=(4, 3)), rng.normal(size=(3, 2))],
        optimizer_state={"name": "sgd", "learning_rate": 0.05},
        rng_state=np.random.RandomState(seed).get_state(),
        plan_fingerprint=fingerprint,
        history=[{"epoch": e, "loss": 1.0 / (e + 1), "epoch_time_s": 0.1,
                  "train_accuracy": None, "val_accuracy": None}
                 for e in range(epoch)])


# ----------------------------------------------------------------------
# 1. Format
# ----------------------------------------------------------------------
class TestCheckpointFormat:
    def test_roundtrip_bitwise(self, tmp_path):
        ckpt = _ckpt(3, seed=7)
        path = write_checkpoint(tmp_path / "c.ckpt", ckpt)
        back = read_checkpoint(path)
        assert back.epoch == 3
        assert back.plan_fingerprint == "fp"
        for got, want in zip(back.weights, ckpt.weights):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
        assert back.history == ckpt.history
        restored = np.random.RandomState()
        restored.set_state(back.rng_state)
        expected = np.random.RandomState(7)
        assert restored.random_sample(5).tolist() \
            == expected.random_sample(5).tolist()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="bad magic"):
            read_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = write_checkpoint(tmp_path / "c.ckpt", _ckpt(1))
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)
        path.write_bytes(raw[:10])           # inside the header
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_bitflip_rejected_by_crc(self, tmp_path):
        path = write_checkpoint(tmp_path / "c.ckpt", _ckpt(1))
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC32"):
            read_checkpoint(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(np.random.default_rng(0).bytes(256))
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_manager_prunes_to_keep(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=2)
        for epoch in (1, 2, 3, 4):
            mgr.save(_ckpt(epoch))
        names = [p.name for p in mgr.paths()]
        assert names == ["ckpt-00000003.ckpt", "ckpt-00000004.ckpt"]
        assert mgr.load_latest().epoch == 4

    def test_no_temp_files_survive_save(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=3)
        mgr.save(_ckpt(1))
        leftovers = [p for p in tmp_path.iterdir()
                     if not p.name.endswith(".ckpt")]
        assert leftovers == [], "atomic write must not leave temp files"

    def test_empty_directory_returns_none(self, tmp_path):
        assert CheckpointManager(tmp_path).load_latest() is None


# ----------------------------------------------------------------------
# 2. Corruption handling / fingerprint guard
# ----------------------------------------------------------------------
class TestCorruptionHandling:
    def test_corrupt_newest_falls_back_to_intact(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=3)
        mgr.save(_ckpt(1, seed=1))
        good = mgr.save(_ckpt(2, seed=2))
        bad = mgr.save(_ckpt(3, seed=3))
        bad.write_bytes(bad.read_bytes()[:20])     # truncate the newest
        with pytest.warns(RuntimeWarning, match="skipping corrupt"):
            ckpt = mgr.load_latest()
        assert ckpt.epoch == 2
        np.testing.assert_array_equal(ckpt.weights[0],
                                      read_checkpoint(good).weights[0])

    def test_all_corrupt_raises_listing_failures(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=3)
        for epoch in (1, 2):
            path = mgr.save(_ckpt(epoch))
            path.write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning):
            with pytest.raises(CheckpointError,
                               match="no intact checkpoint"):
                mgr.load_latest()

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(_ckpt(2, fingerprint="aaaa"))
        with pytest.raises(CheckpointError, match="incompatible plans"):
            mgr.load_latest(expect_fingerprint="bbbb")
        assert mgr.load_latest(expect_fingerprint="aaaa").epoch == 2
        assert mgr.load_latest(expect_fingerprint=None).epoch == 2

    def test_trainer_rejects_foreign_checkpoint(self, dataset, tmp_path):
        """End-to-end: resuming with a numerically different config
        (another learning rate) fails loudly, not silently."""
        base = dict(n_ranks=2, epochs=2, backend="sim", hidden=6,
                    n_layers=2, checkpoint_dir=str(tmp_path),
                    checkpoint_every=1)
        train_distributed(dataset, DistTrainConfig(**base), eval_every=0)
        other = DistTrainConfig(**{**base, "learning_rate": 0.01},
                                resume=True)
        with pytest.raises(CheckpointError, match="incompatible plans"):
            train_distributed(dataset, other, eval_every=0)

    def test_config_fingerprint_axes(self):
        a = DistTrainConfig(n_ranks=4, epochs=5)
        # Strategy axes (backend, pipelining) are proven bit-identical
        # and must not invalidate a checkpoint...
        assert config_fingerprint(a) == config_fingerprint(
            DistTrainConfig(n_ranks=4, epochs=5, backend="threaded",
                            pipeline_depth=2, grad_overlap=True))
        # ...while trajectory-changing axes must.
        assert config_fingerprint(a) != config_fingerprint(
            DistTrainConfig(n_ranks=4, epochs=5, learning_rate=0.01))
        assert config_fingerprint(a) != config_fingerprint(
            DistTrainConfig(n_ranks=4, epochs=5, grad_dtype="float16"))


# ----------------------------------------------------------------------
# 3. Bit-identical resume (the property) on every backend
# ----------------------------------------------------------------------
EPOCHS = 4
_REFERENCE: dict = {}


def _reference_weights(dataset, backend):
    """Uninterrupted final weights for one backend (computed once)."""
    if backend not in _REFERENCE:
        cfg = _train_config(backend)
        result = train_distributed(dataset, cfg, eval_every=0)
        _REFERENCE[backend] = result.model.weight_state()
    return _REFERENCE[backend]


def _train_config(backend, **kw):
    return DistTrainConfig(n_ranks=2, epochs=EPOCHS, backend=backend,
                           hidden=6, n_layers=2, **kw)


class TestResumeBitIdentity:
    @pytest.mark.parametrize("backend", ("sim", "threaded", "process"))
    @given(kill_epoch=st.integers(min_value=0, max_value=EPOCHS - 1),
           kill_rank=st.integers(min_value=0, max_value=1))
    @settings(**SETTINGS)
    def test_kill_resume_bitwise_identical(self, dataset, backend,
                                           kill_epoch, kill_rank):
        """Kill a rank at a Hypothesis-chosen epoch; the supervised
        restart restores the last checkpoint and the final weights are
        bit-identical to the run that never failed."""
        reference = _reference_weights(dataset, backend)
        with tempfile.TemporaryDirectory() as ckpt_dir:
            cfg = _train_config(backend, checkpoint_dir=ckpt_dir,
                                checkpoint_every=1, max_restarts=1)
            plan = FaultPlan.kill(rank=kill_rank, epoch=kill_epoch)
            result = train_distributed(dataset, cfg, eval_every=0,
                                       fault_plan=plan)
        assert result.restarts == 1
        # A kill during epoch 0 finds no checkpoint (they are written on
        # epoch completion): the retry legitimately starts from scratch.
        expected_resume = kill_epoch if kill_epoch > 0 else None
        assert result.resumed_from_epoch == expected_resume
        final = result.model.weight_state()
        assert len(final) == len(reference)
        for got, want in zip(final, reference):
            np.testing.assert_array_equal(
                got, want,
                err_msg=f"resume after kill@epoch{kill_epoch} diverged "
                        f"on backend {backend!r}")

    @pytest.mark.parametrize("backend", ("sim", "threaded", "process"))
    def test_cold_resume_bitwise_identical(self, dataset, backend,
                                           tmp_path):
        """Stop after half the epochs, resume in a fresh run: identical
        to training straight through."""
        reference = _reference_weights(dataset, backend)
        half = dataclasses.replace(
            _train_config(backend, checkpoint_dir=str(tmp_path),
                          checkpoint_every=1),
            epochs=EPOCHS // 2)
        train_distributed(dataset, half, eval_every=0)
        full = _train_config(backend, checkpoint_dir=str(tmp_path),
                             checkpoint_every=1, resume=True)
        result = train_distributed(dataset, full, eval_every=0)
        assert result.resumed_from_epoch == EPOCHS // 2
        for got, want in zip(result.model.weight_state(), reference):
            np.testing.assert_array_equal(got, want)

    def test_without_restart_budget_failure_propagates(self, dataset):
        cfg = _train_config("sim")
        with pytest.raises(WorkerFailure) as excinfo:
            train_distributed(dataset, cfg, eval_every=0,
                              fault_plan=FaultPlan.kill(rank=1, epoch=1))
        assert excinfo.value.rank == 1

    def test_restart_without_checkpoints_starts_over(self, dataset):
        """max_restarts without a checkpoint dir: the retry re-trains
        from scratch and still lands on the reference weights."""
        reference = _reference_weights(dataset, "sim")
        cfg = _train_config("sim", max_restarts=1)
        result = train_distributed(dataset, cfg, eval_every=0,
                                   fault_plan=FaultPlan.kill(rank=0,
                                                             epoch=2))
        assert result.restarts == 1
        assert result.resumed_from_epoch is None
        for got, want in zip(result.model.weight_state(), reference):
            np.testing.assert_array_equal(got, want)

    def test_restart_keeps_the_supplied_partition(self, dataset):
        """A non-elastic retry runs on the partition the caller supplied,
        not on a fresh one from ``config.partitioner``."""
        cfg = DistTrainConfig(n_ranks=4, epochs=EPOCHS, backend="sim",
                              hidden=6, n_layers=2, partitioner="gvb",
                              max_restarts=1)
        supplied = get_partitioner("random", seed=0).partition(
            dataset.adjacency, 4)
        reference = train_distributed(dataset, cfg, eval_every=0,
                                      partition=supplied)
        result = train_distributed(dataset, cfg, eval_every=0,
                                   partition=supplied,
                                   fault_plan=FaultPlan.kill(rank=1, epoch=1))
        assert result.restarts == 1
        assert result.partition_stats == dict(supplied.stats)
        assert [h.loss for h in result.history] == \
            [h.loss for h in reference.history]
        for got, want in zip(result.model.weight_state(),
                             reference.model.weight_state()):
            np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# 4. Elastic restart
# ----------------------------------------------------------------------
class TestElasticRestart:
    def test_elastic_replans_at_survivor_count(self, dataset, tmp_path):
        cfg = DistTrainConfig(n_ranks=4, epochs=6, backend="sim", hidden=6,
                              n_layers=2, checkpoint_dir=str(tmp_path),
                              checkpoint_every=1, max_restarts=1,
                              elastic=True)
        plan = FaultPlan.kill(rank=2, epoch=3)
        result = train_distributed(dataset, cfg, eval_every=0,
                                   fault_plan=plan)
        assert result.restarts == 1
        assert result.config.n_ranks == 3, \
            "elastic restart must land at the surviving rank count"
        assert result.resumed_from_epoch == 3
        losses = [rec.loss for rec in result.history]
        assert len(losses) == 6
        assert losses[-1] < losses[0], "training must keep converging"
        # The failed configuration is on record for this matrix.
        assert ("sim", 4) in PlanCache().dead_configs(
            matrix_fingerprint(dataset.adjacency))

    def test_elastic_restart_replans_auto_axes(self):
        """An ``"auto"`` run's elastic retry searches the auto axes again
        at the surviving rank count instead of planning for a partitioner
        named ``"auto"``."""
        reddit = load_dataset("reddit", scale=0.05, seed=0)
        cfg = DistTrainConfig(n_ranks=4, algorithm=AUTO, partitioner=AUTO,
                              epochs=3, backend="sim", max_restarts=1,
                              elastic=True, machine="perlmutter-scaled")
        result = train_distributed(reddit, cfg, eval_every=0,
                                   fault_plan=FaultPlan.kill(rank=1,
                                                             epoch=1))
        assert result.restarts == 1
        assert result.config.n_ranks == 3
        assert not result.config.needs_planning
        assert len(result.history) == 3

    def test_elastic_restart_of_pinned_15d_walks_down_to_a_grid(self):
        """Survivor counts 7, 6 and 5 fit no c = 2 grid, so the re-plan
        walks down to the first count the planner accepts instead of
        dying on an empty plan space at 7."""
        reddit = load_dataset("reddit", scale=0.05, seed=0)
        cfg = DistTrainConfig(n_ranks=8, algorithm="1.5d",
                              replication_factor=2, partitioner=None,
                              epochs=3, backend="sim", max_restarts=1,
                              elastic=True)
        result = train_distributed(reddit, cfg, eval_every=0,
                                   fault_plan=FaultPlan.kill(rank=1,
                                                             epoch=1))
        assert result.restarts == 1
        assert result.config.n_ranks == 4
        assert (result.config.algorithm,
                result.config.replication_factor) == ("1.5d", 2)
        assert len(result.history) == 3

    def test_planner_never_serves_dead_config(self, dataset, tmp_path):
        adjacency = dataset.adjacency
        dims = training_layer_dims(dataset.node_data.n_features,
                                   dataset.node_data.n_classes,
                                   hidden=6, n_layers=2)
        cache = PlanCache(tmp_path / "cache.json")

        def make_planner():
            return Planner("perlmutter", backend="sim",
                           partitioners=["block"], algorithms=["1d"],
                           modes=["sparsity_aware"], probe=False,
                           cache=cache)

        report = make_planner().plan(adjacency, dims, [3, 4])
        winner = report.plan
        # Another backend's dead configuration does not touch this one's.
        cache.mark_dead(matrix_fingerprint(adjacency), "threaded",
                        winner.n_ranks)
        assert make_planner().plan(adjacency, dims, [3, 4]).cache_hit
        cache.mark_dead(matrix_fingerprint(adjacency), winner.backend,
                        winner.n_ranks)
        # Same planner space again: the cached record now matches a dead
        # configuration, so it is a miss and the winner must differ.
        survivor = make_planner().plan(adjacency, dims, [3, 4]).plan
        assert (survivor.backend, survivor.n_ranks) \
            != (winner.backend, winner.n_ranks)
        # With every candidate dead, planning fails with a clear error.
        cache.mark_dead(matrix_fingerprint(adjacency), survivor.backend,
                        survivor.n_ranks)
        with pytest.raises(ValueError, match="excluding dead"):
            make_planner().plan(adjacency, dims, [3, 4])
