"""Tests for the autotuning planner subsystem (repro.plan).

Covers deterministic ranking under a fixed seed, the pricing rule (the
pick is the argmin of the simulator over the enumerated space; the
closed-form planner runs nothing), plan-cache round trip (a second
planner run simulates nothing), cache invalidation when the matrix
fingerprint changes, and end-to-end bit-identity of ``"auto"`` training
against the explicitly configured equivalent on every communicator
backend.
"""

from __future__ import annotations

import dataclasses
import functools
import json

import numpy as np
import pytest

from repro.comm import SimCommunicator
from repro.core import AUTO, DistTrainConfig, train_distributed
from repro.core.config import Algorithm, training_layer_dims
from repro.core.dist_matrix import DistDenseMatrix
from repro.core.engine import compile as compile_spmm
from repro.core.spmm_15d import ProcessGrid
from repro.core.trainer import setup_distributed
from repro.graphs.datasets import load_dataset
from repro.core.costmodel import epoch_spmm_widths
from repro.plan import (BACKEND_MESSAGE_OVERHEAD_S, CACHE_ENV_VAR, PlanCache,
                        PlanCandidate, PlanMatrixCache, Planner,
                        backend_overhead_s, enumerate_candidates,
                        matrix_fingerprint, plan_for_dataset, resolve_config,
                        score_candidates, valid_replication_factors)
from repro.plan.planner import ExecutionPlan


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("amazon", scale=0.05, seed=0)


@pytest.fixture(scope="module")
def other_dataset():
    """Same name/scale, different seed: a different matrix fingerprint."""
    return load_dataset("amazon", scale=0.05, seed=1)


def make_planner(tmp_cache=None, **overrides):
    """A fully deterministic planner on the default pricing rule."""
    kwargs = dict(machine="perlmutter-scaled", seed=0)
    if tmp_cache is not None:
        kwargs.update(cache=PlanCache(tmp_cache), use_cache=True)
    else:
        kwargs.update(use_cache=False)
    kwargs.update(overrides)
    return Planner(**kwargs)


# ----------------------------------------------------------------------
# Plan space
# ----------------------------------------------------------------------
class TestSpace:
    def test_valid_replication_factors(self):
        assert valid_replication_factors(16) == [2, 4]
        assert valid_replication_factors(8) == [2]
        assert valid_replication_factors(6) == []
        assert valid_replication_factors(4, candidates=(1, 2)) == [1, 2]

    def test_enumeration_is_deterministic(self):
        a = enumerate_candidates(8)
        b = enumerate_candidates(8)
        assert a == b
        assert a == sorted(a, key=PlanCandidate.sort_key)

    def test_covers_all_axes(self):
        cands = enumerate_candidates(16)
        assert {c.algorithm for c in cands} == {"1d", "1.5d"}
        assert {c.mode for c in cands} == {"oblivious", "sparsity_aware"}
        assert {c.backend for c in cands} == {"process", "sim", "threaded"}
        assert {c.partitioner for c in cands} == {None, "metis_like", "gvb"}
        assert {c.replication_factor
                for c in cands if c.algorithm == "1.5d"} == {2, 4}
        assert all(c.replication_factor == 1
                   for c in cands if c.algorithm == "1d")

    def test_constrained_space(self):
        cands = enumerate_candidates(
            8, backends=["sim"], partitioners=[None], algorithms=["1d"],
            modes=["sparsity_aware"])
        assert len(cands) == 1
        only = cands[0]
        assert (only.algorithm, only.backend, only.partitioner) == \
            ("1d", "sim", None)
        assert only.sparsity_aware

    def test_multiple_rank_counts(self):
        cands = enumerate_candidates([4, 8], backends=["sim"],
                                     partitioners=[None], algorithms=["1d"])
        assert {c.n_ranks for c in cands} == {4, 8}

    def test_rejects_unknown_axes(self):
        with pytest.raises(ValueError, match="unknown backends"):
            enumerate_candidates(4, backends=["nope"])
        with pytest.raises(ValueError, match="unknown partitioners"):
            enumerate_candidates(4, partitioners=["nope"])
        with pytest.raises(ValueError, match="cannot train"):
            enumerate_candidates(4, algorithms=["2d"])

    def test_prunes_oversized_block_counts(self):
        assert enumerate_candidates(64, n_vertices=3) == []
        # 1.5D replication shrinks the block-row count, so high-c
        # candidates can stay feasible where 1D is pruned.
        survivors = enumerate_candidates(64, n_vertices=10)
        assert survivors
        assert all(c.n_block_rows <= 10 for c in survivors)
        assert all(c.algorithm == "1.5d" for c in survivors)


# ----------------------------------------------------------------------
# Pricing
# ----------------------------------------------------------------------
class TestScore:
    def test_ranking_sorted_and_positive(self, dataset):
        cache = PlanMatrixCache(dataset.adjacency, seed=0)
        cands = enumerate_candidates(8, n_vertices=cache.n_vertices)
        scored = score_candidates(cands, cache, [300, 16, 24],
                                  "perlmutter-scaled")
        assert len(scored) == len(cands)
        prices = [s.price_s for s in scored]
        assert prices == sorted(prices)
        assert prices == [s.simulated_s for s in scored]
        assert all(s.predicted_s > 0 and s.simulated_s > 0 for s in scored)

    def test_closed_form_ranking_simulates_nothing(self, dataset):
        cache = PlanMatrixCache(dataset.adjacency, seed=0)
        cands = enumerate_candidates(8, n_vertices=cache.n_vertices)
        scored = score_candidates(cands, cache, [300, 16, 24],
                                  "perlmutter-scaled", simulate=False)
        assert all(s.simulated_s is None for s in scored)
        predictions = [s.predicted_s for s in scored]
        assert predictions == sorted(predictions)
        assert predictions == [s.price_s for s in scored]

    def test_backend_overhead_orders_backends(self, dataset):
        cache = PlanMatrixCache(dataset.adjacency, seed=0)
        cands = enumerate_candidates(
            8, partitioners=[None], algorithms=["1d"],
            modes=["sparsity_aware"])
        scored = score_candidates(cands, cache, [300, 16, 24],
                                  "perlmutter-scaled")
        by_backend = {s.candidate.backend: s.predicted_s for s in scored}
        assert by_backend["sim"] < by_backend["threaded"] \
            < by_backend["process"]
        assert BACKEND_MESSAGE_OVERHEAD_S["sim"] == 0.0

    def test_cached_input_propagation_prices_the_shorter_epoch(self, dataset):
        cache = PlanMatrixCache(dataset.adjacency, seed=0)
        cands = enumerate_candidates(8, partitioners=[None],
                                     n_vertices=cache.n_vertices)
        dims = [300, 16, 24]
        paper = {s.candidate: s for s in score_candidates(
            cands, cache, dims, "perlmutter-scaled")}
        cached = {s.candidate: s for s in score_candidates(
            cands, cache, dims, "perlmutter-scaled",
            cache_input_propagation=True)}
        assert paper.keys() == cached.keys()
        # 2L - 2 SpMMs' messages out of the paper's 2L: 2 / 4 here
        ratio = len(epoch_spmm_widths(dims, True)) \
            / len(epoch_spmm_widths(dims, False))
        assert ratio == 2 / 4
        for candidate, scored in cached.items():
            assert scored.predicted_s < paper[candidate].predicted_s
            assert scored.overhead_s == pytest.approx(
                paper[candidate].overhead_s * ratio)

    def test_cached_one_layer_model_has_no_spmm_overhead(self):
        cands = enumerate_candidates(8, partitioners=[None],
                                     algorithms=["1d"],
                                     modes=["sparsity_aware"])
        overheads = {"sim": 1e-4, "threaded": 1e-4, "process": 1e-4}
        for candidate in cands:
            assert backend_overhead_s(candidate, [300, 24],
                                      overheads=overheads) > 0
            assert backend_overhead_s(candidate, [300, 24],
                                      overheads=overheads,
                                      cache_input_propagation=True) == 0

    def test_matrix_cache_reuses_instances(self, dataset):
        cache = PlanMatrixCache(dataset.adjacency, seed=0)
        assert cache.matrix("gvb", 4) is cache.matrix("gvb", 4)
        assert cache.matrix("gvb", 4) is not cache.matrix("gvb", 8)

    def test_matrix_cache_rejects_oversized(self, dataset):
        cache = PlanMatrixCache(dataset.adjacency, seed=0)
        with pytest.raises(ValueError, match="cannot distribute"):
            cache.matrix(None, cache.n_vertices + 1)


# ----------------------------------------------------------------------
# Fingerprints and the JSON cache
# ----------------------------------------------------------------------
class TestCache:
    def test_fingerprint_stable_and_sensitive(self, dataset, other_dataset):
        fp1 = matrix_fingerprint(dataset.adjacency)
        assert fp1 == matrix_fingerprint(dataset.adjacency)
        assert fp1 != matrix_fingerprint(other_dataset.adjacency)

    def test_round_trip(self, tmp_path):
        cache = PlanCache(tmp_path / "plans.json")
        assert cache.get("k") is None
        cache.put("k", {"answer": 42})
        assert cache.get("k") == {"answer": 42}
        assert len(cache) == 1
        cache.clear()
        assert cache.get("k") is None

    def test_corrupt_file_is_treated_as_empty(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text("{not json")
        cache = PlanCache(path)
        assert cache.get("k") is None
        cache.put("k", {"v": 1})          # overwrites the corrupt file
        assert cache.get("k") == {"v": 1}
        json.loads(path.read_text())      # now valid JSON again

    def test_foreign_version_ignored(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({"version": 999, "plans": {"k": {}}}))
        assert PlanCache(path).get("k") is None

    def test_version_1_file_is_read_as_empty(self, dataset, tmp_path):
        """Records ranked under the closed-form-then-top-k rule are misses
        for every planner, and the next write replaces the file."""
        path = tmp_path / "plans.json"
        planner = make_planner(path)
        key = planner.plan_for_dataset(dataset, 4).key
        plan = dict(PlanCache(path).get(key)["plan"])
        del plan["simulated_s"]
        record = {"plan": {**plan, "probed_s": 1.0, "source": "probed"},
                  "table": [], "probes_run": 3, "probed": True,
                  "complete": True}
        path.write_text(json.dumps({"version": 1, "plans": {key: record}}))
        cache = PlanCache(path)
        assert cache.get(key) is None and len(cache) == 0
        assert cache.dead_configs(plan["fingerprint"]) == set()
        again = make_planner(path).plan_for_dataset(dataset, 4)
        assert not again.cache_hit and again.groups_simulated > 0
        assert json.loads(path.read_text())["version"] == 2
        assert make_planner(path).plan_for_dataset(dataset, 4).cache_hit


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class TestPlanner:
    def test_ranking_is_deterministic_under_fixed_seed(self, dataset):
        rep1 = make_planner().plan_for_dataset(dataset, 8)
        rep2 = make_planner().plan_for_dataset(dataset, 8)
        assert rep1.table == rep2.table
        assert rep1.plan == rep2.plan
        assert rep1.groups_simulated == rep2.groups_simulated > 0

    def test_table_is_ranked_and_marks_choice(self, dataset):
        report = make_planner().plan_for_dataset(dataset, 8)
        assert [row["rank"] for row in report.table] == \
            list(range(1, len(report.table) + 1))
        chosen = [row for row in report.table if row["chosen"] == "*"]
        assert len(chosen) == 1 and chosen[0]["rank"] == 1
        assert chosen[0]["algorithm"] == report.plan.algorithm
        assert chosen[0]["backend"] == report.plan.backend
        # Every candidate carries both prices: model and simulator.
        assert all(row["predicted_s"] is not None
                   and row["simulated_s"] is not None for row in report.table)
        groups = {(row["algorithm"], row["mode"], row["partitioner"],
                   row["c"], row["p"], row["depth"]) for row in report.table}
        assert report.groups_simulated == len(groups)

    def test_plan_cache_round_trip_skips_simulation(self, dataset, tmp_path):
        cache_path = tmp_path / "plans.json"
        first = make_planner(cache_path).plan_for_dataset(dataset, 8)
        assert not first.cache_hit and first.groups_simulated > 0

        second = make_planner(cache_path).plan_for_dataset(dataset, 8)
        assert second.cache_hit
        assert second.groups_simulated == 0
        assert second.plan.source == "cache"
        assert second.plan.as_config_kwargs() == first.plan.as_config_kwargs()
        assert second.table == first.table

    def test_cache_invalidated_by_matrix_fingerprint(self, dataset,
                                                     other_dataset, tmp_path):
        cache_path = tmp_path / "plans.json"
        first = make_planner(cache_path).plan_for_dataset(dataset, 8)
        other = make_planner(cache_path).plan_for_dataset(other_dataset, 8)
        assert not other.cache_hit          # different fingerprint -> re-plan
        assert other.groups_simulated > 0
        assert other.plan.fingerprint != first.plan.fingerprint
        # ... and both entries now coexist in the cache.
        assert make_planner(cache_path).plan_for_dataset(dataset, 8).cache_hit
        assert make_planner(cache_path) \
            .plan_for_dataset(other_dataset, 8).cache_hit

    def test_read_only_resolution_reuses_tuned_plans(self, dataset, tmp_path):
        """The tune -> train --auto handoff: a read-only planner over the
        same space reuses the cache entry, while the pricing rule keys it:
        a closed-form record is never served to a simulating planner, nor
        the other way round."""
        cache_path = tmp_path / "plans.json"
        tuned = make_planner(cache_path).plan_for_dataset(dataset, 8)
        read_only = Planner(machine="perlmutter-scaled", seed=0,
                            cache=PlanCache(cache_path), cache_read_only=True)
        reused = read_only.plan_for_dataset(dataset, 8)
        assert reused.cache_hit
        assert reused.plan.as_config_kwargs() == \
            tuned.plan.as_config_kwargs()
        closed_form = Planner(machine="perlmutter-scaled", probe=False,
                              seed=0, cache=PlanCache(cache_path))
        assert not closed_form.plan_for_dataset(dataset, 8).cache_hit

        other_path = tmp_path / "plans2.json"
        Planner(machine="perlmutter-scaled", probe=False, seed=0,
                cache=PlanCache(other_path)).plan_for_dataset(dataset, 8)
        again = make_planner(other_path).plan_for_dataset(dataset, 8)
        assert not again.cache_hit          # closed-form record

    def test_read_only_planner_never_writes(self, dataset, tmp_path):
        cache_path = tmp_path / "plans.json"
        planner = Planner(machine="perlmutter-scaled", probe=False, seed=0,
                          cache=PlanCache(cache_path), cache_read_only=True)
        planner.plan_for_dataset(dataset, 8)
        assert not cache_path.exists()

    def test_cache_invalidated_when_backend_registry_grows(self, dataset,
                                                           tmp_path,
                                                           monkeypatch):
        """Registering a new backend must invalidate cached default-space
        plans (the resolved axes are part of the key)."""
        from repro.comm import factory
        cache_path = tmp_path / "plans.json"
        first = make_planner(cache_path, probe=False) \
            .plan_for_dataset(dataset, 8)
        assert not first.cache_hit
        monkeypatch.setitem(factory.BACKENDS, "zzz-fake",
                            factory.BACKENDS["sim"])
        report = make_planner(cache_path, probe=False) \
            .plan_for_dataset(dataset, 8)
        assert not report.cache_hit

    def test_cache_key_separates_plan_spaces(self, dataset, tmp_path):
        cache_path = tmp_path / "plans.json"
        make_planner(cache_path).plan_for_dataset(dataset, 8)
        constrained = make_planner(cache_path, backends=["threaded"])
        report = constrained.plan_for_dataset(dataset, 8)
        assert not report.cache_hit         # different space, different key
        assert report.plan.backend == "threaded"

    def test_probeless_planner_is_analytic(self, dataset):
        report = make_planner(probe=False).plan_for_dataset(dataset, 8)
        assert report.groups_simulated == 0
        assert report.plan.source == "analytic"
        assert report.plan.simulated_s is None

    def test_empty_space_raises(self, dataset):
        tiny = load_dataset("reddit", scale=0.01, seed=0)
        with pytest.raises(ValueError, match="plan space is empty"):
            make_planner(probe=False).plan_for_dataset(tiny, 10 ** 6)

    def test_execution_plan_dict_round_trip(self, dataset):
        plan = make_planner(probe=False).plan_for_dataset(dataset, 8).plan
        clone = ExecutionPlan.from_dict(json.loads(json.dumps(plan.as_dict())))
        assert clone == plan


# ----------------------------------------------------------------------
# The pricing rule
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def tier1_dataset(name):
    return load_dataset(name, scale=0.05, seed=0)


def reference_sim_s(candidate, matrices, dims, machine):
    """One epoch's SpMMs of ``candidate`` on a fresh simulator, written out
    independently of the planner: the oracle its pick must minimise."""
    widths = epoch_spmm_widths(dims, False)
    matrix = matrices.matrix(candidate.partitioner, candidate.n_block_rows)
    operand = np.random.default_rng(0).standard_normal(
        (matrix.shape[0], max(widths)))
    grid = ProcessGrid(nranks=candidate.n_ranks,
                       replication=candidate.replication_factor) \
        if candidate.algorithm == Algorithm.ONE_POINT_FIVE_D else None
    with SimCommunicator(candidate.n_ranks, machine=machine) as comm:
        op = compile_spmm(matrix, comm, algorithm=candidate.algorithm,
                          sparsity_aware=candidate.sparsity_aware, grid=grid)
        for f in widths:
            op(DistDenseMatrix.from_global(
                np.ascontiguousarray(operand[:, :f]), matrix.dist))
        return comm.elapsed()


class TestPricingRule:
    @pytest.mark.parametrize("p", [4, 8, 16])
    @pytest.mark.parametrize("name", ["amazon", "protein", "reddit"])
    def test_pick_is_the_sim_argmin(self, name, p):
        """Over everything ``enumerate_candidates`` spans, the planner picks
        a group the simulator prices cheapest."""
        dataset = tier1_dataset(name)
        machine = "perlmutter-scaled"
        report = Planner(machine=machine, backends=["sim"], use_cache=False,
                         seed=0).plan_for_dataset(dataset, p)
        dims = training_layer_dims(dataset.node_data.n_features,
                                   dataset.node_data.n_classes, 16, 3)
        matrices = report.matrix_cache
        prices = {c: reference_sim_s(c, matrices, dims, machine)
                  for c in enumerate_candidates(
                      p, backends=["sim"], n_vertices=matrices.n_vertices)}
        plan = report.plan
        pick = PlanCandidate(plan.algorithm, plan.sparsity_aware,
                             plan.backend, plan.partitioner,
                             plan.replication_factor, plan.n_ranks)
        cheapest = min(prices.values())
        argmin = [c for c, s in prices.items() if s == cheapest]
        assert prices[pick] == cheapest, (pick, prices[pick], argmin)

    def test_gate_call_runs_no_simulation(self, dataset, tmp_path,
                                          monkeypatch):
        """``probe=False`` ranks by the closed forms and executes nothing."""
        from repro.plan import score

        def refuse(*args, **kwargs):
            raise AssertionError("the closed-form planner ran a simulation")

        monkeypatch.setattr(score, "simulate_epoch_s", refuse)
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "plans.json"))
        report = plan_for_dataset(dataset, 4, machine="perlmutter",
                                  hidden=16, n_layers=3, probe=False, seed=0)
        assert not report.cache_hit and report.groups_simulated == 0
        assert report.plan.source == "analytic"
        assert report.plan.simulated_s is None
        assert all(row["simulated_s"] is None for row in report.table)
        predicted = [row["predicted_s"] for row in report.table]
        assert predicted == sorted(predicted)
        assert report.plan.predicted_s == predicted[0]


# ----------------------------------------------------------------------
# Config resolution + trainer integration
# ----------------------------------------------------------------------
class TestResolveConfig:
    def test_concrete_config_passes_through(self, dataset):
        config = DistTrainConfig(n_ranks=4, epochs=1)
        resolved, plan = resolve_config(dataset, config)
        assert resolved is config and plan is None

    def test_auto_fields_are_resolved(self, dataset):
        config = DistTrainConfig(n_ranks=4, algorithm=AUTO, backend=AUTO,
                                 partitioner=AUTO, epochs=1,
                                 machine="perlmutter-scaled")
        assert config.needs_planning and config.scheme_label == "AUTO"
        resolved, plan = resolve_config(dataset, config)
        assert plan is not None
        assert not resolved.needs_planning
        assert resolved.algorithm in ("1d", "1.5d")
        assert resolved.backend in ("sim", "threaded", "process")
        assert resolved.n_ranks == 4 and resolved.epochs == 1

    def test_pinned_fields_stay_pinned(self, dataset):
        config = DistTrainConfig(n_ranks=4, algorithm="1d",
                                 sparsity_aware=False, backend=AUTO,
                                 partitioner="metis_like", epochs=1)
        resolved, plan = resolve_config(dataset, config)
        assert resolved.algorithm == "1d"
        assert resolved.sparsity_aware is False
        assert resolved.partitioner == "metis_like"
        assert resolved.replication_factor == 1
        assert resolved.backend in ("sim", "threaded", "process")

    def test_resolution_plans_the_schedule_that_will_run(self, dataset):
        """The config's cache flag reaches the scorer: same space, two
        different cache keys and predictions."""
        base = dict(n_ranks=4, algorithm=AUTO, backend="sim",
                    partitioner=None, epochs=1, machine="perlmutter-scaled")
        _, cached = resolve_config(dataset, DistTrainConfig(**base))
        _, paper = resolve_config(dataset, DistTrainConfig(
            cache_input_propagation=False, **base))
        assert cached.predicted_s < paper.predicted_s
        planner = dict(machine="perlmutter-scaled", probe=False,
                       use_cache=False)
        assert Planner(**planner)._space_signature() != Planner(
            cache_input_propagation=True, **planner)._space_signature()

    def test_auto_config_validation(self):
        config = DistTrainConfig(algorithm=AUTO)
        with pytest.raises(ValueError, match="resolve the plan"):
            config.n_block_rows
        with pytest.raises(ValueError, match="unknown communicator backend"):
            DistTrainConfig(backend="autooo")

    def test_resolve_config_returns_reusable_partition(self, dataset):
        from repro.partition import get_partitioner
        config = DistTrainConfig(n_ranks=4, algorithm=AUTO, backend="sim",
                                 partitioner="gvb", epochs=1,
                                 machine="perlmutter-scaled")
        resolved, plan, partition = resolve_config(dataset, config,
                                                   return_partition=True)
        assert plan is not None and partition is not None
        recomputed = get_partitioner("gvb", seed=resolved.seed).partition(
            dataset.adjacency, resolved.n_block_rows)
        assert np.array_equal(partition.parts, recomputed.parts)

    def test_setup_rejects_mismatched_partition(self, dataset):
        from repro.partition import get_partitioner
        config = DistTrainConfig(n_ranks=4, partitioner="gvb", epochs=1,
                                 machine="perlmutter-scaled")
        wrong = get_partitioner("gvb", seed=0).partition(dataset.adjacency, 8)
        with pytest.raises(ValueError, match="supplied partition"):
            setup_distributed(dataset, config, partition=wrong)

    def test_setup_distributed_resolves_auto(self, dataset):
        config = DistTrainConfig(n_ranks=4, algorithm=AUTO, backend="sim",
                                 partitioner=AUTO, epochs=1,
                                 machine="perlmutter-scaled")
        setup = setup_distributed(dataset, config)
        with setup.comm:
            assert setup.config is not None
            assert not setup.config.needs_planning
            assert setup.plan is not None
            assert setup.plan.backend == "sim"


class TestAutoTrainingBitIdentity:
    """variant="auto" must train bit-identically to the explicit config."""

    @pytest.mark.parametrize("backend", ["sim", "threaded", "process"])
    def test_auto_matches_explicit(self, backend):
        dataset = load_dataset("reddit", scale=0.04, seed=0)
        auto_config = DistTrainConfig(
            n_ranks=4, algorithm=AUTO, partitioner=AUTO, backend=backend,
            epochs=2, machine="laptop", seed=0)
        auto_result = train_distributed(dataset, auto_config, eval_every=0)
        resolved = auto_result.config
        assert not resolved.needs_planning
        assert resolved.backend == backend

        explicit = DistTrainConfig(
            n_ranks=4,
            algorithm=resolved.algorithm,
            sparsity_aware=resolved.sparsity_aware,
            partitioner=resolved.partitioner,
            replication_factor=resolved.replication_factor,
            backend=backend, epochs=2, machine="laptop", seed=0)
        explicit_result = train_distributed(dataset, explicit, eval_every=0)

        assert [h.loss for h in auto_result.history] == \
            [h.loss for h in explicit_result.history]
        assert np.array_equal(auto_result.model.predictions(),
                              explicit_result.model.predictions())
