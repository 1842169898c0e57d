"""Tests for the autotuning planner subsystem (repro.plan).

Covers deterministic ranking under a fixed seed, the pricing rule (the
pick is the argmin of the trainer's own simulated epoch over the
enumerated space, and a price is that epoch plus the backend's overhead
for its exact messages; the closed-form planner runs nothing),
plan-cache round trip (a second planner run prices nothing), cache invalidation when the matrix
fingerprint changes, and end-to-end bit-identity of ``"auto"`` training
against the explicitly configured equivalent on every communicator
backend.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import json

import numpy as np
import pytest

from repro.core import AUTO, DistTrainConfig, train_distributed
from repro.core.config import training_layer_dims
from repro.core.costmodel import epoch_cost, gradient_exchange_cost
from repro.core.distribute import distribute
from repro.core.gradsync import default_bucket_bytes
from repro.core.trainer import setup_distributed
from repro.graphs.datasets import load_dataset
from repro.plan import (BACKEND_MESSAGE_OVERHEAD_S, CACHE_ENV_VAR, PlanCache,
                        PlanCandidate, Planner, enumerate_candidates,
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


def trainer_epoch(dataset, candidate, dims, cache, partition=None):
    """``(simulated seconds, messages by category)`` of one epoch of the
    trainer's own sim run of ``candidate`` on ``dataset``'s real features,
    after its real one-off ``A X`` when ``cache`` is on: the oracle the
    planner's price answers to, built through ``setup_distributed``."""
    config = DistTrainConfig(**candidate.as_config_kwargs(), hidden=dims[1],
                             n_layers=len(dims) - 1, epochs=1,
                             machine="perlmutter-scaled",
                             cache_input_propagation=cache)
    setup = setup_distributed(dataset, config, partition=partition)
    with setup.comm as comm:
        if cache:
            setup.model.input_propagation()
        before, start = len(comm.events), comm.elapsed()
        setup.model.train_epoch(config.learning_rate)
        seconds = comm.elapsed() - start
        messages = collections.Counter(
            event.category for event in list(comm.events)[before:])
    return seconds, messages


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
        assert {c.partitioner for c in cands} == {None, "metis_like", "gvb"}
        assert {c.replication_factor
                for c in cands if c.algorithm == "1.5d"} == {2, 4}
        assert all(c.replication_factor == 1
                   for c in cands if c.algorithm == "1d")

    def test_constrained_space(self):
        cands = enumerate_candidates(
            8, partitioners=[None], algorithms=["1d"],
            modes=["sparsity_aware"])
        assert len(cands) == 1
        only = cands[0]
        assert (only.algorithm, only.partitioner) == ("1d", None)
        assert only.sparsity_aware

    def test_multiple_rank_counts(self):
        cands = enumerate_candidates([4, 8], partitioners=[None],
                                     algorithms=["1d"])
        assert {c.n_ranks for c in cands} == {4, 8}

    def test_rejects_unknown_axes(self):
        with pytest.raises(ValueError, match="unknown communicator backend"):
            Planner(backend="nope", use_cache=False)
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
        adj = dataset.adjacency
        cands = enumerate_candidates(8, n_vertices=adj.shape[0])
        scored = score_candidates(cands, adj, [300, 16, 24],
                                  "perlmutter-scaled")
        assert len(scored) == len(cands)
        prices = [s.price_s for s in scored]
        assert prices == sorted(prices)
        assert prices == [s.simulated_s for s in scored]
        assert all(s.predicted_s > 0 and s.simulated_s > 0 for s in scored)

    def test_closed_form_ranking_simulates_nothing(self, dataset):
        adj = dataset.adjacency
        cands = enumerate_candidates(8, n_vertices=adj.shape[0])
        scored = score_candidates(cands, adj, [300, 16, 24],
                                  "perlmutter-scaled", simulate=False)
        assert all(s.simulated_s is None for s in scored)
        predictions = [s.predicted_s for s in scored]
        assert predictions == sorted(predictions)
        assert predictions == [s.price_s for s in scored]

    def test_backend_overhead_orders_backends(self, dataset):
        """A backend's overhead is its per-message cost times the exact
        message count of the epoch it prices; the model carries none."""
        cands = enumerate_candidates(
            8, partitioners=[None], algorithms=["1d"],
            modes=["sparsity_aware"])
        dims = [300, 16, 24]
        by_backend = {
            backend: score_candidates(cands, dataset.adjacency, dims,
                                      "perlmutter-scaled",
                                      backend=backend)[0]
            for backend in ("sim", "threaded", "process")}
        _, messages = trainer_epoch(dataset, cands[0], dims, cache=False)
        assert sum(messages.values()) > 0
        sim = by_backend["sim"]
        for backend, scored in by_backend.items():
            assert scored.predicted_s == sim.predicted_s
            assert scored.simulated_s - sim.simulated_s == pytest.approx(
                BACKEND_MESSAGE_OVERHEAD_S[backend]
                * sum(messages.values()), rel=1e-9)
        assert sim.simulated_s < by_backend["threaded"].simulated_s \
            < by_backend["process"].simulated_s
        assert BACKEND_MESSAGE_OVERHEAD_S["sim"] == 0.0

    def test_cached_input_propagation_prices_the_shorter_epoch(self, dataset):
        adj = dataset.adjacency
        cands = enumerate_candidates(8, partitioners=[None],
                                     n_vertices=adj.shape[0])
        dims = [300, 16, 24]
        per_message = BACKEND_MESSAGE_OVERHEAD_S["threaded"]

        def prices(backend, cache):
            return {s.candidate: s for s in score_candidates(
                cands, adj, dims, "perlmutter-scaled", backend=backend,
                cache_input_propagation=cache)}

        paper, cached = prices("sim", False), prices("sim", True)
        assert paper.keys() == cached.keys() == set(cands)
        messages = {}
        for cache, sim in ((False, paper), (True, cached)):
            threaded = prices("threaded", cache)
            for candidate in cands:
                count = sum(trainer_epoch(dataset, candidate, dims,
                                          cache)[1].values())
                messages[cache, candidate] = count
                assert threaded[candidate].simulated_s \
                    - sim[candidate].simulated_s \
                    == pytest.approx(per_message * count, rel=1e-9)
        for candidate, scored in cached.items():
            assert scored.predicted_s < paper[candidate].predicted_s
            assert scored.simulated_s < paper[candidate].simulated_s
            assert messages[True, candidate] < messages[False, candidate]

    def test_cached_one_layer_model_has_no_spmm_overhead(self, dataset):
        """A one-layer cached epoch runs no SpMM: its overhead is the
        gradient all-reduce's messages alone."""
        cands = enumerate_candidates(8, partitioners=[None],
                                     algorithms=["1d"],
                                     modes=["sparsity_aware"])
        dims = [300, 24]
        per_message = BACKEND_MESSAGE_OVERHEAD_S["process"]
        for cache in (False, True):
            sim, process = (score_candidates(
                cands, dataset.adjacency, dims, "perlmutter-scaled",
                backend=backend, cache_input_propagation=cache)[0]
                for backend in ("sim", "process"))
            _, messages = trainer_epoch(dataset, cands[0], dims, cache)
            assert process.simulated_s - sim.simulated_s == pytest.approx(
                per_message * sum(messages.values()), rel=1e-9)
            spmm = sum(messages.values()) - messages["allreduce"]
            assert messages["allreduce"] > 0
            assert (spmm == 0) == cache, messages

    def test_prices_only_the_trainers_gcn(self, dataset):
        """A price is the epoch of a model the trainer builds: uneven
        hidden widths are refused, not priced as something else."""
        cands = enumerate_candidates(4, partitioners=[None],
                                     algorithms=["1d"],
                                     modes=["sparsity_aware"])
        with pytest.raises(ValueError, match="not a GCN the trainer"):
            score_candidates(cands, dataset.adjacency, [300, 16, 8, 24],
                             "perlmutter-scaled", simulate=False)

    def test_scoring_distributes_each_pair_once(self, dataset,
                                                monkeypatch):
        """Candidates sharing a (partitioner, nblocks) pair share one
        distributed matrix; the per-call dict holds one per pair."""
        from repro.plan import score
        calls = []

        def counting(adjacency, *key, **kwargs):
            calls.append(key)
            return distribute(adjacency, *key, **kwargs)

        monkeypatch.setattr(score, "distribute", counting)
        cands = enumerate_candidates(8, partitioners=["gvb"],
                                     pipeline_depths=(1, 2))
        distributed = {}
        score_candidates(cands, dataset.adjacency, [300, 16, 24],
                         "perlmutter-scaled", simulate=False,
                         distributed=distributed)
        pairs = {(c.partitioner, c.n_block_rows) for c in cands}
        assert len(cands) > len(pairs) > 1
        assert sorted(calls) == sorted(pairs) == sorted(distributed)

    def test_distribute_rejects_oversized(self, dataset):
        n = dataset.n_vertices
        for partitioner in (None, "gvb"):
            with pytest.raises(ValueError, match="cannot distribute"):
                distribute(dataset.adjacency, partitioner, n + 1)


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
        assert not again.cache_hit and again.candidates_priced > 0
        assert json.loads(path.read_text())["version"] == 4
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
        assert rep1.candidates_priced == rep2.candidates_priced > 0

    def test_table_is_ranked_and_marks_choice(self, dataset):
        report = make_planner().plan_for_dataset(dataset, 8)
        assert [row["rank"] for row in report.table] == \
            list(range(1, len(report.table) + 1))
        chosen = [row for row in report.table if row["chosen"] == "*"]
        assert len(chosen) == 1 and chosen[0]["rank"] == 1
        assert chosen[0]["algorithm"] == report.plan.algorithm
        assert "backend" not in chosen[0] and report.plan.backend == "sim"
        # Every candidate carries both prices: model and simulator.
        assert all(row["predicted_s"] is not None
                   and row["simulated_s"] is not None for row in report.table)
        groups = {(row["algorithm"], row["mode"], row["partitioner"],
                   row["c"], row["p"], row["depth"]) for row in report.table}
        # One backend is priced: every row is its own candidate.
        assert report.candidates_priced == len(groups) == len(report.table)

    def test_plan_cache_round_trip_skips_simulation(self, dataset, tmp_path):
        cache_path = tmp_path / "plans.json"
        first = make_planner(cache_path).plan_for_dataset(dataset, 8)
        assert not first.cache_hit and first.candidates_priced > 0

        second = make_planner(cache_path).plan_for_dataset(dataset, 8)
        assert second.cache_hit
        assert second.candidates_priced == 0
        assert second.plan.source == "cache"
        assert second.plan.as_config_kwargs() == first.plan.as_config_kwargs()
        assert second.table == first.table

    def test_cache_invalidated_by_matrix_fingerprint(self, dataset,
                                                     other_dataset, tmp_path):
        cache_path = tmp_path / "plans.json"
        first = make_planner(cache_path).plan_for_dataset(dataset, 8)
        other = make_planner(cache_path).plan_for_dataset(other_dataset, 8)
        assert not other.cache_hit          # different fingerprint -> re-plan
        assert other.candidates_priced > 0
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

    def test_cache_key_separates_plan_spaces(self, dataset, tmp_path):
        cache_path = tmp_path / "plans.json"
        make_planner(cache_path).plan_for_dataset(dataset, 8)
        constrained = make_planner(cache_path, backend="threaded")
        report = constrained.plan_for_dataset(dataset, 8)
        assert not report.cache_hit         # different space, different key
        assert report.plan.backend == "threaded"

    def test_probeless_planner_is_analytic(self, dataset):
        report = make_planner(probe=False).plan_for_dataset(dataset, 8)
        assert report.candidates_priced == 0
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


class TestPricingRule:
    @pytest.mark.parametrize("p", [4, 8, 16])
    @pytest.mark.parametrize("name", ["amazon", "protein", "reddit"])
    def test_pick_is_the_sim_argmin(self, name, p):
        """Over everything ``enumerate_candidates`` spans, the planner picks
        a candidate whose trainer epoch the simulator prices cheapest."""
        dataset = tier1_dataset(name)
        report = Planner(machine="perlmutter-scaled", use_cache=False,
                         seed=0).plan_for_dataset(dataset, p)
        dims = training_layer_dims(dataset.node_data.n_features,
                                   dataset.node_data.n_classes, 16, 3)
        partitions, prices = {}, {}
        for c in enumerate_candidates(p, n_vertices=dataset.n_vertices):
            key = (c.partitioner, c.n_block_rows)
            if key not in partitions:
                partitions[key] = distribute(dataset.adjacency, *key)[2]
            prices[c] = trainer_epoch(dataset, c, dims, cache=False,
                                      partition=partitions[key])[0]
        pick = PlanCandidate(**report.plan.as_config_kwargs())
        cheapest = min(prices.values())
        argmin = [c for c, s in prices.items() if s == cheapest]
        assert prices[pick] == cheapest, (pick, prices[pick], argmin)
        assert report.plan.simulated_s == cheapest

    @pytest.mark.parametrize("grad_overlap", [False, True])
    @pytest.mark.parametrize("algorithm, c", [("1d", 1), ("1.5d", 2)])
    def test_price_is_the_trainers_mean_epoch(self, dataset, algorithm, c,
                                              grad_overlap):
        """The chosen plan's price is the epoch ``train_distributed`` then
        runs for the resolved config (cached schedule, real ``A X``)."""
        config = DistTrainConfig(n_ranks=4, algorithm=algorithm,
                                 replication_factor=c, partitioner=AUTO,
                                 epochs=3, grad_overlap=grad_overlap,
                                 machine="perlmutter-scaled")
        resolved, plan, partition = resolve_config(dataset, config)
        result = train_distributed(dataset, resolved, partition=partition)
        mean = np.mean([rec.epoch_time_s for rec in result.history])
        assert plan.simulated_s == pytest.approx(mean, rel=5e-3)

    @pytest.mark.parametrize("grad_overlap", [False, True])
    def test_closed_form_price_is_the_paper_model(self, dataset,
                                                  grad_overlap):
        """On ``sim``, ``predicted_s`` is the SpMM model plus the
        gradient exchange hiding all but its last bucket behind half the
        SpMM compute, with no host overhead."""
        machine = "perlmutter-scaled"
        dims = training_layer_dims(dataset.node_data.n_features,
                                   dataset.node_data.n_classes, 16, 3)
        report = Planner(machine=machine, probe=False, use_cache=False,
                         seed=0, grad_overlaps=(grad_overlap,),
                         cache_input_propagation=True,
                         pipeline_depths=(1, 2)).plan_for_dataset(dataset, 8)
        matrices = {}
        for row in report.table:
            c, p = row["c"], row["p"]
            key = (row["partitioner"], p // c)
            if key not in matrices:
                matrices[key] = distribute(dataset.adjacency, *key)[0]
            cost = epoch_cost(matrices[key], dims, machine,
                              algorithm=row["algorithm"],
                              sparsity_aware=row["mode"] == "sparsity_aware",
                              nranks=p, replication=c,
                              pipeline_depth=row["depth"],
                              cache_input_propagation=True)
            grad_s = gradient_exchange_cost(
                dims, machine, p, overlap=grad_overlap,
                bucket_bytes=default_bucket_bytes("sim", machine, p)
                if grad_overlap else 0,
                compute_s=cost.compute_s / 2)
            assert row["predicted_s"] == pytest.approx(cost.total_s + grad_s,
                                                       rel=1e-12, abs=0)

    def test_gate_call_runs_no_simulation(self, dataset, tmp_path,
                                          monkeypatch):
        """``probe=False`` ranks by the closed forms and executes nothing."""
        from repro.plan import score

        def refuse(*args, **kwargs):
            raise AssertionError("the closed-form planner ran a simulation")

        monkeypatch.setattr(score, "sim_epoch", refuse)
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "plans.json"))
        report = plan_for_dataset(dataset, 4, machine="perlmutter",
                                  hidden=16, n_layers=3, probe=False, seed=0)
        assert not report.cache_hit and report.candidates_priced == 0
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
        resolved, plan, partition = resolve_config(dataset, config)
        assert resolved is config and plan is None and partition is None

    def test_auto_fields_are_resolved(self, dataset):
        config = DistTrainConfig(n_ranks=4, algorithm=AUTO,
                                 partitioner=AUTO, epochs=1,
                                 machine="perlmutter-scaled")
        assert config.needs_planning and config.scheme_label == "AUTO"
        resolved, plan, _ = resolve_config(dataset, config)
        assert plan is not None
        assert not resolved.needs_planning
        assert resolved.algorithm in ("1d", "1.5d")
        assert resolved.backend == plan.backend == config.backend
        assert resolved.n_ranks == 4 and resolved.epochs == 1

    def test_pinned_fields_stay_pinned(self, dataset):
        config = DistTrainConfig(n_ranks=4, algorithm="1d",
                                 sparsity_aware=False, backend="threaded",
                                 partitioner=AUTO, epochs=1)
        resolved, plan, _ = resolve_config(dataset, config)
        assert resolved.algorithm == "1d"
        assert resolved.sparsity_aware is False
        assert resolved.replication_factor == 1
        assert resolved.backend == plan.backend == "threaded"
        resolved, plan, _ = resolve_config(dataset, dataclasses.replace(
            config, algorithm=AUTO, partitioner="metis_like"))
        assert plan is not None
        assert resolved.partitioner == "metis_like"
        assert resolved.backend == "threaded"

    def test_resolution_plans_the_schedule_that_will_run(self, dataset):
        """The config's cache flag reaches the scorer: same space, two
        different cache keys and predictions."""
        base = dict(n_ranks=4, algorithm=AUTO, backend="sim",
                    partitioner=None, epochs=1, machine="perlmutter-scaled")
        _, cached, _ = resolve_config(dataset, DistTrainConfig(**base))
        _, paper, _ = resolve_config(dataset, DistTrainConfig(
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

    def test_backend_is_never_auto(self):
        """The planner prices a backend, it does not pick one."""
        with pytest.raises(ValueError, match="available: .*'sim'"):
            DistTrainConfig(backend=AUTO)
        assert not DistTrainConfig(backend="process").needs_planning

    def test_resolve_config_returns_reusable_partition(self, dataset):
        from repro.partition import get_partitioner
        config = DistTrainConfig(n_ranks=4, algorithm=AUTO, backend="sim",
                                 partitioner="gvb", epochs=1,
                                 machine="perlmutter-scaled")
        resolved, plan, partition = resolve_config(dataset, config)
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
