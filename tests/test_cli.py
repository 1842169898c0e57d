"""Tests for the command-line interface (repro.cli / python -m repro)."""

import functools
import re

import numpy as np
import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.core.config import training_layer_dims
from repro.graphs import load_dataset
from repro.partition import PARTITIONERS
from repro.plan import Planner


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.ranks == 8
        assert args.algorithm == "1d"
        assert not args.oblivious
        assert args.backend == "sim"

    def test_backend_choices_follow_registry(self):
        args = build_parser().parse_args(["train", "--backend", "threaded"])
        assert args.backend == "threaded"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--backend", "nope"])

    def test_bench_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig99"])

    @pytest.mark.parametrize("command", ["partition", "train", "tune",
                                         "cost", "serve"])
    def test_partitioner_choices_follow_registry(self, command):
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if a.dest == "command").choices
        option = next(a for a in subparsers[command]._actions
                      if a.dest == "partitioner")
        named = set(option.choices) - {"none", "auto"}
        assert named == set(PARTITIONERS)


class TestDatasetsCommand:
    def test_prints_all_datasets(self, capsys):
        assert main(["datasets", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        for name in ("reddit", "amazon", "protein", "papers"):
            assert name in out
        assert "paper_vertices" in out


class TestPartitionCommand:
    def test_prints_quality_report(self, capsys):
        code = main(["partition", "--dataset", "reddit", "--scale", "0.05",
                     "--nparts", "4", "--partitioner", "metis_like"])
        assert code == 0
        out = capsys.readouterr().out
        assert "edgecut" in out
        assert "max_send_volume" in out

    def test_unregistered_partitioner_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["partition", "--dataset", "reddit", "--scale", "0.05",
                  "--nparts", "4", "--partitioner", "hypergraph"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_every_registered_partitioner_runs(self, capsys):
        for name in sorted(PARTITIONERS):
            code = main(["partition", "--dataset", "reddit", "--scale",
                         "0.05", "--nparts", "4", "--partitioner", name])
            assert code == 0, name
            assert "max_send_volume" in capsys.readouterr().out, name


class TestTrainCommand:
    def test_sparsity_aware_run(self, capsys):
        code = main(["train", "--dataset", "reddit", "--scale", "0.05",
                     "--ranks", "4", "--epochs", "2", "--machine", "laptop"])
        assert code == 0
        out = capsys.readouterr().out
        assert "avg_epoch_time_s" in out
        assert "test_accuracy" in out
        assert "SA+GVB" in out

    def test_oblivious_baseline_label(self, capsys):
        code = main(["train", "--dataset", "reddit", "--scale", "0.05",
                     "--ranks", "4", "--epochs", "1", "--oblivious",
                     "--partitioner", "none", "--machine", "laptop"])
        assert code == 0
        assert "CAGNET" in capsys.readouterr().out

    def test_infeasible_config_returns_error_code(self, capsys):
        # 1.5D with a replication factor that does not divide the grid.
        code = main(["train", "--dataset", "reddit", "--scale", "0.05",
                     "--ranks", "6", "--algorithm", "1.5d",
                     "--replication", "4", "--epochs", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestBenchCommand:
    def test_table3(self, capsys):
        code = main(["bench", "table3", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "papers" in out

    def test_table2(self, capsys):
        code = main(["bench", "table2", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "load_imbalance_pct" in out

    def test_fig3_prints_series(self, capsys, monkeypatch):
        """The figure-name path through ``format_series``, on one
        (dataset, p) cell of Figure 3's sweep."""
        fn, title = cli._BENCH_DISPATCH["fig3"]
        monkeypatch.setitem(cli._BENCH_DISPATCH, "fig3", (functools.partial(
            fn, datasets=("reddit",), p_values=(4,)), title))
        code = main(["bench", "fig3", "--scale", "0.05", "--epochs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "epoch time per scheme" in out
        assert out.count("reddit") == 3

    def test_quick_smoke_sim_backend(self, capsys):
        """The CI smoke target: ``python -m repro bench --quick --backend sim``
        (scripts/smoke.sh runs exactly this under a hard 60 s timeout)."""
        code = main(["bench", "--quick", "--backend", "sim"])
        assert code == 0
        out = capsys.readouterr().out
        assert "quick smoke" in out
        assert "epoch time per scheme" in out
        assert "sim" in out

    def test_quick_smoke_named_experiment(self, capsys):
        code = main(["bench", "fig5", "--quick"])
        assert code == 0
        assert "quick smoke" in capsys.readouterr().out

    def test_bench_without_experiment_or_quick_errors(self, capsys):
        code = main(["bench"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_backend_rejected_for_static_tables(self, capsys):
        code = main(["bench", "table2", "--backend", "threaded"])
        assert code == 2
        assert "no effect" in capsys.readouterr().err

    def test_quick_smoke_threaded_backend(self, capsys):
        code = main(["bench", "--quick", "--backend", "threaded"])
        assert code == 0
        assert "threaded" in capsys.readouterr().out


class TestTuneCommand:
    def test_quick_prints_ranked_table_and_plan(self, capsys, tmp_path):
        code = main(["tune", "--quick", "--dataset", "amazon",
                     "--cache", str(tmp_path / "plans.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "Autotuned plan space" in out
        assert "predicted_s" in out and "simulated_s" in out
        assert "chosen plan" in out
        assert "plan cache: MISS" in out

    def test_second_run_hits_cache_and_simulates_nothing(self, capsys,
                                                         tmp_path):
        argv = ["tune", "--quick", "--dataset", "amazon",
                "--cache", str(tmp_path / "plans.json")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "plan cache: HIT (0 candidates priced)" in out

    def test_nranks_simulates_every_group(self, capsys, tmp_path):
        code = main(["tune", "--dataset", "reddit", "--scale", "0.05",
                     "--nranks", "4", "8", "--limit", "1000",
                     "--cache", str(tmp_path / "plans.json")])
        assert code == 0
        out = capsys.readouterr().out
        # p=4 and p=8 each span 1D and 1.5D c=2, two modes, three
        # partitioners: 24 candidates, each priced once.
        assert "MISS (24 candidates priced)" in out
        assert "source = simulated" in out
        assert "p=4,8" in out

    def test_backend_is_priced_not_searched(self, capsys):
        code = main(["tune", "--quick", "--dataset", "amazon", "--no-cache",
                     "--backend", "process", "--limit", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        header = next(line for line in out.splitlines()
                      if line.startswith("rank"))
        assert "backend" not in header
        assert "backend = process" in out
        assert "MISS (12 candidates priced)" in out

    def test_no_cache_disables_persistence(self, capsys):
        code = main(["tune", "--quick", "--dataset", "amazon", "--no-cache"])
        assert code == 0
        assert "[disabled]" in capsys.readouterr().out


class TestAutoTrainFlag:
    def test_train_auto_reports_planner_choice(self, capsys):
        code = main(["train", "--dataset", "reddit", "--scale", "0.05",
                     "--ranks", "4", "--epochs", "1", "--machine", "laptop",
                     "--auto"])
        assert code == 0
        out = capsys.readouterr().out
        assert "planner chose:" in out
        assert "AUTO" not in out.split("scheme = ")[1].splitlines()[0]

    def test_train_auto_keeps_the_backend_flag(self, capsys):
        code = main(["train", "--dataset", "reddit", "--scale", "0.05",
                     "--ranks", "2", "--epochs", "1", "--machine", "laptop",
                     "--auto", "--backend", "process"])
        assert code == 0
        assert "backend = process" in capsys.readouterr().out

    def test_train_auto_on_one_rank_stays_on_sim(self, capsys):
        code = main(["train", "--dataset", "reddit", "--scale", "0.05",
                     "--ranks", "1", "--epochs", "1", "--machine", "laptop",
                     "--auto"])
        assert code == 0
        assert "backend = sim" in capsys.readouterr().out

    def test_backend_auto_is_not_a_choice(self, capsys):
        for command in ("train", "tune"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--backend", "auto"])
        assert build_parser().parse_args(["tune"]).backend == "sim"

    def test_bench_auto_appends_planner_rows(self, capsys):
        code = main(["bench", "--quick", "--auto"])
        assert code == 0
        out = capsys.readouterr().out
        assert "planner AUTO rows" in out
        assert "AUTO:" in out            # the series block has an AUTO line

    def test_bench_auto_rejected_for_static_tables(self, capsys):
        code = main(["bench", "table3", "--auto"])
        assert code == 2
        assert "no effect" in capsys.readouterr().err


class TestMachineFlag:
    def test_bench_machine_flag(self, capsys):
        code = main(["bench", "--quick", "--machine", "laptop"])
        assert code == 0
        assert "quick smoke" in capsys.readouterr().out

    def test_bench_machine_rejected_for_static_tables(self, capsys):
        code = main(["bench", "table2", "--machine", "laptop"])
        assert code == 2
        assert "no effect" in capsys.readouterr().err

    def test_repro_machine_env_sets_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_MACHINE", "laptop")
        assert build_parser().parse_args(["train"]).machine == "laptop"
        assert build_parser().parse_args(["cost"]).machine == "laptop"
        assert build_parser().parse_args(["tune"]).machine == "laptop"
        # bench resolves the env var inside the timed experiments
        # (bench_machine), keeping static tables usable with it set.
        from repro.bench import bench_machine
        assert build_parser().parse_args(["bench"]).machine is None
        assert bench_machine() == "laptop"

    def test_repro_machine_env_does_not_break_static_tables(self, capsys,
                                                            monkeypatch):
        monkeypatch.setenv("REPRO_MACHINE", "laptop")
        assert main(["bench", "table3", "--scale", "0.05"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MACHINE", "laptop")
        args = build_parser().parse_args(["train", "--machine", "perlmutter"])
        assert args.machine == "perlmutter"


class TestCostCommand:
    def test_reports_speedup(self, capsys):
        code = main(["cost", "--dataset", "amazon", "--scale", "0.05",
                     "--ranks", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sparsity-aware 1D SpMM cost" in out
        assert "speedup" in out

    def test_decisions_are_the_planners(self, capsys):
        """The crossover p and best c that ``repro cost`` prints are
        ``Planner.plan``'s picks over the same pinned spaces, with the
        winner's closed form beside its simulated price."""
        code = main(["cost", "--dataset", "amazon", "--scale", "0.05",
                     "--ranks", "8", "--machine", "perlmutter"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        xover_line, = [ln for ln in lines if ln.startswith("crossover")]
        best_line, = [ln for ln in lines if ln.startswith("best replication")]

        dataset = load_dataset("amazon", scale=0.05, seed=0)
        dims = training_layer_dims(dataset.node_data.n_features,
                                   dataset.node_data.n_classes, 16, 3)

        def pick(n_ranks, **space):
            return Planner("perlmutter", use_cache=False, **space).plan(
                dataset.adjacency, dims, n_ranks).plan

        xover = next(plan for plan in
                     (pick(p, algorithms=["1d"], partitioners=[None])
                      for p in (2, 4, 8, 16, 32, 64)) if plan.sparsity_aware)
        assert re.search(r": p = (\d+) ", xover_line).group(1) \
            == str(xover.n_ranks)
        best = pick(8, modes=["sparsity_aware"], partitioners=["gvb"],
                    replication_candidates=(2, 4))
        assert re.search(r": c = (\d+) ", best_line).group(1) \
            == str(best.replication_factor)
        assert f"simulated {best.simulated_s:.3e} s, closed form " \
               f"{best.predicted_s:.3e} s" in best_line

    def test_block_distribution_without_partitioner(self, capsys):
        code = main(["cost", "--dataset", "reddit", "--scale", "0.05",
                     "--ranks", "4", "--partitioner", "none"])
        assert code == 0


class TestMemoryCommand:
    def test_small_graph_fits(self, capsys):
        code = main(["memory", "--vertices", "100000", "--edges", "1000000",
                     "--features", "64", "--classes", "10", "--ranks", "8"])
        assert code == 0
        assert "fits in one" in capsys.readouterr().out

    def test_paper_scale_amazon_at_p4_does_not_fit(self, capsys):
        code = main(["memory", "--vertices", "14249639",
                     "--edges", "230788269", "--features", "300",
                     "--classes", "24", "--ranks", "4"])
        assert code == 1
        assert "False" in capsys.readouterr().out
