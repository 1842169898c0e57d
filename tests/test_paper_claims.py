"""The paper's claims, evaluated on the committed BENCH records.

:mod:`repro.bench.claims` turns each conclusion of the paper into a
predicate over recorded rows.  This test pins which of them hold today.
A claim enters or leaves :data:`HOLDS` only in a change that re-records
the rows it reads (``scripts/record_baseline.py``), and that change's
``CHANGES.md`` entry names it.
"""

import importlib.util
import json
import pathlib
import shutil

import pytest

from repro.bench import CLAIMS, evaluate, load_figures

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Claims that hold on the committed records.
HOLDS = {
    "table3.datasets", "table3.papers_largest", "table3.reddit_smallest",
    "table3.reddit_densest",
    "table2.imbalance_grows", "table2.average_drops",
    "fig3.sagvb_beats_cagnet", "fig3.sagvb_not_slower_than_sa",
    "fig3.cagnet_does_not_scale",
    "fig4.cagnet_only_broadcasts", "fig4.sa_only_alltoall",
    "fig4.sa_alltoall_below_bcast", "fig4.gvb_shrinks_alltoall",
    "fig5.sagvb_speedup",
    "fig6.gvb_not_slower_amazon", "fig6.gvb_bottleneck_amazon",
    "fig6.tied_protein",
    "fig7.sa_not_below_cagnet", "fig7.gvb_beats_sa",
    "fig7.allreduce_everywhere",
    "auto.no_worse_than_fixed",
    "width.sagvb_not_slower", "width.sagvb_fewer_bytes",
    "width.bytes_grow_with_f", "width.gap_does_not_shrink",
    "partitioners.every_registered", "partitioners.gvb_total_volume",
    "partitioners.gvb_max_send", "partitioners.gvb_not_slower",
    "replication.rows", "replication.allreduce_grows",
    "replication.sa_fewer_bytes",
    "balance.looser_no_worse",
    "crossover.sa_wins_at_64",
    "costmodel.volume_exact", "costmodel.sa_fewer_bytes",
    "costmodel.sa_model_cheaper",
}

#: Claims that fail, with (cells that hold, cells).
FAILS = {
    # The 1.5D stage schedule: ROADMAP item 23.
    "fig7.sagvb_beats_cagnet": (2, 12),
}


@pytest.fixture(scope="module")
def results():
    return {claim.name: (holds, cells)
            for claim, holds, cells in evaluate(load_figures(ROOT))}


def test_every_claim_is_listed_once():
    names = [claim.name for claim in CLAIMS]
    assert len(names) == len(set(names))
    assert HOLDS.isdisjoint(FAILS)
    assert set(names) == HOLDS | set(FAILS)


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.name)
def test_claim_outcome_is_the_listed_one(results, claim):
    """Together with the test above: the claims that hold are exactly
    :data:`HOLDS`, and each failing one fails in the listed cells."""
    holds, cells = results[claim.name]
    if claim.name in FAILS:
        assert not holds
        assert (sum(c[3] for c in cells), len(cells)) == FAILS[claim.name]
    else:
        assert holds, [cell for cell in cells if not cell[3]]


def test_records_at_different_configs_are_refused(tmp_path):
    for name in ("BENCH_spmm.json", "BENCH_spmm_plan.json"):
        shutil.copy(ROOT / name, tmp_path / name)
    paper = json.loads((ROOT / "BENCH_paper.json").read_text())
    paper["config"]["machine"] = "perlmutter"
    (tmp_path / "BENCH_paper.json").write_text(json.dumps(paper))
    with pytest.raises(ValueError, match="different configs"):
        load_figures(tmp_path)


@pytest.mark.parametrize("argv", [
    ["--epochs", "3"], ["--machine", "perlmutter"], ["--seed", "1"],
    ["--datasets", "reddit"], ["--p-values", "4"]])
def test_recorder_refuses_paper_rows_at_another_config(tmp_path, argv):
    """``--paper`` stops before it trains when its rows could not be
    compared with ``BENCH_spmm.json``'s."""
    spec = importlib.util.spec_from_file_location(
        "record_baseline", ROOT / "scripts" / "record_baseline.py")
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    out = tmp_path / "paper.json"
    with pytest.raises(SystemExit):
        recorder.main(["--paper", "--output", str(out), *argv])
    assert not out.exists()
