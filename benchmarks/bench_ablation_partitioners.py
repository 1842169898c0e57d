"""Ablation — every registered partitioner driving sparsity-aware training.

The paper compares the sparsity-oblivious block/random distributions with
METIS-style (total edgecut) and GVB-style (total + maximum send volume)
partitioning.  This bench runs every partitioner in
``repro.partition.PARTITIONERS`` on the irregular Amazon stand-in and
checks the paper's qualitative conclusion: the volume-balancing
partitioner cuts the total and the bottleneck send volume of the block
baseline and is never slower.
"""

import math

from repro.bench import bench_epochs, bench_scale, format_table, partitioner_sweep
from repro.partition import PARTITIONERS


def test_ablation_partitioner_zoo(benchmark, save_report):
    scale = min(bench_scale(), 0.3)
    rows = benchmark.pedantic(
        lambda: partitioner_sweep(dataset_name="amazon", p=16, scale=scale,
                                  epochs=bench_epochs()),
        rounds=1, iterations=1)
    ok = [r for r in rows if "epoch_time_s" in r and
          not math.isnan(r["epoch_time_s"])]
    text = format_table(
        sorted(ok, key=lambda r: r["epoch_time_s"]),
        columns=["partitioner", "epoch_time_s", "total_volume",
                 "max_send_volume", "comm_imbalance_pct", "edgecut"],
        title="Ablation — partitioners (Amazon stand-in, p=16, SA 1D)")
    save_report("ablation_partitioners", text)

    by_name = {r["partitioner"]: r for r in ok}
    assert set(by_name) == set(PARTITIONERS)

    # The volume-aware partitioner reduces the total volume vs the natural
    # block distribution ...
    assert by_name["gvb"]["total_volume"] <= by_name["block"]["total_volume"]
    # ... and GVB additionally keeps the bottleneck sender in check.
    assert by_name["gvb"]["max_send_volume"] <= \
        by_name["block"]["max_send_volume"]
    # End-to-end, GVB training is at least as fast as the block baseline.
    assert by_name["gvb"]["epoch_time_s"] <= \
        by_name["block"]["epoch_time_s"] * 1.05
