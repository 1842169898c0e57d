#!/usr/bin/env python
"""Cost-model analysis: predictions vs simulation, crossover and best c.

The paper analyses its algorithms with an alpha-beta cost model (Section 4)
and then measures them on Perlmutter (Section 7).  This example does the
same at reproduction scale:

1. evaluate the closed-form model for the sparsity-aware and oblivious 1D
   algorithms over a range of process counts,
2. run the simulator at the same configurations and compare,
3. report the predicted crossover point (where SA starts to win) and the
   predicted best 1.5D replication factor.

Run with::

    python examples/cost_model_analysis.py
"""

from repro import DistTrainConfig, load_dataset, train_distributed
from repro.bench import format_table
from repro.core import (best_replication_factor, crossover_process_count,
                        spmm_cost_1d_oblivious, spmm_cost_1d_sparsity_aware)
from repro.core.distribute import distribute
from repro.graphs.adjacency import gcn_normalize


def partitioned_matrix(adjacency, nblocks, seed=0):
    """GVB-partition the graph and return the distributed (permuted) matrix."""
    return distribute(adjacency, "gvb", nblocks, seed=seed)[0]


def main() -> None:
    dataset = load_dataset("amazon", scale=0.2, seed=0)
    adjacency = dataset.adjacency
    f = dataset.n_features
    machine = "perlmutter-scaled"
    p_values = (4, 8, 16, 32)

    # ------------------------------------------------------------------
    # 1 + 2: model vs simulation per process count
    # ------------------------------------------------------------------
    rows = []
    for p in p_values:
        matrix = partitioned_matrix(adjacency, p)
        predicted_sa = spmm_cost_1d_sparsity_aware(matrix, f, machine)
        predicted_obl = spmm_cost_1d_oblivious(matrix, f, machine)

        measured = {}
        for label, aware in (("SA+GVB", True), ("CAGNET", False)):
            config = DistTrainConfig(n_ranks=p, sparsity_aware=aware,
                                     partitioner="gvb" if aware else None,
                                     epochs=2, machine=machine, seed=0)
            result = train_distributed(dataset, config, eval_every=0)
            measured[label] = result.avg_epoch_time_s
        rows.append({
            "p": p,
            "model_SA_comm_s": predicted_sa.communication_s,
            "model_CAGNET_comm_s": predicted_obl.communication_s,
            "model_speedup": predicted_obl.communication_s /
            max(predicted_sa.communication_s, 1e-12),
            "sim_SA_epoch_s": measured["SA+GVB"],
            "sim_CAGNET_epoch_s": measured["CAGNET"],
            "sim_speedup": measured["CAGNET"] / measured["SA+GVB"],
        })
    print(format_table(rows, title="alpha-beta model vs simulator "
                                   "(Amazon stand-in, one SpMM vs one epoch)"))

    # ------------------------------------------------------------------
    # 3: crossover point and best replication factor
    # ------------------------------------------------------------------
    crossover = crossover_process_count(gcn_normalize(adjacency), f=f,
                                        p_values=p_values, machine=machine)
    print(f"\npredicted crossover (SA starts to beat CAGNET): p = {crossover}")

    def builder(c):
        return partitioned_matrix(adjacency, max(1, 16 // c))

    best_c = best_replication_factor(builder, f=f, nranks=16, machine=machine,
                                     candidates=(1, 2, 4))
    print(f"predicted best 1.5D replication factor at P = 16: c = {best_c}")


if __name__ == "__main__":
    main()
