#!/usr/bin/env python
"""Cost-model analysis: predictions vs simulation, crossover and best c.

The paper analyses its algorithms with an alpha-beta cost model (Section 4)
and then measures them on Perlmutter (Section 7).  This example does the
same at reproduction scale:

1. evaluate the closed-form model for the sparsity-aware and oblivious 1D
   algorithms over a range of process counts,
2. run the simulator at the same configurations and compare,
3. report the crossover point (where SA starts to win) from the simulated
   epochs, and the planner's best 1.5D replication factor with the closed
   form beside its simulated price — both on the trainer's default
   schedule, layer 0's ``A X`` cached.

Run with::

    python examples/cost_model_analysis.py
"""

from repro import DistTrainConfig, load_dataset, train_distributed
from repro.bench import format_table
from repro.core import spmm_cost_1d_oblivious, spmm_cost_1d_sparsity_aware
from repro.core.distribute import distribute
from repro.plan import Planner


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
            # The steady-state epoch: history[*].epoch_time_s leaves out
            # the one-off layer-0 A X that avg_epoch_time_s spreads over
            # the run, as the planner's price below does.
            epochs = [record.epoch_time_s for record in result.history]
            measured[label] = sum(epochs) / len(epochs)
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
                                   "(Amazon stand-in, one SpMM vs one "
                                   "steady-state epoch, one-off A X "
                                   "excluded)"))

    # ------------------------------------------------------------------
    # 3: crossover point and best replication factor — decided by
    # simulated epochs (the rows above, and the planner), never by the
    # closed form
    # ------------------------------------------------------------------
    crossover = next((row["p"] for row in rows
                      if row["sim_SA_epoch_s"] < row["sim_CAGNET_epoch_s"]),
                     None)
    print(f"\nsimulated crossover (SA+GVB starts to beat CAGNET): "
          f"p = {crossover}")

    # Priced on train_distributed's default schedule (layer 0's A X
    # cached), the one the table's simulated epochs ran.
    best = Planner(machine, modes=["sparsity_aware"], partitioners=["gvb"],
                   replication_candidates=(2, 4), use_cache=False,
                   cache_input_propagation=True
                   ).plan_for_dataset(dataset, 16).plan
    print(f"planner's best 1.5D replication factor at P = 16: "
          f"c = {best.replication_factor} (cached input-propagation "
          f"schedule: simulated {best.simulated_s:.3e} s, closed form "
          f"{best.predicted_s:.3e} s)")


if __name__ == "__main__":
    main()
