"""Autotuning planner: pick the distributed-SpMM configuration automatically.

The paper's central observation is that the best configuration — 1D vs
1.5D, sparsity-aware vs oblivious, which partitioner, which replication
factor — depends on the graph's sparsity structure, the machine and the
process count.  This package closes that loop (see ``docs/tuning.md``):

* :mod:`repro.plan.space`   — enumerate the plan space over the engine
  registry x partitioners x replication factors x rank counts;
* :mod:`repro.plan.score`   — price every candidate by running one
  epoch of the trainer's own model for it on the simulator of a chosen
  machine, plus the host overhead of the backend that will run it for
  that epoch's exact message count (the closed-form alpha-beta cost
  model reports alongside);
* :mod:`repro.plan.cache`   — persist winning plans keyed by matrix +
  machine + layer dims + plan-space fingerprints;
* :mod:`repro.plan.calibrate` — measure the per-backend message-overhead
  table on the current host (``repro calibrate``) so the scorer prices
  a real backend with measured numbers instead of shipped guesses;
* :mod:`repro.plan.planner` — the :class:`Planner` orchestrating all of
  the above, the :class:`ExecutionPlan` the rest of the stack consumes,
  and :func:`resolve_config`, which turns ``DistTrainConfig`` fields set
  to ``"auto"`` into concrete values.

The communicator backend is an input, not an axis: the simulated clock
does not depend on it, so the planner prices the backend it is given
(``Planner(backend=...)``, the config's ``backend``) and searches the
rest.

Entry points: ``repro tune`` on the CLI, ``--auto`` on ``repro train`` /
``repro bench``, or ``DistTrainConfig(algorithm="auto",
partitioner="auto")`` in code.
"""

from .cache import (CACHE_ENV_VAR, PlanCache, default_cache_path,
                    machine_fingerprint, matrix_fingerprint, plan_key)
from .calibrate import (CalibrationResult, calibration_path,
                        load_calibration, load_message_overheads,
                        measure_message_overhead, run_calibration,
                        write_calibration)
from .planner import (EmptyPlanSpace, ExecutionPlan, Planner, PlanReport,
                      plan_for_dataset, planner_constraints, resolve_config)
from .score import (BACKEND_MESSAGE_OVERHEAD_S, ScoredCandidate,
                    effective_message_overheads, score_candidates, sim_epoch)
from .space import (DEFAULT_PARTITIONERS, DEFAULT_PIPELINE_DEPTHS,
                    DEFAULT_REPLICATION_CANDIDATES, PlanCandidate,
                    enumerate_candidates, valid_replication_factors)

__all__ = [
    "CACHE_ENV_VAR", "PlanCache", "default_cache_path",
    "machine_fingerprint", "matrix_fingerprint", "plan_key",
    "CalibrationResult", "calibration_path", "load_calibration",
    "load_message_overheads", "measure_message_overhead",
    "run_calibration", "write_calibration",
    "EmptyPlanSpace", "ExecutionPlan", "Planner", "PlanReport",
    "plan_for_dataset",
    "planner_constraints", "resolve_config",
    "BACKEND_MESSAGE_OVERHEAD_S", "ScoredCandidate",
    "effective_message_overheads", "score_candidates", "sim_epoch",
    "DEFAULT_PARTITIONERS", "DEFAULT_PIPELINE_DEPTHS",
    "DEFAULT_REPLICATION_CANDIDATES",
    "PlanCandidate", "enumerate_candidates", "valid_replication_factors",
]
