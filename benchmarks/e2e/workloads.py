"""The five workloads and how ``--seconds`` sets their length.

Pure data (no numpy, no ``repro`` import): the stdlib-only parent process
reads the names, the per-workload child builds the real objects.

Lengths are **fixed counts**, not durations, so two commits do identical
work: every count below is what ISSUE 11 sized for a 20 s timed part on
the 2-core sandbox, and ``--seconds s`` scales all of them by ``s / 20``.
See README.md for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: ``--seconds`` at which the counts below apply unscaled.
FULL_SECONDS = 20.0
#: The traced pass repeats the workload at this share of its length.
TRACED_SHARE = 1.0 / 3.0
#: Untraced stretch run just before it, the base of ``trace.overhead_pct``.
BASELINE_SHARE = 1.0 / 6.0
#: Untimed epochs at the end of a train set-up.
WARMUP_EPOCHS = 5
#: Largest batch the serve options admit; warm-up forces every size up to it.
MAX_BATCH = 8
#: Requests the closed loop keeps in flight: two full batches, so the next
#: batch is queued while one is served.  With one batch's worth the loop
#: ran in lockstep (the engine idle while the generator refilled) and
#: identical code measured 286-425 qps depending on how the two threads
#: happened to interleave.
IN_FLIGHT = 2 * MAX_BATCH
#: Distinct request feature matrices, cycled.
POOL_SIZE = 16

#: Configuration every workload shares (ISSUE 11 "Common").
COMMON = dict(backend="process", hidden=16, n_layers=3, dtype="float64",
              learning_rate=0.05, partitioner="gvb", sparsity_aware=True)


@dataclass(frozen=True)
class TrainSpec:
    name: str
    dataset: str
    scale: float
    ranks: int
    epochs: int                     # timed epochs at FULL_SECONDS
    config: dict = field(default_factory=dict)
    kind: str = "train"


@dataclass(frozen=True)
class ServeSpec:
    name: str
    dataset: str
    scale: float
    ranks: int
    sat_requests: int               # closed loop, at FULL_SECONDS
    lo_qps: float
    lo_requests: int
    hi_qps: float
    hi_requests: int
    p95_limit_ms: float
    config: dict = field(default_factory=lambda: {"algorithm": "1d"})
    kind: str = "serve"


WORKLOADS = {spec.name: spec for spec in (
    TrainSpec("train_1d_exchange", "amazon", 1.0, 4, epochs=250,
              config={"algorithm": "1d"}),
    TrainSpec("train_1d_local", "protein", 1.0, 4, epochs=300,
              config={"algorithm": "1d"}),
    TrainSpec("train_15d_overlap", "amazon", 1.0, 4, epochs=150,
              config={"algorithm": "1.5d", "replication_factor": 2,
                      "pipeline_depth": 2, "grad_overlap": True,
                      # pinned so no host calibration file decides it
                      "grad_bucket_bytes": 65536}),
    ServeSpec("serve_small", "reddit", 0.1, 2, sat_requests=3000,
              lo_qps=100.0, lo_requests=1000, hi_qps=200.0,
              hi_requests=1600, p95_limit_ms=25.0),
    ServeSpec("serve_large", "amazon", 0.25, 2, sat_requests=600,
              lo_qps=25.0, lo_requests=250, hi_qps=40.0,
              hi_requests=320, p95_limit_ms=60.0),
)}


def scaled(count: int, seconds: float, share: float = 1.0,
           minimum: int = 6) -> int:
    """``count`` shortened to ``seconds`` (and to ``share`` of that)."""
    return max(minimum, round(count * seconds / FULL_SECONDS * share))


#: Name prefixes of the per-layer metrics whose layer a kind of workload
#: never enters.  The traced pass reports every per-layer metric on every
#: workload; these read 0 (no calls, no time) there.
NOT_ENTERED = {
    "train": ("serve.",),
    "serve": ("gradsync.", "trainer.first_epoch_ms", "trainer.epoch_ms_p95"),
}
