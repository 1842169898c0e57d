#!/usr/bin/env bash
# CI smoke target: exercise the autotuning planner (repro tune --quick
# priced for the sim and the process backend, each against a throwaway
# plan cache: it must price exactly one candidate per row of its printed
# table, every row a distinct plan point, and report the priced backend
# in its chosen plan), repro partition with
# every registered
# partitioner (each must print its max_send_volume), the end-to-end bench
# path (dataset
# generation, partitioning, distributed training, reporting) on every
# communicator backend at tiny scale, a pipelined (--pipeline 2,
# double-buffered nonblocking exchanges) training leg on every backend,
# a wait-free-backward training leg (--grad-overlap --grad-dtype
# bfloat16: overlapped bucketed gradient exchange on a compressed wire)
# on every backend,
# a train-schedule leg (one cached 1D and one cached 1.5D c = 2 epoch on
# the sim backend must run exactly the SpMMs epoch_spmm_widths(dims,
# True) prices: the same count and the same widths in order, read from
# the model's compiled plan; and, float64 over float32 features, its
# global_logits must be bitwise the one-shot host product and match the
# training forward within tests/oracle.py's float64 row; with no
# partitioner at amazon 0.05 and with GVB at amazon 1.0, whose blocks
# split into >= 2 global_logits row chunks),
# a kill-and-resume fault-tolerance leg (SIGKILL a process-backend
# worker mid-run, supervised restart restores the checkpoint, final
# weights asserted bit-identical to the uninterrupted run),
# an observability leg (repro train --trace on the process backend,
# 1.5D c = 2: the emitted Chrome/Perfetto JSON must parse, carry >= 1
# slice per rank track, contain gradsync + checkpoint spans and both
# comm.allreduce and comm.iallreduce.post slices, and no comm.*.post
# slice may lie inside a blocking comm.<op> slice on the driver track),
# an inference-serving leg (repro serve --bench --quick on the sim and
# process backends: train a throwaway checkpoint, sweep the closed-loop
# load generator batched vs --no-batch, and assert the emitted
# BENCH_serve.json payload parses with batched output bit-identical to
# sequential, per-request comm bytes equal to the weight-first schedule's
# prediction and no SpMM workspace grown as wide as a request),
# a kill-mid-serve leg (SIGKILL a process-backend worker mid-batch:
# exactly the in-flight request fails with a structured retryable
# ServeError, the engine restarts within its budget, and post-restart
# logits are bit-identical to the pre-fault run),
# a paper-row leg (re-run one cell of the checked-in, deterministic
# BENCH_spmm.json sweep and assert every recorded field is reproduced
# exactly, so a changed default cannot silently shift a paper figure),
# the per-host overhead calibration (repro calibrate --quick --dry-run,
# never writing CI hosts' numbers anywhere), and the
# kernel/compiled-epoch/overlap microbenchmark (scripts/bench_kernels.py
# --quick, writing to a throwaway path so CI never touches the
# checked-in BENCH_serve.json / BENCH_kernels.json; its partition_gvb
# cells must report the edgecut and volumes of the gvb/amazon-0.25
# records in tests/partition_golden.json).  Afterwards, no
# process-backend segment (/dev/shm/rpr*) created during the run may
# survive it.  Hard 60 s budget for everything —
# each run takes ~1 s; anything slower signals a performance regression
# or a hang in the comm layer (worker threads for `threaded`, worker
# processes, shared-memory arenas and in-flight nonblocking handles for
# `process`).
#
# The cross-backend conformance/property matrix runs separately with
#     python -m pytest -m conformance
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Process-backend shared-memory segments (/dev/shm/rpr*) alive before the
# run; any other segment still alive after it leaked.
shm_segments() { ls /dev/shm 2>/dev/null | { grep '^rpr' || true; } | sort; }
shm_before="$(shm_segments)"

# Every leg runs inside one function, exported to the timed shell: quoting
# inside a leg (an apostrophe in a comment or in inline Python) cannot end
# its body, as it did a single-quoted `bash -c` string.  The last leg
# leaves a marker; without it the script fails even if the shell exited 0.
legs() {
  set -euo pipefail
  for backend in sim process; do
    echo "== repro tune --quick --backend ${backend} =="
    tune_out="$(REPRO_PLAN_CACHE="$(mktemp -d)/plan_cache.json" \
      python -m repro tune --quick --backend "${backend}" --limit 1000)"
    echo "${tune_out}"
    TUNE_OUT="${tune_out}" BACKEND="${backend}" python - <<"PYEOF"
import os, re

out = os.environ["TUNE_OUT"]
lines = out.splitlines()
cols = [c.strip() for c in next(l for l in lines
                                if l.startswith("rank")).split("|")]
rows = [dict(zip(cols, (c.strip() for c in l.split("|"))))
        for l in lines if re.match(r"\d+ +\|", l)]
points = {tuple(r[k] for k in ("algorithm", "mode", "partitioner", "c",
                                "p", "depth")) for r in rows}
priced = int(re.search(r"plan cache: MISS \((\d+) candidates priced\)",
                       out).group(1))
# One backend is priced, not searched: every row is its own candidate.
assert priced == len(points) == len(rows) > 0, \
    (priced, len(points), len(rows))
backend = os.environ["BACKEND"]
assert re.search(rf"^  backend = {backend}$", out, re.M), \
    f"chosen plan does not report backend = {backend}"
print(f"tune: {priced} candidates priced == {len(points)} distinct plan "
      f"points == {len(rows)} rows, priced for {backend}")
PYEOF
  done
  partitioners="$(python -c "from repro.partition import PARTITIONERS
print(*sorted(PARTITIONERS))")"
  for partitioner in ${partitioners}; do
    echo "== repro partition --partitioner ${partitioner} =="
    report="$(python -m repro partition --dataset reddit --scale 0.05 \
      --nparts 4 --partitioner "${partitioner}")"
    echo "${report}"
    grep -q max_send_volume <<<"${report}"
  done
  for backend in sim threaded process; do
    echo "== repro bench --quick --backend ${backend} =="
    python -m repro bench --quick --backend "${backend}"
  done
  for backend in sim threaded process; do
    echo "== repro train --pipeline 2 --backend ${backend} =="
    python -m repro train --dataset reddit --scale 0.05 --ranks 4 \
      --epochs 1 --oblivious --partitioner none --pipeline 2 \
      --backend "${backend}"
  done
  for backend in sim threaded process; do
    echo "== repro train --grad-overlap --grad-dtype bfloat16 --backend ${backend} =="
    python -m repro train --dataset reddit --scale 0.05 --ranks 4 \
      --epochs 1 --partitioner none --grad-overlap --grad-dtype bfloat16 \
      --backend "${backend}"
  done
  echo "== cached train schedule == epoch_spmm_widths (sim) =="
  python - <<"PYEOF"
import itertools
import sys

import numpy as np

from repro.core import DistTrainConfig, epoch_spmm_widths, setup_distributed
from repro.core.dist_gcn import _row_chunks
from repro.core.engine import CompiledSpmm
from repro.graphs import load_dataset

sys.path.insert(0, "tests")
import oracle

# No partitioner at amazon 0.05; GVB at amazon 1.0, whose blocks split
# into several global_logits row chunks and whose features the model
# reads in the original vertex order through the recorded feature order.
runs = [(load_dataset("amazon", scale=scale, n_features=12, n_classes=3,
                      seed=3), partitioner)
        for scale, partitioner in ((0.05, None), (1.0, "gvb"))]
widths = []
plan_call = CompiledSpmm.__call__


def recording_call(plan, dense):
    widths.append(dense.width)
    return plan_call(plan, dense)


CompiledSpmm.__call__ = recording_call
for (dataset, partitioner), variant in itertools.product(
        runs, ({"algorithm": "1d"},
               {"algorithm": "1.5d", "replication_factor": 2})):
    assert dataset.node_data.features.dtype == np.float32
    config = DistTrainConfig(n_ranks=4, partitioner=partitioner, hidden=8,
                             n_layers=3, **variant)
    setup = setup_distributed(dataset, config)
    assert (setup.node_data.feature_order is None) == (partitioner is None)
    with setup.comm:
        model = setup.model
        model.input_propagation()
        plan = model.compiled_op(0)
        calls = plan.calls
        del widths[:]
        model.train_epoch(0.05)
        want = epoch_spmm_widths(model.layer_dims, True)
        assert widths == want, (variant, widths, want)
        assert plan.calls - calls == len(want), (variant, plan.calls)
        # float64 epoch over float32 storage: A X and global_logits cast
        # X panel by panel as they read it.
        assert model.dtype == np.float64
        logits = model.global_logits()
        host = oracle.row_blocked_logits(
            model, oracle.vertex_order_features(setup.node_data))
        assert np.array_equal(logits, host), (partitioner, variant)
        oracle.assert_matches_reference(
            model.forward()[-1].h_out.to_global(), logits, "float64",
            oracle.WEIGHT_FIRST)
    chunks = max(len(_row_chunks(rows.shape[0]))
                 for rows in model.adjacency.block_rows)
    assert (chunks >= 2) == (partitioner is not None), chunks
    name = variant["algorithm"]
    print(f"train schedule {name} partitioner={partitioner}: "
          f"{model.layer_dims} ran {widths} "
          "== epoch_spmm_widths(dims, True); global_logits == one-shot "
          f"host product ({chunks} row chunks per block row at most)")
PYEOF
  echo "== kill-and-resume (process backend) =="
  python - <<"PYEOF"
import tempfile
import numpy as np
from repro.comm.faults import FaultPlan
from repro.core import DistTrainConfig, train_distributed
from repro.graphs import load_dataset

dataset = load_dataset("reddit", scale=0.05, n_features=8, n_classes=3, seed=1)
base = dict(n_ranks=2, epochs=3, backend="process", hidden=6, n_layers=2)
reference = train_distributed(dataset, DistTrainConfig(**base), eval_every=0)
with tempfile.TemporaryDirectory() as ckpt_dir:
    cfg = DistTrainConfig(**base, checkpoint_dir=ckpt_dir,
                          checkpoint_every=1, max_restarts=1)
    result = train_distributed(dataset, cfg, eval_every=0,
                               fault_plan=FaultPlan.kill(rank=1, epoch=1))
assert result.restarts == 1 and result.resumed_from_epoch == 1, (
    result.restarts, result.resumed_from_epoch)
for got, want in zip(result.model.weight_state(),
                     reference.model.weight_state()):
    assert np.array_equal(got, want), "resume diverged from clean run"
print("kill-and-resume: bit-identical after restart")
PYEOF
  echo "== repro train --trace (process backend) =="
  trace_dir="$(mktemp -d)"
  python -m repro train --dataset reddit --scale 0.05 --ranks 4 \
    --epochs 1 --partitioner none --grad-overlap --backend process \
    --algorithm 1.5d --replication 2 \
    --checkpoint-dir "${trace_dir}/ckpt" --checkpoint-every 1 \
    --trace "${trace_dir}/trace.json" --metrics "${trace_dir}/run.prom"
  TRACE_JSON="${trace_dir}/trace.json" python - <<"PYEOF"
import json, os

with open(os.environ["TRACE_JSON"]) as fh:
    payload = json.load(fh)
events = payload["traceEvents"]
tracks = {e["args"]["name"]: e["tid"] for e in events
          if e.get("ph") == "M" and e.get("name") == "thread_name"}
missing = {f"rank{r}" for r in range(4)} - set(tracks)
assert not missing, f"missing rank tracks: {missing}"
slices = [e for e in events if e.get("ph") == "X"]
for rank in range(4):
    tid = tracks[f"rank{rank}"]
    assert any(s["tid"] == tid for s in slices), f"no slices on rank{rank}"
names = {s["name"] for s in slices}
for want in ("gradsync.post", "gradsync.drain", "checkpoint.save",
             "comm.allreduce", "comm.iallreduce.post"):
    assert want in names, f"missing span {want}: {sorted(names)}"
# A blocking collective never goes through a public post: a post slice
# inside a blocking one would count the same bytes twice.
blocking = {f"comm.{op}" for op in ("alltoallv", "broadcast", "allreduce",
                                    "allgather", "reduce", "exchange",
                                    "barrier")}
driver = [s for s in slices if s["tid"] == tracks["driver"]]
outer = [s for s in driver if s["name"] in blocking]
for post in (s for s in driver if s["name"].endswith(".post")
             and s["name"].startswith("comm.")):
    for b in outer:
        assert not (b["ts"] <= post["ts"]
                    and post["ts"] + post["dur"] <= b["ts"] + b["dur"]), (
            f"{post['name']} inside {b['name']}")
print(f"trace: {len(slices)} slices over {len(tracks)} tracks, "
      f"{len(outer)} blocking collectives with no post inside")
PYEOF
  for backend in sim process; do
    echo "== repro serve --bench --quick --backend ${backend} =="
    serve_out="$(mktemp -d)/BENCH_serve.json"
    python -m repro serve --dataset reddit --bench --quick \
      --backend "${backend}" --ranks 2 --duration 0.8 \
      --output "${serve_out}"
    SERVE_JSON="${serve_out}" python - <<"PYEOF"
import json, os

with open(os.environ["SERVE_JSON"]) as fh:
    record = json.load(fh)
# The BENCH_serve.json header wraps the sweep under "serve".
assert record["benchmark"] == "serve_throughput", sorted(record)
payload = record["serve"]
assert payload["identity"]["bit_identical"] is True, payload["identity"]
modes = {row["mode"] for row in payload["rows"]}
assert modes == {"batched", "no_batch"}, modes
assert payload["identity"]["batched_max_batch_size"] > 1, (
    "batching never coalesced", payload["identity"])
# The serve path runs at the narrow width: a regression to the wide
# (A X) W exchange moves more bytes and grows an f_0-wide workspace.
traffic = payload["traffic"]
assert traffic["bytes_per_request"] \
    == traffic["predicted_bytes_per_request"], traffic
assert traffic["predicted_bytes_per_request"] \
    < traffic["paper_order_bytes_per_request"], traffic
assert traffic["widest_plan"] < traffic["input_width"], traffic
n_rows = len(payload["rows"])
moved, widths = traffic["bytes_per_request"], traffic["spmm_widths"]
paper_order = traffic["paper_order_bytes_per_request"]
print(f"serve bench: {n_rows} rows, batched == sequential bit-identical, "
      f"{moved:.0f} B/request at widths {widths} "
      f"(paper order: {paper_order} B)")
PYEOF
  done
  echo "== kill-mid-serve (process backend) =="
  python - <<"PYEOF"
import tempfile, time
import numpy as np
from repro.comm.faults import FaultPlan, WorkerFailure
from repro.core import DistTrainConfig
from repro.graphs import load_dataset
from repro.serve import (ServeError, ServeOptions, ServingEngine,
                         prepare_checkpoint)

dataset = load_dataset("reddit", scale=0.05, n_features=6, n_classes=3,
                       seed=2)
config = DistTrainConfig(n_ranks=2, partitioner=None, epochs=2, hidden=8,
                         n_layers=2, backend="process", seed=0)
rng = np.random.default_rng(0)
feats = rng.standard_normal((dataset.n_vertices, dataset.n_features))
with tempfile.TemporaryDirectory() as tmp:
    ckpt = prepare_checkpoint(dataset, config, f"{tmp}/serve.ckpt", epochs=2)
    engine = ServingEngine.from_checkpoint(
        dataset, config, ckpt,
        options=ServeOptions(batching=False, max_restarts=1))
    try:
        engine.start()
        ref = engine.submit(feats).result(timeout=30.0).logits.copy()
        engine.inject_faults(FaultPlan.kill(rank=1, op_index=0))
        t0 = time.monotonic()
        try:
            engine.submit(feats).result(timeout=30.0)
            raise SystemExit("expected the in-flight batch to fail")
        except ServeError as exc:
            assert exc.retryable and isinstance(exc.cause, WorkerFailure), exc
        out = engine.submit(feats).result(timeout=30.0).logits
        recover_s = time.monotonic() - t0
        assert np.array_equal(out, ref), "post-restart logits diverged"
        assert engine.restarts == 1, engine.restarts
        assert engine.health()["status"] == "ready", engine.health()
    finally:
        engine.close()
print(f"kill-mid-serve: restart in {recover_s:.2f}s, logits bit-identical")
PYEOF
  echo "== BENCH_spmm.json cell reproduces exactly =="
  python - <<"PYEOF"
import json
from repro.bench import figure3_1d_scaling

with open("BENCH_spmm.json") as fh:
    payload = json.load(fh)
assert payload["deterministic"] is True and payload["backend"] == "sim"
cfg = payload["config"]
name, p = payload["rows"][0]["dataset"], payload["rows"][0]["p"]
rows = figure3_1d_scaling(datasets=(name,), p_values=(p,),
                          scale=cfg["scale"], epochs=cfg["epochs"],
                          backend="sim", seed=cfg["seed"])
recorded = {r["scheme"]: r for r in payload["rows"]
            if (r["dataset"], r["p"]) == (name, p)}
assert recorded.keys() == {row["scheme"] for row in rows}, recorded.keys()
for row in rows:
    for key, want in recorded[row["scheme"]].items():
        assert row[key] == want, (row["scheme"], key, row[key], want)
print(f"paper rows: {len(rows)} schemes of {name} p={p} reproduce "
      "BENCH_spmm.json exactly")
PYEOF
  echo "== repro calibrate --quick --dry-run =="
  python -m repro calibrate --quick --dry-run
  echo "== bench_kernels --quick =="
  kernels_json="$(mktemp -d)/BENCH_kernels.json"
  python scripts/bench_kernels.py --quick --output "${kernels_json}"
  KERNELS_JSON="${kernels_json}" python - <<"PYEOF"
import json, os

# The GVB cold-start cell must time the pinned partition: its edgecut and
# volumes equal the golden records of the same graph and seed.
with open(os.environ["KERNELS_JSON"]) as fh:
    cell = json.load(fh)["partition_gvb"]
with open("tests/partition_golden.json") as fh:
    golden = json.load(fh)["partitions"]
scale = cell["scale"]
for p in (2, 4):
    want = golden[f"gvb/amazon-{scale}/p{p}"]
    got = cell[f"p{p}"]
    for key in ("edgecut", "total_volume", "max_send_volume"):
        assert got[key] == want[key], (p, key, got[key], want[key])
print(f"partition_gvb: amazon {scale} p=2, p=4 match the golden edgecut "
      "and volumes")
PYEOF
  touch "${SMOKE_LAST_LEG}"
}
export -f legs
SMOKE_LAST_LEG="$(mktemp -d)/last_leg_ran"
export SMOKE_LAST_LEG
timeout 60 bash -c legs
if [ ! -e "${SMOKE_LAST_LEG}" ]; then
  echo "smoke: the last leg (bench_kernels --quick) did not run" >&2
  exit 1
fi

echo "== no shared-memory segment outlives the run =="
leaked="$(comm -13 <(echo "${shm_before}") <(shm_segments))"
if [ -n "${leaked}" ]; then
  echo "leaked /dev/shm segments:" ${leaked} >&2
  exit 1
fi
echo "shm: no segment created during the run survives it"
