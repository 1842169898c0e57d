#!/usr/bin/env python
"""Record the BENCH_kernels.json microbenchmark baseline.

The measurements, host wall-clock unless a cell says ``simulated`` (best
of ``--repeats`` timed runs after one warm-up):

* **overlapped vs synchronous epoch** — one epoch's worth of compiled
  1D oblivious SpMMs with ``pipeline_depth=2`` (nonblocking prefetch of
  the next broadcast step + the process backend's grouped-copy latency
  protocol)
  against the synchronous compiled plan, measured interleaved (sync,
  piped, sync, ...) so host-speed drift cancels out of the ratio.  The
  acceptance bar for the overlap work is >= 1.2x on the process backend
  at p >= 4.
* **wait-free vs synchronous backward** — full training epochs on the
  ``sim`` backend with the gradient exchange overlapped + auto-bucketed
  (``grad_overlap=True``) against blocking per-layer all-reduces, on a
  deep multi-layer model.  Simulated clocks, so the cell is
  deterministic; the acceptance bar for the wait-free backward pass is
  >= 1.15x.
* **bf16 vs f64 gradient volume** — wire megabytes per epoch of the
  gradient exchange at ``grad_dtype="bfloat16"`` against the default
  full-precision wire, from the trainer's own exchange accounting (the
  compressed loss trajectory is validated in ``tests/test_gradsync.py``).
* **cached vs recomputed input propagation, epoch** — full training
  epochs with layer 0's ``A X`` kept across epochs
  (``cache_input_propagation=True``, the trainer's default) against
  recomputing it every epoch (the paper's schedule), after a warm-up
  epoch that pays the one-off: simulated clocks and exact bytes on
  ``sim``, wall clock on ``process``.  Losses are asserted bit-identical.
  Every other epoch cell pins the flag to ``False`` — they measure the
  paper's schedule.
* **input propagation in column panels, the one-off** — the cached run's
  one-off ``A X`` on the ``process`` backend (amazon, p = 4, the gate's
  1D and 1.5D c = 2 train configurations), streamed in column panels at
  the epoch schedule's widest width: its wall time, exact bytes and
  messages, the width the plan's workspaces grew to, and the driver's
  ``ru_maxrss`` after set-up and its growth across the one-off plus the
  first epoch.  Each leg runs in a fresh spawned interpreter so the
  high-water mark is its own.
  ``--quick`` runs amazon 0.25.
* **weight-first inference, bytes per served request** — one request
  through the inference forward on ``sim``: the exchanged bytes the event
  log counted, against the prediction at the widths the forward chose
  (``inference_spmm_widths``: a narrowing layer multiplies by ``W``
  first) and at the paper-order widths (``layer_dims[:-1]``).  Exact
  counts; measured == predicted is asserted.
* **process control plane** — the median microseconds of one blocking
  ``alltoallv``, ``allreduce`` and ``barrier`` with 8-byte payloads, and
  of one ``iallreduce`` + ``wait``, on the ``process`` backend at p = 2
  and 4.  The payloads are too small for the bytes to matter: the cell
  prices the command/response round trips alone.  The ops run
  interleaved, one call each per round, so host-speed drift hits every
  op alike.
* **GVB partitioning, cold start** — wall seconds of
  ``GVBPartitioner(seed=0).partition`` on amazon at p = 4 and p = 2 (the
  ``train_1d_exchange`` / 1.5D block-row partitions), with a sha256 of the
  ``parts`` vector and its volumes: the digest must not move when the
  partitioner gets faster.  ``--quick`` runs it on amazon 0.25.

Usage::

    PYTHONPATH=src python scripts/bench_kernels.py            # full -> BENCH_kernels.json
    PYTHONPATH=src python scripts/bench_kernels.py --quick -o /tmp/k.json
    PYTHONPATH=src python scripts/bench_kernels.py \\
        --only input_propagation_cache_sim input_propagation_cache_process

``--only`` re-records just the named cells and leaves the rest of the
output file as it was (wall-clock cells move on every run, so adding one
cell should not rewrite the others).

``--quick`` shrinks the operands so the whole script fits comfortably in
the CI smoke budget (see ``scripts/smoke.sh``).  Wall-clock numbers are
hardware dependent: compare the speedup ratios, not the absolute cells.
See ``docs/performance.md`` for how to read this file.
"""

import argparse
import hashlib
import json
import multiprocessing
import pathlib
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.comm import make_communicator                       # noqa: E402
from repro.core import (BlockRowDistribution, DistDenseMatrix,  # noqa: E402
                        DistSparseMatrix, DistTrainConfig,
                        inference_spmm_widths, predicted_bytes_per_forward,
                        setup_distributed, train_distributed)
from repro.core.engine import compile as compile_spmm      # noqa: E402
from repro.graphs import gcn_normalize                          # noqa: E402
from repro.graphs.datasets import load_dataset                  # noqa: E402
from repro.graphs.generators import erdos_renyi_graph           # noqa: E402
from repro.partition import (GVBPartitioner,                    # noqa: E402
                             communication_volumes_1d, edgecut)


def best_of(fn, repeats: int) -> float:
    fn()                                   # warm-up outside the timing
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_overlapped_epoch(n: int, avg_degree: int, widths, p: int,
                           backend: str, repeats: int,
                           pipeline_depth: int = 2) -> dict:
    """Synchronous vs pipelined compiled epoch on one backend.

    Both operators live at once and the timed runs interleave them
    (sync, piped, sync, piped, ...), taking the best of ``repeats``
    rounds each — on a noisy shared host the interleaving keeps CPU-speed
    drift out of the speedup ratio.  The 1D *oblivious* variant is used:
    its chunked broadcast schedule is the classic overlap target (the
    sparsity-aware 1D algorithm has a single un-staged exchange).
    """
    adj = gcn_normalize(erdos_renyi_graph(n, avg_degree=avg_degree, seed=3))
    dist = BlockRowDistribution.uniform(n, p)
    matrix = DistSparseMatrix(adj, dist)
    rng = np.random.default_rng(3)
    denses = {f: DistDenseMatrix.from_global(rng.normal(size=(n, f)), dist)
              for f in sorted(set(widths))}

    comms, ops = {}, {}
    try:
        for depth in (1, pipeline_depth):
            comm = make_communicator(p, backend=backend)
            comms[depth] = comm
            ops[depth] = compile_spmm(matrix, comm, algorithm="1d",
                                      sparsity_aware=False,
                                      pipeline_depth=depth)

        def run(depth):
            for f in widths:
                ops[depth](denses[f])

        if backend == "sim":
            # Deterministic: compare simulated clocks, not wall time.
            times = {}
            for depth in (1, pipeline_depth):
                start = comms[depth].elapsed()
                run(depth)
                times[depth] = comms[depth].elapsed() - start
        else:
            run(1)
            run(pipeline_depth)          # warm-up (plans, arenas, workers)
            times = {1: float("inf"), pipeline_depth: float("inf")}
            for _ in range(max(1, repeats)):
                for depth in (1, pipeline_depth):
                    t0 = time.perf_counter()
                    run(depth)
                    times[depth] = min(times[depth],
                                       time.perf_counter() - t0)
    finally:
        for comm in comms.values():
            comm.close()

    return {
        "n": n, "nnz": int(adj.nnz), "widths": list(widths), "p": p,
        "backend": backend, "pipeline_depth": pipeline_depth,
        "simulated": backend == "sim",
        "synchronous_s": times[1],
        "pipelined_s": times[pipeline_depth],
        "overlap_speedup": times[1] / times[pipeline_depth],
    }


def bench_gradsync_epoch(scale: float, p: int, layers: int,
                         hidden: int) -> dict:
    """Wait-free (overlapped + auto-bucketed) vs synchronous backward.

    Full training epochs on the ``sim`` backend: the cell compares
    *simulated clocks*, so it is deterministic and isolates the modelled
    overlap win (comm hidden behind the backward SpMMs) from host speed.
    A deep model gives the exchange many small per-layer reductions to
    fuse and many compute windows to hide behind.
    """
    dataset = load_dataset("amazon", scale=scale, seed=0)

    def run(**overrides):
        cfg = DistTrainConfig(n_ranks=p, partitioner=None, epochs=2,
                              n_layers=layers, hidden=hidden, seed=0,
                              cache_input_propagation=False, **overrides)
        return train_distributed(dataset, cfg, eval_every=0)

    sync = run()
    waitfree = run(grad_overlap=True)
    assert [h.loss for h in sync.history] == \
        [h.loss for h in waitfree.history], \
        "wait-free backward must be bit-identical at full wire precision"
    return {
        "dataset": dataset.name, "n": dataset.n_vertices, "p": p,
        "layers": layers, "hidden": hidden, "backend": "sim",
        "simulated": True,
        "synchronous_s": sync.avg_epoch_time_s,
        "waitfree_s": waitfree.avg_epoch_time_s,
        "bucket_bytes": waitfree.grad_summary["bucket_bytes"],
        "waitfree_speedup": sync.avg_epoch_time_s /
        waitfree.avg_epoch_time_s,
    }


def bench_grad_wire_volume(scale: float, p: int, layers: int,
                           hidden: int) -> dict:
    """Gradient-exchange wire megabytes per epoch: bf16 vs the f64 wire."""
    dataset = load_dataset("amazon", scale=scale, seed=0)

    def run(**overrides):
        cfg = DistTrainConfig(n_ranks=p, partitioner=None, epochs=1,
                              n_layers=layers, hidden=hidden, seed=0,
                              cache_input_propagation=False, **overrides)
        return train_distributed(dataset, cfg, eval_every=0)

    full = run()
    bf16 = run(grad_overlap=True, grad_dtype="bfloat16")
    full_mb = full.grad_summary["wire_MB_per_epoch"]
    bf16_mb = bf16.grad_summary["wire_MB_per_epoch"]
    return {
        "dataset": dataset.name, "n": dataset.n_vertices, "p": p,
        "layers": layers, "hidden": hidden,
        "float64_wire_MB_per_epoch": full_mb,
        "bfloat16_wire_MB_per_epoch": bf16_mb,
        "volume_reduction": full_mb / bf16_mb,
    }


def bench_input_propagation_epoch(scale: float, p: int, backend: str,
                                  epochs: int, repeats: int) -> dict:
    """Training epochs with layer 0's ``A X`` cached (and the backward at
    the narrow side) vs the paper's schedule.

    One warm-up epoch per model (cold workers and arenas; with the cache
    on it also pays the one-off wide SpMM), then ``epochs`` timed epochs:
    the simulated clock on ``sim`` (deterministic), best-of-``repeats``
    wall clock otherwise.  Bytes per epoch are exact on every backend.
    """
    dataset = load_dataset("amazon", scale=scale, seed=0)
    lr = 0.05

    def run(cached: bool):
        cfg = DistTrainConfig(n_ranks=p, partitioner=None, backend=backend,
                              seed=0, cache_input_propagation=cached)
        setup = setup_distributed(dataset, cfg)
        with setup.comm as comm:
            model = setup.model
            losses = [model.train_epoch(lr)]
            bytes0, clock0 = comm.events.total_bytes(), comm.elapsed()
            wall = float("inf")
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                losses.extend(model.train_epoch(lr) for _ in range(epochs))
                wall = min(wall, time.perf_counter() - t0)
            ran = len(losses) - 1
            seconds = (comm.elapsed() - clock0) / ran \
                if backend == "sim" else wall / epochs
            return (losses, seconds,
                    (comm.events.total_bytes() - bytes0) / ran / 1e6)

    losses_off, recomputed_s, recomputed_mb = run(False)
    losses_on, cached_s, cached_mb = run(True)
    # The narrow-side backward reassociates: agreement to rounding
    # (tests/oracle.py's float64 narrow-side row).
    np.testing.assert_allclose(losses_on, losses_off, rtol=1e-9, atol=1e-12)
    return {
        "dataset": dataset.name, "n": dataset.n_vertices,
        "f0": dataset.n_features, "p": p, "backend": backend,
        "epochs_per_run": epochs, "simulated": backend == "sim",
        "recomputed_s": recomputed_s,
        "cached_s": cached_s,
        "cached_speedup": recomputed_s / cached_s,
        "recomputed_MB_per_epoch": recomputed_mb,
        "cached_MB_per_epoch": cached_mb,
    }


def _maxrss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _input_propagation_leg(scale: float, config: dict) -> dict:
    """One leg of :func:`bench_input_propagation_panels`, run in a fresh
    interpreter so ``ru_maxrss`` is this leg's alone."""
    dataset = load_dataset("amazon", scale=scale, seed=0)
    cfg = DistTrainConfig(n_ranks=4, backend="process", seed=0,
                          partitioner="gvb", hidden=16, n_layers=3, **config)
    setup = setup_distributed(dataset, cfg)
    with setup.comm as comm:
        model = setup.model
        setup_mb = _maxrss_mb()
        bytes0, msgs0 = comm.events.total_bytes(), comm.events.message_count()
        t0 = time.perf_counter()
        model.input_propagation()
        seconds = time.perf_counter() - t0
        nbytes = comm.events.total_bytes() - bytes0
        messages = comm.events.message_count() - msgs0
        model.train_epoch(cfg.learning_rate)
        epoch_mb = _maxrss_mb()
        arena_mb = sum(arena.size for arena in comm._arenas.values()) / 1e6
    return {
        "layer_dims": model.layer_dims,
        "workspace_width":
            model.compiled_op(max(model.layer_dims)).workspace_width,
        "one_off_s": seconds, "one_off_bytes": nbytes,
        "one_off_messages": messages,
        "setup_maxrss_mb": setup_mb,
        "first_epoch_maxrss_growth_mb": epoch_mb - setup_mb,
        "maxrss_mb": epoch_mb,
        "arena_mb_after_first_epoch": arena_mb,
    }


def bench_input_propagation_panels(scale: float) -> dict:
    """The one-off layer-0 ``A X`` of a cached training run, per leg.

    The gate's train configurations (process backend, amazon, p = 4,
    GVB, ``[f0, 16, 16, C]``): 1D sparsity-aware, and 1.5D c = 2
    pipelined with overlapped gradients.  Per leg: the one-off's wall
    seconds, exact bytes and messages, the plan's workspace width, and the
    driver's ``ru_maxrss`` after set-up and its growth across the one-off
    plus the first epoch.  Each leg runs in its own spawned interpreter.
    """
    legs = {
        "1d": dict(algorithm="1d"),
        "1.5d_c2": dict(algorithm="1.5d", replication_factor=2,
                        pipeline_depth=2, grad_overlap=True,
                        grad_bucket_bytes=65536),
    }
    cell = {"dataset": "amazon", "scale": scale, "p": 4,
            "backend": "process"}
    spawn = multiprocessing.get_context("spawn")
    for name, config in legs.items():
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            cell[name] = pool.submit(_input_propagation_leg, scale,
                                     config).result()
    return cell


def bench_weight_first_inference(scale: float, p: int) -> dict:
    """Bytes one served request exchanges: chosen widths vs paper order.

    Both predictions are ``predicted_bytes_per_spmm`` sums over a width
    schedule, so the "before" needs no switch in the code; the measured
    count (sim event log, one request) must equal the chosen one.
    """
    dataset = load_dataset("amazon", scale=scale, seed=0)
    cfg = DistTrainConfig(n_ranks=p, partitioner=None, backend="sim", seed=0)
    setup = setup_distributed(dataset, cfg)
    with setup.comm as comm:
        model = setup.model
        request = np.random.default_rng(0).standard_normal(
            (dataset.n_vertices, dataset.n_features)).astype(model.dtype)
        bytes0 = comm.events.total_bytes()
        model.forward([request])
        measured = comm.events.total_bytes() - bytes0
    widths = inference_spmm_widths(model.layer_dims)
    paper_widths = model.layer_dims[:-1]
    chosen, paper = (predicted_bytes_per_forward(
        model.adjacency, schedule, model.sparsity_aware,
        element_bytes=model.dtype.itemsize)
        for schedule in (widths, paper_widths))
    assert measured == chosen, (measured, chosen)
    return {
        "dataset": dataset.name, "n": dataset.n_vertices, "p": p,
        "backend": "sim", "layer_dims": model.layer_dims,
        "spmm_widths": widths, "paper_order_widths": paper_widths,
        "bytes_per_request": measured,
        "paper_order_bytes_per_request": paper,
        "volume_reduction": paper / chosen,
    }


def bench_process_control_plane(p_values, rounds: int) -> dict:
    """Median microseconds per 8-byte collective on the process backend."""
    cell = {"payload_bytes": 8, "rounds": rounds}
    for p in p_values:
        one = [np.ones(1) for _ in range(p)]
        a2a = [[None if i == j else np.ones(1) for j in range(p)]
               for i in range(p)]
        with make_communicator(p, backend="process") as comm:
            ops = {
                "alltoallv": lambda: comm.alltoallv(a2a),
                "allreduce": lambda: comm.allreduce(one),
                "barrier": lambda: comm.barrier(),
                "iallreduce_wait": lambda: comm.iallreduce(one).wait(),
            }
            for op in ops.values():      # warm-up: workers, arenas, plans
                op()
            times = {name: [] for name in ops}
            for _ in range(rounds):
                for name, op in ops.items():
                    t0 = time.perf_counter()
                    op()
                    times[name].append(time.perf_counter() - t0)
        cell[f"p{p}"] = {f"{name}_us": round(float(np.median(t)) * 1e6, 1)
                         for name, t in times.items()}
    return cell


def bench_partition_gvb(scale: float, part_counts, repeats: int) -> dict:
    """GVB partitioning wall time on amazon, with the partition's digest.

    Best of ``repeats`` after one warm-up per part count.  The digest and
    volumes pin *which* partition was timed: a faster partitioner that
    moves a vertex is a different benchmark.
    """
    adj = load_dataset("amazon", scale=scale, seed=0).adjacency
    cell = {"dataset": "amazon", "scale": scale, "n": int(adj.shape[0]),
            "nnz": int(adj.nnz), "repeats": repeats}
    for p in part_counts:
        result = {}

        def run():
            result["parts"] = GVBPartitioner(seed=0).partition(adj, p).parts
        seconds = best_of(run, repeats)
        parts = result["parts"]
        vol = communication_volumes_1d(adj, parts, p)
        cell[f"p{p}"] = {
            "seconds": seconds,
            "parts_sha256": hashlib.sha256(parts.tobytes()).hexdigest(),
            "edgecut": int(edgecut(adj, parts)),
            "total_volume": vol.total, "max_send_volume": vol.max_send,
        }
    return cell


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="record the kernel/compiled-epoch microbenchmarks")
    parser.add_argument("--output", "-o", default=str(REPO_ROOT /
                                                      "BENCH_kernels.json"))
    parser.add_argument("--quick", action="store_true",
                        help="small operands for the CI smoke budget")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repetitions per cell (best-of)")
    parser.add_argument("--only", nargs="+", metavar="CELL", default=None,
                        help="re-record only these cells, keeping the rest "
                             "of an existing output file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    quick = args.quick
    repeats = args.repeats if args.repeats is not None else (3 if quick else 5)

    # The trainer's per-epoch SpMM widths for the default 3-layer GCN at
    # hidden=16 over a feature width of 32: forward f_0, 16, 16 and
    # backward 16, 16, n_classes collapse onto these distinct widths.
    widths = (32, 16, 16, 16, 16, 8)
    cells = {
        # Overlapped (pipeline_depth=2) vs synchronous compiled epoch.
        # The sim cell compares *simulated clocks* (deterministic model
        # prediction of the overlap win); the process cell is wall-clock.
        "overlapped_epoch_sim": lambda: bench_overlapped_epoch(
            n=1500 if quick else 4000, avg_degree=10, widths=widths, p=4,
            backend="sim", repeats=1),
        "overlapped_epoch_process": lambda: bench_overlapped_epoch(
            n=1000 if quick else 2000, avg_degree=10, widths=widths, p=4,
            backend="process", repeats=4 if quick else 12),
        # Wait-free (grad_overlap) vs synchronous backward pass, and the
        # bf16-vs-f64 gradient wire volume; both deterministic (sim
        # clocks / exact byte accounting).
        "gradsync_waitfree_sim": lambda: bench_gradsync_epoch(
            scale=0.05 if quick else 0.1, p=4, layers=4, hidden=16),
        "gradsync_wire_volume": lambda: bench_grad_wire_volume(
            scale=0.05 if quick else 0.1, p=4, layers=4, hidden=16),
        # Cached vs recomputed layer-0 A X, full training epochs: the sim
        # cell is simulated clocks + exact bytes, the process cell wall.
        "input_propagation_cache_sim": lambda: bench_input_propagation_epoch(
            scale=0.05 if quick else 0.25, p=4, backend="sim",
            epochs=2 if quick else 5, repeats=1),
        "input_propagation_cache_process":
            lambda: bench_input_propagation_epoch(
                scale=0.05 if quick else 0.25, p=4, backend="process",
                epochs=2 if quick else 5, repeats=min(repeats, 3)),
        # The one-off A X itself: column panels at the epoch schedule's
        # widest width (process backend, exact bytes/messages,
        # driver ru_maxrss).
        "input_propagation_panels": lambda: bench_input_propagation_panels(
            scale=0.25 if quick else 1.0),
        # Exact bytes per served request at the inference forward's
        # widths against the paper-order widths.
        "weight_first_inference_sim": lambda: bench_weight_first_inference(
            scale=0.05 if quick else 0.25, p=2),
        # Command/response round trips of tiny process collectives.
        "process_control_plane": lambda: bench_process_control_plane(
            p_values=(2, 4), rounds=100 if quick else 1000),
        # Cold-start partitioning: GVB wall seconds + the partition digest.
        "partition_gvb": lambda: bench_partition_gvb(
            scale=0.25 if quick else 1.0, part_counts=(4, 2),
            repeats=min(repeats, 3)),
    }
    unknown = sorted(set(args.only or ()) - set(cells))
    if unknown:
        raise SystemExit(f"unknown cell(s) {unknown}; choose from "
                         f"{sorted(cells)}")

    out_path = pathlib.Path(args.output)
    start = time.time()
    if args.only:
        payload = json.loads(out_path.read_text())
    else:
        payload = {
            "benchmark": "kernel_microbench",
            "source": "scripts/bench_kernels.py",
            "quick": quick,
            "repeats": repeats,
            # Host wall-clock: hardware dependent, compare ratios not cells.
            "deterministic": False,
        }
    for name in args.only or cells:
        payload[name] = cells[name]()
    # Last key either way; --only keeps the full recording's value.
    payload["recorder_wall_s"] = payload.pop("recorder_wall_s") \
        if args.only else round(time.time() - start, 2)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    print(f"  overlapped vs synchronous epoch (sim, simulated clock): "
          f"{payload['overlapped_epoch_sim']['overlap_speedup']:.2f}x")
    overlap_process = payload["overlapped_epoch_process"]
    print(f"  overlapped vs synchronous epoch (process, p="
          f"{overlap_process['p']}): "
          f"{overlap_process['overlap_speedup']:.2f}x")
    print(f"  wait-free vs synchronous backward (sim, simulated clock): "
          f"{payload['gradsync_waitfree_sim']['waitfree_speedup']:.2f}x")
    print(f"  bf16 vs f64 gradient wire volume: "
          f"{payload['gradsync_wire_volume']['volume_reduction']:.2f}x smaller")
    cache_sim = payload["input_propagation_cache_sim"]
    print(f"  cached vs recomputed input propagation, epoch (sim, simulated "
          f"clock): {cache_sim['cached_speedup']:.2f}x, "
          f"{cache_sim['recomputed_MB_per_epoch']:.2f} -> "
          f"{cache_sim['cached_MB_per_epoch']:.2f} MB/epoch")
    print(f"  cached vs recomputed input propagation, epoch (process): "
          f"{payload['input_propagation_cache_process']['cached_speedup']:.2f}x")
    panels = payload["input_propagation_panels"]
    print(f"  one-off input propagation (process, amazon {panels['scale']}): "
          + ", ".join(
              f"{leg} {panels[leg]['one_off_s'] * 1e3:.0f} ms, "
              f"{panels[leg]['one_off_bytes']} B in "
              f"{panels[leg]['one_off_messages']} messages, maxrss "
              f"{panels[leg]['maxrss_mb']:.0f} MB"
              for leg in ("1d", "1.5d_c2")))
    serve = payload["weight_first_inference_sim"]
    print(f"  weight-first vs paper-order inference, bytes per request: "
          f"{serve['paper_order_bytes_per_request']} -> "
          f"{serve['bytes_per_request']} "
          f"({serve['volume_reduction']:.2f}x smaller)")
    control = payload["process_control_plane"]
    print("  process control plane, median us per 8-byte op: " + "; ".join(
        f"p={p} " + ", ".join(f"{name[:-3]} {us:.0f}"
                               for name, us in control[f"p{p}"].items())
        for p in (2, 4)))
    gvb = payload["partition_gvb"]
    print(f"  GVB partitioning, amazon {gvb['scale']}: " + ", ".join(
        f"p={p} {gvb[f'p{p}']['seconds']:.2f} s" for p in (4, 2)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
