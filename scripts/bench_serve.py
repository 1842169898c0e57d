#!/usr/bin/env python
"""Record the BENCH_serve.json serving-throughput baseline.

Runs the ``repro serve --bench`` measurement (closed-loop offered-QPS
sweep over a warm :class:`~repro.serve.ServingEngine`, batched vs
``--no-batch``) and writes the per-step p50/p99 latencies, achieved
throughput, and the saturation speedup to a JSON file at the repository
root, using the same machine/config header format as the other BENCH
recorders (``scripts/record_baseline.py``).

The headline numbers are ``serve.saturation`` — the unpaced
(saturation) throughput of dynamic micro-batching and of the
request-at-a-time baseline on the same checkpoint and backend, and their
ratio ``speedup``.  Since the weight-first inference forward shrank each
request's exchange, the ratio on this small graph sits at 1.5-2.2x run to
run (see ``docs/serving.md``); read the two rates.  Wall-clock rows are
hardware dependent; the bit-identity verdict
(``serve.identity.bit_identical``) and the exact exchange volume
(``serve.traffic``) are not and must always hold.

Usage::

    PYTHONPATH=src python scripts/bench_serve.py
    PYTHONPATH=src python scripts/bench_serve.py \
        --backend process --ranks 2 --duration 2.0 --quick
"""

import argparse
import json
import pathlib
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import DistTrainConfig                       # noqa: E402
from repro.graphs.datasets import load_dataset               # noqa: E402
from repro.serve import prepare_checkpoint, run_serve_bench  # noqa: E402

QPS_STEPS = (50.0, 100.0, 200.0, None)      # None = unpaced (saturation)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="record the serving throughput sweep as "
                    "BENCH_serve.json")
    parser.add_argument("output", nargs="?", default=None,
                        help="output path (default: BENCH_serve.json for "
                             "the process backend, "
                             "BENCH_serve_<backend>.json otherwise)")
    parser.add_argument("--output", dest="output_flag", default=None,
                        help="same as the positional output path")
    parser.add_argument("--backend", default="process",
                        help="serving backend (default: process)")
    parser.add_argument("--dataset", default="reddit")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="dataset scale factor (default: 0.05)")
    parser.add_argument("--ranks", type=int, default=2)
    parser.add_argument("--hidden", type=int, default=16)
    parser.add_argument("--layers", type=int, default=3)
    parser.add_argument("--train-epochs", type=int, default=3)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--duration", type=float, default=3.0,
                        help="seconds per offered-QPS step (default: 3.0)")
    parser.add_argument("--qps", type=float, nargs="+", default=None,
                        help="offered QPS steps; 0 = unpaced "
                             f"(default: {QPS_STEPS})")
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--queue-depth", type=int, default=256)
    parser.add_argument("--machine", default="perlmutter-scaled")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="short smoke-budget run (1.2s steps, one "
                             "paced + one unpaced leg)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    duration = args.duration
    qps_steps = (tuple(None if q <= 0 else float(q) for q in args.qps)
                 if args.qps else QPS_STEPS)
    if args.quick:
        duration = min(duration, 1.2)
        if not args.qps:
            qps_steps = (60.0, None)
    out = args.output_flag or args.output
    if out is None:
        out = "BENCH_serve.json" if args.backend == "process" \
            else f"BENCH_serve_{args.backend}.json"
    out_path = pathlib.Path(out)
    if not out_path.is_absolute():
        out_path = REPO_ROOT / out_path

    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    config = DistTrainConfig(
        n_ranks=args.ranks, hidden=args.hidden, n_layers=args.layers,
        epochs=max(1, args.train_epochs), machine=args.machine,
        backend=args.backend, seed=args.seed)

    start = time.time()
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        checkpoint = f"{tmp}/serve.ckpt"
        prepare_checkpoint(dataset, config, checkpoint,
                           epochs=config.epochs)
        serve = run_serve_bench(
            dataset, config, checkpoint, qps_steps=qps_steps,
            duration_s=duration, clients=args.clients,
            tenants=("tenant-a", "tenant-b"),
            max_wait_ms=args.max_wait_ms, queue_depth=args.queue_depth,
            seed=args.seed)
    wall_s = time.time() - start

    payload = {
        "benchmark": "serve_throughput",
        "source": "repro.serve.run_serve_bench",
        "backend": args.backend,
        # Throughput/latency rows are hardware dependent; the identity
        # verdict is exact and must hold everywhere.
        "deterministic": False,
        "config": {"dataset": args.dataset, "scale": args.scale,
                   "ranks": args.ranks, "hidden": args.hidden,
                   "layers": args.layers, "clients": args.clients,
                   "duration_s": duration,
                   "qps_steps": [q if q is not None else 0
                                 for q in qps_steps],
                   "max_wait_ms": args.max_wait_ms,
                   "queue_depth": args.queue_depth,
                   "machine": args.machine, "seed": args.seed},
        "recorder_wall_s": round(wall_s, 2),
        "serve": serve,
    }
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    sat = serve["saturation"]
    print(f"wrote {len(serve['rows'])} rows to {out_path} "
          f"(backend={args.backend}, speedup={sat['speedup']:.2f}x, "
          f"bit_identical={serve['identity']['bit_identical']}, "
          f"{wall_s:.1f}s wall)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
