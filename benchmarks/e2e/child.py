"""One workload, one mode, in one fresh process (spawned by run.py).

Prints progress lines and, last, one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (bare ``name -> value``; the
parent attaches units).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import pathlib
import signal
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

# Everything is imported before any timer starts.
import serve      # noqa: E402
import train      # noqa: E402
from workloads import WORKLOADS      # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--setups", type=int, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True,
                        help="where the traced pass leaves its spans")
    parser.add_argument("--tmp", type=pathlib.Path, required=True,
                        help="empty directory for checkpoint files")
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]
    # The parent's timeout: exit through the `with` blocks, so workers are
    # stopped and shared memory is unlinked.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if args.trace:
        runner = train.run_traced if spec.kind == "train" \
            else serve.run_traced
        result = runner(spec, args.seed, args.seconds, args.tmp, args.out)
    elif spec.kind == "train":
        result = train.run_untraced(spec, args.seed, args.seconds,
                                    args.setups)
    else:
        result = serve.run_untraced(spec, args.seed, args.seconds,
                                    args.setups, args.tmp)

    leftover = multiprocessing.active_children()
    if leftover:
        print(f"  ISOLATION: {len(leftover)} worker process(es) outlived "
              "close()")
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
