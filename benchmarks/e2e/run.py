#!/usr/bin/env python3
"""The repo benchmark: one command for every end-to-end and per-layer metric.

    python3 benchmarks/e2e/run.py                      # all five workloads,
                                                       # untraced then traced
    python3 benchmarks/e2e/run.py --workload serve_small --seed 3 \\
        --seconds 10 --trace 0                         # what the gate runs
    python3 benchmarks/e2e/run.py --check              # <= 60 s self-test

Each workload runs in its own fresh child process (``child.py``), one at
a time, with the plan cache and the calibration file pointed at an empty
directory inside ``benchmarks/e2e/out/``.  After the child exits this
process checks that it left no worker process and no shared-memory
segment behind, attaches units from ``BENCHMARK.json``, prints every
metric by name and ends with one JSON line.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SHM = pathlib.Path("/dev/shm")
#: The gate allows 180 s per run; leave room to clean up after a kill.
CHILD_TIMEOUT_S = 160
#: How long a timed-out child gets to close its communicator.
TERMINATE_GRACE_S = 10
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

sys.path.insert(0, str(HERE))
from workloads import NOT_ENTERED, WORKLOADS  # noqa: E402  (stdlib only)


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def group_members(pgid: int) -> list:
    """Pids still alive in process group ``pgid``."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # pid (comm) state ppid pgrp ...; comm may hold spaces
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            alive.append(int(entry))
    return alive


def stragglers(pgid: int, grace_s: float = 3.0) -> list:
    """Group members still alive once ``grace_s`` has passed.

    multiprocessing's resource tracker exits on its own when the child's
    end of its pipe closes, a moment *after* the child; anything alive
    past the grace period was left behind.
    """
    deadline = time.monotonic() + grace_s
    while True:
        alive = group_members(pgid)
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.02)


def shm_segments() -> set:
    return set(os.listdir(SHM)) if SHM.is_dir() else set()


def new_shm_segments(before: set) -> list:
    """Segments ``/dev/shm`` holds now and did not hold ``before``."""
    return sorted(shm_segments() - before)


def run_child(workload: str, seed: int, seconds: float, trace: int,
              setups: int, watch_shm: bool) -> tuple:
    """Run one workload in a fresh process; returns ``(result, lines)``:
    its parsed result with the isolation verdict folded into ``correct``,
    and the lines it printed before that."""
    OUT.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    env = dict(os.environ)
    env["REPRO_PLAN_CACHE"] = str(scratch / "plan_cache.json")
    env["REPRO_CALIBRATION"] = str(scratch / "calibration.json")
    env.pop("REPRO_PROC_PLAN_CACHE", None)
    # glibc hands each thread a malloc arena by lock contention at its
    # first allocation, and the arena then decides whether every batch
    # operand is a fresh zero-filled mapping or recycled heap: identical
    # serve code measured 216-468 qps from one process to the next, steady
    # within each.  One arena for all threads (workers inherit it) takes
    # the draw out; glibc's other policies stay as they are.
    env["MALLOC_ARENA_MAX"] = "1"
    shm_before = shm_segments()
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--setups", str(setups), "--out", str(OUT),
               "--tmp", str(scratch)]
    # Own session = own process group: whatever the child leaves behind
    # can be found (and stopped) by group id.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             env=env, cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # SIGTERM first: the child turns it into an exit that unwinds its
        # `with` blocks, which stop the workers and unlink their shared
        # memory.  Whatever is left after that is killed, so nothing holds
        # the pipe open.
        child.terminate()
        try:
            child.wait(timeout=TERMINATE_GRACE_S)
        except subprocess.TimeoutExpired:
            pass
        for pid in group_members(child.pid):
            os.kill(pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
    finally:
        leftover = stragglers(child.pid)
        for pid in leftover:
            os.kill(pid, signal.SIGKILL)
        leaked = new_shm_segments(shm_before) if watch_shm else []
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.splitlines()
    if child.returncode != 0 or not lines:
        print(stdout, end="")
        raise SystemExit(f"{workload}: child exited with code "
                         f"{child.returncode}")
    result = json.loads(lines.pop())
    if leftover:
        lines.append(f"  ISOLATION: {len(leftover)} process(es) outlived "
                     "the run")
    if leaked:
        lines.append(f"  ISOLATION: new /dev/shm segments {leaked}")
    result["correct"] = bool(result["correct"]) and not leftover \
        and not leaked
    return result, lines


def with_units(result: dict, declared: list, workload: str) -> dict:
    """Check the child reported exactly the declared metrics, each a
    finite number, and attach the declared units.  Metrics of a layer the
    workload never enters are filled in as 0."""
    units = {metric["name"]: metric["unit"] for metric in declared}
    values = result["metrics"]
    not_entered = NOT_ENTERED[WORKLOADS[workload].kind]
    for name in units:
        if name.startswith(not_entered):
            values.setdefault(name, 0.0)
    if set(values) != set(units):
        raise SystemExit(
            f"{workload}: metric names differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(values))}, unexpected "
            f"{sorted(set(values) - set(units))}")
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise SystemExit(f"{workload}: {name} is not a finite number: "
                             f"{value!r}")
    result["metrics"] = {name: {"value": values[name], "unit": units[name]}
                         for name in units}
    return result


def run_workload(contract: dict, workload: str, seed: int, seconds: float,
                 trace: int, setups: int = SETUPS,
                 watch_shm: bool = True) -> dict:
    result, lines = run_child(workload, seed, seconds, trace, setups,
                              watch_shm)
    result = with_units(
        result, contract["per_layer" if trace else "end_to_end"], workload)
    lines.append(f"{workload} seed={seed} seconds={seconds:g} "
                 f"{'traced' if trace else 'untraced'}: attempted "
                 f"{result['attempted']} failed {result['failed']} correct "
                 f"{result['correct']}")
    lines.extend(f"  {name:34s} {metric['value']:16.6g} {metric['unit']}"
                 for name, metric in result["metrics"].items())
    print("\n".join(lines), flush=True)       # one call: legs may overlap
    return result


def check(contract: dict, seed: int) -> int:
    """Every workload, both passes, at one tenth of the length.

    A self-test of names, units and output checks, not a measurement:
    two legs run at a time (most of a short leg is single-threaded
    partitioning), so the shared-memory check spans all of them.
    """
    seconds = contract["run_seconds"] / 10
    legs = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]
    shm_before = shm_segments()
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(
            lambda leg: run_workload(contract, leg[0], seed, seconds, leg[1],
                                     setups=1, watch_shm=False), legs))
    leaked = new_shm_segments(shm_before)
    if leaked:
        print(f"ISOLATION: new /dev/shm segments {leaked}")
    ok = not leaked and all(result["correct"] and result["failed"] == 0
                            for result in results)
    print("check: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmarks/e2e/run.py: the repro package (src/repro) is not "
              "in this checkout; nothing to measure", file=sys.stderr)
        return 2
    contract = load_contract()
    declared = [w["name"] for w in contract["workloads"]]
    if declared != list(WORKLOADS):
        print(f"workloads differ from BENCHMARK.json: {declared} vs "
              f"{list(WORKLOADS)}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=declared,
                        help="run one workload (default: all of them, "
                             "untraced then traced)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds dataset, partitioner, weights and the "
                             "request pool")
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="length: 20 runs ISSUE 11's full counts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "from the traced pass")
    parser.add_argument("--check", action="store_true",
                        help="quick self-test of every workload and name")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.check:
        return check(contract, args.seed)

    if args.workload is not None:
        result = run_workload(contract, args.workload, args.seed,
                              args.seconds, args.trace or 0)
        print(json.dumps(result))
        return 0
    ok = True
    for workload in declared:
        for trace in (0, 1) if args.trace is None else (args.trace,):
            result = run_workload(contract, workload, args.seed,
                                  args.seconds, trace)
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
