"""Benchmark of the nwflow CLI; run it from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts fresh child processes with the checkout's `src` on the path
and BLAS/OpenMP pinned to one thread.  With --trace 0 it measures set-up
time over several child starts and the end-to-end metrics of one child that
runs ops for S seconds; with --trace 1 it reports the per-layer metrics of a
traced child instead.  The metric names and units come from BENCHMARK.json.
Before the result it prints one line {"details": ...}: the machine, the op
samples, the seeds checked against a reference and any failures.  The last
line is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_PROBES = 5
# Every run must end within this many seconds of its start.
RUN_LIMIT_S = 170.0
PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.update({k: "1" for k in PINS})
    return env


def git_state(root: str) -> dict:
    if not os.path.isdir(os.path.join(root, ".git")):
        return {"commit": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=root, env=env, capture_output=True, text=True, timeout=20
        ).stdout.strip()

    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "-uno"))}


def child(args: list[str], env: dict, start: float) -> str:
    """Run the worker to completion; return its last stdout line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        env=env, capture_output=True, text=True,
        timeout=max(RUN_LIMIT_S - (time.monotonic() - start), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return lines[-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    start = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nwflow", "cli.py")):
        print(f"error: {root} holds no nwflow source tree (src/nwflow/cli.py)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    env = child_env(root)
    outdir = os.path.join(root, ".perfbench_out", f"{args.workload}-{os.getpid()}")
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                t0 = time.monotonic()
                setups.append(float(child(["probe"], env, start)) - t0)
        t0 = time.monotonic()
        line = child(
            ["run", args.workload, str(args.seed), repr(args.seconds), str(args.trace), outdir],
            env,
            start,
        )
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    res = json.loads(line)
    if args.trace:
        values = res.pop("per_layer")
        declared = spec["per_layer"]
    else:
        setups.append(res["ready"] - t0)
        values = {k: res.pop(k) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        res["setup_s_samples"] = setups
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}; failures: {res['failures']}", file=sys.stderr)
        return 1
    attempted, failed = res.pop("attempted"), res.pop("failed")
    res["fail_ratio"] = failed / attempted
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **res}
    details["machine"].update(git_state(root))
    if res["reference_checked"]:
        details["check"] = f"reference for seeds {res['reference_checked']}, no reference for the rest"
    else:
        details["check"] = "no reference for these seeds: exit code, verdict, shape and repeatability only"
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
