"""Print the sha256 of every output of a fixed list of `nwflow` runs.

    python3 tools/output_sha256.py [--out DIR]

Runs, each into its own directory under DIR (default: a temporary directory
that is removed afterwards): the nine experiments at their defaults, two with
flags (sphere-rate at d = 2, whitening-control on the table below), four
`generate` runs (one over an 8192-row support, whose field calls span several
weight blocks), three `diag-neff` runs (one over a 20,000-row support, whose
smoother calls walk the logit spans of several column tiles), and
`whiten`/`ingest` on an 80 x 3 CSV table with a header that the script writes
from a fixed seed.  The checkout's `src` goes first on the path, so running
the script from two checkouts and diffing the two outputs compares their
bytes.  It prints a markdown table `| output | sha256 |`, then one
`| run | exit code |` table.  DIR also gets `exit_codes.json`, so
`tools/output_diff.py` can compare two such trees.
OpenBLAS, OpenMP and MKL are pinned to one thread for every run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

# Pinned before numpy is imported, as perfbench pins its workers: OpenBLAS's
# threaded GEMM rounds some shapes differently at other thread counts.
os.environ.update({k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from nwflow.cli import EXPERIMENTS, main  # noqa: E402

TABLE = "table.csv"

# run directory -> argv (without --out)
RUNS = {
    **{f"exp-{name}": ["experiment", name] for name in sorted(EXPERIMENTS)},
    "exp-sphere-rate-d2": ["experiment", "sphere-rate", "--d", "2", "--n-seeds", "1"],
    "exp-whitening-table": ["experiment", "whitening-control", "--features", TABLE, "--seeds", "0"],
    "gen-euler": ["generate", "--task", "gmm2d", "--m", "50", "--n", "300", "--seed", "3"],
    "gen-rk45": ["generate", "--task", "gmm2d", "--m", "50", "--n", "300", "--seed", "3", "--rk45"],
    "gen-large": ["generate", "--task", "gmm16d", "--m", "8192", "--n", "512", "--euler", "20",
                  "--jobs", "2", "--seed", "0"],
    "gen-flags": ["generate", "--task", "shell3d", "--m", "30", "--n", "100", "--euler", "7",
                  "--sigma-min", "0.1", "--task-seed", "4"],
    "diag": ["diag-neff", "--task", "gmm2d", "--m", "40", "--n", "64", "--seed", "2"],
    "diag-grid": ["diag-neff", "--task", "moons", "--m", "30", "--n", "40",
                  "--t-grid", "0.2,0.56,1.0", "--sigma-min", "0.05"],
    "diag-large": ["diag-neff", "--task", "gmm8d", "--m", "20000", "--n", "64"],
    "whiten": ["whiten", "--features", TABLE, "--strength", "0.5", "--ridge", "0.01"],
    "whiten0": ["whiten", "--features", TABLE, "--strength", "0.0"],
    "whiten-bin": ["whiten", "--features", TABLE, "--format", "bin"],  # a CSV read as binary
    "ingest": ["ingest", "--features", TABLE],
    "ingest-csv": ["ingest", "--features", TABLE, "--to", "csv"],
}


def write_table(path: str, n: int = 80, seed: int = 20240611) -> None:
    rng = random.Random(seed)
    lines = ["a,b,c"]
    for _ in range(n):
        a, b = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        lines.append(",".join(repr(v) for v in (a, 0.5 * a + 2.0 * b, rng.uniform(-3.0, 3.0))))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_all(root: str) -> tuple[list[tuple[str, str]], dict[str, int]]:
    """Run RUNS inside `root`, by relative paths, as whiten and ingest record the table's path."""
    home = os.getcwd()
    os.chdir(root)
    try:
        write_table(TABLE)
        codes = {}
        for name, argv in RUNS.items():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes[name] = main(argv + ["--out", name])
        with open("exit_codes.json", "w", encoding="utf-8") as fh:
            json.dump(codes, fh, sort_keys=True, indent=2)
        hashes = [
            (f"{name}/{fname}", sha256(os.path.join(name, fname)))
            for name in sorted(RUNS)
            for fname in sorted(os.listdir(name))
        ]
    finally:
        os.chdir(home)
    return hashes, codes


def main_cli() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="keep the outputs in this directory")
    args = parser.parse_args()
    with contextlib.ExitStack() as stack:
        root = args.out or stack.enter_context(tempfile.TemporaryDirectory())
        os.makedirs(root, exist_ok=True)
        hashes, codes = run_all(root)
    print("| output | sha256 |")
    print("| --- | --- |")
    for path, digest in hashes:
        print(f"| `{path}` | `{digest}` |")
    print()
    print("| run | exit code |")
    print("| --- | --- |")
    for name in sorted(codes):
        print(f"| `{name}` | {codes[name]} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_cli())
