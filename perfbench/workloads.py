"""The benchmark's workloads: the CLI call each op makes and how its output is checked.

An op is one `nwflow.cli.main([...])` call that writes into an empty output
directory.  Its output is checked against a committed reference in `refs/`
when the op's seed has one (the default and the held-out seed).  Other seeds
get the checks that need no reference: exit code, verdict, shape, finiteness,
and byte-identical output when the same seed repeats within a run.

Run this file to rewrite the references from the current source tree:

    PYTHONPATH=src python3 perfbench/workloads.py
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import shutil
import sys
import traceback
from dataclasses import dataclass
from typing import Optional

# The default seed is the one every later comparison uses; the held-out seed
# is kept for confirming a claimed gain (choosing-metrics guide, section 6.3).
DEFAULT_SEED = 0
HELD_OUT_SEED = 1000

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

# A perturbation of 1e-13 relative in every field value moves RK45 samples by
# at most 7e-11, so 1e-8 leaves a wide margin for reordered float sums.
SAMPLES_ATOL = 1e-8
# Experiment aggregates pass when |got - ref| <= AGG_RTOL * |ref| + AGG_ATOL.
AGG_RTOL = 1e-6
AGG_ATOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    # CLI arguments; "{seed}" and "{seed1}" stand for the op's seed and seed + 1.
    argv: tuple[str, ...]
    # Ops of one untraced run use seeds S, S+1, ..., S+seed_cycle-1 in turn.
    # Only the adaptive solver's work depends on the seed, so only the RK45
    # workload spreads its ops over several seeds.
    seed_cycle: int = 1
    # Shape of samples.csv for `generate`; None for experiments.
    samples_shape: Optional[tuple[int, int]] = None

    def command(self, seed: int) -> list[str]:
        return [a.format(seed=seed, seed1=seed + 1) for a in self.argv]

    @property
    def experiment(self) -> Optional[str]:
        return self.argv[1] if self.argv[0] == "experiment" else None


WORKLOADS = {
    w.name: w
    for w in (
        # Many tiny field calls (about 250 per 256-row chunk): solver
        # bookkeeping and per-call overhead dominate, so RK45 step-count
        # changes show here and the smoother's memory traffic is trivial.
        Workload(
            "gen-rk45-small",
            ("generate", "--task", "gmm2d", "--m", "50", "--n", "4096", "--rk45",
             "--jobs", "1", "--seed", "{seed}"),
            seed_cycle=8,
            samples_shape=(4096, 2),
        ),
        # 40 field calls over 256 x 8192 x 16 with a fixed step count: the
        # smoother is nearly the whole op and sets peak memory; two chunks on
        # two threads, so parallelism shows and solver changes do not.
        Workload(
            "gen-euler-large",
            ("generate", "--task", "gmm16d", "--m", "8192", "--n", "512", "--euler", "20",
             "--jobs", "2", "--seed", "{seed}"),
            samples_shape=(512, 16),
        ),
        # The only workload heavy in `metrics` (MMD^2, C2ST) and in direct
        # KDE sampling, next to small-m Euler generation.
        Workload(
            "exp-endpoint",
            ("experiment", "endpoint-check", "--jobs", "1", "--seed", "{seed}"),
        ),
        # One-shot smoothing of 512 queries over a 50k reference at 7
        # bandwidths: `nw_local_means` and softmax, no ODE and no field call.
        Workload(
            "exp-varscale",
            ("experiment", "variance-scaling", "--family", "fourier", "--d", "8",
             "--seeds", "{seed},{seed1}", "--jobs", "1"),
        ),
    )
}


def run_op(main, argv: list[str], out: str) -> tuple[Optional[int], str, str]:
    """One CLI call writing into `out`; returns (exit code, stdout, error).

    The exit code is None when the call raised instead of returning one.
    """
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv + ["--out", out])
    except Exception:  # an uncaught error is a failed op, not a failed run
        return None, buf.getvalue(), traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return rc, buf.getvalue(), ""


def _sha256(*paths: str) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _ref_path(wl: Workload, seed: int) -> str:
    return os.path.join(REF_DIR, f"{wl.name}-s{seed}.json")


def load_reference(wl: Workload, seed: int) -> Optional[dict]:
    """The committed reference for (workload, seed), or None if there is none."""
    path = _ref_path(wl, seed)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    if wl.samples_shape is not None:
        import numpy as np

        with gzip.open(os.path.join(REF_DIR, ref["samples"]), "rt") as fh:
            ref["samples"] = np.loadtxt(fh, delimiter=",", ndmin=2)
    return ref


def _leaves(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _leaves(obj[k], f"{prefix}{k}.")
    else:
        yield prefix.rstrip("."), obj


def _aggregates_mismatch(got: dict, ref: dict) -> Optional[str]:
    got_l, ref_l = dict(_leaves(got)), dict(_leaves(ref))
    if got_l.keys() != ref_l.keys():
        return f"aggregate keys differ: {sorted(got_l.keys() ^ ref_l.keys())}"
    for key, want in ref_l.items():
        have = got_l[key]
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (have, want))
        if numeric:
            if not abs(have - want) <= AGG_RTOL * abs(want) + AGG_ATOL:
                return f"aggregate {key} = {have!r}, reference {want!r}"
        elif have != want:
            return f"aggregate {key} = {have!r}, reference {want!r}"
    return None


def check_op(
    wl: Workload, rc: Optional[int], stdout: str, out: str, ref: Optional[dict]
) -> tuple[Optional[str], Optional[str], Optional[str]]:
    """Check one op's output.

    Returns (failure reason or None, digest of the output files, verdict);
    the verdict is "PASS" or "FAIL" for experiments and None for `generate`.
    """
    if wl.samples_shape is not None:
        return (*_check_generate(wl, rc, out, ref), None)
    return _check_experiment(wl, rc, stdout, out, ref)


def _check_generate(wl, rc, out, ref):
    import numpy as np

    if rc != 0:
        return f"exit code {rc}", None
    support, samples_path = os.path.join(out, "support.csv"), os.path.join(out, "samples.csv")
    if not (os.path.exists(support) and os.path.exists(samples_path)):
        return "support.csv or samples.csv missing", None
    digest = _sha256(support, samples_path)
    try:
        samples = np.loadtxt(samples_path, delimiter=",", ndmin=2)
    except ValueError as exc:
        return f"samples.csv does not parse: {exc}", digest
    if samples.shape != wl.samples_shape or not np.all(np.isfinite(samples)):
        return f"samples.csv has shape {samples.shape} or non-finite values", digest
    if ref is None:
        return None, digest
    if _sha256(support) != ref["support_sha256"]:
        return "support.csv differs from the reference bytes", digest
    err = float(np.max(np.abs(samples - ref["samples"])))
    if not err <= SAMPLES_ATOL:
        return f"samples differ from the reference by {err:.3g} > {SAMPLES_ATOL:g}", digest
    return None, digest


def _check_experiment(wl, rc, stdout, out, ref):
    # Exit 1 with a FAIL verdict is a valid outcome of a statistical check at a
    # seed without a reference; only a reference pins the verdict.
    if rc not in (0, 1):
        return f"exit code {rc}", None, None
    report_path = os.path.join(out, "report.json")
    if not os.path.exists(report_path):
        return "report.json missing", None, None
    digest = _sha256(report_path)
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except json.JSONDecodeError as exc:
        return f"report.json does not parse: {exc}", digest, None
    verdict ="PASS" if report.get("pass") else "FAIL"
    if (rc == 0) != (verdict == "PASS") or f"{wl.experiment}: {verdict}" not in stdout:
        return f"exit code {rc}, report pass={report.get('pass')!r} and stdout disagree", digest, verdict
    if ref is None:
        return None, digest, verdict
    if report.get("pass") != ref["pass"]:
        return f"verdict {verdict}, reference pass={ref['pass']!r}", digest, verdict
    return _aggregates_mismatch(report.get("aggregates", {}), ref["aggregates"]), digest, verdict


def write_references(out_root: str) -> None:
    """Run every workload at the default and held-out seed and commit its output."""
    from nwflow import cli

    os.makedirs(REF_DIR, exist_ok=True)
    for wl in WORKLOADS.values():
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            out = os.path.join(out_root, f"{wl.name}-s{seed}")
            shutil.rmtree(out, ignore_errors=True)
            rc, stdout, err = run_op(cli.main, wl.command(seed), out)
            if wl.samples_shape is not None:
                if rc != 0:
                    raise SystemExit(f"{wl.name} seed {seed}: exit code {rc} {err}")
                name = f"{wl.name}-s{seed}-samples.csv.gz"
                with open(os.path.join(out, "samples.csv"), "rb") as src, gzip.GzipFile(
                    os.path.join(REF_DIR, name), "wb", mtime=0
                ) as dst:
                    shutil.copyfileobj(src, dst)
                ref = {"support_sha256": _sha256(os.path.join(out, "support.csv")), "samples": name}
            else:
                with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                    report = json.load(fh)
                if not report.get("pass"):
                    raise SystemExit(f"{wl.name} seed {seed}: verdict is not PASS; pick another seed")
                ref = {"pass": report["pass"], "aggregates": report["aggregates"]}
            with open(_ref_path(wl, seed), "w", encoding="utf-8") as fh:
                fh.write(json.dumps(ref, sort_keys=True, indent=1) + "\n")
            shutil.rmtree(out)
            print(f"wrote reference {wl.name} seed {seed}", file=sys.stderr)


if __name__ == "__main__":
    write_references(os.path.join(".perfbench_out", "refs"))
