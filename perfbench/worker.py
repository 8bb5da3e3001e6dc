"""Child process of the benchmark: `run.py` starts a fresh one for each run.

    worker.py probe
        import nwflow.cli and print the monotonic clock: one set-up sample.
    worker.py run WORKLOAD SEED SECONDS TRACE OUTDIR
        run ops of WORKLOAD for about SECONDS and print one JSON line.

Untraced runs time every op.  Traced runs alternate an untraced and a traced
op, all at seed SEED, so the per-layer counts repeat exactly for a seed and
the tracing overhead is measured in the same process.
"""

import os
import sys
import time


def _import_nwflow():
    import nwflow.cli

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(nwflow.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"nwflow was imported from {nwflow.cli.__file__}, not from {src}")
    return nwflow.cli


def _machine() -> dict:
    import numpy
    import scipy

    def proc_field(path, key):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            return None
        return None

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "mem_total": proc_field("/proc/meminfo", "MemTotal"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_pins": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def _tail(samples: list) -> dict:
    """Highest percentile with at least ten samples beyond it (none below 20 ops)."""
    n = len(samples)
    if n < 20:
        return {"percentile": None, "value": None}
    return {"percentile": round(100.0 * (n - 10) / n, 1), "value": sorted(samples)[n - 11]}


def run(cli, workload: str, seed: int, seconds: float, trace: bool, outdir: str) -> dict:
    import json
    import resource
    import shutil
    import statistics

    import tracing
    from workloads import WORKLOADS, check_op, load_reference, run_op

    wl = WORKLOADS[workload]
    seeds = [seed] if trace else [seed + j for j in range(wl.seed_cycle)]
    refs = {s: load_reference(wl, s) for s in seeds}
    tracer = tracing.Tracer() if trace else None
    main = tracer.root(cli.main) if trace else cli.main
    opdir = os.path.join(outdir, "op")
    walls, cpus, traced_walls, per_op, failures = [], [], [], [], []
    digests, verdicts = {}, {}
    min_ops = 4 if trace else 3
    deadline = time.perf_counter() + seconds
    j = 0
    while j < min_ops or time.perf_counter() + statistics.median(walls + traced_walls) <= deadline:
        op_seed = seeds[j % len(seeds)]
        traced = trace and j % 2 == 1
        shutil.rmtree(opdir, ignore_errors=True)
        mark = len(tracer.spans) if traced else 0
        if traced:
            tracer.install()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        rc, stdout, err = run_op(main if traced else cli.main, wl.command(op_seed), opdir)
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        if traced:
            tracer.remove()
        reason, digest, verdict = check_op(wl, rc, stdout, opdir, refs[op_seed])
        if reason is None and digests.setdefault(op_seed, digest) != digest:
            reason = f"output differs from the earlier op at seed {op_seed}"
        if traced and reason is None:
            per_op.append(tracing.op_metrics(tracer.spans[mark:]))
            if per_op[-1]["trace.coverage"] < 0.9:
                reason = f"layer spans cover only {per_op[-1]['trace.coverage']:.3f} of {tracing.ROOT}"
        if reason is not None:
            failures.append({"op": j, "seed": op_seed, "reason": f"{reason} {err}".strip()})
        if verdict is not None:
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
        (traced_walls if traced else walls).append(t1 - t0)
        if not traced:
            cpus.append((ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime))
        j += 1
    shutil.rmtree(opdir, ignore_errors=True)
    result = {
        "attempted": j,
        "failed": len(failures),
        "failures": failures[:5],
        "verdicts": verdicts,
        "seeds": seeds,
        "reference_checked": sorted(s for s in seeds if refs[s] is not None),
        "wall_s_samples": walls,
        "wall_s_tail": _tail(walls),
        "machine": _machine(),
    }
    if trace:
        layers = tracing.median_metrics(per_op) if per_op else {}
        if per_op:
            layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result.update(
            per_layer=layers,
            traced_ops=len(per_op),
            traced_call_sites=tracer.sites,
            untraced_targets=tracer.untraced,
        )
        spans_path = os.path.join(os.path.dirname(outdir), f"spans-{workload}-s{seed}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
        result["spans_file"] = spans_path
    else:
        result.update(
            wall_s=statistics.median(walls),
            cpu_s=statistics.median(cpus),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    return result


def main(argv: list) -> int:
    if argv[:1] == ["probe"]:
        _import_nwflow()
        print(repr(time.monotonic()))
        return 0
    cli = _import_nwflow()
    ready = time.monotonic()
    import json

    workload, seed, seconds, trace, outdir = argv[1:6]
    result = run(cli, workload, int(seed), float(seconds), trace == "1", outdir)
    result["ready"] = ready
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
