"""Command-line entry point: generation, diagnostics, and the experiment suite.

Exit codes: 0 success / all criteria passed, 1 an experiment criterion
failed, 2 configuration, input or OS error, 3 numerical failure.  All file
outputs are byte-deterministic for a fixed resolved configuration: floats
print through 17-significant-digit round-trip formatting and nothing time-
or host-dependent is written (wall clock goes to stderr).

A flag takes precedence over the --config file, which takes precedence over
the parser's defaults; an unset seed comes from NWFLOW_SEED, else 0.  Library
parameters are passed on only when their flag is set, so their defaults live
in the library signatures alone.  Every command and experiment accepts --seed,
--out, --jobs and --config; beyond them each accepts only the flags it reads,
so an unread or abbreviated flag (or config key) exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from typing import Callable, Optional, Sequence

from . import __version__, experiments
from .errors import ConfigError, NumericalError, NwflowError, _count
from .experiments import save_report
from .metrics import neff_profile
from .ode import AdaptiveRK45, Euler, generate
from .schedule import PathSchedule
from .tasks import (
    FeatureTable,
    load_feature_table,
    make_support_and_eval,
    parse_task,
    save_feature_table,
    split_table,
    whiten,
    write_csv,
    write_json,
)
from .velocity import PluginField

EXIT_OK = 0
EXIT_FAIL = 1


def _given(args: argparse.Namespace, **keywords: str) -> dict:
    """Library keyword -> flag value, for the flags (named by dest) that are set."""
    values = {kw: getattr(args, dest) for kw, dest in keywords.items()}
    return {kw: v for kw, v in values.items() if v is not None}


def _load_table(args: argparse.Namespace) -> FeatureTable:
    if args.features is None:
        raise ConfigError(f"{args.command} needs --features")
    return load_feature_table(args.features, _table_format(args))


def _table_format(args: argparse.Namespace) -> str:
    """--format when given, else the format the --features extension names."""
    if args.format is not None:
        return args.format
    return "bin" if args.features.endswith(".bin") else "csv"


def _support(args: argparse.Namespace):
    if args.features is not None:
        _reject_set(args, ["task", "task_seed"], "--features")
        return split_table(_load_table(args), args.m, 0, args.seed)[0]
    _reject_set(args, ["format"], "a run without --features")
    if args.task is None:
        raise ConfigError("need --task or --features")
    task_seed = args.seed if args.task_seed is None else args.task_seed
    return make_support_and_eval(parse_task(args.task, seed=task_seed), args.m, 0, args.seed)[0]


def _reject_set(args: argparse.Namespace, dests, reader: str) -> None:
    """Raise ConfigError if a flag among `dests` is set, as `reader` does not read it."""
    given = sorted("--" + d.replace("_", "-") for d in dests if getattr(args, d) is not None)
    if given:
        raise ConfigError(f"{reader} does not read {', '.join(given)}")


def _method(args: argparse.Namespace) -> Euler | AdaptiveRK45:
    if args.rk45:
        _reject_set(args, ["euler"], "--rk45")
        return AdaptiveRK45(**_given(args, rtol="rtol", atol="atol"))
    _reject_set(args, ["rtol", "atol"], "Euler (no --rk45)")
    return Euler(**_given(args, n_steps="euler"))


def cmd_generate(args: argparse.Namespace) -> int:
    support = _support(args)
    sched = PathSchedule(**_given(args, sigma_min="sigma_min"))
    method = _method(args)
    field = PluginField(support, sched)
    samples = generate(field, args.n, seed=args.seed, method=method, jobs=args.jobs)
    write_csv(os.path.join(args.out, "support.csv"), support.points)
    write_csv(os.path.join(args.out, "samples.csv"), samples)
    write_json(
        os.path.join(args.out, "meta.json"),
        {
            "command": "generate",
            "library_version": __version__,
            "task": args.task,
            "features": args.features,
            "m": support.m,
            "seed": args.seed,
            "n": args.n,
            "d": support.d,
            "integrator": {
                "method": "rk45" if args.rk45 else "euler",
                **dataclasses.asdict(method),
                "t_start": 0.0,
                "t_end": 1.0,
            },
            "base": "isotropic" if field.chol is None else "precision",
            "rng": "default_rng(SeedSequence([seed, sample_index]))",
            "support_sha256": support.sha256(),
            "sigma_min": sched.sigma_min,
        },
    )
    return EXIT_OK


def cmd_diag_neff(args: argparse.Namespace) -> int:
    support = _support(args)
    sched = PathSchedule(**_given(args, sigma_min="sigma_min"))
    prof = neff_profile(support, sched, seed=args.seed, **_given(args, t_grid="t_grid", n_queries="n"))
    write_csv(
        os.path.join(args.out, "neff.csv"),
        list(zip(prof.t, prof.h, prof.median, prof.q25, prof.q75)),
        header=["t", "h_t", "median_neff", "q25", "q75"],
    )
    return EXIT_OK


def cmd_whiten(args: argparse.Namespace) -> int:
    table = _load_table(args)
    whitened, record = whiten(table, **_given(args, strength="strength", ridge="ridge"))
    fmt = _table_format(args)
    save_feature_table(whitened.rows, os.path.join(args.out, f"whitened.{fmt}"), fmt=fmt, names=table.names)
    write_json(
        os.path.join(args.out, "transform.json"),
        {
            "command": "whiten",
            "library_version": __version__,
            "source": args.features,
            "strength": record.strength,
            "regularization": record.regularization,
            "mean": [float(v) for v in record.mean],
            "matrix": [[float(v) for v in row] for row in record.matrix],
            "covariance_eigenvalues": [float(v) for v in record.eigenvalues],
        },
    )
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    table = _load_table(args)
    fmt = args.to
    if fmt is None:  # convert to the other format
        fmt = "bin" if _table_format(args) == "csv" else "csv"
    save_feature_table(table.rows, os.path.join(args.out, f"table.{fmt}"), fmt=fmt, names=table.names)
    write_json(
        os.path.join(args.out, "table_meta.json"),
        {
            "command": "ingest",
            "library_version": __version__,
            "source": args.features,
            "n": table.n,
            "d": table.d,
            "names": list(table.names) if table.names else None,
            "written_format": fmt,
        },
    )
    return EXIT_OK


# How `nwflow experiment <name>` calls `experiments.exp_<name>` (dashes as underscores):
# name -> (exp_* keyword -> flag dest, passed on only when the flag is set; length of the
# default seed list, 0 for an experiment that takes one `seed`).  `table` gets the table
# that --features names.
EXPERIMENTS = {
    "realization-fuzz": ({"n_configs": "configs"}, 0),
    "kde-identity": ({"n_configs": "configs"}, 0),
    "neff-collapse": ({"m": "m"}, 8),
    "variance-scaling": ({"family": "family", "d": "d", "m_ref": "m_ref"}, 4),
    "endpoint-check": (
        {"m": "m", "n": "n", "bandwidth_factor": "bandwidth_factor", "mmd_bandwidth": "mmd_bandwidth"},
        4,
    ),
    "solver-control": (
        {"m": "m", "n": "n", "rtol": "rtol", "atol": "atol", "mmd_bandwidth": "mmd_bandwidth"}, 4
    ),
    "sphere-rate": ({"d_k": "d"}, 3),
    "whitening-control": ({"table": "features", "m": "m"}, 4),
    "anisotropic-shells": ({"d": "d", "m": "m"}, 3),
}


def _seed_list(args: argparse.Namespace, count: int) -> list[int]:
    """--seeds as given, else --n-seeds (or `count`) consecutive seeds from the seed."""
    if args.seeds is not None:
        _reject_set(args, ["n_seeds"], "--seeds")
        return args.seeds
    if args.n_seeds is not None:
        count = _count(args.n_seeds, "--n-seeds")
    return list(range(args.seed, args.seed + count))


def cmd_experiment(args: argparse.Namespace) -> int:
    flags, seeds = EXPERIMENTS[args.name]
    kwargs = _given(args, **flags)
    if "table" in kwargs:
        kwargs["table"] = _load_table(args)
    elif "table" in flags:
        _reject_set(args, ["format"], "a run without --features")
    if seeds:
        kwargs["seeds"] = _seed_list(args, seeds)
    else:
        kwargs["seed"] = args.seed
    # Looked up on the module at each call, so perfbench's tracer, which rebinds
    # module attributes, sees the call.
    run = getattr(experiments, "exp_" + args.name.replace("-", "_"))
    t0 = time.perf_counter()
    report = run(**kwargs)
    wall_clock = time.perf_counter() - t0
    jpath, cpath = save_report(report, args.out)
    print(f"wall clock: {wall_clock:.2f}s", file=sys.stderr)
    verdict = "PASS" if report.passed else ("EXPLORATORY" if report.passed is None else "FAIL")
    print(f"{args.name}: {verdict} ({jpath}, {cpath})")
    if report.passed is False:
        return EXIT_FAIL
    return EXIT_OK


def _at_least(least: int, what: str) -> Callable[[str], int]:
    """argparse type: a decimal integer >= `least`, which a rejection calls `what`."""

    def at_least(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return int(text)

    return at_least


_seed = _at_least(0, "a non-negative integer seed")  # as numpy's SeedSequence takes


def _comma_list(kind: Callable[[str], object]) -> Callable[[str], list]:
    """argparse type: a comma list of `kind` values, such as 0,1,2."""

    def comma_list(text: str) -> list:
        return [kind(v) for v in text.split(",")]

    return comma_list


# Every flag except --seed, --out, --jobs and --config, keyed by dest.  Each
# command, and each experiment, takes only the flags it reads, so argparse
# rejects the others, abbreviations included.
_FLAGS = {
    "task": {"help": "task name, e.g. gmm2d, shell16d, fourier8d, moons"},
    "task_seed": {"type": _seed, "help": "task instance seed (default: the seed)"},
    "features": {"help": "path to a feature table (csv or NWF1 binary)"},
    "format": {"choices": ["csv", "bin"], "help": "feature table format"},
    "m": {"type": int, "help": "support size"},
    "n": {"type": int, "help": "sample / query count"},
    "d": {"type": int, "help": "dimension"},
    "seeds": {"type": _comma_list(_seed), "help": "explicit comma list of seeds"},
    "n_seeds": {"type": int, "help": "use this many consecutive seeds from the seed"},
    "sigma_min": {"type": float, "help": "terminal noise scale"},
    "euler": {"type": int, "metavar": "N", "help": "fixed-step Euler steps"},
    "rk45": {"action": "store_true", "help": "use the adaptive integrator"},
    "rtol": {"type": float, "help": "RK45 relative tolerance"},
    "atol": {"type": float, "help": "RK45 absolute tolerance"},
    "configs": {"type": int, "help": "fuzz config count"},
    "family": {"type": str.lower, "help": "variance-scaling family (fourier|gmm; default fourier)"},
    "m_ref": {"type": int, "help": "reference support size"},
    "bandwidth_factor": {"type": float, "help": "endpoint-check reference bandwidth multiplier"},
    "mmd_bandwidth": {"type": float, "help": "override the median-heuristic MMD kernel bandwidth"},
    "t_grid": {"type": _comma_list(float), "help": "comma list of flow times in (0,1]"},
    "strength": {"type": float, "help": "lambda in [0,1]"},
    "ridge": {"type": float, "help": "covariance ridge"},
    "to": {"choices": ["csv", "bin"], "help": "output format"},
}
# generate and diag-neff: the support, the sample or query count and the schedule
_FIELD_FLAGS = ("task", "task_seed", "features", "format", "m", "n", "sigma_min")


def _add_command(sub, name: str, func: Callable, dests, help: Optional[str] = None, **defaults) -> None:
    """Subcommand `name`: --seed, --out, --jobs, --config and the flags named by `dests`."""
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    p.set_defaults(func=func, **defaults)
    p.add_argument("--seed", type=_seed, help="root seed (default: env NWFLOW_SEED, else 0)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--jobs", type=_at_least(1, "a worker count >= 1"), default=os.cpu_count(),
                   help="generate's worker threads (default: the CPU count); other commands ignore it")
    p.add_argument("--config", help="JSON config file mirroring these flags")
    for dest in dests:
        p.add_argument("--" + dest.replace("_", "-"), **_FLAGS[dest])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `nwflow` parser, built once: a parse leaves it unchanged and no default is mutable."""
    parser = argparse.ArgumentParser(
        prog="nwflow",
        description="Support-conditioned flow-matching fields, sampling, and diagnostics",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"nwflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "generate", cmd_generate, _FIELD_FLAGS + ("euler", "rk45", "rtol", "atol"),
                 "integrate the plug-in field from base noise", m=50, n=1000)
    p_exp = sub.add_parser("experiment", help="run one named experiment", allow_abbrev=False)
    names = p_exp.add_subparsers(dest="name", required=True)
    for name, (flags, seeds) in EXPERIMENTS.items():
        dests = list(flags.values())
        if "table" in flags:
            dests.append("format")
        if seeds:
            dests += ["seeds", "n_seeds"]
        _add_command(names, name, cmd_experiment, dests)
    _add_command(sub, "diag-neff", cmd_diag_neff, _FIELD_FLAGS + ("t_grid",),
                 "effective-sample-size profile along the flow", m=50)
    _add_command(sub, "whiten", cmd_whiten, ("features", "format", "strength", "ridge"),
                 "whiten a feature table")
    _add_command(sub, "ingest", cmd_ingest, ("features", "format", "to"),
                 "validate and convert a feature table")
    return parser


def _config_argv(path: str, flags: set[str]) -> list[str]:
    """A --config file's entries as flag tokens, so each value gets its flag's type and choices.

    Lists join with commas; true on a switch is the bare flag; false on a switch
    and null on any flag leave it unset.  Placed before the command line's flags,
    the tokens lose to them, as argparse keeps the last value of a repeated flag.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a JSON object")
    config = {key.replace("-", "_"): value for key, value in payload.items()}
    unknown = sorted(config.keys() - flags)
    if unknown:
        raise ConfigError(f"config file keys {unknown} are not recognized flags")
    tokens = []
    for dest, value in config.items():
        flag = "--" + dest.replace("_", "-")
        if isinstance(value, bool) and _FLAGS.get(dest, {}).get("action") == "store_true":
            tokens += [flag] * value
        elif value is not None:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            tokens.append(f"{flag}={text}")
    return tokens


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """Flags beat --config values, which beat the parser defaults; then NWFLOW_SEED, then 0."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    if args.config is not None:
        flags = set(vars(args)) - {"command", "func", "name"}
        at = 2 if args.command == "experiment" else 1  # after the command and experiment name
        args = build_parser().parse_args(argv[:at] + _config_argv(args.config, flags) + argv[at:])
    if args.seed is None:
        try:
            args.seed = _seed(os.environ.get("NWFLOW_SEED", "0"))
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"NWFLOW_SEED: {exc}")
    return args


def _fail(exc: BaseException, code: int) -> int:
    prefix = "error" if code == ConfigError.exit_code else "numerical failure"
    print(f"{prefix}: {exc}", file=sys.stderr)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(argv)
        os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, matching the config-error contract
        return exc.code
    except NwflowError as exc:
        return _fail(exc, exc.exit_code)
    except (ValueError, OverflowError, OSError) as exc:  # OverflowError: an int flag past C sizes
        return _fail(exc, ConfigError.exit_code)
    except MemoryError as exc:
        return _fail(exc, NumericalError.exit_code)


if __name__ == "__main__":
    raise SystemExit(main())
