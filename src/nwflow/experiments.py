"""Desk-scale experiment procedures returning serializable run reports.

Each experiment is a pure function of its configuration and seed list: the
report JSON it produces is bit-identical across re-runs.  Every PASS/FAIL
threshold lives in the config echo; reports carry no timing, so nothing
perturbs the deterministic outputs.  The rows are the one record of what an
experiment measured: its aggregates and verdict are computed from them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalError, _count, _scale, _unit
from .kernels import SupportSet, _logsumexp, _smooth, kde_descaled_log_density, nw_local_means
from .metrics import c2st_1nn, fit_power_law, median_heuristic, mmd2_unbiased, neff_profile
from .ode import AdaptiveRK45, Euler, generate, kde_direct_sample
from .schedule import PathSchedule
from .tasks import (
    FeatureTable,
    FourierDensity,
    Gmm,
    Shell,
    TaskSpec,
    _sample_shell,
    anisotropic_gaussian_features,
    make_support_and_eval,
    sample_task,
    split_table,
    whiten,
    write_csv,
    write_json,
)
from .velocity import PluginField, attention_realized_velocity

__all__ = [
    "RunReport",
    "save_report",
    "exp_realization_fuzz",
    "exp_kde_identity",
    "exp_neff_collapse",
    "exp_variance_scaling",
    "exp_endpoint_check",
    "exp_solver_control",
    "exp_sphere_rate",
    "exp_whitening_control",
    "exp_anisotropic_shells",
]

_RNG_NOTE = "numpy default_rng(SeedSequence([...])); all streams derived from echoed seeds"
_SCHED = PathSchedule()  # every experiment's path schedule, sigma_min included

# Fixed thresholds and calibrated task parameters, echoed in the configs that use them.
_FUZZ_DIMS = (1, 2, 4, 8, 16)  # realization-fuzz and kde-identity: the drawn dimensions
_FUZZ_M_RANGE = (1, 64)  # realization-fuzz and kde-identity: the drawn support sizes, ends included
_FUZZ_T_RANGE = (1e-3, 1.0)  # realization-fuzz and kde-identity: the drawn flow times
_FUZZ_TOL = 1e-10  # realization-fuzz: max |attention - plug-in|
_KDE_TOL = 1e-12  # kde-identity: max |log mixture - log KDE|
_KDE_DENSITY_FLOOR = 1e-280  # kde-identity: skip points whose KDE density is below this
_T_STAR = 0.56  # mid-flow time of the n_eff profiles
# neff-collapse: a mixture wider than the Gmm default, and the median n_eff
# bands at the lowest and highest dimension
_NEFF_GMM = {"k_components": 5, "separation_scale": 4.0, "std_lo": 0.5, "std_hi": 1.5}
_NEFF_BAND_LOW_D = (4.5, 13.5)
_NEFF_BAND_HIGH_D = (1.0, 1.5)
# variance-scaling: each family's task class and default dimension, and the
# acceptance bands (alpha range, r^2 floor) of the two documented (family, d)
# configurations; any other configuration reports an exploratory verdict
_VARIANCE_FAMILIES = {"fourier": (FourierDensity, 8), "gmm": (Gmm, 2)}
_VARIANCE_BANDS = {("fourier", 8): ((0.25, 0.40), 0.95), ("gmm", 2): ((0.9, float("inf")), None)}
# endpoint-check: Euler steps, null MMD^2 pairs, the C2ST band and the MMD^2
# band in null IQRs about the null median
_ENDPOINT_STEPS = 200
_NULL_PAIRS = 16
_C2ST_BAND = (0.44, 0.58)
_NULL_IQR_FACTOR = 3.0
_SOLVER_REL_TOL = 0.10  # solver-control: median |rk45 - euler| / euler MMD^2
_SPHERE_NOISE = 0.5  # sphere-rate: observation noise std
_EXPONENT_TOL = 0.15  # sphere-rate: |alpha - target exponent|
_NEFF_DROP_MIN = 3.0  # whitening-control: n_eff ratio, weakest over strongest whitening
_MMD_BANDWIDTH_RULE = "median heuristic, first seed, shared across seeds"  # without mmd_bandwidth


@dataclass
class RunReport:
    """Experiment output: config echo, per-row metrics, aggregates, verdict.

    `passed` is None for exploratory experiments that have no hard criterion.
    The experiment id is the config's "experiment" entry.
    """

    config: dict
    rows: list[dict] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    passed: Optional[bool] = None


def save_report(report: RunReport, outdir: str) -> tuple[str, str]:
    """Write report.json and rows.csv; returns the two paths."""
    os.makedirs(outdir, exist_ok=True)
    jpath = os.path.join(outdir, "report.json")
    cpath = os.path.join(outdir, "rows.csv")
    write_json(jpath, {"id": report.config["experiment"], "config": report.config,
                       "rows": report.rows, "aggregates": report.aggregates, "pass": report.passed})
    cols = list(dict.fromkeys(key for row in report.rows for key in row))
    write_csv(cpath, [[row.get(c, "") for c in cols] for row in report.rows], header=cols)
    return jpath, cpath


def _base_config(experiment: str, **params) -> dict:
    return {"experiment": experiment, "library_version": __version__, "rng": _RNG_NOTE, **params}


def _grid(values: list, name: str) -> list:
    """A seed list or grid, checked before any work: an empty one has no verdict, and _by merges a repeat's rows."""
    if not values:
        raise ConfigError(f"need at least one {name}, got none")
    if len(set(values)) < len(values):
        raise ConfigError(f"repeated {name} in {values!r}")
    return values


def _int_list(values: Sequence[int], name: str, least: int) -> list[int]:
    """A nonempty seed list or grid of distinct ints >= `least`."""
    return _grid([_count(v, name, least) for v in values], name)


def _by(rows: list[dict], key: str | tuple[str, ...], value: str) -> dict:
    """Per row[key] (the tuple of row[k] when key is a tuple), the list of row[value]; both in row order."""
    out: dict = {}
    for row in rows:
        out.setdefault(tuple(row[k] for k in key) if isinstance(key, tuple) else row[key], []).append(row[value])
    return out


def _mmd(x: np.ndarray, y: np.ndarray, bandwidth: Optional[float]) -> tuple[float, float]:
    """MMD^2 of x against y, and its bandwidth: `bandwidth`, else the median heuristic of (x, y)."""
    if bandwidth is None:
        bandwidth = median_heuristic(x, y)
    return mmd2_unbiased(x, y, bandwidth), bandwidth


def _median_neff(support: SupportSet, n_queries: int, seed: int) -> float:
    """The median kernel n_eff at _T_STAR over n_queries path-marginal queries."""
    return float(neff_profile(support, _SCHED, [_T_STAR], n_queries=n_queries, seed=seed).median[0])


def _spec_echo(spec: TaskSpec) -> dict:
    return {"family": type(spec).__name__.lower(), **spec.__dict__}


def _fuzz_cases(rng: np.random.Generator, n_configs: int) -> Iterator[tuple[int, int, float, SupportSet]]:
    """n_configs fuzz cases (d, m, t, an m x d N(0, 2^2) support), drawn in this order from rng."""
    for _ in range(_count(n_configs, "n_configs")):
        d = int(rng.choice(_FUZZ_DIMS))
        m = int(rng.integers(_FUZZ_M_RANGE[0], _FUZZ_M_RANGE[1] + 1))
        t = float(rng.uniform(*_FUZZ_T_RANGE))
        yield d, m, t, SupportSet(rng.normal(0.0, 2.0, (m, d)))


def exp_realization_fuzz(n_configs: int = 1000, seed: int = 0) -> RunReport:
    """Fuzz the single-head attention route against the stable plug-in route.

    States are drawn from the path marginal, which is where an ODE solver
    actually evaluates the field.
    """
    rng = np.random.default_rng(np.random.SeedSequence([101, _count(seed, "seed", least=0)]))
    rows = []
    for i, (d, m, t, support) in enumerate(_fuzz_cases(rng, n_configs)):
        anchor = support.points[int(rng.integers(m))]
        x = t * anchor + _SCHED.sigma(t) * rng.standard_normal(d)
        fld = PluginField(support, _SCHED)
        dev = float(np.max(np.abs(attention_realized_velocity(support, _SCHED, x, t) - fld(x, t))))
        rows.append({"config": i, "d": d, "m": m, "t": t, "deviation": dev})
    worst = max(0.0, *(r["deviation"] for r in rows))
    return RunReport(
        config=_base_config(
            "realization-fuzz",
            n_configs=n_configs,
            seed=seed,
            sigma_min=_SCHED.sigma_min,
            t_range=list(_FUZZ_T_RANGE),
            dims=list(_FUZZ_DIMS),
            m_range=list(_FUZZ_M_RANGE),
            tolerance=_FUZZ_TOL,
            query_law="path-marginal",
        ),
        rows=rows,
        aggregates={"max_deviation": worst, "tolerance": _FUZZ_TOL},
        passed=bool(worst <= _FUZZ_TOL),
    )


def exp_kde_identity(n_configs: int = 200, n_points: int = 16, seed: int = 0) -> RunReport:
    """Check that the time-t mixture density, de-scaled, matches the KDE form.

    Both sides go through independent log-sum-exp evaluations: the mixture
    uses means t*s_i at scale sigma_t plus the d*log(t) Jacobian, the KDE
    uses bandwidth h(t) directly.
    """
    rng = np.random.default_rng(np.random.SeedSequence([102, _count(seed, "seed", least=0)]))
    n_points = _count(n_points, "n_points")
    rows = []
    checked = 0
    for i, (d, m, t, support) in enumerate(_fuzz_cases(rng, n_configs)):
        sig = _SCHED.sigma(t)
        h = _SCHED.bandwidth(t)
        anchors = support.points[rng.integers(m, size=n_points)]
        x_tilde = anchors + h * rng.standard_normal((n_points, d))
        config_worst = 0.0
        for q in x_tilde:
            log_kde = kde_descaled_log_density(q, support, h)
            if log_kde < np.log(_KDE_DENSITY_FLOOR):
                continue
            sq = np.sum((t * q - t * support.points) ** 2, axis=1)
            log_mix = (
                d * np.log(t)
                - np.log(m)
                - 0.5 * d * np.log(2.0 * np.pi * sig * sig)
                + _logsumexp(-sq / (2.0 * sig * sig))
            )
            config_worst = max(config_worst, abs(log_mix - log_kde))
            checked += 1
        rows.append({"config": i, "d": d, "m": m, "t": t, "max_log_diff": config_worst})
    worst = max(0.0, *(r["max_log_diff"] for r in rows))
    return RunReport(
        config=_base_config(
            "kde-identity",
            n_configs=n_configs,
            n_points=n_points,
            seed=seed,
            sigma_min=_SCHED.sigma_min,
            tolerance=_KDE_TOL,
            density_floor=_KDE_DENSITY_FLOOR,
        ),
        rows=rows,
        aggregates={"max_log_diff": worst, "points_checked": checked, "tolerance": _KDE_TOL},
        passed=bool(worst <= _KDE_TOL and checked > 0),
    )


def exp_neff_collapse(
    dims: Sequence[int] = (2, 4, 8, 16),
    m: int = 64,
    seeds: Sequence[int] = tuple(range(8)),
    n_queries: int = 512,
) -> RunReport:
    """Median kernel n_eff at mid-flow across dimensions on mixture tasks.

    The mixture spread (_NEFF_GMM) is wider than the generation default: it
    and the two bands are calibrated so the profile reproduces the documented
    collapse (about 9 at d=2 down to about 1 at d=16), and the config echoes
    them in full.
    """
    seeds = _int_list(seeds, "seed", 0)
    dims = _int_list(dims, "dims entry", 1)
    rows = []
    for d in dims:
        for seed in seeds:
            support = SupportSet(sample_task(Gmm(d=d, **_NEFF_GMM, seed=seed), m, 10_000 + seed))
            rows.append({"d": d, "seed": seed, "median_neff": _median_neff(support, n_queries, seed)})
    medians = {d: float(np.median(v)) for d, v in _by(rows, "d", "median_neff").items()}
    ordered = list(medians.values())
    monotone = all(a > b for a, b in zip(ordered, ordered[1:]))
    lo_ok = _NEFF_BAND_LOW_D[0] <= medians[dims[0]] <= _NEFF_BAND_LOW_D[1]
    hi_ok = _NEFF_BAND_HIGH_D[0] <= medians[dims[-1]] <= _NEFF_BAND_HIGH_D[1]
    return RunReport(
        config=_base_config(
            "neff-collapse",
            seeds=seeds,
            dims=dims,
            m=m,
            t_star=_T_STAR,
            n_queries=n_queries,
            sigma_min=_SCHED.sigma_min,
            gmm=dict(_NEFF_GMM),
            band_low_d=list(_NEFF_BAND_LOW_D),
            band_high_d=list(_NEFF_BAND_HIGH_D),
            query_law="path-marginal",
        ),
        rows=rows,
        aggregates={
            "median_by_dim": {str(d): v for d, v in medians.items()},
            "strictly_decreasing": monotone,
            "low_dim_in_band": lo_ok,
            "high_dim_in_band": hi_ok,
        },
        passed=bool(monotone and lo_ok and hi_ok),
    )


def exp_variance_scaling(
    family: str = "fourier",
    d: Optional[int] = None,
    m_grid: Sequence[int] = (10, 25, 50, 100, 250, 500, 1000),
    m_ref: int = 50_000,
    seeds: Sequence[int] = (0, 1, 2, 3),
    n_queries: int = 512,
) -> RunReport:
    """Decay of the local-mean gap against a large reference support.

    For each m, both supports are smoothed at the same Silverman bandwidth
    h = m^(-1/(4+d)) and the squared gap is averaged over queries drawn from
    the task itself, then fitted as a power law in m.  d defaults to the
    family's documented dimension; only the documented (family, d) pairs
    have acceptance bands.
    """
    seeds = _int_list(seeds, "seed", 0)
    m_grid = _int_list(m_grid, "m_grid entry", 1)
    if family not in _VARIANCE_FAMILIES:
        raise ConfigError(f"unknown family {family!r}; expected 'fourier' or 'gmm'")
    family_cls, default_d = _VARIANCE_FAMILIES[family]
    if d is None:
        d = default_d
    alpha_range, r2_min = _VARIANCE_BANDS.get((family, d), (None, None))
    rows = []
    for seed in seeds:
        spec = family_cls(d=d, seed=seed)
        queries = sample_task(spec, n_queries, 60_000 + seed)
        hs = [float(m) ** (-1.0 / (4 + d)) for m in m_grid]
        # The reference support lives for this one call, and its sampled rows only until copied.
        ref = nw_local_means(queries, SupportSet(sample_task(spec, m_ref, 50_000 + seed)), hs)
        for m, h, ref_means in zip(m_grid, hs, ref):
            sm = sample_task(spec, m, 70_000 + 1000 * seed + m)
            gap = nw_local_means(queries, sm, h) - ref_means
            v = float(np.mean(np.sum(gap * gap, axis=1)))
            rows.append({"family": family, "d": d, "seed": seed, "m": m, "h": h, "value": v})
    means = {m: float(np.mean(vs)) for m, vs in _by(rows, "m", "value").items()}
    fit = fit_power_law([(float(m), v) for m, v in means.items()])
    checks = {}
    if alpha_range is not None:
        checks["alpha_in_band"] = bool(alpha_range[0] <= fit.alpha <= alpha_range[1])
    if r2_min is not None:
        checks["r2_ok"] = bool(fit.r_squared >= r2_min)
    passed = bool(all(checks.values())) if checks else None
    return RunReport(
        config=_base_config(
            "variance-scaling",
            seeds=seeds,
            family=family,
            d=d,
            m_grid=m_grid,
            m_ref=m_ref,
            n_queries=n_queries,
            bandwidth_rule="m**(-1/(4+d)), same h for test and reference supports",
            query_law="task-distribution",
            alpha_range=list(alpha_range) if alpha_range else None,
            r2_min=r2_min,
            task=_spec_echo(family_cls(d=d)),
        ),
        rows=rows,
        aggregates={
            "alpha": fit.alpha,
            "r_squared": fit.r_squared,
            "mean_by_m": {str(m): v for m, v in means.items()},
            **checks,
        },
        passed=passed,
    )


def exp_endpoint_check(
    m: int = 50,
    n: int = 2000,
    seeds: Sequence[int] = (0, 1, 2, 3),
    bandwidth_factor: float = 1.0,
    mmd_bandwidth: Optional[float] = None,
) -> RunReport:
    """ODE endpoints on Gmm(d=2, seed=seed) against direct KDE sampling at bandwidth sigma_min.

    `bandwidth_factor` scales the reference KDE bandwidth; 1.0 is the main
    check and 10.0 the deliberate negative control that must fail.  The MMD
    bandwidth comes once from the first seed's pooled samples so all seeds
    share a comparable kernel; the null MMD distribution comes from pairs of
    independent reference draws.
    """
    seeds = _int_list(seeds, "seed", 0)
    ref_bandwidth = _SCHED.sigma_min * bandwidth_factor
    rows = []
    mmd_bw: Optional[float] = mmd_bandwidth
    null_median = null_iqr = None
    for seed in seeds:
        support, _ = make_support_and_eval(Gmm(d=2, seed=seed), m, 0, 20_000 + seed)
        fld = PluginField(support, _SCHED)
        gen = generate(fld, n, seed=seed, method=Euler(_ENDPOINT_STEPS))
        ref = kde_direct_sample(support, ref_bandwidth, n, seed=90_000 + seed)
        mmd, mmd_bw = _mmd(gen, ref, mmd_bw)
        if null_median is None:
            nulls = [
                mmd2_unbiased(kde_direct_sample(support, ref_bandwidth, n, seed=100_000 + k),
                              kde_direct_sample(support, ref_bandwidth, n, seed=200_000 + k), mmd_bw)
                for k in range(_NULL_PAIRS)
            ]
            null_median = float(np.median(nulls))
            q75, q25 = np.percentile(nulls, [75, 25])
            null_iqr = float(q75 - q25)
            if null_iqr == 0.0:
                raise NumericalError(f"null MMD^2 IQR is exactly 0 at MMD bandwidth {mmd_bw!r}")
        acc = c2st_1nn(gen, ref)
        mmd_ok = abs(mmd - null_median) <= _NULL_IQR_FACTOR * null_iqr
        c2st_ok = _C2ST_BAND[0] <= acc <= _C2ST_BAND[1]
        rows.append({"seed": seed, "mmd2": mmd, "c2st_1nn": acc, "mmd_ok": mmd_ok, "c2st_ok": c2st_ok})
    return RunReport(
        config=_base_config(
            "endpoint-check",
            seeds=seeds,
            task={**_spec_echo(Gmm(d=2)), "seed": "per-run-seed"},
            m=m,
            n=n,
            sigma_min=_SCHED.sigma_min,
            euler_steps=_ENDPOINT_STEPS,
            bandwidth_factor=bandwidth_factor,
            null_pairs=_NULL_PAIRS,
            c2st_band=list(_C2ST_BAND),
            null_iqr_factor=_NULL_IQR_FACTOR,
            mmd_bandwidth_rule="explicit override" if mmd_bandwidth is not None else _MMD_BANDWIDTH_RULE,
            c2st_rule="leave-one-out 1-NN substitute for a trained classifier",
        ),
        rows=rows,
        aggregates={
            "mmd_bandwidth": mmd_bw,
            "null_median": null_median,
            "null_iqr": null_iqr,
            "median_c2st": float(np.median([r["c2st_1nn"] for r in rows])),
            "median_mmd2": float(np.median([r["mmd2"] for r in rows])),
        },
        passed=all(r["mmd_ok"] and r["c2st_ok"] for r in rows),
    )


def exp_solver_control(
    m: int = 50,
    n: int = 2000,
    seeds: Sequence[int] = (0, 1, 2, 3),
    rtol: float = 1e-5,
    atol: float = 1e-7,
    mmd_bandwidth: Optional[float] = None,
) -> RunReport:
    """Euler-100 vs adaptive RK45 endpoints on Gmm(d=2, seed=seed).

    Each is scored by MMD^2 against held-out draws of the same task.
    """
    seeds = _int_list(seeds, "seed", 0)
    rk = AdaptiveRK45(rtol=rtol, atol=atol)
    rows = []
    mmd_bw: Optional[float] = mmd_bandwidth
    for seed in seeds:
        support, eval_rows = make_support_and_eval(Gmm(d=2, seed=seed), m, n, 30_000 + seed)
        fld = PluginField(support, _SCHED)
        gen_e = generate(fld, n, seed=seed)
        gen_r = generate(fld, n, seed=seed, method=rk)
        mmd_e, mmd_bw = _mmd(eval_rows, gen_e, mmd_bw)
        mmd_r = mmd2_unbiased(gen_r, eval_rows, mmd_bw)
        if mmd_e == 0.0:
            raise NumericalError(f"Euler MMD^2 is exactly 0 at MMD bandwidth {mmd_bw!r}")
        rel = abs(mmd_r - mmd_e) / abs(mmd_e)
        rows.append({"seed": seed, "mmd2_euler100": mmd_e, "mmd2_rk45": mmd_r, "rel_change": rel})
    median_rel = float(np.median([r["rel_change"] for r in rows]))
    return RunReport(
        config=_base_config(
            "solver-control",
            seeds=seeds,
            task={**_spec_echo(Gmm(d=2)), "seed": "per-run-seed"},
            m=m,
            n=n,
            sigma_min=_SCHED.sigma_min,
            rtol=rtol,
            atol=atol,
            rel_tol=_SOLVER_REL_TOL,
            mmd_bandwidth_rule="explicit override" if mmd_bandwidth is not None else _MMD_BANDWIDTH_RULE,
        ),
        rows=rows,
        aggregates={"median_rel_change": median_rel, "mmd_bandwidth": mmd_bw},
        passed=bool(median_rel <= _SOLVER_REL_TOL),
    )


def exp_sphere_rate(
    d_k: int = 3,
    m_grid: Sequence[int] = (128, 256, 512, 1024, 2048, 4096),
    c_grid: Sequence[float] = (1.0, 2.0, 4.0),
    seeds: Sequence[int] = (0, 1, 2),
    n_queries: int = 384,
) -> RunReport:
    """Spherical kernel regression rate under concentration scaled as m^(2/(d_k+3)).

    Noisy observations of the first coordinate are smoothed with the vMF
    kernel; per m the best concentration constant is picked by minimum MSE,
    and the decay of that envelope is fitted as a power law.  The fixed-kappa
    control reuses the smallest-m concentration everywhere and must fit a
    strictly smaller exponent (its bias no longer shrinks).
    """
    seeds = _int_list(seeds, "seed", 0)
    m_grid = _int_list(m_grid, "m_grid entry", 1)
    c_grid = _grid([_scale(c, "c_grid entry") for c in c_grid], "c_grid entry")
    d_k = _count(d_k, "d_k")
    n_queries = _count(n_queries, "n_queries")
    target_exp = 4.0 / (d_k + 3)
    kappa_pow = 2.0 / (d_k + 3)
    sphere = Shell(d=d_k, radius_std=0.0)  # uniform on the unit sphere

    def sphere_mse(tag: int, seed: int, kappas: Callable[[int], list[float]]) -> Iterator[list[float]]:
        """Per m of m_grid, the vMF smoother's MSE at each of kappas(m), on the (tag, seed) draw."""
        rng = np.random.default_rng(np.random.SeedSequence([tag, seed]))
        queries = _sample_shell(sphere, n_queries, rng)
        for m in m_grid:
            design = _sample_shell(sphere, m, rng)
            y = design[:, 0] + _SPHERE_NOISE * rng.standard_normal(m)
            support, values = SupportSet(design), np.column_stack([y, np.ones(m)])
            # On the unit sphere kappa cos = kappa - kappa ||x - s||^2 / 2: the vMF smoother
            # is the core's Gaussian smoother at sigma^2 = 1 / kappa and t = 1.
            est = _smooth(queries, support, 1.0, [k ** -0.5 for k in kappas(m)], values)[:, :, 0]
            yield [float(np.mean((e - queries[:, 0]) ** 2)) for e in est]

    rows = []
    for seed in seeds:
        per_m = sphere_mse(301, seed, lambda m: [c * float(m) ** kappa_pow for c in c_grid])
        for m, vals in zip(m_grid, per_m):
            for c, val in zip(c_grid, vals):
                rows.append({"seed": seed, "m": m, "c": c, "kappa": c * float(m) ** kappa_pow, "mse": val})
    mse = {cm: float(np.mean(v)) for cm, v in _by(rows, ("c", "m"), "mse").items()}
    envelope = [(float(m), min(mse[(c, m)] for c in c_grid)) for m in m_grid]
    fit = fit_power_law(envelope)

    # fixed-kappa control: freeze the best c's kappa at the smallest m
    m0 = m_grid[0]
    best_c = min(c_grid, key=lambda c: mse[(c, m0)])
    kappa0 = best_c * float(m0) ** kappa_pow
    ctrl = [list(sphere_mse(302, seed, lambda m: [kappa0])) for seed in seeds]  # per seed, per m: [MSE], unrecorded
    fit_ctrl = fit_power_law([(float(m), float(np.mean([v for (v,) in vs]))) for m, vs in zip(m_grid, zip(*ctrl))])

    in_band = abs(fit.alpha - target_exp) <= _EXPONENT_TOL
    ctrl_smaller = fit_ctrl.alpha < fit.alpha
    return RunReport(
        config=_base_config(
            "sphere-rate",
            seeds=seeds,
            d_k=d_k,
            m_grid=m_grid,
            c_grid=c_grid,
            n_queries=n_queries,
            observation_noise=_SPHERE_NOISE,
            kappa_rule="c * m**(2/(d_k+3)); best c per m by minimum MSE",
            target_exponent=target_exp,
            exponent_tol=_EXPONENT_TOL,
        ),
        rows=rows,
        aggregates={
            "alpha": fit.alpha,
            "r_squared": fit.r_squared,
            "alpha_fixed_kappa": fit_ctrl.alpha,
            "target_exponent": target_exp,
            "in_band": bool(in_band),
            "control_strictly_smaller": bool(ctrl_smaller),
        },
        passed=bool(in_band and ctrl_smaller),
    )


def exp_whitening_control(
    table: Optional[FeatureTable] = None,
    strengths: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    m: int = 64,
    seeds: Sequence[int] = (0, 1, 2, 3),
    n: int = 512,
    n_eval: int = 512,
) -> RunReport:
    """n_eff and generation quality across whitening strengths.

    Whitening equalizes the feature spectrum, which collapses the kernel's
    effective sample size while generation quality stays comparable; the
    hard criterion here is only the n_eff drop between the endpoints of the
    strength grid.  Defaults to a synthetic anisotropic table; at most the
    table's rows beyond the support are held out.
    """
    seeds = _int_list(seeds, "seed", 0)
    strengths = _grid([_unit(lam, "strength", zero=True) for lam in strengths], "strength")
    if table is None:
        table = anisotropic_gaussian_features(4096, 16, seed=0)
    n_eval = max(0, min(n_eval, table.n - m))
    rows = []
    mmd_bw: Optional[float] = None
    for lam in strengths:
        tab_l, _ = whiten(table, lam)
        for seed in seeds:
            support, eval_rows = split_table(tab_l, m, n_eval, 40_000 + seed)
            neff = _median_neff(support, 256, seed)
            mmd, mmd_bw = _mmd(eval_rows, generate(PluginField(support, _SCHED), n, seed=seed), mmd_bw)
            rows.append({"strength": lam, "seed": seed, "median_neff": neff, "mmd2": mmd})
    neff_by_lam = {k: float(np.median(v)) for k, v in _by(rows, "strength", "median_neff").items()}
    mmd_by_lam = {k: float(np.median(v)) for k, v in _by(rows, "strength", "mmd2").items()}
    drop = neff_by_lam[strengths[0]] / max(neff_by_lam[strengths[-1]], 1e-12)
    mmds = list(mmd_by_lam.values())
    return RunReport(
        config=_base_config(
            "whitening-control",
            seeds=seeds,
            strengths=strengths,
            m=m,
            n=n,
            n_eval=n_eval,
            t_star=_T_STAR,
            sigma_min=_SCHED.sigma_min,
            table={"n": table.n, "d": table.d, "source": table.source},
            neff_drop_min=_NEFF_DROP_MIN,
            mmd_bandwidth_rule="median heuristic, first run, shared across strengths",
        ),
        rows=rows,
        aggregates={
            "median_neff_by_strength": {str(k): v for k, v in neff_by_lam.items()},
            "median_mmd2_by_strength": {str(k): v for k, v in mmd_by_lam.items()},
            "neff_drop": drop,
            "mmd2_max_over_min": float(max(mmds) / min(mmds)) if min(mmds) > 0 else None,
        },
        passed=bool(drop >= _NEFF_DROP_MIN),
    )


def _random_spd_metric(d: int) -> np.ndarray:
    a = np.random.default_rng(np.random.SeedSequence([303, d])).standard_normal((d, d))
    return a @ a.T / d + 0.5 * np.eye(d)


# anisotropic-shells: metric name -> its d x d metric, in report order
_SHELL_METRICS = {
    "identity": np.eye,
    "radial-rank1": lambda d: np.eye(d) + 3.0 * np.outer(np.eye(d)[0], np.eye(d)[0]),
    "random-spd": _random_spd_metric,
}


def exp_anisotropic_shells(
    d: int = 8,
    m: int = 64,
    seeds: Sequence[int] = (0, 1, 2),
    n: int = 1000,
) -> RunReport:
    """Isotropic vs fixed-metric plug-in generation on shells (exploratory).

    A fixed global metric cannot track the radial direction around the
    sphere, so no hard criterion applies; the report records MMD ratios.
    """
    seeds = _int_list(seeds, "seed", 0)
    rows = []
    mmd_bw: Optional[float] = None
    for seed in seeds:
        spec = Shell(d=d, seed=seed)
        support, eval_rows = make_support_and_eval(spec, m, n, 50_000 + seed)
        iso = PluginField(support, _SCHED)
        mmd_iso, mmd_bw = _mmd(eval_rows, generate(iso, n, seed=seed), mmd_bw)
        for name, metric in _SHELL_METRICS.items():
            fld = PluginField(support, _SCHED, metric(d))
            gen_m = generate(fld, n, seed=seed)
            mmd_m = mmd2_unbiased(gen_m, eval_rows, mmd_bw)
            ratio = mmd_iso / mmd_m if mmd_m != 0 else float("inf")
            rows.append(
                {
                    "seed": seed,
                    "metric": name,
                    "mmd2_isotropic": mmd_iso,
                    "mmd2_metric": mmd_m,
                    "ratio_iso_over_metric": ratio,
                }
            )
    ratios = _by(rows, "metric", "ratio_iso_over_metric")
    return RunReport(
        config=_base_config(
            "anisotropic-shells",
            seeds=seeds,
            d=d,
            m=m,
            n=n,
            sigma_min=_SCHED.sigma_min,
            metric_names=list(_SHELL_METRICS),
            note="exploratory; no hard pass criterion",
        ),
        rows=rows,
        aggregates={"median_ratio_by_metric": {k: float(np.median(v)) for k, v in ratios.items()}},
        passed=None,
    )
