import json
import os

import numpy as np
import pytest

from nwflow import experiments
from nwflow.errors import ConfigError
from nwflow.experiments import (
    exp_anisotropic_shells,
    exp_endpoint_check,
    exp_kde_identity,
    exp_neff_collapse,
    exp_realization_fuzz,
    exp_solver_control,
    exp_sphere_rate,
    exp_variance_scaling,
    exp_whitening_control,
    save_report,
)
from nwflow.metrics import fit_power_law
from nwflow.tasks import anisotropic_gaussian_features


def _report_bytes(report, outdir):
    return open(save_report(report, str(outdir))[0], "rb").read()


def test_realization_fuzz_passes_and_is_deterministic(tmp_path):
    a = exp_realization_fuzz(n_configs=150, seed=0)
    b = exp_realization_fuzz(n_configs=150, seed=0)
    assert a.passed is True
    assert a.aggregates["max_deviation"] <= 1e-10
    assert _report_bytes(a, tmp_path / "a") == _report_bytes(b, tmp_path / "b")
    assert len(a.rows) == 150


def test_realization_fuzz_includes_edge_configs():
    report = exp_realization_fuzz(n_configs=300, seed=1)
    ms = {row["m"] for row in report.rows}
    ds = {row["d"] for row in report.rows}
    assert 1 in ms or 2 in ms
    assert {1, 2, 4, 8, 16} == ds


def test_kde_identity_passes():
    report = exp_kde_identity(n_configs=60, n_points=8, seed=0)
    assert report.passed is True
    assert report.aggregates["max_log_diff"] <= 1e-12
    assert report.aggregates["points_checked"] > 0


def test_neff_collapse_shape():
    report = exp_neff_collapse(
        dims=(2, 16), seeds=(0, 1, 2), n_queries=128, m=64
    )
    med = report.aggregates["median_by_dim"]
    assert med["2"] > med["16"]
    assert len(report.rows) == 6


def test_neff_collapse_single_point_control():
    report = exp_neff_collapse(dims=(2, 4), m=1, seeds=(0,), n_queries=64)
    for row in report.rows:
        assert row["median_neff"] == pytest.approx(1.0)


def test_variance_scaling_planted_check():
    # the fitting path recovers a planted 1/m law exactly
    from nwflow.metrics import fit_power_law

    pts = [(m, 1.0 / m) for m in (10, 100, 1000)]
    fit = fit_power_law(pts)
    assert fit.alpha == pytest.approx(1.0, abs=1e-12)


def test_variance_scaling_small_run_reports():
    small = dict(m_grid=(10, 50, 250), m_ref=2000, seeds=(0,), n_queries=64)
    report = exp_variance_scaling(family="gmm", d=2, **small)
    # (gmm, 2) is a documented configuration: its bands are echoed and judged
    assert report.config["alpha_range"] == [0.9, float("inf")]
    assert report.config["r2_min"] is None
    assert isinstance(report.passed, bool)
    assert report.passed is report.aggregates["alpha_in_band"]
    assert report.aggregates["alpha"] > 0
    assert {row["m"] for row in report.rows} == {10, 50, 250}
    # any other (family, d) has no bands and reports an exploratory verdict
    other = exp_variance_scaling(family="gmm", d=3, **small)
    assert other.passed is None
    assert other.config["alpha_range"] is None and other.config["r2_min"] is None
    assert "alpha_in_band" not in other.aggregates
    with pytest.raises(ValueError):
        exp_variance_scaling(family="nope")


def test_sphere_rate_small_run():
    report = exp_sphere_rate(
        m_grid=(64, 128, 256), c_grid=(1.0, 2.0), seeds=(0,), n_queries=64
    )
    assert report.aggregates["alpha_fixed_kappa"] < report.aggregates["alpha"] + 1.0
    assert "kappa" in report.rows[0]


def test_sphere_rate_constant_target_is_exact():
    # f == 0: estimator averages pure noise; with no noise MSE is 0
    from nwflow.kernels import softmax_weights

    rng = np.random.default_rng(0)
    u = rng.standard_normal((50, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    q = rng.standard_normal((10, 3))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w = softmax_weights(4.0 * (q @ u.T))
    est = w @ np.zeros(50)
    assert np.allclose(est, 0.0)


def test_whitening_control_direction():
    report = exp_whitening_control(seeds=(0,), n=128, n_eval=128, strengths=(0.0, 1.0))
    neffs = report.aggregates["median_neff_by_strength"]
    assert neffs["0.0"] > neffs["1.0"]
    assert report.aggregates["neff_drop"] > 1.0


def test_anisotropic_shells_identity_ratio():
    report = exp_anisotropic_shells(d=4, m=32, seeds=(0,), n=256)
    assert report.passed is None
    ident = [r for r in report.rows if r["metric"] == "identity"]
    for row in ident:
        assert row["ratio_iso_over_metric"] == pytest.approx(1.0, rel=1e-9)


def test_save_report_layout(tmp_path):
    report = exp_realization_fuzz(n_configs=20, seed=3)
    jpath, cpath = save_report(report, str(tmp_path))
    payload = json.loads(open(jpath).read())
    assert set(payload) == {"id", "config", "rows", "aggregates", "pass"}
    assert payload["pass"] is True
    assert payload["config"]["tolerance"] == 1e-10
    header = open(cpath).readline().strip().split(",")
    assert header == list(report.rows[0].keys())
    n_lines = sum(1 for _ in open(cpath)) - 1
    assert n_lines == len(report.rows)


def test_report_bytes_stable_across_runs(tmp_path):
    r1 = exp_kde_identity(n_configs=10, n_points=4, seed=5)
    r2 = exp_kde_identity(n_configs=10, n_points=4, seed=5)
    p1 = os.path.join(tmp_path, "a")
    p2 = os.path.join(tmp_path, "b")
    save_report(r1, p1)
    save_report(r2, p2)
    assert open(os.path.join(p1, "report.json"), "rb").read() == open(
        os.path.join(p2, "report.json"), "rb"
    ).read()
    assert open(os.path.join(p1, "rows.csv"), "rb").read() == open(
        os.path.join(p2, "rows.csv"), "rb"
    ).read()


@pytest.mark.parametrize(
    "run",
    [
        exp_neff_collapse,
        exp_variance_scaling,
        exp_endpoint_check,
        exp_solver_control,
        exp_sphere_rate,
        exp_whitening_control,
        exp_anisotropic_shells,
    ],
)
def test_empty_seed_list_is_config_error(run):
    # Without a seed there is nothing to aggregate: this gave a PASS with NaN
    # medians, a KeyError, or NaN aggregates after RuntimeWarnings.
    with pytest.raises(ConfigError, match="at least one seed"):
        run(seeds=())


def _col(report, key, k, value):
    """The `value` column of the rows whose `key` is k, in row order."""
    return [r[value] for r in report.rows if r[key] == k]


def _medians(report, key, keys, value):
    return {str(k): float(np.median(_col(report, key, k, value))) for k in keys}


def _max_from_rows(report, value):
    return max(0.0, *(r[value] for r in report.rows))


def _variance_from_rows(report):
    means = {m: float(np.mean(_col(report, "m", m, "value"))) for m in (10, 40, 20)}
    fit = fit_power_law([(float(m), v) for m, v in means.items()])
    return {"alpha": fit.alpha, "r_squared": fit.r_squared, "mean_by_m": {str(m): v for m, v in means.items()}}


def _sphere_from_rows(report):
    mse = {
        (c, m): float(np.mean([r["mse"] for r in report.rows if (r["c"], r["m"]) == (c, m)]))
        for c in (1.0, 2.0)
        for m in (16, 32, 64)
    }
    fit = fit_power_law([(float(m), min(mse[(c, m)] for c in (1.0, 2.0))) for m in (16, 32, 64)])
    return {"alpha": fit.alpha, "r_squared": fit.r_squared}


def _whitening_from_rows(report):
    neff = _medians(report, "strength", (0.0, 0.5, 1.0), "median_neff")
    return {
        "median_neff_by_strength": neff,
        "median_mmd2_by_strength": _medians(report, "strength", (0.0, 0.5, 1.0), "mmd2"),
        "neff_drop": neff["0.0"] / max(neff["1.0"], 1e-12),
    }


_TABLE = anisotropic_gaussian_features(300, 4, seed=1)

# experiment -> (small run, its aggregates and verdict recomputed from its rows alone)
FROM_ROWS = {
    "realization-fuzz": (
        lambda: exp_realization_fuzz(n_configs=20, seed=2),
        lambda r: {"max_deviation": _max_from_rows(r, "deviation")},
    ),
    "kde-identity": (
        lambda: exp_kde_identity(n_configs=10, n_points=4, seed=2),
        lambda r: {"max_log_diff": _max_from_rows(r, "max_log_diff")},
    ),
    "neff-collapse": (
        lambda: exp_neff_collapse(dims=(8, 2), m=16, seeds=(2, 0, 1), n_queries=32),
        lambda r: {"median_by_dim": _medians(r, "d", (8, 2), "median_neff")},
    ),
    "variance-scaling": (
        lambda: exp_variance_scaling(family="gmm", d=2, m_grid=(10, 40, 20), m_ref=400, seeds=(1, 0), n_queries=32),
        _variance_from_rows,
    ),
    "endpoint-check": (
        lambda: exp_endpoint_check(m=10, n=100, seeds=(0, 2, 1)),
        lambda r: {
            "median_c2st": float(np.median([row["c2st_1nn"] for row in r.rows])),
            "median_mmd2": float(np.median([row["mmd2"] for row in r.rows])),
            "pass": all(row["mmd_ok"] and row["c2st_ok"] for row in r.rows),
        },
    ),
    "solver-control": (
        lambda: exp_solver_control(m=10, n=100, seeds=(1, 0)),
        lambda r: {"median_rel_change": float(np.median([row["rel_change"] for row in r.rows]))},
    ),
    "sphere-rate": (
        lambda: exp_sphere_rate(m_grid=(16, 32, 64), c_grid=(1.0, 2.0), seeds=(0, 1), n_queries=24),
        _sphere_from_rows,
    ),
    "whitening-control": (
        lambda: exp_whitening_control(table=_TABLE, strengths=(0.0, 0.5, 1.0), m=20, seeds=(0, 1), n=40, n_eval=40),
        _whitening_from_rows,
    ),
    "anisotropic-shells": (
        lambda: exp_anisotropic_shells(d=3, m=12, seeds=(0, 1), n=40),
        lambda r: {"median_ratio_by_metric": _medians(r, "metric", r.config["metric_names"], "ratio_iso_over_metric")},
    ),
}


@pytest.mark.parametrize("name", FROM_ROWS)
def test_aggregates_are_computed_from_rows(name):
    # The rows are the one record of what an experiment measured; json.dumps pins the
    # exact floats and the grid order of each per-key table.
    run, from_rows = FROM_ROWS[name]
    report = run()
    want = from_rows(report)
    got = {**report.aggregates, "pass": report.passed}
    assert json.dumps({k: got[k] for k in want}) == json.dumps(want)


# Each repeat was merged or dropped silently: whitening-control (0.0, 1.0, 0.0) compared the
# first strength with the last, neff-collapse (2, 2) reported the second pass only, and
# sphere-rate (64, 64, 128) fitted three points for the main exponent and two for the control.
REPEATED = {
    "seeds": lambda: exp_anisotropic_shells(d=3, m=12, seeds=(0, 1, 0), n=40),
    "neff-collapse dims": lambda: exp_neff_collapse(dims=(2, 2), m=16, seeds=(0,), n_queries=32),
    "variance-scaling m_grid": lambda: exp_variance_scaling(m_grid=(10, 20, 10), m_ref=400, seeds=(0,), n_queries=32),
    "sphere-rate m_grid": lambda: exp_sphere_rate(m_grid=(64, 64, 128), seeds=(0,), n_queries=24),
    "sphere-rate c_grid": lambda: exp_sphere_rate(m_grid=(16, 32, 64), c_grid=(1.0, 2.0, 1), seeds=(0,), n_queries=24),
    "whitening-control strengths": lambda: exp_whitening_control(
        table=_TABLE, strengths=(0.0, 1.0, 0.0), m=20, seeds=(0,), n=40, n_eval=40
    ),
}


@pytest.mark.parametrize("case", REPEATED)
def test_repeated_entry_is_config_error(case):
    with pytest.raises(ConfigError, match="repeated"):
        REPEATED[case]()


def test_whitening_strengths_are_checked_before_any_generation(monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "generate", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ConfigError, match=r"strength must lie in \[0, 1\], got 2.0"):
        exp_whitening_control(strengths=(0.0, 2.0), seeds=[0])
    assert calls == []


def test_whitening_strengths_report_alike_as_ints_or_floats():
    runs = [
        exp_whitening_control(table=_TABLE, strengths=lams, m=20, seeds=(0,), n=40, n_eval=40)
        for lams in ((0, 1), (0.0, 1.0))
    ]
    as_ints, as_floats = (json.dumps([r.config, r.rows, r.aggregates, r.passed]) for r in runs)
    assert as_ints == as_floats
    assert list(runs[0].aggregates["median_neff_by_strength"]) == ["0.0", "1.0"]
