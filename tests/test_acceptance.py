"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Thresholds are pinned here and in the experiment
configs; nothing is deferred to later calibration.
"""

import time

import numpy as np

from nwflow.experiments import (
    exp_endpoint_check,
    exp_kde_identity,
    exp_neff_collapse,
    exp_realization_fuzz,
    exp_solver_control,
    exp_sphere_rate,
    exp_variance_scaling,
)
from nwflow.kernels import (
    IsotropicGaussian,
    Mahalanobis,
    SupportSet,
    kde_descaled_log_density,
    kde_descaled_score,
    nw_weights,
)
from nwflow.schedule import PathSchedule
from nwflow.velocity import (
    PluginField,
    multihead_forward,
    velocity_from_score,
)
from test_velocity import random_heads


def _verdict(num: int, name: str, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {num:2d}] {name}: {status} ({detail}; {elapsed:.1f}s < {limit:.0f}s)")


def test_criterion_1_realization_exactness():
    start = time.perf_counter()
    report = exp_realization_fuzz(n_configs=1000, seed=0)
    elapsed = time.perf_counter() - start
    dev = report.aggregates["max_deviation"]
    _verdict(1, "realization exactness", report.passed, f"max dev {dev:.2e} <= 1e-10", elapsed, 10)
    assert report.passed is True
    assert dev <= 1e-10
    assert elapsed < 10


def test_criterion_2_kde_identity():
    start = time.perf_counter()
    report = exp_kde_identity(n_configs=200, n_points=16, seed=0)
    elapsed = time.perf_counter() - start
    diff = report.aggregates["max_log_diff"]
    _verdict(2, "de-scaled KDE identity", report.passed, f"max log diff {diff:.2e} <= 1e-12", elapsed, 10)
    assert report.passed is True
    assert diff <= 1e-12
    assert elapsed < 10


def test_criterion_3_score_velocity_consistency():
    start = time.perf_counter()
    sched = PathSchedule(0.01)
    rng = np.random.default_rng(7)
    worst_fd = 0.0
    worst_route = 0.0
    for _ in range(200):
        d = int(rng.choice([1, 2, 4, 8]))
        m = int(rng.integers(2, 40))
        support = SupportSet(rng.normal(0, 2, (m, d)))
        t = float(rng.uniform(1e-3, 1.0))
        h = sched.bandwidth(t)
        x_tilde = support.points[int(rng.integers(m))] + h * rng.standard_normal(d)

        analytic = kde_descaled_score(x_tilde, support, h)
        step = 1e-5
        fd = np.empty(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = step
            fd[j] = (
                kde_descaled_log_density(x_tilde + e, support, h)
                - kde_descaled_log_density(x_tilde - e, support, h)
            ) / (2 * step)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-6)
        worst_fd = max(worst_fd, float(rel))

        fld = PluginField(support, sched)
        x = t * x_tilde

        def score_at(q, t=t, h=h, support=support):
            return kde_descaled_score(q / t, support, h) / t

        route_dev = np.max(np.abs(velocity_from_score(x, t, score_at, sched) - fld(x, t)))
        worst_route = max(worst_route, float(route_dev))
    elapsed = time.perf_counter() - start
    ok = worst_fd <= 1e-5 and worst_route <= 1e-10
    _verdict(
        3,
        "score/velocity consistency",
        ok,
        f"FD rel err {worst_fd:.2e} <= 1e-5, route dev {worst_route:.2e} <= 1e-10",
        elapsed,
        30,
    )
    assert worst_fd <= 1e-5
    assert worst_route <= 1e-10
    assert elapsed < 30


def test_criterion_4_endpoint_law():
    start = time.perf_counter()
    main = exp_endpoint_check(m=50, n=2000, seeds=(0, 1, 2, 3))
    control = exp_endpoint_check(m=50, n=2000, seeds=(0, 1, 2, 3), bandwidth_factor=10.0)
    elapsed = time.perf_counter() - start
    control_c2st = control.aggregates["median_c2st"]
    ok = main.passed is True and control.passed is False and control_c2st > 0.6
    _verdict(
        4,
        "endpoint law",
        ok,
        f"median c2st {main.aggregates['median_c2st']:.3f} in [0.44,0.58], "
        f"control c2st {control_c2st:.3f} > 0.6",
        elapsed,
        300,
    )
    assert main.passed is True
    assert control.passed is False
    assert control_c2st > 0.6
    assert elapsed < 300


def test_criterion_5_neff_collapse():
    start = time.perf_counter()
    report = exp_neff_collapse(dims=(2, 4, 8, 16), m=64, seeds=tuple(range(8)))
    elapsed = time.perf_counter() - start
    med = report.aggregates["median_by_dim"]
    _verdict(
        5,
        "n_eff collapse",
        report.passed,
        f"medians d2={med['2']:.2f} in [4.5,13.5], d16={med['16']:.2f} in [1.0,1.5], "
        f"decreasing={report.aggregates['strictly_decreasing']}",
        elapsed,
        120,
    )
    assert report.passed is True
    assert elapsed < 120


def test_criterion_6_variance_scaling():
    start = time.perf_counter()
    fourier = exp_variance_scaling(family="fourier", d=8, m_ref=50_000)
    gmm = exp_variance_scaling(family="gmm", d=2, m_ref=50_000)
    elapsed = time.perf_counter() - start
    ok = fourier.passed is True and gmm.passed is True
    _verdict(
        6,
        "variance scaling",
        ok,
        f"fourier d8 alpha={fourier.aggregates['alpha']:.3f} in [0.25,0.40] "
        f"r2={fourier.aggregates['r_squared']:.3f} >= 0.95; "
        f"gmm d2 alpha={gmm.aggregates['alpha']:.3f} >= 0.9",
        elapsed,
        900,
    )
    assert fourier.passed is True
    assert gmm.passed is True
    assert elapsed < 900


def test_criterion_7_solver_control():
    start = time.perf_counter()
    report = exp_solver_control(m=50, n=2000, seeds=(0, 1, 2, 3))
    elapsed = time.perf_counter() - start
    rel = report.aggregates["median_rel_change"]
    _verdict(7, "solver control", report.passed, f"median rel change {rel:.4f} <= 0.10", elapsed, 300)
    assert report.passed is True
    assert rel <= 0.10
    assert elapsed < 300


def test_criterion_8_spherical_rate():
    start = time.perf_counter()
    report = exp_sphere_rate(d_k=3)
    elapsed = time.perf_counter() - start
    agg = report.aggregates
    _verdict(
        8,
        "spherical rate",
        report.passed,
        f"alpha={agg['alpha']:.3f} within 0.667+-0.15, fixed-kappa {agg['alpha_fixed_kappa']:.3f} smaller",
        elapsed,
        600,
    )
    assert report.passed is True
    assert abs(agg["alpha"] - 2.0 / 3.0) <= 0.15
    assert agg["alpha_fixed_kappa"] < agg["alpha"]
    assert elapsed < 600


def test_criterion_9_multihead_decomposition():
    from nwflow.kernels import BilinearLogit, local_mean

    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_mha = 0.0
    for _ in range(100):
        d_model = int(rng.choice([4, 8, 16]))
        n_heads = int(rng.choice([1, 2, 4]))
        m = int(rng.integers(1, 12))
        w_q, w_k, w_v, w_o = random_heads(d_model, n_heads, rng)
        d_k = w_q.shape[1]
        q = rng.normal(size=d_model)
        keys = rng.normal(size=(m, d_model))
        direct = multihead_forward(w_q, w_k, w_v, w_o, q, keys)
        support = SupportSet(keys)
        total = np.zeros(d_model)
        for head in range(n_heads):
            bilinear = BilinearLogit(w_q[head].T @ w_k[head], np.sqrt(d_k))
            vals = keys @ w_v[head].T
            total += w_o[head] @ local_mean(q, support, bilinear, values=vals)
        worst_mha = max(worst_mha, float(np.max(np.abs(direct - total))))
        for head in range(n_heads):
            assert np.linalg.matrix_rank(w_q[head].T @ w_k[head] / np.sqrt(d_k)) <= d_k

    worst_mah = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 8))
        support = SupportSet(rng.normal(size=(int(rng.integers(1, 20)), d)))
        x = rng.normal(size=d)
        h = float(np.exp(rng.uniform(-1, 1)))
        iso = nw_weights(x, support, IsotropicGaussian(h)).w
        mah = nw_weights(x, support, Mahalanobis(h, np.eye(d))).w
        worst_mah = max(worst_mah, float(np.max(np.abs(iso - mah))))
    elapsed = time.perf_counter() - start
    ok = worst_mha <= 1e-12 and worst_mah <= 1e-12
    _verdict(
        9,
        "multi-head decomposition",
        ok,
        f"MHA vs NW-ensemble {worst_mha:.2e} <= 1e-12, M=I reduction {worst_mah:.2e} <= 1e-12",
        elapsed,
        10,
    )
    assert worst_mha <= 1e-12
    assert worst_mah <= 1e-12
    assert elapsed < 10


def test_criterion_10_cli_determinism(tmp_path):
    import os

    from nwflow.cli import main

    def blob(path):
        with open(path, "rb") as fh:
            return fh.read()

    start = time.perf_counter()
    pairs = []

    gen = ["generate", "--task", "gmm2d", "--m", "30", "--n", "200", "--seed", "11"]
    a, b = str(tmp_path / "g1"), str(tmp_path / "g2")
    assert main(gen + ["--out", a, "--jobs", "1"]) == 0
    assert main(gen + ["--out", b, "--jobs", "8"]) == 0
    pairs += [(os.path.join(a, f), os.path.join(b, f)) for f in ("support.csv", "samples.csv", "meta.json")]

    exp = ["experiment", "realization-fuzz", "--configs", "100", "--seed", "4"]
    c, d = str(tmp_path / "e1"), str(tmp_path / "e2")
    assert main(exp + ["--out", c, "--jobs", "1"]) == 0
    assert main(exp + ["--out", d, "--jobs", "8"]) == 0
    pairs += [(os.path.join(c, f), os.path.join(d, f)) for f in ("report.json", "rows.csv")]

    diag = ["diag-neff", "--task", "gmm2d", "--m", "20", "--n", "64", "--seed", "3"]
    e, f = str(tmp_path / "d1"), str(tmp_path / "d2")
    assert main(diag + ["--out", e]) == 0
    assert main(diag + ["--out", f, "--jobs", "8"]) == 0
    pairs.append((os.path.join(e, "neff.csv"), os.path.join(f, "neff.csv")))

    identical = all(blob(p) == blob(q) for p, q in pairs)
    elapsed = time.perf_counter() - start
    _verdict(10, "CLI determinism", identical, f"{len(pairs)} file pairs byte-identical", elapsed, 120)
    assert identical
    assert elapsed < 120
