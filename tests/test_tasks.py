import os

import numpy as np
import pytest

from nwflow.errors import ConfigError, NumericalError
from nwflow.tasks import (
    FeatureTable,
    FourierDensity,
    Gmm,
    Moons,
    Rings,
    Shell,
    Spirals,
    anisotropic_gaussian_features,
    load_feature_table,
    make_support_and_eval,
    parse_task,
    sample_task,
    save_feature_table,
    split_table,
    whiten,
    write_csv,
)


def test_gmm_single_component_moments():
    spec = Gmm(d=3, k_components=1, separation_scale=0.0, std_lo=0.3, std_hi=0.3)
    rows = sample_task(spec, 10_000, 0)
    cov = np.cov(rows, rowvar=False)
    assert np.allclose(np.diag(cov), 0.09, rtol=0.10)
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 0.01


def test_gmm_determinism_and_task_seed():
    spec = Gmm(d=2, seed=4)
    a = sample_task(spec, 100, 7)
    b = sample_task(spec, 100, 7)
    assert np.array_equal(a, b)
    c = sample_task(spec, 100, 8)
    assert not np.array_equal(a, c)
    other_task = sample_task(Gmm(d=2, seed=5), 100, 7)
    assert not np.array_equal(a, other_task)


def test_shell_degenerate_is_unit_sphere():
    rows = sample_task(Shell(d=5, radius_mean=1.0, radius_std=0.0), 300, 1)
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-9)


def test_shell_truncation_guarantee():
    spec = Shell(d=3, radius_mean=1.0, radius_std=0.4)
    rows = sample_task(spec, 5000, 2)
    norms = np.linalg.norm(rows, axis=1)
    assert np.all(norms > 0)
    assert np.all(norms >= 1.0 - 6 * 0.4 - 1e-12)
    assert np.all(norms <= 1.0 + 6 * 0.4 + 1e-12)


def test_2d_families_shapes_and_noise():
    for spec in (Moons(), Rings(), Spirals()):
        rows = sample_task(spec, 500, 3)
        assert rows.shape == (500, 2)
    quiet = sample_task(Rings(noise=0.0), 2000, 4)
    radii = np.linalg.norm(quiet, axis=1)
    ring_radii = 2.0 * (np.arange(3) + 1) / 3
    dist_to_ring = np.min(np.abs(radii[:, None] - ring_radii[None, :]), axis=1)
    assert np.max(dist_to_ring) < 1e-9


def test_fourier_within_box_and_deterministic():
    spec = FourierDensity(d=8, seed=0)
    rows = sample_task(spec, 400, 5)
    assert rows.shape == (400, 8)
    assert np.all(np.abs(rows) <= 3.0)
    assert np.array_equal(rows, sample_task(spec, 400, 5))


def test_fourier_acceptance_matches_prediction():
    # envelope guard: the scan mesh predicts the rejection sampler's acceptance rate
    from nwflow.tasks import _fourier_law, _fourier_logdens, _fourier_scan_mesh, _rng, _sample_fourier

    for d, seed in ((1, 0), (2, 1), (8, 2)):
        spec = FourierDensity(d=d, seed=seed)
        waves, a, b, bound = _fourier_law(spec)
        logdens = _fourier_logdens(_fourier_scan_mesh(spec), waves, a, b)
        predicted = float(np.mean(np.exp(logdens - bound)))
        _, proposed, accepted = _sample_fourier(spec, 4000, _rng(spec, 9))
        ratio = accepted / proposed / predicted
        assert 0.5 <= ratio <= 2.0, (d, predicted, accepted / proposed)


def _one_shot_fourier(spec, n, rng):
    """The rejection loop drawing each batch's proposals, then its accept coins, in one call each."""
    from nwflow.tasks import _fourier_law, _fourier_logdens

    waves, a, b, bound = _fourier_law(spec)
    out, filled, proposed = np.empty((n, spec.d)), 0, 0
    while filled < n:
        batch = max(1024, 2 * (n - filled))
        u = rng.uniform(-3.0, 3.0, (batch, spec.d))
        accept = rng.uniform(0.0, 1.0, batch) < np.exp(_fourier_logdens(u, waves, a, b) - bound)
        proposed += batch
        got = u[accept][: n - filled]
        out[filled : filled + len(got)] = got
        filled += len(got)
    return out, proposed, filled


@pytest.mark.parametrize("d", [1, 8])
def test_streamed_fourier_sampler_matches_one_shot_batches(d):
    from nwflow.tasks import _rng, _sample_fourier

    for seed in (0, 5):
        spec = FourierDensity(d=d, seed=seed)
        for n in (10, 4000, 50_000):  # one batch of 1024; batches over several 8192-row chunks
            got, proposed, accepted = _sample_fourier(spec, n, _rng(spec, 11))
            want = _one_shot_fourier(spec, n, _rng(spec, 11))
            assert got.tobytes() == want[0].tobytes() and (proposed, accepted) == want[1:], (seed, n)


def test_fourier_sampler_stalls_with_numerical_error(monkeypatch):
    from nwflow import tasks

    spec = FourierDensity(d=2, seed=0)
    waves, a, b, bound = tasks._fourier_law(spec)
    # An envelope e^40 above the density: acceptance near 4e-18, far below the stall floor.
    monkeypatch.setattr(tasks, "_fourier_law", lambda s: (waves, a, b, bound + 40.0))
    with pytest.raises(NumericalError, match="rejection acceptance 0.00e\\+00 below 1e-04"):
        sample_task(spec, 10, 0)


def test_fourier_law_is_computed_once_per_spec_and_read_only():
    from nwflow.tasks import _fourier_law

    law = _fourier_law(FourierDensity(d=3, seed=4))
    assert _fourier_law(FourierDensity(d=3, seed=4)) is law
    for arr in law[:3]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_fourier_nonuniform():
    # the sampled density should deviate measurably from uniform on the box
    spec = FourierDensity(d=1, seed=3)
    rows = sample_task(spec, 20_000, 0)[:, 0]
    hist, _ = np.histogram(rows, bins=20, range=(-3, 3))
    assert hist.max() > 1.5 * hist.min()


def test_make_support_and_eval_streams():
    spec = Gmm(d=2, seed=0)
    sup, ev = make_support_and_eval(spec, 50, 100, 1)
    assert sup.m == 50 and ev.shape == (100, 2)
    sup2, _ = make_support_and_eval(spec, 50, 100, 2)
    assert not np.array_equal(sup.points, sup2.points)
    # support and eval draws must differ (disjoint substreams)
    assert not np.array_equal(sup.points[:50], ev[:50])
    sup1row, _ = make_support_and_eval(spec, 1, 0, 3)
    assert sup1row.m == 1


def test_family_stream_tags_cover_taskspec_and_are_distinct():
    # a repeated tag would make two families share their instance and draw streams silently
    from typing import get_args

    from nwflow.tasks import _FAMILIES, _TABLE_TAG, TaskSpec

    assert set(_FAMILIES) == set(get_args(TaskSpec))
    tags = [tag for tag, _, _ in _FAMILIES.values()]
    assert len(set(tags)) == len(tags)
    assert _TABLE_TAG not in tags
    names = [name for _, name, _ in _FAMILIES.values()]
    assert len(set(names)) == len(names)
    # every row's name parses back to its family
    for cls, (_, name, _) in _FAMILIES.items():
        planar = "d" not in cls.__dataclass_fields__
        spec = parse_task(name if planar else f"{name}3d", seed=5)
        assert type(spec) is cls and spec.seed == 5 and spec.d == (2 if planar else 3)
    with pytest.raises(TypeError, match="unknown task spec"):
        sample_task(object(), 3, 0)


def test_external_split_is_disjoint():
    rows = np.arange(40, dtype=float).reshape(20, 2)
    table = FeatureTable(rows=rows)
    sup, ev = split_table(table, 8, 12, 0)
    pool = np.vstack([sup.points, ev])
    assert pool.shape == (20, 2)
    assert len({tuple(r) for r in pool}) == 20  # no row reused
    # the permutation stream is SeedSequence([7, 0, seed]), so table splits keep their bytes
    perm = np.random.default_rng(np.random.SeedSequence([7, 0, 0])).permutation(20)
    assert np.array_equal(pool, rows[perm])
    with pytest.raises(ValueError):
        split_table(table, 15, 10, 0)
    with pytest.raises(ValueError):
        split_table(table, 0, 10, 0)


def test_split_table_rejects_negative_n_eval():
    # m + n_eval <= n alone let 30 + (-10) through as a 20-row support and no eval rows.
    table = anisotropic_gaussian_features(20, 3, seed=0)
    with pytest.raises(ValueError, match="need n_eval >= 0, got -10"):
        split_table(table, 30, -10, 0)
    with pytest.raises(ValueError, match="need n_eval >= 0, got -1"):
        split_table(table, 5, -1, 0)
    sup, ev = split_table(table, 20, 0, 0)
    assert sup.m == 20 and ev.shape == (0, 3)


def test_whiten_identity_at_zero():
    table = anisotropic_gaussian_features(200, 4, seed=1)
    out, record = whiten(table, 0.0)
    assert out.rows is table.rows
    assert np.array_equal(record.matrix, np.eye(4))


def test_whiten_full_makes_identity_covariance():
    table = anisotropic_gaussian_features(3000, 6, seed=2)
    out, _ = whiten(table, 1.0)
    cov = np.cov(out.rows, rowvar=False, ddof=1)
    assert np.max(np.abs(cov - np.eye(6))) <= 1e-8


def test_whiten_transform_composition():
    # applying the half-strength transform twice equals full whitening
    table = anisotropic_gaussian_features(2000, 5, seed=3)
    _, half = whiten(table, 0.5)
    full_rows, _ = whiten(table, 1.0)
    twice = half.apply(half.apply(table.rows))
    assert np.max(np.abs(twice - full_rows.rows)) <= 1e-8


def test_whiten_spectrum_interpolation():
    table = anisotropic_gaussian_features(5000, 4, seed=4)
    cov = np.cov(table.rows, rowvar=False, ddof=1)
    eig = np.sort(np.linalg.eigvalsh(cov))
    lam = 0.4
    out, _ = whiten(table, lam)
    got = np.sort(np.linalg.eigvalsh(np.cov(out.rows, rowvar=False, ddof=1)))
    assert np.allclose(got, eig ** (1 - lam), rtol=1e-6)


def test_whiten_singular_covariance():
    rows = np.ones((3, 5))
    rows[1, 0] = 2.0
    table = FeatureTable(rows=rows)
    with pytest.raises(ConfigError, match="cannot give a full-rank covariance"):
        whiten(table, 1.0, ridge=0.0)
    out, _ = whiten(table, 1.0, ridge=1e-6)
    assert np.all(np.isfinite(out.rows))
    constant_column = FeatureTable(rows=np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [5.0, 1.0]]))
    with pytest.raises(NumericalError, match="covariance is singular"):
        whiten(constant_column, 1.0)


def test_whiten_config_validation():
    table = anisotropic_gaussian_features(20, 2, seed=0)
    for strength in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="strength must lie in"):
            whiten(table, strength)
    for strength in (0.0, 0.5):
        for ridge in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="regularization must be >= 0 and finite"):
                whiten(table, strength, ridge=ridge)


def test_csv_roundtrip(tmp_path):
    path = os.path.join(tmp_path, "t.csv")
    with open(path, "w") as fh:
        fh.write("1,2\n3,4\n5,6\n")
    table = load_feature_table(path, "csv")
    assert table.rows.shape == (3, 2)
    assert table.names is None

    path2 = os.path.join(tmp_path, "named.csv")
    with open(path2, "w") as fh:
        fh.write("a,b\n1.5,2.5\n")
    named = load_feature_table(path2, "csv")
    assert named.names == ("a", "b")
    assert named.rows.shape == (1, 2)


def test_write_csv_float_array_bytes_match_per_value_format(tmp_path):
    """A float64 array's row-at-a-time path writes the bytes `_fmt` writes value by value."""
    rng = np.random.default_rng(20)
    big = np.finfo(np.float64).max
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e16, -1e16,
               1e17, 0.1, 1.0 / 3.0, big, -big, np.inf, -np.inf, np.nan]
    # Random bit patterns cover every exponent, subnormals and NaN payloads.
    fuzz = rng.integers(0, 2**64, size=2000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([special, fuzz, rng.normal(size=400) * 10.0 ** rng.integers(-20, 20, 400)])
    for d in (1, 2, 16):
        arr = values[: len(values) // d * d].reshape(-1, d)
        fast, ref = os.path.join(tmp_path, "fast.csv"), os.path.join(tmp_path, "ref.csv")
        write_csv(fast, arr, header=[f"c{j}" for j in range(d)])
        write_csv(ref, arr.tolist(), header=[f"c{j}" for j in range(d)])  # lists go through _fmt
        with open(fast, "rb") as a, open(ref, "rb") as b:
            assert a.read() == b.read()


def test_csv_errors(tmp_path):
    header_only = os.path.join(tmp_path, "h.csv")
    with open(header_only, "w") as fh:
        fh.write("a,b\n")
    with pytest.raises(ConfigError, match="header but no data rows"):
        load_feature_table(header_only, "csv")

    ragged = os.path.join(tmp_path, "r.csv")
    with open(ragged, "w") as fh:
        fh.write("1,2\n3\n")
    with pytest.raises(ConfigError, match="ragged rows"):
        load_feature_table(ragged, "csv")

    nan_file = os.path.join(tmp_path, "n.csv")
    with open(nan_file, "w") as fh:
        fh.write("1,2\nnan,4\n")
    with pytest.raises(ConfigError, match="contains non-finite values"):
        load_feature_table(nan_file, "csv")


def test_binary_roundtrip(tmp_path):
    rows = np.random.default_rng(0).normal(size=(17, 3))
    path = os.path.join(tmp_path, "t.bin")
    save_feature_table(rows, path, fmt="bin")
    table = load_feature_table(path, "bin")
    assert np.array_equal(table.rows, rows)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"NWF1"


def test_binary_errors(tmp_path):
    bad_magic = os.path.join(tmp_path, "bad.bin")
    with open(bad_magic, "wb") as fh:
        fh.write(b"XXXX" + b"\x00" * 8)
    with pytest.raises(ConfigError, match="bad magic"):
        load_feature_table(bad_magic, "bin")

    truncated = os.path.join(tmp_path, "short.bin")
    with open(truncated, "wb") as fh:
        fh.write(b"NWF1" + (2).to_bytes(4, "little") + (2).to_bytes(4, "little") + b"\x00" * 8)
    with pytest.raises(ConfigError, match="expected 44 bytes for 2x2, got 20"):
        load_feature_table(truncated, "bin")

    no_columns = os.path.join(tmp_path, "empty.bin")
    with open(no_columns, "wb") as fh:
        fh.write(b"NWF1" + (5).to_bytes(4, "little") + (0).to_bytes(4, "little"))
    with pytest.raises(ConfigError, match="5 rows and 0 columns"):
        load_feature_table(no_columns, "bin")


def test_feature_table_validation():
    with pytest.raises(ConfigError, match="feature table contains non-finite values"):
        FeatureTable(rows=np.array([[1.0, np.inf]]))


def test_anisotropic_features_spectrum():
    table = anisotropic_gaussian_features(4000, 8, seed=0, top_std=1.0, decay=0.5)
    eig = np.sort(np.linalg.eigvalsh(np.cov(table.rows, rowvar=False)))[::-1]
    assert eig[0] > 50 * eig[4]  # strongly anisotropic
