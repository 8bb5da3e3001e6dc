import numpy as np
import pytest

from nwflow.errors import ConfigError, NumericalError
from nwflow import kernels
from nwflow.kernels import (
    BilinearLogit,
    IsotropicGaussian,
    Mahalanobis,
    SupportSet,
    _smooth,
    kde_descaled_score,
    local_mean,
    logits,
)
from nwflow.schedule import PathSchedule
from nwflow.velocity import (
    PluginField,
    affine_postmap,
    attention_realized_velocity,
    dot_product_lift,
    multihead_forward,
    velocity_from_score,
)

# Worked d=1 example, frozen from a 40-digit evaluation: S = {0, 2},
# sigma_min = 0.01, t = 0.5 (sigma = 0.505, h = 1.01), x = 0.25.
U_WORKED = 0.5904279007335071
M_WORKED = 0.5456660898704211

S12 = SupportSet(np.array([[0.0], [2.0]]))
SCHED = PathSchedule(0.01)


def test_single_point_pull():
    s = SupportSet(np.array([[2.0, -1.0]]))
    fld = PluginField(s, SCHED)
    x = np.array([0.5, 0.5])
    for t in (0.2, 0.7, 1.0):
        sig = SCHED.sigma(t)
        x_tilde = x / t
        expect = x_tilde + (s.points[0] - x_tilde) / sig
        assert np.allclose(fld(x, t), expect, atol=1e-10)


def test_worked_example():
    fld = PluginField(S12, SCHED)
    assert fld(np.array([0.25]), 0.5)[0] == pytest.approx(U_WORKED, abs=1e-12)


def test_t_zero_closed_form():
    rng = np.random.default_rng(0)
    s = SupportSet(rng.normal(size=(9, 3)))
    fld = PluginField(s, SCHED)
    x = rng.normal(size=3)
    expect = s.points.mean(axis=0) - 0.99 * x
    assert np.allclose(fld(x, 0.0), expect, atol=1e-12)
    # continuity: the t -> 0 limit matches evaluation at tiny t
    near = fld(x, 1e-6)
    assert np.linalg.norm(near - expect) <= 1e-4 * max(1.0, np.linalg.norm(expect))


def test_batched_evaluation_matches_rows():
    rng = np.random.default_rng(1)
    s = SupportSet(rng.normal(size=(20, 4)))
    fld = PluginField(s, SCHED)
    xs = rng.normal(size=(6, 4))
    batch = fld(xs, 0.37)
    for i in range(6):
        assert np.allclose(batch[i], fld(xs[i], 0.37), atol=1e-13)


def test_non_finite_state_rejected():
    fld = PluginField(S12, SCHED)
    with pytest.raises(NumericalError, match="non-finite state"):
        fld(np.array([np.nan]), 0.5)


def test_velocity_from_score_routes():
    rng = np.random.default_rng(2)
    s = SupportSet(rng.normal(size=(14, 2)))
    fld = PluginField(s, SCHED)
    for t in (1e-3, 0.3, 0.9, 1.0):
        h = SCHED.bandwidth(t)

        def score(x, t=t, h=h):
            return kde_descaled_score(x / t, s, h) / t

        x = 0.6 * rng.normal(size=2)
        via_score = velocity_from_score(x, t, score, SCHED)
        assert np.linalg.norm(via_score - fld(x, t)) <= 1e-10


def test_velocity_from_score_identity_cases():
    x = np.array([1.5, -2.0])
    assert np.allclose(velocity_from_score(x, 1.0, lambda q: np.zeros(2), SCHED), x)
    with pytest.raises(NumericalError, match="score route divides by t"):
        velocity_from_score(x, 0.0, lambda q: q, SCHED)


def test_velocity_from_score_fd_oracle():
    from nwflow.kernels import kde_descaled_log_density

    rng = np.random.default_rng(3)
    s = SupportSet(rng.normal(size=(10, 2)))
    fld = PluginField(s, SCHED)
    t = 0.6
    sig = SCHED.sigma(t)

    def log_p_t(x):
        # mixture over means t*s_i with scale sigma_t, by de-scaling identity
        return kde_descaled_log_density(x / t, s, SCHED.bandwidth(t)) - 2 * np.log(t)

    def fd_score(x):
        step = 1e-6
        out = np.empty(2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = step
            out[j] = (log_p_t(x + e) - log_p_t(x - e)) / (2 * step)
        return out

    x = t * s.points[4] + sig * rng.standard_normal(2)
    got = velocity_from_score(x, t, fd_score, SCHED)
    want = fld(x, t)
    assert np.linalg.norm(got - want) <= 1e-4 * max(1.0, np.linalg.norm(want))


def test_affine_postmap():
    z = np.array([1.0, 2.0])
    assert np.allclose(affine_postmap(z, z, 0.37), z)
    x = np.array([3.0, -1.0])
    assert np.allclose(affine_postmap(x, z, 1.0), z)
    got = affine_postmap(np.array([0.5]), np.array([0.2384]), 0.505)
    assert got[0] == pytest.approx(-0.01801980198019802, abs=1e-15)


def test_attention_realization_matches_plugin():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(300):
        d = int(rng.choice([1, 2, 4, 8, 16]))
        m = int(rng.integers(1, 65))
        t = float(rng.uniform(1e-3, 1.0))
        s = SupportSet(rng.normal(0, 2, size=(m, d)))
        x = t * s.points[int(rng.integers(m))] + SCHED.sigma(t) * rng.standard_normal(d)
        fld = PluginField(s, SCHED)
        dev = np.max(np.abs(attention_realized_velocity(s, SCHED, x, t) - fld(x, t)))
        worst = max(worst, float(dev))
    assert worst <= 1e-10


def test_plugin_matches_attention_on_offset_support():
    # The smoother forms its logits as a GEMM about the support mean; without
    # the centring, an offset of 1e3 costs about 1e-10 of relative accuracy.
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(100):
        d = int(rng.choice([1, 2, 8, 16]))
        m = int(rng.integers(2, 200))
        t = float(rng.uniform(1e-3, 1.0))
        s = SupportSet(1e3 + rng.normal(0, 2, size=(m, d)))
        x = t * s.points[int(rng.integers(m))] + SCHED.sigma(t) * rng.standard_normal(d)
        want = attention_realized_velocity(s, SCHED, x, t)
        got = PluginField(s, SCHED)(x, t)
        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    assert worst <= 1e-12


@pytest.mark.parametrize("d", [2, 16])
@pytest.mark.parametrize("m", [50, 2000])
def test_exp_floor_keeps_the_bits_where_it_fires(monkeypatch, m, d):
    # Late-time states near collapse: most shifted logits lie below the floor.
    rng = np.random.default_rng(m + d)
    support = SupportSet(2.0 * rng.normal(size=(m, d)))
    a = rng.normal(size=(d, d))
    metric = a @ a.T / d + 0.5 * np.eye(d)
    iso, aniso = PluginField(support, SCHED), PluginField(support, SCHED, metric)
    for t in (0.99, 1.0):
        sig, h = SCHED.sigma(t), SCHED.bandwidth(t)
        x = t * support.points[rng.integers(m, size=32)] + sig * rng.standard_normal((32, d))
        for kern in (IsotropicGaussian(h), Mahalanobis(h, metric)):
            lg = np.stack([logits(row / t, support, kern) for row in x])
            assert np.mean(lg - lg.max(axis=1, keepdims=True) < kernels._EXP_FLOOR) >= 0.5
        got = (*_smooth(x, support, t, sig, neff=True), iso(x, t), aniso(x, t))
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_EXP_FLOOR", -np.inf)  # no clamp
            want = (*_smooth(x, support, t, sig, neff=True), iso(x, t), aniso(x, t))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        attn = np.stack([attention_realized_velocity(support, SCHED, row, t) for row in x])
        assert np.max(np.abs(attn - got[2])) <= 1e-10


# Column-major weights in one block; row-major in 256-, 128- and 32-row blocks, whose
# edges cut the 256-row chunks of the time column.
@pytest.mark.parametrize("m", [50, 1000, 2000, 8192])
def test_per_row_time_column_matches_scalar_time_per_chunk(m):
    """One call with an (n, 1) column of per-row times, as `integrate` makes for chunks at
    different times, gives each chunk the field of a scalar-t call on that chunk alone.

    The calls differ only in how the matrix products round a row in batches of
    other shapes, so the bound is relative to the local means m = sigma u + (1 - sigma_min) x,
    which u divides by sigma."""
    rng = np.random.default_rng(m)
    support = SupportSet(2.0 * rng.normal(size=(m, 2)))
    a = rng.normal(size=(2, 2))
    times, sizes = (0.0, 0.3, 0.97, 1.0), (256, 256, 256, 76)
    x = np.vstack([
        t * support.points[rng.integers(m, size=k)] + SCHED.sigma(t) * rng.standard_normal((k, 2))
        for t, k in zip(times, sizes)
    ])
    column = np.repeat(times, sizes)[:, None]
    for fld in (PluginField(support, SCHED), PluginField(support, SCHED, a @ a.T + 0.5 * np.eye(2))):
        got = np.split(fld(x, column), np.cumsum(sizes)[:-1])
        for g, rows, t in zip(got, np.split(x, np.cumsum(sizes)[:-1]), times):
            want, sig = fld(rows, t), SCHED.sigma(t)
            means = sig * want + (1.0 - SCHED.sigma_min) * rows
            assert sig * np.max(np.abs(g - want)) <= 1e-15 * np.max(np.abs(means))


def test_field_memory_is_bounded_by_the_block_budget():
    import tracemalloc

    rng = np.random.default_rng(15)
    fld = PluginField(SupportSet(rng.normal(size=(8192, 16))), SCHED)
    x = rng.normal(size=(256, 16))
    fld(x, 0.5)  # builds the support's cached keys and values (1.1 MB each) outside the trace
    tracemalloc.start()
    try:
        fld(x, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One 32 x 8192 weight block (2 MiB) and a few (256, 16) arrays; a 256 x 8192 x 16
    # broadcast alone is 256 MiB.
    assert peak < 4 * 2**20


def test_attention_worked_example_and_m1():
    got = attention_realized_velocity(S12, SCHED, np.array([0.25]), 0.5)
    assert got[0] == pytest.approx(U_WORKED, abs=1e-12)
    s1 = SupportSet(np.array([[3.0]]))
    t = 0.8
    x = np.array([1.0])
    expect = affine_postmap(x / t, s1.points[0], SCHED.sigma(t))
    assert np.allclose(attention_realized_velocity(s1, SCHED, x, t), expect)
    with pytest.raises(NumericalError, match="attention realization needs x/t"):
        attention_realized_velocity(S12, SCHED, np.array([1.0]), 0.0)


def test_dot_product_lift():
    q, k, lg = dot_product_lift(np.array([0.0]), np.array([2.0]), 1.0)
    assert lg == pytest.approx(-2.0, abs=1e-14)
    assert q.shape == (3,) and k.shape == (3,)
    same = dot_product_lift(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 0.5)[2]
    assert same == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = int(rng.integers(1, 8))
        x, s = rng.normal(size=d), rng.normal(size=d)
        h = float(np.exp(rng.uniform(-1, 1)))
        _, _, got = dot_product_lift(x, s, h)
        want = -np.sum((x - s) ** 2) / (2 * h * h)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want) * 10)


def random_heads(d_model: int, n_heads: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Stacks w_q, w_k, w_v (H, d_k, d_model) and w_o (H, d_model, d_k), drawn in that order."""
    d_k, scale = d_model // n_heads, 1.0 / np.sqrt(d_model)
    shapes = [(n_heads, d_k, d_model)] * 3 + [(n_heads, d_model, d_k)]
    return [rng.standard_normal(shape) * scale for shape in shapes]


def test_multihead_equals_nw_ensemble():
    rng = np.random.default_rng(6)
    for _ in range(30):
        w_q, w_k, w_v, w_o = random_heads(8, 4, rng)
        q = rng.normal(size=8)
        keys = rng.normal(size=(5, 8))
        direct = multihead_forward(w_q, w_k, w_v, w_o, q, keys)
        total = np.zeros(8)
        support = SupportSet(keys)
        for h in range(4):
            a = w_q[h].T @ w_k[h]
            vals = keys @ w_v[h].T
            readout = local_mean(q, support, BilinearLogit(a, np.sqrt(w_q.shape[1])), values=vals)
            total += w_o[h] @ readout
        assert np.max(np.abs(direct - total)) <= 1e-12


def test_multihead_degenerate_cases():
    eye = np.eye(3)[None]
    z = np.array([[0.3, -0.7, 1.1]])
    assert np.allclose(multihead_forward(eye, eye, eye, eye, np.ones(3), z), z[0])
    keys = np.random.default_rng(1).normal(size=(4, 3))
    assert np.allclose(multihead_forward(eye, eye, 0 * eye, eye, np.ones(3), keys), 0.0)
    with pytest.raises(ConfigError, match="query shape"):
        multihead_forward(eye, eye, eye, eye, np.ones(2), z)
    with pytest.raises(ConfigError, match="keys shape"):
        multihead_forward(eye, eye, eye, eye, np.ones(3), np.zeros((0, 3)))
    with pytest.raises(ConfigError, match="keys shape"):
        multihead_forward(eye, eye, eye, eye, np.ones(3), z[None])
    with pytest.raises(ConfigError, match="stacked as"):
        multihead_forward(eye[0], eye[0], eye[0], eye[0], np.ones(3), z)
    with pytest.raises(ConfigError, match="must match w_q"):
        multihead_forward(eye, eye[:, :2], eye, eye, np.ones(3), z)
    with pytest.raises(ConfigError, match="w_o must be stacked"):
        multihead_forward(eye, eye, eye, eye[:, :2], np.ones(3), z)
    flat = np.zeros((1, 0, 3))  # d_k = 0: no logit scale 1 / sqrt(d_k)
    with pytest.raises(ConfigError, match="need d_k >= 1, got 0"):
        multihead_forward(flat, flat, flat, flat.transpose(0, 2, 1), np.ones(3), z)


def test_anisotropic_identity_reduces_to_plugin():
    rng = np.random.default_rng(8)
    s = SupportSet(rng.normal(size=(12, 3)))
    iso = PluginField(s, SCHED)
    ani = PluginField(s, SCHED, np.eye(3))
    x = rng.normal(size=3)
    for t in (0.0, 0.4, 1.0):
        assert np.max(np.abs(ani(x, t) - iso(x, t))) <= 1e-12


def test_anisotropic_diag_metric_oracle():
    metric = np.diag([4.0, 1.0])
    s = SupportSet(np.array([[1.0, 0.0], [-1.0, 0.0], [3.0, 0.0]]))
    fld = PluginField(s, SCHED, metric)
    t = 0.5
    sig = SCHED.sigma(t)
    x = np.array([0.4, 0.3])
    diff = x - t * s.points
    quad = 4.0 * diff[:, 0] ** 2 + 1.0 * diff[:, 1] ** 2
    lg = -quad / (2 * sig * sig)
    w = np.exp(lg - lg.max())
    w /= w.sum()
    expect = (w @ s.points - 0.99 * x) / sig
    assert np.allclose(fld(x, t), expect, atol=1e-12)


def test_anisotropic_diag_metric_oracle_offset_support():
    rng = np.random.default_rng(16)
    metric = np.diag([4.0, 1.0, 0.25])
    s = SupportSet(1e3 + rng.normal(size=(40, 3)))
    fld = PluginField(s, SCHED, metric)
    for t in (0.0, 0.05, 0.5, 1.0):
        sig = SCHED.sigma(t)
        x = t * s.points[3] + sig * rng.standard_normal(3)
        diff = x - t * s.points
        quad = diff**2 @ np.diag(metric)
        lg = -quad / (2 * sig * sig)
        w = np.exp(lg - lg.max())
        w /= w.sum()
        expect = (w @ s.points - 0.99 * x) / sig
        assert np.max(np.abs(fld(x, t) - expect)) / np.max(np.abs(expect)) <= 1e-12


def test_anisotropic_single_point_any_metric():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, 3))
    metric = a @ a.T + 0.5 * np.eye(3)
    s = SupportSet(rng.normal(size=(1, 3)))
    ani = PluginField(s, SCHED, metric)
    iso = PluginField(s, SCHED)
    x = rng.normal(size=3)
    for t in (0.1, 0.9):
        assert np.allclose(ani(x, t), iso(x, t), atol=1e-12)


def test_plugin_field_metric_checks_match_mahalanobis():
    from nwflow.kernels import Mahalanobis

    s = SupportSet(np.array([[0.0, 0.0], [1.0, 2.0]]))
    # Cholesky reads only the lower triangle, so this one would act as diag(2, 1)
    for metric, message in (
        ([[2.0, 5.0], [0.0, 1.0]], "metric must be symmetric"),
        ([[1.0, 2.0], [2.0, 1.0]], "metric must be positive-definite"),
        ([[1.0, 0.0, 0.0]], "metric must be square"),
    ):
        with pytest.raises(ConfigError, match=message):
            PluginField(s, SCHED, np.array(metric))
        with pytest.raises(ConfigError, match=message):
            Mahalanobis(1.0, np.array(metric))
    with pytest.raises(ConfigError, match="does not match dimension 2"):
        PluginField(s, SCHED, np.eye(3))


def test_rotation_equivariance():
    rng = np.random.default_rng(10)
    d = 4
    s = rng.normal(size=(15, d))
    u, _ = np.linalg.qr(rng.normal(size=(d, d)))
    fld = PluginField(SupportSet(s), SCHED)
    fld_rot = PluginField(SupportSet(s @ u.T), SCHED)
    x = rng.normal(size=d)
    for t in (1e-3, 0.3, 1.0):
        lhs = fld_rot(u @ x, t)
        rhs = u @ fld(x, t)
        assert np.linalg.norm(lhs - rhs, ord=np.inf) <= 1e-10


def test_late_time_single_point_closed_form():
    # at t = 1 the field is x + (s - x) / sigma_min for a single support point
    s = SupportSet(np.array([[2.5]]))
    fld = PluginField(s, SCHED)
    x = np.array([1.0])
    assert fld(x, 1.0)[0] == pytest.approx(x[0] + (2.5 - x[0]) / SCHED.sigma_min, rel=1e-12)



def test_array_records_compare_and_hash_by_identity():
    from nwflow.kernels import Mahalanobis, WeightVector
    from nwflow.metrics import neff_profile
    from nwflow.tasks import FeatureTable, whiten

    metric = np.eye(1) * 2.0
    table = FeatureTable(np.random.default_rng(0).normal(size=(5, 2)))
    makers = [
        lambda: SupportSet(S12.points),
        lambda: PluginField(S12, SCHED),
        lambda: PluginField(S12, SCHED, metric),
        lambda: neff_profile(S12, SCHED, t_grid=(0.5,), n_queries=4),
        lambda: FeatureTable(table.rows),
        lambda: whiten(table, 0.5)[1],
        lambda: Mahalanobis(1.0, metric),
        lambda: BilinearLogit(metric, 1.0),
        lambda: WeightVector(np.array([0.5, 0.5]), 2.0),
    ]
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b, a}) == 2
