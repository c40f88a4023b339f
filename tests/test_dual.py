import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from optdec import (DivergenceError, DualOracle, FirstOrderOracle, NoiseSpec,
                    RegularizedDual, RngStreams, ac_sa, ac_sa2, duality_gap,
                    primal_recovery, random_quadratic, restarted_rrma,
                    rrma_ac_sa2, spdstm, sstm_sc)
from optdec.dual import (DIVERGENCE_FACTOR, _guard, _norm, default_rrma_lambda,
                         restart_config)
from optdec.oracles import CallCounter
from optdec.problems import min_norm_dual_solution
from optdec.schedules import next_alpha_spdstm, stm_step
from optdec.trace import RunTrace


def shifted_instance(c=(1.0, 3.0), noise=None):
    """f(x) = 0.5||x - c||^2 (constant included) under A = [[1, -1]].

    Closed forms: x(u) = u + c, psi(y) = y^2 - 2y, y* = 1, x* = (2, 2),
    f* = 1, R_y = 1.
    """
    c = np.asarray(c, dtype=float)

    oracle = FirstOrderOracle(
        2, lambda x: 0.5 * float(np.sum((x - c) ** 2)),
        lambda x: x - c, L=1.0, mu=1.0)
    A = np.array([[1.0, -1.0]])
    dual = DualOracle(oracle, A, lambda u: u + c, noise=noise)
    return oracle, dual


# ---------------------------------------------------------------------------
# primal-dual scheme


def test_spdstm_noiseless_converges_to_closed_form():
    oracle, dual = shifted_instance()
    eps = 1e-2
    # size N so the step-sum certificate 1.5 R_y^2 / A_N reaches eps
    A, N = 0.0, 0
    while 1.5 / max(A, 1e-300) > eps:
        N += 1
        _, A = next_alpha_spdstm(A, 2.0 * dual.L_psi)
    y, x, trace = spdstm(dual, N, eps, 0.1, metric_every=N)
    assert abs(y[0] - 1.0) <= 1e-2
    assert np.allclose(x, [2.0, 2.0], atol=1e-2)
    assert trace.final["dual_gap"] <= eps
    assert trace.final["constraint_norm"] <= 2.0 * eps


def test_spdstm_fixed_point_at_zero():
    oracle, dual = shifted_instance(c=(0.0, 0.0))
    y, x, _ = spdstm(dual, 30, 1e-3, 0.1, metric_every=0)
    assert np.allclose(y, 0.0)
    assert np.allclose(x, 0.0)


def test_spdstm_recovery_weights_sum_to_one():
    # a constant inner maximiser must be reproduced exactly by the average
    oracle, dual = shifted_instance()
    v = np.array([0.7, -0.3])
    dual.argmax_solver = lambda u: v
    _, x, _ = spdstm(dual, 25, 1e-3, 0.1, metric_every=0)
    assert np.allclose(x, v, rtol=0, atol=1e-15)


def test_spdstm_stochastic_majority_within_eps():
    eps = 5e-3
    hits = 0
    for seed in range(10):
        oracle, dual = shifted_instance(noise=NoiseSpec(0.0, 0.1, "gaussian"))
        A, N = 0.0, 0
        while 1.5 / max(A, 1e-300) > eps:
            N += 1
            _, A = next_alpha_spdstm(A, 2.0 * dual.L_psi)
        y, x, trace = spdstm(dual, N, eps, 0.05, seed=seed, metric_every=N)
        hits += trace.final["dual_gap"] <= eps
    assert hits >= 8


def test_spdstm_divergence_guard():
    # an inner maximiser violating the declared smoothness makes the mirror
    # point explode; the guard must turn that into a diagnostic
    oracle, dual = shifted_instance()
    dual.argmax_solver = lambda u: 1e8 * u + np.array([10.0, 0.0])
    with pytest.raises(DivergenceError):
        spdstm(dual, 200, 1e-3, 0.1, metric_every=0)


def test_sstm_sc_nan_iterate_trips_the_divergence_guard():
    # a NaN gradient turns the mirror point NaN, whose norm the guard must not let pass
    oracle, dual = shifted_instance()
    dual.argmax_solver = lambda u: np.full(2, np.nan)
    with pytest.raises(DivergenceError, match="^sstm_sc: iterate norm exceeded divergence guard$"
                       ) as caught:
        sstm_sc(dual, np.zeros(1), 50, metric_every=0)
    assert caught.value.trace.flags == ["sstm_sc: divergence guard tripped"]
    assert caught.value.trace.final["iter"] == 0


@settings(max_examples=300, derandomize=True, deadline=None)
@given(v=arrays(np.float64, st.integers(1, 2000),
                elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_guard_and_metric_norm_is_bitwise_np_linalg_norm(v):
    # the divergence guard and the metrics take ||v|| as sqrt(v.dot(v)), as numpy
    # does: the same bits, and the same warning when the dot product overflows
    results = []
    for norm in (_norm, np.linalg.norm):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results.append((np.array(norm(v)).tobytes(), [str(w.message) for w in caught]))
    assert results[0] == results[1]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(R_y=st.floats(0.0, 1e12), centre=st.sampled_from(["factor", "bound", "inf", "nan"]),
       ulps=st.integers(-3, 3))
def test_guard_decides_on_R_y_and_reads_it_only_above_the_factor(R_y, centre, ulps):
    # the guard trips exactly when not ||z|| <= DIVERGENCE_FACTOR (1 + R_y), and calls for R_y
    # only on a norm above DIVERGENCE_FACTOR, below which 1 + R_y >= 1 passes it anyway
    norm = {"factor": DIVERGENCE_FACTOR, "bound": DIVERGENCE_FACTOR * (1.0 + R_y),
            "inf": math.inf, "nan": math.nan}[centre]
    for _ in range(abs(ulps)):
        norm = float(np.nextafter(norm, math.copysign(math.inf, ulps)))
    z, reads = np.array([norm]), []

    def read_R_y():
        reads.append(R_y)
        return R_y

    trace = RunTrace(CallCounter())
    with np.errstate(over="ignore"):  # ||z||^2 of a norm near the largest double is inf
        if not _norm(z) <= DIVERGENCE_FACTOR * (1.0 + R_y):
            with pytest.raises(DivergenceError, match="^spdstm: iterate norm exceeded"):
                _guard(z, read_R_y, trace, "spdstm")
            assert trace.flags == ["spdstm: divergence guard tripped"]
        else:
            _guard(z, read_R_y, trace, "spdstm")
            assert trace.flags == []
        assert len(reads) == (not _norm(z) <= DIVERGENCE_FACTOR)


# ---------------------------------------------------------------------------
# strongly convex dual scheme


def _record_gradients(dual):
    """The ``(y~, g)`` of every later ``dual.batch_grad_and_x`` call, recorded by a wrapper."""
    calls, batch_grad_and_x = [], dual.batch_grad_and_x

    def record(y, r, streams):
        g, x = batch_grad_and_x(y, r, streams)
        calls.append((np.array(y, dtype=float), g.copy()))
        return g, x

    dual.batch_grad_and_x = record
    return calls


def _sstm_sc_history(dual, calls):
    """``(alpha_l, y~^l, g^l)`` of an sstm_sc run: ``alpha_0 = 1/L``, then the
    ``stm_step(L, mu)`` chain from ``A_0 = 1/L``, beside the recorded gradients."""
    step, A = stm_step(dual.L_psi, dual.mu_psi), 1.0 / dual.L_psi
    alphas = [A]
    while len(alphas) < len(calls):
        alpha, A = step(A)
        alphas.append(alpha)
    return [(alpha, yt, g) for alpha, (yt, g) in zip(alphas, calls)]


def test_sstm_sc_mirror_point_matches_numeric_argmin():
    rng = np.random.default_rng(31)
    qp = random_quadratic(2, 6.0, rng)
    A = rng.standard_normal((2, 2))
    dual = DualOracle(qp.oracle(), A, qp.conjugate_argmax)
    y0 = rng.standard_normal(2)
    calls = _record_gradients(dual)
    sstm_sc(dual, y0, 1, metric_every=0)
    (a0, yt0, g0), (a1, yt1, g1) = _sstm_sc_history(dual, calls)

    mu = dual.mu_psi

    def g_tilde_1(z):
        val = 0.5 * np.sum((z - y0) ** 2)
        for a, yt, g in ((a0, yt0, g0), (a1, yt1, g1)):
            val += a * (g @ (z - yt) + 0.5 * mu * np.sum((z - yt) ** 2))
        return val

    # independent numeric argmin: plain gradient descent on g~_1
    z = y0.copy()
    L_g = 1.0 + (a0 + a1) * mu
    for _ in range(200_000):
        grad = (z - y0) + a0 * (g0 + mu * (z - yt0)) + a1 * (g1 + mu * (z - yt1))
        if np.linalg.norm(grad) <= 1e-12:
            break
        z = z - grad / L_g

    # replay the closed-form mirror point from the recorded history
    A1 = a0 + a1
    z_closed = (y0 + mu * (a0 * yt0 + a1 * yt1) - (a0 * g0 + a1 * g1)) / (1.0 + A1 * mu)
    assert np.linalg.norm(z_closed - z) <= 1e-8


def test_sstm_sc_running_sums_match_resummation():
    rng = np.random.default_rng(32)
    qp = random_quadratic(3, 4.0, rng)
    A = rng.standard_normal((3, 3))
    dual = DualOracle(qp.oracle(), A, qp.conjugate_argmax,
                            noise=NoiseSpec(0.0, 0.2, "gaussian"))
    y0 = rng.standard_normal(3)
    N = 20
    calls = _record_gradients(dual)
    y, trace = sstm_sc(dual, y0, N, metric_every=0, seed=4)
    hist = _sstm_sc_history(dual, calls)
    mu = dual.mu_psi
    A_total = sum(a for a, _, _ in hist)
    z_resum = (y0 + mu * sum(a * yt for a, yt, _ in hist)
               - sum(a * g for a, _, g in hist)) / (1.0 + A_total * mu)
    # y_N = (A_{N-1} y_{N-1} + alpha_N z_N) / A_N, with z_N from the
    # resummation and y_{N-1} from the same streams stopped one step early
    A_prev = A_total - hist[-1][0]
    y_prev, _ = sstm_sc(dual, y0, N - 1, metric_every=0, seed=4)
    y_from_resum = (A_prev * y_prev + hist[-1][0] * z_resum) / A_total
    assert np.linalg.norm(y - y_from_resum) <= 1e-10 * np.linalg.norm(y)
    calls.clear()
    sstm_sc(dual, y0, N, metric_every=0, seed=4)
    hist2 = _sstm_sc_history(dual, calls)
    assert np.allclose(hist2[-1][1], hist[-1][1])
    y2, tr2 = sstm_sc(dual, y0, N, metric_every=0, seed=4)
    assert np.allclose(y, y2)
    assert np.isfinite(z_resum).all()


def test_sstm_sc_noiseless_decay_certificate():
    oracle, dual = shifted_instance()
    y_star = np.array([1.0])
    y0 = np.zeros(1)
    R0 = 1.0
    y, trace = sstm_sc(dual, y0, 40, y_star=y_star)
    A = trace.column("A_k")
    dist_sq = trace.column("dual_gap")
    for k in range(len(A)):
        assert dist_sq[k] <= R0 ** 2 * dual.L_psi / A[k] + 1e-15


def test_sstm_sc_stationary_at_optimum():
    oracle, dual = shifted_instance()
    y, _ = sstm_sc(dual, np.array([1.0]), 25, metric_every=0)
    assert abs(y[0] - 1.0) <= 1e-12


def test_sstm_sc_requires_smooth_primal():
    oracle = FirstOrderOracle(2, lambda x: 0.0, lambda x: np.zeros(2), L=0.0, mu=1.0)
    dual = DualOracle(oracle, np.array([[1.0, -1.0]]), lambda u: u)
    with pytest.raises(ValueError):
        sstm_sc(dual, np.zeros(1), 10)


def test_sstm_sc_kernel_subspace_invariance():
    # all iterates stay in y0 + Im(A) for rank-deficient A
    rng = np.random.default_rng(33)
    qp = random_quadratic(3, 5.0, rng)
    A = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3))  # rank 2
    dual = DualOracle(qp.oracle(), A, qp.conjugate_argmax)
    U, s, _ = np.linalg.svd(A)
    kernel = U[:, 2:]  # basis of Ker(A^T)
    y0 = rng.standard_normal(4)
    y, trace = sstm_sc(dual, y0, 100, metric_every=0)
    # final point and a mid-run rerun both stay in the affine subspace
    for point in (y,):
        assert np.linalg.norm(kernel.T @ (point - y0)) <= 1e-10


# ---------------------------------------------------------------------------
# recursive regularization family


def regularized_shifted(lam=0.5):
    oracle, dual = shifted_instance()
    return dual, RegularizedDual(dual, lam, np.zeros(1))


def test_ac_sa_first_iterate_uses_start_point():
    # alpha_1 = 1 makes the first gradient evaluation happen exactly at z0
    dual, obj = regularized_shifted()
    seen = []
    base_batch = obj.batch_grad

    def spy(y, r, streams):
        seen.append(np.array(y))
        return base_batch(y, r, streams)

    obj.batch_grad = spy
    z0 = np.array([0.37])
    ac_sa(obj, z0, 1)
    assert np.allclose(seen[0], z0)


def test_ac_sa_stationary_at_regularized_minimizer():
    # grad psi~ = 2y - 2 + lam y = 0  ->  y = 2 / (2 + lam)
    lam = 0.5
    dual, obj = regularized_shifted(lam)
    y_min = np.array([2.0 / (2.0 + lam)])
    out = ac_sa(obj, y_min, 20)
    assert np.allclose(out, y_min, atol=1e-12)


def test_ac_sa_converges_to_regularized_minimizer():
    lam = 0.5
    dual, obj = regularized_shifted(lam)
    y_min = 2.0 / (2.0 + lam)
    z0 = np.array([3.0])
    gap0 = obj.value(z0) - obj.value(np.array([y_min]))
    out = ac_sa(obj, z0, 60)
    gap = obj.value(out) - obj.value(np.array([y_min]))
    assert gap <= 1e-3 * gap0


def test_ac_sa2_chains_two_halves():
    dual, obj = regularized_shifted()
    z0 = np.array([2.0])
    y1 = ac_sa(obj, z0, 1, streams=RngStreams(0).child(0))
    y2 = ac_sa(obj, y1, 1, streams=RngStreams(0).child(1))
    out = ac_sa2(obj, z0, 2, streams=RngStreams(0))
    assert np.allclose(out, y2)


def test_ac_sa2_makes_progress_over_one_half():
    dual, obj = regularized_shifted()
    z0 = np.array([3.0])
    y1 = ac_sa(obj, z0, 8, streams=RngStreams(0).child(0))
    y2 = ac_sa2(obj, z0, 16, streams=RngStreams(0))
    assert obj.value(y2) <= obj.value(y1) + 1e-12


def test_ac_sa2_stationary_at_optimum():
    lam = 0.5
    dual, obj = regularized_shifted(lam)
    y_min = np.array([2.0 / (2.0 + lam)])
    assert np.allclose(ac_sa2(obj, y_min, 9), y_min, atol=1e-12)


def test_rrma_round_count():
    # floor(log2(L~ / lam)) rounds; L~/lam = 8 -> 3
    from optdec.dual import RegularizedDual
    oracle, dual = shifted_instance()
    lam = dual.L_psi / 7.0  # (L + lam)/lam = 8
    obj = RegularizedDual(dual, lam, np.zeros(1))
    assert math.floor(math.log2(obj.smoothness / lam)) == 3


def test_rrma_contracts_gradient_norm():
    oracle, dual = shifted_instance()
    y0 = np.array([3.0])
    g0 = np.linalg.norm(dual.A @ dual.x_exact(dual.A.T @ y0))
    lam = default_rrma_lambda(dual.L_psi, 64)
    y_hat = rrma_ac_sa2(dual, y0, 64, lam)
    g_hat = np.linalg.norm(dual.A @ dual.x_exact(dual.A.T @ y_hat))
    assert g_hat <= 0.5 * g0


def test_rrma_stays_near_optimum_start():
    oracle, dual = shifted_instance()
    y_star = np.array([1.0])
    lam = default_rrma_lambda(dual.L_psi, 32)
    y_hat = rrma_ac_sa2(dual, y_star, 32, lam)
    g_hat = np.linalg.norm(dual.A @ dual.x_exact(dual.A.T @ y_hat))
    assert g_hat <= 1e-6


def test_regularized_dual_gradient_matches_value():
    from conftest import fd_grad
    rng = np.random.default_rng(36)
    qp = random_quadratic(2, 4.0, rng)
    A = rng.standard_normal((2, 2))
    dual = DualOracle(qp.oracle(), A, qp.conjugate_argmax)
    obj = RegularizedDual(dual, 0.3, rng.standard_normal(2))
    obj.add_shift(rng.standard_normal(2))
    obj.add_shift(rng.standard_normal(2))
    y = rng.standard_normal(2)
    g = dual.A @ dual.x_exact(dual.A.T @ y) + obj.reg_grad(y)
    g_fd = fd_grad(obj.value, y)
    assert np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g)) <= 1e-5
    # modulus/smoothness bookkeeping after two shifts: lam (2^{k+1} - 1)
    assert obj.strong_convexity == pytest.approx(0.3 * 7.0)
    assert obj.smoothness == pytest.approx(dual.L_psi + 0.3 * 7.0)


@pytest.mark.parametrize("lam", [0.0, float("nan")])
def test_regularized_dual_refuses_a_lam_that_is_not_positive(lam):
    _, dual = shifted_instance()
    with pytest.raises(ValueError, match="lam must be positive"):
        RegularizedDual(dual, lam, np.zeros(1))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(shifts=st.integers(0, 20), lam=st.floats(1e-6, 1.0), dim=st.integers(1, 4),
       spread=st.floats(1e-3, 1e3), offset=st.floats(1e-12, 1e6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_regularizer_is_its_shift_by_shift_sum_within_rounding(shifts, lam, dim, spread, offset,
                                                               seed):
    # the one quadratic (s, t) against the explicit list of shifts, at a y
    # near (offset 1e-12) to far (offset 1e6) from one of the centres
    from conftest import ShiftByShiftRegularizedDual
    rng = np.random.default_rng(seed)
    qp = random_quadratic(dim, 4.0, rng)
    dual = DualOracle(qp.oracle(), np.eye(dim), qp.conjugate_argmax)
    centers = spread * rng.standard_normal((shifts + 1, dim))
    obj = RegularizedDual(dual, lam, centers[0])
    ref = ShiftByShiftRegularizedDual(dual, lam, centers[0])
    for c in centers[1:]:
        obj.add_shift(c)
        ref.add_shift(c)
    y = centers[rng.integers(shifts + 1)] + offset * rng.standard_normal(dim)
    s = obj.strong_convexity
    scale = s * (np.linalg.norm(y) + np.linalg.norm(centers, axis=1).max())
    assert abs(s - lam * (2.0 ** (shifts + 1) - 1.0)) <= 1e-15 * s
    assert np.linalg.norm(obj.reg_grad(y) - ref.reg_grad(y)) <= 1e-14 * scale
    assert abs(obj.value(y) - ref.value(y)) <= 1e-13 * (scale ** 2 / s + abs(dual.psi_value(y)))


def test_rrma_output_stays_in_subspace():
    rng = np.random.default_rng(37)
    qp = random_quadratic(3, 5.0, rng)
    A = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3))  # rank 2
    dual = DualOracle(qp.oracle(), A, qp.conjugate_argmax)
    U, _, _ = np.linalg.svd(A)
    kernel = U[:, 2:]
    y0 = rng.standard_normal(4)
    lam = default_rrma_lambda(dual.L_psi, 32)
    y_hat = rrma_ac_sa2(dual, y0, 32, lam)
    assert np.linalg.norm(kernel.T @ (y_hat - y0)) <= 1e-10


# ---------------------------------------------------------------------------
# restarted scheme


def test_restart_config_count_formula():
    oracle, dual = shifted_instance()
    assert dual.sigma_psi == 0.0
    cfg = restart_config(dual, grad0_norm=1.0, eps=0.5, beta=0.1, R_y=1.0)
    assert cfg.l == 3  # log2(2 * 1 * 1 / 0.25) = 3
    assert cfg.hat_r == 1 and cfg.bar_r == 1


def test_restarted_rrma_noiseless_contraction_and_target():
    oracle, dual = shifted_instance()
    eps, R_y = 1e-3, 1.0
    y, trace = restarted_rrma(dual, np.zeros(1), eps, 0.1, R_y=R_y)
    gn = trace.column("grad_norm")
    # per-restart recurrence ||g_k||^2 <= ||g_{k-1}||^2 / 2 + eps^2/(4 R_y^2)
    for k in range(1, len(gn)):
        assert gn[k] ** 2 <= gn[k - 1] ** 2 / 2.0 + eps ** 2 / (4.0 * R_y ** 2) + 1e-18
    assert gn[-1] <= eps / R_y


def test_restarted_rrma_stochastic_reaches_target():
    oracle, dual = shifted_instance(noise=NoiseSpec(0.0, 0.05, "gaussian"))
    eps, R_y = 0.05, 1.0
    y, trace = restarted_rrma(dual, np.zeros(1), eps, 0.1, R_y=R_y, seed=2)
    gn_exact = np.linalg.norm(dual.A @ dual.x_exact(dual.A.T @ y))
    assert gn_exact <= 2.0 * eps / R_y  # allow stochastic slack


def test_small_gradient_implies_primal_quality():
    # whenever ||grad psi(y)|| <= eps/R_y and ||y|| <= 2 R_y, the recovered
    # primal point has f-gap <= 2 eps and ||A x|| <= eps / R_y
    rng = np.random.default_rng(35)
    for _ in range(10):
        qp = random_quadratic(4, 8.0, rng)
        A = rng.standard_normal((2, 4))
        dual = DualOracle(qp.oracle(), A, qp.conjugate_argmax)
        y_star, x_c = min_norm_dual_solution(qp.Q, qp.b, A)
        R_y = max(np.linalg.norm(y_star), 1e-9)
        f_c = qp.value(x_c)
        y = y_star + 1e-4 * rng.standard_normal(2)
        if np.linalg.norm(y) > 2.0 * R_y:
            continue
        x = dual.x_exact(A.T @ y)
        grad_norm = np.linalg.norm(A @ x)
        eps = grad_norm * R_y  # premise holds with equality
        assert qp.value(x) - f_c <= 2.0 * eps + 1e-12
        assert np.linalg.norm(A @ x) <= eps / R_y + 1e-12


# ---------------------------------------------------------------------------
# recovery and gap


def test_primal_recovery_exact_when_noiseless():
    oracle, dual = shifted_instance()
    x = primal_recovery(dual, np.array([1.0]), 1, RngStreams(0).child(0))
    assert np.allclose(x, [2.0, 2.0])


def test_primal_recovery_batch_variance():
    oracle, dual = shifted_instance(noise=NoiseSpec(0.0, 1.0, "gaussian"))
    y = np.array([0.5])
    streams = RngStreams(17)
    singles = np.array([primal_recovery(dual, y, 1, streams.child(0, t))
                        for t in range(1500)])
    batched = np.array([primal_recovery(dual, y, 100, streams.child(1, t))
                        for t in range(600)])
    ratio = batched.var(axis=0).sum() / singles.var(axis=0).sum()
    assert 1.0 / 120.0 * (1 / 1.2) <= ratio <= 1.0 / 100.0 * 1.2


def test_duality_gap_closed_forms():
    oracle, dual = shifted_instance()
    y_star = np.array([1.0])
    x_star = np.array([2.0, 2.0])
    out = duality_gap(oracle, dual, x_star, y_star)
    assert abs(out["gap"]) <= 1e-10
    # feasible suboptimal x against y*: gap equals the f-gap
    x_feas = np.array([0.0, 0.0])
    out2 = duality_gap(oracle, dual, x_feas, y_star)
    assert out2["gap"] == pytest.approx(oracle.value(x_feas) - 1.0)
    # x = 0, y = 0: f = 5, psi(0) = 0
    out3 = duality_gap(oracle, dual, np.zeros(2), np.zeros(1))
    assert out3["gap"] == pytest.approx(5.0)
    assert out3["gap"] >= oracle.value(np.zeros(2)) - 1.0  # gap >= f-gap
