import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import optdec.primal
from conftest import (expression_form_inner_prox, expression_form_pull_back, fd_grad, rel_err,
                      split_form_inner_prox, table_form_inner_prox)
from optdec import (FirstOrderOracle, NoiseSpec, QuadraticProblem, StochasticGradientOracle,
                    build_penalty, random_quadratic, sstm, stm, stm_ips,
                    verify_penalty_transfer)
from optdec.primal import (_TABLE_BLOCK_CAP, CompositeProblem, _inner_prox_stm, _prox_step_table,
                           _pull_back, argmax_solver_via_stm, default_inner_delta)
from optdec.schedules import stm_step
from optdec.methods import Machine, run_method
from optdec.problems import constrained_quadratic_optimum, min_norm_dual_solution


def scalar_quadratic():
    return QuadraticProblem(np.eye(1), np.zeros(1))


# ---------------------------------------------------------------------------
# accelerated scheme


def test_stm_single_step_hand_values():
    # f(x) = x^2/2 from x0 = 1: one step of the inexact-prox normalization
    # lands at 1/2 (alpha_1 = 1/(2L), A_1 = 1/2)
    qp = scalar_quadratic()
    x, trace = stm(qp.oracle(), np.array([1.0]), 1, f_star=0.0)
    assert x[0] == pytest.approx(0.5)
    assert qp.value(x) == pytest.approx(0.125)
    assert trace.final["A_k"] == pytest.approx(0.5)


def test_stm_fixed_point_at_optimum():
    qp = QuadraticProblem(np.diag([1.0, 4.0]), np.array([1.0, 4.0]))
    x, _ = stm(qp.oracle(), qp.x_star, 25)
    assert np.allclose(x, qp.x_star, atol=1e-14)


def test_stm_strongly_convex_fixed_point():
    qp = QuadraticProblem(np.diag([1.0, 4.0]), np.array([1.0, 4.0]))
    x, _ = stm(qp.oracle(), qp.x_star, 25, mode="strongly_convex")
    assert np.allclose(x, qp.x_star, atol=1e-12)


def test_stm_certificate_on_random_quadratic():
    # f(x^k) - f* <= 3 R0^2 / (2 A_k) along the whole trajectory
    rng = np.random.default_rng(5)
    qp = random_quadratic(10, 100.0, rng)
    x0 = rng.standard_normal(10)
    R0 = np.linalg.norm(x0 - qp.x_star)
    _, trace = stm(qp.oracle(), x0, 200, f_star=qp.f_star, x_star=qp.x_star)
    A = trace.column("A_k")
    gaps = trace.column("f_gap")
    for k in range(1, 201):
        assert gaps[k] <= 1.5 * R0 ** 2 / A[k] + 1e-12


def test_stm_strongly_convex_beats_convex_mode():
    rng = np.random.default_rng(6)
    qp = random_quadratic(6, 30.0, rng)
    x0 = rng.standard_normal(6)
    x_c, _ = stm(qp.oracle(), x0, 80, mode="convex")
    x_s, _ = stm(qp.oracle(), x0, 80, mode="strongly_convex")
    assert qp.value(x_s) - qp.f_star <= qp.value(x_c) - qp.f_star + 1e-15


def test_stm_zero_iterations_returns_start():
    qp = scalar_quadratic()
    x, trace = stm(qp.oracle(), np.array([2.0]), 0)
    assert x[0] == 2.0
    assert trace.final["iter"] == 0


def test_stm_counts_gradient_calls():
    qp = scalar_quadratic()
    oracle = qp.oracle()
    stm(oracle, np.array([1.0]), 17)
    assert oracle.counter.grad_calls == 17


def test_sstm_noiseless_matches_stm():
    qp = QuadraticProblem(np.diag([1.0, 3.0]), np.array([0.5, -1.0]))
    o1, o2 = qp.oracle(), qp.oracle()
    x_det, _ = stm(o1, np.zeros(2), 30)
    stoch = StochasticGradientOracle(o2, NoiseSpec(0.0, 0.0))
    x_sto, _ = sstm(stoch, np.zeros(2), 30, eps=1e-3, beta=0.1)
    assert np.allclose(x_det, x_sto)


def test_sstm_strongly_convex_mode():
    rng = np.random.default_rng(27)
    qp = random_quadratic(4, 5.0, rng)
    oracle = qp.oracle()
    stoch = StochasticGradientOracle(oracle, NoiseSpec(0.0, 0.3, "gaussian"))
    x, _ = sstm(stoch, rng.standard_normal(4), 60, eps=1e-2, beta=0.1,
                mode="strongly_convex", seed=3)
    assert qp.value(x) - qp.f_star <= 1e-2


def test_sstm_converges_under_noise():
    rng = np.random.default_rng(7)
    qp = random_quadratic(5, 10.0, rng)
    oracle = qp.oracle()
    stoch = StochasticGradientOracle(oracle, NoiseSpec(0.0, 0.5, "gaussian"))
    x0 = rng.standard_normal(5)
    N = 80
    x, _ = sstm(stoch, x0, N, eps=1e-2, beta=0.1, seed=11)
    assert qp.value(x) - qp.f_star <= 1e-2
    assert oracle.counter.stoch_samples > N  # batches actually grew


# ---------------------------------------------------------------------------
# penalty reformulation


def test_build_penalty_constants():
    qp = QuadraticProblem(np.eye(2), np.array([1.0, 3.0]))
    pen = build_penalty(qp.oracle(), np.array([[1.0, -1.0]]), R_y=1.0, eps=0.1)
    assert pen.coeff == pytest.approx(10.0)
    assert pen.L_h == pytest.approx(40.0)  # 2 * 10 * lambda_max(A^T A) = 2*10*2


def test_penalty_vanishes_on_feasible_points():
    qp = QuadraticProblem(np.eye(2), np.array([1.0, 3.0]))
    pen = build_penalty(qp.oracle(), np.array([[1.0, -1.0]]), 1.0, 0.1)
    x = np.array([0.7, 0.7])
    assert pen.h_value(x) <= 1e-12
    assert pen.F_value(x) == pytest.approx(qp.value(x))
    assert pen.h_value(np.array([1.0, 0.0])) > 0


def test_penalty_gradient_matches_fd():
    rng = np.random.default_rng(8)
    qp = random_quadratic(4, 5.0, rng)
    A = rng.standard_normal((2, 4))
    pen = build_penalty(qp.oracle(), A, 2.0, 0.05)
    x = rng.standard_normal(4)
    assert rel_err(pen.grad_h(x), fd_grad(pen.h_value, x)) <= 1e-6


def _flat_oracle(L=1.0):
    """``f = 0`` on one coordinate: not strongly convex, and no quadratic declared."""
    return FirstOrderOracle(1, lambda x: 0.0, lambda x: np.zeros(1), L=L)


def _penalty(base=None, R_y=1.0, eps=0.1):
    return build_penalty(base or scalar_quadratic().oracle(), np.eye(1), R_y, eps)


@pytest.mark.parametrize("call, message", [
    (lambda: stm(scalar_quadratic().oracle(), np.zeros(1), 3, mode="concave"),
     "unknown mode 'concave'"),
    (lambda: stm(_flat_oracle(), np.zeros(1), 3, mode="strongly_convex"),
     "strongly_convex mode requires oracle.mu > 0"),
    (lambda: _penalty(eps=0.0), "eps and R_y must be positive"),
    (lambda: _penalty(R_y=-1.0), "eps and R_y must be positive"),
    (lambda: stm_ips(_penalty(), np.zeros(1), 3, prox_mode="newton"), "unknown prox_mode 'newton'"),
    (lambda: stm_ips(CompositeProblem(_flat_oracle(), lambda x: 0.0, lambda z, out=None: 0 * z,
                                      1.0), np.zeros(1), 3, prox_mode="exact"),
     "problem has no exact proximal solver"),
    (lambda: argmax_solver_via_stm(_flat_oracle()),
     "argmax solver requires a strongly convex oracle"),
    (lambda: verify_penalty_transfer(np.zeros(1), _penalty(_flat_oracle()), 0.0),
     "the constrained optimum needs a quadratic base"),
], ids=["stm_mode_unknown", "stm_strongly_convex_without_mu", "penalty_eps_zero",
        "penalty_R_y_negative", "stm_ips_prox_mode_unknown", "stm_ips_exact_without_solver",
        "argmax_solver_without_mu", "transfer_without_quadratic"])
def test_a_primal_solver_refuses_a_value_outside_its_domain(call, message):
    # optdec run passes only checked modes and problems; a library caller reaches these
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("solver", [stm, lambda oracle, x0, N, **kw: sstm(
    StochasticGradientOracle(oracle, NoiseSpec()), x0, N, 0.1, 0.1, **kw)], ids=["stm", "sstm"])
def test_a_primal_run_refuses_L_0_before_any_evaluation(solver):
    calls = []
    oracle = FirstOrderOracle(1, lambda x: calls.append(x) or 0.0, lambda x: calls.append(x) or x,
                              L=0.0)
    with pytest.raises(ValueError, match="^L must be positive$"):
        solver(oracle, np.ones(1), 3, f_star=0.0)
    assert calls == [] and oracle.counter.grad_calls == 0


def test_penalty_rejects_zero_map():
    qp = scalar_quadratic()
    with pytest.raises(ValueError):
        build_penalty(qp.oracle(), np.zeros((1, 1)), 1.0, 0.1)


@pytest.mark.parametrize("R_y, eps, coeff", [(1e300, 1.0, "inf"), (1e150, 1e-10, "inf"),
                                             (1e153, 1.0, r"1e\+306")])
def test_penalty_refuses_a_coefficient_or_L_h_that_is_not_finite(R_y, eps, coeff):
    # the last coefficient is finite, but L_h = 2 coeff ||A||^2 = 2e308 is not
    with pytest.raises(ArithmeticError, match=rf"R_y\^2/eps = {coeff} .* L_h = inf"):
        build_penalty(scalar_quadratic().oracle(), np.array([[10.0]]), R_y, eps)


@pytest.mark.parametrize("R_y", [np.float64(1e200), np.float64(1e160)])
@pytest.mark.parametrize("eps", [1.0, np.float64(1.0)])
def test_penalty_refuses_a_numpy_coefficient_without_a_warning(R_y, eps):
    # the suite turns warnings into errors: an overflow warning would fail this
    # before the ArithmeticError
    with pytest.raises(ArithmeticError, match=r"R_y\^2/eps = inf .* L_h = inf"):
        build_penalty(scalar_quadratic().oracle(), np.array([[10.0]]), R_y, eps)


def test_penalty_Lh_spectral_formula():
    rng = np.random.default_rng(9)
    qp = random_quadratic(5, 3.0, rng)
    A = rng.standard_normal((3, 5))
    R_y, eps = 1.7, 0.02
    pen = build_penalty(qp.oracle(), A, R_y, eps)
    lam_max = np.linalg.eigvalsh(A.T @ A)[-1]
    assert pen.L_h == pytest.approx(2.0 * R_y ** 2 * lam_max / eps, rel=1e-10)


def test_penalty_counts_matvecs():
    qp = scalar_quadratic()
    pen = build_penalty(qp.oracle(), np.array([[1.0]]), 1.0, 0.1)
    pen.grad_h(np.array([1.0]))
    pen.grad_h(np.array([2.0]))
    assert pen.counter.matvec_AtA == 2


# ---------------------------------------------------------------------------
# inexact proximal steps


def test_stm_ips_zero_composite_matches_stm():
    qp = QuadraticProblem(np.diag([1.0, 2.0]), np.array([1.0, -1.0]))
    from optdec.primal import CompositeProblem
    o1, o2 = qp.oracle(), qp.oracle()
    comp = CompositeProblem(o1, lambda x: 0.0, lambda z, out=None: np.multiply(z, 0.0, out),
                            L_h=0.0, prox_solver=lambda z, a, lin: z - a * lin)
    x_comp, _ = stm_ips(comp, np.zeros(2), 40, inner_T=1)
    x_stm, _ = stm(o2, np.zeros(2), 40)
    assert np.allclose(x_comp, x_stm, atol=1e-12)


def test_stm_ips_refuses_an_inner_prox_gradient_that_is_not_finite():
    # h's gradient turns NaN after two inner proxes of 3 steps (8 products
    # each); a NaN gradient norm used to pass as converged: ``not nan > 1e-2 gn0``
    from optdec.primal import CompositeProblem
    qp = QuadraticProblem(np.diag([1.0, 2.0]), np.array([1.0, -1.0]))
    calls = []

    def h_gradient(z, out=None):
        calls.append(1)
        return np.multiply(z, 1.0 if len(calls) <= 2 * (2 + 2 * 3) else np.nan, out)

    comp = CompositeProblem(qp.oracle(), lambda x: 0.5 * float(x @ x), h_gradient, L_h=1.0)
    with pytest.raises(ArithmeticError, match="= nan is not finite at outer step 3$"):
        stm_ips(comp, np.zeros(2), 10, inner_T=3)


def penalty_instance(eps=1e-2):
    qp = QuadraticProblem(np.eye(2), np.array([1.0, 3.0]))
    A = np.array([[1.0, -1.0]])
    y_star, _ = min_norm_dual_solution(qp.Q, qp.b, A)
    R_y = float(np.linalg.norm(y_star))
    pen = build_penalty(qp.oracle(), A, R_y, eps)
    M = qp.Q + 2.0 * pen.coeff * pen.AtA
    x_F = np.linalg.solve(M, qp.b)
    return qp, pen, x_F, R_y


def test_stm_ips_penalty_transfer_shifted_quadratic():
    eps = 1e-2
    qp, pen, x_F, R_y = penalty_instance(eps)
    F_star = pen.F_value(x_F)
    x0 = np.zeros(2)
    R0 = np.linalg.norm(x0 - x_F)
    # iterate until the certificate reaches eps
    from optdec.schedules import next_alpha_stm
    A, N = 0.0, 0
    while 1.5 * R0 ** 2 / max(A, 1e-300) > eps:
        N += 1
        _, A = next_alpha_stm(A, qp.L, 0.0, factor=2.0)
    x, trace = stm_ips(pen, x0, N, F_star=F_star, x_star=x_F)
    report = verify_penalty_transfer(x, pen, F_star)
    assert report["premise_ok"]
    assert report["f_gap_ok"]
    assert report["feasibility_ok"]
    # constrained optimum of the shifted quadratic is (2, 2)
    x_c, f_c = constrained_quadratic_optimum(qp.Q, qp.b, pen.A)
    assert np.allclose(x_c, [2.0, 2.0])
    assert np.allclose(x, [2.0, 2.0], atol=0.05)


def test_stm_ips_inner_matches_exact_prox():
    qp, pen, x_F, _ = penalty_instance(1e-2)
    x_in, tr_in = stm_ips(pen, np.zeros(2), 60)
    qp2, pen2, _, _ = penalty_instance(1e-2)
    x_ex, _ = stm_ips(pen2, np.zeros(2), 60, prox_mode="exact")
    assert np.linalg.norm(x_in - x_ex) <= 1e-6
    assert not tr_in.flags  # no stagnation anywhere


def test_stm_ips_inner_gap_contract():
    # realized inner gap <= delta ||z^k - z_hat||^2 with the default delta,
    # verified against the closed-form prox at every outer step
    qp, pen, x_F, _ = penalty_instance(5e-2)
    N = 40
    delta = default_inner_delta(qp.L, pen.L_h, N)

    # instrumented run: replay the inner solves and compare with exact prox
    from optdec.primal import _inner_prox_stm, default_inner_budget
    from optdec.schedules import next_alpha_stm

    x = np.zeros(2)
    z = x.copy()
    x_avg = x.copy()
    A = 0.0
    for k in range(N):
        alpha, A_next = next_alpha_stm(A, qp.L, 0.0, factor=2.0)
        x_tilde = (A * x_avg + alpha * z) / A_next
        lin = qp.gradient(x_tilde)
        budget = default_inner_budget(alpha, pen.L_h, N)
        z_hat = pen.prox_solver(z, alpha, lin)

        def g(point):
            return (0.5 * np.sum((z - point) ** 2)
                    + alpha * (lin @ (point - x_tilde) + pen.h_value(point)))

        z_new, _, ok = _inner_prox_stm(pen, z, alpha, lin, delta, budget)
        assert ok
        realized = g(z_new) - g(z_hat)
        assert realized <= delta * np.sum((z - z_hat) ** 2) + 1e-15
        z = z_new
        x_avg = (A * x_avg + alpha * z) / A_next
        A = A_next


def test_stm_ips_certificate():
    qp, pen, x_F, _ = penalty_instance(1e-2)
    F_star = pen.F_value(x_F)
    x0 = np.zeros(2)
    R0 = np.linalg.norm(x0 - x_F)
    _, trace = stm_ips(pen, x0, 80, F_star=F_star, x_star=x_F)
    A = trace.column("A_k")
    gaps = trace.column("f_gap")
    for k in range(1, len(A)):
        assert gaps[k] <= 1.5 * R0 ** 2 / A[k] + 1e-12


def test_penalty_transfer_at_exact_optimum():
    qp, pen, x_F, _ = penalty_instance(1e-2)
    x_c, f_c = constrained_quadratic_optimum(qp.Q, qp.b, pen.A)
    report = verify_penalty_transfer(x_c, pen, pen.F_value(x_F))
    assert report["f_gap"] == pytest.approx(0.0, abs=1e-12)
    assert report["constraint_norm"] == pytest.approx(0.0, abs=1e-12)


def test_transfer_on_random_instances_exact_prox():
    # 20 random constrained quadratics against brute-force optima
    rng = np.random.default_rng(10)
    eps = 1e-3
    wins = 0
    for trial in range(20):
        qp = random_quadratic(4, 5.0, rng)
        A = rng.standard_normal((2, 4))
        y_star, _ = min_norm_dual_solution(qp.Q, qp.b, A)
        R_y = max(float(np.linalg.norm(y_star)), 1e-6)
        pen = build_penalty(qp.oracle(), A, R_y, eps)
        M = qp.Q + 2.0 * pen.coeff * pen.AtA
        x_F = np.linalg.solve(M, qp.b)
        F_star = pen.F_value(x_F)
        x0 = np.zeros(4)
        R0 = np.linalg.norm(x0 - x_F)
        from optdec.schedules import next_alpha_stm
        Acc, N = 0.0, 0
        while 1.5 * R0 ** 2 / max(Acc, 1e-300) > eps:
            N += 1
            _, Acc = next_alpha_stm(Acc, qp.L, 0.0, factor=2.0)
        x, _ = stm_ips(pen, x0, N, prox_mode="exact")
        report = verify_penalty_transfer(x, pen, F_star)
        wins += report["premise_ok"] and report["f_gap_ok"] and report["feasibility_ok"]
    assert wins == 20


def test_composite_components_convex():
    # random-point first-order convexity inequality for both parts
    rng = np.random.default_rng(40)
    qp, pen, _, _ = penalty_instance(1e-2)
    for _ in range(20):
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        assert qp.value(y) >= qp.value(x) + qp.gradient(x) @ (y - x) - 1e-9
        assert pen.h_value(y) >= pen.h_value(x) + pen.h_gradient(x) @ (y - x) - 1e-9


def test_iteration_scaling_on_halved_eps():
    # halving eps raises the certified iteration count by a factor in [1.2, 2]
    from optdec.schedules import next_alpha_stm

    def n_for(eps, L=1.0, R0=1.0):
        A, N = 0.0, 0
        while 1.5 * R0 ** 2 / max(A, 1e-300) > eps:
            N += 1
            _, A = next_alpha_stm(A, L, 0.0, factor=2.0)
        return N

    for eps in (1e-1, 1e-2, 1e-3):
        ratio = n_for(eps / 2) / n_for(eps)
        assert 1.2 <= ratio <= 2.0


def test_trace_A_column_reproduces_schedule():
    from optdec.schedules import next_alpha_stm
    qp = QuadraticProblem(np.diag([1.0, 3.0]), np.array([0.4, -0.7]))
    _, trace = stm(qp.oracle(), np.zeros(2), 25)
    A, expected = 0.0, [0.0]
    for _ in range(25):
        _, A = next_alpha_stm(A, qp.L, 0.0, factor=2.0)
        expected.append(A)
    assert np.array_equal(trace.column("A_k"), np.array(expected))


# ---------------------------------------------------------------------------
# conjugate argmax fallback


def test_argmax_solver_via_stm_matches_closed_form():
    rng = np.random.default_rng(12)
    qp = random_quadratic(3, 8.0, rng)
    solver = argmax_solver_via_stm(qp.oracle(), tol=1e-11)
    for _ in range(3):
        u = rng.standard_normal(3)
        assert np.linalg.norm(solver(u) - qp.conjugate_argmax(u)) <= 1e-8


# ---------------------------------------------------------------------------
# references in conftest: the expression forms of the triangle loop and the
# strongly convex mirror update, which the library matches bit for bit with
# fewer numpy calls, and the expression and split forms of the inner prox,
# which its table form matches up to rounding.


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


class _Draws:
    """Stands in for ``st.data()`` in an ``@example``: its draws return the given lists in turn."""

    def __init__(self, *lists):
        self.lists, self.i = lists, -1

    def draw(self, strategy):
        self.i += 1
        return self.lists[self.i % len(self.lists)]


_POINTS = _Draws([0.75, -3.0, 2.5], [1.25, 4.0, -0.5], [-7.0, 0.125, 3.0])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 8), mu=st.floats(0.0, 50.0),
       alpha=st.floats(1e-6, 1e3), A_next=st.floats(0.0, 1e6))
@example(data=_POINTS, dim=3, mu=1.0, alpha=0.3, A_next=12.0)  # the inner prox's mu
@example(data=_POINTS, dim=3, mu=0.0, alpha=0.3, A_next=12.0)
def test_pull_back_is_bitwise_the_expression_form(data, dim, mu, alpha, A_next):
    z, g, x_tilde = (np.array(data.draw(st.lists(_finite, min_size=dim, max_size=dim)))
                     for _ in range(3))
    z_before = z.copy()
    got = _pull_back(mu)(z, g, x_tilde, alpha, A_next)
    assert _bits(got) == _bits(expression_form_pull_back(mu)(z, g, x_tilde, alpha, A_next))
    assert _bits(z) == _bits(z_before)  # the caller's point is not written


def _random_penalty(seed, dim, rows, R_y, eps):
    rng = np.random.default_rng(seed)
    qp = QuadraticProblem(np.eye(dim), rng.standard_normal(dim))
    return build_penalty(qp.oracle(), rng.standard_normal((rows, dim)), R_y, eps), rng


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 8), rows=st.integers(1, 4),
       R_y=st.floats(0.1, 3.0), eps=st.floats(0.1, 10.0), alpha=st.floats(1e-3, 2.0),
       exhausted=st.booleans(), budget=st.integers(0, 8))
def test_inner_prox_takes_the_reference_steps_up_to_rounding(seed, dim, rows, R_y, eps, alpha,
                                                             exhausted, budget):
    pen, rng = _random_penalty(seed, dim, rows, R_y, eps)
    z_k, lin = rng.standard_normal(dim), rng.standard_normal(dim)
    # a loose delta certifies well inside 500 steps; 1e-300 never certifies
    delta, budget = (1e-300, budget) if exhausted else (0.5, 500)
    before = pen.counter.matvec_AtA
    z, _, converged = _inner_prox_stm(pen, z_k, alpha, lin, delta, budget)
    products = pen.counter.matvec_AtA - before
    if exhausted:
        assert products == 2 + 2 * budget
    else:
        assert converged and products < 2 + 2 * 500
    # the table form rounds differently from both references but takes the
    # same steps; over 220,000 random draws over these ranges z differed from
    # either by at most 2.3e-13 relative (where z is 1e-5 of z_k), and no step
    # count, product count or verdict differed
    for reference in (split_form_inner_prox, expression_form_inner_prox):
        z_ref, _, converged_ref, products_ref, steps = reference(pen, z_k, alpha, lin, delta,
                                                                 budget)
        assert (products_ref, converged_ref) == (products, converged)
        assert products == 2 + 2 * steps
        assert np.linalg.norm(z - z_ref) <= 1e-12 * np.linalg.norm(z_ref)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 20), cond=st.floats(1.0, 1e4),
       alpha=st.floats(1e-3, 10.0), lin_kind=st.sampled_from(["free", "zero", "nan"]),
       start=st.sampled_from(["free", "minimiser", "near"]), log_delta=st.floats(-14.0, -1.0),
       budget=st.integers(0, 300))
# z_k at the minimiser, where the certificate holds only by rounding: without the allowance
# for rounding the skip steps past it
@example(seed=3207469351, dim=3, cond=59.532055329272296, alpha=0.01798320656426214,
         lin_kind="free", start="minimiser", log_delta=-1.7276067081513684, budget=295)
def test_inner_prox_is_bitwise_the_table_form(seed, dim, cond, alpha, lin_kind, start, log_delta,
                                              budget):
    # the full certificate formed on every step, or only where it can hold: the same bits
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, dim + 1))
    A = rng.standard_normal((rows, dim)) * np.logspace(0.0, np.log10(cond) / 2, dim)
    pen = build_penalty(QuadraticProblem(np.eye(dim), np.zeros(dim)).oracle(), A,
                        10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-3, 1))
    z_k = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
    lin = np.zeros(dim) if lin_kind == "zero" else rng.standard_normal(dim)
    if start != "free":  # z_k minimises <lin, z> + h(z) up to rounding: grad g(z_k) ~ 0
        if lin_kind == "zero":
            z_k -= np.linalg.pinv(A) @ (A @ z_k)
        else:
            lin = -pen.h_gradient(z_k)
    if start == "near":
        z_k += 1e-9 * np.linalg.norm(z_k) * rng.standard_normal(dim)
    if lin_kind == "nan":
        lin[rng.integers(dim)] = np.nan
    delta = 10.0 ** log_delta
    before = pen.counter.matvec_AtA
    z, gap, converged = _inner_prox_stm(pen, z_k, alpha, lin, delta, budget)
    products = pen.counter.matvec_AtA - before
    z_ref, gap_ref, converged_ref, products_ref, _ = table_form_inner_prox(pen, z_k, alpha, lin,
                                                                           delta, budget)
    assert (_bits(z), _bits(gap)) == (_bits(z_ref), _bits(gap_ref))
    assert (converged, products) == (converged_ref, products_ref)


def _workload_machine(dim):
    """perfbench's primal_inexact_prox instance: a custom penalty of dimension ``dim`` (Q of
    cond 100, ``dim // 2`` rows of A with ||A||_2 = 1, ||y*|| = 3.5)."""
    rng = np.random.default_rng(5)
    U, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    Q = (U * np.logspace(0.0, 2.0, dim)) @ U.T
    Q = (Q + Q.T) / 2.0
    A = rng.standard_normal((dim // 2, dim))
    A /= np.linalg.norm(A, 2)
    b = rng.standard_normal(dim)
    b *= 3.5 / np.linalg.norm(min_norm_dual_solution(Q, b, A)[0])
    return Machine(QuadraticProblem(Q, b), A, np.zeros(dim), NoiseSpec())


def test_inner_prox_forms_the_full_certificate_on_few_steps(monkeypatch):
    # the workload's shape: dim 20, eps 1e-3, N 200, inner_T 200; about 1 % of its checks
    # can certify
    formed = []
    certificate = optdec.primal._certificate
    monkeypatch.setattr(optdec.primal, "_certificate",
                        lambda *args: formed.append(1) or certificate(*args))
    machine = _workload_machine(20)
    run_method("stm_ips", machine, 200, 1e-3, 0.5, {"inner_T": 200})
    checks = machine.oracle.counter.matvec_AtA // 2  # 2 + 2 (inner steps) products per prox
    assert checks > 200 * 100
    assert len(formed) <= 0.02 * checks


def test_grad_h_calls_are_the_counted_products(monkeypatch):
    # CompositeProblem.grad_h wrapped on the class, as perfbench's tracer wraps it: every
    # product the inner prox writes into its buffer goes through it, at a fixed inner_T (the
    # workload's tiny shape) and at default budgets (auto N, proxes of many table blocks)
    calls = []
    grad_h = CompositeProblem.grad_h
    monkeypatch.setattr(CompositeProblem, "grad_h",
                        lambda *args, **kwargs: calls.append(1) or grad_h(*args, **kwargs))
    for N, eps, constants in ((80, 1e-2, {"inner_T": 40}), ("auto", 1e-2, {})):
        calls.clear()
        machine = _workload_machine(6)
        run_method("stm_ips", machine, N, eps, 0.5, constants)
        assert len(calls) == machine.oracle.counter.matvec_AtA > 2000


@settings(max_examples=200, derandomize=True, deadline=None)
@given(log_L_g=st.floats(0.0, 8.0), alpha=st.floats(1e-3, 10.0), budget=st.integers(1, 500))
@example(log_L_g=3.0, alpha=0.37, budget=3 * _TABLE_BLOCK_CAP + 7)  # past the capped blocks
@example(log_L_g=8.0, alpha=10.0, budget=2 * _TABLE_BLOCK_CAP)  # the first capped block's end
def test_prox_step_table_is_bitwise_the_stepper_chain(log_L_g, alpha, budget):
    # the reference takes its steps from stm_step one call at a time, in Python floats
    step = stm_step(10.0 ** log_L_g, 1.0, 2.0)
    A, n = 0.0, 0
    for x_tilde_row, rows in _prox_step_table(step, alpha, budget):
        a, A_next = step(A)
        p, q, s = A / A_next, a / A_next, a / (1.0 + A_next)
        want = [[p, q, 0.0, 0.0, 0.0, 0.0],
                [p, q * (1.0 - s), q * s, 0.0, -alpha * (q * s), 0.0],
                [0.0, 1.0 - s, s, 0.0, -alpha * s, 0.0]]
        assert _bits(np.vstack([x_tilde_row, rows])) == _bits(want)
        A, n = A_next, n + 1
    assert n == budget


def test_prox_step_table_runs_in_bounded_memory():
    # a tiny eps plans inner budgets past 1e76 steps (L_h 1.9e149 at eps 1e-150); blocks of
    # at most _TABLE_BLOCK_CAP steps keep the table's memory bounded along such a prox
    steps = _prox_step_table(stm_step(1e6, 1.0, 2.0), 0.5, 10 ** 12)
    tracemalloc.start()
    try:
        assert sum(1 for _ in itertools.islice(steps, 300_000)) == 300_000
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 8), rows=st.integers(1, 4),
       R_y=st.floats(0.1, 3.0), eps=st.floats(1e-3, 10.0))
def test_penalty_gradient_is_bitwise_the_expression_form(seed, dim, rows, R_y, eps):
    pen, rng = _random_penalty(seed, dim, rows, R_y, eps)
    z = rng.standard_normal(dim)
    got = pen.h_gradient(z)
    assert _bits(got) == _bits((2.0 * pen.coeff * pen.AtA) @ z)
    # scaling the matrix before the product moves each entry by a few ulps of
    # 2 coeff |AtA| |z|: at most 2.4 of them over 100,000 scratch draws
    scale = 2.0 * pen.coeff * (np.abs(pen.AtA) @ np.abs(z))
    assert np.all(np.abs(got - 2.0 * pen.coeff * (pen.AtA @ z)) <= 4 * np.finfo(float).eps * scale)
