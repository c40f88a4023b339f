from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import optdec.dual
import optdec.network
import optdec.problems
from conftest import fd_grad, rel_err
from optdec import (DivergenceError, Topology, barycenter_problem, entropic_ot_dual_grad,
                    entropic_ot_dual_value, entropic_wasserstein,
                    projected_gradient_barycenter, QuadraticProblem,
                    random_quadratic, random_quadratics, run_distributed,
                    simplex_project)
from optdec.problems import (constrained_quadratic_optimum, load_cost_csv,
                             load_measures_csv)


# ---------------------------------------------------------------------------
# quadratics


@pytest.mark.parametrize("cond", [0.5, 1 - 1e-12, 0.0, -2.0, float("nan")])
def test_random_quadratics_refuse_a_cond_below_1(cond):
    # cond 0.5 once built a problem with L/mu = 2
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="cond must be at least 1"):
        random_quadratic(4, cond, rng)
    with pytest.raises(ValueError, match="cond must be at least 1"):
        random_quadratics(3, 2, cond, rng)
    qp = random_quadratic(4, 1.0, rng)  # the least cond builds
    assert qp.L == pytest.approx(qp.mu)


def test_quadratic_identity():
    qp = QuadraticProblem(np.eye(2), np.zeros(2))
    assert np.allclose(qp.x_star, 0.0)
    assert np.allclose(qp.conjugate_argmax(np.array([0.3, -0.4])), [0.3, -0.4])


def test_quadratic_diagonal_solve():
    qp = QuadraticProblem(np.diag([1.0, 4.0]), np.array([1.0, 4.0]))
    assert np.allclose(qp.x_star, [1.0, 1.0])
    assert qp.L == pytest.approx(4.0)
    assert qp.mu == pytest.approx(1.0)


def test_quadratic_conjugate_identity():
    rng = np.random.default_rng(1)
    qp = random_quadratic(4, 7.0, rng)
    for _ in range(5):
        y = rng.standard_normal(4)
        x_y = qp.conjugate_argmax(y)
        direct = y @ x_y - qp.value(x_y)
        closed = 0.5 * (y + qp.b) @ np.linalg.solve(qp.Q, y + qp.b)
        assert abs(direct - closed) <= 1e-10 * max(1.0, abs(closed))
        # optimality of the conjugate argmax: y = grad f(x(y))
        assert np.linalg.norm(qp.gradient(x_y) - y) <= 1e-10


def test_quadratic_minimum_over_perturbations():
    rng = np.random.default_rng(2)
    qp = random_quadratic(5, 20.0, rng)
    f_star = qp.value(qp.x_star)
    for _ in range(1000):
        assert qp.value(qp.x_star + 1e-3 * rng.standard_normal(5)) >= f_star


def test_quadratic_rejects_non_spd():
    with pytest.raises(ValueError):
        QuadraticProblem(np.diag([1.0, -1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        QuadraticProblem(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))
    for Q, b in ((np.eye(2), np.zeros(3)), (np.ones(2), np.zeros(2)),
                 (np.ones((1, 2, 2)), np.zeros((1, 2)))):
        with pytest.raises(ValueError, match="square and b conforming"):
            QuadraticProblem(Q, b)


def _per_matrix_quadratic(dim, cond, rng, b_scale):
    """Reference: one node drawn and decomposed with 2-d calls only."""
    U, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    Q = (U * np.logspace(0.0, np.log10(cond), dim)) @ U.T
    Q = (Q + Q.T) / 2.0
    b = b_scale * rng.standard_normal(dim)
    evals = np.linalg.eigvalsh(Q)
    x_star = np.linalg.solve(Q, b)
    return Q, b, evals[-1], evals[0], x_star, float(0.5 * x_star @ Q @ x_star - b @ x_star)


def _fields(qp):
    return qp.Q, qp.b, qp.L, qp.mu, qp.x_star, qp.f_star


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 12), n=st.integers(1, 10), cond=st.sampled_from([1.0, 4.0, 100.0]),
       seed=st.integers(0, 2**63), b_scale=st.sampled_from([1.0, 0.3]))
def test_stacked_quadratics_equal_per_node_builds(m, n, cond, seed, b_scale):
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    reference = [_per_matrix_quadratic(n, cond, rngs[0], b_scale) for _ in range(m)]
    loop = [_fields(random_quadratic(n, cond, rngs[1], b_scale)) for _ in range(m)]
    stacked = random_quadratics(m, n, cond, rngs[2], b_scale)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state == rngs[2].bit_generator.state
    Q, b = np.stack([qp.Q for qp in stacked]), np.stack([qp.b for qp in stacked])
    restacked = QuadraticProblem.stack(Q, b)
    for k in range(m):
        single = _fields(QuadraticProblem(Q[k], b[k]))
        for ref, *built in zip(reference[k], loop[k], _fields(stacked[k]),
                               _fields(restacked[k]), single):
            for value in built:
                assert np.array_equal(value, ref)
                assert np.asarray(value).dtype == np.asarray(ref).dtype


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 12), n=st.integers(2, 10), seed=st.integers(0, 2**63),
       data=st.data())
def test_stack_names_the_bad_node(m, n, seed, data):
    Q = np.stack([qp.Q for qp in random_quadratics(m, n, 4.0, np.random.default_rng(seed))])
    k = data.draw(st.integers(0, m - 1))
    near = Q.copy()  # not exactly symmetric, but inside the tolerance
    near[k, 0, -1] *= 1.0 + 1e-9
    b = np.ones((m, n))
    assert np.array_equal(QuadraticProblem.stack(near, b)[k].x_star,
                          QuadraticProblem(near[k], b[k]).x_star)
    bad = Q.copy()
    bad[k, 0, -1] += 1.0
    with pytest.raises(ValueError, match=f"^Q of node {k} must be symmetric$"):
        QuadraticProblem.stack(bad, np.zeros((m, n)))
    bad = Q.copy()
    bad[k] *= -1.0
    with pytest.raises(ValueError, match=f"^Q of node {k} must be positive definite$"):
        QuadraticProblem.stack(bad, np.zeros((m, n)))
    with pytest.raises(ValueError, match="^Q must be positive definite$"):
        QuadraticProblem(bad[k], np.zeros(n))


def test_constrained_optimum_is_feasible_and_optimal():
    rng = np.random.default_rng(3)
    qp = random_quadratic(5, 5.0, rng)
    A = rng.standard_normal((2, 5))
    x_c, f_c = constrained_quadratic_optimum(qp.Q, qp.b, A)
    assert np.linalg.norm(A @ x_c) <= 1e-10
    # optimal among feasible perturbations
    _, _, Vt = np.linalg.svd(A)
    Z = Vt[2:].T
    for _ in range(50):
        x = x_c + Z @ (1e-2 * rng.standard_normal(3))
        assert qp.value(x) >= f_c - 1e-12


# ---------------------------------------------------------------------------
# entropic transport dual


def test_dual_value_uniform_zero_cost():
    v = entropic_ot_dual_value(np.zeros(2), np.array([0.5, 0.5]), np.zeros((2, 2)), 1.0)
    assert v == pytest.approx(np.log(4.0))


def test_dual_value_shift_identity():
    rng = np.random.default_rng(4)
    q = rng.dirichlet(np.ones(5))
    C = rng.random((5, 5))
    lam = rng.standard_normal(5)
    base = entropic_ot_dual_value(lam, q, C, 0.4)
    for shift in (5.0, -2.3, 0.017):
        shifted = entropic_ot_dual_value(lam + shift, q, C, 0.4)
        assert shifted - base == pytest.approx(shift, abs=1e-12)


def test_dual_value_small_mu_limit():
    # as mu -> 0 the value at lam = 0 approaches sum_j q_j (-min_i C_ij)
    q = np.array([0.3, 0.7])
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    limit = -np.sum(q * C.min(axis=0))
    v = entropic_ot_dual_value(np.zeros(2), q, C, mu=1e-3)
    assert abs(v - limit) <= 5e-3


def test_dual_value_zero_mass_atoms():
    q = np.array([0.0, 1.0])
    C = np.array([[0.0, 0.5], [0.5, 0.0]])
    v = entropic_ot_dual_value(np.zeros(2), q, C, 0.2)
    assert np.isfinite(v)


def test_dual_grad_uniform():
    g = entropic_ot_dual_grad(np.zeros(2), np.array([0.5, 0.5]), np.zeros((2, 2)), 1.0)
    assert np.allclose(g, [0.5, 0.5])


def test_dual_grad_matches_fd():
    rng = np.random.default_rng(5)
    q = rng.dirichlet(np.ones(3))
    C = rng.random((3, 3))
    lam = rng.standard_normal(3)
    g = entropic_ot_dual_grad(lam, q, C, 0.25)
    assert rel_err(g, fd_grad(lambda l: entropic_ot_dual_value(l, q, C, 0.25), lam)) <= 1e-6


def test_dual_grad_is_probability_vector():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = rng.integers(2, 7)
        q = rng.dirichlet(np.ones(n))
        C = rng.random((n, n))
        lam = rng.standard_normal(n)
        mu = 10.0 ** rng.uniform(-2, 0.5)
        g = entropic_ot_dual_grad(lam, q, C, mu)
        assert np.all(g >= 0)
        assert abs(g.sum() - 1.0) <= 1e-12


def test_stabilized_at_small_mu():
    # mu = 1e-2 with order-one costs must not overflow
    rng = np.random.default_rng(7)
    q = rng.dirichlet(np.ones(4))
    C = rng.random((4, 4))
    lam = rng.standard_normal(4)
    v = entropic_ot_dual_value(lam, q, C, 1e-2)
    g = entropic_ot_dual_grad(lam, q, C, 1e-2)
    assert np.isfinite(v) and np.isfinite(g).all()


# ---------------------------------------------------------------------------
# smoothed transport distance


def test_wasserstein_symmetric_zero_potential():
    p = np.array([0.5, 0.5])
    val, lam = entropic_wasserstein(p, p, np.zeros((2, 2)), 1.0)
    assert abs(lam.sum()) <= 1e-12
    residual = p - entropic_ot_dual_grad(lam, p, np.zeros((2, 2)), 1.0)
    assert np.linalg.norm(residual) <= 1e-8


def test_wasserstein_first_order_optimality():
    rng = np.random.default_rng(11)
    p = rng.dirichlet(np.ones(4))
    q = rng.dirichlet(np.ones(4))
    C = rng.random((4, 4))
    val, lam = entropic_wasserstein(p, q, C, 0.4, tol=1e-9)
    assert abs(lam.sum()) <= 1e-9
    residual = p - entropic_ot_dual_grad(lam, q, C, 0.4)
    assert np.linalg.norm(residual) <= 1e-9


def test_wasserstein_against_brute_force_plan():
    # n = 2 has a single transport degree of freedom: grid + refine over it
    p = np.array([0.3, 0.7])
    q = np.array([0.6, 0.4])
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    mu = 0.5

    def plan_cost(t):
        pi = np.array([[t, p[0] - t], [q[0] - t, 1.0 - p[0] - q[0] + t]])
        pi = np.clip(pi, 1e-300, None)
        return float((C * pi).sum() + mu * (pi * np.log(pi)).sum())

    lo = max(0.0, p[0] + q[0] - 1.0) + 1e-12
    hi = min(p[0], q[0]) - 1e-12
    ts = np.linspace(lo, hi, 20001)
    best = min(plan_cost(t) for t in ts)
    val, _ = entropic_wasserstein(p, q, C, mu, tol=1e-10)
    assert abs(val - best) <= 1e-5


def test_wasserstein_strong_convexity_in_first_argument():
    rng = np.random.default_rng(12)
    q = rng.dirichlet(np.ones(3))
    C = rng.random((3, 3))
    mu = 0.4
    for _ in range(25):
        p1 = rng.dirichlet(np.ones(3))
        p2 = rng.dirichlet(np.ones(3))
        w1, _ = entropic_wasserstein(p1, q, C, mu, tol=1e-10)
        w2, lam2 = entropic_wasserstein(p2, q, C, mu, tol=1e-10)
        lower = w2 + lam2 @ (p1 - p2) + 0.5 * mu * np.sum((p1 - p2) ** 2)
        assert w1 >= lower - 1e-8


def test_wasserstein_zero_mass_first_argument():
    # p = (1, 0) forces the plan ((1/2, 1/2), (0, 0)): cost 1/2, entropy term mu log(1/2)
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    val, lam = entropic_wasserstein(np.array([1.0, 0.0]), np.array([0.5, 0.5]), C, 0.5, tol=1e-10)
    assert abs(val - (0.5 + 0.5 * np.log(0.5))) <= 1e-9
    assert abs(lam.sum()) <= 1e-12


def test_wasserstein_nonconvergence_diagnostic():
    p = np.array([0.5, 0.5])
    q = np.array([0.2, 0.8])
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(RuntimeError):
        entropic_wasserstein(p, q, C, 0.5, tol=1e-12, max_iter=3)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 40), log_mu=st.floats(np.log(1e-2), np.log(3.0)),
       log_alpha=st.floats(np.log(0.1), np.log(10.0)), grid=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_wasserstein_converges_with_strong_duality(n, log_mu, log_alpha, grid, seed):
    rng = np.random.default_rng(seed)
    mu, alpha, tol = float(np.exp(log_mu)), float(np.exp(log_alpha)), 1e-10
    p = rng.dirichlet(np.full(n, alpha))
    q = rng.dirichlet(np.full(n, alpha))
    x = np.linspace(0.0, 1.0, n) if grid else rng.random(n)
    C = np.abs(x[:, None] - x[None, :])
    val, lam = entropic_wasserstein(p, q, C, mu, tol=tol)
    assert abs(lam.sum()) <= 1e-9
    # the plan pi_ij = S_ij q_j of the column softmax S at lam
    E = (lam[:, None] - C) / mu
    S = np.exp(E - E.max(axis=0))
    pi = S / S.sum(axis=0) * q
    assert np.linalg.norm(p - pi.sum(axis=1)) <= tol
    # value - primal(pi) is exactly lam . (p - S q)
    kept = pi > 0
    primal = float((C * pi).sum() + mu * (pi[kept] * np.log(pi[kept])).sum())
    assert abs(val - primal) <= np.linalg.norm(lam) * tol + 1e-12


def test_wasserstein_solve_needs_few_marginals(monkeypatch):
    # the barycenter benchmark's shape: Dirichlet(2) measures on 30 atoms of [0, 1]
    calls = []
    softmax = optdec.problems._column_plan

    def counted(*args):
        calls.append(1)
        return softmax(*args)

    monkeypatch.setattr(optdec.problems, "_column_plan", counted)
    x = np.linspace(0.0, 1.0, 30)
    C = np.abs(x[:, None] - x[None, :])
    measures = np.random.default_rng(21).dirichlet(np.full(30, 2.0), size=8)
    for k in range(8):
        calls.clear()
        entropic_wasserstein(measures[k], measures[(k + 1) % 8], C, 0.05, tol=1e-10)
        assert len(calls) <= 50


def test_simplex_project():
    assert np.allclose(simplex_project(np.array([0.4, 0.6])), [0.4, 0.6])
    p = simplex_project(np.array([10.0, -3.0]))
    assert np.allclose(p, [1.0, 0.0])
    rng = np.random.default_rng(13)
    for _ in range(20):
        v = rng.standard_normal(5) * 3
        p = simplex_project(v)
        assert np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# barycenters


def grid_cost(n):
    atoms = np.linspace(0.0, 1.0, n)
    return np.abs(atoms[:, None] - atoms[None, :])


def test_barycenter_identical_measures_recovers_measure():
    n, m = 5, 3
    q = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
    C = grid_cost(n)
    inst = barycenter_problem(np.tile(q, (m, 1)), C, 0.02, Topology.ring(m))
    x_nodes, trace, comm = run_distributed(
        "spdstm", inst, {"eps": 1e-6, "beta": 0.1, "N": 50, "metric_every": 0})
    assert np.abs(x_nodes - q).max() <= 1e-4


def test_barycenter_matches_projected_gradient():
    measures = np.array([[0.3, 0.7], [0.6, 0.4]])
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    mu = 0.5
    inst = barycenter_problem(measures, C, mu, Topology.path(2))
    x_nodes, trace, comm = run_distributed(
        "spdstm", inst, {"eps": 1e-7, "beta": 0.1, "N": 30_000, "metric_every": 0})
    p_ref = projected_gradient_barycenter(measures, C, mu, iters=800)
    assert np.abs(x_nodes - p_ref).max() <= 1e-3


def test_barycenter_consensus_residual():
    measures = np.array([[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]])
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    inst = barycenter_problem(measures, C, 0.3, Topology.ring(3))
    x_nodes, trace, comm = run_distributed(
        "spdstm", inst, {"eps": 1e-5, "beta": 0.1, "N": 8000, "metric_every": 0})
    residual = np.linalg.norm(inst.pair.sqrtW @ x_nodes.reshape(-1))
    assert residual <= 1e-3


def test_barycenter_local_oracles_are_strongly_convex():
    # random-pair inequality for the per-node objectives
    rng = np.random.default_rng(14)
    q = rng.dirichlet(np.ones(3))
    C = rng.random((3, 3))
    mu = 0.5
    from optdec.problems import barycenter_local_oracle
    oracle = barycenter_local_oracle(q, C, mu)
    for _ in range(5):
        p1 = rng.dirichlet(np.ones(3))
        p2 = rng.dirichlet(np.ones(3))
        lower = (oracle.value(p2) + oracle.gradient(p2) @ (p1 - p2)
                 + 0.5 * mu * np.sum((p1 - p2) ** 2))
        assert oracle.value(p1) >= lower - 1e-8


def _log_domain_marginal(U, Q, C, mu):
    return np.matmul(optdec.problems._column_plan(U, C, mu)[0], Q[..., None])[..., 0]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(n=st.integers(1, 12), m=st.integers(1, 4), log_mu=st.floats(np.log(1e-3), np.log(2.0)),
       spread=st.floats(0.0, 1.0), log_scale=st.floats(np.log(1e-3), np.log(1e3)),
       zero_mass=st.floats(0.0, 0.6), shifted=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_kernel_marginals_match_the_log_domain(n, m, log_mu, spread, log_scale, zero_mass,
                                               shifted, seed):
    rng = np.random.default_rng(seed)
    mu = float(np.exp(log_mu))
    # costs on the grid 2^-6 Z, each column spanning at most KERNEL_RANGE mu; a
    # column shift, negative or not, is exact on the grid and leaves every
    # marginal unchanged, so the reference takes the unshifted cost
    top = int(spread * optdec.problems.KERNEL_RANGE * mu * 64)
    base = rng.integers(0, top + 1, size=(n, n)) / 64.0
    C = base + (rng.integers(-2**16, 2**16, size=n) / 64.0 if shifted else 0.0)
    U = float(np.exp(log_scale)) * mu * rng.standard_normal((m, n))
    Q = rng.dirichlet(np.ones(n), size=m) * (rng.random((m, n)) >= zero_mass)
    Q[Q.sum(axis=1) == 0, 0] = 1.0
    Q /= Q.sum(axis=1, keepdims=True)
    X = optdec.problems._transport_marginal(C, mu)(U, Q)
    # c = 8: over 30,000 random draws of up to 30 atoms the worst error was 2.7 of this unit
    unit = np.finfo(float).eps * (1.0 + np.abs(U).max() / mu + np.ptp(C, axis=0).max() / mu)
    assert np.abs(X - _log_domain_marginal(U, Q, base, mu)).max() <= 8.0 * unit
    # one node at a time, as a local oracle's conjugate_argmax asks
    for U_k, Q_k, X_k in zip(U, Q, X):
        assert np.abs(optdec.problems._transport_marginal(C, mu)(U_k, Q_k) - X_k).max() <= 8.0 * unit


def test_costs_wider_than_the_kernel_range_take_the_log_domain(monkeypatch):
    # mu 1e-4 on [0, 1]: a column spans 10^4 mu, past KERNEL_RANGE = 500
    calls = []
    plan = optdec.problems._column_plan

    def counted(*args):
        calls.append(1)
        return plan(*args)

    monkeypatch.setattr(optdec.problems, "_column_plan", counted)
    C, mu = grid_cost(30), 1e-4
    rng = np.random.default_rng(23)
    Q = rng.dirichlet(np.full(30, 2.0), size=8)
    marginal = optdec.problems._transport_marginal(C, mu)
    for scale in (0.0, 1e-3, 1.0):
        X = marginal(scale * rng.standard_normal((8, 30)), Q)
        assert np.isfinite(X).all() and X.min() >= 0.0
        assert np.abs(X.sum(axis=1) - 1.0).max() <= 1e-12
    assert len(calls) == 3


def test_local_oracle_lives_on_the_cost_rows():
    # p on three atoms, q on two: the oracle's dimension is the number of rows
    from optdec.problems import barycenter_local_oracle
    q, C = np.array([0.4, 0.6]), np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.25]])
    oracle = barycenter_local_oracle(q, C, 0.3)
    assert oracle.dim == 3 and abs(oracle.x_star.sum() - 1.0) <= 1e-15
    u = np.array([0.2, -0.1, 0.05])
    assert np.abs(oracle.conjugate_argmax(u) - entropic_ot_dual_grad(u, q, C, 0.3)).max() <= 1e-15


def test_barycenter_instance_builds_its_kernel_once(monkeypatch):
    built = []
    build = optdec.problems._transport_marginal

    def counted(*args):
        built.append(1)
        return build(*args)

    monkeypatch.setattr(optdec.problems, "_transport_marginal", counted)
    measures = np.random.default_rng(24).dirichlet(np.ones(6), size=5)
    inst = barycenter_problem(measures, grid_cost(6), 0.1, Topology.ring(5))
    run_distributed("spdstm", inst, {"eps": 1e-3, "N": 20})
    assert len(built) == 1


def test_barycenter_local_argmax_allocates_no_plan_stack():
    import tracemalloc
    m, n = 100, 50
    measures = np.random.default_rng(25).dirichlet(np.ones(n), size=m)
    inst = barycenter_problem(measures, grid_cost(n), 0.05, Topology.ring(m))
    u = np.random.default_rng(26).standard_normal(m * n)
    tracemalloc.start()
    try:
        inst.local_argmax(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * n * n / 4  # one (m, n, n) plan stack: 2 MB


# ---------------------------------------------------------------------------
# the declared conjugate W*


@settings(max_examples=200, derandomize=True, deadline=None)
@given(n=st.integers(1, 12), log_mu=st.floats(np.log(1e-2), np.log(2.0)),
       scale=st.floats(0.0, 50.0), zero_mass=st.floats(0.0, 0.6), seed=st.integers(0, 2**32 - 1))
def test_barycenter_conjugate_value_is_the_fenchel_value(n, log_mu, scale, zero_mass, seed):
    from optdec.problems import barycenter_local_oracle
    rng = np.random.default_rng(seed)
    mu = float(np.exp(log_mu))
    q = rng.dirichlet(np.ones(n)) * (rng.random(n) >= zero_mass)
    q[0] += q.sum() == 0
    q /= q.sum()
    u = scale * mu * rng.uniform(-1.0, 1.0, n)
    C = rng.random((n, n))
    oracle = barycenter_local_oracle(q, C, mu)
    declared = oracle.conjugate_value(u)
    assert declared == entropic_ot_dual_value(u, q, C, mu)
    if mu < 0.1:
        return  # where the reference ascent below can stall on potentials of 30-50 mu
    # at the maximiser x = x(u), u attains f(x) = max_lam D(lam), D(lam) = <lam, x> - W*(lam),
    # and f is the tol-1e-10 ascent's value D(lam).  Concavity of D at lam and at u bounds the
    # difference by the ascent's last residual and by the marginal's rounding, each applied to
    # u - lam: about 1e-10 ||u - lam|| when the ascent resolves every atom of x
    x = oracle.conjugate_argmax(u)
    value, lam = entropic_wasserstein(x, q, C, mu, tol=1e-10)
    above = (x - entropic_ot_dual_grad(lam, q, C, mu)) @ (u - lam)
    below = (x - entropic_ot_dual_grad(u, q, C, mu)) @ (lam - u)
    rounding = 1e-11 * (1.0 + np.abs(u).max())
    assert -below - rounding <= (u @ x - declared) - value <= above + rounding


def test_barycenter_instance_declares_the_stacked_conjugate():
    from optdec.network import DistributedDualOracle
    rng = np.random.default_rng(27)
    measures = rng.dirichlet(np.ones(6), size=5)
    dual = DistributedDualOracle(barycenter_problem(measures, grid_cost(6), 0.1, Topology.ring(5)))
    for scale in (0.0, 0.1, 1.0, 5.0):
        y = scale * rng.standard_normal(dual.dual_dim)
        # the per-node form psi = <u, x(u)> - f(x(u)), f by the nodes' dual ascents
        u = dual.A.T @ y
        x = dual.x_exact(u)
        assert abs(dual.psi_value(y) - (u @ x - dual.primal.value(x))) <= 1e-10


@pytest.fixture
def barycenter_ot(monkeypatch):
    """``spdstm`` on the barycenter_ot shape: 8 nodes, each taking one dual ascent for ``R_y`` and
    one for ``f(x~)`` in each metric, and none for ``psi``.  ``run(**config)`` returns the trace;
    ``ascents`` holds one entry per ascent, ``bounds`` the ascents taken before each ``R_y``."""
    ascents, bounds = [], []
    ascent, bound = optdec.problems.entropic_wasserstein, optdec.network._dual_norm_bound

    def counted(*args, **kwargs):
        ascents.append(1)
        return ascent(*args, **kwargs)

    def recorded(instance):
        bounds.append(len(ascents))
        return bound(instance)

    monkeypatch.setattr(optdec.problems, "entropic_wasserstein", counted)
    monkeypatch.setattr(optdec.network, "_dual_norm_bound", recorded)
    measures = np.random.default_rng(21).dirichlet(np.full(30, 2.0), size=8)
    inst = barycenter_problem(measures, grid_cost(30), 0.05, Topology.ring(8))

    def run(**config):
        return run_distributed("spdstm", inst, {"eps": 5e-3, **config})[1]
    return SimpleNamespace(run=run, ascents=ascents, bounds=bounds)


def _measured(trace):
    return sum(row["dual_gap"] is not None for row in trace.rows)


@pytest.mark.parametrize("metric_every, ascents", [(0, 0), (50, 8)])
def test_barycenter_run_ascends_only_for_R_y_and_the_primal_value(barycenter_ot, metric_every,
                                                                   ascents):
    # at a fixed N no decision reads R_y, whose guard passes every norm up to DIVERGENCE_FACTOR:
    # the only ascents are f(x~)'s, one per node in the final metric
    trace = barycenter_ot.run(N=50, metric_every=metric_every)
    assert (len(barycenter_ot.ascents), barycenter_ot.bounds) == (ascents, [])
    assert _measured(trace) == (metric_every > 0)


def test_barycenter_auto_N_ascends_for_R_y_in_set_up(barycenter_ot):
    # the plan reads R_y before any step: 8 ascents more than the same run at a fixed N
    trace = barycenter_ot.run(N="auto", metric_every=0)
    assert (len(barycenter_ot.ascents), barycenter_ot.bounds) == (8, [0])
    assert trace.final["iter"] > 50 and not trace.flags  # a plan the cap did not stop


@pytest.mark.parametrize("stop_gap", [-1e9, 1e9])
def test_barycenter_stop_gap_ascends_for_R_y_once_a_gap_reaches_it(barycenter_ot, stop_gap):
    # the test ||A x~|| R_y <= eps runs only on a measured gap at most stop_gap: never at -1e9,
    # and at 1e9 from the first metric on (after its 8 ascents), R_y computed once
    trace = barycenter_ot.run(N=50, metric_every=10, stop_gap=stop_gap)
    reached = stop_gap > 0
    assert _measured(trace) == 5
    assert barycenter_ot.bounds == ([8] if reached else [])
    assert len(barycenter_ot.ascents) == 8 * 5 + 8 * reached


def test_barycenter_given_R_y_ascends_for_none(barycenter_ot):
    # a given constant replaces the bound in the plan and in the stop test
    trace = barycenter_ot.run(N="auto", metric_every=10, stop_gap=1e9, R_y=2.0)
    assert barycenter_ot.bounds == []
    assert len(barycenter_ot.ascents) == 8 * _measured(trace) > 0


def test_barycenter_guard_ascends_for_R_y_above_the_divergence_factor(barycenter_ot,
                                                                     monkeypatch):
    # an iterate norm above DIVERGENCE_FACTOR is weighed against R_y: the first step's trips it
    monkeypatch.setattr(optdec.dual, "DIVERGENCE_FACTOR", 1e-12)
    with pytest.raises(DivergenceError) as caught:
        barycenter_ot.run(N=50, metric_every=0)
    assert (len(barycenter_ot.ascents), barycenter_ot.bounds) == (8, [0])
    assert caught.value.trace.final["iter"] == 0


# ---------------------------------------------------------------------------
# file formats


def test_measure_and_cost_csv_round_trip(tmp_path):
    measures = np.array([[0.25, 0.75], [0.5, 0.5]])
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    mpath = tmp_path / "measures.csv"
    cpath = tmp_path / "cost.csv"
    np.savetxt(mpath, measures, delimiter=",")
    np.savetxt(cpath, C, delimiter=",")
    assert np.allclose(load_measures_csv(mpath), measures)
    assert np.allclose(load_cost_csv(cpath), C)


def test_measures_csv_rejects_non_simplex(tmp_path):
    bad = tmp_path / "bad.csv"
    np.savetxt(bad, np.array([[0.5, 0.6]]), delimiter=",")
    with pytest.raises(ValueError):
        load_measures_csv(bad)


def test_cost_csv_rejects_negative(tmp_path):
    bad = tmp_path / "bad.csv"
    np.savetxt(bad, np.array([[0.0, -1.0], [1.0, 0.0]]), delimiter=",")
    with pytest.raises(ValueError):
        load_cost_csv(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_transport_inputs_must_be_finite(tmp_path, value):
    bad = tmp_path / "bad.csv"
    np.savetxt(bad, np.array([[0.0, value], [1.0, 0.0]]), delimiter=",")
    with pytest.raises(ValueError, match="finite"):
        load_cost_csv(bad)
    np.savetxt(bad, np.array([[value, 0.5]]), delimiter=",")
    with pytest.raises(ValueError, match="finite"):
        load_measures_csv(bad)
    measures, C = np.array([[0.3, 0.7], [0.6, 0.4]]), np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        barycenter_problem(measures, np.array([[0.0, value], [1.0, 0.0]]), 0.5, Topology.path(2))
    with pytest.raises(ValueError, match="finite"):
        barycenter_problem(np.array([[value, 0.5], [0.6, 0.4]]), C, 0.5, Topology.path(2))
    with pytest.raises(ValueError, match="finite"):
        entropic_wasserstein(measures[0], measures[1], np.array([[0.0, value], [1.0, 0.0]]), 0.5)
    with pytest.raises(ValueError, match="finite"):
        entropic_wasserstein(np.array([value, 0.5]), measures[1], C, 0.5)


_Q, _COST = np.array([0.3, 0.7]), np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("call, message", [
    (lambda: entropic_ot_dual_value(np.zeros(2), _Q, _COST, 0.0), "mu must be positive"),
    (lambda: entropic_ot_dual_grad(np.zeros(3), _Q, np.ones((3, 3)), 0.5),
     r"cost must have one column per atom of q \(2\), got shape \(3, 3\)"),
    (lambda: entropic_wasserstein(np.array([0.2, 0.3, 0.5]), _Q, _COST, 0.5),
     r"cost must have one row per atom of p \(3\), got shape \(2, 2\)"),
    (lambda: barycenter_problem(np.array([_Q, _Q[::-1]]), _COST, -1.0, Topology.path(2)),
     "mu must be positive"),
    (lambda: barycenter_problem(np.array([_Q, [0.6, 0.4 + 5e-11]]), _COST, 0.5, Topology.path(2)),
     "problem.measures row 2 must be finite and lie in the probability simplex"),
], ids=["dual_value_mu_zero", "dual_grad_cost_too_wide", "wasserstein_cost_too_short",
        "barycenter_mu_negative", "barycenter_row_off_by_5e-11"])
def test_an_entropic_function_refuses_a_value_outside_its_domain(call, message):
    # optdec run checks mu and the cost in its problem table; a library caller reaches these
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_wasserstein_refuses_a_nan_residual(monkeypatch):
    # res > tol is False for NaN: the solve must not return it as converged
    monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: np.nan)
    with pytest.raises(RuntimeError, match="did not reach"):
        entropic_wasserstein(np.array([0.3, 0.7]), np.array([0.6, 0.4]),
                             np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5, max_iter=3)
