"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line (run with ``pytest -s`` to see them inline).

Tolerances are pinned here; every expected value is either a closed form,
a brute-force solve performed in the test, or a Monte-Carlo quantity with
its stated slack.
"""

import math
import time

import numpy as np

from conftest import fd_grad
from optdec import (DecentralizedInstance, DualOracle, FirstOrderOracle,
                    NoiseSpec, Topology, build_penalty, entropic_ot_dual_grad,
                    entropic_ot_dual_value, entropic_wasserstein,
                    projected_gradient_barycenter,
                    QuadraticProblem, random_quadratic, restarted_rrma,
                    run_distributed, spdstm, stm, stm_ips,
                    barycenter_problem)
from optdec.primal import _inner_prox_stm, default_inner_budget, default_inner_delta
from optdec.problems import constrained_quadratic_optimum, min_norm_dual_solution
from optdec.schedules import (next_alpha_spdstm, next_alpha_stm,
                              next_alpha_strongly_convex)
from optdec.cli import apply_sweep_value, execute_run, run_sweep, validate_config


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_stm_certificate():
    """Objective gap stays below 3 R0^2 / (2 A_N) on conditioned quadratics."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    violations = 0
    for trial in range(20):
        cond = 10.0 ** rng.uniform(0.5, 3.0)
        qp = random_quadratic(10, cond, rng)
        x0 = rng.standard_normal(10)
        R0 = np.linalg.norm(x0 - qp.x_star)
        _, trace = stm(qp.oracle(), x0, 500, f_star=qp.f_star, x_star=qp.x_star)
        A = trace.column("A_k")
        gaps = trace.column("f_gap")
        violations += int(np.sum(gaps[10:501] > 1.5 * R0 ** 2 / A[10:501] + 1e-12))
    elapsed = time.time() - t0
    report(1, violations == 0 and elapsed < 5.0,
           f"certificate violations={violations}/ (20 x N in 10..500), {elapsed:.2f}s")


def test_criterion_2_step_sequence_laws():
    """Coupling-relation residual at machine scale; geometric lower bound."""
    worst = 0.0
    for L in (0.1, 1.0, 10.0):
        for mu in (0.1, 1.0, 10.0):
            A = 1.0 / L
            for _ in range(1000):
                if A > 1e140:  # float64 range cap for alpha^2
                    break
                alpha, A_next = next_alpha_strongly_convex(A, L, mu)
                lhs = A_next * (1.0 + A * mu)
                worst = max(worst, abs(lhs - L * alpha ** 2) / lhs)
                A = A_next
    growth_ok = True
    for L, mu in ((1.0, 1.0), (2.0, 0.5), (10.0, 0.1), (0.1, 10.0)):
        A = 1.0 / L
        rate = (1.0 + 0.5 * math.sqrt(mu / L)) ** 2
        for k in range(1, 101):
            _, A = next_alpha_strongly_convex(A, L, mu)
            growth_ok &= A >= (1.0 / L) * rate ** k * (1.0 - 1e-12)
    report(2, worst <= 1e-12 and growth_ok,
           f"max relation residual {worst:.2e}, geometric bound ok={growth_ok}")


def test_criterion_3_penalty_transfer():
    """Penalty accuracy eps transfers to objective gap and feasibility."""
    rng = np.random.default_rng(7)
    eps = 1e-3
    wins = 0
    for trial in range(20):
        qp = random_quadratic(4, 10.0, rng)
        A = rng.standard_normal((2, 4))
        y_star, _ = min_norm_dual_solution(qp.Q, qp.b, A)
        R_y = max(float(np.linalg.norm(y_star)), 1e-6)
        pen = build_penalty(qp.oracle(), A, R_y, eps)
        x_F = np.linalg.solve(qp.Q + 2.0 * pen.coeff * pen.AtA, qp.b)
        F_star = pen.F_value(x_F)
        x0 = np.zeros(4)
        R0 = np.linalg.norm(x0 - x_F)
        Acc, N = 0.0, 0
        while 1.5 * R0 ** 2 / max(Acc, 1e-300) > eps:
            N += 1
            _, Acc = next_alpha_stm(Acc, qp.L, 0.0, factor=2.0)
        x, _ = stm_ips(pen, x0, N, prox_mode="exact")
        x_c, f_c = constrained_quadratic_optimum(qp.Q, qp.b, A)
        premise = pen.F_value(x) - F_star <= eps * (1 + 1e-12)
        f_ok = qp.value(x) - f_c <= eps * (1 + 1e-12)
        feas_ok = np.linalg.norm(A @ x) <= 2.0 * eps / R_y * (1 + 1e-12)
        wins += premise and f_ok and feas_ok
    report(3, wins == 20, f"transfer holds on {wins}/20 random constrained quadratics")


def test_criterion_4_inner_accuracy_contract():
    """Realized inner gap <= delta ||z^k - z_hat||^2 at every outer step."""
    qp = QuadraticProblem(np.eye(2), np.array([1.0, 3.0]))
    A = np.array([[1.0, -1.0]])
    y_star, _ = min_norm_dual_solution(qp.Q, qp.b, A)
    pen = build_penalty(qp.oracle(), A, float(np.linalg.norm(y_star)), 5e-2)
    N = 40
    delta = qp.L / (64.0 * (pen.L_h + qp.L) * N ** 3)
    assert delta == default_inner_delta(qp.L, pen.L_h, N)

    ok = True
    x_avg = np.zeros(2)
    z = np.zeros(2)
    Acc = 0.0
    worst_ratio = 0.0
    for k in range(N):
        alpha, A_next = next_alpha_stm(Acc, qp.L, 0.0, factor=2.0)
        x_tilde = (Acc * x_avg + alpha * z) / A_next
        lin = qp.gradient(x_tilde)
        z_hat = pen.prox_solver(z, alpha, lin)
        # the subproblem is quadratic with Hessian H; the realized gap is
        # the exact quadratic form 0.5 (z - z_hat)^T H (z - z_hat), which
        # stays accurate at magnitudes far below float subtraction noise
        H = np.eye(2) + 2.0 * alpha * pen.coeff * pen.AtA

        z_new, _, converged = _inner_prox_stm(
            pen, z, alpha, lin, delta, default_inner_budget(alpha, pen.L_h, N))
        d = z_new - z_hat
        realized = 0.5 * float(d @ H @ d)
        allowance = delta * np.sum((z - z_hat) ** 2)
        ok &= converged and realized <= allowance * (1.0 + 1e-6) + 1e-30
        if allowance > 0:
            worst_ratio = max(worst_ratio, realized / allowance)
        z = z_new
        x_avg = (Acc * x_avg + alpha * z) / A_next
        Acc = A_next
    report(4, ok, f"inner contract held for all {N} steps "
                  f"(worst realized/allowed ratio {worst_ratio:.2e})")


def shifted_pair(noise=None):
    c = np.array([1.0, 3.0])
    oracle = FirstOrderOracle(2, lambda x: 0.5 * float(np.sum((x - c) ** 2)),
                              lambda x: x - c, L=1.0, mu=1.0)
    dual = DualOracle(oracle, np.array([[1.0, -1.0]]), lambda u: u + c,
                            noise=noise)
    return oracle, dual


def test_criterion_5_spdstm_noiseless():
    """Duality gap and feasibility targets on the shifted quadratic, N <= 500.

    Noiseless runs use the uninflated schedule (L~ = L_psi): the factor-2
    inflation exists to absorb stochastic error and the pinned tolerances
    are unreachable with it at N = 500 (the residual is ||z_N|| / A_N).
    """
    oracle, dual = shifted_pair()
    R_y = 1.0
    y, x, trace = spdstm(dual, 500, 1e-4, 0.1, L_tilde_factor=1.0, metric_every=500)
    gap = trace.final["dual_gap"]
    feas = trace.final["constraint_norm"]
    ok = gap <= 1e-4 and feas <= 1e-4 / R_y
    report(5, ok, f"gap={gap:.3e} (<=1e-4), ||A x~||={feas:.3e} (<=1e-4) at N=500")


def test_criterion_6_spdstm_stochastic():
    """>= 45/50 seeds end within eps under the growing-batch rule."""
    t0 = time.time()
    eps, beta, sigma_x = 5e-3, 0.05, 0.1
    A, N = 0.0, 0
    _, dual_probe = shifted_pair()
    while 1.5 / max(A, 1e-300) > eps:
        N += 1
        _, A = next_alpha_spdstm(A, 2.0 * dual_probe.L_psi)
    hits = 0
    for seed in range(50):
        oracle, dual = shifted_pair(NoiseSpec(0.0, sigma_x, "gaussian"))
        _, _, trace = spdstm(dual, N, eps, beta, seed=seed, metric_every=N)
        hits += trace.final["dual_gap"] <= eps
    elapsed = time.time() - t0
    report(6, hits >= 45 and elapsed < 60.0,
           f"{hits}/50 seeds within eps={eps} at N={N}, {elapsed:.1f}s")


def test_criterion_7_restart_contraction():
    """Per-restart halving recurrence and final gradient-norm target."""
    rng = np.random.default_rng(1234)
    eps = 1e-2
    bound_total = bound_ok = 0
    finals = 0
    for run in range(100):
        qp = random_quadratic(4, 10.0, rng)
        A = rng.standard_normal((2, 4))
        dual = DualOracle(qp.oracle(), A, qp.conjugate_argmax)
        y_star, _ = min_norm_dual_solution(qp.Q, qp.b, A)
        R_y = max(float(np.linalg.norm(y_star)), 1e-9)
        _, trace = restarted_rrma(dual, np.zeros(2), eps, 0.1, R_y=R_y)
        gn = trace.column("grad_norm")
        for k in range(1, len(gn)):
            bound_total += 1
            bound_ok += gn[k] ** 2 <= gn[k - 1] ** 2 / 2.0 + eps ** 2 / (4 * R_y ** 2) + 1e-18
        finals += gn[-1] <= eps / R_y
    frac = bound_ok / bound_total
    report(7, frac >= 0.95 and finals == 100,
           f"contraction at {frac:.1%} of boundaries, final target {finals}/100")


def test_criterion_8_subspace_invariant():
    """Iterates stay in y0 + Im(A) to 1e-10 over 1e3 steps, rank-deficient A."""
    rng = np.random.default_rng(17)
    qp = random_quadratic(3, 8.0, rng)
    A = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3))  # rank 2
    dual = DualOracle(qp.oracle(), A, qp.conjugate_argmax)
    U, s, _ = np.linalg.svd(A)
    kernel = U[:, 2:]
    y0 = rng.standard_normal(4)

    worst = 0.0
    # instrumented run: check every iterate, not just the last one
    y = y0.copy()
    z0 = y0.copy()
    z = y0.copy()
    L, mu = dual.L_psi, dual.mu_psi
    alpha = Acc = 1.0 / L
    g = dual.grad(y)
    s_mu_y = alpha * mu * y.copy()
    s_g = alpha * g
    for k in range(1000):
        alpha, A_next = next_alpha_strongly_convex(Acc, L, mu)
        y_tilde = (Acc * y + alpha * z) / A_next
        g = dual.grad(y_tilde)
        s_mu_y = s_mu_y + alpha * mu * y_tilde
        s_g = s_g + alpha * g
        z = (z0 + s_mu_y - s_g) / (1.0 + A_next * mu)
        y = (Acc * y + alpha * z) / A_next
        Acc = A_next
        for point in (y_tilde, z, y):
            worst = max(worst, float(np.linalg.norm(kernel.T @ (point - y0))))
    report(8, worst <= 1e-10, f"max kernel leakage {worst:.2e} over 1000 iterations")


def test_criterion_9_decentralized_equivalence():
    """Distributed solutions match the centralized constrained optimum."""
    rng = np.random.default_rng(99)
    topo_makers = (Topology.ring, Topology.star, Topology.path)
    matches = 0
    accounting_ok = True
    for i in range(10):
        m = int(rng.integers(4, 9))
        topo = topo_makers[i % 3](m)
        cs = rng.standard_normal((m, 2))
        locals_ = []
        for k in range(m):
            qp = QuadraticProblem(np.eye(2), cs[k])
            o = qp.oracle()
            o.x_star = qp.x_star
            locals_.append(o)
        inst = DecentralizedInstance(locals_, topo, 2)
        x_nodes, trace, comm = run_distributed(
            "sstm_sc", inst, {"eps": 1e-5, "stop_grad_norm": 1e-6, "max_N": 50000})
        Qs = np.eye(2 * m) / m
        bs = cs.reshape(-1) / m
        x_c, _ = constrained_quadratic_optimum(Qs, bs, inst.pair.sqrtW)
        matches += np.abs(x_nodes.reshape(-1) - x_c).max() <= 1e-3
        # one multiplication pair per dual evaluation: the defining one, one
        # per iteration, one recovery; metric evaluations are free
        iters = trace.final["iter"]
        accounting_ok &= comm.comm_rounds == 2 * (iters + 1) + 2
        accounting_ok &= comm.comm_rounds == trace.final["comm_rounds"]

    # badly conditioned path vs complete graph on m = 8
    iters = {}
    for name, topo in (("P8", Topology.path(8)), ("K8", Topology.complete(8))):
        cs = np.random.default_rng(300).standard_normal((8, 2))
        locals_ = []
        for k in range(8):
            qp = QuadraticProblem(np.eye(2), cs[k])
            o = qp.oracle()
            o.x_star = qp.x_star
            locals_.append(o)
        inst = DecentralizedInstance(locals_, topo, 2)
        _, trace, _ = run_distributed(
            "sstm_sc", inst, {"eps": 1e-4, "stop_grad_norm": 1e-5, "max_N": 50000})
        iters[name] = trace.final["iter"]
    ratio = iters["P8"] / iters["K8"]
    report(9, matches == 10 and accounting_ok and ratio >= 1.3,
           f"equivalence {matches}/10, round accounting exact: {accounting_ok}, "
           f"P8/K8 iteration ratio {ratio:.2f}")


def test_criterion_10_entropic_transport():
    """Marginal identities, brute-force value match, barycenter recovery."""
    t0 = time.time()
    rng = np.random.default_rng(5)

    # (a) gradient is a probability vector, 1e3 random instances
    marginal_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        q = rng.dirichlet(np.ones(n))
        C = rng.random((n, n))
        lam = rng.standard_normal(n)
        mu = 10.0 ** rng.uniform(-2, 0.5)
        g = entropic_ot_dual_grad(lam, q, C, mu)
        marginal_ok &= bool(np.all(g >= 0) and abs(g.sum() - 1.0) <= 1e-12)

    # (b) finite differences
    q = rng.dirichlet(np.ones(4))
    C = rng.random((4, 4))
    lam = rng.standard_normal(4)
    g = entropic_ot_dual_grad(lam, q, C, 0.3)
    g_fd = fd_grad(lambda l: entropic_ot_dual_value(l, q, C, 0.3), lam)
    fd_ok = np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g)) <= 1e-6

    # (c) n = 2 brute force over the single transport degree of freedom
    p2, q2 = np.array([0.3, 0.7]), np.array([0.6, 0.4])
    C2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    mu2 = 0.5

    def plan_cost(t):
        pi = np.clip(np.array([[t, p2[0] - t], [q2[0] - t, 1 - p2[0] - q2[0] + t]]),
                     1e-300, None)
        return float((C2 * pi).sum() + mu2 * (pi * np.log(pi)).sum())

    ts = np.linspace(max(0, p2[0] + q2[0] - 1) + 1e-12, min(p2[0], q2[0]) - 1e-12, 40001)
    brute = min(plan_cost(t) for t in ts)
    val, _ = entropic_wasserstein(p2, q2, C2, mu2, tol=1e-10)
    brute_ok = abs(val - brute) <= 1e-5

    # (d) barycenter of identical measures recovers the measure
    n, m = 5, 3
    atoms = np.linspace(0.0, 1.0, n)
    Cn = np.abs(atoms[:, None] - atoms[None, :])
    meas_q = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
    inst = barycenter_problem(np.tile(meas_q, (m, 1)), Cn, 0.02, Topology.ring(m))
    x_nodes, _, _ = run_distributed(
        "spdstm", inst, {"eps": 1e-6, "beta": 0.1, "N": 50, "metric_every": 0})
    identical_err = float(np.abs(x_nodes - meas_q).max())

    # (e) m = 2 barycenter against centralized projected gradient
    meas2 = np.array([[0.3, 0.7], [0.6, 0.4]])
    inst2 = barycenter_problem(meas2, C2, mu2, Topology.path(2))
    xb, _, _ = run_distributed(
        "spdstm", inst2, {"eps": 1e-7, "beta": 0.1, "N": 30_000, "metric_every": 0})
    p_ref = projected_gradient_barycenter(meas2, C2, mu2, iters=800)
    pgd_err = float(np.abs(xb - p_ref).max())

    elapsed = time.time() - t0
    ok = (marginal_ok and fd_ok and brute_ok and identical_err <= 1e-4
          and pgd_err <= 1e-3 and elapsed < 30.0)
    report(10, ok, f"marginals ok={marginal_ok}, fd ok={fd_ok}, brute diff ok={brute_ok}, "
                   f"identical err={identical_err:.1e}, pgd err={pgd_err:.1e}, {elapsed:.1f}s")


def test_criterion_11_scaling_laws():
    """sqrt(1/eps) iteration law and sqrt(chi) communication law."""
    base = {"method": "stm", "problem": {"kind": "quadratic", "dim": 6, "cond": 20.0},
            "eps": 1e-1, "seed": 1, "N": "auto"}
    values = ["1e-1", "1e-2", "1e-3"]
    rows = run_sweep("eps", values, [validate_config(apply_sweep_value(base, "eps", v))
                                     for v in values])
    Ns = [row["iterations"] for row in rows]
    eps_ratios = [b / a for a, b in zip(Ns, Ns[1:])]
    eps_ok = all(2.0 <= r <= 4.5 for r in eps_ratios)

    star = {"method": "sstm_sc",
            "problem": {"kind": "consensus_quadratic", "n": 2,
                        "topology": {"kind": "star", "m": 4}},
            "eps": 1e-4, "seed": 3,
            "constants": {"stop_grad_norm": 1e-5, "metric_every": 1}}
    values = ["4", "8", "16"]
    rows = run_sweep("m", values, [validate_config(apply_sweep_value(star, "m", v))
                                   for v in values])
    normalized = [row["comm_rounds"] / math.sqrt(row["chi"]) for row in rows]
    chi_ok = max(normalized) / min(normalized) <= 1.5
    report(11, eps_ok and chi_ok,
           f"N(eps) decade ratios {['%.2f' % r for r in eps_ratios]} in [2, 4.5]; "
           f"rounds/sqrt(chi) spread {max(normalized)/min(normalized):.3f} <= 1.5")


def test_criterion_12_bias_floor():
    """Noiseless sstm_sc under a bias delta e_1 stops at ||grad psi|| = delta ||A e_1||."""
    A = np.random.default_rng((3, 2)).standard_normal((3, 6))  # the config's constraint rows
    A_e1 = float(np.linalg.norm(A[:, 0]))
    worst = 0.0
    for N in (200, 800):
        for delta in (1e-3, 1e-2, 1e-1):
            cfg = {"method": "sstm_sc",
                   "problem": {"kind": "penalty", "dim": 6, "m_rows": 3, "cond": 5.0},
                   "noise": {"delta": delta}, "eps": 0.01, "N": N, "seed": 3}
            _, summary = execute_run(validate_config(cfg))
            floor = delta * A_e1
            worst = max(worst, abs(summary["final_grad_norm"] - floor) / floor)
    # measured worst 1.6e-13 (delta 1e-3, N 200)
    report(12, worst <= 1e-12,
           f"grad norm floor is delta ||A e_1|| ({A_e1:.4f}) to {worst:.1e} relative "
           f"(<= 1e-12) at delta 1e-3, 1e-2, 1e-1 and N 200, 800")
