"""Primal accelerated solvers: STM, its mini-batch variant, the quadratic
penalty reformulation of affine constraints, and STM with inexact proximal
steps for smooth composite objectives.

The triangle scheme maintains three coupled sequences: an extrapolation
point ``x~`` (convex combination of the averaged iterate and the mirror
point), a mirror point ``z`` updated from the gradient at ``x~``, and the
averaged iterate ``x``; every loop here runs on
:func:`optdec.schedules.triangle`.  The mirror update in the strongly
convex mode is

    ``z_{k+1} = z_k - alpha (g - mu (x~ - z_k)) / (1 + A_{k+1} mu)``

because this pull-back form keeps the optimum a fixed point, while the
variant with denominator ``1 + mu`` and no ``z_k`` pull-back has no fixed
point at a shifted optimum.
"""

from __future__ import annotations

import math

import numpy as np

from .oracles import (CallCounter, FirstOrderOracle, RngStreams, StochasticGradientOracle,
                      constraint_gram, spectrum)
from .problems import constrained_quadratic_optimum
from .schedules import batch_size_sstm, stm_step, triangle
from .trace import RunTrace

__all__ = [
    "CompositeProblem",
    "PenaltyProblem",
    "stm",
    "sstm",
    "build_penalty",
    "stm_ips",
    "default_inner_budget",
    "verify_penalty_transfer",
    "argmax_solver_via_stm",
]


# ---------------------------------------------------------------------------
# deterministic / stochastic STM


def _pull_back(mu):
    """Strongly convex mirror update (see the module docstring).

    Bitwise ``z - alpha (g - mu (x~ - z)) / (1 + A' mu)``, evaluated in the
    same order in place on the one temporary ``x~ - z``.  ``mu`` and
    ``alpha`` scale it as 0-d float64 arrays: numpy scales a vector by one
    faster than by a Python float, with the same bits.
    """
    mu_arr = np.array(mu, dtype=float)

    def mirror(z, g, x_tilde, alpha, A_next):
        t = x_tilde - z
        t *= mu_arr
        np.subtract(g, t, t)
        t *= np.array(alpha)
        t /= 1.0 + A_next * mu
        return np.subtract(z, t, t)
    return mirror


def _R0(x0, x_star) -> dict:
    """A solver's only trace metadata: ``R0 = ||x0 - x*||`` when ``x_star`` is known."""
    return {} if x_star is None else {"R0": format(float(np.linalg.norm(x0 - x_star)), ".17g")}


def _run_triangle(oracle, x0, N, mode, step_factor, gradient_source, f_star, x_star):
    if mode not in ("convex", "strongly_convex"):
        raise ValueError(f"unknown mode {mode!r}")
    mu = oracle.mu if mode == "strongly_convex" else 0.0
    if mode == "strongly_convex" and oracle.mu <= 0:
        raise ValueError("strongly_convex mode requires oracle.mu > 0")
    if oracle.L <= 0:
        raise ValueError("oracle.L must be positive")

    x = np.array(x0, dtype=float)
    trace = RunTrace(_R0(x, x_star))

    def gap(point):
        return None if f_star is None else float(oracle.value(point)) - f_star

    def after(k, x_avg, z, A):
        trace.record(k + 1, A, oracle.counter, f_gap=gap(x_avg))

    trace.record(0, 0.0, oracle.counter, f_gap=gap(x))
    x_avg, _, _ = triangle(
        stm_step(oracle.L, mu, step_factor), 0.0, x, x, N, gradient_source,
        _pull_back(mu) if mu != 0.0 else lambda z, g, x_tilde, alpha, A_next: z - alpha * g,
        after)
    return x_avg, trace


def stm(oracle: FirstOrderOracle, x0, N: int, mode: str = "convex", *,
        step_factor: float = 2.0, f_star=None, x_star=None):
    """Accelerated triangle scheme on an L-smooth convex objective.

    Returns ``(x_N, trace)``.  With ``f_star`` given the trace records the
    objective gap each iteration; with ``x_star`` given the metadata
    carries ``R0 = ||x0 - x*||`` so the certificate ``3 R0^2 / (2 A_N)``
    can be recomputed from the trace.  ``N = 0`` returns ``x0``.
    """
    return _run_triangle(
        oracle, x0, N, mode, step_factor,
        lambda k, xt, a, An: oracle.eval_grad(xt),
        f_star, x_star)


def sstm(oracle: StochasticGradientOracle, x0, N: int, eps: float, beta: float,
         mode: str = "convex", *, seed: int = 0, step_factor: float = 2.0,
         f_star=None, x_star=None):
    """Mini-batch variant of :func:`stm`.

    The gradient at each extrapolation point is a batch mean whose size
    grows like ``sigma^2 alpha_{k+1} log(N/beta) / ((1 + A_{k+1} mu) eps)``
    so that the stochastic error stays below the deterministic decrease.
    """
    streams = RngStreams(seed)
    mu = oracle.base.mu if mode == "strongly_convex" else 0.0

    def source(k, x_tilde, alpha, A_next):
        r = batch_size_sstm(alpha, A_next, mu, oracle.noise.sigma, eps, N, beta)
        return oracle.batch(x_tilde, r, streams.child(k))

    return _run_triangle(oracle.base, x0, N, mode, step_factor, source, f_star, x_star)


# ---------------------------------------------------------------------------
# composite problems and the quadratic penalty


class CompositeProblem:
    """Smooth composite ``F = f + h``, both L-smooth; each ``grad_h`` is one ``matvec_AtA``."""

    def __init__(self, f: FirstOrderOracle, h_value, h_gradient, L_h: float,
                 prox_solver=None):
        self.f = f
        self.h_value = h_value
        self.h_gradient = h_gradient
        self.L_h = float(L_h)
        self.prox_solver = prox_solver

    @property
    def counter(self) -> CallCounter:
        return self.f.counter

    def F_value(self, x):
        return float(self.f.value(x)) + float(self.h_value(x))

    def grad_h(self, z):
        self.f.counter.matvec_AtA += 1
        return self.h_gradient(z)


class PenaltyProblem(CompositeProblem):
    """Penalised form of ``min f(x)  s.t.  A x = 0``.

    ``h(x) = (R_y^2 / eps) ||A x||^2`` with ``R_y`` a bound on the norm of
    the minimal dual solution.  Driving ``F = f + h`` to accuracy ``eps``
    transfers to ``f``-gap at most ``eps`` and ``||A x|| <= 2 eps / R_y``.
    ``grad h(z) = H z`` with the penalty matrix ``H = 2 (R_y^2 / eps) A^T A``,
    scaled once here, so each ``grad_h`` is the one product ``H.dot(z)``
    and is counted as one ``A^T A`` product.  A coefficient or ``L_h`` that
    is not finite raises ``ArithmeticError`` before any step.
    """

    def __init__(self, base: FirstOrderOracle, A, R_y: float, eps: float):
        if eps <= 0 or R_y <= 0:
            raise ValueError("eps and R_y must be positive")
        A, AtA = constraint_gram(A, base.dim)
        self.base = base
        self.A = A
        self.R_y = float(R_y)
        self.eps = float(eps)
        self.AtA = AtA
        try:  # on Python floats, whatever type R_y and eps come in: numpy would warn
            self.coeff = self.R_y ** 2 / self.eps
        except OverflowError:  # a Python float's ``**`` raises where numpy gives inf
            self.coeff = math.inf
        lam_max = spectrum(AtA)[0]
        self.lam_max_AtA = lam_max
        coeff = self.coeff
        L_h = 2.0 * coeff * float(lam_max)
        if not math.isfinite(L_h):  # so is a coefficient that is not finite: lam_max > 0
            raise ArithmeticError(f"penalty coefficient R_y^2/eps = {coeff:g} (R_y {R_y:g}, "
                                  f"eps {eps:g}) gives L_h = {L_h:g}, which is not finite")
        H = 2.0 * coeff * AtA

        # the closures and ``H.dot`` hold arrays, not ``self``: no reference cycle
        def h_value(x):
            Ax = A @ x
            return coeff * float(Ax @ Ax)

        def prox_solver(z_k, alpha, lin):
            # exact minimiser of 0.5||z - z_k||^2 + alpha(<lin, z> + h(z))
            M = np.eye(base.dim) + (2.0 * alpha * coeff) * AtA
            return np.linalg.solve(M, z_k - alpha * lin)

        super().__init__(base, h_value, H.dot, L_h, prox_solver=prox_solver)


def build_penalty(base: FirstOrderOracle, A, R_y: float, eps: float) -> PenaltyProblem:
    """Penalty view of the affinely constrained problem (see :class:`PenaltyProblem`)."""
    return PenaltyProblem(base, A, R_y, eps)


def default_inner_delta(L: float, L_h: float, N: int) -> float:
    """Inner accuracy making the inexactness negligible over ``N`` steps."""
    return L / (64.0 * (L_h + L) * N ** 3)


def default_inner_budget(alpha: float, L_h: float, N: int) -> int:
    """Iteration cap for one proximal subproblem: ``sqrt(kappa) log(kappa N^3)``."""
    kappa = alpha * L_h + 1.0
    return max(1, math.ceil(math.sqrt(kappa) * math.log(max(kappa * N ** 3, 2.0))))


def _inner_prox_stm(problem, z_k, alpha, lin, delta, budget):
    """Approximately minimise ``g(z) = 0.5||z - z_k||^2 + alpha(<lin,z> + h(z))``.

    Runs the strongly convex triangle scheme (g is 1-strongly convex and
    ``(alpha L_h + 1)``-smooth) from the warm start ``c0 = z_k - alpha lin``,
    stopping early once the gradient norm certifies the delta-solution
    contract: ``gap <= 0.5 ||grad g||^2`` together with the lower bounds
    ``||z_k - z_hat|| >= ||grad g(z_k)|| / L_g`` and
    ``>= ||z_k - z|| - ||grad g(z)||``.  If the budget runs out the step is
    still returned; non-convergence means the gradient norm stagnated
    (no material decrease over the whole budget).

    Returns ``(z, certified_gap_bound, converged)``.

    Split form: ``grad g(z) = (z - c0) + alpha grad_h(z)``.  With ``mu = 1``
    the pull-back ``z - a (grad g(x~) - (x~ - z)) / (1 + A')`` is
    ``z - s ((z - c0) + alpha grad_h(x~))`` with ``s = a / (1 + A')``: ``x~``
    cancels, so the triangle's gradient is ``grad_h(x~)`` alone, and only
    the certificate builds a full ``grad g``.  ``alpha`` and ``s`` scale
    vectors as 0-d arrays (see :func:`_pull_back`), and a norm is
    ``sqrt(v.dot(v))``.  Each step makes two ``problem.grad_h`` calls (at
    ``x~`` and at the average), and the start two more (at ``z_k`` and
    ``c0``), so ``matvec_AtA`` rises by ``2 + 2 (inner steps)``.
    """
    L_g = alpha * problem.L_h + 1.0
    c0 = z_k - alpha * lin
    alpha_arr = np.array(alpha, dtype=float)
    grad_h = problem.grad_h

    def grad_g(z):
        v = z - c0
        v += alpha_arr * grad_h(z)
        return v

    def certify(z):
        """``(||grad g(z)||, whether z meets the contract)``."""
        v = grad_g(z)
        gn = math.sqrt(v.dot(v))
        v = z - z_k
        lb = max(lb_static, math.sqrt(v.dot(v)) - gn)
        return gn, gn * gn / 2.0 <= delta * lb * lb

    def mirror(z, g, x_tilde, a, A_next):
        t = z - c0
        t += alpha_arr * g
        t *= np.array(a / (1.0 + A_next))
        return np.subtract(z, t, t)

    v = grad_g(z_k)
    lb_static = math.sqrt(v.dot(v)) / L_g
    gn, ok = certify(c0)
    gn0 = gn

    def after(k, x_avg, z, A):
        nonlocal gn, ok
        gn, ok = certify(x_avg)
        return ok

    x = c0
    if not ok:
        x, _, _ = triangle(stm_step(L_g, 1.0, 2.0), 0.0, c0, c0, budget,
                           lambda k, x_tilde, a, A_next: grad_h(x_tilde), mirror, after)
    # on budget exhaustion trust the step unless the gradient norm stagnated
    return x, gn * gn / 2.0, ok or not gn > 1e-2 * gn0


def stm_ips(problem: CompositeProblem, x0, N: int, inner_T: int | None = None, *,
            prox_mode: str = "inner_stm", F_star=None, x_star=None):
    """Triangle scheme with inexact proximal steps on ``F = f + h``.

    Each outer step minimises
    ``g_{k+1}(z) = 0.5||z^k - z||^2 + alpha_{k+1}(f(x~) + <grad f(x~), z - x~> + h(z))``
    to relative accuracy ``delta = L / (64 (L_h + L) N^3)``,
    either by an inner strongly convex triangle run (``inner_stm``) or by
    the problem's exact proximal solver (``exact``).  Inner non-convergence
    within the budget is flagged in the trace and the run continues.  With
    ``x_star`` given the metadata carries ``R0``, as in :func:`stm`.

    Returns ``(x_N, trace)``.
    """
    if prox_mode not in ("inner_stm", "exact"):
        raise ValueError(f"unknown prox_mode {prox_mode!r}")
    if prox_mode == "exact" and problem.prox_solver is None:
        raise ValueError("problem has no exact proximal solver")
    f = problem.f
    delta = default_inner_delta(f.L, problem.L_h, max(N, 1))

    x = np.array(x0, dtype=float)
    trace = RunTrace(_R0(x, x_star))

    def gap(point):
        return None if F_star is None else problem.F_value(point) - F_star

    def feas(point):
        if isinstance(problem, PenaltyProblem):
            return float(np.linalg.norm(problem.A @ point))
        return None

    def prox(z, lin, x_tilde, alpha, A_next):
        if prox_mode == "exact":
            return problem.prox_solver(z, alpha, lin)
        budget = inner_T if inner_T is not None else default_inner_budget(alpha, problem.L_h, N)
        z, _, ok = _inner_prox_stm(problem, z, alpha, lin, delta, budget)
        if not ok:
            # the trace holds the start row plus one row per finished step
            trace.flag(f"inner prox budget exhausted at outer step {len(trace.rows)}")
        return z

    def after(k, x_avg, z, A):
        trace.record(k + 1, A, problem.counter, f_gap=gap(x_avg), constraint_norm=feas(x_avg))

    trace.record(0, 0.0, problem.counter, f_gap=gap(x), constraint_norm=feas(x))
    x_avg, _, _ = triangle(stm_step(f.L, 0.0, 2.0), 0.0, x, x, N,
                           lambda k, x_tilde, a, A_next: f.eval_grad(x_tilde), prox, after)
    return x_avg, trace


def argmax_solver_via_stm(oracle: FirstOrderOracle, tol: float = 1e-10):
    """Build ``u -> argmax_x {<u, x> - f(x)}`` by inner accelerated solves.

    Fallback for primals without a closed-form conjugate: minimises
    ``f(x) - <u, x>`` (strongly convex) in at most 200 rounds of triangle
    steps, until the gradient norm reaches ``tol``.  Closed forms should be preferred
    whenever available.
    """
    if oracle.mu <= 0:
        raise ValueError("argmax solver requires a strongly convex oracle")

    def solve(u):
        u = np.asarray(u, dtype=float)
        shifted = FirstOrderOracle(
            oracle.dim,
            lambda x: oracle.value(x) - float(u @ x),
            lambda x: np.asarray(oracle.gradient(x), dtype=float) - u,
            oracle.L, oracle.mu)
        x = np.zeros(oracle.dim)
        chunk = max(8, int(np.ceil(np.sqrt(oracle.L / oracle.mu))) * 4)
        for _ in range(200):
            if np.linalg.norm(shifted.gradient(x)) <= tol:
                break
            x, _ = stm(shifted, x, chunk, mode="strongly_convex")
        return x

    return solve


def verify_penalty_transfer(x_N, problem: PenaltyProblem, F_star: float) -> dict:
    """Check the penalty-to-constrained transfer at ``x_N``.

    Given the premise ``F(x_N) - F_star <= eps`` (established by the
    caller, re-checked here), asserts the two conclusions against the true
    constrained optimum: objective gap at most ``eps`` and constraint
    residual at most ``2 eps / R_y``.  The constrained optimal value is
    computed by the closed-form null-space solve, so the base oracle must
    declare its ``quadratic``.
    """
    qp = problem.base.quadratic
    if qp is None:
        raise ValueError("the constrained optimum needs a quadratic base")
    _, f_constrained_star = constrained_quadratic_optimum(qp.Q, qp.b, problem.A)
    x_N = np.asarray(x_N, dtype=float)
    f_gap = float(problem.base.value(x_N)) - f_constrained_star
    constraint_norm = float(np.linalg.norm(problem.A @ x_N))
    premise = problem.F_value(x_N) - F_star
    return {
        "premise_ok": premise <= problem.eps * (1 + 1e-12),
        "f_gap_ok": f_gap <= problem.eps * (1 + 1e-12),
        "feasibility_ok": constraint_norm <= 2.0 * problem.eps / problem.R_y * (1 + 1e-12),
        "f_gap": f_gap,
        "constraint_norm": constraint_norm,
        "F_gap": premise,
    }
