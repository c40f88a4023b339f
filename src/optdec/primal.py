"""Primal accelerated solvers: STM, its mini-batch variant, the quadratic
penalty reformulation of affine constraints, and STM with inexact proximal
steps for smooth composite objectives.

The triangle scheme maintains three coupled sequences: an extrapolation
point ``x~`` (convex combination of the averaged iterate and the mirror
point), a mirror point ``z`` updated from the gradient at ``x~``, and the
averaged iterate ``x``; every loop here runs on
:func:`optdec.schedules.triangle` except the inner prox of :func:`stm_ips`,
a table of the same steps over stacked rows.  The strongly convex update is

    ``z_{k+1} = z_k - alpha (g - mu (x~ - z_k)) / (1 + A_{k+1} mu)``

because this pull-back form keeps the optimum a fixed point, while the
variant with denominator ``1 + mu`` and no ``z_k`` pull-back has no fixed
point at a shifted optimum.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .dual import _norm
from .oracles import (CallCounter, FirstOrderOracle, RngStreams, StochasticGradientOracle,
                      constraint_gram, spectrum)
from .problems import constrained_quadratic_optimum
from .schedules import batch_size_sstm, stm_chain, stm_step, triangle
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
    """A solver's trace metadata: ``R0 = ||x0 - x*||`` when ``x_star`` is known."""
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
    trace = RunTrace(oracle.counter, _R0(x, x_star))

    def gap(point):
        return None if f_star is None else float(oracle.value(point)) - f_star

    def after(k, x_avg, z, A):
        trace.record(k + 1, A, f_gap=gap(x_avg))

    trace.record(0, 0.0, f_gap=gap(x))
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
    """Smooth composite ``F = f + h``, both L-smooth; each ``grad_h`` is one ``matvec_AtA``.

    ``h_gradient(z, out)`` returns ``grad h(z)``: a new array for ``out`` None, else written
    into the array ``out`` and returned, as ``ndarray.dot(z, out)`` does.  ``grad_h(z, out)``
    counts one product and passes ``out`` on, so the inner prox of :func:`stm_ips` writes
    each gradient straight into its buffer.
    """

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

    def grad_h(self, z, out=None):
        self.f.counter.matvec_AtA += 1
        return self.h_gradient(z, out)


class PenaltyProblem(CompositeProblem):
    """Penalised form of ``min f(x)  s.t.  A x = 0``.

    ``h(x) = (R_y^2 / eps) ||A x||^2`` with ``R_y`` a bound on the norm of
    the minimal dual solution.  Driving ``F = f + h`` to accuracy ``eps``
    transfers to ``f``-gap at most ``eps`` and ``||A x|| <= 2 eps / R_y``.
    ``grad h(z) = H z`` with the penalty matrix ``H = 2 (R_y^2 / eps) A^T A``,
    scaled once here, so each ``grad_h`` is the one product ``H.dot(z, out)``
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
    """Iteration cap for one proximal subproblem: ``sqrt(kappa) log(kappa N^3)``,
    ``kappa = alpha L_h + 1``; ``ArithmeticError`` names both when it is not finite."""
    kappa = alpha * L_h + 1.0
    budget = math.sqrt(kappa) * math.log(max(kappa * N ** 3, 2.0))
    if not math.isfinite(budget):
        raise ArithmeticError(f"inner prox budget sqrt(kappa) log(kappa N^3) is not finite: "
                              f"kappa = alpha L_h + 1 = {kappa:g}, N = {N}")
    return max(1, math.ceil(budget))


@np.errstate(over="ignore")  # an overflow is an infinite norm, which ends the loop
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

    Table form: with ``grad g(z) = (z - c0) + alpha grad_h(z)`` and ``mu = 1``
    the mirror update is ``z' = (1 - s) z + s c0 - s alpha grad_h(x~)``,
    ``s = a / (1 + A')``, so each step is linear in the rows
    ``[x, z, c0, z_k, grad_h(x~), grad_h(x)]`` of a ``(6, n)`` buffer: a table
    row gives ``x~ = p x + q z`` (``p = A / A'``, ``q = a / A'``) and a
    ``(2, 6)`` block writes ``x' = p x + q z'`` and ``z'`` into the other
    buffer.  A fixed ``(2, 6)`` block gives ``[grad g(x), x - z_k]``, and its
    Gram matrix the certificate's two norms.  Two ``problem.grad_h`` calls per
    step (at ``x~`` and ``x'``), each written into its buffer row, and two at
    the start (at ``z_k`` and ``c0``): ``matvec_AtA`` rises by ``2 + 2 (inner
    steps)``.  A gradient norm that is not finite ends the loop; a product that
    overflows gives such a norm, and no numpy warning.  The table
    (:func:`_prox_step_table`) is built in blocks of at most
    :data:`_TABLE_BLOCK_CAP` steps as the loop reaches them, so a prox runs in
    bounded memory whatever its budget.

    Both lower bounds are at most ``||z_k - z_hat||``, so (strong convexity)
    at most ``far``, the least of ``||grad g(z_k)||`` and of ``||x - z_k|| +
    ||grad g(x)||`` over the certificates formed: a step certifies only if
    ``||grad g(x)||^2 <= 2 delta far^2``.  A step forms that norm alone, and
    the full certificate (:func:`_certificate`) only at ``k = 0``, at the
    budget's end, or on a norm not finite or below ``8 delta (far + L_g r)^2 +
    16 r^2``: the factor 4 and ``r = n eps (||z_k|| + ||c0||)`` allow for
    rounding, ``r`` where ``far`` is at rounding level (``z_k`` at ``z_hat``).
    """
    L_g = alpha * problem.L_h + 1.0
    grad_h = problem.grad_h
    c0 = z_k - alpha * lin
    lb_static = (far := _norm((z_k - c0) + alpha * grad_h(z_k))) / L_g
    r = len(c0) * np.finfo(float).eps * (_norm(z_k) + _norm(c0))
    bufs = np.empty((2, 6, len(c0)))
    bufs[:, :3], bufs[:, 3], bufs[:, 4:] = c0, z_k, 0.0
    # each buffer with its views: all rows, x, grad_h(x~), grad_h(x) and [x; z]
    cur, nxt = ((b, b[0], b[4], b[5], b[:2]) for b in bufs)
    x_tilde = np.empty(len(c0))
    certificate = np.array([[1.0, 0.0, -1.0, 0.0, 0.0, alpha], [1.0, 0.0, 0.0, -1.0, 0.0, 0.0]])
    gradient = certificate[0]
    steps = _prox_step_table(stm_step(L_g, 1.0, 2.0), alpha, budget)
    for k in itertools.count():
        buf, x, gh_tilde, gh_x, _ = cur
        grad_h(x, gh_x)
        if not (0 < k < budget and reach < (w := gradient.dot(buf)).dot(w) < math.inf):
            gn, ok, far = _certificate(certificate, buf, lb_static, delta, far)
            reach = 8.0 * delta * (far + L_g * r) * (far + L_g * r) + 16.0 * r * r
            gn0 = gn if k == 0 else gn0
            if ok or k >= budget or not math.isfinite(gn):
                break
        x_tilde_row, rows = next(steps)
        grad_h(x_tilde_row.dot(buf, x_tilde), gh_tilde)
        rows.dot(buf, nxt[4])  # x' and z' into the other buffer
        cur, nxt = nxt, cur
    # on budget exhaustion trust the step unless the gradient norm stagnated
    return x.copy(), gn * gn / 2.0, ok or not gn > 1e-2 * gn0


def _certificate(certificate, buf, lb_static, delta, far):
    """:func:`_inner_prox_stm`'s test on its buffer: ``||grad g(x)||``, ok and ``far`` tightened."""
    W = certificate.dot(buf)
    (gg, _), (_, dd) = W.dot(W.T).tolist()
    gn, d = math.sqrt(gg), math.sqrt(dd)
    lb = max(lb_static, d - gn)
    return gn, gn * gn / 2.0 <= delta * lb * lb, min(far, d + gn)


_TABLE_BLOCK_CAP = 1024  # the most steps one block of _prox_step_table holds


def _prox_step_table(step, alpha, budget):
    """Per step of :func:`_inner_prox_stm`, the ``x~`` row and the ``(2, 6)`` ``[x'; z']`` rows
    over its buffer, built in blocks as the loop reaches them: 64, then as many again as built,
    at most :data:`_TABLE_BLOCK_CAP`.

    With ``alpha_k, A_k = step(A_{k-1})`` from ``A_0 = 0`` (one :func:`stm_chain` per block),
    ``p = A_{k-1} / A_k``, ``q = alpha_k / A_k`` and ``s = alpha_k / (1 + A_k)``; the rows are
    ``[p, q, 0, 0, 0, 0]``, ``[p, q (1 - s), q s, 0, -alpha (q s), 0]`` and
    ``[0, 1 - s, s, 0, -alpha s, 0]``.  Block boundaries do not enter the values.
    """
    A, k = 0.0, 0
    while k < budget:
        m = min(budget - k, max(k, 64), _TABLE_BLOCK_CAP)
        a, A_all = stm_chain(step, A, m)
        A = A_all[-1]
        a, A_all = np.array(a), np.array(A_all)
        A_next, table = A_all[1:], np.zeros((m, 3, 6))
        table[:, 1, 0] = np.divide(A_all[:-1], A_next, out=table[:, 0, 0])
        q = np.divide(a, A_next, out=table[:, 0, 1])
        s = np.divide(a, 1.0 + A_next, out=table[:, 2, 2])
        np.multiply(q, np.subtract(1.0, s, out=table[:, 2, 1]), out=table[:, 1, 1])
        np.multiply(-alpha, np.multiply(q, s, out=table[:, 1, 2]), out=table[:, 1, 4])
        np.multiply(-alpha, s, out=table[:, 2, 4])
        yield from zip(table[:, 0], table[:, 1:])
        k += m


def stm_ips(problem: CompositeProblem, x0, N: int, inner_T: int | None = None, *,
            prox_mode: str = "inner_stm", F_star=None, x_star=None):
    """Triangle scheme with inexact proximal steps on ``F = f + h``.

    Each outer step minimises
    ``g_{k+1}(z) = 0.5||z^k - z||^2 + alpha_{k+1}(f(x~) + <grad f(x~), z - x~> + h(z))``
    to relative accuracy ``delta = L / (64 (L_h + L) N^3)``,
    either by an inner strongly convex triangle run (``inner_stm``) or by
    the problem's exact proximal solver (``exact``).  Inner non-convergence
    within the budget is flagged in the trace and the run continues.  With
    ``x_star`` given the metadata carries ``R0``, as in :func:`stm`, and on a
    :class:`PenaltyProblem` it carries the ``R_y`` that sized the penalty.

    Returns ``(x_N, trace)``.
    """
    if prox_mode not in ("inner_stm", "exact"):
        raise ValueError(f"unknown prox_mode {prox_mode!r}")
    if prox_mode == "exact" and problem.prox_solver is None:
        raise ValueError("problem has no exact proximal solver")
    f = problem.f
    delta = default_inner_delta(f.L, problem.L_h, max(N, 1))

    x = np.array(x0, dtype=float)
    trace = RunTrace(problem.counter, _R0(x, x_star))
    penalty = isinstance(problem, PenaltyProblem)
    if penalty:  # the R_y that sized it, beside R0
        trace.metadata["R_y"] = format(problem.R_y, ".17g")

    def gap(point):
        return None if F_star is None else problem.F_value(point) - F_star

    def feas(point):
        return float(np.linalg.norm(problem.A @ point)) if penalty else None

    def prox(z, lin, x_tilde, alpha, A_next):
        if prox_mode == "exact":
            return problem.prox_solver(z, alpha, lin)
        # the trace holds the start row plus one row per finished step
        try:
            budget = inner_T if inner_T is not None else default_inner_budget(
                alpha, problem.L_h, N)
        except ArithmeticError as exc:  # named with its step and a penalty's eps
            at_eps = f", penalty eps {problem.eps:g}" if penalty else ""
            raise ArithmeticError(f"{exc}; at outer step {len(trace.rows)}{at_eps}") from None
        z, gap_bound, ok = _inner_prox_stm(problem, z, alpha, lin, delta, budget)
        if not math.isfinite(gap_bound):
            raise ArithmeticError(f"inner prox gap bound ||grad g||^2/2 = {gap_bound:g} is not "
                                  f"finite at outer step {len(trace.rows)}")
        if not ok:
            trace.flag(f"inner prox budget exhausted at outer step {len(trace.rows)}")
        return z

    def after(k, x_avg, z, A):
        trace.record(k + 1, A, f_gap=gap(x_avg), constraint_norm=feas(x_avg))

    trace.record(0, 0.0, f_gap=gap(x), constraint_norm=feas(x))
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
