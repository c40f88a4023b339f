"""Closed-form and semi-closed-form test problems.

Quadratics come with exact minimisers and exact convex conjugates, which
makes them the reference instances for every solver certificate.  They
have one construction path: :meth:`QuadraticProblem.stack` checks and
decomposes the ``(m, n, n)`` stack of a network's node quadratics in one
``eigvalsh`` and one ``solve``, :func:`random_quadratics` draws the nodes
in order and orthogonalises them in one ``qr``, and a single
``QuadraticProblem(Q, b)`` or :func:`random_quadratic` is a stack of one,
bit for bit what a per-node build gives.  The quadratics' oracles, and
those of the barycenter nodes, declare that side data as
:class:`~optdec.oracles.FirstOrderOracle` fields.  The
entropic optimal-transport dual is the log-sum-exp functional

    ``W*(lam) = mu sum_j q_j log((1/q_j) sum_i exp((lam_i - C_ij)/mu))``

whose gradient is a transport marginal (non-negative, sums to one); the
smoothed transport distance is recovered by maximising
``<lam, p> - W*(lam)`` over the zero-sum subspace.  Barycenter nodes take
their marginals in the kernel form ``x(lam) = w * G (q / G^T w)`` with
``w = exp(lam/mu)`` and the Gibbs kernel ``G = exp(-C/mu)``, built once
per instance, whenever no column of ``C`` spans more than
``KERNEL_RANGE * mu``; wider costs keep the log-domain plan.
"""

from __future__ import annotations

import numpy as np

from .oracles import RANK_TOL, FirstOrderOracle

__all__ = [
    "QuadraticProblem",
    "random_quadratic",
    "random_quadratics",
    "constrained_quadratic_optimum",
    "min_norm_dual_solution",
    "entropic_ot_dual_value",
    "entropic_ot_dual_grad",
    "entropic_wasserstein",
    "simplex_project",
    "barycenter_local_oracle",
    "barycenter_problem",
    "projected_gradient_barycenter",
    "load_measures_csv",
    "load_cost_csv",
]


# ---------------------------------------------------------------------------
# quadratics


class QuadraticProblem:
    """``f(x) = 0.5 x^T Q x - b^T x`` with SPD ``Q``.

    Exposes the exact minimiser ``x* = Q^{-1} b`` and the conjugate argmax
    ``x(y) = Q^{-1}(y + b)``; :meth:`oracle` declares both, and the
    problem itself as the oracle's ``quadratic``.  ``QuadraticProblem(Q, b)``
    is :meth:`stack` of one: the same checks and decompositions.
    """

    def __init__(self, Q, b):
        Q = np.asarray(Q, dtype=float)
        b = np.asarray(b, dtype=float)
        evals, x_star = _decompose(Q[None], b[None], "")
        self._assign(Q, b, evals[0], x_star[0])

    @classmethod
    def stack(cls, Q, b) -> list:
        """One problem per node of the ``(m, n, n)`` stack ``Q`` and ``(m, n)`` stack ``b``.

        Decomposes the whole stack in one ``eigvalsh`` and one ``solve``;
        each problem's arrays are views into the stacks.  A bad node ``k``
        raises the message of :class:`QuadraticProblem` naming node ``k``.
        """
        Q = np.asarray(Q, dtype=float)
        b = np.asarray(b, dtype=float)
        evals, x_star = _decompose(Q, b, " of node {}")
        problems = [cls.__new__(cls) for _ in range(len(Q))]
        for k, qp in enumerate(problems):
            qp._assign(Q[k], b[k], evals[k], x_star[k])
        return problems

    def _assign(self, Q, b, evals, x_star):
        self.Q = Q
        self.b = b
        self.L = float(evals[-1])
        self.mu = float(evals[0])
        self.x_star = x_star
        self.f_star = float(0.5 * x_star @ Q @ x_star - b @ x_star)

    def value(self, x):
        return float(0.5 * x @ self.Q @ x - self.b @ x)

    def gradient(self, x):
        return self.Q @ x - self.b

    def conjugate_argmax(self, y):
        return np.linalg.solve(self.Q, y + self.b)

    def oracle(self) -> FirstOrderOracle:
        return FirstOrderOracle(self.Q.shape[0], self.value, self.gradient, self.L, self.mu,
                                conjugate_argmax=self.conjugate_argmax,
                                x_star=self.x_star, quadratic=self)


def _decompose(Q, b, node):
    """Eigenvalues and minimisers of a checked ``(m, n, n)`` SPD stack.

    ``node`` is formatted with the index of the first bad node into its
    error message ("" leaves the index out).
    """
    if Q.ndim != 3 or Q.shape[1] != Q.shape[2] or b.shape != Q.shape[:2]:
        raise ValueError("Q must be square and b conforming")
    # an exactly symmetric stack passes every node's tolerance check; the
    # check itself runs node by node, so it makes no (m, n, n) float temporary
    if not np.array_equal(Q, Q.mT):
        for k, Q_k in enumerate(Q):
            if not np.allclose(Q_k, Q_k.T, atol=1e-12 * max(1.0, np.abs(Q_k).max())):
                raise ValueError(f"Q{node.format(k)} must be symmetric")
    evals = np.linalg.eigvalsh(Q)
    bad = np.flatnonzero(evals[:, 0] <= 0)
    if bad.size:
        raise ValueError(f"Q{node.format(bad[0])} must be positive definite")
    return evals, np.linalg.solve(Q, b[..., None])[..., 0]


def random_quadratics(m: int, dim: int, cond: float, rng: np.random.Generator,
                      b_scale: float = 1.0) -> list:
    """``m`` random SPD quadratics with prescribed condition number, built as one stack.

    Node ``k`` draws its ``M_k`` and then its ``b_k``, in node order; the
    stack is orthogonalised by one ``qr`` and decomposed by
    :meth:`QuadraticProblem.stack`.
    """
    M = np.empty((m, dim, dim))
    b = np.empty((m, dim))
    for M_k, b_k in zip(M, b):
        rng.standard_normal(out=M_k)
        rng.standard_normal(out=b_k)
    b *= b_scale
    # each (m, dim, dim) array is dropped once used: at most three are alive
    U = np.linalg.qr(M).Q
    del M
    Q = (U * np.logspace(0.0, np.log10(cond), dim)) @ U.mT
    del U
    Q = Q + Q.mT
    Q /= 2.0
    return QuadraticProblem.stack(Q, b)


def random_quadratic(dim: int, cond: float, rng: np.random.Generator,
                     b_scale: float = 1.0) -> QuadraticProblem:
    """Random SPD quadratic with prescribed condition number: a stack of one."""
    return random_quadratics(1, dim, cond, rng, b_scale)[0]


def constrained_quadratic_optimum(Q, b, A):
    """Exact solution of ``min 0.5 x^T Q x - b^T x  s.t.  A x = 0``.

    Brute-force null-space solve: parametrise ``x = Z t`` with ``Z`` an
    orthonormal basis of ``Ker A`` and solve the reduced normal equations.
    The rank is that of :func:`optdec.oracles.spectrum` on ``A^T A``.
    """
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float)
    A = np.asarray(A, dtype=float)
    _, s, Vt = np.linalg.svd(A)
    rank = int(np.sum(s * s > RANK_TOL * s[0] ** 2)) if s.size else 0
    Z = Vt[rank:].T
    if Z.shape[1] == 0:
        x = np.zeros(Q.shape[0])
        return x, 0.0
    t = np.linalg.solve(Z.T @ Q @ Z, Z.T @ b)
    x = Z @ t
    return x, float(0.5 * x @ Q @ x - b @ x)


def min_norm_dual_solution(Q, b, A):
    """Smallest-norm ``y*`` with ``A^T y* = grad f(x*)`` at the constrained optimum.

    ``rcond = sqrt(RANK_TOL)`` gives ``lstsq`` the rank of :func:`optdec.oracles.spectrum`.
    """
    x_c, _ = constrained_quadratic_optimum(Q, b, A)
    grad = np.asarray(Q, dtype=float) @ x_c - np.asarray(b, dtype=float)
    y_star, *_ = np.linalg.lstsq(np.asarray(A, dtype=float).T, grad, rcond=RANK_TOL ** 0.5)
    return y_star, x_c


# ---------------------------------------------------------------------------
# entropic optimal transport


def _on_simplex(q, tol=1e-12) -> bool:
    return bool(np.isfinite(q).all()) and not (
        np.any(q < -tol) or abs(q.sum() - 1.0) > max(tol, 1e-12 * q.size))


def _check_simplex(q, tol=1e-12):
    q = np.asarray(q, dtype=float)
    if not _on_simplex(q, tol):
        raise ValueError("measure must be finite and lie in the probability simplex")
    return np.clip(q, 0.0, None)


def _check_entropic(q, C, mu):
    """Validated ``(q, C)`` for the entropic functions; ``mu`` must be positive, ``C`` finite."""
    if not mu > 0:
        raise ValueError("mu must be positive")
    q = _check_simplex(q)
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[1] != q.size:
        raise ValueError(f"cost must have one column per atom of q ({q.size}), got shape {C.shape}")
    if not np.isfinite(C).all():
        raise ValueError("cost must be finite")
    return q, C


def _column_plan(lam, C, mu):
    """Column softmax ``S`` of ``E = (lam_i - C_ij)/mu`` and each column's log-sum-exp.

    ``lam`` may carry leading batch axes: a ``(m, n)`` stack of potentials
    gives the ``(m, n, n)`` stack of plans.
    """
    E = (lam[..., :, None] - C) / mu
    top = E.max(axis=-2, keepdims=True)
    W = np.exp(E - top)
    total = W.sum(axis=-2, keepdims=True)
    return W / total, (top + np.log(total))[..., 0, :]


def _conjugate(lse, q, mu):
    """``W*(lam) = mu sum_j q_j (lse_j - log q_j)``; zero-mass atoms contribute zero."""
    kept = q > 0
    return float(mu * np.sum(q[kept] * (lse[kept] - np.log(q[kept]))))


def _log_marginal(lam, lse, q, C, mu):
    """``log(S q)`` in the log domain, so no entry underflows to zero."""
    kept = q > 0
    L = (lam[:, None] - C[:, kept]) / mu - lse[kept] + np.log(q[kept])
    top = L.max(axis=1)
    return top + np.log(np.exp(L - top[:, None]).sum(axis=1))


def entropic_ot_dual_value(lam, q, C, mu: float) -> float:
    """Smoothed-transport dual value; zero-mass atoms contribute zero."""
    q, C = _check_entropic(q, C, mu)
    return _conjugate(_column_plan(np.asarray(lam, dtype=float), C, mu)[1], q, mu)


def entropic_ot_dual_grad(lam, q, C, mu: float) -> np.ndarray:
    """Gradient of the dual: the row marginal of the softmax transport plan.

    Component ``i`` is ``sum_j q_j softmax_i((lam - C_:j)/mu)``; the result
    is a probability vector.
    """
    q, C = _check_entropic(q, C, mu)
    return _column_plan(np.asarray(lam, dtype=float), C, mu)[0] @ q


def entropic_wasserstein(p, q, C, mu: float, tol: float = 1e-8,
                         max_iter: int = 500_000):
    """Smoothed transport distance and its optimal dual potential.

    Maximises the concave dual ``D(lam) = <lam, p> - W*(lam)`` on the
    zero-sum subspace (the residual ``g = p - grad W*`` already sums to
    zero, and the value is invariant under constant shifts, so the
    zero-mean representative is returned) until ``||g|| <= tol``.  Each of
    at most ``max_iter`` steps is a Newton step or one log-domain Sinkhorn
    sweep.  With the plan ``S`` and marginal ``P = S q``, the Newton step
    solves ``(H + 11^T) d = g`` for the Hessian ``H = (diag(P) - (S*q) S^T)/mu``
    of ``W*``, whose kernel is the constant vector.  It is kept when it
    strictly lowers ``||g||`` without lowering ``D`` by more than rounding;
    otherwise the Sinkhorn sweep, which always raises ``D``, is taken.
    Raises on non-convergence.
    """
    p = _check_simplex(p)
    q, C = _check_entropic(q, C, mu)
    if C.shape[0] != p.size:
        raise ValueError(f"cost must have one row per atom of p ({p.size}), got shape {C.shape}")
    log_p = np.log(np.maximum(p, np.finfo(float).tiny))

    def evaluate(lam):
        S, lse = _column_plan(lam, C, mu)
        P = S @ q
        g = p - P
        return S, P, lse, g, float(np.linalg.norm(g)), float(lam @ p - _conjugate(lse, q, mu))

    lam = np.zeros(p.size)
    S, P, lse, g, res, value = evaluate(lam)
    for _ in range(max_iter):
        if res <= tol:
            break
        try:
            H = (np.diag(P) - (S * q) @ S.T) / mu
            d = np.linalg.solve(H + 1.0, g)
        except np.linalg.LinAlgError:  # a saturated plan: H + 11^T is singular
            pass
        else:
            trial = lam + d
            trial -= trial.mean()
            state = evaluate(trial)
            # a far jump can lower ||g|| and yet lose D, then Sinkhorn undoes it;
            # near the solution D moves by less than rounding, so allow for that
            if state[4] < res and state[5] >= value - 1e-12 * (1.0 + abs(value)):
                lam, (S, P, lse, g, res, value) = trial, state
                continue
        # Sinkhorn sweep: rescale the rows of the plan to the marginal p
        lam = lam + mu * (log_p - _log_marginal(lam, lse, q, C, mu))
        lam -= lam.mean()
        S, P, lse, g, res, value = evaluate(lam)
    if not res <= tol:  # a NaN residual has not converged either
        raise RuntimeError(
            f"entropic dual solve did not reach tol={tol:g} in {max_iter} steps "
            f"(residual {res:.3e})")
    return value, lam


def simplex_project(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = np.max(np.where(u - css / idx > 0, idx, 0))
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


# ---------------------------------------------------------------------------
# barycenter instances


# The widest column cost range, in units of ``mu``, at which marginals come from
# the Gibbs kernel: each column sum of the kernel then stays above exp(-500),
# well clear of the exp(-745) where doubles underflow.
KERNEL_RANGE = 500.0


def _transport_marginal(C, mu):
    """``(U, Q) -> X`` with ``X_k = S(U_k) q^k``, the transport marginal of each potential.

    ``U`` and ``Q`` are both ``(n,)`` or both ``(m, n)``.  When no column of
    the finite ``C`` spans more than ``KERNEL_RANGE * mu``, the Gibbs kernel
    ``G = exp(-(C - min_i C)/mu)`` is built here, once, with each column's
    largest entry 1.  A call shifts ``w = exp(U/mu)`` so that each row's
    largest entry is 1 and takes two products, ``D = w G`` and
    ``X = w * ((Q/D) G^T)``; the shifts make every ``D_j`` at least
    ``exp(-KERNEL_RANGE)``.  Wider costs take the log-domain plan of
    :func:`_column_plan`.
    """
    low = C.min(axis=0)
    if np.max(C.max(axis=0) - low) > KERNEL_RANGE * mu:
        return lambda U, Q: np.matmul(_column_plan(U, C, mu)[0], Q[..., None])[..., 0]
    G = np.exp((low - C) / mu)

    def marginal(U, Q):
        a = U / mu
        w = np.exp(a - a.max(axis=-1, keepdims=True))
        return w * ((Q / (w @ G)) @ G.T)

    return marginal


def barycenter_local_oracle(q, C, mu: float) -> FirstOrderOracle:
    """Oracle for ``p -> W_mu(p, q)`` with its closed-form conjugate.

    The conjugate of the smoothed transport distance in ``p`` is exactly
    the log-sum-exp dual ``W*``, so ``conjugate_value`` (``W*``, as
    :func:`entropic_ot_dual_value` computes it) and ``conjugate_argmax``
    (the transport marginal of :func:`_transport_marginal`) need no inner
    solve, and ``x_star`` is the marginal at the zero potential; ``q``,
    ``C`` and ``mu`` are validated here, once.  Values/gradients in ``p``
    run the dual solve to ``tol = 1e-10`` and are meant for diagnostics only.
    """
    q, C = _check_entropic(q, C, mu)
    return _local_oracle(q, C, mu, _transport_marginal(C, mu))


def _local_oracle(q, C, mu, marginal):
    """The oracle of :func:`barycenter_local_oracle` on checked inputs and a built ``marginal``."""
    n = C.shape[0]  # p has one atom per row of the cost, q one per column

    def value(p):
        # W_mu(., q) is +inf off the simplex, where a noisy primal average can land
        if not _on_simplex(np.asarray(p, dtype=float)):
            return np.inf
        val, _ = entropic_wasserstein(p, q, C, mu, tol=1e-10)
        return val

    def gradient(p):
        _, lam = entropic_wasserstein(p, q, C, mu, tol=1e-10)
        return lam

    def conjugate_argmax(u):
        return marginal(np.asarray(u, dtype=float), q)

    def conjugate_value(u):
        return _conjugate(_column_plan(np.asarray(u, dtype=float), C, mu)[1], q, mu)

    # L is unknown in closed form (the conjugate is only strictly convex);
    # the dual pipeline needs only mu.  The minimiser of W_mu(., q) over the
    # simplex is the zero-potential marginal.
    return FirstOrderOracle(n, value, gradient, L=0.0, mu=mu,
                            conjugate_argmax=conjugate_argmax, conjugate_value=conjugate_value,
                            x_star=conjugate_argmax(np.zeros(n)))


def barycenter_problem(measures, C, mu: float, topology):
    """Decentralized instance of the empirical smoothed-barycenter problem.

    One node per measure; node ``i`` owns ``p -> W_mu(p, q^i)`` and declares
    its closed-form conjugate ``W*`` and conjugate argmax.  The nodes share one
    :func:`_transport_marginal`, so the Gibbs kernel is built once per
    instance, and the instance evaluates all the nodes' marginals in one
    call of it.  Solving the lifted dual and recovering the primal per node
    yields the empirical barycenter.
    """
    from .network import DecentralizedInstance

    measures = np.atleast_2d(np.asarray(measures, dtype=float))
    n = measures.shape[1]
    C = np.asarray(C, dtype=float)
    if C.shape != (n, n):
        raise ValueError(f"cost must be {n}x{n} for {n} atoms, got shape {C.shape}")
    for q in measures:
        _check_entropic(q, C, mu)
    Q = np.clip(measures, 0.0, None)
    marginal = _transport_marginal(C, mu)
    locals_ = [_local_oracle(q, C, mu, marginal) for q in Q]
    return DecentralizedInstance(locals_, topology, n, batched_argmax=lambda U: marginal(U, Q))


def projected_gradient_barycenter(measures, C, mu: float, iters: int = 2000,
                                  inner_tol: float = 1e-10):
    """Centralized verification baseline: projected gradient on the barycenter objective.

    Minimises ``(1/m) sum_i W_mu(p, q^i)`` over the simplex with Armijo
    backtracking; each gradient is the mean of the optimal dual potentials.
    It stops after ``iters`` steps or a step that moves ``p`` by at most 1e-10.
    """
    measures = np.atleast_2d(np.asarray(measures, dtype=float))
    m, n = measures.shape
    p = np.full(n, 1.0 / n)

    def fval(point):
        return np.mean([entropic_wasserstein(point, q, C, mu, tol=inner_tol)[0]
                        for q in measures])

    def grad(point):
        return np.mean([entropic_wasserstein(point, q, C, mu, tol=inner_tol)[1]
                        for q in measures], axis=0)

    fp = fval(p)
    step = 1.0
    for _ in range(iters):
        g = grad(p)
        while step > 1e-12:
            cand = simplex_project(p - step * g)
            fc = fval(cand)
            if fc <= fp - 1e-4 * float(g @ (p - cand)):
                break
            step *= 0.5
        move = float(np.linalg.norm(cand - p))
        p, fp = cand, fc
        step = min(step * 2.0, 1e6)
        if move <= 1e-10:
            break
    return p


# ---------------------------------------------------------------------------
# file formats


def load_measures_csv(path) -> np.ndarray:
    """Measures file: one row per measure, ``n`` columns summing to one."""
    M = np.atleast_2d(np.loadtxt(path, delimiter=","))
    for row in M:
        _check_simplex(row, tol=1e-9)
    return M


def load_cost_csv(path) -> np.ndarray:
    """Cost file: a finite, non-negative ``n x n`` matrix."""
    C = np.atleast_2d(np.loadtxt(path, delimiter=","))
    if C.shape[0] != C.shape[1] or not np.isfinite(C).all() or np.any(C < 0):
        raise ValueError("cost matrix must be square, finite and non-negative")
    return C
