"""Dual-side accelerated methods.

All methods minimise the dual ``psi(y) = max_x {<A^T y, x> - f(x)}`` of a
strongly convex primal through a (possibly biased, batched) stochastic
oracle, and recover primal points from the inner maximisers:

* :func:`spdstm` -- primal-dual triangle scheme with growing batches and a
  weighted primal average; certifies ``f(x~) + psi(y) <= eps``.
* :func:`sstm_sc` -- direct acceleration for a strongly convex dual with a
  closed-form mirror point maintained by running sums.
* :func:`ac_sa` / :func:`ac_sa2` / :func:`rrma_ac_sa2` /
  :func:`restarted_rrma` -- the recursive-regularization family driving
  the dual gradient norm to ``eps / R_y``, with restarts, probe batches
  and amplification over independent trajectories.

Both triangle schemes run on :func:`optdec.schedules.triangle`.
:mod:`optdec.methods` plans and runs the dual methods the same way on a
single machine and on a network.  Their traces carry no metadata: ``optdec run``
stamps the run's identity on them.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .oracles import DualOracle, RngStreams
from .schedules import acsa_params, batch_size_spdstm, stm_step, triangle
from .trace import RunTrace

__all__ = [
    "DivergenceError",
    "RegularizedDual",
    "RestartConfig",
    "restart_config",
    "spdstm",
    "sstm_sc",
    "ac_sa",
    "ac_sa2",
    "rrma_ac_sa2",
    "restarted_rrma",
    "primal_recovery",
    "duality_gap",
]

# A run is declared divergent when an iterate norm exceeds this multiple of
# the (1 + solution-norm) scale; tiny-batch stochastic runs can blow up and
# the guard converts that into a diagnostic instead of inf/nan traces.
DIVERGENCE_FACTOR = 1e6


class DivergenceError(RuntimeError):
    """Raised when an iterate escapes the divergence guard; carries the trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


def _norm(v) -> float:
    """``sqrt(v.dot(v))``: bitwise ``np.linalg.norm`` of a contiguous float64 vector."""
    return math.sqrt(v.dot(v))


def _exact_grad_norm(dual: DualOracle, y) -> float:
    """``||A x(A^T y)||``, the noiseless dual gradient norm at ``y``."""
    return _norm(dual.A @ dual.x_exact(dual.A.T @ y))


def _guard(z, scale, trace, label):
    """Trip on ``||z||`` above ``DIVERGENCE_FACTOR (1 + scale())``, or not a number.

    ``scale`` is a zero-argument callable giving a scale >= 0, called only for a norm above
    ``DIVERGENCE_FACTOR``: since ``1 + scale >= 1``, a norm at most that passes whatever it is.
    """
    norm = _norm(z)
    if norm <= DIVERGENCE_FACTOR:
        return
    if not norm <= DIVERGENCE_FACTOR * (1.0 + scale()):  # a NaN norm trips it too
        trace.flag(f"{label}: divergence guard tripped")
        raise DivergenceError(f"{label}: iterate norm exceeded divergence guard", trace)


# ---------------------------------------------------------------------------
# primal-dual triangle scheme


def spdstm(dual: DualOracle, N: int, eps: float, beta: float, *,
           C_hat: float = 1.0, L_tilde_factor: float = 2.0, seed: int = 0,
           metric_every: int = 1, read_R_y: Callable[[], float] | None = None,
           stop_gap: float | None = None):
    """Stochastic primal-dual triangle scheme from ``y^0 = 0``.

    Runs ``N`` iterations with batched biased dual gradients, batch sizes
    following the ``alpha~_k = (k+1)/(2 L~)`` rule, and returns
    ``(y_N, x~_N, trace)`` where ``x~_N`` is the step-weighted average of
    the batched inner maximisers.  ``L_tilde_factor`` sets
    ``L~ = factor * L_psi``: 2 absorbs stochastic error (the default), 1 is
    the tighter schedule adequate for noiseless oracles.  The trace records
    the duality gap ``f(x~) + psi(y)`` and ``||A x~||`` every
    ``metric_every``-th row and the last (:func:`duality_gap`).  With ``stop_gap``
    the run ends early once a measured gap reaches it and ``||A x~|| R_y <= eps``
    holds: the gap of an infeasible ``x~`` is negative, so the gap alone does not
    imply the target.  ``read_R_y()`` gives ``R_y``, the bound on ``||y*||`` (else 1),
    and is called only by that test, once a gap has reached ``stop_gap``, and by the
    divergence guard, for an iterate norm above ``DIVERGENCE_FACTOR``: on a network
    the bound costs one dual ascent per node, which a fixed-``N`` run need not pay.
    """
    L_tilde = L_tilde_factor * dual.L_psi
    sigma_psi = dual.sigma_psi

    def batch(k):
        return batch_size_spdstm((k + 2) / (2.0 * L_tilde), sigma_psi, eps, N, beta, C_hat)

    streams = RngStreams(seed)
    y = np.zeros(dual.dual_dim)
    acc = np.zeros(dual.primal.dim)
    read_R_y = read_R_y or (lambda: 1.0)
    trace = RunTrace(dual.counter)

    def gradient(k, y_tilde, alpha, A_next):
        nonlocal acc
        g, x_mean = dual.batch_grad_and_x(y_tilde, batch(k), streams.child(k))
        acc += alpha * x_mean
        return g

    def after(k, y, z, A):
        _guard(z, read_R_y, trace, "spdstm")
        gap = feas = None
        if metric_every and ((k + 1) % metric_every == 0 or k + 1 == N):  # as sstm_sc
            metrics = duality_gap(dual.primal, dual, acc / A, y)
            gap, feas = metrics["gap"], metrics["constraint_norm"]
        trace.record(k + 1, A, dual_gap=gap, constraint_norm=feas)
        return (stop_gap is not None and gap is not None and gap <= stop_gap
                and feas * read_R_y() <= eps)

    trace.record(0, 0.0)
    y, _, A = triangle(stm_step(L_tilde, 0.0, 2.0), 0.0, y, y, N,
                       gradient, lambda z, g, y_tilde, alpha, A_next: z - alpha * g, after)
    x_out = acc / A if A > 0 else acc
    return y, x_out, trace


# ---------------------------------------------------------------------------
# direct acceleration for strongly convex duals


def sstm_sc(dual: DualOracle, y0, N: int, batch: int = 1, *, seed: int = 0,
            metric_every: int = 1, y_star=None, stop_grad_norm: float | None = None):
    """Stochastic triangle scheme for a strongly convex dual.

    The mirror point has the closed form

        ``z^{k+1} = (z^0 + mu sum_l alpha_l y~^l - sum_l alpha_l g^l) / (1 + A_{k+1} mu)``

    maintained incrementally by two running sums, updated in place (O(dim) per step).  Every
    gradient is a mean over ``batch`` samples (see
    :func:`optdec.schedules.batch_size_sstm_sc`).

    Returns ``(y_N, trace)``; the trace records the exact dual gradient norm (and
    ``||y - y*||^2`` as ``dual_gap`` when ``y_star`` is given) on the rows :func:`spdstm` measures.
    With ``stop_grad_norm`` the run ends early once the measured exact
    gradient norm reaches the target.
    """
    if dual.mu_psi <= 0:
        raise ValueError("sstm_sc requires mu_psi > 0 (L-smooth primal)")
    L, mu = dual.L_psi, dual.mu_psi
    streams = RngStreams(seed)

    y = z0 = np.array(y0, dtype=float)
    scale = float(np.linalg.norm(y)) + (np.linalg.norm(y_star) if y_star is not None else 1.0)
    trace = RunTrace(dual.counter)

    def gradient(k, y_tilde, alpha, A_next):
        return dual.batch_grad_and_x(y_tilde, batch, streams.child(k + 1))[0]

    def mirror(z, g, y_tilde, alpha, A_next):
        nonlocal sum_mu_y, sum_g
        sum_mu_y += alpha * mu * y_tilde
        sum_g += alpha * g
        return (z0 + sum_mu_y - sum_g) / (1.0 + A_next * mu)

    def metrics(k, point):
        if not metric_every or (k % metric_every and k != N):
            return None, None
        gn = _exact_grad_norm(dual, point)
        dist = float(np.linalg.norm(point - y_star) ** 2) if y_star is not None else None
        return gn, dist

    def after(k, y, z, A):
        _guard(z, lambda: scale, trace, "sstm_sc")
        gn, dist = metrics(k + 1, y)
        trace.record(k + 1, A, grad_norm=gn, dual_gap=dist)
        return stop_grad_norm is not None and gn is not None and gn <= stop_grad_norm

    # step 0 (alpha_0 = A_0 = 1/L) only seeds the running sums with the gradient at y0
    alpha = A = 1.0 / L
    g = dual.batch_grad_and_x(y, batch, streams.child(0))[0]
    sum_mu_y = alpha * mu * y
    sum_g = alpha * g
    gn, dist = metrics(0, y)
    trace.record(0, A, grad_norm=gn, dual_gap=dist)
    try:
        y, _, _ = triangle(stm_step(L, mu), A, y, z0, N, gradient, mirror, after)
    except OverflowError as exc:  # A grows geometrically: a long run passes the double range
        trace.flag(f"sstm_sc: {exc}")
        raise DivergenceError(f"sstm_sc: {exc}", trace) from None
    return y, trace


# ---------------------------------------------------------------------------
# recursive regularization family


class RegularizedDual:
    """Dual objective plus an anchor term and doubling proximity shifts.

    ``psi_k(y) = psi(y) + (lam/2)||y - anchor||^2 + lam sum_l 2^{l-1} ||y - center_l||^2``.
    The regulariser is a sum of quadratics, so it is held as one: its
    modulus ``strong_convexity = s = lam (2^{k+1} - 1)`` after ``k`` shifts,
    the linear term ``t = lam anchor + lam sum_l 2^l center_l`` and the
    constant of ``value``.  ``add_shift`` updates them in O(dim), and the
    gradient adds ``reg_grad(y) = s y - t`` to the base dual gradient.
    """

    def __init__(self, base: DualOracle, lam: float, anchor):
        if not lam > 0:  # a NaN lam is refused too
            raise ValueError("lam must be positive")
        self.base = base
        self.lam = float(lam)
        anchor = np.asarray(anchor, dtype=float)
        self.strong_convexity = self.lam
        self.t = self.lam * anchor
        self._const = 0.5 * self.lam * float(anchor @ anchor)
        self._weight = self.lam  # the next shift's weight lam 2^k

    def add_shift(self, center):
        center = np.asarray(center, dtype=float)
        w, self._weight = self._weight, 2.0 * self._weight
        self.strong_convexity += 2.0 * w
        self.t = self.t + 2.0 * w * center
        self._const += w * float(center @ center)

    @property
    def smoothness(self) -> float:
        return self.base.L_psi + self.strong_convexity

    def reg_grad(self, y):
        return self.strong_convexity * y - self.t

    def batch_grad(self, y, r: int, streams: RngStreams):
        g, _ = self.base.batch_grad_and_x(y, r, streams)
        return g + self.reg_grad(y)

    def value(self, y):
        return (self.base.psi_value(y) + float(y @ (0.5 * self.strong_convexity * y - self.t))
                + self._const)


def ac_sa(objective: RegularizedDual, z0, m: int, *, batch_size: int = 1,
          streams: RngStreams | None = None):
    """Accelerated stochastic approximation on a strongly convex objective.

    ``lam`` is the objective's strong-convexity modulus at the call; the step
    pair is ``alpha_t = 2/(t+1)``, ``gamma_t = 4 L / (t (t+1))``.
    Returns the aggregated iterate after ``m`` steps (``z0`` for ``m = 0``).
    """
    streams = streams or RngStreams(0)
    lam = objective.strong_convexity
    L = objective.smoothness
    y_ag = np.array(z0, dtype=float)
    z = y_ag.copy()
    for t in range(1, m + 1):
        alpha, gamma = acsa_params(t, L)
        denom_md = gamma + (1.0 - alpha ** 2) * lam
        y_md = ((1.0 - alpha) * (lam + gamma) / denom_md) * y_ag \
            + (alpha * ((1.0 - alpha) * lam + gamma) / denom_md) * z
        g = objective.batch_grad(y_md, batch_size, streams.child(t))
        z = (alpha * lam / (lam + gamma)) * y_md \
            + (((1.0 - alpha) * lam + gamma) / (lam + gamma)) * z \
            - (alpha / (lam + gamma)) * g
        y_ag = alpha * z + (1.0 - alpha) * y_ag
    return y_ag


def ac_sa2(objective: RegularizedDual, z0, m: int, *, batch_size: int = 1,
           streams: RngStreams | None = None):
    """Two chained halves of :func:`ac_sa` (odd budgets give the extra step
    to the second half)."""
    streams = streams or RngStreams(0)
    m1 = m // 2
    m2 = m - m1
    y1 = ac_sa(objective, z0, m1, batch_size=batch_size, streams=streams.child(0))
    return ac_sa(objective, y1, m2, batch_size=batch_size, streams=streams.child(1))


def rrma_ac_sa2(dual: DualOracle, y0, m: int, lam: float, *, batch_size: int = 1,
                streams: RngStreams | None = None):
    """Recursive regularization: rounds of :func:`ac_sa2` on a re-anchored objective.

    The anchored objective gains a doubling proximity term at the end of
    each of the ``T = floor(log2(L~/lam))`` rounds; each round runs
    ``max(1, m // T)`` iterations.  Returns the last round's output.
    """
    streams = streams or RngStreams(0)
    objective = RegularizedDual(dual, lam, y0)
    L_tilde = objective.smoothness
    T = max(1, int(math.floor(math.log2(L_tilde / lam))))
    per_round = max(1, m // T)
    y_hat = np.array(y0, dtype=float)
    for k in range(1, T + 1):
        y_hat = ac_sa2(objective, y_hat, per_round, batch_size=batch_size,
                       streams=streams.child(k))
        objective.add_shift(y_hat)
    return y_hat


def default_rrma_lambda(L_psi: float, N_bar: int) -> float:
    """Regularization weight ``L ln^2(N) / N^2`` used by the restarts."""
    return L_psi * math.log(N_bar) ** 2 / N_bar ** 2


# Largest working batch of a restart: the cap on the batch sized from the probed norm.
R_CAP = 10 ** 7


@dataclass
class RestartConfig:
    """Restart schedule: counts, probe/selection batches and inner budget."""

    l: int
    hat_r: int
    bar_r: int
    p: int
    N_bar: int
    lam: float = 0.0


def _smallest_N_bar(L_psi, mu_psi, C):
    N = 2
    while C * L_psi ** 2 * math.log(N) ** 4 / (mu_psi ** 2 * N ** 4) > 1.0 / 32.0:
        N += 1
        if N > 10 ** 6:
            raise RuntimeError("no admissible inner budget below cap")
    return N


def _probe_batch(const: float, sigma_psi: float, count: int, beta: float, R_y: float,
                 eps: float) -> int:
    """``max(1, ceil(const sigma^2 (1 + sqrt(3 ln(count/beta)))^2 R_y^2 / eps^2))``,
    or 1 for a noiseless oracle."""
    if sigma_psi == 0.0:
        return 1
    return max(1, math.ceil(
        const * sigma_psi ** 2 * (1.0 + math.sqrt(3.0 * math.log(count / beta))) ** 2
        * R_y ** 2 / eps ** 2))


def restart_config(dual: DualOracle, grad0_norm: float, eps: float, beta: float,
                   R_y: float, C: float = 1.0) -> RestartConfig:
    """Restart parameters from the gradient norm at the start point.

    ``l = max(1, log2(2 R_y^2 ||grad||^2 / eps^2))`` restarts; probe and
    selection batches scale like ``sigma^2 R_y^2 / eps^2`` and degenerate
    to 1 when the oracle is noiseless.
    """
    l = max(1, math.ceil(math.log2(max(2.0 * R_y ** 2 * grad0_norm ** 2 / eps ** 2, 2.0))))
    p = max(1, math.ceil(math.log2(l / beta)))
    hat_r = _probe_batch(4.0, dual.sigma_psi, l, beta, R_y, eps)
    bar_r = _probe_batch(128.0, dual.sigma_psi, l * p, beta, R_y, eps)
    N_bar = _smallest_N_bar(dual.L_psi, dual.mu_psi, C)
    return RestartConfig(l=l, hat_r=hat_r, bar_r=bar_r, p=p, N_bar=N_bar,
                         lam=default_rrma_lambda(dual.L_psi, N_bar))


def restarted_rrma(dual: DualOracle, y0, eps: float, beta: float, *, R_y: float,
                   C: float = 1.0, seed: int = 0):
    """Restarted recursive regularization with probes and amplification.

    Each restart probes the gradient with a large batch, sizes the working
    batch from the probed norm, runs ``p_k`` independent trajectories of
    :func:`rrma_ac_sa2` from the current point (disjoint stream families,
    so the selection is reproducible) and keeps the trajectory with the
    smallest selection-batch gradient norm.  The loop ends after ``l``
    restarts, or as soon as a probe certifies ``eps/(2 R_y)`` (the probe
    batch is sized to resolve exactly that scale; continuing would blow up
    the working batch, which is inversely proportional to the probed
    norm).  Returns ``(y_final, trace)``; the trace holds one row per
    restart boundary with the exact dual gradient norm of the kept point.
    """
    if dual.mu_psi <= 0:
        raise ValueError("restarted_rrma requires mu_psi > 0")
    if eps <= 0:
        raise ValueError("eps must be positive")
    streams = RngStreams(seed)
    sigma_psi = dual.sigma_psi
    y = np.array(y0, dtype=float)

    # preliminary probe (l is not known yet, so probe with the l=1 batch)
    pre_r = _probe_batch(4.0, sigma_psi, 1, beta, R_y, eps)
    g0, _ = dual.batch_grad_and_x(y, pre_r, streams.child(0, 0))
    cfg = restart_config(dual, float(np.linalg.norm(g0)), eps, beta, R_y, C=C)

    trace = RunTrace(dual.counter)
    trace.record(0, 0.0, grad_norm=_exact_grad_norm(dual, y))

    probe = g0
    for k in range(1, cfg.l + 1):
        if k > 1:
            probe, _ = dual.batch_grad_and_x(y, cfg.hat_r, streams.child(k, 0))
        probe_norm_sq = float(probe @ probe)
        if probe_norm_sq <= (eps / (2.0 * R_y)) ** 2:
            break
        if sigma_psi == 0.0:
            r_k = 1
        else:  # probe_norm_sq > (eps / 2 R_y)^2 >= 0 here
            r_k = min(R_CAP, max(1, math.ceil(
                64.0 * C * sigma_psi ** 2 * math.log(cfg.N_bar) ** 6
                / (cfg.N_bar * probe_norm_sq))))

        candidates = []
        for p in range(1, cfg.p + 1):
            y_p = rrma_ac_sa2(dual, y, cfg.N_bar, cfg.lam, batch_size=r_k,
                              streams=streams.child(k, p))
            sel, _ = dual.batch_grad_and_x(y_p, cfg.bar_r, streams.child(k, p, 10 ** 6))
            candidates.append((float(np.linalg.norm(sel)), p, y_p))
        candidates.sort(key=lambda item: (item[0], item[1]))
        y = candidates[0][2]
        trace.record(k, 0.0, grad_norm=_exact_grad_norm(dual, y))
    return y, trace


# ---------------------------------------------------------------------------
# primal recovery and gap evaluation


def primal_recovery(dual: DualOracle, y, r: int, streams: RngStreams) -> np.ndarray:
    """Batched noisy inner maximiser ``x~(A^T y)`` averaged over ``r`` samples."""
    _, x_mean = dual.batch_grad_and_x(y, r, streams)
    return x_mean


def duality_gap(primal, dual: DualOracle, x, y) -> dict:
    """Diagnostic ``f(x) + psi(y)`` together with the constraint residual.

    Uses raw multiplications: evaluating the gap never counts as oracle
    work or communication.
    """
    x = np.asarray(x, dtype=float)
    gap = float(primal.value(x)) + dual.psi_value(np.asarray(y, dtype=float))
    return {"gap": gap, "constraint_norm": _norm(dual.A @ x)}
