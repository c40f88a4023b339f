"""The method table: the problem kinds, constants and solve of every method.

:func:`run_method` is the one way a method runs: it checks the run settings
(:func:`run_settings`, defaults :data:`RUN_SETTINGS`) and the constants
against the method's record and their domains in :data:`CONSTANTS`
(:func:`method_constants`), calls its ``solve`` with the checked values and
flags an auto ``N`` that ``max_N`` stopped before its certificate held
(:data:`CAP_FLAG`).  A solve returns ``(trace, y, x, capped)``: the dual
point, the primal point (or ``spdstm``'s primal average) and whether the cap
stopped the plan.  Its problem, a :class:`Machine` or an
:class:`optdec.network.Network`, gives its ``noise`` (:func:`method_noise`),
the dual oracle ``dual`` and ``R_y``, a bound on the minimal dual solution's
norm that a given constant ``R_y`` replaces and that a solve reads only where
a decision needs it (a ``Network`` computes it on first read); its
``finish(trace, y, x, seed)`` gives the ``x`` that ``run_method`` returns and
fills in its ``summary``.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .dual import (RegularizedDual, _exact_grad_norm, ac_sa, default_rrma_lambda, restarted_rrma,
                   rrma_ac_sa2, spdstm, sstm_sc)
from .oracles import DualOracle, RngStreams, StochasticGradientOracle, number
from .primal import build_penalty, sstm, stm, stm_ips
from .problems import min_norm_dual_solution
from .schedules import (CAP_FLAG, batch_size_sstm_sc, capped_N, gap_certificate_N,
                        grad_certificate_N)
from .trace import RunTrace

DECENTRALIZED_KINDS = ("consensus_quadratic", "barycenter")
RUN_SETTINGS = {"N": "auto", "eps": 1e-3, "beta": 0.1, "seed": 0}  # optdec run's and the library's


class Constant(NamedTuple):  # a constant's default and domain
    default: object  # None: the method's own choice, which null asks for too
    integer: bool  # else a real
    low: float  # the least value, excluded when ``strict``
    strict: bool
    high: float = float("inf")  # the greatest value

    def check(self, value, where: str):
        """``value`` in the domain, or ValueError naming ``where``; null only for a None default."""
        return None if value is None and self.default is None else number(value, where, *self[1:])


_POSITIVE, _ANY = (False, 0, True), (False, float("-inf"), False)
CONSTANTS = {
    "C": Constant(1.0, *_POSITIVE), "C_hat": Constant(1.0, *_POSITIVE),
    "step_factor": Constant(2.0, *_POSITIVE), "L_tilde_factor": Constant(2.0, *_POSITIVE),
    "lambda": Constant(None, *_POSITIVE), "R_y": Constant(None, *_POSITIVE),
    "inner_T": Constant(None, True, 0, False), "m_iters": Constant(None, True, 0, False),
    "stop_gap": Constant(None, *_ANY), "stop_grad_norm": Constant(None, *_ANY),
    "metric_every": Constant(1, True, 0, False), "max_N": Constant(200_000, True, 1, False),
}


class Method(NamedTuple):
    kinds: tuple  # the problem kinds it runs on
    constants: frozenset  # the names of the constants it reads
    solve: Callable  # (problem, N, eps, beta, constants, seed) -> (trace, y, x, capped)
    samples: bool = True  # it draws samples, and so reads the noise (method_noise)


class Machine:
    """A single-machine run's quadratic ``qp``, constraint rows ``A`` (or None), start ``x0``
    and noise; its dual oracle is built on first use, and ``summary`` then names ``R_y``: the
    min-norm bound, or the constant ``R_y`` run_method was given.  ``finish`` keeps ``x``."""

    def __init__(self, qp, A, x0, noise):
        self.qp, self.A, self.x0, self.noise = qp, A, x0, noise
        self.oracle, self.summary = qp.oracle(), {}

    @cached_property
    def R_y(self) -> float:
        y_star, _ = min_norm_dual_solution(self.qp.Q, self.qp.b, self.A)
        return max(float(np.linalg.norm(y_star)), 1e-12)

    @cached_property
    def dual(self) -> DualOracle:
        self.summary["R_y"] = self.R_y
        return DualOracle(self.oracle, self.A, self.qp.conjugate_argmax, noise=self.noise)

    def finish(self, trace, y, x, seed):
        return x


def _stm(p, N, eps, beta, c, seed, stochastic=False):
    oracle, qp, step_factor = p.oracle, p.qp, c["step_factor"]
    N, capped = capped_N(N, lambda cap: gap_certificate_N(
        float(np.linalg.norm(p.x0 - qp.x_star)), oracle.L, eps, cap, step_factor), c["max_N"])
    if stochastic:
        x, trace = sstm(StochasticGradientOracle(oracle, p.noise), p.x0, N, eps, beta, seed=seed,
                        step_factor=step_factor, f_star=qp.f_star, x_star=qp.x_star)
    else:
        x, trace = stm(oracle, p.x0, N, f_star=qp.f_star, x_star=qp.x_star,
                       step_factor=step_factor)
    return trace, None, x, capped


def _stm_ips(p, N, eps, beta, c, seed):
    pen = build_penalty(p.oracle, p.A, p.R_y, eps)
    try:  # at a tiny eps the penalty term swamps Q in working precision
        x_F = np.linalg.solve(p.qp.Q + 2.0 * pen.coeff * pen.AtA, p.qp.b)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"penalty system Q + 2 (R_y^2/eps) A^T A at eps {eps:g} "
                                    f"(R_y^2/eps = {pen.coeff:.3g}): {exc}") from None
    N, capped = capped_N(N, lambda cap: gap_certificate_N(
        float(np.linalg.norm(p.x0 - x_F)), p.oracle.L, eps, cap), c["max_N"])
    x, trace = stm_ips(pen, p.x0, N, inner_T=c["inner_T"], F_star=pen.F_value(x_F), x_star=x_F)
    return trace, None, x, capped


def _spdstm(p, N, eps, beta, c, seed):
    dual, factor = p.dual, c["L_tilde_factor"]
    N, capped = capped_N(N, lambda cap: gap_certificate_N(
        p.R_y, factor * dual.L_psi, eps, cap), c["max_N"])
    y, x, trace = spdstm(dual, N, eps, beta, C_hat=c["C_hat"], L_tilde_factor=factor,
                         seed=seed, metric_every=c["metric_every"],
                         read_R_y=lambda: p.R_y, stop_gap=c["stop_gap"])
    return trace, y, x, capped


def _sstm_sc(p, N, eps, beta, c, seed):
    dual = p.dual
    N, capped = capped_N(N, lambda cap: grad_certificate_N(
        p.R_y, dual.L_psi, dual.mu_psi, eps, cap), c["max_N"])
    batch = batch_size_sstm_sc(dual.L_psi, dual.mu_psi, dual.sigma_psi, eps, N, beta, c["C"])
    y, trace = sstm_sc(dual, np.zeros(dual.dual_dim), N, batch, seed=seed,
                       metric_every=c["metric_every"], stop_grad_norm=c["stop_grad_norm"])
    return trace, y, None, capped


def _restarted_rrma(p, N, eps, beta, c, seed):
    y, trace = restarted_rrma(p.dual, np.zeros(p.dual.dual_dim), eps, beta, R_y=p.R_y,
                              C=c["C"], seed=seed)
    return trace, y, None, False


def _ac_sa(p, N, eps, beta, c, seed, recursive=False):
    # m_iters steps (default N, or 100 for "auto") at weight lambda, and one trace row
    dual, y0 = p.dual, np.zeros(p.dual.dual_dim)
    m_iters = c["m_iters"] if c["m_iters"] is not None else 100 if N == "auto" else N
    lam = c["lambda"] or default_rrma_lambda(dual.L_psi, max(m_iters, 2))  # lambda > 0
    if recursive:
        y = rrma_ac_sa2(dual, y0, m_iters, lam, streams=RngStreams(seed))
    else:
        y = ac_sa(RegularizedDual(dual, lam, y0), y0, m_iters, streams=RngStreams(seed))
    trace = RunTrace(dual.counter)
    trace.record(m_iters, 0.0, grad_norm=_exact_grad_norm(dual, y))
    return trace, y, None, False


# sstm_sc and restarted_rrma need mu_psi > 0, which barycenter locals (no L) lack;
# a method that runs on "penalty" needs a constraint matrix, so on "custom" it needs A_csv
_PLAIN, _AFFINE = ("quadratic", "custom"), ("penalty", "custom")
_CONSENSUS = _AFFINE + ("consensus_quadratic",)
_STM, _ACSA = frozenset({"step_factor", "max_N"}), frozenset({"m_iters", "lambda"})
METHODS = {
    "stm": Method(_PLAIN, _STM, _stm, samples=False),
    "stm_ips": Method(_AFFINE, frozenset({"inner_T", "R_y", "max_N"}), _stm_ips, samples=False),
    "sstm": Method(_PLAIN, _STM, partial(_stm, stochastic=True)),
    "spdstm": Method(_AFFINE + DECENTRALIZED_KINDS, frozenset(
        {"C_hat", "L_tilde_factor", "metric_every", "stop_gap", "R_y", "max_N"}), _spdstm),
    "sstm_sc": Method(_CONSENSUS, frozenset(
        {"C", "metric_every", "stop_grad_norm", "R_y", "max_N"}), _sstm_sc),
    "ac_sa": Method(_AFFINE, _ACSA, _ac_sa),
    "rrma": Method(_AFFINE, _ACSA, partial(_ac_sa, recursive=True)),
    "restarted_rrma": Method(_CONSENSUS, frozenset({"C", "R_y"}), _restarted_rrma),
}


def run_settings(N, eps, beta, seed) -> tuple:
    """``(N, eps, beta, seed)`` checked: ``N`` a non-negative integer or "auto",
    ``eps > 0``, ``0 < beta < 1`` and ``seed`` a non-negative integer; ValueError otherwise."""
    N = N if isinstance(N, str) and N == "auto" else number(N, "N", integer=True, low=0)
    eps, beta = number(eps, "eps", low=0, strict=True), number(beta, "beta")
    if not 0 < beta < 1:
        raise ValueError(f"beta must be in (0, 1), got {beta!r}")
    return N, eps, beta, number(seed, "seed", integer=True, low=0)


def method_constants(method: str, constants: dict) -> dict:
    """``constants`` over the defaults of what ``method`` reads, each checked against its
    domain in :data:`CONSTANTS`; ValueError for an unknown method, a constant outside its
    record or its domain, and a stop rule ``metric_every: 0`` never measures."""
    if not isinstance(method, str) or method not in METHODS:
        raise ValueError(f"method must be one of {tuple(METHODS)}, got {method!r}")
    reads = METHODS[method].constants
    if set(constants) - reads:
        raise ValueError(f"method {method} does not read the constants "
                         f"{sorted(set(constants) - reads)}; it reads {sorted(reads)}")
    c = {key: CONSTANTS[key].check(constants.get(key, CONSTANTS[key].default), f"constants.{key}")
         for key in sorted(reads)}
    for rule in ("stop_gap", "stop_grad_norm"):
        if c.get(rule) is not None and c["metric_every"] == 0:
            raise ValueError(f"{rule} is never measured with metric_every 0")
    return c


def method_noise(method: str, noise):
    """ValueError for a ``noise`` (NoiseSpec or None) not zero on a method that draws no sample."""
    if noise is not None and (noise.delta or noise.sigma) and not METHODS[method].samples:
        raise ValueError(f"method {method} draws no sample, so its noise must be zero, "
                         f"got noise.delta {noise.delta!r} and noise.sigma {noise.sigma!r}")


def run_method(method: str, problem, N, eps, beta, constants: dict, seed=0):
    """Run ``method`` on ``problem`` (see the module docstring); returns ``(trace, y, x)``."""
    N, eps, beta, seed = run_settings(N, eps, beta, seed)
    c = method_constants(method, constants)
    method_noise(method, problem.noise)
    if c.get("R_y") is not None:  # the given bound replaces the problem's own
        problem.R_y = c["R_y"]
    trace, y, x, capped = METHODS[method].solve(problem, N, eps, beta, c, seed)
    if capped:
        trace.flag(CAP_FLAG.format(c["max_N"]))
    return trace, y, problem.finish(trace, y, x, seed)
