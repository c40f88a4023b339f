"""Step-size sequences and mini-batch schedules for the accelerated methods.

All solvers in this package drive their extrapolation with a pair
``(alpha_k, A_k)`` where ``A_k = sum_{l<=k} alpha_l``.  The next step size
is the positive root of a quadratic coupling relation

    ``A_{k+1} (1 + A_k mu) = factor * L * alpha_{k+1}^2``

whose ``factor`` is 1 for the direct schemes and 2 for the inexact-prox and
primal-dual schemes.  Roots are computed in the cancellation-free
arrangement ``b + sqrt(b^2 + c)`` because ``A_k`` reaches 1e6+ at the
scales exercised here.

Every accelerated loop runs on :func:`triangle` (the inner prox of
``stm_ips`` runs the same steps as a coefficient table), driven by a stepper
``step = stm_step(L, mu, factor)`` that checks ``L`` and ``mu`` and scales
``L`` once; ``step(A)`` is bitwise ``next_alpha_stm(A, L, mu, factor)``, which
evaluates the same expression, and :func:`stm_chain` takes ``m`` such steps
in one loop.  The ``next_alpha_*`` functions serve the planners and single
steps.  Inside :func:`triangle` the step sizes scale vectors as 0-d float64
arrays, the same bits as the expression form with Python floats, and every
callback gets Python floats.

``N: "auto"`` is planned by :func:`gap_certificate_N` from
``3 R0^2 / (2 A_N) <= eps``, or for ``sstm_sc`` by :func:`grad_certificate_N`
from ``L^3 R_y^2 / A_N <= (eps/R_y)^2``, and capped at ``max_N`` by
:func:`capped_N`, which tells whether the cap stopped the plan before its
certificate held (:data:`CAP_FLAG`).

The dual batch rules expose their hidden proportionality constants
(``C_hat``, ``C``) as arguments defaulting to 1; every rule degenerates to
batch 1 on a noiseless oracle.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "next_alpha_stm",
    "next_alpha_strongly_convex",
    "next_alpha_spdstm",
    "stm_step",
    "stm_chain",
    "triangle",
    "gap_certificate_N",
    "grad_certificate_N",
    "CAP_FLAG",
    "capped_N",
    "acsa_params",
    "batch_size_sstm",
    "batch_size_spdstm",
    "batch_size_sstm_sc",
]


def _coupling(L, mu, factor):
    """Checked ``(mu, factor L, 2 factor L)`` of the coupling, as floats."""
    if L <= 0:
        raise ValueError("L must be positive")
    if mu < 0:
        raise ValueError("mu must be non-negative")
    cL = float(factor * L)
    return float(mu), cL, 2.0 * cL


def _next_alpha(mu, cL, two_cL, A):
    """The root: ``alpha = b + sqrt(b^2 + c)`` with ``b = (1 + A mu) / (2 cL)``
    and ``c = A (1 + A mu) / cL``; returns ``(alpha, A + alpha)``."""
    w = 1.0 + A * mu
    b = w / two_cL
    alpha = b + math.sqrt(b * b + A * w / cL)
    return alpha, A + alpha


def stm_step(L: float, mu: float = 0.0, factor: float = 1.0):
    """The similar-triangles stepper ``step(A) -> (alpha, A + alpha)``.

    ``step(A)`` solves ``(A + alpha)(1 + A mu) = factor * L * alpha^2`` for
    the positive ``alpha``.  ``L`` and ``mu`` are checked once and
    ``factor L`` and ``2 factor L`` computed once; each step evaluates the
    root expression :func:`next_alpha_stm` evaluates, so it has the same
    bits.  ``A`` must be non-negative, as it is along a run from
    ``A_0 >= 0``; it is not checked per step.
    """
    return functools.partial(_next_alpha, *_coupling(L, mu, factor))


def stm_chain(step, A: float, m: int):
    """``m`` steps of the stepper ``step = stm_step(L, mu, factor)`` from ``A``: the lists
    ``[alpha_1, ..., alpha_m]`` and ``[A, A_1, ..., A_m]``.

    One loop on local floats evaluates the root of :func:`_next_alpha` inline, so each
    step has the bits of ``step(A)`` without a call per step.
    """
    mu, cL, two_cL = step.args
    sqrt = math.sqrt
    alphas, As = [], [A]
    for _ in range(m):
        w = 1.0 + A * mu
        b = w / two_cL
        alpha = b + sqrt(b * b + A * w / cL)
        A += alpha
        alphas.append(alpha)
        As.append(A)
    return alphas, As


def next_alpha_stm(A_k: float, L: float, mu: float = 0.0, factor: float = 1.0):
    """Next ``(alpha, A)`` for the similar-triangles coupling.

    Solves ``(A_k + alpha)(1 + A_k mu) = factor * L * alpha^2`` for the
    positive ``alpha``: one checked step of :func:`stm_step`.  ``factor=1``
    matches the direct scheme (so that ``alpha_1 = 1/L`` from ``A_0 = 0``
    with ``mu = 0``), ``factor=2`` the inexact-prox normalization.
    """
    mu, cL, two_cL = _coupling(L, mu, factor)
    if A_k < 0:
        raise ValueError("A_k must be non-negative")
    return _next_alpha(mu, cL, two_cL, A_k)


def next_alpha_strongly_convex(A_k: float, L: float, mu: float):
    """Next ``(alpha, A)`` for the strongly convex scheme started at ``A_0 = 1/L``.

    Identical coupling to :func:`next_alpha_stm` with ``factor=1``; kept as
    its own entry point because the initialization (``alpha_0 = A_0 = 1/L``)
    and the geometric lower bound
    ``A_k >= (1/L)(1 + sqrt(mu/L)/2)^{2k}`` are specific to this mode.
    """
    return next_alpha_stm(A_k, L, mu, factor=1.0)


def next_alpha_spdstm(A_k: float, L_tilde: float):
    """Next ``(alpha, A)`` from ``2 L_tilde alpha^2 = A_k + alpha``: the
    similar-triangles coupling with ``mu = 0`` and ``factor=2``."""
    return next_alpha_stm(A_k, L_tilde, 0.0, factor=2.0)


def triangle(step, A, x, z, N, gradient, mirror, after):
    """Run ``N`` similar-triangles steps from ``(x, z, A)``; returns ``(x, z, A)``.

    Step ``k`` takes ``alpha, A' = step(A)`` (a :func:`stm_step`),
    extrapolates ``x~ = (A x + alpha z) / A'``, asks
    ``gradient(k, x~, alpha, A')`` for ``g``, moves the mirror point to
    ``mirror(z, g, x~, alpha, A')`` and averages ``x = (A x + alpha z) / A'``.
    A true ``after(k, x, z, A')`` ends the loop early.  A step whose ``A'`` is
    not finite (nor then its ``alpha``) raises ``OverflowError`` naming the
    step ``k + 1``, before any point is formed from it.

    The step is bitwise the expression form above: ``A x`` is computed once
    per step, and each point is built as ``t = alpha z; t += A x; t /= A'``,
    which rounds exactly like ``(A x + alpha z) / A'`` because IEEE addition
    is commutative.  The evaluation order is fixed, and in-place updates
    touch only arrays the step itself created, before they are handed to a
    callback; the caller's ``x`` and ``z`` are never written.

    Scalars: the vector updates scale by ``alpha``, ``A'`` and ``A`` held as
    0-d float64 arrays (``A'`` is reused as the next step's ``A``), which
    numpy dispatches faster than Python floats, with the same IEEE
    operations and bits.  Every callback, ``step`` included, gets Python
    floats, and so does the caller: ``A`` is returned as a float.
    """
    A = float(A)
    A_arr = np.array(A)
    inf = math.inf
    for k in range(N):
        alpha, A_next = step(A)
        if not A_next < inf:  # A' = A + alpha with A finite: an alpha not finite fails too
            raise OverflowError(f"step size overflow at step {k + 1}: A = {A:.17g} gives "
                                f"A' = {A_next}")
        alpha_arr, A_next_arr = np.array(alpha), np.array(A_next)
        Ax = A_arr * x
        x_tilde = alpha_arr * z
        x_tilde += Ax
        x_tilde /= A_next_arr
        g = gradient(k, x_tilde, alpha, A_next)
        z = mirror(z, g, x_tilde, alpha, A_next)
        x = alpha_arr * z
        x += Ax
        x /= A_next_arr
        A, A_arr = A_next, A_next_arr
        if after(k, x, z, A):
            break
    return x, z, A


def gap_certificate_N(R0: float, L: float, eps: float, max_N: int, factor: float = 2.0) -> int:
    """Fewest steps of :func:`next_alpha_stm` (``mu = 0``) with
    ``3 R0^2 / (2 A_N) <= eps``, or ``max_N`` if the cap comes first.

    ``next_alpha_spdstm(A, L)`` is ``next_alpha_stm(A, L, 0, 2)``, so this
    also plans the primal-dual scheme with ``L = L~``.
    """
    return _fewest_steps(lambda A: next_alpha_stm(A, L, 0.0, factor=factor), 0.0,
                         lambda A: 1.5 * R0 * R0 / A <= eps, max_N)


def grad_certificate_N(R_y: float, L: float, mu: float, eps: float, max_N: int) -> int:
    """Fewest steps of :func:`next_alpha_strongly_convex` from ``A_0 = 1/L`` with
    ``L^3 R_y^2 / A_N <= (eps / R_y)^2``, or ``max_N`` if the cap comes first.

    ``L R_y^2 / A_N`` bounds ``||y_N - y*||^2``, so the left side bounds ``||grad psi(y_N)||^2``.
    """
    target = (eps / max(R_y, 1e-12)) ** 2
    R0sq = R_y ** 2
    return _fewest_steps(lambda A: next_alpha_strongly_convex(A, L, mu), 1.0 / L,
                         lambda A: L ** 2 * R0sq * L / A <= target, max_N)


def _fewest_steps(step, A, certified, max_N: int) -> int:
    """Fewest steps ``_, A = step(A)`` from ``A`` until ``certified(A)``, else ``max_N``."""
    for k in range(1, max_N + 1):
        _, A = step(A)
        if certified(A):
            return k
    return max_N


# trace flag of an auto N that the cap stopped before its certificate held
CAP_FLAG = "auto N stopped at max_N {} before its certificate held"


def capped_N(N, plan, max_N: int):
    """``(N, False)`` for a fixed ``N``; for ``"auto"``, ``plan(max_N + 1)`` capped at
    ``max_N`` and whether the cap stopped it (a plan certified at the cap was not stopped)."""
    if N != "auto":
        return N, False
    planned = plan(max_N + 1)
    return min(planned, max_N), planned > max_N


def acsa_params(t: int, L_tilde_psi: float):
    """Per-iteration pair ``(alpha_t, gamma_t) = (2/(t+1), 4 L / (t(t+1)))``."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if L_tilde_psi <= 0:
        raise ValueError("L_tilde_psi must be positive")
    return 2.0 / (t + 1), 4.0 * L_tilde_psi / (t * (t + 1))


def _ceil_at_least_one(x: float) -> int:
    return max(1, math.ceil(x))


def batch_size_sstm(alpha_next: float, A_next: float, mu: float, sigma: float,
                    eps: float, N: int, beta: float) -> int:
    """Mini-batch size ``max(1, ceil(sigma^2 alpha ln(N/beta) / ((1+A mu) eps)))``."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if sigma == 0.0:
        return 1
    raw = sigma ** 2 * alpha_next * math.log(N / beta) / ((1.0 + A_next * mu) * eps)
    return _ceil_at_least_one(raw)


def batch_size_spdstm(alpha_tilde_k: float, sigma_psi: float, eps: float,
                      N: int, beta: float, C_hat: float = 1.0) -> int:
    """Primal-dual batch rule ``max(1, ceil(sigma_psi^2 alpha~ ln(N/beta)/(C_hat eps)))``."""
    if C_hat <= 0:
        raise ValueError("C_hat must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if sigma_psi == 0.0:
        return 1
    raw = sigma_psi ** 2 * alpha_tilde_k * math.log(N / beta) / (C_hat * eps)
    return _ceil_at_least_one(raw)


def batch_size_sstm_sc(L_psi: float, mu_psi: float, sigma_psi: float, eps: float,
                       N: int, beta: float, C: float = 1.0) -> int:
    """Batch rule for the strongly convex dual scheme.

    ``max(1, ceil((mu/L)^{3/2} N^2 sigma^2 ln(N/beta) / (C eps)))``, which is 1
    at ``N = 0`` (where the ``N^2`` factor is 0 and the logarithm undefined).
    """
    if eps <= 0 or C <= 0:
        raise ValueError("eps and C must be positive")
    if sigma_psi == 0.0 or N == 0:
        return 1
    raw = (mu_psi / L_psi) ** 1.5 * N ** 2 * sigma_psi ** 2 * math.log(N / beta) / (C * eps)
    return _ceil_at_least_one(raw)
