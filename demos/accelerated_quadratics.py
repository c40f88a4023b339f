"""Accelerated solve of smooth quadratics, with a running optimality certificate.

The triangle scheme keeps three coupled sequences (averaged iterate,
extrapolation point, mirror point).  Its step sums A_k certify the
objective gap: f(x_k) - f* <= 3 R0^2 / (2 A_k), no knowledge of f*
needed.  We watch the certificate and the true gap side by side, then
check the sqrt(1/eps) iteration law.
"""

import numpy as np

from optdec import random_quadratic, stm
from optdec.schedules import gap_certificate_N

rng = np.random.default_rng(0)

# a 10-dimensional quadratic with condition number 100
problem = random_quadratic(10, cond=100.0, rng=rng)
oracle = problem.oracle()
x0 = rng.standard_normal(10)
R0 = np.linalg.norm(x0 - problem.x_star)

x, trace = stm(oracle, x0, 300, f_star=problem.f_star, x_star=problem.x_star)

print("iter      true gap         certificate 3R0^2/(2A_k)")
for k in (1, 3, 10, 30, 100, 300):
    gap = trace.rows[k]["f_gap"]
    cert = 1.5 * R0 ** 2 / trace.rows[k]["A_k"]
    print(f"{k:4d}   {gap:12.3e}   {cert:12.3e}")

print(f"\ngradient calls: {oracle.counter.grad_calls}")
print(f"final distance to optimum: {np.linalg.norm(x - problem.x_star):.2e}")

# strongly convex mode: geometric step-sum growth instead of quadratic
oracle2 = problem.oracle()
x_sc, trace_sc = stm(oracle2, x0, 300, mode="strongly_convex",
                     f_star=problem.f_star)
print(f"convex-mode final gap:          {trace.final['f_gap']:.3e}")
print(f"strongly-convex-mode final gap: {trace_sc.final['f_gap']:.3e}")

# iteration law: the N needed to certify eps scales like sqrt(1/eps)
print("\n  eps      N(eps) from the certificate")
for eps in (1e-1, 1e-2, 1e-3, 1e-4):
    N = gap_certificate_N(R0, oracle.L, eps, max_N=10 ** 6)
    print(f"{eps:7.0e}  {N:6d}")
