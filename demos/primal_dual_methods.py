"""The dual road to affine constraints: three methods on one tiny instance.

For strongly convex f, the dual psi(y) = max_x {<A^T y, x> - f(x)} is
smooth with gradient A x(A^T y); driving it down recovers primal iterates
from the inner maximisers.  Instance: f(x) = 0.5||x - (1,3)||^2 under
x1 = x2, whose dual is the scalar parabola psi(y) = y^2 - 2y (+ const).
"""

import numpy as np

from optdec import (DualOracle, FirstOrderOracle, NoiseSpec, RngStreams,
                    duality_gap, primal_recovery, restarted_rrma, spdstm,
                    sstm_sc)

c = np.array([1.0, 3.0])
oracle = FirstOrderOracle(2, lambda x: 0.5 * float(np.sum((x - c) ** 2)),
                          lambda x: x - c, L=1.0, mu=1.0)
A = np.array([[1.0, -1.0]])
dual = DualOracle(oracle, A, lambda u: u + c)
print(f"dual constants: L_psi = {dual.L_psi}, mu_psi = {dual.mu_psi}")

# --- primal-dual averaging: certifies f(x~) + psi(y) ---------------------
y, x_avg, trace = spdstm(dual, 300, eps=1e-4, beta=0.1, metric_every=100)
print("\nprimal-dual scheme:")
print(f"  y_N = {y[0]:.6f} (optimum 1), x~_N = {x_avg}")
print(f"  duality gap {trace.final['dual_gap']:.2e}, "
      f"residual ||A x~|| {trace.final['constraint_norm']:.2e}")

# --- direct acceleration on the strongly convex dual ---------------------
y2, trace2 = sstm_sc(dual, np.zeros(1), 40)
x2 = primal_recovery(dual, y2, 1, RngStreams(0).child(0))
print("\ndirect strongly convex scheme:")
print(f"  y_N = {y2[0]:.10f}, recovered x = {x2}")
print(f"  exact gradient norm {trace2.final['grad_norm']:.2e}")

# --- restarted regularization: drives the gradient norm ------------------
y3, trace3 = restarted_rrma(dual, np.zeros(1), eps=1e-5, beta=0.1, R_y=1.0)
print("\nrestarted recursive regularization:")
print("  per-restart gradient norms:",
      np.array2string(trace3.column("grad_norm"), precision=2))
x3 = primal_recovery(dual, y3, 1, RngStreams(0).child(1))
print(f"  final point {y3}, recovered x = {x3}")
print(f"  gap/feasibility at the end: {duality_gap(oracle, dual, x3, y3)}")

# --- the same primal-dual run with a noisy oracle -------------------------
noisy = DualOracle(oracle, A, lambda u: u + c,
                         noise=NoiseSpec(delta=0.0, sigma=0.1, kind="gaussian"))
y4, x4, trace4 = spdstm(noisy, 200, eps=5e-3, beta=0.05, seed=7, metric_every=100)
print("\nnoisy oracle (sigma = 0.1), batches grown by the theory rule:")
print(f"  samples drawn: {noisy.counter.stoch_samples}")
print(f"  duality gap {trace4.final['dual_gap']:.2e}")
