"""Smoothed optimal transport and decentralized barycenters.

The entropy-smoothed transport distance has an explicit log-sum-exp dual
whose gradient is a transport marginal: a probability vector computable in
O(n^2).  That makes each node of a barycenter problem "dual friendly" --
its conjugate oracle needs no inner solver -- and the whole empirical
barycenter reduces to a consensus-constrained dual solve.
"""

import numpy as np

from optdec import (Topology, barycenter_problem, entropic_ot_dual_grad,
                    entropic_ot_dual_value, entropic_wasserstein,
                    projected_gradient_barycenter, run_distributed)

# --- the smoothed distance and its dual potential -------------------------
p = np.array([0.3, 0.7])
q = np.array([0.6, 0.4])
C = np.array([[0.0, 1.0], [1.0, 0.0]])
mu = 0.5

value, lam = entropic_wasserstein(p, q, C, mu)
print(f"W_mu(p, q) = {value:.6f}, optimal potential lam* = {lam} (zero mean)")
print(f"marginal at lam*: {entropic_ot_dual_grad(lam, q, C, mu)} (should equal p)")

# shift invariance of the dual value
v0 = entropic_ot_dual_value(lam, q, C, mu)
v5 = entropic_ot_dual_value(lam + 5.0, q, C, mu)
print(f"shift identity: value(lam + 5) - value(lam) = {v5 - v0:.12f}")

# --- barycenter of several measures over a network -------------------------
n, m = 7, 4
atoms = np.linspace(0.0, 1.0, n)
Cn = np.abs(atoms[:, None] - atoms[None, :])
rng = np.random.default_rng(2)
measures = rng.dirichlet(np.full(n, 2.0), size=m)
mu_n = 0.1

instance = barycenter_problem(measures, Cn, mu_n, Topology.ring(m))
x_nodes, trace, counter = run_distributed(
    "spdstm", instance,
    {"eps": 1e-6, "beta": 0.1, "N": 5000, "metric_every": 0})

print(f"\nbarycenter nodes agree to {np.abs(x_nodes - x_nodes.mean(axis=0)).max():.1e}")
print("per-node barycenter estimate:", np.array2string(x_nodes[0], precision=4))
print(f"communication rounds: {counter.comm_rounds}")

# centralized verification oracle: projected gradient on the simplex
p_ref = projected_gradient_barycenter(measures, Cn, mu_n, iters=150, inner_tol=1e-9)
print("projected-gradient reference: ", np.array2string(p_ref, precision=4))
print(f"max deviation: {np.abs(x_nodes - p_ref).max():.2e}")

# the degenerate sanity case: identical measures give back the measure
same = np.tile(measures[0], (m, 1))
inst2 = barycenter_problem(same, Cn, 0.02, Topology.ring(m))
x2, _, _ = run_distributed("spdstm", inst2,
                           {"eps": 1e-6, "beta": 0.1, "N": 50, "metric_every": 0})
print(f"\nidentical measures: recovery error {np.abs(x2 - measures[0]).max():.1e}")
