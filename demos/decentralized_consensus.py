"""Consensus optimisation over simulated networks.

Each node holds a private quadratic; the consensus constraint is encoded
as sqrt(W) x = 0 through the graph Laplacian W, and the dual solvers run
with exactly two counted sqrt(W) multiplications (communication rounds)
per gradient evaluation.  The Laplacian condition number chi governs how
many rounds a fixed accuracy costs.
"""

import numpy as np

from optdec import (DecentralizedInstance, QuadraticProblem, Topology, chi,
                    laplacian, run_distributed)

rng = np.random.default_rng(1)
m, n = 6, 2
centers = rng.standard_normal((m, n))

def make_instance(topology):
    locals_ = [QuadraticProblem(np.eye(n), centers[k % m][:n]).oracle() for k in range(topology.m)]
    return DecentralizedInstance(locals_, topology, n)

print("the consensus optimum is the mean of the local centers:", centers.mean(axis=0))

for name, topo in (("complete", Topology.complete(m)),
                   ("ring", Topology.ring(m)),
                   ("star", Topology.star(m)),
                   ("path", Topology.path(m))):
    inst = make_instance(topo)
    x_nodes, trace, counter = run_distributed(
        "sstm_sc", inst,
        {"eps": 1e-5, "stop_grad_norm": 1e-6, "max_N": 50_000})
    err = np.abs(x_nodes - centers.mean(axis=0)).max()
    cond = chi(laplacian(topo))
    print(f"{name:9s} chi={cond:6.2f}  iterations={trace.final['iter']:5d}  "
          f"rounds={counter.comm_rounds:5d}  max node error={err:.1e}")

# round accounting is exact: 2 rounds per dual evaluation
inst = make_instance(Topology.ring(m))
N = 25
_, trace, counter = run_distributed("sstm_sc", inst, {"N": N, "metric_every": 0})
print(f"\nfixed N={N}: rounds = {counter.comm_rounds} "
      f"(= 2 x ({N}+1) evaluations + 2 for recovery)")

# a noisy run: per-node sub-Gaussian noise on the local maximisers
from optdec import NoiseSpec

inst = make_instance(Topology.ring(m))
x_nodes, trace, counter = run_distributed(
    "spdstm", inst,
    {"eps": 1e-3, "beta": 0.1, "noise": NoiseSpec(0.0, 0.05, "gaussian"),
     "seed": 3, "metric_every": 0, "max_N": 2000})
print(f"\nnoisy primal-dual run: samples={trace.final['stoch_samples']}, "
      f"rounds={counter.comm_rounds}, node error={np.abs(x_nodes - centers.mean(axis=0)).max():.1e}")
