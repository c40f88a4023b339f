"""Accelerated primal and dual first-order methods for affine-constrained
and decentralized convex optimization, with oracle and communication
accounting."""

from .oracles import (CallCounter, DualOracle, FirstOrderOracle, NoiseSpec,
                      RngStreams, StochasticGradientOracle)
from .schedules import (acsa_params, batch_size_spdstm, batch_size_sstm,
                        batch_size_sstm_sc, next_alpha_spdstm, next_alpha_stm,
                        next_alpha_strongly_convex)
from .trace import RunTrace, summary_from_trace
from .primal import (CompositeProblem, PenaltyProblem, argmax_solver_via_stm,
                     build_penalty, sstm, stm, stm_ips, verify_penalty_transfer)
from .dual import (DivergenceError, RegularizedDual, RestartConfig, ac_sa,
                   ac_sa2, duality_gap, primal_recovery, restarted_rrma,
                   rrma_ac_sa2, spdstm, sstm_sc)
from .network import (DecentralizedInstance, DistributedDualOracle,
                      KronOperator, LaplacianPair, Topology, chi, laplacian,
                      laplacian_pair, lift_laplacian, run_distributed,
                      sqrt_psd)
from .problems import (QuadraticProblem, barycenter_problem,
                       constrained_quadratic_optimum, entropic_ot_dual_grad,
                       entropic_ot_dual_value, entropic_wasserstein,
                       min_norm_dual_solution, projected_gradient_barycenter,
                       random_quadratic, random_quadratics, simplex_project)

__version__ = "0.1.0"
