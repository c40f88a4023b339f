"""Affine-constrained minimisation by quadratic penalty + inexact prox steps.

min f(x) s.t. A x = 0 is replaced by min F(x) = f(x) + (R_y^2/eps)||Ax||^2.
Driving F to accuracy eps transfers back: the f-gap is at most eps and the
constraint residual at most 2 eps / R_y, where R_y bounds the norm of the
minimal dual solution.  The composite term is handled by inexact proximal
steps, each an inner accelerated solve of a small strongly convex model.
"""

import numpy as np

from optdec import QuadraticProblem, build_penalty, stm_ips, verify_penalty_transfer
from optdec.problems import constrained_quadratic_optimum, min_norm_dual_solution
from optdec.schedules import gap_certificate_N

# f(x) = 0.5 ||x - (1, 3)||^2 constrained to x1 = x2; the constrained
# optimum is (2, 2) with value 1 (up to the fixed constant)
problem = QuadraticProblem(np.eye(2), np.array([1.0, 3.0]))
A = np.array([[1.0, -1.0]])

x_c, f_c = constrained_quadratic_optimum(problem.Q, problem.b, A)
y_star, _ = min_norm_dual_solution(problem.Q, problem.b, A)
R_y = np.linalg.norm(y_star)
print(f"constrained optimum: {x_c},  minimal dual norm R_y = {R_y:.3f}")

eps = 1e-2
penalty = build_penalty(problem.oracle(), A, R_y, eps)
print(f"penalty coefficient {penalty.coeff:.1f}, composite smoothness L_h = {penalty.L_h:.1f}")

# exact penalised optimum (quadratic): for sizing and for the premise check
x_F = np.linalg.solve(problem.Q + 2 * penalty.coeff * penalty.AtA, problem.b)
F_star = penalty.F_value(x_F)

# iterations sized by the certificate
N = gap_certificate_N(np.linalg.norm(x_F), problem.L, eps, max_N=10 ** 6)
print(f"running {N} outer steps (certificate-sized for eps={eps:g})")

x, trace = stm_ips(penalty, np.zeros(2), N, F_star=F_star, x_star=x_F)

report = verify_penalty_transfer(x, penalty, F_star)
print(f"\npremise  F-gap <= eps:        {report['F_gap']:.2e}  ok={report['premise_ok']}")
print(f"transfer f-gap <= eps:        {report['f_gap']:.2e}  ok={report['f_gap_ok']}")
print(f"transfer ||Ax|| <= 2eps/R_y:  {report['constraint_norm']:.2e}  ok={report['feasibility_ok']}")
print(f"\nfinal point {x} vs constrained optimum {x_c}")
print(f"gradient calls {penalty.counter.grad_calls}, "
      f"constraint-map products {penalty.counter.matvec_AtA}")
