#!/usr/bin/env python3
"""Computing several eigenvectors at once via the Brockett cost.

Minimizing f(X) = (1/2) sum_i alpha_i <x_i, A x_i> with strictly
increasing positive weights over n x k orthonormal matrices recovers the
k eigenvectors with the smallest eigenvalues, in a fixed column order:
the largest weight pairs with the smallest eigenvalue.

The weights also control the conditioning of the problem. Given the
spectrum, a cumulative-reciprocal-gap choice minimizes the Hessian
condition number at the solution; for the linear spectrum 1..n it is
simply alpha_i = i.
"""

import numpy as np

import stiefel_agd as sa

n, k = 120, 6
spectrum = sa.SpectrumInfo(np.arange(1.0, n + 1.0))

alpha = sa.optimal_weights(spectrum, k)
print("condition-number-minimizing weights:", alpha)
print("kappa with those weights:  ",
      sa.brockett_condition_number(spectrum, alpha))
print("best achievable kappa:     ",
      sa.optimal_condition_number(spectrum, k))
print("kappa with naive 1,2,4,...:",
      sa.brockett_condition_number(spectrum, [1, 2, 4, 8, 16, 32]))

objective = sa.make_objective(spectrum, alpha)
x0 = sa.random_point(n, k, seed=11)
trace = sa.agd_gradient_restart(objective, x0, sa.SolverConfig(epsilon=1e-10))

print(f"\nsolved in {trace.iterations} iterations "
      f"({trace.restarts} restarts), termination: {trace.termination}")
print("final value:  ", trace.final_value)
print("exact minimum:", sa.known_minimum(spectrum, alpha))

# column i should align with the eigenvector of lambda_{k+1-i}; for the
# diagonal operator those are coordinate axes
x = trace.final_point.x
print("\ncolumn  paired eigenvalue  |overlap|")
for i in range(k):
    print(f"  {i:2d}    lambda_{k - i} = {spectrum.eigenvalues[k - 1 - i]:4.0f}"
          f"      {abs(x[k - 1 - i, i]):.12f}")

# a dense (non-diagonal) operator works the same way; LAPACK's symmetric
# eigenvalue solver provides an independent check of the answer
rng = np.random.default_rng(5)
m = 40
basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
lam_dense = np.sort(rng.uniform(0.0, 10.0, m)) + np.arange(m) * 0.1
a = (basis * lam_dense) @ basis.T
dense_obj = sa.ObjectiveSpec(sa.DenseOperator(a), np.array([1.0, 2.0, 3.0]))
trace = sa.agd_function_restart(dense_obj, sa.random_point(m, 3, 1),
                                sa.SolverConfig(epsilon=1e-10))
lam_check = np.linalg.eigvalsh(a)
print("\ndense operator: f_final =", trace.final_value)
print("from LAPACK spectrum:     ",
      sa.known_minimum(sa.SpectrumInfo(lam_check), [1.0, 2.0, 3.0]))
