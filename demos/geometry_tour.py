#!/usr/bin/env python3
"""Tour of the Stiefel geometry toolkit.

Walks through the basic objects (points, dual tangent vectors), the
canonical metric and its index maps, the Cayley and geodesic retractions,
and the closed-form inverse retraction that makes interpolation and
extrapolation between two points cheap.
"""

import sys
from pathlib import Path

import numpy as np

import stiefel_agd as sa

# the reference code the solvers never run sits with the tests
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import reference as ref  # noqa: E402

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------
# Points and tangent vectors
# ---------------------------------------------------------------------
n, k = 8, 3
x = sa.random_point(n, k, seed=42)
print(f"random point on the {n}x{k} Stiefel manifold")
print("  ||X^T X - I||_F =", np.linalg.norm(x.x.T @ x.x - np.eye(k)))

# any matrix projects onto the dual tangent space at X
w = sa.project_dual(x, rng.standard_normal((n, k)))
print("  dual tangent residual ||W^T X + X^T W||_F =",
      np.linalg.norm(w.w.T @ x.x + x.x.T @ w.w))

# raising and lowering indices are mutual inverses and an isometry
v = ref.raise_indices(w)
w_back = ref.lower_indices(v)
print("  lower(raise(W)) - W:", np.linalg.norm(w_back.w - w.w))
print("  dual norm, raised norm:", sa.dual_norm(w),
      np.sqrt(ref.metric(v, v)))

# ---------------------------------------------------------------------
# Retractions
# ---------------------------------------------------------------------
# The Cayley retraction needs one 2k x 2k solve; the geodesic retraction
# exponentiates a (at most) 2k x 2k skew matrix. They agree to second
# order in the step.
print("\nstep size   ||cayley - geodesic||_F")
for t in (0.5, 0.25, 0.125, 0.0625):
    diff = np.linalg.norm(
        sa.cayley_retract(w, t).x - ref.geodesic_retract(w, t).x
    )
    print(f"  {t:7.4f}   {diff:.3e}")

# orthonormality is preserved over long trajectories without cleanup
p = x
for _ in range(2000):
    step = sa.project_dual(p, rng.standard_normal((n, k)))
    p = sa.cayley_retract(step, 0.5 / sa.dual_norm(step))
print("\ndrift after 2000 Cayley steps:",
      np.linalg.norm(p.x.T @ p.x - np.eye(k)))

# ---------------------------------------------------------------------
# Inverse retraction: interpolation and extrapolation
# ---------------------------------------------------------------------
# Solving R(X, raise(V)) = Y costs one k x k solve, after which any
# point (1 - a) X + a Y on the curve through X and Y is one retraction
# away. a > 1 extrapolates, which is exactly the momentum step the
# accelerated solvers use.
y = sa.cayley_retract(w, 0.4)
v = sa.retract_inverse(x, y)
print("\nroundtrip ||R(X, V) - Y||_F =",
      np.linalg.norm(sa.cayley_retract(v, 1.0).x - y.x))
for a in (0.0, 0.5, 1.0, 1.5):
    p = sa.lerp(x, y, a)
    print(f"  lerp alpha={a:3.1f}: dist to X = "
          f"{np.linalg.norm(p.x - x.x):.4f}, on-manifold error = "
          f"{np.linalg.norm(p.x.T @ p.x - np.eye(k)):.2e}")

# The inverse solve is safe as long as X and Y are not too far apart:
# kappa(I + X^T Y) <= 2 (3 - ||X - Y||_F^2)^(-1/2) when ||X-Y||_F^2 < 3.
d2 = np.linalg.norm(x.x - y.x) ** 2
sv = np.linalg.svd(np.eye(k) + x.x.T @ y.x, compute_uv=False)
print(f"\nconditioning: kappa(I + X^T Y) = {sv[0] / sv[-1]:.4f}, "
      f"bound = {2.0 / np.sqrt(3.0 - d2):.4f}")
