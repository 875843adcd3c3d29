#!/usr/bin/env python3
"""The Euclidean convergence theory behind the manifold solvers.

Two classical regimes of the accelerated iteration

    x_{t+1} = y_t - gamma grad f(y_t),  y_{t+1} = x_{t+1} + alpha_t (x_{t+1} - x_t)

are checked on a quadratic: the constant-momentum strongly convex regime
with its geometric rate, and the q-schedule regime (q_t = t gives the
familiar t/(t+3) momentum) with its O(t^-2) rate certified by a
Lyapunov function that never increases.
"""

import numpy as np

import stiefel_agd as sa

rng = np.random.default_rng(1)
dim, mu, L = 32, 0.5, 200.0
d = np.sort(rng.uniform(mu, L, dim))
d[0], d[-1] = mu, L
x_star = rng.standard_normal(dim)
f = lambda x: 0.5 * float(np.sum(d * (np.asarray(x) - x_star) ** 2))
g = lambda x: d * (np.asarray(x) - x_star)
x0 = rng.standard_normal(dim) * 2.0

print(f"quadratic: dim={dim}, mu={mu}, L={L}, kappa={L / mu:.0f}\n")

# strongly convex regime: f(x_t) - f* <= 2 (1 - sqrt(mu/L))^t (f(x0) - f*)
traj = sa.euclidean_agd(f, g, x0, sa.StronglyConvexMode(mu, L), steps=120)
rate = 1.0 - np.sqrt(mu / L)
print("strongly convex regime (alpha constant, gamma = 1/L)")
print(f"{'t':>5} {'f(x_t) - f*':>14} {'2 rate^t (f0-f*)':>18}")
for t in (0, 10, 20, 40, 80, 120):
    print(f"{t:>5} {f(traj.xs[t]):>14.6e} {2.0 * rate**t * f(x0):>18.6e}")

# q-schedule regime: f(x_t) - f* <= 2 L ||x0 - x*||^2 / t^2, with the
# Lyapunov function J_t as the certificate
traj = sa.euclidean_agd(f, g, x0, sa.QScheduleMode(gamma=1.0 / L), steps=120)
r0 = float(np.sum((x0 - x_star) ** 2))
js = [sa.lyapunov_value(f, traj.xs[t], traj.ys[t], 1.0 / L, float(t), x_star)
      for t in range(121)]
print("\nq-schedule regime (q_t = t, gamma = 1/L)")
print(f"{'t':>5} {'f(x_t) - f*':>14} {'2 L r0 / t^2':>14} {'J_t':>12}")
for t in (1, 5, 10, 20, 40, 80, 120):
    print(f"{t:>5} {f(traj.xs[t]):>14.6e} {2.0 * L * r0 / t**2:>14.6e} "
          f"{js[t]:>12.6e}")

increases = sum(1 for t in range(120) if js[t + 1] > js[t] + 1e-10 * js[0])
print(f"\nLyapunov increases beyond tolerance: {increases} "
      f"(J_0 = 2 ||x0 - x*||^2 = {js[0]:.6e}, check {2 * r0:.6e})")

# the proof needs q_0 = 0 and (q_{t+1} + 1)^2 <= (q_t + 2)^2 + 1; q_t = t
# meets both, checked here in exact integers
q = lambda t: t
admissible = q(0) == 0 and all(
    (q(t + 1) + 1) ** 2 <= (q(t) + 2) ** 2 + 1 for t in range(10_000)
)
print("q_t = t admissible up to t = 10^4:", admissible)
