"""Property tests of the geometry identities on edge shapes.

Shapes cover k = 1, k = n, n = 1 and k = n - 1. The conditioning bound
cond(I + X^T Y) <= 2 / sqrt(3 - ||X - Y||_F^2) is checked on Cayley steps
pushed until ||X - Y||_F^2 is just below 3.
"""

import math

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from stiefel_agd.geometry import (
    cayley_retract,
    dual_norm,
    lerp,
    project_dual,
    random_point,
    retract_inverse,
)


@st.composite
def point_and_direction(draw):
    """A point on an edge shape and a dual vector at it of unit dual norm
    (the zero vector where the dual tangent space is {0}, as at n = k = 1)."""
    n = draw(st.integers(1, 12))
    k = draw(st.sampled_from(sorted({1, max(n - 1, 1), n})))
    seed = draw(st.integers(0, 2**32 - 1))
    x = random_point(n, k, seed)
    raw = np.random.default_rng([seed, 1]).standard_normal((n, k))
    w = project_dual(x, raw)
    norm = dual_norm(w)
    return x, (project_dual(x, w.w / norm) if norm > 0.0 else w)


def sq_distance(x, y) -> float:
    return float(np.linalg.norm(x.x - y.x) ** 2)


@given(point_and_direction(), st.floats(-10.0, 10.0))
def test_cayley_output_is_orthonormal(pw, scale):
    x, w = pw
    assert cayley_retract(x, w, scale).orth_error <= 1e-12


@given(point_and_direction())
def test_zero_scale_returns_the_base_point(pw):
    x, w = pw
    assert cayley_retract(x, w, 0.0) is x


@given(point_and_direction(), st.floats(0.05, 2.0))
def test_lerp_endpoints(pw, scale):
    x, w = pw
    y = cayley_retract(x, w, scale)
    assert lerp(x, y, 0.0) is x
    assert np.linalg.norm(lerp(x, y, 1.0).x - y.x) <= 1e-12


@given(point_and_direction(), st.floats(-2.0, 2.0))
def test_inverse_undoes_the_retraction(pw, scale):
    x, w = pw
    v = retract_inverse(x, cayley_retract(x, w, scale))
    assert np.linalg.norm(v.w - scale * w.w) <= 1e-12


def step_to_distance(x, w, target: float) -> float:
    """Largest step found by bisection with ||X - R(X, s w)||_F^2 <= target;
    the distance grows monotonically along a Cayley ray."""
    hi = 1.0
    while sq_distance(x, cayley_retract(x, w, hi)) <= target:
        hi *= 2.0
        assume(hi <= 2.0**12)
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if sq_distance(x, cayley_retract(x, w, mid)) <= target:
            lo = mid
        else:
            hi = mid
    return lo


@given(point_and_direction(), st.floats(1.0, 9.0))
def test_conditioning_bound_near_its_limit(pw, digits):
    x, w = pw
    assume(dual_norm(w) > 0.0)
    y = cayley_retract(x, w, step_to_distance(x, w, 3.0 - 10.0**-digits))
    d2 = sq_distance(x, y)
    assert d2 < 3.0
    bound = 2.0 / math.sqrt(3.0 - d2)
    sv = np.linalg.svd(np.eye(x.k) + x.x.T @ y.x, compute_uv=False)
    assert sv[0] / sv[-1] <= bound * (1.0 + 1e-12)
    # the inverse retraction still recovers y there
    back = cayley_retract(x, retract_inverse(x, y), 1.0)
    assert np.linalg.norm(back.x - y.x) <= 1e-12 * bound
