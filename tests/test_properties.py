"""Property tests of the geometry identities on edge shapes.

Shapes cover k = 1, k = n, n = 1 and k = n - 1. The conditioning bound
cond(I + X^T Y) <= 2 / sqrt(3 - ||X - Y||_F^2) is checked on Cayley steps
pushed until ||X - Y||_F^2 is just below 3.
"""

import math

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st

from stiefel_agd.geometry import (
    cayley_retract,
    dual_norm,
    geodesic_retract,
    lerp,
    project_dual,
    random_point,
    retract_inverse,
)
from stiefel_agd.linalg import solve_square


@st.composite
def point_and_direction(draw):
    """A point on an edge shape and a dual vector at it of unit dual norm
    (the zero vector where the dual tangent space is {0}, as at n = k = 1)."""
    n = draw(st.integers(1, 12))
    k = draw(st.sampled_from(sorted({1, max(n - 1, 1), n})))
    return unit_direction(n, k, draw(st.integers(0, 2**32 - 1)))


def unit_direction(n, k, seed):
    x = random_point(n, k, seed)
    raw = np.random.default_rng([seed, 1]).standard_normal((n, k))
    w = project_dual(x, raw)
    norm = dual_norm(w)
    return x, (project_dual(x, w.w / norm) if norm > 0.0 else w)


def sq_distance(x, y) -> float:
    return float(np.linalg.norm(x.x - y.x) ** 2)


@given(point_and_direction())
@example(unit_direction(1, 1, 0))
@example(unit_direction(9, 1, 1))
@example(unit_direction(6, 6, 2))
def test_cached_blocks_are_exact_and_read_only(pw):
    x, w = pw
    k = x.k
    xtw = x.x.T @ w.w
    pencil = np.zeros((3, 2 * k, 3 * k))
    pencil[0, :, : 2 * k] = np.eye(2 * k)
    pencil[0, :k, k : 2 * k] = -x.xtx
    pencil[0, :k, 2 * k :] = x.xtx
    pencil[1, :k, :k] = -xtw
    pencil[1, k:, k : 2 * k] = xtw.T
    pencil[1, k:, 2 * k :] = -xtw.T
    pencil[2, k:, :k] = w.w.T @ w.w
    expected = {
        "xtw": xtw,
        "wx": np.concatenate((w.w, x.x), axis=1),
        "pencil": pencil,
    }
    for name, block in expected.items():
        cached = getattr(w, name)
        assert np.array_equal(cached, block), name
        assert not cached.flags.writeable, name
        assert getattr(w, name) is cached, name


@given(point_and_direction(), st.floats(-10.0, 10.0))
def test_cayley_output_is_orthonormal(pw, scale):
    x, w = pw
    assert cayley_retract(w, scale).orth_error <= 1e-12


@given(point_and_direction())
def test_zero_scale_returns_the_base_point(pw):
    x, w = pw
    assert cayley_retract(w, 0.0) is x


@given(point_and_direction(), st.floats(-10.0, 10.0))
def test_geodesic_output_is_orthonormal(pw, t):
    _, w = pw
    assert geodesic_retract(w, t).orth_error <= 1e-12


@given(point_and_direction())
def test_geodesic_at_zero_time_returns_the_base_array(pw):
    x, w = pw
    assert np.array_equal(geodesic_retract(w, 0.0).x, x.x)


@given(point_and_direction(), st.floats(0.05, 2.0))
def test_lerp_endpoints(pw, scale):
    x, w = pw
    y = cayley_retract(w, scale)
    assert lerp(x, y, 0.0) is x
    assert np.linalg.norm(lerp(x, y, 1.0).x - y.x) <= 1e-12


@given(point_and_direction(), st.floats(-2.0, 2.0))
def test_inverse_undoes_the_retraction(pw, scale):
    x, w = pw
    v = retract_inverse(x, cayley_retract(w, scale))
    assert np.linalg.norm(v.w - scale * w.w) <= 1e-12


@given(point_and_direction(), st.floats(-2.0, 2.0))
def test_inverse_matches_the_n_right_hand_side_solve(pw, scale):
    x, w = pw
    y = cayley_retract(w, scale)
    m = np.eye(x.k) + x.x.T @ y.x
    raw = 2.0 * solve_square(m.T, y.x.T).T
    ref = project_dual(x, raw).w
    v = retract_inverse(x, y).w
    # both round at the scale of the unprojected 2 Y M^{-1}, which the
    # projection can shrink to nearly zero for a short step
    assert np.linalg.norm(v - ref) <= 1e-14 * np.linalg.norm(raw)
    if x.k == 1:
        assert np.array_equal(v, ref)


def step_to_distance(x, w, target: float) -> float:
    """Largest step found by bisection with ||X - R(X, s w)||_F^2 <= target;
    the distance grows monotonically along a Cayley ray."""
    hi = 1.0
    while sq_distance(x, cayley_retract(w, hi)) <= target:
        hi *= 2.0
        assume(hi <= 2.0**12)
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if sq_distance(x, cayley_retract(w, mid)) <= target:
            lo = mid
        else:
            hi = mid
    return lo


@given(point_and_direction(), st.floats(1.0, 9.0))
def test_conditioning_bound_near_its_limit(pw, digits):
    x, w = pw
    assume(dual_norm(w) > 0.0)
    y = cayley_retract(w, step_to_distance(x, w, 3.0 - 10.0**-digits))
    d2 = sq_distance(x, y)
    assert d2 < 3.0
    bound = 2.0 / math.sqrt(3.0 - d2)
    sv = np.linalg.svd(np.eye(x.k) + x.x.T @ y.x, compute_uv=False)
    assert sv[0] / sv[-1] <= bound * (1.0 + 1e-12)
    # the inverse retraction still recovers y there
    back = cayley_retract(retract_inverse(x, y), 1.0)
    assert np.linalg.norm(back.x - y.x) <= 1e-12 * bound
