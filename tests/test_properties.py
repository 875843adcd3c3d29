"""Property tests of the geometry identities on edge shapes.

Shapes cover k = 1, k = n, n = 1 and k = n - 1. The conditioning bound
cond(I + X^T Y) <= 2 / sqrt(3 - ||X - Y||_F^2) is checked on Cayley steps
pushed until ||X - Y||_F^2 is just below 3. Bases whose trailing rows are
about 2^-600 check that no Cayley output holds an entry in (0, TINY).
The helpers that stand in for numpy calls on every pass (the Frobenius
norm, the shared identity, the cached attribute and the subnormal snap)
are checked against the calls they replace, bit for bit.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stiefel_agd import geometry
from stiefel_agd.geometry import (
    TINY,
    StiefelPoint,
    cayley_retract,
    dual_norm,
    lerp,
    project_dual,
    random_point,
    retract_inverse,
)
from stiefel_agd.linalg import frobenius, identity, qr_thin, solve_square

from reference import geodesic_retract


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
        "pencil": tuple(pencil),  # P0, P1, P2
    }
    for name, block in expected.items():
        cached = getattr(w, name)
        assert type(cached) is type(block), name
        assert np.array_equal(cached, block), name
        for part in cached if isinstance(cached, tuple) else (cached,):
            assert not part.flags.writeable, name
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


@st.composite
def tiny_tailed_point_and_direction(draw):
    """A point with n > k whose last 1..n-k rows are about 2^-600, and a
    dual vector at it whose same rows are as small."""
    n = draw(st.integers(2, 12))
    k = draw(st.sampled_from(sorted({1, n - 1})))
    rows = draw(st.integers(1, n - k))
    return tiny_tailed(n, k, rows, draw(st.integers(0, 2**32 - 1)))


def tiny_tailed(n, k, rows, seed):
    """The thin QR of a Gaussian matrix with its last ``rows`` rows scaled
    by 2^-600, and the dual projection of another such matrix at it."""
    a = np.random.default_rng(seed).standard_normal((2, n, k))
    a[:, n - rows :] *= 2.0**-600
    x = StiefelPoint(qr_thin(a[0])[0])
    return x, project_dual(x, a[1])


def outside_the_gap(a) -> bool:
    """No entry of ``a`` lies in (0, TINY)."""
    a = np.abs(a)
    return not np.any((a > 0.0) & (a < TINY))


@given(tiny_tailed_point_and_direction(), st.floats(-10.0, 10.0))
@example(tiny_tailed(2, 1, 1, 0), -0.5)
@example(tiny_tailed(9, 1, 8, 1), 3.0)
@example(tiny_tailed(7, 6, 1, 2), -0.5)
@example(tiny_tailed(12, 11, 1, 3), 3.0)
def test_cayley_output_from_a_tiny_entried_base_has_none(pw, scale):
    assume(scale != 0.0)  # which returns the base itself
    x, w = pw
    assert x.has_tiny
    y = cayley_retract(w, scale)
    assert outside_the_gap(y.x)
    assert y.orth_error <= 1e-12
    # lerp retracts from its base too
    assert outside_the_gap(lerp(x, y, 1.5).x)


@given(point_and_direction(), st.floats(-10.0, 10.0))
def test_a_base_without_tiny_entries_keeps_the_output_bits(pw, scale):
    x, w = pw
    assert not x.has_tiny
    y = cayley_retract(w, scale).x
    with mock.patch.object(geometry, "TINY", 0.0):
        assert np.array_equal(y, cayley_retract(w, scale).x)


@given(tiny_tailed_point_and_direction())
def test_a_caller_built_point_keeps_its_tiny_entries(pw):
    x, w = pw
    assert not outside_the_gap(x.x) and not outside_the_gap(w.w)
    copy = StiefelPoint(x.x)
    assert np.array_equal(copy.x, x.x) and copy.has_tiny
    cayley_retract(w, 1.0)
    assert not outside_the_gap(x.x)


@st.composite
def edge_shaped(draw, elements):
    """An n x k array on an edge shape (k = 1, k = n - 1 or k = n) with
    entries drawn from ``elements``."""
    n = draw(st.integers(1, 12))
    k = draw(st.sampled_from(sorted({1, max(n - 1, 1), n})))
    return draw(hnp.arrays(np.float64, (n, k), elements=elements))


def same_float(a: float, b: float) -> bool:
    """Bit-equal, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).tobytes() == np.float64(b).tobytes()


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@given(edge_shaped(ANY_FLOAT))
@example(np.arange(1.0, 10.0).reshape(9, 1))  # k = 1
@example(np.random.default_rng(0).standard_normal((6, 6)))  # k = n
@example(np.array([[-3.0]]))  # n = 1
@example(np.array([[1.0, np.inf], [0.5, 2.0]]))
@example(np.array([[np.nan], [1.0]]))
def test_frobenius_is_numpys_norm_bit_for_bit(a):
    # both warn alike when a square overflows; the bits are the question
    with np.errstate(over="ignore", invalid="ignore"):
        for layout in (a, np.asfortranarray(a), a[::2], a.T):
            assert same_float(frobenius(layout), float(np.linalg.norm(layout)))
        if not np.isfinite(a).all():
            assert not math.isfinite(frobenius(a))


@given(st.integers(1, 24))
@example(1)
@example(20)
def test_identity_is_shared_and_read_only(k):
    eye = identity(k)
    assert eye is identity(k)
    assert eye.dtype == np.float64 and np.array_equal(eye, np.eye(k))
    assert not eye.flags.writeable
    with pytest.raises(ValueError):
        eye[0, 0] = 2.0


CACHED = {StiefelPoint: ("xtx", "has_tiny", "orth_error"),
          geometry.DualTangentVector: ("wx", "pencil")}


@given(point_and_direction())
@example(unit_direction(1, 1, 0))
@example(unit_direction(9, 1, 1))
@example(unit_direction(6, 6, 2))
def test_cached_attributes_are_computed_once_into_the_instance(pw):
    x, w = pw
    # fresh objects: the constructor and the checks read some of them
    x = StiefelPoint._unchecked(x.x.copy())
    w = geometry.DualTangentVector._fresh(w.w.copy(), x)
    for obj in (x, w):
        for name in CACHED[type(obj)]:
            descriptor = type(obj).__dict__[name]
            assert isinstance(descriptor, geometry._cached)
            assert name not in vars(obj)
            with mock.patch.object(descriptor, "func",
                                   wraps=descriptor.func) as func:
                value = getattr(obj, name)
                assert getattr(obj, name) is value
            func.assert_called_once_with(obj)
            assert vars(obj)[name] is value


SNAP_FLOATS = st.one_of(
    st.floats(-4.0 * TINY, 4.0 * TINY),
    st.sampled_from([0.0, -0.0, TINY, -TINY, np.nextafter(TINY, 0.0),
                     -np.nextafter(TINY, 0.0), 5e-324, -5e-324]),
    ANY_FLOAT,
)


@given(edge_shaped(SNAP_FLOATS))
@example(np.full((9, 1), -0.5 * TINY))  # k = 1
@example(np.diag([TINY, -TINY, 1.0, -1e-300, 0.0, -0.0]))  # k = n
@example(np.array([[-5e-324]]))  # n = 1
def test_snap_is_the_masked_store_bit_for_bit(a):
    want = a.copy()
    want[np.abs(want) < TINY] = 0.0
    got = a.copy()
    geometry._snap_tiny(got)
    assert got.tobytes() == want.tobytes()
    snapped = np.abs(a) < TINY
    assert not np.signbit(got[snapped]).any()  # +0.0, also for -tiny
