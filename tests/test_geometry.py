"""Geometry kernel tests: frozen oracle values and sampled invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcext.geometry import (
    Body2,
    GeometryError,
    asymptotic_slope,
    bisect_leq,
    cone_from,
    contains,
    rotundity_modulus,
    distance_many,
    tangency_set,
    is_asymptotic_direction,
    is_rotund,
    supporting_cone,
    project,
    recession_cone,
    relative_boundary,
    support,
    supporting_normals,
)


@pytest.fixture(scope="module")
def disk():
    return Body2.ball((0.0, 0.0), 1.0, name="disk")


@pytest.fixture(scope="module")
def square():
    return Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)], name="square")


@pytest.fixture(scope="module")
def parabola():
    return Body2.epigraph("parabola", name="parabola")


@pytest.fixture(scope="module")
def hypograph():
    return Body2.epigraph("exp_hypograph", name="hypograph")


@pytest.fixture(scope="module")
def halfplane_body():
    return Body2.from_halfplanes([((0.0, 1.0), 1.0)], name="halfplane")


# -- membership and projection ------------------------------------------------

def test_contains_disk(disk):
    assert contains(disk, (0, 0))
    assert not contains(disk, (2, 0))


def test_contains_parabola_apex(parabola):
    # the boundary apex satisfies the defining inequality with equality
    assert contains(parabola, (0, -1))


def test_project_disk_radial(disk):
    q, d = project((0, 2), disk)
    assert np.allclose(q, [0, 1], atol=1e-9)
    assert d == pytest.approx(1.0, abs=1e-9)


def test_project_identity_on_members(disk):
    q, d = project((0.3, -0.2), disk)
    assert d == 0.0
    assert np.allclose(q, [0.3, -0.2])


def test_project_parabola_below_apex(parabola):
    # oracle: dense boundary sampling + local refinement (the projection
    # machinery itself) agrees with the closed-form nearest point
    us = np.linspace(-2, 2, 40001)
    bound = np.column_stack([us, us ** 2 - 1.0])
    brute = float(np.min(np.linalg.norm(bound - np.array([0.0, -2.0]), axis=1)))
    q, d = project((0, -2), parabola)
    assert d == pytest.approx(brute, abs=1e-6)
    assert np.allclose(q, [0, -1], atol=1e-6)
    assert d == pytest.approx(1.0, abs=1e-8)


# -- support ------------------------------------------------------------------

def test_support_disk(disk):
    assert support(disk, (0, 1)) == pytest.approx(1.0, abs=1e-9)


def test_support_parabola_recession_direction(parabola):
    assert support(parabola, (0, 1)) == math.inf


def test_support_parabola_apex(parabola):
    assert support(parabola, (0, -1)) == pytest.approx(1.0, abs=1e-9)


def test_support_hypograph_asymptote(hypograph):
    # sup of the vertical coordinate is the asymptote level, not attained
    assert support(hypograph, (0, 1)) == pytest.approx(1.0, abs=1e-9)
    assert support(hypograph, (1, 0)) == math.inf


# -- supporting normals -------------------------------------------------------

def test_normals_disk_smooth(disk):
    fan = supporting_normals(disk, (1, 0))
    assert fan.single
    assert np.allclose(fan.lo, [1, 0], atol=1e-9)


def test_normals_square_corner(square):
    fan = supporting_normals(square, (1, 1))
    assert not fan.single
    assert np.allclose(fan.lo, [1, 0], atol=1e-9)
    assert np.allclose(fan.hi, [0, 1], atol=1e-9)


def test_normals_halfplane_flat(halfplane_body):
    fan = supporting_normals(halfplane_body, (5, 1))
    assert fan.single
    assert np.allclose(fan.lo, [0, 1], atol=1e-9)


def test_normals_interior_raises(disk):
    with pytest.raises(GeometryError):
        supporting_normals(disk, (0, 0))
    with pytest.raises(GeometryError):
        supporting_normals(disk, (3, 0))


# -- recession cones ----------------------------------------------------------

def test_recession_disk_trivial(disk):
    assert recession_cone(disk).is_trivial()
    assert disk.bounded


def test_recession_parabola_ray(parabola):
    cone = recession_cone(parabola)
    assert cone.kind == "ray"
    assert np.allclose(cone.d1, [0, 1], atol=1e-9)
    # oracle: c + t v stays inside for large t
    assert contains(parabola, parabola.witness + 1e5 * np.array([0.0, 1.0]))


def test_recession_hypograph_quadrant(hypograph):
    cone = recession_cone(hypograph)
    assert cone.kind == "wedge"
    assert cone.span() == pytest.approx(math.pi / 2, abs=1e-9)
    # oracle: sampled directions of the quadrant {a >= 0, b <= 0}
    for v in ([1, 0], [0, -1], [1, -1]):
        v = np.asarray(v, dtype=float)
        v /= np.linalg.norm(v)
        assert cone.contains_dir(v, 1e-7)
        assert contains(hypograph, hypograph.witness + 1e5 * v, 1e-6)
    assert not cone.contains_dir([0, 1], 1e-7)


# -- asymptotics --------------------------------------------------------------

def test_asymptotic_slope_decaying(hypograph):
    slope, (prev, last) = asymptotic_slope((0, 1), (1, 0), hypograph)
    assert slope == pytest.approx(0.0, abs=1e-4)
    assert last == slope


def test_asymptotic_slope_bounded_body(disk):
    slope, _ = asymptotic_slope((0, 2), (1, 0), disk)
    assert slope == pytest.approx(1.0, abs=1e-4)


def test_asymptotic_slope_parabola_positive(parabola):
    slope, _ = asymptotic_slope((2, 0), (1, 0), parabola)
    assert slope > 1e-4


def test_asymptotic_slope_ray_hits_interior(disk):
    with pytest.raises(GeometryError):
        asymptotic_slope((-3, 0), (1, 0), disk)


def test_is_asymptotic_direction(hypograph, parabola, disk):
    ok, x0 = is_asymptotic_direction(hypograph, (1, 0))
    assert ok
    assert x0 is not None and x0[1] == pytest.approx(1.0, abs=1e-6)
    assert is_asymptotic_direction(parabola, (0, 1)) == (False, None)
    assert is_asymptotic_direction(disk, (1, 0)) == (False, None)


def test_halfline_boundary_is_asymptotic(halfplane_body):
    ok, x0 = is_asymptotic_direction(halfplane_body, (1, 0))
    assert ok and x0[1] == pytest.approx(1.0, abs=1e-9)


# -- rotundity modulus --------------------------------------------------------

def test_delta_disk_closed_form(disk):
    # chord of length 1 from (1,0) ends at (1/2, +-sqrt(3)/2); the midpoint
    # sits at distance 1 - sqrt(3)/2 from the circle
    val = rotundity_modulus(disk, (1, 0), 1.0)
    assert val == pytest.approx(1.0 - math.sqrt(3) / 2, abs=1e-6)


def test_delta_square_edge(square):
    assert rotundity_modulus(square, (1, 0), 0.5) == pytest.approx(0.0, abs=1e-9)


def test_delta_zero_eps(disk):
    assert rotundity_modulus(disk, (1, 0), 0.0) == 0.0


def test_delta_monotone_and_capped(disk):
    eps = np.linspace(0.0, 1.6, 9)
    vals = [rotundity_modulus(disk, (1, 0), float(e)) for e in eps]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    assert all(v <= e / 2 + 1e-9 for v, e in zip(vals, eps))


def test_delta_range_error(disk):
    with pytest.raises(GeometryError):
        rotundity_modulus(disk, (1, 0), 2.5)


# -- cones from exterior points ------------------------------------------------

def test_cone_from_disk(disk):
    cone = cone_from((0, 2), disk)
    t1 = np.array([math.sqrt(3) / 2, 0.5])
    d_expect = (t1 - np.array([0, 2])) / np.linalg.norm(t1 - np.array([0, 2]))
    assert cone.kind == "wedge"
    assert min(np.linalg.norm(cone.d1 - d_expect),
               np.linalg.norm(cone.d2 - d_expect)) < 1e-6


def test_cone_from_parabola(parabola):
    # tangency at u0 = +-1: the tangent lines through (0,-2) touch there
    cone = cone_from((0, -2), parabola)
    d_expect = np.array([1.0, 2.0]) / math.sqrt(5)
    assert min(np.linalg.norm(cone.d1 - d_expect),
               np.linalg.norm(cone.d2 - d_expect)) < 1e-6


def test_cone_from_boundary_point(disk):
    cone = cone_from((1, 0), disk)
    assert cone.kind == "halfplane"


def test_cone_from_interior_raises(disk):
    with pytest.raises(GeometryError):
        cone_from((0, 0), disk)


# -- tangency sets ------------------------------------------------------------

def test_gamma_disk(disk):
    pts = tangency_set((0, 2), disk).endpoints()
    want = {(math.sqrt(3) / 2, 0.5), (-math.sqrt(3) / 2, 0.5)}
    for w in want:
        assert min(np.linalg.norm(pts - np.array(w), axis=1)) < 1e-6


def test_gamma_parabola(parabola):
    pts = tangency_set((0, -2), parabola).endpoints()
    for w in ((1.0, 0.0), (-1.0, 0.0)):
        assert min(np.linalg.norm(pts - np.array(w), axis=1)) < 1e-6


def test_gamma_square_corners(square):
    pts = tangency_set((2, 2), square).endpoints()
    for w in ((1.0, -1.0), (-1.0, 1.0)):
        assert min(np.linalg.norm(pts - np.array(w), axis=1)) < 1e-6


def test_gamma_inside_raises(disk):
    with pytest.raises(GeometryError):
        tangency_set((0.5, 0), disk)


# -- supporting cones ---------------------------------------------------------

def test_supporting_cone_disk(disk):
    kc = supporting_cone((1, 0), disk)
    assert len(kc.cuts) == 1
    hp = kc.cuts[0]
    assert np.allclose(hp.normal, [1, 0], atol=1e-9)
    assert hp.offset == pytest.approx(1.0, abs=1e-9)


def test_supporting_cone_square_corner(square):
    kc = supporting_cone((1, 1), square)
    assert len(kc.cuts) == 2
    normals = sorted(tuple(np.round(h.normal, 9)) for h in kc.cuts)
    assert normals == [(0.0, 1.0), (1.0, 0.0)]
    assert all(h.offset == pytest.approx(1.0, abs=1e-9) for h in kc.cuts)


def test_supporting_cone_parabola_apex(parabola):
    kc = supporting_cone((0, -1), parabola)
    assert len(kc.cuts) == 1
    hp = kc.cuts[0]
    assert np.allclose(hp.normal, [0, -1], atol=1e-6)
    assert hp.offset == pytest.approx(1.0, abs=1e-6)


def test_supporting_cone_contains_body(parabola, square):
    rng = np.random.default_rng(2)
    for body in (parabola, square):
        for x in body.boundary_samples(8)[:6]:
            kc = supporting_cone(x, body)
            pts = body.witness + rng.normal(0, 1.0, (64, 2))
            pts = pts[body.contains_many(pts)]
            assert kc.contains_many(pts, 1e-7).all()


def test_supporting_cone_matches_cone_closure(disk, square):
    for body, x in ((disk, np.array([1.0, 0.0])), (square, np.array([1.0, 1.0]))):
        kc = supporting_cone(x, body)
        cone = cone_from(x, body)
        for d in cone.directions():
            probe = x + np.outer([0.25, 1.0, 4.0], d)
            assert kc.contains_many(probe, 1e-6).all()


# -- root finders -------------------------------------------------------------

@pytest.mark.parametrize("which", ["sine", "disk_margin"])
def test_bisect_leq_batched_brackets_match_single(disk, which):
    """An array of brackets bisects to exactly the per-bracket crossings."""
    if which == "sine":
        def f(t):
            return np.sin(t) - 0.25
        bad, good = np.array([1.0, 2.5, 7.0]), np.array([0.0, 3.0, 6.5])
    else:
        def f(t):
            pts = np.multiply.outer(np.atleast_1d(t), [1.0, 0.5])
            return disk.margin_many(pts).reshape(np.shape(t))
        bad, good = np.array([2.0, -3.0, 0.9]), np.array([0.0, -0.1, 0.8])
    batched = bisect_leq(f, bad, good, 60)
    single = [bisect_leq(f, b, g, 60) for b, g in zip(bad, good)]
    assert batched.shape == bad.shape
    assert all(np.ndim(x) == 0 for x in single)
    assert np.array_equal(batched, single)
    assert np.all(f(batched) <= 0)


# -- relative boundary --------------------------------------------------------

def test_relative_boundary_compact_inside():
    B = Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    C = Body2.from_polychain([(-10, -10), (10, -10), (10, 10), (-10, 10)])
    arc = relative_boundary(B, C)
    # full boundary: sampled arc length close to the perimeter
    assert arc.length() == pytest.approx(8.0, rel=1e-3)


def test_relative_boundary_halfdisk():
    disk = Body2.ball((0.0, 0.0), 1.0)
    halfdisk = disk.clip([((1.0, 0.0), 0.0)])
    arc = relative_boundary(halfdisk, disk)
    ends = arc.endpoints()
    for w in ((0.0, 1.0), (0.0, -1.0)):
        assert min(np.linalg.norm(ends - np.array(w), axis=1)) < 1e-7


def test_relative_boundary_self_empty():
    disk = Body2.ball((0.0, 0.0), 1.0)
    same = disk.clip([((0.0, 1.0), 1.0)])  # redundant cut, body unchanged
    arc = relative_boundary(same, disk)
    assert arc.is_empty()


def test_relative_boundary_not_contained():
    disk = Body2.ball((0.0, 0.0), 1.0)
    other = Body2.ball((5.0, 0.0), 1.0)
    with pytest.raises(GeometryError):
        relative_boundary(other, disk)


# -- structural rotundity -----------------------------------------------------

def test_rotundity_flags(disk, square, parabola, hypograph):
    assert is_rotund(disk)
    assert is_rotund(parabola)
    assert is_rotund(hypograph)
    assert not is_rotund(square)
    halfdisk = disk.clip([((1.0, 0.0), 0.0)])
    assert not is_rotund(halfdisk)


def test_polychain_rejects_nonconvex():
    with pytest.raises(GeometryError):
        Body2.from_polychain([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2)])
    with pytest.raises(GeometryError):
        Body2.from_polychain([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
    Body2.from_polychain([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)],
                         collinear_ok=True)


# -- property tests over fuzzed polygons --------------------------------------

@st.composite
def random_polygon(draw):
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    from scipy.spatial import ConvexHull

    pts = rng.normal(0.0, 2.0, (draw(st.integers(5, 20)), 2))
    hull = ConvexHull(pts)
    return Body2.from_polychain(pts[hull.vertices], collinear_ok=True), seed


@settings(max_examples=25, deadline=None)
@given(random_polygon())
def test_projection_idempotent(poly_seed):
    body, seed = poly_seed
    rng = np.random.default_rng(seed + 1)
    for p in body.witness + rng.normal(0, 6.0, (8, 2)):
        q, d = project(p, body)
        _, d2 = project(q, body)
        assert d2 <= 1e-7 * max(1.0, d)


@settings(max_examples=25, deadline=None)
@given(random_polygon())
def test_support_dominates_members(poly_seed):
    body, seed = poly_seed
    rng = np.random.default_rng(seed + 2)
    pts = body.witness + rng.normal(0, 1.5, (256, 2))
    pts = pts[body.contains_many(pts)]
    for _ in range(6):
        th = rng.uniform(0, 2 * math.pi)
        d = np.array([math.cos(th), math.sin(th)])
        s = support(body, d)
        if len(pts):
            assert float(np.max(pts @ d)) <= s + 1e-7 * max(1.0, abs(s))


def test_distance_many_zero_inside(disk):
    pts = np.array([[0.0, 0.0], [0.5, 0.5], [2.0, 0.0]])
    d = distance_many(disk, pts)
    assert d[0] == 0.0 and d[1] == 0.0
    assert d[2] == pytest.approx(1.0, abs=1e-9)
