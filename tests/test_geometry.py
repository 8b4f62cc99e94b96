"""Geometry kernel tests: frozen oracle values and sampled invariants."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcext.geometry as geo
from qcext import serialize as ser
from qcext.geometry import (
    Body2,
    CutTable,
    golden_min,
    GeometryError,
    RADIUS_CAP,
    asymptotic_slope,
    bisect_leq,
    coarse_golden_min,
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
    support_point,
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


@pytest.mark.parametrize("solver", ["golden", "coarse_golden"])
def test_golden_batched_brackets_match_single(solver):
    """An array of brackets narrows to exactly the per-bracket minima."""
    def f(t):
        # clipped plateau on the second bracket exercises the re-gridding
        return np.maximum(np.cos(t) + 0.1 * t, -0.5)
    a, b = np.array([2.0, -4.0, 3.5]), np.array([5.0, 6.0, 4.0])
    run = golden_min if solver == "golden" else coarse_golden_min
    t_b, f_b = run(f, a, b)
    single = [run(f, lo, hi) for lo, hi in zip(a, b)]
    assert t_b.shape == a.shape
    assert all(isinstance(t, float) for t, _ in single)
    assert np.array_equal(t_b, [t for t, _ in single])
    assert np.array_equal(f_b, [v for _, v in single])


def test_support_point_matches_support(parabola, square):
    for body in (parabola, square):
        for th in np.linspace(0.0, 2 * math.pi, 9)[:-1]:
            d = np.array([math.cos(th), math.sin(th)])
            val, pt = support_point(body, d)
            assert val == support(body, d)
            if math.isfinite(val):
                assert float(pt @ d) == pytest.approx(val, abs=1e-9)
            else:
                assert pt is None


def _bisect_fixed_count(f, bad, good, iters):
    """bisect_leq without its early exit: the reference loop."""
    bad, good = np.broadcast_arrays(np.asarray(bad, dtype=float), np.asarray(good, dtype=float))
    for _ in range(iters):
        mid = 0.5 * (bad + good)
        ok = f(mid) <= 0
        good, bad = np.where(ok, mid, good), np.where(ok, bad, mid)
    return good[()]


def test_bisect_early_exit_matches_fixed_count():
    """Stopping once no bracket can move returns the fixed-count result,
    also where the initial bad end holds f <= 0 or the good end f > 0, and
    brackets that all start at adjacent floats take one step: it moves the
    one whose midpoint rounds onto its bad end, which holds f <= 0."""
    calls = []

    def f(t):
        calls.append(1)
        return np.sin(t) - 0.3

    # ordinary brackets, a bad end with f <= 0 (0.2: f = -0.1), a good end
    # with f > 0, a degenerate bracket and a bracket of adjacent floats
    bad = np.array([2.0, 0.2, 1.5, 0.25, 0.7, np.nextafter(0.5, 1.0)])
    good = np.array([-1.0, -1.0, 0.1, 1.0, 0.7, 0.5])
    want = _bisect_fixed_count(f, bad, good, 400)
    calls.clear()
    got = bisect_leq(f, bad, good, 400)
    assert np.array_equal(got, want)
    assert len(calls) < 100  # the fixed-count loop makes 400
    for b, g, w in zip(bad, good, want):
        assert bisect_leq(f, b, g, 400) == w
        assert bisect_leq(f, b, g, 7) == _bisect_fixed_count(f, b, g, 7)
    good = np.array([0.1, 0.1000000000000001, 0.5, 0.30469265401539747])
    bad = np.nextafter(good, 10.0)
    calls.clear()
    got = bisect_leq(f, bad, good, 400)
    assert len(calls) == 1 and np.array_equal(got, _bisect_fixed_count(f, bad, good, 400))
    assert got[1] == bad[1]


def _monotone_brackets(rng, bad_shape, good_shape, rising=True):
    """f(t) = a t + b t^3 - c on t > 0 (or its negative), with the root r
    in [0.5, 4]: products and sums of non-negative floats round
    monotonically, so the sign of f switches exactly once in floats.
    Returns (f, df, bad, good): bad and good have their own shapes and
    bracket every root of the broadcast shape.  f(t) and df(t) take t in
    that shape, f(t, rows) and df(t, rows) the rows of its flat form, as
    newton_leq calls them."""
    shape = np.broadcast_shapes(bad_shape, good_shape)
    a, b = rng.uniform(0.0, 2.0, shape), rng.uniform(0.1, 3.0, shape)
    r = rng.uniform(0.5, 4.0, shape)
    c = a * r + b * r * r * r
    sign = 1.0 if rising else -1.0

    def coefficients(rows):
        return (a, b, c) if rows is None else (x.reshape(-1)[rows] for x in (a, b, c))

    def f(t, rows=None):
        a, b, c = coefficients(rows)
        return sign * (a * t + b * t * t * t - c)

    def df(t, rows=None):
        a, b, _ = coefficients(rows)
        return sign * (a + 3.0 * b * t * t)

    below = rng.uniform(0.0, 0.45, good_shape if rising else bad_shape)
    above = 4.0 + rng.uniform(0.01, 6.0, bad_shape if rising else good_shape)
    return (f, df, above, below) if rising else (f, df, below, above)


@pytest.mark.parametrize("bad_shape, good_shape", [
    ((), ()), ((1,), (1,)), ((9,), (9,)), ((3, 4), (3, 4)), ((5,), ()), ((3, 1), (1, 4))])
@pytest.mark.parametrize("rising", [True, False])
def test_newton_leq_matches_bisect_leq(bad_shape, good_shape, rising):
    """On brackets where the sign of f switches once, newton_leq with target
    0 (adjacent floats) returns bisect_leq's switching float bit for bit,
    in the broadcast shape, with at most a quarter of its evaluations (f
    and df calls against f calls)."""
    rng = np.random.default_rng(7)
    f, df, bad, good = _monotone_brackets(rng, bad_shape, good_shape, rising)
    calls = {"newton": 0, "bisect": 0}

    def counted(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    got = geo.newton_leq(counted("newton", f), counted("newton", df), bad, good, 0.0)
    want = bisect_leq(counted("bisect", f), bad, good)
    assert np.shape(got) == np.broadcast_shapes(bad_shape, good_shape)
    assert np.array_equal(got, want)
    assert np.all(f(got) <= 0) and np.all(f(np.nextafter(got, np.broadcast_to(bad, np.shape(got)))) > 0)
    assert calls["newton"] <= calls["bisect"] / 4


def test_newton_leq_keeps_to_the_bracket(monkeypatch):
    """Newton points that are not finite (a zero derivative) or crawl (a
    clipped exponential, one unit per step from t = 10^4) leave the work to
    the midpoint and the sixteenths; with target 0 the result is still the
    switching float, in no more rounds than the sixteenths alone need
    (20)."""
    def f(t, rows=None):
        return np.cosh(np.clip(t, -700, 700)) - 3.0

    def df(t, rows):
        return np.where(t > 2.0, np.sinh(np.clip(t, -700, 700)), 0.0)

    rounds = []
    narrow = geo._narrow
    monkeypatch.setattr(geo, "_narrow", lambda *a: rounds.append(1) or narrow(*a))
    bad, good = np.array([1e4, 2.5, 1.9]), np.array([0.0, 0.0, 0.0])
    got = geo.newton_leq(f, df, bad, good, 0.0)
    assert np.array_equal(got, bisect_leq(f, bad, good, 200))
    assert len(rounds) <= 20


def _chord_solves(prof, pu, pv, qu, qv, half):
    """Profile.chord's newton_leq solves on the lines (pu, pv) + t (qu, qv):
    each bracket's line index, its ends (bad = a window end with h > 0,
    good = the window minimum), and h, h' and the chord target of given
    line indices."""
    ends = np.column_stack([-half, half])
    u_ends = pu[:, None] + ends * qu[:, None]
    lin = qu == 0
    q_u = np.where(lin, 1.0, qu)
    u_min = prof.slope_point(np.where(lin, 0.0, qv / q_u), u_ends.min(axis=1), u_ends.max(axis=1))
    t_min = np.clip(np.where(lin, np.copysign(half, qv), (u_min - pu) / q_u), -half, half)

    def h(t, r):
        return prof.g(pu[r] + t * qu[r]) - (pv[r] + t * qv[r])

    def dh(t, r):
        return prof.dg(pu[r] + t * qu[r]) * qu[r] - qv[r]

    def target(r):
        return lambda *at: prof.chord_target(pu[r], pv[r], qu[r], qv[r], *at)

    out = (h(ends.T, slice(None)).T > 0) & (h(t_min, slice(None)) <= 0)[:, None]
    rows = np.nonzero(out)[0]
    return rows, ends[out], t_min[rows], h, dh, target


def _no_lip_lower_lines():
    """The profile-frame lines of the cosh body's no-Lipschitz lower profile
    (gen_no_lip at k_max 8, scan 16: its framed body, the 257 vertical lines
    of the z scan over |v| <= 4), whose roots near z = 0 sit in h's
    rounding-noise band."""
    from qcext.counterexamples import gen_no_lip
    from qcext.geometry import transform_body

    frame = gen_no_lip(Body2.epigraph("cosh"), k_max=8, scan=16)[1].frame
    C = transform_body(Body2.epigraph("cosh"), frame)
    z = np.geomspace(1e-4, 8.0, 257)
    foot = np.column_stack([z, np.zeros_like(z)])
    d = np.tile([0.0, 1.0], (len(z), 1))
    return C.base.profile, (*C.base.profile_line(foot, d), np.full(len(z), 4.0))


def test_newton_leq_batch_equals_per_bracket_calls():
    """One batched newton_leq call returns what one call per bracket returns,
    bit for bit: done brackets leave the live rows and keep their ends.  The
    closures take the live row indices (f(t, rows), df(t, rows),
    target(t, f(t), df(t), rows)); a one-bracket call's row is 0.  On the
    cosh no-Lipschitz
    lower profile's chords (among them rows that stop inside the noise
    band, at their target and not at adjacent floats) and on fuzzed cubic
    brackets with per-bracket targets from 0 to 1e-3 of their width."""
    prof, lines = _no_lip_lower_lines()
    rows, bad, good, h, dh, target = _chord_solves(prof, *lines)
    batch = geo.newton_leq(lambda t, live: h(t, rows[live]), lambda t, live: dh(t, rows[live]),
                           bad, good,
                           lambda t, h_t, dh_t, live: target(rows[live])(t, h_t, dh_t))
    one = [geo.newton_leq(lambda t, _: h(t, r), lambda t, _: dh(t, r), b, g,
                          lambda t, h_t, dh_t, _: target(r)(t, h_t, dh_t))
           for r, b, g in zip(rows, bad, good)]
    assert np.array_equal(batch, one)
    adjacent = np.nextafter(batch, bad) == bad
    with np.errstate(all="ignore"):
        switching = (h(batch, rows) <= 0) & (h(np.nextafter(batch, bad), rows) > 0)
    assert len(rows) > 200 and (~adjacent & ~switching).sum() > 150

    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        a, b = rng.uniform(0.0, 2.0, n), rng.uniform(0.1, 3.0, n)
        c = rng.uniform(0.5, 4.0, n)
        c = a * c + b * c ** 3
        bad, good = 4.0 + rng.uniform(0.01, 6.0, n), rng.uniform(0.0, 0.45, n)
        goal = np.where(rng.random(n) < 0.3, 0.0, (bad - good) * 10.0 ** rng.uniform(-16, -3, n))

        def f(t, i):
            return a[i] * t + b[i] * t ** 3 - c[i]

        def df(t, i):
            return a[i] + 3.0 * b[i] * t * t

        i = np.arange(n)
        batch = geo.newton_leq(f, df, bad, good, goal)
        one = [geo.newton_leq(lambda t, _: f(t, k), lambda t, _: df(t, k), bad[k], good[k],
                              goal[k])
               for k in i]
        assert np.array_equal(batch, one)
        assert np.all(np.abs(batch - bisect_leq(lambda t: f(t, i), bad, good)) <= goal + 1e-15)


def test_newton_leq_evaluates_only_live_rows():
    """f, df and a callable target see only live rows: in a batched call each
    bracket is in exactly as many f, df and target calls as in its own
    one-bracket call, so none of them sees a bracket that is done (at
    adjacent floats or within its target).  Every call's t has its rows
    along the last axis, and the rows only ever shrink.  On the cosh
    no-Lipschitz lower profile's chords, three of them started at adjacent
    floats (no call at all sees those), and on cubic brackets with per-row
    targets."""
    prof, lines = _no_lip_lower_lines()
    rows, bad, good, h, dh, target = _chord_solves(prof, *lines)
    rows = np.concatenate([rows, rows[:3]])
    bad, good = np.concatenate([bad, np.nextafter(good[:3], bad[:3])]), np.r_[good, good[:3]]
    cubic = np.random.default_rng(4)
    a, b, r = cubic.uniform(0.0, 2.0, 30), cubic.uniform(0.1, 3.0, 30), cubic.uniform(0.5, 4, 30)
    cases = [
        (lambda t, k: h(t, rows[k]), lambda t, k: dh(t, rows[k]),
         lambda t, h_t, dh_t, k: target(rows[k])(t, h_t, dh_t), bad, good),
        (lambda t, k: a[k] * t + b[k] * t ** 3 - (a[k] * r[k] + b[k] * r[k] ** 3),
         lambda t, k: a[k] + 3.0 * b[k] * t * t, lambda t, f_t, df_t, k: 1e-9 * r[k] * (k % 2),
         np.full(30, 5.0), np.zeros(30))]
    for f, df, goal, bad, good in cases:
        calls = {"f": [], "df": [], "target": []}

        def seen(key, fn, count):
            def wrapped(t, *args):
                live = args[-1]
                assert np.shape(t)[-1] == len(live)
                count[key].append(live)
                return fn(t, *args)
            return wrapped

        geo.newton_leq(seen("f", f, calls), seen("df", df, calls), bad, good,
                       seen("target", goal, calls))
        for key, live in calls.items():
            assert all(np.isin(now, before).all() for before, now in zip(live, live[1:])), key
        for k in range(len(bad)):
            one = {"f": [], "df": [], "target": []}
            geo.newton_leq(*(seen(key, lambda t, *args, fn=fn: fn(t, *args[:-1], k), one)
                             for key, fn in (("f", f), ("df", df))),
                           bad[k], good[k], seen("target", lambda t, *args: goal(t, *args[:-1], k),
                                                  one))
            for key in calls:
                assert sum(k in live for live in calls[key]) == len(one[key]), (k, key)
        assert sum(len(live) for live in calls["f"]) < len(calls["f"]) * len(bad)


def _bisect_slope_point(prof, s, lo, hi):
    """Profile.slope_point's bisection run to adjacent floats: the oracle of
    the closed-form guesses."""
    s = np.asarray(s, dtype=float)
    return bisect_leq(lambda u: prof.dg(u) - s, np.broadcast_to(hi, s.shape),
                      np.broadcast_to(lo, s.shape), 2200)


def _bisect_chord(prof, pu, pv, qu, qv, half):
    """Profile.chord with its roots by bisection to adjacent floats (the
    solver it ran before newton_leq), the oracle of the Newton chords."""
    ends = np.column_stack([-half, half])
    u_ends = pu[:, None] + ends * qu[:, None]
    lin = qu == 0
    q_u = np.where(lin, 1.0, qu)
    u_min = _bisect_slope_point(prof, np.where(lin, 0.0, qv / q_u), u_ends.min(axis=1),
                                u_ends.max(axis=1))
    t_min = np.clip(np.where(lin, np.copysign(half, qv), (u_min - pu) / q_u), -half, half)

    def h(t, rows=slice(None)):
        return prof.g(pu[rows] + t * qu[rows]) - (pv[rows] + t * qv[rows])

    meets = h(t_min) <= 0
    out = (h(ends.T).T > 0) & meets[:, None]
    if out.any():
        rows = np.nonzero(out)[0]
        ends[out] = bisect_leq(lambda t: h(t, rows), ends[out], t_min[rows], 2200)
    return np.where(meets, ends[:, 0], np.inf), np.where(meets, ends[:, 1], -np.inf)


_PROFILES = {"cosh": geo.CoshProfile(), "exp": geo.ExpProfile(),
             "custom_poly": geo.PolyProfile([0.3, -0.2, 1.0, 0.0, 0.05])}


@pytest.mark.parametrize("name", sorted(_PROFILES))
def test_slope_points_match_bisection(name):
    """Closed-form slope points equal the bisection's switching floats bit
    for bit: targets met inside [lo, hi], targets outside it (lo where
    g'(lo) > s, hi or the float below where g'(hi) <= s), infinite
    targets, brackets past cosh's and exp's +-700 clip and exp's flat tail,
    where g' is below any negative s above -exp(-700)."""
    prof, rng, n = _PROFILES[name], np.random.default_rng(5), 2000
    if name == "exp":
        lo = rng.uniform(-720, 600, n)
        hi = lo + 10 ** rng.uniform(-3, 3, n)
        s = np.concatenate([-np.exp(-rng.uniform(-710, 720, n // 2)),
                            -10.0 ** -rng.uniform(300, 320, n // 4), rng.normal(size=n // 4)])
    else:
        scale = 1.0 if name == "cosh" else 0.01
        lo = rng.uniform(-720, 700, n) * scale
        hi = lo + 10 ** rng.uniform(-3, 3, n) * scale
        s = np.concatenate([prof.dg(rng.uniform(-710, 710, n // 2) * scale),
                            rng.normal(size=n // 2) * 10 ** rng.uniform(-300, 305, n // 2)])
    with np.errstate(over="ignore"):
        got = prof.slope_point(s, lo, hi)
    assert np.array_equal(got, _bisect_slope_point(prof, s, lo, hi))
    assert (got == lo).sum() > n // 10 and (got == hi).sum() > n // 10
    # finite targets: one g' call about the guess, then a bisection that
    # starts at most 8 floats wide stops within 4 more.  The polynomial's
    # guess is a newton_leq solve on its own g' and g'' polynomials, counted
    # apart: the whole-bracket bisection took 68 g' calls here
    calls, guess_calls = [], []
    dg = prof.dg
    prof.dg = lambda u: calls.append(1) or dg(u)
    if name == "custom_poly":
        dp, ddp = prof._dp, prof._ddp
        prof._dp = lambda u: guess_calls.append(1) or dp(u)
        prof._ddp = lambda u: guess_calls.append(1) or ddp(u)
    try:
        keep = np.isfinite(s)
        with np.errstate(over="ignore"):
            prof.slope_point(s[keep], lo[keep], hi[keep])
    finally:
        del prof.dg
        if name == "custom_poly":
            prof._dp, prof._ddp = dp, ddp
    assert len(calls) <= 5
    assert len(guess_calls) - len(calls) <= 16


def _chord_lines(prof, rng, kind, n=200):
    """(pu, pv, qu, qv, half) of n lines of one kind in the profile frame."""
    if kind == "tangent":
        pu = rng.uniform(-1.0, 1.0, n)
        ang, pv = np.arctan(prof.dg(pu)), prof.g(pu)
    elif kind == "clip":  # windows past the +-700 clip, steep lines
        pu, ang = rng.uniform(-690, 690, n), rng.uniform(-1.57, 1.57, n)
        pv = prof.g(pu) + rng.uniform(0.0, 5.0, n)
    elif kind == "tail":  # exp's flat tail: g' between -1e-239 and -1e-305
        pu, ang = rng.uniform(550, 760, n), -rng.uniform(0.0, 1e-3, n) ** 3
        pv = prof.g(pu) + rng.uniform(-1e-250, 1e-200, n)
    elif kind == "long":  # +-65,536 windows past the +-700 clip, every fourth line level
        pu, ang = rng.uniform(-5.0, 5.0, n), rng.uniform(-1.5, 1.5, n) * (np.arange(n) % 4 > 0)
        pv = prof.g(pu) + rng.uniform(0.0, 50.0, n)
    else:  # random lines, some of them misses
        pu, ang = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.5, 1.5, n)
        pv = prof.g(pu) + rng.uniform(-0.5, 2.0, n)
    half = {"clip": 2000.0, "tail": 300.0, "long": 65536.0}.get(kind, 3.0)
    return pu, pv, np.cos(ang), np.sin(ang), np.full(n, half)


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name in sorted(_PROFILES)
    for kind in ("random", "tangent", "clip", "tail", "long")
    if (kind != "tail" or name == "exp") and (kind != "long" or name != "custom_poly")])
def test_newton_chords_match_bisection(name, kind):
    """Newton chords meet the same lines as the bisection chords.  newton_leq
    is done with a chord end once its bracket is at adjacent floats or
    within the target Profile.chord derives from h (Profile.chord_target:
    4 eps times h's terms over |h'|), and leaves it there.  So each
    Newton end inside the window keeps h <= 0 and is a switching float
    (h > 0 one float outward) or lies within its stated target
    (chord_target at the end) of the bisection's end; where the sign of h
    is monotone, two switching floats are one, so the ends differ only
    where h is rounding noise, by at most 1e-14 of the window.  A tangent
    line's double root is conditioned like sqrt(eps): its ends agree
    within 1e-6, the width of that noise band."""
    prof = _PROFILES[name]
    pu, pv, qu, qv, half = _chord_lines(prof, np.random.default_rng(3), kind)
    with np.errstate(all="ignore"):
        got = np.column_stack(prof.chord(pu, pv, qu, qv, half))
        want = np.column_stack(_bisect_chord(prof, pu, pv, qu, qv, half))
    meets = np.isfinite(want[:, 0])
    assert np.array_equal(np.isfinite(got[:, 0]), meets) and meets.sum() > 100
    got, want = got[meets], want[meets]
    pu, pv, qu, qv, half = (a[meets] for a in (pu, pv, qu, qv, half))
    err = np.abs(got - want)
    if kind == "tangent":
        assert np.all(err <= 1e-6)
        return
    assert np.all(err <= 1e-14 * half[:, None])

    def h(t):
        return prof.g(pu[:, None] + t * qu[:, None]) - (pv[:, None] + t * qv[:, None])

    root = np.abs(got) < half[:, None]  # not a window end
    outward = np.broadcast_to([-np.inf, np.inf], got.shape)
    with np.errstate(all="ignore"):
        switching = (h(got) <= 0) & (h(np.nextafter(got, outward)) > 0)
        assert np.all((h(got) <= 0)[root])
        dh = prof.dg(pu[:, None] + got * qu[:, None]) * qu[:, None] - qv[:, None]
        target = prof.chord_target(pu[:, None], pv[:, None], qu[:, None], qv[:, None], got,
                                   h(got), dh)
    resolved = err <= target
    assert np.all((switching | resolved)[root])


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name in sorted(_PROFILES) for kind in ("random", "clip", "tail", "long")
    if (kind != "tail" or name == "exp") and (kind != "long" or name != "custom_poly")])
def test_chord_ends_within_target_of_50_digit_root(name, kind):
    """Every Profile.chord end inside its window is within its stated
    target (Profile.chord_target at the end) of the true root: h evaluated
    at 50 digits on the same float line parameters, with g clipped at
    +-700 as the profile clips it, changes sign between end - target and
    end + target, and mpmath.findroot's root there is that close.  Tangent
    lines are left out: their double roots are conditioned like sqrt(eps),
    and a float h can meet the graph where the 50-digit one misses it.  The
    long windows (+-65,536, past the clip) are where the solves start at
    Profile.level_point, not at the window end."""
    import mpmath
    prof = _PROFILES[name]

    def g(u):
        if name == "custom_poly":
            return mpmath.polyval(prof.coeffs[::-1], u)
        u = min(max(u, -700), 700)
        return mpmath.cosh(u) + prof.c if name == "cosh" else mpmath.exp(-u)
    pu, pv, qu, qv, half = _chord_lines(prof, np.random.default_rng(3), kind)
    with np.errstate(all="ignore"):
        lo, hi = prof.chord(pu, pv, qu, qv, half)
    checked = 0
    with mpmath.workdps(50):
        for k, (end, outward) in enumerate(zip(np.r_[lo, hi], np.r_[np.full(len(lo), -1.0),
                                                                    np.full(len(hi), 1.0)])):
            k %= len(lo)
            if not (np.isfinite(end) and abs(end) < half[k]) or lo[k] > hi[k]:
                continue
            p_u, p_v, q_u, q_v = (mpmath.mpf(float(x[k])) for x in (pu, pv, qu, qv))

            def h(t):
                return g(p_u + t * q_u) - (p_v + t * q_v)
            with np.errstate(all="ignore"):
                u = pu[k] + end * qu[k]
                target = prof.chord_target(pu[k], pv[k], qu[k], qv[k], end,
                                           prof.g(u) - (pv[k] + end * qv[k]),
                                           prof.dg(u) * qu[k] - qv[k])
            if not np.isfinite(target):
                continue
            out, inner = (mpmath.mpf(float(end)) + s * mpmath.mpf(float(target))
                          for s in (outward, -outward))
            assert h(out) > 0 >= h(inner), (k, end, target)
            root = mpmath.findroot(h, (min(out, inner), max(out, inner)), solver="illinois",
                                   verify=False)
            assert abs(root - mpmath.mpf(float(end))) <= target
            checked += 1
    assert checked > 100


def test_polychain_halfplanes_match_per_edge_recipe():
    """from_polychain's half-planes equal the per-edge recipe bit for bit:
    d = unit(b - a), normal -perp(d), offset normal @ a, on random convex
    polygons at many scales and offsets, and on unbounded chains."""
    from scipy.spatial import ConvexHull

    def per_edge(anchors, dirs):
        out = []
        for a, v in zip(anchors, dirs):
            n = -geo.perp(geo.unit(v))
            out.append((n.tobytes(), float(n @ a)))
        return out

    rng = np.random.default_rng(0)
    for k in range(300):
        pts = (rng.normal(size=(int(rng.integers(3, 30)), 2)) * 10 ** rng.uniform(-3, 4)
               + rng.normal(size=2) * 10 ** rng.uniform(-2, 6))
        verts = pts[ConvexHull(pts).vertices][::1 if k % 2 else -1]
        body = Body2.from_polychain(verts, collinear_ok=True)
        ccw = verts if k % 2 else verts[::-1]
        edges = np.roll(ccw, -1, axis=0) - ccw
        keep = np.hypot(edges[:, 0], edges[:, 1]) > 1e-14
        assert [(h.normal.tobytes(), h.offset) for h in body.cuts] == per_edge(ccw[keep],
                                                                               edges[keep])
        rays = rng.normal(size=(2, 2))
        chain = verts[:3]
        try:
            body = Body2.from_polychain(chain, rays=rays)
        except GeometryError:
            continue
        r_in, r_out = (geo.unit(r) for r in rays)
        want = per_edge(np.vstack([chain[:1], chain]),
                        np.vstack([-r_in, np.diff(chain, axis=0), r_out]))
        assert [(h.normal.tobytes(), h.offset) for h in body.cuts] == want


def test_graph_distance_one_graph_evaluation_per_step(parabola, monkeypatch):
    """distance_many refines every point's bracket in one newton_leq on the
    normal equation, whose f and f' each evaluate graph_point once per call
    for all the points, so these 4 points take 12 graph_point calls (one
    golden-section step per graph evaluation took 66 calls at 60 steps,
    evaluating both interior points every step 123)."""
    pc = next(pc for pc in parabola.pieces() if pc.kind == "graph")
    calls = []
    graph_point = geo.EpigraphBase.graph_point
    monkeypatch.setattr(geo.EpigraphBase, "graph_point",
                        lambda self, u: calls.append(1) or graph_point(self, u))
    pts = np.array([[0.0, -2.0], [1.5, 0.0], [-0.7, -1.3], [3.0, 2.0]])
    dist, t = pc.distance_many(pts)
    assert len(calls) <= 66
    for p, d in zip(pts, dist):
        # nearest u: a real root of d/du |(u, u^2 - 1) - p|^2 / 2, a cubic
        us = np.roots([2.0, 0.0, 1.0 - 2.0 * (1.0 + p[1]), -p[0]])
        us = us[np.abs(us.imag) < 1e-9].real
        want = np.min(np.hypot(us - p[0], us ** 2 - 1.0 - p[1]))
        assert d == pytest.approx(want, abs=1e-12)
    assert np.allclose(np.linalg.norm(pc.point(t) - pts, axis=1), dist, atol=1e-12)


@pytest.mark.parametrize("shift", [0.0, 1e3, 1e6])
@pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 10.0, 1e2, 1e4])
def test_thin_triangle_keeps_its_own_chain(scale, shift):
    """A bounded polygon that reaches far past its window box (the triangle
    (0, 0), (2, 0), (300, 1.5) has clearance 0.005, so a box of half-size
    about 5 at scale 1) keeps the chain of its cuts alone: no window edge,
    its three vertices, and each edge's outward normal at every edge point
    (0.97 (300, 1.5) was called exterior when the box cut the chain)."""
    V = np.array([(0.0, 0.0), (2.0, 0.0), (300.0, 1.5)]) * scale + shift
    B = Body2.from_polychain(V)
    verts, window = B.chain
    assert len(verts) == 3 and not window.any()
    # the (300, 1.5) corner's edges are 3.4e-5 rad apart, so Cramer's rule
    # loses about 3e4 times the coordinates' rounding there
    assert np.abs(np.sort(verts, axis=0) - np.sort(V, axis=0)).max() <= 1e-10 * max(
        scale, shift) * 3e4
    for i in range(3):
        a, b = V[i], V[(i + 1) % 3]
        want = np.array([b[1] - a[1], a[0] - b[0]]) / np.hypot(*(b - a))
        for f in np.concatenate([np.linspace(0.01, 0.99, 25), [0.03, 0.97]]):
            x = a + f * (b - a)
            assert B.contains_many(x[None, :])[0]
            # near a corner of the 1e-4 triangles the other edge lies within
            # supporting_normals' tolerance, and the fan holds both normals
            ends = supporting_normals(B, x).extremes()
            assert min(np.abs(n - want).max() for n in ends) <= 1e-6


def _dense_graph_distance(body, pts, n=100_001):
    """Distance from each point to the body's graph pieces by brute force:
    per piece, n graph points at equal chord spacing over the stretch
    within 3 M of the queries' centre, M the larger of the farthest query
    and the nearest dense graph point from it (each query's nearest graph
    point lies there).  Returns the distances and the largest chord
    spacing h, so the true distance lies within h / 2 below them."""
    centre = pts.mean(axis=0)
    best, h = np.full(len(pts), np.inf), 0.0
    pieces = [pc for pc in body.pieces() if pc.kind == "graph"]
    for pc in pieces:
        us = np.linspace(pc.t0, pc.t1, n)
        far = np.linalg.norm(pc.point(us) - centre, axis=1)
        reach = 3.0 * max(np.linalg.norm(pts - centre, axis=1).max(), far.min())
        near = us[far <= reach]
        us = np.linspace(near.min(), near.max(), n)
        g = pc.point(us)
        cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(g, axis=0), axis=1))])
        g = pc.point(np.interp(np.linspace(0.0, cum[-1], n), cum, us))
        h = max(h, float(np.linalg.norm(np.diff(g, axis=0), axis=1).max()))
        for i, p in enumerate(pts):
            best[i] = min(best[i], float(np.sqrt(((g - p) ** 2).sum(axis=1).min())))
    return best, h


def _graph_oracle_case(name):
    """A body with one graph piece and exterior query points: uniform ones in
    a box of the profile frame, and the points a 48-sample scan of the
    vertical anchor's window once sent to a far arm."""
    rng = np.random.default_rng(1)
    if name == "parabola":
        body, box = Body2.epigraph("parabola"), (-15.0, 15.0, -2.0, 200.0)
        extra = [(9.9382, 10.669)]
    elif name == "cosh":
        body, box = Body2.epigraph("cosh"), (-8.0, 8.0, -1.0, 200.0)
        extra = []
    elif name == "exp_hypograph":
        body, box = Body2.epigraph("exp_hypograph"), (-9.0, 6.0, -1.0, 300.0)
        extra = []
    else:
        body = Body2.epigraph("custom_poly", {"coeffs": [0.0, 0.0, 0.5, 0.0, 0.1]})
        box, extra = (-8.0, 8.0, -1.0, 300.0), [(5.03668217, 57.29688607)]
    if name == "custom_poly_moved":
        rot = np.array([[math.cos(0.9), -math.sin(0.9)], [math.sin(0.9), math.cos(0.9)]])
        body = Body2.epigraph("custom_poly", {"coeffs": [0.0, 0.0, 0.5, 0.0, 0.1]},
                              np.column_stack([0.7 * rot, [40.0, -25.0]]))
    uv = np.column_stack([rng.uniform(box[0], box[1], 400), rng.uniform(box[2], box[3], 400)])
    uv = np.vstack([uv, extra]) if extra else uv
    pts = body.base.from_profile(uv)
    return body, pts[~body.contains_many(pts, 0.0)]


@pytest.mark.parametrize("name", ["parabola", "cosh", "exp_hypograph", "custom_poly",
                                  "custom_poly_moved"])
def test_graph_distance_matches_dense_oracle(name, monkeypatch):
    """distance_many and project find the nearest graph point of exterior
    points (not a far arm's local minimum), with at most one newton_leq per
    distance_many call."""
    body, pts = _graph_oracle_case(name)
    assert len(body.pieces()) == 1 and len(pts) > 100
    want, h = _dense_graph_distance(body, pts)
    calls = []
    newton = geo.newton_leq
    monkeypatch.setattr(geo, "newton_leq", lambda *a, **k: calls.append(1) or newton(*a, **k))
    got = distance_many(body, pts)
    assert len(calls) <= 1
    monkeypatch.undo()
    assert np.all(got <= want * (1 + 1e-12) + 1e-12)
    assert np.all(got >= want - 0.5 * h - 1e-9)
    assert h < 0.02
    for p, d in zip(pts[-3:], got[-3:]):
        q, dq = project(p, body)
        assert abs(dq - d) <= 1e-12 * max(1.0, d)
        assert abs(np.linalg.norm(q - p) - d) <= 1e-12 * max(1.0, d)


def test_graph_distance_takes_the_nearest_basin():
    """boundary_distance_many is no farther than dense sampling where a
    scan's nearest sample on a steep arm sits in a farther minimum's basin:
    verify.fuzz_bodies(3, 400)[144] at a point 2.0525 from it (6.388 when
    only that basin was solved), the witness of fuzz_bodies(2, 400)[117],
    whose clearance is 4.1889 (5.3484), and the epigraph bodies among the
    first 120 of fuzz_bodies(1, 400), 8 queries each about the witness at
    0.5, 2 and 8 times max(clearance, 0.5) (43 of 744 were too far)."""
    from qcext.verify import fuzz_bodies

    body = fuzz_bodies(3, 400)[144]
    p = np.array([[46.68651173002097, -7.173826953402257]])
    want, h = _dense_graph_distance(body, p)
    got = geo.boundary_distance_many(body, p)
    assert want[0] == pytest.approx(2.0525, abs=1e-4) and h < 0.02
    assert got[0] <= want[0] * (1 + 1e-12) + 1e-12 and got[0] >= want[0] - 0.5 * h - 1e-9
    body = fuzz_bodies(2, 400)[117]
    want, h = _dense_graph_distance(body, body.witness[None, :])
    assert want[0] == pytest.approx(4.1889, abs=1e-4) and h < 0.02
    assert body.clearance <= want[0] * (1 + 1e-12) + 1e-12
    rng = np.random.default_rng(29)
    bodies = [b for b in fuzz_bodies(1, 400)[:120] if b.base.kind == "epigraph"]
    assert len(bodies) >= 25
    for body in bodies:
        r = max(body.clearance, 0.5)
        pts = np.vstack([body.witness + rng.normal(0.0, k * r, (8, 2)) for k in (0.5, 2, 8)])
        want, _ = _dense_graph_distance(body, pts, 20_001)
        got = geo.boundary_distance_many(body, pts)
        assert np.all(got <= want * (1 + 1e-12) + 1e-12)


def _mp_g(prof):
    """The profile's g written in mpmath, without the +-700 clip."""
    import mpmath
    if isinstance(prof, geo.ParabolaProfile):
        return lambda u: prof.a * u ** 2 + prof.c
    if isinstance(prof, geo.ExpProfile):
        return lambda u: mpmath.exp(-u)
    if isinstance(prof, geo.CoshProfile):
        return lambda u: mpmath.cosh(u) + prof.c
    return lambda u: mpmath.polyval(prof.coeffs[::-1], u)


@pytest.mark.parametrize("name", list(geo.PROFILES))
def test_profile_ddg_matches_50_digit_second_derivative(name):
    """Profile.ddg is within 1e-13 relative of mpmath.diff(g, u, 2) at 50
    digits, at fuzzed u; past the +-700 clip of exp and cosh, ddg, like dg,
    is its value at the clipped u."""
    import mpmath
    rng = np.random.default_rng(5)
    params = {"coeffs": [1.0, -0.5, 0.5, 0.2, 0.1]} if name == "custom_poly" else {}
    prof = geo.PROFILES[name](**params)
    u = np.concatenate([rng.uniform(-20.0, 20.0, 30), rng.uniform(-2e3, 2e3, 10),
                        [-700.0, 700.0, -700.5, 700.5, -1e4, 1e4]])
    clip = 700.0 if name in ("exp", "exp_hypograph", "cosh") else np.inf
    uc = np.clip(u, -clip, clip)
    got = prof.ddg(u)
    assert got.shape == u.shape
    assert np.array_equal(got, prof.ddg(uc)) and np.array_equal(prof.dg(u), prof.dg(uc))
    g = _mp_g(prof)
    with mpmath.workdps(50):
        for x, want in zip(got, (mpmath.diff(g, mpmath.mpf(v), 2) for v in uc)):
            assert abs(x - want) <= 1e-13 * abs(want)


def _mp_normal_eq(body, p):
    """phi(u) = (G(u) - p) . G'(u) and |G(u) - p|^2 of the body's graph in
    mpmath (call inside workdps)."""
    import mpmath
    g = _mp_g(body.base.profile)
    (a, b), (c, d) = ([mpmath.mpf(float(v)) for v in row] for row in body.base.M)
    sx, sy = (mpmath.mpf(float(v)) for v in body.base.shift)
    px, py = (mpmath.mpf(float(v)) for v in p)

    def rel(u):
        gu = g(u)
        return u * a + gu * b + sx - px, u * c + gu * d + sy - py

    def phi(u):
        (x, y), dgu = rel(u), mpmath.diff(g, u)
        return x * (a + dgu * b) + y * (c + dgu * d)

    return phi, lambda u: sum(v ** 2 for v in rel(u))


@pytest.mark.parametrize("name", ["parabola", "cosh", "exp_hypograph", "custom_poly",
                                  "custom_poly_moved"])
def test_graph_projection_parameter_matches_50_digit_root(name):
    """distance_many's parameter t is within 1e-12 relative of the root of
    the normal equation (G(u) - p) . G'(u) = 0 at 50 digits
    (mpmath.findroot from the returned u), on the dense-oracle bodies'
    exterior points and the parabola point (0, 63), where golden section on
    |G(u) - p|^2 stopped 3.7e-9 from the root.  On a flipped piece t = -u,
    which converts exactly, so the bound is the same."""
    import mpmath
    body, pts = _graph_oracle_case(name)
    if name == "parabola":
        pts = np.vstack([pts, [(0.0, 63.0)]])
    (pc,) = body.pieces()
    _, t = pc.distance_many(pts)
    assert np.all((t > pc.t0) & (t < pc.t1))
    sign = -1.0 if pc.flipped else 1.0
    with mpmath.workdps(50):
        for ti, p in zip(t, pts):
            phi, _ = _mp_normal_eq(body, p)
            root = mpmath.findroot(phi, mpmath.mpf(sign * ti))
            assert abs(sign * ti - root) <= 1e-12 * abs(root)


def test_flipped_piece_foot_matches_50_digit_foot():
    """On the exp hypograph's graph piece (flipped, u from -12.5 to 65,561)
    project's foot of (-0.8503, -0.9232) is within 4 float spacings of the
    50-digit foot: t = -u converts exactly (t = (u0 + u1) - u put it
    1.5e-11 away)."""
    import mpmath
    body = Body2.epigraph("exp_hypograph")
    (pc,) = body.pieces()
    assert pc.flipped
    p = np.array([-0.8503, -0.9232])
    foot, _ = project(p, body)
    with mpmath.workdps(50):
        phi, _ = _mp_normal_eq(body, p)
        u = mpmath.findroot(phi, mpmath.mpf(float(body.base.to_profile(foot)[0, 0])))
        gu = _mp_g(body.base.profile)(u)
        (a, b), (c, d) = ([mpmath.mpf(float(v)) for v in row] for row in body.base.M)
        want = (u * a + gu * b + float(body.base.shift[0]), u * c + gu * d + float(body.base.shift[1]))
        err = [abs(mpmath.mpf(float(x)) - w) for x, w in zip(foot, want)]
    assert np.all(np.array(err, dtype=float) <= 4.0 * np.spacing(np.abs(foot)))


@pytest.mark.parametrize("name", ["parabola", "cosh", "exp_hypograph", "custom_poly",
                                  "custom_poly_moved"])
def test_graph_distance_inside_near_evolute_matches_50_digit_minimum(name):
    """Interior points near a centre of curvature (those of a flat arc lie
    outside the body and are dropped), where |G(u) - p|^2 has a
    local maximum between two close minima (or one flat minimum), get the
    smallest distance: within 1e-12 of the least |G(u) - p| over every
    upward root of the normal equation, found from sign changes on a fine
    grid and refined at 50 digits.  Among them is the parabola point
    (0, -0.4991) above the evolute's cusp (0, -0.5), whose minimum lies at
    u = -0.03 off every scan sample."""
    import mpmath
    body, _ = _graph_oracle_case(name)
    base = body.base
    u = np.array([-2.0, -1.0, -0.3, 0.0, 0.5, 1.5])
    g2 = base.profile.ddg(u)[:, None] * base.M[:, 1]
    tan = base.graph_tangent(u)
    rho = np.linalg.norm(tan, axis=1) ** 3 / np.abs(tan[:, 0] * g2[:, 1] - tan[:, 1] * g2[:, 0])
    n = np.column_stack([-tan[:, 1], tan[:, 0]]) / np.linalg.norm(tan, axis=1)[:, None]
    n *= np.sign((n * g2).sum(axis=1))[:, None]
    fac = 1.0 + np.array([-1e-2, 1e-4, 1e-3, 1e-2, 0.1])
    pts = (base.graph_point(u)[:, None] + (rho[:, None] * fac)[..., None] * n[:, None]).reshape(-1, 2)
    win = np.repeat(2.0 * rho * fac.max() / base.scale, len(fac))
    us = np.repeat(u, len(fac))
    inside = body.contains_many(pts, 0.0)
    assert inside.sum() >= 5
    pts, us, win = pts[inside], us[inside], win[inside]
    if name == "parabola":
        pts, us, win = np.vstack([pts, [(0.0, -0.4991)]]), np.append(us, 0.0), np.append(win, 2.0)
    got = geo.boundary_distance_many(body, pts)
    with mpmath.workdps(50):
        for d, p, uc, w in zip(got, pts, us, win):
            grid = np.linspace(uc - w, uc + w, 20001)
            rel, tg = base.graph_point(grid) - p, base.graph_tangent(grid)
            up = np.nonzero(np.diff((rel * tg).sum(axis=1) > 0))[0]
            phi, d2 = _mp_normal_eq(body, p)
            roots = [mpmath.findroot(phi, (grid[i], grid[i + 1]), solver="anderson") for i in up]
            want = float(mpmath.sqrt(min(d2(r) for r in roots)))
            assert len(roots) and abs(d - want) <= 1e-12 * max(1.0, want)


def _support_u(body, dirs):
    """Profile abscissae of the support points of (N, 2) directions."""
    vals, pts = support_point(body, dirs)
    assert np.all(np.isfinite(vals))
    return body.base.to_profile(pts)[:, 0]


def test_support_points_match_closed_forms():
    """Support points solve g'(u) = -w_u / w_v, w = M^T d, within 1e-12 in
    u: the parabola's closed form and the bisection on cosh and exp."""
    th = np.linspace(0.05, math.pi - 0.05, 41) + math.pi  # d_v < 0
    dirs = np.column_stack([np.cos(th), np.sin(th)])
    para = Body2.epigraph("parabola", params={"a": 2.0, "c": -1.0})
    u = _support_u(para, dirs)
    assert np.max(np.abs(u - (-dirs[:, 0] / (2.0 * 2.0 * dirs[:, 1])))) <= 1e-12
    # a scaled rotation of the same parabola: w = M^T d
    R = 2.0 * np.array([[0.6, -0.8], [0.8, 0.6]])
    turned = Body2.epigraph("parabola", params={"a": 2.0, "c": -1.0},
                            transform=np.column_stack([R, [1.0, -3.0]]))
    w = dirs @ R
    keep = w[:, 1] < -0.2
    u = _support_u(turned, dirs[keep])
    assert np.max(np.abs(u - (-w[keep, 0] / (4.0 * w[keep, 1])))) <= 1e-12
    cosh = Body2.epigraph("cosh")
    s = -dirs[:, 0] / dirs[:, 1]
    assert np.max(np.abs(_support_u(cosh, dirs) - np.arcsinh(s))) <= 1e-12
    # exp(-u) has slopes -exp(-u) < 0, met by directions with d_u < 0
    th = np.linspace(math.pi + 0.05, 1.5 * math.pi - 0.05, 21)
    dirs = np.column_stack([np.cos(th), np.sin(th)])
    s = -dirs[:, 0] / dirs[:, 1]
    exp = Body2.epigraph("exp")
    assert np.max(np.abs(_support_u(exp, dirs) + np.log(-s))) <= 1e-12
    # the apex of the standard parabola, exactly
    val, pt = support_point(Body2.epigraph("parabola"), (0.0, -1.0))
    assert val == 1.0 and np.array_equal(pt, [0.0, -1.0])


def _gallery():
    t = 2.0 * math.pi * np.arange(24) / 24
    return {
        "disk": Body2.ball((0.0, 0.0), 1.0),
        "parabola": Body2.epigraph("parabola"),
        "square": Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)]),
        "hypograph": Body2.epigraph("exp_hypograph"),
        "cosh": Body2.epigraph("cosh"),
        "triangle": Body2.from_polychain([(0, 1), (2, 1), (1, -3)]),
        "ellipse24": Body2.from_polychain(np.column_stack([2.0 * np.cos(t), np.sin(t)])),
    }


#: scan indices j (direction angle 2 pi j / 64) with infinite support,
#: as the per-direction golden-section support found them
_INFINITE_SUPPORT = {
    "parabola": list(range(0, 33)),
    "cosh": list(range(0, 33)),
    "hypograph": list(range(0, 16)) + list(range(32, 64)),
}


@pytest.mark.parametrize("name", sorted(_gallery()))
def test_support_batch_matches_per_direction(name):
    """An (N, 2) call equals its per-direction calls bit for bit and keeps
    the +inf directions of the 64-direction scan."""
    body = _gallery()[name]
    th = 2.0 * math.pi * np.arange(64) / 64
    dirs = np.column_stack([np.cos(th), np.sin(th)])
    vals, pts = support_point(body, dirs)
    assert np.flatnonzero(np.isinf(vals)).tolist() == _INFINITE_SUPPORT.get(name, [])
    assert np.array_equal(support(body, dirs), vals)
    for d, v, p in zip(dirs, vals, pts):
        v1, p1 = support_point(body, d)
        assert v1 == v and support(body, d) == v
        assert np.array_equal(p1, p) if p1 is not None else np.isnan(p).all()


def test_support_batch_matches_per_direction_transformed():
    R = 0.5 * np.array([[0.8, 0.6], [-0.6, 0.8]])
    bodies = [Body2.epigraph("cosh", transform=np.column_stack([R, [2.0, 1.0]])),
              Body2.epigraph("parabola").clip([((0.3, 1.0), 4.0)])]
    th = np.linspace(0.0, 2.0 * math.pi, 37)
    dirs = np.column_stack([np.cos(th), 3.0 * np.sin(th)])  # not unit
    for body in bodies:
        vals, pts = support_point(body, dirs)
        for d, v, p in zip(dirs, vals, pts):
            v1, p1 = support_point(body, d)
            assert v1 == v
            assert np.array_equal(p1, p) if p1 is not None else np.isnan(p).all()


def test_rotundity_off_centre_disk_closed_form():
    """On a circle of radius r both chords of length eps from x end on the
    circle, and their midpoints sit r - sqrt((r - eps/2)(r + eps/2)) inside
    it."""
    center, r = np.array([0.3, -0.2]), 1.5
    disk = Body2.ball(center, r)
    for phi in (0.1, 2.0, 4.0, 6.2):
        x = center + r * np.array([math.cos(phi), math.sin(phi)])
        for eps in (1e-4, 0.3, 1.0, 2.9):
            want = r - math.sqrt((r - eps / 2) * (r + eps / 2))
            assert rotundity_modulus(disk, x, eps) == pytest.approx(want, abs=1e-12)


def _segment_distance(m, a, b):
    """Distance from the point m to the segment [a, b]."""
    d = b - a
    t = min(1.0, max(0.0, float((m - a) @ d) / float(d @ d)))
    return float(np.linalg.norm(m - a - t * d))


def _polygon_rotundity(verts, k, s, eps):
    """rotundity_modulus at x = verts[k] + s (verts[k+1] - verts[k]) of the
    counterclockwise polygon verts, exactly: walk the vertex chain from x
    both ways to the first point y at distance eps (on each edge p -> q
    that starts inside the circle, the positive root t of
    |p + t (q - p) - x| = eps, by the stable quadratic formula), and take
    the least boundary distance of the two chord midpoints."""
    n = len(verts)
    x = verts[k] + s * (verts[(k + 1) % n] - verts[k])
    mids = []
    for step in (1, -1):
        p, j = x, (k + 1) % n if step == 1 else (k if s > 0 else (k - 1) % n)
        while True:
            q = verts[j]
            d, rel = q - p, p - x
            a, b, c = float(d @ d), float(rel @ d), float(rel @ rel) - eps * eps
            root = math.sqrt(b * b - a * c)
            t = -c / (b + root) if b >= 0 else (root - b) / a
            if t <= 1.0:
                mids.append(0.5 * (x + p + t * d))
                break
            p, j = q, (j + step) % n
    dist = [min(_segment_distance(m, verts[i], verts[(i + 1) % n]) for i in range(n))
            for m in mids]
    return x, min(dist)


def test_rotundity_matches_polygon_oracle():
    """At the vertices and interior edge points of a regular hexagon, a
    pentagon, a 2:1 24-gon and a thin 500:1 one, the modulus equals the
    exact vertex-chain walk for eps up to 1.95 times the clearance."""
    t6, t24 = 2 * math.pi * np.arange(6) / 6 + 0.2, 2 * math.pi * np.arange(24) / 24
    polygons = [np.column_stack([np.cos(t6), np.sin(t6)]),
                np.array([(0.0, 0.0), (2.0, -0.5), (3.0, 1.0), (1.5, 2.5), (-0.5, 1.5)]),
                np.column_stack([2.0 * np.cos(t24), np.sin(t24)]),
                np.column_stack([500.0 * np.cos(t24 + 0.01), np.sin(t24 + 0.01)])]
    for verts in polygons:
        body = Body2.from_polychain(verts)
        for k in range(0, len(verts), max(1, len(verts) // 6)):
            for s in (0.0, 0.3, 0.5):
                for eps in np.linspace(0.05, 1.95, 7) * body.clearance:
                    x, want = _polygon_rotundity(verts, k, s, float(eps))
                    assert rotundity_modulus(body, x, float(eps)) == pytest.approx(want, abs=1e-12)


def test_rotundity_off_boundary_raises(disk, square):
    for body, x in ((disk, (0.5, 0.0)), (disk, (1.5, 0.0)), (square, (0.0, 0.3))):
        with pytest.raises(GeometryError):
            rotundity_modulus(body, x, 0.5)


# -- cut table ----------------------------------------------------------------

def _polygon(kind: str, shift: float) -> Body2:
    if kind == "24-gon":
        t = 2 * math.pi * np.arange(24) / 24
        verts = np.column_stack([2.0 * np.cos(t), 1.5 * np.sin(t)])
    else:
        from scipy.spatial import ConvexHull

        pts = np.random.default_rng(5).normal(0.0, 2.0, (12, 2))
        verts = pts[ConvexHull(pts).vertices]
    move = shift * np.array([0.6, -0.8])
    return Body2.from_halfplanes([(hp.normal, hp.offset + hp.normal @ move)
                                  for hp in Body2.from_polychain(verts).cuts])


@pytest.mark.parametrize("n_pts", [1, 2, 5000])
@pytest.mark.parametrize("shift", [0.0, 1e3, 1e6])
@pytest.mark.parametrize("kind", ["24-gon", "random"])
def test_cut_table_margin_matches_halfplane_max(kind, shift, n_pts):
    """The stacked margin is the max of the per-cut HalfPlane.value within
    4 ulp of the largest term, and a point's value does not depend on the
    other points of the call."""
    body = _polygon(kind, shift)
    pts = body.witness + np.random.default_rng(6).normal(0.0, 3.0, (n_pts, 2))
    got = body.margin_many(pts)
    want = np.max([hp.value(pts) for hp in body.cuts], axis=0)
    table = body.cut_table
    largest = np.maximum(np.abs(table.normals[:, None, :] * pts).max(axis=-1),
                         np.abs(table.offsets)[:, None]).max(axis=0)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(largest))
    alone = np.concatenate([CutTable(body.rows).margin(p[None]) for p in pts[:64]])
    assert np.array_equal(alone, got[:64])


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


# -- witnesses: exact Chebyshev centres, cached probes -------------------------

def _lp_centre(body):
    """Chebyshev centre and radius by a direct HiGHS LP, the oracle."""
    from scipy.optimize import linprog

    A, b = body.cut_table.normals, body.cut_table.offsets
    res = linprog([0.0, 0.0, -1.0], A_ub=np.hstack([A, np.ones((len(b), 1))]), b_ub=b,
                  bounds=[(None, None), (None, None), (0, 1e3)], method="highs")
    assert res.success
    return res.x[:2], res.x[2]


def _no_lp(*args, **kwargs):
    raise AssertionError("the witness LP ran")


def _vertex_bodies():
    """(body, unique centre) for bodies whose constraints have a vertex."""
    from qcext.extension import extend_body
    from qcext.verify import _random_polygon_pair

    rng = np.random.default_rng(21)
    out = []
    for _ in range(20):
        B, C = _random_polygon_pair(rng)
        n = np.array([0.6, 0.8])
        chord = C.clip([(n, float(n @ C.witness) + 0.2 * C.clearance)])
        out += [(B, True), (C, True), (chord, True),
                (Body2.from_halfplanes([(hp.normal, hp.offset)
                                        for hp in extend_body(B, C).halfplanes]), True)]
    wedge = Body2.from_halfplanes([((-1.0, 0.2), 0.0), ((0.3, -1.0), 1.0)])
    square = Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    cone = supporting_cone(np.array([1.0, 1.0]), square)
    return out + [(wedge, False), (cone, False)]


def test_vertex_bodies_make_no_lp_call(monkeypatch):
    """Bodies whose half-planes have a vertex never call the LP, and match
    the LP oracle: r to 1e-12 relative, a unique centre to 1e-9."""
    monkeypatch.setattr(geo, "linprog", _no_lp)
    for body, unique in _vertex_bodies():
        w, r = _lp_centre(body)
        assert body._clearance0 == pytest.approx(r, rel=1e-12)
        if unique:
            assert np.abs(body.witness - w).max() <= 1e-9 * max(1.0, np.abs(w).max())
        else:  # capped at r = 1e3: the single optimal vertex, every cut 1e3 away
            slack = body.cut_table.offsets - body.cut_table.normals @ body.witness
            assert slack == pytest.approx(np.full(len(slack), 1e3), rel=1e-12)


#: a regular 40-gon: more cuts than _VERTEX_MAX_CUTS
_MANY_CUTS = [((math.cos(a), math.sin(a)), 1.0)
              for a in np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)]


@pytest.mark.parametrize("hps", [[((0.0, 1.0), 1.0)],
                                 [((0.0, 1.0), 1.0), ((0.0, -1.0), 1.0)],
                                 _MANY_CUTS],
                         ids=["halfplane", "strip", "many_cuts"])
def test_bodies_without_vertex_reach_lp(monkeypatch, hps):
    assert len(hps) in (1, 2) or len(hps) > geo._VERTEX_MAX_CUTS
    calls = []
    lp = geo.linprog
    monkeypatch.setattr(geo, "linprog", lambda *a, **k: calls.append(1) or lp(*a, **k))
    body = Body2.from_halfplanes(hps)
    assert len(calls) == 1
    assert body._clearance0 == pytest.approx(_lp_centre(body)[1], rel=1e-12)


_IMPORT_THEN_LP = """
import sys
import {module}
assert "scipy.optimize" not in sys.modules, "importing {module} loaded scipy.optimize"
from qcext import geometry as geo
calls = []
solve = geo.linprog
geo.linprog = lambda *a, **k: calls.append(1) or solve(*a, **k)
half = geo.Body2.from_halfplanes([((0.0, 1.0), 1.0)])
many = geo.Body2.from_halfplanes({many})
assert calls == [1, 1], calls
assert "scipy.optimize" in sys.modules
print(half._clearance0, many.witness[0], many.witness[1], many._clearance0)
"""


@pytest.mark.parametrize("module", ["qcext", "qcext.cli"])
def test_import_leaves_lp_solver_unloaded(module):
    """Importing qcext or its CLI, in a fresh interpreter, does not load
    scipy.optimize; a body on the HiGHS path built afterwards (one
    half-plane, more than _VERTEX_MAX_CUTS cuts) still gets its Chebyshev
    centre through geometry.linprog."""
    src = os.path.dirname(os.path.dirname(geo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = _IMPORT_THEN_LP.format(module=module, many=_MANY_CUTS)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    r_half, x, y, r_many = map(float, out.stdout.split())
    assert r_half == pytest.approx(1e3, rel=1e-12)
    assert abs(x) <= 1e-9 and abs(y) <= 1e-9
    assert r_many == pytest.approx(1.0, rel=1e-9)


def test_empty_interior_raises_on_both_paths(monkeypatch):
    # a triangle shrunk to the origin: the vertex path
    point = [((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0), ((1.0, 1.0), 0.0)]
    # two disjoint half-planes: the LP path
    gap = [((1.0, 0.0), 0.0), ((-1.0, 0.0), -1.0)]
    with monkeypatch.context() as mp:
        mp.setattr(geo, "linprog", _no_lp)
        with pytest.raises(GeometryError):
            Body2.from_halfplanes(point)
    for hps in (point, gap):
        table = CutTable(geo.as_rows(hps))
        with pytest.raises(GeometryError):
            geo._chebyshev_lp(table.normals, table.offsets)
    with pytest.raises(GeometryError):
        Body2.from_halfplanes(gap)


def test_rectangle_witness_is_its_centre():
    """Tie rule: the midpoint of the extreme optimal vertices."""
    rect = Body2.from_polychain([(0, 0), (2, 0), (2, 1), (0, 1)])
    assert np.abs(rect.witness - [1.0, 0.5]).max() <= 1e-15
    assert rect._clearance0 == pytest.approx(0.5, rel=1e-15)


def _invariance_polygons():
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(8)
    out = [np.array([(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)])]
    for _ in range(30):
        pts = rng.normal(0.0, 0.4, (int(rng.integers(3, 16)), 2))
        out.append(pts[ConvexHull(pts).vertices])
    return out


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("shift", [0.0, 1e3, 1e6])
def test_witness_follows_translation_and_scale(scale, shift):
    """The witness maps with the body and the clearance scales, within
    1e-9 of the coordinate scale: the body's size times scale plus the
    translation (float64 carries the translated vertices to eps * shift).
    Every scaled clearance stays below the radius cap, which no scaling
    can follow."""
    move = shift * np.array([0.6, -0.8])
    for verts in _invariance_polygons():
        base = Body2.from_polychain(verts, collinear_ok=True)
        assert scale * base._clearance0 < RADIUS_CAP
        moved = Body2.from_polychain(scale * verts + move, collinear_ok=True)
        tol = 1e-9 * (scale * np.abs(verts).max() + shift)
        assert np.abs(moved.witness - (scale * base.witness + move)).max() <= tol
        assert abs(moved._clearance0 - scale * base._clearance0) <= tol


@pytest.mark.parametrize("shift", [0.0, 1e6])
def test_polychain_convexity_follows_translation(shift):
    """Convexity and collinearity are judged against the chain's own extent:
    a 1e-2 square is accepted and a scaled non-convex chain rejected, at the
    origin and translated to (1e6, 1e6)."""
    move = np.array([shift, shift])
    square = 1e-2 * np.array([(0, 0), (1, 0), (1, 1), (0, 1)]) + move
    B = Body2.from_polychain(square)
    assert np.abs(B.witness - (move + 5e-3)).max() <= 1e-9 * (1.0 + shift)
    dent = 1e-2 * np.array([(0, 0), (1, 0), (0.5, 0.1), (1, 1), (0, 1)]) + move
    with pytest.raises(GeometryError, match="not convex"):
        Body2.from_polychain(dent, collinear_ok=True)


_PROBE_BODIES = {
    "parabola": lambda: Body2.epigraph("parabola"),
    "moved_parabola": lambda: Body2.epigraph(
        "parabola", transform=[[0.0, -2.0, 3.0], [2.0, 0.0, -1.0]]),
    "cosh": lambda: Body2.epigraph("cosh"),
    "exp_hypograph": lambda: Body2.epigraph("exp_hypograph"),
    "ball": lambda: Body2.ball((1.0, -2.0), 1.5),
}


@pytest.mark.parametrize("name", sorted(_PROBE_BODIES))
def test_clip_witness_reuses_base_probe(monkeypatch, name):
    """C.clip(h) takes the witness and clearance of the same cuts on a fresh
    equal base, bit for bit, and the base's probe is evaluated once."""
    C = _PROBE_BODIES[name]()
    calls = []
    if name == "ball":
        margin = type(C.base).margin
        monkeypatch.setattr(type(C.base), "margin",
                            lambda self, pts: calls.append(1) or margin(self, pts))
    else:
        g = type(C.base.profile).g
        monkeypatch.setattr(type(C.base.profile), "g",
                            lambda self, u: calls.append(1) or g(self, u))
    rng = np.random.default_rng(4)
    for _ in range(6):
        th = rng.uniform(0.0, 2.0 * math.pi)
        n = np.array([math.cos(th), math.sin(th)])
        hps = [(n, float(n @ C.witness) + rng.uniform(0.05, 1.0))]
        if rng.uniform() < 0.5:
            hps.append((-n, float(-n @ C.witness) + rng.uniform(0.05, 1.0)))
        B = C.clip(hps)
        fresh = _PROBE_BODIES[name]().clip(hps)
        assert np.array_equal(B.witness, fresh.witness)
        assert B._clearance0 == fresh._clearance0
    # C's base was probed before counting began: the six clips of C add no
    # probe, each fresh base adds one (one margin call for a ball, two g
    # calls for an epigraph)
    assert len(calls) == (1 if name == "ball" else 2) * 6


def test_cut_ball_witness_between_probes():
    """A cut ball whose interior holds no point of the 41 x 41 probe grid
    (a strip 0.04 wide between grid columns 0.05 apart) takes its witness
    from the Chebyshev centre of its cuts and an inscribed polygon: an
    interior point whose clearance is the strip's half-width.  An empty
    cut ball still raises."""
    disk = Body2.ball((0.0, 0.0), 1.0)
    strip = disk.clip([((1.0, 0.0), 0.05), ((-1.0, 0.0), -0.01)])
    assert 0.01 < strip.witness[0] < 0.05
    assert strip._clearance0 == pytest.approx(0.02, rel=1e-9)
    assert strip.margin_many(strip.witness[None, :])[0] == -strip._clearance0
    with pytest.raises(GeometryError, match="empty interior"):
        disk.clip([((1.0, 0.0), -0.5), ((-1.0, 0.0), -0.5)])



@pytest.mark.parametrize("name", sorted(_PROBE_BODIES))
def test_clip_witness_is_probe_argmin(monkeypatch, name):
    """The witness and clearance of a clip with 1, 2 or 5 cuts, and of a
    clip of that clip, are bit for bit the argmin of
    np.maximum(m, cut_table.margin(cand)) over the base's probe, and no
    clip evaluates the probe again."""
    C = _PROBE_BODIES[name]()
    cand, m = C.base.probe[:2]
    calls = []
    if name == "ball":
        margin = type(C.base).margin
        monkeypatch.setattr(type(C.base), "margin",
                            lambda self, pts: calls.append(1) or margin(self, pts))
    else:
        g = type(C.base.profile).g
        monkeypatch.setattr(type(C.base.profile), "g",
                            lambda self, u: calls.append(1) or g(self, u))
    rng = np.random.default_rng(25)

    def cuts(k):
        th = rng.uniform(0.0, 2.0 * math.pi, k)
        n = np.column_stack([np.cos(th), np.sin(th)])
        return [(v, float(v @ C.witness) + rng.uniform(0.05, 1.0)) for v in n]

    for k in (1, 2, 5):
        for _ in range(4):
            B = C.clip(cuts(k))
            for body in (B, B.clip(cuts(k))):
                want = np.maximum(m, body.cut_table.margin(cand))
                i = int(np.argmin(want))
                assert body.witness.tobytes() == cand[i].tobytes()
                assert body._clearance0 == -float(want[i])
    assert calls == []


_STRIPS = [
    [((1.0, 0.0), 10.6), ((-1.0, 0.0), -10.5), ((0.0, 1.0), 130.0)],
    [((1.0, 0.0), 0.31), ((-1.0, 0.0), -0.3)],
    [((1.0, 0.0), 2.05), ((-1.0, 0.0), -2.0)],
]


@pytest.mark.parametrize("cuts", _STRIPS)
def test_cut_epigraph_witness_between_probes(cuts):
    """A thin strip of the parabola's epigraph holds no probe point; its
    witness is the Chebyshev centre of its cuts and a polygon inscribed in
    the graph over the cuts' extent: a point of the strip whose clearance,
    its own -margin, is the strip's half-width."""
    C = Body2.epigraph("parabola")
    lo, hi = -cuts[1][1], cuts[0][1]
    B = C.clip(cuts)
    cand, m = C.base.probe[:2]
    assert (np.maximum(m, B.cut_table.margin(cand)) >= -1e-12).all()
    assert lo < B.witness[0] < hi
    assert B._clearance0 == pytest.approx(0.5 * (hi - lo), rel=1e-9)
    assert B.margin_many(B.witness[None, :])[0] == -B._clearance0


def test_cut_epigraph_witness_under_transform():
    """The strip 2 <= u <= 2.05 of a parabola mapped by a reflecting
    scaled isometry (scale 3) takes a witness in the strip whose clearance
    is the strip's half-width times 3; a strip below the graph still raises."""
    T = np.array([[1.8, 2.4, 1.0], [2.4, -1.8, 2.0]])
    C = Body2.epigraph("parabola", transform=T)
    M_inv_t = np.linalg.inv(T[:, :2]).T

    def world(n, c):
        v = M_inv_t @ np.asarray(n, dtype=float)
        return v, c + float(v @ T[:, 2])

    B = C.clip([world((1.0, 0.0), 2.05), world((-1.0, 0.0), -2.0)])
    u = B.base.to_profile(B.witness)[0, 0]
    assert 2.0 < u < 2.05
    assert B._clearance0 == pytest.approx(3.0 * 0.025, rel=1e-9)
    with pytest.raises(GeometryError, match="empty interior"):
        C.clip([world((1.0, 0.0), 0.31), world((-1.0, 0.0), -0.3), world((0.0, 1.0), -0.95)])



def _beyond_by_value(B, C):
    """cuts_beyond's documented rule on rows as value tuples: B's rows not
    among C's, when B has C's base and holds C's rows (a half-plane B
    otherwise needs _check_inside), else None."""
    key = {(*h.normal.tolist(), h.offset) for h in C.cuts}
    mine = [(*h.normal.tolist(), h.offset) for h in B.cuts]
    if not ((B.base is C.base or geo._same_base(B.base, C.base)) and key.issubset(mine)):
        if not isinstance(B.base, geo.PlaneBase):
            return None
        geo._check_inside(B, C)
    rows = np.column_stack([B.cut_table.normals, B.cut_table.offsets])
    return rows[[k not in key for k in mine]].reshape(-1, 3)


def _signed_zero_cut(rng, C):
    """A cut with a zero normal component, whose sign the caller flips."""
    n = np.array([0.0, 1.0]) if rng.integers(2) else np.array([1.0, 0.0])
    return geo.HalfPlane(n, float(n @ C.witness) + rng.uniform(0.5, 2.0))


@pytest.mark.parametrize("seed", range(6))
def test_cuts_beyond_matches_by_value_rule(seed):
    """cuts_beyond (array rule) returns the by-value rule's rows, bit for
    bit, or its None, or raises as it does, on fuzzed clips: C's cuts
    permuted inside B, duplicate cuts, -0.0 for 0.0, an equal fresh base,
    and B missing one of C's cuts (None on a curved base, the containment
    test on a half-plane base); cuts_beyond_all gives the same per body,
    None where cuts_beyond raises."""
    rng = np.random.default_rng(seed)
    makers = [lambda: Body2.epigraph("parabola"), lambda: Body2.ball((1.0, -2.0), 1.5),
              lambda: Body2.from_polychain([(-2, -2), (2, -2), (2, 2), (-2, 2)])]

    def cut(body, lo=0.3, hi=1.5):
        th = rng.uniform(0.0, 2.0 * math.pi)
        n = np.array([math.cos(th), math.sin(th)])
        return geo.HalfPlane(n, float(n @ body.witness) + rng.uniform(lo, hi))

    for make in makers:
        root = make()
        zero = _signed_zero_cut(rng, root)
        C = root.clip([cut(root), zero, cut(root)])
        flipped = geo.HalfPlane(np.where(zero.normal == 0.0, -0.0, zero.normal), zero.offset)
        assert flipped.normal.tobytes() != zero.normal.tobytes()
        own = list(C.cuts[len(root.cuts):])
        extra = [cut(C, 0.1, 0.8) for _ in range(2)]
        fresh = make()
        cases = [
            Body2(C.base, root.cuts + tuple(rng.permutation(np.array(own, dtype=object)))
                  + tuple(extra)),
            C.clip(own[:1] + extra[:1] + extra[:1]),
            Body2(C.base, root.cuts + (own[0], flipped, own[2], extra[0])),
            Body2(fresh.base, fresh.cuts + C.cuts[len(root.cuts):] + (extra[1],)),
            Body2(C.base, root.cuts + (own[0], own[2], extra[0])),
            Body2(C.base, root.cuts + (own[0], own[2], geo.HalfPlane(zero.normal, zero.offset - 0.2))),
            Body2(C.base, root.cuts + (own[0], own[2], cut(C, 5.0, 6.0))),
        ]
        for B in cases:
            try:
                want = _beyond_by_value(B, C)
            except GeometryError as err:
                with pytest.raises(GeometryError, match=str(err)):
                    geo.cuts_beyond(B, C)
                continue
            got = geo.cuts_beyond(B, C)
            if want is None:
                assert got is None
            else:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        want_all = []
        for B in cases + [None]:
            try:
                want_all.append(None if B is None else _beyond_by_value(B, C))
            except GeometryError:
                want_all.append(None)
        got_all = geo.cuts_beyond_all(cases + [None], C)
        assert [None if w is None else w.tobytes() for w in want_all] == \
            [None if g is None else g.tobytes() for g in got_all]


# -- half-plane pruning: the interval test against Qhull's dual hull -----------

def _prune_by_qhull(halfplanes, witness):
    """The dual-hull rule by Qhull, the pruning before the interval test:
    the tighter of each same-direction pair (ties to the first), then the
    rows whose duals normal / slack are vertices of the hull of the duals
    and the origin, sorted by normal angle."""
    from scipy.spatial import ConvexHull

    by_dir = {}
    for hp in halfplanes:
        cp = hp.offset - float(hp.normal @ witness)
        key = round(geo.angle_of(hp.normal) * 1e12)
        if key not in by_dir or cp < by_dir[key][0]:
            by_dir[key] = (cp, hp)
    items = list(by_dir.values())
    if len(items) > 2:
        vert = set(ConvexHull([hp.normal / cp for cp, hp in items] + [[0.0, 0.0]]).vertices.tolist())
        items = [it for i, it in enumerate(items) if i in vert]
    return sorted((hp for _, hp in items), key=lambda h: geo.angle_of(h.normal))


def _random_halfplane_lists(rng, count):
    """(half-planes, witness) lists of 1 to 100 rows: random normals and
    slacks, tangents of a circle with some pushed out, and 8 directions
    with integer slacks (same-direction rows), about random witnesses."""
    out = []
    for i in range(count):
        m = int(rng.integers(1, 101 if i % 10 == 0 else 30))
        kind = i % 3
        if kind == 0:
            n, s = rng.normal(size=(m, 2)), rng.uniform(0.1, 3.0, m)
        elif kind == 1:
            th = rng.uniform(0.0, 2.0 * math.pi, m)
            n = np.column_stack([np.cos(th), np.sin(th)])
            s = 1.0 + (rng.uniform(size=m) < 0.3) * rng.uniform(0.0, 0.5, m)
        else:
            th = rng.integers(0, 8, m) * math.pi / 4
            n, s = np.column_stack([np.cos(th), np.sin(th)]), rng.integers(1, 4, m).astype(float)
        w = rng.normal(size=2)
        hps = [geo.HalfPlane(a, 0.0) for a in n]
        out.append(([geo.HalfPlane(h.normal, float(h.normal @ w) + si) for h, si in zip(hps, s)], w))
    return out


def _long_halfplane_lists(rng):
    """Lists of 256, 512 and 1,024 rows: tangents of a circle at equal
    slack, tangents with 30% pushed out, and random rows."""
    out = []
    for m in (256, 512, 1024):
        th = rng.uniform(0.0, 2.0 * math.pi, m)
        tangents = np.column_stack([np.cos(th), np.sin(th)])
        pushed = 1.0 + (rng.uniform(size=m) < 0.3) * rng.uniform(0.0, 0.5, m)
        for n, s in ((tangents, np.ones(m)), (tangents, pushed),
                     (rng.normal(size=(m, 2)), rng.uniform(0.1, 3.0, m))):
            w = rng.normal(size=2)
            hps = [geo.HalfPlane(a, 0.0) for a in n]
            out.append(([geo.HalfPlane(h.normal, float(h.normal @ w) + si)
                         for h, si in zip(hps, s)], w))
    return out


def _same_rows(got, want):
    return [id(h) for h in got] == [id(h) for h in want]


def test_prune_matches_qhull_on_random_lists():
    """The kept half-planes are Qhull's, object for object and in order,
    on 600 random lists (every tenth up to 100 rows) and on lists of 256,
    512 and 1,024 rows: every list takes the interval test."""
    lists = _random_halfplane_lists(np.random.default_rng(5), 600)
    assert sum(len(h) > 64 for h, _ in lists) > 5
    for hps, w in lists + _long_halfplane_lists(np.random.default_rng(7)):
        assert _same_rows(geo.prune_halfplanes(hps, w), _prune_by_qhull(hps, w))


def _batched_prune(lists):
    rows = [hp for hps, _ in lists for hp in hps]
    level = np.repeat(np.arange(len(lists)), [len(hps) for hps, _ in lists])
    kept = geo.irredundant(np.array([h.normal for h in rows]), np.array([h.offset for h in rows]),
                           np.array([w for _, w in lists]), level)
    return [rows[i] for i in kept]


def test_halfplane_keeps_its_set_under_normalisation():
    """A non-unit normal is divided with its offset, so (0, 2) . p <= 2 is
    {y <= 1}; a normal unit to within 4 eps keeps its bits; a zero normal
    raises GeometryError."""
    hp = geo.HalfPlane(np.array([0.0, 2.0]), 2.0)
    assert hp.normal.tolist() == [0.0, 1.0] and hp.offset == 1.0
    assert hp.value(np.array([[0.0, 1.5]]))[0] > 0.0
    n = np.array([-0.8288355951220819, 0.5594922307401815])
    assert math.hypot(*n) == 1.0000000000000002
    assert geo.HalfPlane(n, 0.5).normal.tobytes() == n.tobytes()
    assert geo.HalfPlane(n, 0.5).offset == 0.5
    with pytest.raises(GeometryError, match="nonzero"):
        geo.HalfPlane(np.zeros(2), 1.0)


@pytest.mark.parametrize("make, message", [
    (lambda: Body2.from_halfplanes([((0.0, 1.0), math.inf), ((0.0, -1.0), 1.0)]),
     "offset must be finite, got inf"),
    (lambda: Body2.from_halfplanes([((math.nan, 1.0), 1.0), ((0.0, -1.0), 1.0)]),
     r"normal must be finite, got \(nan, 1.0\)"),
    (lambda: Body2.epigraph("parabola").clip([((0.0, 1.0), math.nan)]),
     "offset must be finite, got nan"),
    (lambda: Body2.ball((0.0, 0.0), 1.0).clip([((0.0, 1.0), math.inf)]),
     "offset must be finite, got inf"),
    (lambda: Body2.ball((0.0, 0.0), 1.0).clip(np.array([[0.0, -math.inf, 0.5]])),
     r"normal must be finite, got \(0.0, -inf\)"),
    (lambda: geo.HalfPlane((0.0, 1.0), -math.inf), "offset must be finite, got -inf"),
    (lambda: Body2.from_halfplanes([((0.0, 1.0, 2.0), 1.0)]), "a half-plane must be"),
    (lambda: Body2.from_halfplanes(np.zeros((2, 2))), "a half-plane must be"),
])
def test_non_finite_or_malformed_halfplanes_raise_geometry_error(make, message):
    """as_rows, the one normaliser every half-plane set goes through,
    rejects a non-finite normal or offset and a malformed item with a
    GeometryError that names the argument and the value (tier-1 runs with
    RuntimeWarning as an error, so no numpy warning comes first)."""
    with pytest.raises(GeometryError, match=message) as info:
        make()
    assert type(info.value) is GeometryError


def test_one_stored_form_for_every_input():
    """A body built from HalfPlane objects, from (normal, offset) pairs and
    from rows stores the same rows bit for bit; its cuts read back equal
    HalfPlanes; a JSON round trip keeps the rows; and transform_body then
    the inverse frame gives the rows back within 4 ulp of the largest
    term."""
    rng = np.random.default_rng(31)
    for scale in (1.0, 1e-3, 7.5):
        pairs = [(rng.normal(size=2) * scale, float(rng.uniform(0.5, 2.0))) for _ in range(6)]
        hps = [geo.HalfPlane(n, c) for n, c in pairs]
        rows = np.array([[*n, c] for n, c in pairs])
        bodies = [Body2.from_halfplanes(hps), Body2.from_halfplanes(pairs),
                  Body2.from_halfplanes(rows), Body2.from_halfplanes(list(rows))]
        want = bodies[0].rows
        assert want.shape == (6, 3)
        for B in bodies:
            assert B.rows.tobytes() == want.tobytes()
            assert B.cut_table.normals.tobytes() == want[:, :2].copy().tobytes()
        for hp, row in zip(bodies[1].cuts, want):
            assert hp.normal.tobytes() == row[:2].tobytes() and hp.offset == row[2]
            assert hp.normal.tobytes() == geo.HalfPlane(hp.normal, hp.offset).normal.tobytes()
        back = ser.body_from_json(json.loads(json.dumps(ser.body_to_json(bodies[2]))))
        assert back.rows.tobytes() == want.tobytes()
        disk = Body2.ball((0.3, -0.2), 1.0).clip(hps[:2])
        for B in (bodies[0], disk):
            th = rng.uniform(0.0, 2.0 * math.pi)
            R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
            frame = geo.Frame(R=R, anchor=rng.normal(size=2), shift=rng.normal(size=2),
                              lam=float(rng.uniform(0.5, 2.0)))
            image = geo.transform_body(B, frame)
            inverse = geo.Frame(R=R.T, anchor=frame.shift, shift=frame.anchor, lam=1.0 / frame.lam)
            again = geo.transform_body(image, inverse)
            # 4 ulp of the largest term: the rows, the anchor, the shift in the image
            big = max(np.abs(B.rows).max(), np.abs(frame.anchor).max(),
                      np.abs(frame.shift).max() / frame.lam)
            assert again.rows.shape == B.rows.shape
            assert np.abs(again.rows - B.rows).max() <= 4 * np.spacing(big)


def test_batched_prune_equals_one_list():
    """One irredundant call over 200 lists keeps each list's rows of its own
    one-list call, in the same order; of two copies the first is kept."""
    lists = _random_halfplane_lists(np.random.default_rng(6), 200)
    assert _batched_prune(lists) == [h for hps, w in lists for h in geo.prune_halfplanes(hps, w)]
    hp = geo.HalfPlane(np.array([0.0, 1.0]), 1.0)
    args = (np.array([hp.normal, hp.normal]), np.array([1.0, 1.0]), np.zeros((1, 2)), np.zeros(2, int))
    assert geo.irredundant(*args).tolist() == [0]


def test_blocked_prune_equals_one_block(monkeypatch):
    """Lists that exceed _PRUNE_BLOCK padded entries together are tested in
    blocks in order of size, each list padded only to its block's longest,
    with the rows of one block."""
    lists = _random_halfplane_lists(np.random.default_rng(8), 300)
    whole = _batched_prune(lists)
    blocks = []
    block = geo._interval_block
    monkeypatch.setattr(geo, "_interval_block",
                        lambda cols, li, pos, lists, width: blocks.append(width) or block(cols, li, pos, lists, width))
    monkeypatch.setattr(geo, "_PRUNE_BLOCK", 5000)
    assert _batched_prune(lists) == whole
    assert len(blocks) > 10 and blocks == sorted(blocks) and min(blocks) < 10 < max(blocks)


def test_prune_matches_qhull_on_criterion_2_pairs(monkeypatch):
    """Every list pruned for 100 of criterion 2's polygon pairs (rng 21:
    extended bodies, pieces, monotonicity and chord bodies) keeps Qhull's
    rows."""
    import qcext.extension as ext
    from qcext.verify import check_polygon_operator

    checked = []
    irredundant = geo.irredundant

    def compare(normals, offsets, witnesses, level):
        kept = irredundant(normals, offsets, witnesses, level)
        for k in np.unique(level):
            idx = np.flatnonzero(level == k).tolist()
            hps = [geo.HalfPlane(normals[i], offsets[i]) for i in idx]
            row = {id(h): i for h, i in zip(hps, idx)}
            want = {row[id(h)] for h in _prune_by_qhull(hps, witnesses[k])}
            assert want == set(kept[level[kept] == k].tolist())
            checked.append(len(idx))
        return kept

    monkeypatch.setattr(geo, "irredundant", compare)
    monkeypatch.setattr(ext, "irredundant", compare)
    failures = check_polygon_operator(np.random.default_rng(21), 100)[1]
    assert not failures and len(checked) > 500 and max(checked) >= 8


def _kept_margins_agree(hps, w, rng):
    """The bodies of the interval test's and Qhull's kept lists have the
    same margins, within 1e-12 of the slack scale, at sampled points of
    either body."""
    a = geo.CutTable(geo.as_rows(geo.prune_halfplanes(hps, w)))
    b = geo.CutTable(geo.as_rows(_prune_by_qhull(hps, w)))
    scale = max(hp.offset - hp.normal @ w for hp in hps)
    pts = w + rng.uniform(-3.0, 3.0, (4000, 2)) * scale
    ma, mb = a.margin(pts), b.margin(pts)
    near = (ma <= 0) | (mb <= 0)
    return near.sum() > 100 and np.abs(ma - mb)[near].max() <= 1e-12 * scale


def test_prune_tight_cases():
    """Half-planes through a vertex of the others are dropped, as Qhull
    drops them, at scales 1e-3 to 1e3; same-direction rows keep the tighter
    one, ties to the first.  Near-parallel pairs whose crossing is within
    the interval test's 1e-12 relative shrink of the others may differ
    from Qhull, which resolves them to its own rounding; there the two
    kept lists bound the same body up to 1e-12 of the scale."""
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(7)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(200):
            th = np.sort(rng.uniform(0.0, 2.0 * math.pi, int(rng.integers(3, 12))))
            pts = np.column_stack([np.cos(th), np.sin(th)]) * rng.uniform(0.5, 2.0, (len(th), 1)) * scale
            V = pts[ConvexHull(pts).vertices]
            w = V.mean(axis=0)
            hps = [geo.HalfPlane(geo.perp(V[i] - V[i - 1]) * -1.0, 0.0) for i in range(len(V))]
            hps = [geo.HalfPlane(h.normal, float(h.normal @ V[i])) for i, h in enumerate(hps)]
            k, s = int(rng.integers(len(V))), rng.uniform()
            n = geo.unit((1.0 - s) * hps[k].normal + s * hps[(k + 1) % len(V)].normal)
            through = geo.HalfPlane(n, float(n @ V[k]))
            lst = hps[:]
            lst.insert(int(rng.integers(len(lst) + 1)), through)
            kept = geo.prune_halfplanes(lst, w)
            assert all(h is not through for h in kept) and _same_rows(kept, _prune_by_qhull(lst, w))
    box = [geo.HalfPlane(np.array(n, dtype=float), 1.0) for n in ((1, 0), (-1, 0), (0, -1))]
    top = geo.HalfPlane(np.array([0.0, 1.0]), 1.0)
    for dup in (geo.HalfPlane(top.normal.copy(), 1.0), geo.HalfPlane(top.normal.copy(), 0.9),
                geo.HalfPlane(top.normal.copy(), 1.1)):
        kept = geo.prune_halfplanes(box + [top, dup], np.zeros(2))
        assert _same_rows(kept, _prune_by_qhull(box + [top, dup], np.zeros(2)))
        assert [h.offset for h in kept if h.normal[1] == 1.0] == [min(1.0, dup.offset)]
        assert any(h is (dup if dup.offset < 1.0 else top) for h in kept)
    differ = 0
    for d in (1e-3, 1e-6, 1e-9, 1e-11, 1e-12):
        for shift in (0.0, 1e-15, 1e-12, 1e-9, 1e-6, -1e-12, -1e-6):
            for x0 in (0.0, 0.5, 0.9999, 1.0, 1.5, -3.0):
                # a second top edge, turned by d and crossing the first at x0
                n = np.array([math.sin(d), math.cos(d)])
                lst = box + [top, geo.HalfPlane(n, float(n @ (x0, 1.0)) + shift)]
                if not _same_rows(geo.prune_halfplanes(lst, np.zeros(2)),
                                  _prune_by_qhull(lst, np.zeros(2))):
                    differ += 1
                    assert _kept_margins_agree(lst, np.zeros(2), rng)
    assert differ <= 10  # 9 of these 210 pairs at this writing


# -- epigraph pieces from chords ------------------------------------------------

def _graph_pieces(B):
    return [pc for pc in B.pieces() if pc.kind == "graph"]


def test_parabola_clip_graph_ends_match_quadratic_roots():
    """A cut y <= a + s x keeps the parabola y = x^2 - 1 between the roots
    of x^2 - s x - (1 + a) = 0: the graph piece's ends match them within
    1e-12 relative, and the cut edge joins the two graph points."""
    import mpmath

    for a, s in ((2.0, 0.5), (0.3, -1.7), (40.0, 3.0), (-0.5, 0.01), (1e3, -20.0)):
        n = np.array([-s, 1.0])
        B = Body2.epigraph("parabola").clip([(n, a)])
        (graph,) = _graph_pieces(B)
        with mpmath.workdps(40):
            disc = mpmath.sqrt(mpmath.mpf(s) ** 2 + 4 * (1 + mpmath.mpf(a)))
            roots = sorted(float(r) for r in ((s - disc) / 2, (s + disc) / 2))
        got = sorted([graph.u0, graph.u1])
        for g, r in zip(got, roots):
            assert abs(g - r) <= 1e-12 * abs(r)
        (edge,) = [pc for pc in B.pieces() if pc.kind == "segment"]
        ends = sorted([edge.a, edge.b], key=lambda p: p[0])
        want = [np.array([r, r * r - 1.0]) for r in roots]
        for e, w in zip(ends, want):
            assert np.abs(e - w).max() <= 1e-12 * max(1.0, np.abs(w).max())


def test_steep_cosh_cut_crossing_beyond_two_window_halves():
    """A cut x <= a on the cosh epigraph whose line crosses the graph more
    than 2 window halves above the witness (but below the stretch's top) still
    ends the graph piece at u = a: each cut line's window reaches the whole
    graph stretch.  The cut edge lies above the window box, so the graph
    piece is the whole chain."""
    C = Body2.epigraph("cosh")
    a = 10.0
    for _ in range(4):  # the witness, so the window, moves with a
        B = C.clip([((1.0, 0.0), a)])
        a = float(np.arccosh(2.0 + B.witness[1] + 3.0 * B.window_half))
    B = C.clip([((1.0, 0.0), a)])
    assert np.cosh(a) - 2.0 - B.witness[1] > 2.0 * B.window_half
    (graph,) = B.pieces()
    assert graph.kind == "graph" and graph.u0 < -a
    assert graph.u1 == pytest.approx(a, rel=1e-12)


def test_concave_hypograph_cut_splits_graph():
    """On the hypograph y <= 1 - e^-x the cut y <= 0.5 + 0.1 x is concave
    along the graph, so it keeps two graph pieces, ending at the two roots
    of 1 - e^-u = 0.5 + 0.1 u, joined by the cut edge."""
    import mpmath

    B = Body2.epigraph("exp_hypograph").clip([((-0.1, 1.0), 0.5)])
    pieces = B.pieces()
    graphs = _graph_pieces(B)
    assert [pc.kind for pc in pieces].count("segment") == 1 and len(graphs) == 2
    f = lambda u: 1 - mpmath.exp(-u) - mpmath.mpf(0.5) - mpmath.mpf(0.1) * u  # noqa: E731
    with mpmath.workdps(40):
        roots = [float(mpmath.findroot(f, x0)) for x0 in (0.8, 4.0)]
    left, right = sorted(graphs, key=lambda g: g.u0)
    for g, r in zip((left.u1, right.u0), roots):
        assert abs(g - r) <= 1e-12 * abs(r)


# -- vertex chains of half-plane bodies -----------------------------------------

def _random_polygon(rng, count):
    from scipy.spatial import ConvexHull

    pts = rng.normal(0.0, 1.0, (count, 2))
    return pts[ConvexHull(pts).vertices]


def test_chain_of_polygon_is_its_vertices():
    """A bounded polygon's chain is its own vertices, CCW, with no window
    edge, starting at the edge of least normal angle; its pieces are the
    chain's edges, closed, and take no pieces() rebuild."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        verts = _random_polygon(rng, int(rng.integers(3, 16)))
        B = Body2.from_polychain(verts, collinear_ok=True)
        chain, window = B.chain
        assert not window.any() and len(chain) == len(verts)
        assert geo.cross2(np.roll(chain, -1, axis=0) - chain,
                          np.roll(chain, -2, axis=0) - chain).min() > 0
        # the same vertices, up to where the chain starts
        k = int(np.argmin(np.linalg.norm(verts - chain[0], axis=1)))
        assert np.abs(np.roll(verts, -k, axis=0) - chain).max() <= 1e-12
        angles = [geo.angle_of(pc.n) for pc in B.pieces()]
        assert angles == sorted(angles) and B.closed_chain
        assert np.array_equal([pc.a for pc in B.pieces()], chain)


def test_chain_of_unbounded_body_marks_window_edges():
    """An unbounded body's chain closes on its window box: the window edges
    are marked, and the pieces run from one window end to the other."""
    B = Body2.from_polychain([(0.0, 0.0), (1.0, 0.0)], rays=((-1.0, 1.0), (1.0, 1.0)))
    chain, window = B.chain
    assert window.sum() >= 1 and (~window).sum() == 3
    pieces = B.pieces()
    assert not B.closed_chain and len(pieces) == 3
    assert np.array_equal(pieces[1].a, [0.0, 0.0]) and np.array_equal(pieces[1].b, [1.0, 0.0])
    for p, q in zip(pieces[:-1], pieces[1:]):
        assert np.array_equal(p.b, q.a)
    assert np.abs(np.abs(pieces[0].a - B.witness).max() - B.window_half) <= 1e-9 * B.window_half
    assert np.abs(np.abs(pieces[-1].b - B.witness).max() - B.window_half) <= 1e-9 * B.window_half


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
@pytest.mark.parametrize("shift", [0.0, 1e3, 1e6])
def test_chain_follows_translation_and_scale(scale, shift):
    """The chain's vertices map with the body, within 1e-12 of the
    coordinate scale (the body's size times scale plus the translation),
    and its start does not move."""
    rng = np.random.default_rng(12)
    move = shift * np.array([0.6, -0.8])
    for _ in range(20):
        verts = _random_polygon(rng, int(rng.integers(3, 16)))
        base = Body2.from_polychain(verts, collinear_ok=True).chain[0]
        moved = Body2.from_polychain(scale * verts + move, collinear_ok=True).chain[0]
        tol = 1e-12 * (scale * np.abs(verts).max() + shift)
        assert moved.shape == base.shape
        assert np.abs(moved - (scale * base + move)).max() <= tol


def _restarted(B, k):
    """A fresh copy of the half-plane body B whose chain of pieces starts at
    its k-th piece."""
    fresh = Body2(B.base, B.cuts)
    pieces = B.pieces()
    fresh._pieces, fresh._closed = pieces[k:] + pieces[:k], B.closed_chain
    return fresh


def test_support_tie_rules_do_not_depend_on_chain_start():
    """For every edge of a random polygon, and for the chain started at each
    edge, the support point in the edge's outward normal is the edge's
    start (the face's CCW-first end), a vertex's support point is bit for
    bit the same, and find_boundary_segment picks the same edge."""
    rng = np.random.default_rng(5)
    for _ in range(6):
        B = Body2.from_polychain(_random_polygon(rng, 12), collinear_ok=True)
        pieces = B.pieces()
        normals = np.array([pc.n for pc in pieces])
        starts = np.array([pc.a for pc in pieces])
        # directions strictly inside each vertex's normal cone
        inner = np.array([geo.unit(a + b) for a, b in zip(np.roll(normals, 1, axis=0), normals)])
        segment = geo.find_boundary_segment(B)
        for k in range(len(pieces)):
            C = _restarted(B, k)
            assert np.array_equal(support_point(C, normals)[1], starts)
            assert np.array_equal(support_point(C, inner)[1], starts)
            got = geo.find_boundary_segment(C)
            assert np.array_equal(got.a, segment.a) and np.array_equal(got.b, segment.b)


def test_boundary_segment_length_ties_take_lowest_normal_angle(square):
    """Lengths within 1e-12 of each other tie, and a tie goes to the lowest
    outward-normal angle in [0, 2 pi): the square's right edge, also when
    its left edge is longer by 2e-14 relative, the triangle's lower-left
    edge of its two sqrt(17) edges, and of the four longest edges of the
    24-gon ellipse (equal up to rounding) the one left of the top vertex."""
    for body in (square, Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1 + 4e-14)])):
        seg = geo.find_boundary_segment(body)
        assert np.array_equal(seg.a, [1.0, -1.0]) and np.array_equal(seg.b, [1.0, 1.0])
    tri = Body2.from_polychain([(0, 1), (2, 1), (1, -3)])
    seg = geo.find_boundary_segment(tri)
    assert np.abs(seg.a - [0.0, 1.0]).max() <= 1e-15
    assert np.abs(seg.b - [1.0, -3.0]).max() <= 1e-15
    t = 2.0 * math.pi * np.arange(24) / 24
    seg = geo.find_boundary_segment(Body2.from_polychain(np.column_stack([2.0 * np.cos(t), np.sin(t)])))
    assert np.abs(seg.a - [2.0 * math.cos(t[5]), math.sin(t[5])]).max() <= 1e-14
    assert np.abs(seg.b - [0.0, 1.0]).max() <= 1e-14


@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_check_inside_at_the_edge_of_its_slack(scale):
    """A half-plane body B is in C when its chain's vertices are, within
    1e-6 * max(1, their largest |coordinate|): a vertex touching C, or
    1e-9 * scale outside it, passes; 1e-4 * scale outside raises.  No
    boundary sample is drawn."""
    move = np.array([0.3, -0.2]) * scale
    C = Body2.from_polychain(scale * np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)]) + move)

    def tri(out):
        verts = scale * np.array([(-0.5, -0.5), (1.0 + out, 0.0), (0.0, 0.5)]) + move
        return Body2.from_polychain(verts)

    geo._check_inside(Body2.from_polychain(scale * np.array([(-0.5, -0.5), (1.0, 1.0), (0.0, 0.5)])
                                           + move), C)
    geo._check_inside(tri(0.0), C)
    geo._check_inside(tri(1e-9), C)
    with pytest.raises(GeometryError, match="not contained"):
        geo._check_inside(tri(1e-4), C)


def test_check_inside_reads_recession_cones(monkeypatch):
    """An unbounded chain whose vertices all lie in C but whose recession
    cone leaves C's raises; one whose cone stays in C's passes.  Neither
    draws boundary samples."""
    monkeypatch.setattr(Body2, "boundary_samples", None)
    strip = Body2.from_halfplanes([((0.0, -1.0), -0.5), ((0.0, 1.0), 1.0), ((-1.0, 0.0), 0.0)])
    capped = Body2.from_halfplanes([((0.0, -1.0), 0.0), ((1.0, 0.0), 1e7)])
    assert capped.contains_many(strip.chain[0]).all()
    with pytest.raises(GeometryError, match="recession cone"):
        geo._check_inside(strip, capped)
    geo._check_inside(strip, Body2.from_halfplanes([((0.0, -1.0), 0.0)]))
    with pytest.raises(GeometryError, match="recession cone"):
        geo._check_inside(strip, Body2.ball((0.0, 0.0), 1e9))
