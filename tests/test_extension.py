"""Extension operator and full function extension."""

import numpy as np
import pytest

from qcext import extension
from qcext.extension import (
    CoveringError,
    ExtensionError,
    ExtensionOperator,
    _extend_sampled,
    extend_body,
    extend_bodies,
    extend_function,
    restriction_hausdorff,
    segment_meets_body,
)
from qcext.geometry import Body2, CutTable, GeometryError, HalfPlane, chord_ends, norm
from qcext.levelset import LevelFamily, LevelSetError, quasiconvex_check, sample_domain
from qcext.serialize import body_from_json, body_to_json
from qcext.verify import _random_polygon_pair


@pytest.fixture(scope="module")
def parabola():
    return Body2.epigraph("parabola", name="parabola")


def chord_family(body, levels):
    bodies = [body.clip([((0.0, 1.0), float(a))]) for a in levels]
    return LevelFamily(np.asarray(levels, dtype=float), bodies, body)


# -- closed forms of the operator ------------------------------------------------

def test_extend_square_inside_square():
    B = Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    C = Body2.from_polychain([(-10, -10), (10, -10), (10, 10), (-10, 10)])
    e = extend_body(B, C)
    assert e.special is None
    assert restriction_hausdorff(e) < 1e-9
    # the full supporting intersection returns B itself
    rng = np.random.default_rng(0)
    pts = rng.uniform(-12, 12, (500, 2))
    assert np.array_equal(e.contains_many(pts, 1e-9), B.contains_many(pts, 1e-9))


def test_extend_halfplane_in_halfplane():
    C = Body2.from_halfplanes([((0.0, 1.0), 1.0)])
    B = Body2.from_halfplanes([((0.0, 1.0), 0.0)])
    e = extend_body(B, C)
    assert len(e.halfplanes) == 1
    hp = e.halfplanes[0]
    assert np.allclose(hp.normal, [0, 1], atol=1e-12)
    assert hp.offset == pytest.approx(0.0, abs=1e-12)


def test_extend_halfdisk_closed_form():
    disk = Body2.ball((0.0, 0.0), 1.0)
    halfdisk = disk.clip([((1.0, 0.0), 0.0)])
    e = extend_body(halfdisk, disk)
    got = sorted((round(h.normal[0], 9), round(h.normal[1], 9), round(h.offset, 9))
                 for h in e.halfplanes)
    assert got == [(-0.0, -1.0, 1.0), (0.0, 1.0, 1.0), (1.0, -0.0, 0.0)]


def test_extend_parabola_chord_tangents(parabola):
    B = parabola.clip([((0.0, 1.0), 3.0)])
    e = extend_body(B, parabola)
    # tangent lines at the chord corners (+-2, 3): v = +-4u - 5
    want = np.array([4.0, -1.0]) / np.sqrt(17.0)
    offsets = []
    for hp in e.halfplanes:
        if abs(hp.normal[1] - 1.0) < 1e-9:
            assert hp.offset == pytest.approx(3.0, abs=1e-9)
        else:
            assert abs(abs(hp.normal[0]) - want[0]) < 1e-9
            offsets.append(hp.offset)
    assert np.allclose(offsets, 5.0 / np.sqrt(17.0), atol=1e-9)


def test_extend_specials(parabola):
    assert extend_body(None, parabola).special == "empty"
    same = parabola.clip([((0.0, -1.0), 10.0)])  # redundant cut
    assert extend_body(same, parabola).special == "plane"


def test_extension_restriction_identity(parabola):
    B = parabola.clip([((0.0, 1.0), 2.0)])
    e = extend_body(B, parabola)
    rng = np.random.default_rng(1)
    pts = sample_domain(parabola, 2000, rng, window=(-6, 6, -2, 10))
    inside_e = e.contains_many(pts, 1e-9)
    inside_b = B.contains_many(pts, 1e-9)
    assert np.array_equal(inside_e, inside_b)


# -- structural properties of the operator ------------------------------------------

def test_monotone_operator(parabola):
    B1 = parabola.clip([((0.0, 1.0), 1.0)])
    B2 = parabola.clip([((0.0, 1.0), 4.0)])
    e1 = extend_body(B1, parabola)
    e2 = extend_body(B2, parabola)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-10, 10, (2000, 2))
    members = e1.contains_many(pts, -1e-9)
    assert e2.contains_many(pts[members], 1e-7).all()


def test_strict_monotone_operator(parabola):
    B1 = parabola.clip([((0.0, 1.0), 1.0)])
    B2 = parabola.clip([((0.0, 1.0), 4.0)])
    e1 = extend_body(B1, parabola)
    e2 = extend_body(B2, parabola)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-10, 10, (3000, 2))
    pts = pts[e1.contains_many(pts)]
    # positive margin strictly inside the next extended body
    assert float(np.max(e2.margin_many(pts))) < -1e-6


def test_downward_family_empty_intersection(parabola):
    ks = np.arange(0.0, 40.0, 4.0)
    exts = [extend_body(parabola.clip([((0.0, -1.0), -float(k))]), parabola)
            for k in ks]
    rng = np.random.default_rng(4)
    pts = rng.uniform(-25, 25, (1500, 2))
    excluded = np.zeros(len(pts), dtype=bool)
    for e in exts:
        excluded |= ~e.contains_many(pts, 1e-9)
    assert excluded.all()


def test_segment_meets_source_body():
    # B must reach the ambient boundary, otherwise e(B) = B has no part
    # outside the ambient and the hypothesis set is empty
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(20):
        outer_pts = rng.normal(0, 3.0, (12, 2))
        C = Body2.from_polychain(outer_pts[ConvexHull(outer_pts).vertices],
                                 collinear_ok=True)
        th = rng.uniform(0, 2 * np.pi)
        n = np.array([np.cos(th), np.sin(th)])
        B = C.clip([(n, float(n @ C.witness) + 0.2 * C.clearance)])
        e = extend_body(B, C)
        probe = C.witness + rng.normal(0, 10.0, (400, 2))
        off = probe[e.contains_many(probe, -1e-9) & ~C.contains_many(probe, 1e-9)]
        ys = sample_domain(C, 12, rng)
        ys = ys[~B.contains_many(ys, 1e-9)]
        for x in off[:4]:
            for y in ys[:4]:
                hits += 1
                assert segment_meets_body(x, y, B)
    assert hits > 20


def test_segment_meets_body_edge_cases():
    """The segment test is a chord on the segment's line: a segment tangent
    to the disk or through a polygon vertex meets, one that misses either
    by 1e-6 does not, a point segment is a membership test, and a segment
    crossing an epigraph far from the body's window meets."""
    from scipy.spatial import ConvexHull

    disk = Body2.ball((0.0, 0.0), 1.0)
    assert segment_meets_body((-1.0, 1.0), (1.0, 1.0), disk)
    assert not segment_meets_body((-1.0, 1.0 + 1e-6), (1.0, 1.0 + 1e-6), disk)
    for th in np.linspace(0.0, 2.0 * np.pi, 37):
        n = np.array([np.cos(th), np.sin(th)])
        t = np.array([-n[1], n[0]])
        assert segment_meets_body(n - 2.0 * t, n + 0.7 * t, disk)
        assert not segment_meets_body((1 + 1e-6) * n - 2.0 * t, (1 + 1e-6) * n + 0.7 * t, disk)
    square = Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    assert segment_meets_body((0.0, 2.0), (2.0, 0.0), square)
    assert not segment_meets_body((0.0, 2.0 + 1e-6), (2.0, 1e-6), square)
    # supporting lines through the vertices of random polygons, and the same
    # lines moved 1e-6 outward
    rng = np.random.default_rng(9)
    for _ in range(20):
        pts = rng.normal(0.0, 3.0, (10, 2))
        V = pts[ConvexHull(pts).vertices]
        P = Body2.from_polychain(V, collinear_ok=True)
        for k in range(len(V)):
            e1, e2 = V[k] - V[k - 1], V[(k + 1) % len(V)] - V[k]
            d = e1 / np.linalg.norm(e1) + e2 / np.linalg.norm(e2)
            d /= np.linalg.norm(d)
            out = np.array([d[1], -d[0]])
            x, y = V[k] - 1.3 * d, V[k] + 0.8 * d
            assert segment_meets_body(x, y, P)
            assert not segment_meets_body(x + 1e-6 * out, y + 1e-6 * out, P)
    for body in (disk, square):
        assert segment_meets_body((0.2, 0.3), (0.2, 0.3), body)
        assert not segment_meets_body((3.0, 0.3), (3.0, 0.3), body)
    par = Body2.epigraph("parabola")
    assert 1e6 > 10.0 * par.window_half
    assert segment_meets_body((1e6, 0.0), (1e6, 2e12), par)
    assert segment_meets_body((-3e6, 4e12), (-1e6, 4e12), par)
    assert not segment_meets_body((1e6, 0.0), (1e6, 0.9e12), par)


# -- full function extension ----------------------------------------------------------

def test_extend_function_constant_family():
    disk = Body2.ball((0.0, 0.0), 1.0)
    fam = LevelFamily(np.array([5.0]), [disk.clip([((0.0, 1.0), 1.0)])], disk)
    res = extend_function(fam)
    pts = np.array([[0, 0], [3, 3], [-9, 0.5]])
    assert np.allclose(res.eval_many(pts), 5.0)


def test_extend_function_identity_and_qc(parabola):
    fam = chord_family(parabola, np.linspace(0.0, 24.0, 8))
    res = extend_function(fam)
    assert res.regularity == "continuous"
    rng = np.random.default_rng(6)
    pts = sample_domain(parabola, 20_000, rng, window=(-15, 15, -15, 15))
    assert np.array_equal(res.eval_many(pts), fam.eval_many(pts))
    rep = quasiconvex_check(res.eval_many, (-15, 15, -15, 15), 30_000,
                            tol=1e-9, seed=7)
    assert rep.passed


def test_extend_function_usc_tag_for_rectangle():
    rect = Body2.from_polychain([(0, -1), (1, -1), (1, 1), (0, 1)])
    levels = np.array([0.0, 0.5, 1.0])
    bodies = [rect.clip([((0.0, 1.0), float(a))]) for a in levels]
    fam = LevelFamily(levels, bodies, rect)
    res = extend_function(fam)
    assert res.regularity == "usc-only"


def test_extend_function_unsupported_tag():
    hyp = Body2.epigraph("exp_hypograph")
    levels = np.array([0.0, 1.0])
    bodies = [hyp.clip([((1.0, 0.0), float(a))]) for a in levels]
    fam = LevelFamily(levels, bodies, hyp)
    res = extend_function(fam)
    assert res.regularity == "unsupported"


def test_extend_function_rejects_non_nested(parabola):
    b1 = parabola.clip([((0.0, 1.0), 2.0)])
    b0 = parabola.clip([((0.0, 1.0), 3.0)])  # larger body at the lower level
    fam = LevelFamily(np.array([0.0, 1.0]), [b0, b1], parabola)
    with pytest.raises(LevelSetError, match="body 0 is not contained in body 1"):
        extend_function(fam)


# -- covering ---------------------------------------------------------------------------

def test_covering_index_base(parabola):
    fam = chord_family(parabola, np.arange(0.0, 8.0))
    assert ExtensionOperator(fam).covering_index_many([(0.0, 0.0)]).tolist() == [0]


def test_covering_index_below_apex(parabola):
    fam = chord_family(parabola, np.arange(0.0, 12.0))
    op = ExtensionOperator(fam)
    k = int(op.covering_index_many([(0.0, -5.0)])[0])
    assert 0 < k < 12
    assert op.extended(k).contains_many(np.array([[0.0, -5.0]]))[0]
    assert not op.extended(k - 1).contains_many(np.array([[0.0, -5.0]]))[0]


def test_covering_error_above_asymptote():
    hyp = Body2.epigraph("exp_hypograph")
    ks = np.arange(1.0, 20.0)
    bodies = [hyp.clip([((1.0, 0.0), float(k))]) for k in ks]
    fam = LevelFamily(ks, bodies, hyp)
    with pytest.raises(CoveringError) as exc:
        ExtensionOperator(fam).covering_index_many([(5.0, 2.0)])
    assert exc.value.last_level == pytest.approx(19.0)


def test_covering_many_matches_scalar(parabola):
    # the family must reach far enough for every corner of the window
    fam = chord_family(parabola, np.arange(0.0, 170.0))
    op = ExtensionOperator(fam)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-6, 6, (50, 2))
    idx = op.covering_index_many(pts)
    for p, k in zip(pts[:10], idx[:10]):
        assert op.covering_index_many(p[None, :])[0] == k


def test_restriction_hausdorff_random_pairs():
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(9)
    for _ in range(10):
        outer_pts = rng.normal(0, 3.0, (12, 2))
        C = Body2.from_polychain(outer_pts[ConvexHull(outer_pts).vertices],
                                 collinear_ok=True)
        inner_raw = sample_domain(C, 20, rng)
        shrink = C.witness + (inner_raw - C.witness) * 0.7
        B = Body2.from_polychain(shrink[ConvexHull(shrink).vertices],
                                 collinear_ok=True)
        e = extend_body(B, C, resolution=256)
        pts = B.boundary_samples(256)
        step = float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()) / 256
        assert restriction_hausdorff(e) <= 5 * step


def test_restriction_hausdorff_exact_closed_form(monkeypatch):
    """The unit square against a hand-made e(B) without its top side,
    inside the square [-2, 3]^2: the meet is [0, 1] x [0, 3], 2 above B's
    top.  The polygon path reads vertices only: no meet body, no samples."""
    B = Body2.from_polychain([(0, 0), (1, 0), (1, 1), (0, 1)])
    C = Body2.from_polychain([(-2, -2), (3, -2), (3, 3), (-2, 3)])
    sides = np.array([(0.0, -1.0, 0.0), (1.0, 0.0, 1.0), (-1.0, 0.0, 0.0)])
    e = extension.ExtendedBody(B, C, sides)
    monkeypatch.setattr(Body2, "boundary_samples", None)
    monkeypatch.setattr(extension, "distance_many", None)
    assert restriction_hausdorff(e) == 2.0
    full = extension.ExtendedBody(B, C, np.vstack([sides, (0.0, 1.0, 1.0)]))
    assert restriction_hausdorff(full) == 0.0


def _sampled_hausdorff(e, n=256):
    """restriction_hausdorff from n boundary samples per side of B and of
    the meet body."""
    from qcext.geometry import distance_many

    B, C = e.source, e.ambient
    meet = Body2(C.base, C.cuts + tuple(e.halfplanes))
    a, b = meet.boundary_samples(n), B.boundary_samples(n)
    return max(float(distance_many(B, a).max()), float(distance_many(meet, b).max()))


def test_restriction_hausdorff_exact_against_sampled():
    """On 200 criterion-2 pairs, for e(B) and for e(B) without its first
    half-plane (a meet that grows to C), the vertex value is never below
    the sampled one beyond rounding (1e-14 relative; the farthest point of
    a convex polygon is a vertex, which the samples hold) and within 1e-12
    of it.  e(B) restricts to B exactly: its value is 0."""
    rng = np.random.default_rng(21)
    n = 0
    while n < 200:
        try:
            B, C = _random_polygon_pair(rng)
        except Exception:
            continue
        e = extend_body(B, C)
        if e.special is not None:
            continue
        n += 1
        assert restriction_hausdorff(e) == 0.0
        for x in (e, extension.ExtendedBody(B, C, e.rows[1:])):
            exact, sampled = restriction_hausdorff(x), _sampled_hausdorff(x)
            assert sampled - 1e-14 * max(1.0, sampled) <= exact <= sampled + 1e-12


def _long_rectangles():
    """A 3000 x 1 rectangle cut from a 4000 x 2 one."""
    C = Body2.from_polychain([(-2000, -1), (2000, -1), (2000, 1), (-2000, 1)])
    return C.clip([((1, 0), 1500), ((-1, 0), 1500), ((0, 1), 0.5), ((0, -1), 0.5)]), C


def _long_triangles():
    """The thin triangle (0, 0), (2, 0), (300, 1.5) scaled by 1e3 inside
    itself scaled by 1.5 about its centroid."""
    V = np.array([(0.0, 0.0), (2.0, 0.0), (300.0, 1.5)]) * 1e3
    c = V.mean(axis=0)
    return Body2.from_polychain(V), Body2.from_polychain(c + 1.5 * (V - c))


@pytest.mark.parametrize("pair", [_long_rectangles, _long_triangles])
def test_restriction_hausdorff_exact_beyond_the_window(pair):
    """Polygons wider than their window boxes keep their whole meet: e(B) and
    e(B) without its first half-plane agree with the sampled value up to
    the rounding of the coordinates (a meet clipped to a box about C's
    window read 476 for the rectangles' e(B), whose meet is B, and 476
    again, not 500, without the right side)."""
    B, C = pair()
    extent = float(np.ptp(B.chain[0], axis=0).max())
    assert extent > 2 * C.window_half
    e = extend_body(B, C)
    assert restriction_hausdorff(e) == 0.0
    for x in (e, extension.ExtendedBody(B, C, e.rows[1:])):
        exact, sampled = restriction_hausdorff(x), _sampled_hausdorff(x)
        assert abs(exact - sampled) <= 1e-14 * float(np.abs(C.chain[0]).max())
    if pair is _long_rectangles:
        assert restriction_hausdorff(extension.ExtendedBody(B, C, e.rows[1:])) == 500.0


def test_extend_function_usc_forced_violation():
    # closures of the strict sublevels of the discontinuous counterexample
    # cannot reproduce it: the extension disagrees at the pinched corner
    from qcext.counterexamples import gen_usc_counterexample

    f, wit = gen_usc_counterexample()
    rect = wit.domain
    levels = np.array([0.25, 0.5, 0.75, 1.0])
    bodies = [rect.clip([((0.0, 1.0), float(a))]) for a in levels]
    fam = LevelFamily(levels, bodies, rect)
    res = extend_function(fam)
    assert res.regularity == "usc-only"
    corner = np.array([[0.0, 0.0]])
    mismatch = abs(float(res.eval_many(corner)[0]) - f.eval_one((0.0, 0.0)))
    assert mismatch >= 0.5


# -- the exact batched operator against the sampled oracle --------------------------

def _chord_cases():
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return {
        "disk": (Body2.ball((0.5, -0.2), 1.3), (0.6, 0.8), np.linspace(-1.1, 1.5, 12)),
        "parabola": (Body2.epigraph("parabola", transform=np.column_stack([1.7 * rot, [0.3, -1.2]])),
                     (0.2, 1.0), np.linspace(-1.5, 20.0, 12)),
        "cosh": (Body2.epigraph("cosh"), (0.3, 1.0), np.linspace(-0.9, 6.0, 12)),
        "square": (Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)]), (0.3, 1.0),
                   np.linspace(-1.0, 1.4, 12)),
    }


def _chord_family(name):
    C, normal, offsets = _chord_cases()[name]
    bodies = [C.clip([(normal, float(c))]) for c in offsets]
    return LevelFamily(np.arange(len(offsets), dtype=float), bodies, C)


def clip_polygon(poly: list, hp: HalfPlane, tol: float = 1e-12) -> list:
    """Sutherland-Hodgman clip of a convex polygon by one half-plane: the
    vertices of the 24-gon's chord polygons, built apart from the library's
    vertex chains."""
    if not poly:
        return []
    out = []
    prev = poly[-1]
    prev_v = float(hp.normal @ prev) - hp.offset
    for cur in poly:
        cur_v = float(hp.normal @ cur) - hp.offset
        if cur_v <= tol:
            if prev_v > tol:
                t = prev_v / (prev_v - cur_v)
                out.append(prev + t * (cur - prev))
            out.append(cur)
        elif prev_v <= tol:
            t = prev_v / (prev_v - cur_v)
            out.append(prev + t * (cur - prev))
        prev, prev_v = cur, cur_v
    cleaned = []
    for p in out:
        if not cleaned or norm(p - cleaned[-1]) > 1e-12:
            cleaned.append(p)
    if len(cleaned) >= 2 and norm(cleaned[0] - cleaned[-1]) <= 1e-12:
        cleaned.pop()
    return cleaned


def _multi_cut_family(kind):
    if kind == "shelves":
        C = Body2.ball((0.0, 0.0), 1.0)
        levels = np.arange(5.0)
        bodies = [C.clip([((0.0, 1.0), -0.6 + 0.35 * k), ((1.0, 0.0), 0.2 + 0.15 * k)])
                  for k in levels]
    else:
        # chord polygons of a 24-gon, built from vertices, not by clipping
        ang = 2 * np.pi * np.arange(24) / 24
        verts = np.column_stack([2.0 * np.cos(ang), 1.5 * np.sin(ang)])
        C = Body2.from_polychain(verts)
        levels = np.array([-1.2, -0.7, -0.2, 0.3, 0.8, 1.3])
        bodies = [Body2.from_polychain(clip_polygon(list(verts), HalfPlane(np.array([0.0, 1.0]), t)))
                  for t in levels]
    return LevelFamily(levels, bodies, C)


def _rows(e):
    return [(*h.normal, h.offset) for h in e.halfplanes]


def _assert_matches_oracle(e, B, C):
    """e has the sampled oracle's special tag, and every half-plane of either
    side has a partner on the other within 1e-10 * (1 + |offset|)."""
    want = _extend_sampled(B, C)
    assert e.special == want.special
    for xs, ys in ((e.halfplanes, want.halfplanes), (want.halfplanes, e.halfplanes)):
        for h in xs:
            assert min(max(np.abs(h.normal - g.normal).max(), abs(h.offset - g.offset))
                       for g in ys) <= 1e-10 * (1 + abs(h.offset))


def _assert_batch_exact(fam):
    """Each level matches the sampled oracle, and the batched operator's
    levels equal one-body extend_body calls bit for bit."""
    op = ExtensionOperator(fam)
    for k, B in enumerate(fam.bodies):
        e = extend_body(B, fam.ambient)
        assert _rows(op.extended(k)) == _rows(e) and op.extended(k).special == e.special
        _assert_matches_oracle(e, B, fam.ambient)


def _reference_levels(exts, pts, inside):
    """Smallest level whose extended body passes inside, by a linear scan."""
    out = np.full(len(pts), len(exts))
    for k in reversed(range(len(exts))):
        out[inside(exts[k], pts)] = k
    return out


@pytest.mark.parametrize("name", ["disk", "parabola", "cosh", "square"])
def test_chord_batch_matches_extend_body(name):
    _assert_batch_exact(_chord_family(name))


@pytest.mark.parametrize("name", ["disk", "parabola", "cosh", "square"])
def test_chord_batch_searches_match_reference_scan(name):
    fam = _chord_family(name)
    exts = [extend_body(B, fam.ambient) for B in fam.bodies]
    rng = np.random.default_rng(11)
    pts = fam.bodies[0].witness + rng.uniform(-10.0, 10.0, (3000, 2))
    top = exts[-1].contains_many(pts)
    want = _reference_levels(exts, pts[top], lambda e, p: e.contains_many(p))
    assert np.array_equal(ExtensionOperator(fam).covering_index_many(pts[top]), want)
    off = pts[~fam.ambient.contains_many(pts)]
    assert top.sum() > 100 and len(off) > 100
    k = _reference_levels(exts, off, lambda e, p: e.interior_many(p))
    res = extend_function(fam)
    assert np.array_equal(res.eval_many(off), fam.levels[np.minimum(k, len(fam) - 1)])
    assert len(res.operator._cache) == len(fam)


def test_chord_batch_disk_closed_form():
    # tangent half-planes at the chord ends (c + s n +- h perp(n))
    disk = Body2.ball((0.5, -0.2), 1.3)
    n = np.array([0.6, 0.8])
    offsets = np.linspace(-1.1, 1.25, 9)
    bodies = [disk.clip([(n, float(o))]) for o in offsets]
    for o, e in zip(offsets, extend_bodies(bodies, disk)):
        s = o - n @ disk.base.center
        h = np.sqrt(1.3 ** 2 - s * s)
        ends = disk.base.center + s * n + h * np.array([[-n[1], n[0]], [n[1], -n[0]]])
        want = [(n, o)] + [((y - disk.base.center) / 1.3, (y - disk.base.center) @ y / 1.3)
                           for y in ends]
        assert len(e.halfplanes) == 3
        for nw, ow in want:
            assert min(max(np.abs(hp.normal - nw).max(), abs(hp.offset - ow))
                       for hp in e.halfplanes) < 1e-12


def test_ball_chord_ends_closed_form(monkeypatch):
    """On a ball ambient chord_ends is closed form: the chords of a cut-disk
    family match a 50-digit circle-line oracle, clipped by the ambient's own
    cut, within 1e-15 of the scale, and a one-line extend_body makes a fixed
    handful of margin calls (the staged search made about 180)."""
    import mpmath

    c, r, cap = np.array([0.5, -0.2]), 1.3, 0.9
    C = Body2.ball(c, r).clip([((0.0, 1.0), cap)])
    n = np.array([0.6, 0.8])
    offsets = np.linspace(-1.1, 1.25, 9)
    hps = [HalfPlane(n, float(o)) for o in offsets]
    ends, on_c, meets, _ = chord_ends(C, CutTable(hps), np.tile(C.witness, (9, 1)), np.full(9, 10.0))
    assert meets.all() and on_c.all()
    with mpmath.workdps(50):
        nx, ny = mpmath.mpf(n[0]), mpmath.mpf(n[1])
        for o, got in zip(offsets, ends):
            s = mpmath.mpf(o) - nx * c[0] - ny * c[1]
            h = mpmath.sqrt(r * r - s * s)
            want = []
            for sign in (-1, 1):
                x, y = c[0] + s * nx - sign * h * ny, c[1] + s * ny + sign * h * nx
                if y > cap:  # clipped by the ambient's cut: slide along the line
                    x, y = x + (y - cap) * ny / nx, mpmath.mpf(cap)
                want.append((x, y))
            err = max(abs(float(got[i, j] - want[i][j])) for i in range(2) for j in range(2))
            assert err <= 1e-15 * r
    calls = []
    margin_many = Body2.margin_many
    monkeypatch.setattr(Body2, "margin_many",
                        lambda self, pts: calls.append(1) or margin_many(self, pts))
    disk = Body2.ball(c, r)
    extend_body(disk.clip([(n, 0.3)]), disk)
    assert len(calls) <= 4


def test_parabola_chord_ends_closed_form(monkeypatch):
    """On a parabola ambient chord_ends is closed form: the chords of a cut,
    scaled and rotated parabola match a 50-digit line-parabola oracle,
    clipped by the ambient's own cut, within 1e-14 of the scale, and a
    one-line extend_body makes a fixed handful of margin calls (the staged
    search made about 180)."""
    import mpmath

    lam, th, shift, cap = 1.7, 0.7, np.array([0.3, -1.2]), 6.0
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    M = lam * rot
    C = Body2.epigraph("parabola", transform=np.column_stack([M, shift])).clip([((0.0, 1.0), cap)])
    n = np.array([-0.6, 0.8])
    offsets = np.linspace(-1.0, 7.0, 9)  # the last two chords end on the cut
    hps = [HalfPlane(n, float(o)) for o in offsets]
    ends, on_c, meets, _ = chord_ends(C, CutTable(hps), np.tile(C.witness, (9, 1)), np.full(9, 100.0))
    assert meets.all() and on_c.all()
    d = np.array([-n[1], n[0]])
    with mpmath.workdps(50):
        Mp = mpmath.matrix(M.tolist())
        m_u = Mp[0, 0] * n[0] + Mp[1, 0] * n[1]
        m_v = Mp[0, 1] * n[0] + Mp[1, 1] * n[1]
        for o, got in zip(offsets, ends):
            # v = u^2 - 1 on the line m_u u + m_v v = o - n . shift
            rhs = mpmath.mpf(o) - n[0] * mpmath.mpf(shift[0]) - n[1] * mpmath.mpf(shift[1])
            disc = mpmath.sqrt(m_u ** 2 + 4 * m_v * (m_v + rhs))
            want = []
            for u in ((-m_u - disc) / (2 * m_v), (-m_u + disc) / (2 * m_v)):
                v = u * u - 1
                x = Mp[0, 0] * u + Mp[0, 1] * v + shift[0]
                y = Mp[1, 0] * u + Mp[1, 1] * v + shift[1]
                if y > cap:  # clipped by the ambient's cut: slide along the line
                    x, y = x + (y - cap) * n[1] / n[0], mpmath.mpf(cap)
                want.append((x, y))
            want.sort(key=lambda p: float(p[0] * d[0] + p[1] * d[1]))
            err = max(abs(float(got[i, j] - want[i][j])) for i in range(2) for j in range(2))
            assert err <= 1e-14 * lam
    calls = []
    margin_many = Body2.margin_many
    monkeypatch.setattr(Body2, "margin_many",
                        lambda self, pts: calls.append(1) or margin_many(self, pts))
    par = Body2.epigraph("parabola", transform=np.column_stack([M, shift]))
    extend_body(par.clip([(n, 0.3)]), par)
    assert len(calls) <= 4


def _staged_chord_ends(C, table, centers, halves):
    """The staged search that chord_ends once ran on epigraph ambients, as a
    reference: a coarse grid and golden section find each line's lowest C
    margin in its window, and one bisection moves each window end with
    positive margin onto the boundary of C."""
    from qcext.geometry import along, bisect_leq, coarse_golden_min

    n, c = table.normals, table.offsets
    w, half = np.asarray(centers, dtype=float), np.asarray(halves, dtype=float)
    foot = w + (c - np.einsum("ij,ij->i", n, w))[:, None] * n
    d = np.column_stack([-n[:, 1], n[:, 0]])

    def line(t):
        t = np.asarray(t)
        rows = (slice(None),) + (None,) * (t.ndim - 1)
        return (foot[rows] + t[..., None] * d[rows]).reshape(-1, 2)

    f = along(C.margin_many, line)
    window = np.column_stack([-half, half])
    t_in, m_in = coarse_golden_min(f, -half, half)
    meets = m_in < -1e-9
    on_c = (f(window) > 0) & meets[:, None]
    t_end = np.where(on_c, bisect_leq(f, window, t_in[:, None]), window)
    return line(t_end).reshape(-1, 2, 2), on_c, meets


def _random_lines(C, k=200):
    rng = np.random.default_rng(1)
    hps = [HalfPlane(rng.normal(size=2), rng.normal()) for _ in range(k)]
    return CutTable(hps), np.tile(C.witness, (k, 1)), np.full(k, C.window_half)


def test_exp_hypograph_short_far_chords_found():
    """Two short chords far from the window centre, which the staged
    search's 257-point grid (512 apart on a 65,536 half-window) missed."""
    C = Body2.epigraph("exp_hypograph")
    table, centers, halves = _random_lines(C)
    ends, on_c, meets, _ = chord_ends(C, table, centers, halves)
    old = _staged_chord_ends(C, table, centers, halves)[2]
    for k, length, margin in ((13, 3.87, -0.128), (178, 7.35, -0.732)):
        assert meets[k] and on_c[k].all() and not old[k]
        assert np.linalg.norm(ends[k, 1] - ends[k, 0]) == pytest.approx(length, abs=0.01)
        assert C.margin_many(ends[k].mean(axis=0)[None, :])[0] == pytest.approx(margin, abs=1e-3)


@pytest.mark.parametrize("name", ["cosh", "exp_hypograph", "poly"])
def test_epigraph_chord_ends_match_staged_search(name):
    """200 random lines: where both the exact chords and the staged search
    meet C the ends agree within 1e-12 relative; a line that only the
    exact chords meet has its midpoint at least 1e-6 inside; the staged
    search meets no line that the exact chords miss."""
    from qcext.geometry import PolyProfile

    C = (Body2.epigraph(PolyProfile([0.0, 0.3, 1.0, 0.0, 0.25]),
                        transform=[[0.8, -0.6, 0.5], [0.6, 0.8, -1.0]])
         if name == "poly" else Body2.epigraph(name))
    table, centers, halves = _random_lines(C)
    ends, on_c, meets, _ = chord_ends(C, table, centers, halves)
    old_ends, old_on_c, old_meets = _staged_chord_ends(C, table, centers, halves)
    both = meets & old_meets
    assert both.sum() > 100 and not (old_meets & ~meets).any()
    assert np.array_equal(on_c[both], old_on_c[both])
    err = np.abs(ends[both] - old_ends[both]) / np.maximum(1.0, np.abs(old_ends[both]))
    assert err.max() <= 1e-12
    new = meets & ~old_meets
    if new.any():
        assert (C.margin_many(ends[new].mean(axis=1)) <= -1e-6).all()


def test_ball_chord_ends_on_circle():
    """The cut segment of a clipped ball ends on the circle, so the sampled
    operator's tangent half-planes there are the closed form's."""
    disk = Body2.ball((0.5, -0.2), 1.3)
    n = np.array([0.6, 0.8])
    for o in np.linspace(-1.1, 1.25, 9):
        B = disk.clip([(n, float(o))])
        seg = [pc for pc in B.pieces() if pc.kind == "segment"]
        assert len(seg) == 1
        ends = np.array([seg[0].a, seg[0].b])
        assert np.abs(np.linalg.norm(ends - disk.base.center, axis=1) - 1.3).max() <= 1e-14 * 1.3
        s = o - n @ disk.base.center
        h = np.sqrt(1.3 ** 2 - s * s)
        want = disk.base.center + s * n + h * np.array([[-n[1], n[0]], [n[1], -n[0]]])
        e = _extend_sampled(B, disk)
        for y in want:
            nw = (y - disk.base.center) / 1.3
            assert min(max(np.abs(hp.normal - nw).max(), abs(hp.offset - nw @ y))
                       for hp in e.halfplanes) < 1e-12


@pytest.mark.parametrize("kind", ["shelves", "polychain"])
def test_multi_cut_families_match_sampled_oracle(kind):
    """Two-cut shelves and chord polygons of a 24-gon take the exact batch;
    their indices and values are the per-level reference scan's."""
    fam = _multi_cut_family(kind)
    C, levels = fam.ambient, fam.levels
    _assert_batch_exact(fam)
    exts = [extend_body(B, C) for B in fam.bodies]
    rng = np.random.default_rng(12)
    pts = rng.uniform(-6.0, 6.0, (2000, 2))
    top = exts[-1].contains_many(pts)
    op = ExtensionOperator(fam)
    want = _reference_levels(exts, pts[top], lambda e, p: e.contains_many(p))
    assert np.array_equal(op.covering_index_many(pts[top]), want)
    off = pts[~C.contains_many(pts)]
    k = _reference_levels(exts, off, lambda e, p: e.interior_many(p))
    res = extend_function(fam)
    assert np.array_equal(res.eval_many(off), levels[np.minimum(k, len(fam) - 1)])


def test_polygon_pairs_match_sampled_oracle():
    """Fifty of criterion 2's random polygon pairs (rng 21), each B a
    half-plane body inside the polygon C."""
    rng = np.random.default_rng(21)
    n = 0
    while n < 50:
        try:
            B, C = _random_polygon_pair(rng)
        except Exception:
            continue
        _assert_matches_oracle(extend_body(B, C), B, C)
        n += 1


@pytest.mark.parametrize("ambient", ["disk", "square"])
def test_polygon_vertex_on_ambient_boundary(ambient):
    C = (Body2.ball((0.0, 0.0), 2.0) if ambient == "disk"
         else Body2.from_polychain([(-2, -2), (2, -2), (2, 2), (-2, 2)]))
    B = Body2.from_polychain([(2.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
    e = extend_body(B, C)
    _assert_matches_oracle(e, B, C)
    assert len(e.halfplanes) == 4


def test_extend_body_rejects_halfplane_body_outside():
    C = Body2.ball((0.0, 0.0), 1.0)
    B = Body2.from_polychain([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)])
    with pytest.raises(GeometryError):
        extend_body(B, C)


def test_serialized_family_takes_exact_path(monkeypatch):
    """A chord family rebuilt from JSON, as the CLI loads it, holds the
    ambient's base by value, not by object, and still takes the batch."""
    par = Body2.epigraph("parabola")
    fam = chord_family(par, np.linspace(0.0, 39.0, 40))
    loaded = LevelFamily(fam.levels, [body_from_json(body_to_json(B)) for B in fam.bodies],
                         body_from_json(body_to_json(par)))
    want = ExtensionOperator(fam).level_table

    def refuse(*args, **kw):
        raise AssertionError("sampled fallback called")

    monkeypatch.setattr(extension, "_extend_sampled", refuse)
    got = ExtensionOperator(loaded).level_table
    assert got.tobytes() == want.tobytes()


def test_family_reads_one_rows_pass(monkeypatch):
    """extend_function's nesting check, the operator's batch, its covering
    search and the family's evaluation on and off the ambient all read the
    family's one cuts_beyond_all pass (LevelFamily._extra_cuts); the batch
    builds the level table with the extended bodies."""
    from qcext import geometry

    fam = chord_family(Body2.epigraph("parabola"), np.linspace(0.0, 30.0, 31))
    passes, rows_beyond = [], geometry._rows_beyond
    monkeypatch.setattr(geometry, "_rows_beyond",
                        lambda bodies, C: passes.append(len(bodies)) or rows_beyond(bodies, C))
    res = extend_function(fam)
    pts = np.random.default_rng(3).uniform(-6.0, 6.0, (400, 2))
    res.eval_many(pts)
    fam.eval_many(pts)
    top = res.operator.extended(len(fam) - 1).contains_many(pts)
    res.operator.covering_index_many(pts[top])
    assert passes == [len(fam)]
    assert len(res.operator._cache) == len(fam)


@pytest.mark.parametrize("name", ["parabola", "disk_mixed"])
def test_level_table_matches_halfplane_rows(name, monkeypatch):
    """level_table fills each level from its stored rows, and equals the
    per-half-plane table bit for bit: padding rows no point violates, one
    violated row for an empty level.  Every level's rows equal its
    halfplanes view, the sampled fallback's level (a disk inside the
    ambient disk, not cut from it) included."""
    if name == "parabola":
        fam = chord_family(Body2.epigraph("parabola"), np.linspace(0.0, 30.0, 31))
    else:  # a disk family with the empty set, a square inside C and a disk
        disk = Body2.ball((0.0, 0.0), 1.0)
        other = Body2.from_polychain([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
        fam = LevelFamily(np.arange(5.0), [None, disk.clip([((0.0, 1.0), -0.5)]), other,
                                           Body2.ball((0.0, 0.1), 0.8),
                                           disk.clip([((0.0, 1.0), 0.5)])], disk)
    sampled, fallback = [], extension._extend_sampled
    monkeypatch.setattr(extension, "_extend_sampled",
                        lambda B, C, r: sampled.append(B) or fallback(B, C, r))
    op = ExtensionOperator(fam)
    op.extended(0)
    monkeypatch.undo()
    assert sampled == ([] if name == "parabola" else [fam.bodies[3]])
    got = op.level_table
    exts = [op.extended(k) for k in range(len(fam))]
    want = np.zeros((len(exts), max([1] + [len(e.halfplanes) for e in exts]), 3))
    want[..., 2] = np.inf
    for k, e in enumerate(exts):
        if e.special == "empty":
            want[k, 0, 2] = -np.inf
        for j, hp in enumerate(e.halfplanes):
            want[k, j] = (hp.normal[0], hp.normal[1], hp.offset)
        view = np.array(_rows(e)).reshape(-1, 3)
        assert e.rows.shape == view.shape and e.rows.tobytes() == view.tobytes()
    assert got.tobytes() == want.tobytes()


def test_extension_tests_the_ambient_once(monkeypatch):
    """ExtensionResult.eval_many makes one ambient contains_many call, and
    on the ambient gives LevelFamily.eval_many's values bit for bit (after
    a second ambient test, on a family cut from it), on exact and scanned
    families."""
    par = Body2.epigraph("parabola")
    exact = chord_family(par, np.linspace(0.0, 30.0, 31))
    scanned = LevelFamily(np.arange(3.0), [Body2.ball((0.0, 1.0), 0.5),
                                           par.clip([((0.0, 1.0), 2.0)]),
                                           par.clip([((0.0, 1.0), 3.0)])], par)
    pts = np.random.default_rng(5).uniform(-6.0, 6.0, (3000, 2))
    for fam in (exact, scanned):
        res = extend_function(fam)
        inside = par.contains_many(pts)
        want = np.empty(len(pts))
        want[inside] = fam.eval_many(pts[inside])
        want[~inside] = res.eval_many(pts[~inside])
        res.eval_many(pts)  # builds the levels and the tables
        calls = []
        contains = Body2.contains_many
        monkeypatch.setattr(Body2, "contains_many",
                            lambda self, p, tol=1e-9: calls.append(self) or contains(self, p, tol))
        got = res.eval_many(pts)
        monkeypatch.undo()
        assert [c for c in calls if c is par] == [par]
        assert got.tobytes() == want.tobytes()
        assert 500 < inside.sum() < len(pts) - 500


def test_far_chord_of_unbounded_ambient():
    """A chord far beyond B's window box keeps both tangent half-planes."""
    C = Body2.epigraph("parabola").clip([((1.0, -0.2), 1.5)])
    cut = HalfPlane((-0.307, 0.952), 26270.0)
    e = extend_body(C.clip([cut]), C)
    assert e.special is None and len(e.halfplanes) == 3
    # the line n . p = c meets y = x^2 - 1 where n_x x + n_y (x^2 - 1) = c
    (nx, ny), c = cut.normal, cut.offset
    xs = np.roots([ny, nx, -ny - c])
    want = [(cut.normal, c)]
    for x in xs:
        nrm = np.array([2 * x, -1.0]) / np.hypot(2 * x, 1.0)
        want.append((nrm, nrm @ (x, x * x - 1)))
    for nw, ow in want:
        assert min(max(np.abs(h.normal - nw).max(), abs(h.offset - ow) / abs(ow))
                   for h in e.halfplanes) <= 1e-9
