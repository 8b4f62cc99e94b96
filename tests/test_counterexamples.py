"""Counterexample generators, certificates, and the classifier."""

import math
import sys

import numpy as np
import pytest

from qcext.counterexamples import (
    ConstructionError,
    _arc_lengths,
    _lower_profile,
    _no_lip_frames,
    _wedge_rows,
    characterize,
    gen_no_lip,
    gen_no_qc,
    gen_no_uc,
    gen_non_rotund,
    gen_usc_counterexample,
)
from qcext.geometry import Body2, Frame, as_rows, transform_body
from qcext.levelset import quasiconvex_check


@pytest.fixture(scope="module")
def quartet():
    return {
        "disk": Body2.ball((0.0, 0.0), 1.0, name="disk"),
        "parabola": Body2.epigraph("parabola", name="parabola"),
        "square": Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)],
                                       name="square"),
        "hypograph": Body2.epigraph("exp_hypograph", name="hypograph"),
    }


# -- no quasiconvex extension at all (asymptotic direction) --------------------

def test_no_qc_hypograph(quartet):
    f, cert = gen_no_qc(quartet["hypograph"], k_max=12)
    trend = cert.divergence_trend()
    assert trend["increasing"]
    assert trend["min_gap"] > 1.0
    assert np.all(cert.arc_lengths > 0)
    # the witness sits beyond every later forcing half-plane
    w = cert.witnesses[0]
    margins = [float(hp.value(w[None, :])[0]) for hp in cert.forcing_halfplanes[1:]]
    assert all(m > 0 for m in margins)
    rep = quasiconvex_check(f.eval_many, quartet["hypograph"], 10_000,
                            seed=1, window=(-5, 40, -40, 1.5))
    assert rep.passed


def test_no_qc_rejects(quartet):
    with pytest.raises(ConstructionError):
        gen_no_qc(quartet["parabola"])
    with pytest.raises(ConstructionError, match="bounded"):
        gen_no_qc(quartet["disk"])


def test_arc_lengths_batched_matches_per_line(quartet):
    """One call over all lines gives each line's own chord bit for bit: a
    chord, a corner sliver, a line that misses, and the wedge lines of both
    forcing generators."""
    square = quartet["square"]
    ident = Frame(R=np.eye(2), anchor=np.zeros(2), shift=np.zeros(2))
    lines = as_rows([((0.0, 1.0), 0.5),
                     (np.array([1.0, 1.0]) / math.sqrt(2.0), (2.0 - 1e-4) / math.sqrt(2.0)),
                     ((0.0, 1.0), 3.0)])
    cases = [(square, ident, lines, [8.0] * 3)]
    for C, gen in ((quartet["hypograph"], gen_no_qc), (square, gen_non_rotund)):
        _, cert = gen(C, k_max=12)
        bs = np.array(cert.params["b"])
        wedges = _wedge_rows(np.array(cert.params["eps"]), bs)
        spans = 4.0 * bs + 8.0 if gen is gen_no_qc else np.full(len(bs), 8.0)
        np.testing.assert_array_equal(_arc_lengths(C, cert.frame, wedges, spans),
                                      cert.arc_lengths)
        cases.append((C, cert.frame, wedges, spans))
    for C, frame, hps, spans in cases:
        batched = _arc_lengths(C, frame, hps, spans)
        single = np.array([_arc_lengths(C, frame, hps[k:k + 1], [sp])[0]
                           for k, sp in enumerate(spans)])
        np.testing.assert_array_equal(batched, single)
    first = _arc_lengths(square, ident, lines, [8.0] * 3)
    assert first[0] == 2.0 and first[2] == 0.0
    assert abs(first[1] - math.sqrt(2.0) * 1e-4) <= 1e-12


def test_hypograph_arcs_match_dense_scan(quartet):
    """gen_no_qc's arcs on the hypograph are the meets of its forcing lines
    with the body within |t| <= spans[k] of the foot of the frame origin: a
    200,001-point membership scan of each window brackets every arc within
    two scan steps."""
    C = quartet["hypograph"]
    _, cert = gen_no_qc(C, k_max=6)
    bs = np.array(cert.params["b"])
    spans = 4.0 * bs + 8.0
    for (nx, ny, c), span, arc in zip(_wedge_rows(np.array(cert.params["eps"]), bs),
                                      spans, cert.arc_lengths):
        ts = np.linspace(-span, span, 200_001)
        pts = cert.frame.invert(np.array([nx * c, ny * c]) + ts[:, None] * np.array([-ny, nx]))
        inside = ts[C.margin_many(pts) <= 0]
        step = (ts[1] - ts[0]) / cert.frame.lam
        scan = (inside[-1] - inside[0]) / cert.frame.lam
        assert scan - 1e-12 * span <= arc <= scan + 2.0 * step


@pytest.mark.parametrize("name", ["square", "triangle"])
def test_pinched_wedge_arcs_stay_positive(quartet, name):
    """At k_max 24 the last forcing lines pinch to slivers of about 2^-24
    of the segment, and each keeps a positive arc.  Each arc is the chord
    of its stored world line, clipped by the polygon's edges in exact
    rational arithmetic, within 4e-15 (1 + b_k / eps_k): the line meets the
    segment at a slope of eps_k / b_k, so a rounding of its offset moves its
    entry by that factor."""
    from fractions import Fraction

    verts = ([(-1, -1), (1, -1), (1, 1), (-1, 1)] if name == "square"
             else [(0, 1), (2, 1), (1, -3)])
    C = Body2.from_polychain(verts, name=name)
    _, cert = gen_non_rotund(C, k_max=24)
    assert np.all(cert.arc_lengths > 0)
    V = [(Fraction(x), Fraction(y)) for x, y in verts]
    if (V[1][0] - V[0][0]) * (V[2][1] - V[0][1]) < (V[1][1] - V[0][1]) * (V[2][0] - V[0][0]):
        V.reverse()  # counterclockwise
    cond = 1.0 + np.array(cert.params["b"]) / np.array(cert.params["eps"])
    for hp, arc, k in zip(cert.forcing_halfplanes, cert.arc_lengths, cond):
        (nx, ny), c = (Fraction(float(v)) for v in hp.normal), Fraction(hp.offset)
        p, d = (nx * c, ny * c), (-ny, nx)
        lo, hi = -math.inf, math.inf
        for (ax, ay), (bx, by) in zip(V, V[1:] + V[:1]):
            # the edge keeps (b - a) x (q - a) >= 0 on q = p + t d
            a0 = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
            a1 = (bx - ax) * d[1] - (by - ay) * d[0]
            if a1 > 0:
                lo = max(lo, -a0 / a1)
            elif a1 < 0:
                hi = min(hi, -a0 / a1)
        want = float(hi - lo) * math.hypot(float(nx), float(ny))
        assert abs(arc - want) <= 4e-15 * k


def test_forcing_margin_call_budget(quartet, monkeypatch):
    """All forcing lines' arcs are one chord_ends call, so gen_non_rotund
    stays far below one search per line (about 80 margin calls each, 2,050
    in all at k_max=24; 1 at this writing)."""
    calls = []
    margin_many = Body2.margin_many
    monkeypatch.setattr(Body2, "margin_many",
                        lambda self, pts: calls.append(1) or margin_many(self, pts))
    gen_non_rotund(quartet["square"], k_max=24)
    assert len(calls) <= 10


# -- no continuous extension (boundary segment) --------------------------------

def test_non_rotund_triangle():
    tri = Body2.from_polychain([(0, 1), (2, 1), (1, -3)], name="triangle")
    f, cert = gen_non_rotund(tri, k_max=16)
    assert cert.jump is not None
    assert cert.jump[1] - cert.jump[0] > 0
    assert np.all(cert.arc_lengths > 0)
    rep = quasiconvex_check(f.eval_many, tri, 10_000, seed=2)
    assert rep.passed


def test_non_rotund_square(quartet):
    _, cert = gen_non_rotund(quartet["square"], k_max=16)
    assert cert.jump[1] > cert.jump[0]
    assert np.all(cert.arc_lengths > 0)


def test_non_rotund_rejects_disk(quartet):
    with pytest.raises(ConstructionError, match="rotund"):
        gen_non_rotund(quartet["disk"])


# -- no uniformly continuous extension ------------------------------------------

def test_no_uc_parabola(quartet):
    f, cert = gen_no_uc(quartet["parabola"], k_max=24)
    assert np.allclose(cert.points[0], [1.0, 0.0], atol=1e-6)
    assert cert.bilip == pytest.approx(2.0 / math.sqrt(5.0), abs=0.02)
    assert cert.bilip >= 0.5
    gaps = np.diff(cert.levels)
    assert float(np.min(gaps)) >= cert.bilip * (1 - 1e-6)
    # the second differences along the chain collapse
    assert cert.gaps[-1] < cert.gaps[0]
    # chain chords have unit length
    steps = np.linalg.norm(np.diff(cert.points, axis=0), axis=1)
    assert np.allclose(steps, 1.0, atol=1e-6)


@pytest.mark.parametrize("name", ["parabola", "cosh"])
def test_no_uc_chain_at_unit_chord(quartet, name):
    """Each chain point lies at chord 1 from the one before, within 1e-12."""
    body = quartet["parabola"] if name == "parabola" else Body2.epigraph("cosh")
    _, cert = gen_no_uc(body, k_max=8)
    steps = np.linalg.norm(np.diff(cert.points, axis=0), axis=1)
    assert np.max(np.abs(steps - 1.0)) <= 1e-12


@pytest.mark.parametrize("name", ["parabola", "cosh"])
def test_no_uc_locates_c0_once(monkeypatch, name):
    """c0's supporting normals come from one distance_many call per piece:
    no piece is asked twice about one point."""
    from qcext.geometry import GraphPiece

    body = Body2.epigraph(name)
    body.pieces()
    asked = []
    distance_many = GraphPiece.distance_many
    monkeypatch.setattr(GraphPiece, "distance_many", lambda self, pts, *a, **kw: asked.append(
        (id(self), np.asarray(pts).tobytes())) or distance_many(self, pts, *a, **kw))
    _, cert = gen_no_uc(body, k_max=8)
    assert asked and len(asked) == len(set(asked))


def _mp_chord_param(g, u, c):
    """The s in (u, u + c] where the chord from (u, g(u)) to (s, g(s))
    first reaches length c, at 50 digits: (s - u)^2 + (g(s) - g(u))^2 = c^2
    by bisection on the bracket, where the left side grows with s when g is
    increasing from u on (u >= 0 on the profiles used here)."""
    import mpmath

    with mpmath.workdps(50):
        u, c = mpmath.mpf(u), mpmath.mpf(c)
        lo, hi = u, u + c
        for _ in range(200):
            mid = (lo + hi) / 2
            if (mid - u) ** 2 + (g(mid) - g(u)) ** 2 < c * c:
                lo = mid
            else:
                hi = mid
        return hi


@pytest.mark.parametrize("name", ["parabola", "cosh"])
def test_no_uc_links_match_high_precision_chords(monkeypatch, name):
    """gen_no_uc solves its chords on the graph parameter u with newton_leq
    and walks no boundary (the boundary walk is gone from geometry), and
    every bisection it runs starts at most 16 floats wide (slope points).
    Its unit-chord links and its short chords 2^-1 ... 2^-9 from the first
    chain point match the chords solved at 50 digits on the profile
    g(u) = u^2 - 1 or cosh u - 2 within 1e-12."""
    import mpmath

    import qcext.geometry as geo
    from qcext.counterexamples import _chord_params

    body = Body2.epigraph(name)
    body.pieces()
    bisect_leq = geo.bisect_leq

    def tight_bisect(f, bad, good, *args):
        bad, good = np.broadcast_arrays(bad, good)
        assert np.all(np.abs(bad - good) <= 16 * np.spacing(np.maximum(abs(bad), abs(good))))
        return bisect_leq(f, bad, good, *args)

    monkeypatch.setattr(geo, "bisect_leq", tight_bisect)
    _, cert = gen_no_uc(body, k_max=8)
    monkeypatch.undo()
    for gone in ("boundary_crossing", "walk_until", "walk_to_chord"):
        assert not hasattr(geo, gone)
    g = (lambda u: u * u - 1) if name == "parabola" else (lambda u: mpmath.cosh(u) - 2)

    def graph(s):
        return np.array([float(s), float(g(s))])

    pts = cert.points
    # the chain climbs the right branch of a graph in its own coordinates
    assert pts[0, 0] > 0 and np.all(np.diff(pts[:, 0]) > 0)
    assert np.array_equal(body.pieces()[0].base.graph_point(np.array(pts[:, 0])), pts)
    for p, q in zip(pts[:-1], pts[1:]):
        assert np.linalg.norm(graph(_mp_chord_param(g, p[0], 1.0)) - q) <= 1e-12
    _, idx, t = geo._nearest(body, pts[:1])
    piece = body.pieces()[idx[0]]
    chords = 0.5 ** np.arange(1, 10)
    u = _chord_params(piece.base, float(piece._u(t[0])), -1.0 if piece.flipped else 1.0,
                      piece.u0 if piece.flipped else piece.u1, chords)
    want = np.array([graph(_mp_chord_param(g, pts[0, 0], c)) for c in chords])
    assert np.max(np.linalg.norm(piece.base.graph_point(u) - want, axis=1)) <= 1e-12


def test_no_uc_link_leaving_the_piece_ends_the_branch():
    """A chord that does not reach its length before the piece's end is
    NaN, and a chain whose fifth link leaves the piece (its u_end lies one
    float short of that link's end) raises the exhausted walk's
    ConstructionError, while the same chain with u_end at that end has its
    five links."""
    import qcext.counterexamples as cx

    body = Body2.epigraph("parabola")
    piece = body.pieces()[0]
    u = cx._chord_params(piece.base, np.array([piece.u1 - 1e-4, piece.u1 - 0.5, 0.0]), 1.0,
                         piece.u1, np.array([1.0, 0.1, 1.0]))
    assert np.isnan(u[0]) and np.isfinite(u[1:]).all()
    chain = cx._unit_chain(piece.base, 0.5, 1.0, piece.u1, 8)
    assert np.array_equal(cx._unit_chain(piece.base, 0.5, 1.0, chain[5], 5), chain[:6])
    with pytest.raises(ConstructionError, match="exhausted"):
        cx._unit_chain(piece.base, 0.5, 1.0, np.nextafter(chain[5], chain[4]), 8)


@pytest.mark.parametrize("mutation,message", [
    ("point", "unit length"), ("level", "differ from h"), ("reverse", "do not increase")])
def test_no_uc_validate_checks_the_stated_chain(quartet, mutation, message):
    """validate() rejects a chain point moved by 1e-9 (a link off unit
    length), a level moved by 1e-9 off h(point), and the chain read
    backwards (unit links, levels h(points), but decreasing)."""
    _, cert = gen_no_uc(quartet["parabola"], k_max=8)
    assert cert.validate()
    if mutation == "point":
        cert.points = cert.points.copy()
        cert.points[3, 0] += 1e-9
    elif mutation == "level":
        cert.levels = cert.levels.copy()
        cert.levels[3] += 1e-9
    else:
        cert.points, cert.levels = cert.points[::-1], cert.levels[::-1]
    with pytest.raises(ConstructionError, match=message):
        cert.validate()


def test_no_uc_cosh_decays_faster(quartet):
    _, cert_p = gen_no_uc(quartet["parabola"], k_max=16)
    _, cert_c = gen_no_uc(Body2.epigraph("cosh"), k_max=16)
    assert cert_c.gaps[8] < cert_p.gaps[8]


def test_no_uc_paper_case_values(quartet):
    f, cert = gen_no_uc(quartet["parabola"], k_max=8)
    h, off = cert.h_normal, cert.h_offset
    al = cert.levels
    # value 0 below the chain start
    low = quartet["parabola"].witness.copy()
    low = np.array([0.0, -0.9])
    assert f.eval_one(low) == 0.0
    # linear ramp on [alpha_1, alpha_2)
    hv = 0.5 * (al[0] + al[1])
    p = np.array([0.0, hv + off]) if abs(h[0]) < 1e-9 else None
    assert p is not None
    want = al[0] + (al[2] - al[0]) * (hv - al[0]) / (al[1] - al[0])
    assert f.eval_one(p) == pytest.approx(want, abs=1e-9)
    # plateau on [alpha_2, alpha_3) inside the half-plane
    hv = 0.5 * (al[1] + al[2])
    p = np.array([0.0, hv + off])
    hp = cert.halfplanes[0]
    if hp.value(p[None, :])[0] <= 0:
        assert f.eval_one(p) == pytest.approx(al[2], abs=1e-9)
    # outside the half-plane the distance is added
    q = p + hp.normal * 3.0
    if abs(float(q @ h) - off - hv) < (al[2] - al[1]) * 0.49:
        d = float(hp.value(q[None, :])[0])
        assert f.eval_one(q) == pytest.approx(al[2] + max(d, 0.0), abs=1e-6)


def test_no_uc_rejects(quartet):
    with pytest.raises(ConstructionError, match="bounded"):
        gen_no_uc(quartet["disk"])
    with pytest.raises(ConstructionError, match="bounded"):
        gen_no_uc(quartet["square"])
    with pytest.raises(ConstructionError, match="asymptotic"):
        gen_no_uc(quartet["hypograph"])


# -- no Lipschitz extension -------------------------------------------------------

def test_no_lip_disk_profile_matches_closed_form(quartet):
    _, cert = gen_no_lip(quartet["disk"], k_max=20)
    # stable closed form for the circle profile
    def g(z):
        return z ** 2 / (1.0 + np.sqrt(1.0 - z ** 2))

    zs = cert.eps / 2.0 ** np.arange(0, 21)
    exact = g(zs) / 2.0 - g(zs / 2.0)
    rel = np.abs(cert.secant_gaps - exact) / exact
    assert float(np.max(rel)) < 0.01
    # small z behaviour delta(z) ~ z^2 / 8
    assert cert.secant_gaps[6] == pytest.approx(zs[6] ** 2 / 8.0, rel=0.02)


def test_no_lip_parabola_profile_matches_closed_form(quartet):
    """The frame sits at the exact support point, and the P_k heights match
    the lower profile of that frame from a 50-digit closed form (a
    golden-section support point 7e-9 off made them 1e-5 off)."""
    import mpmath

    _, cert = gen_no_lip(quartet["parabola"], k_max=8, scan=16)
    with mpmath.workdps(50):
        theta = mpmath.mpf(cert.params["theta"])
        dx, dy = mpmath.cos(theta), mpmath.sin(theta)
        x0 = -dx / (2 * dy)  # support point of v >= u^2 - 1 along (dx, dy)
        y0 = x0 ** 2 - 1
        assert abs(cert.frame.anchor[0] - x0) <= 1e-15
        assert abs(cert.frame.anchor[1] - y0) <= 1e-15
        (r00, r01), (r10, r11) = ([mpmath.mpf(float(v)) for v in row] for row in cert.frame.R)
        lam = mpmath.mpf(float(cert.frame.lam))
        for z, g in cert.p_points:
            # smallest v >= 0 with (x0, y0) + (z R[0] + v R[1]) / lam on the
            # parabola: a root of a quadratic in v
            ax, ay = x0 + mpmath.mpf(z) * r00 / lam, y0 + mpmath.mpf(z) * r01 / lam
            bx, by = r10 / lam, r11 / lam
            qa, qb, qc = -bx ** 2, by - 2 * ax * bx, ay - ax ** 2 + 1
            disc = mpmath.sqrt(qb * qb - 4 * qa * qc)
            want = min(r for r in ((-qb + disc) / (2 * qa), (-qb - disc) / (2 * qa)) if r >= 0)
            assert abs((g - want) / want) <= 1e-9


def test_no_lip_disk_trend(quartet):
    _, cert = gen_no_lip(quartet["disk"], k_max=20)
    K = cert.lip_lower_bounds
    assert np.all(np.diff(K[2:]) > 0)
    ratios = K[1:] / K[:-1]
    assert np.all((ratios[12:] >= 1.8) & (ratios[12:] <= 2.2))
    assert np.all(np.diff(cert.products) < 0)
    assert cert.products[20] < 1e-4


def test_no_lip_square_flat_profile(quartet):
    _, cert = gen_no_lip(quartet["square"], k_max=14, scan=16)
    # flat boundary: secant gaps vanish near zero, so K ~ gauge*eps/(2^{k+3} a)
    assert np.all(cert.secant_gaps[4:] <= 1e-12)
    want = cert.gauge * cert.eps / (2.0 ** (np.arange(5.0, 15.0) + 3.0)
                                    * cert.alphas[6:16])
    assert np.allclose(cert.lip_lower_bounds[5:15], want, rtol=1e-6)
    ratios = cert.lip_lower_bounds[6:] / cert.lip_lower_bounds[5:-1]
    assert np.all(np.abs(ratios - 2.0) < 1e-6)


def test_no_lip_pinch_distance(quartet):
    # d(Q_k, P_k) = 2 delta(eps/2^k) + alpha_{k+1} and it bounds the
    # distance from the next separating line to the current body
    f, cert = gen_no_lip(quartet["disk"], k_max=10)
    for k in range(6):
        d_qp = float(np.linalg.norm(cert.q_points[k] - cert.p_points[k]))
        want = 2.0 * cert.secant_gaps[k] + cert.alphas[k + 1]
        assert d_qp == pytest.approx(want, rel=1e-9)
        slope, intercept = cert.lines[k + 1]
        nvec = np.array([slope, -1.0]) / math.hypot(slope, 1.0)
        dist_line = abs(float(nvec @ cert.p_points[k]) + intercept / math.hypot(slope, 1.0))
        assert dist_line <= d_qp + 1e-12


def test_no_lip_function_is_qc(quartet):
    f, cert = gen_no_lip(quartet["disk"], k_max=10)
    rep = quasiconvex_check(f.eval_many, quartet["disk"], 10_000, seed=3)
    assert rep.passed
    # staircase values stay within the construction's range
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, (500, 2))
    pts = pts[quartet["disk"].contains_many(pts)]
    vals = f.eval_many(pts)
    assert np.all(vals >= -1e-12)
    assert np.all(vals <= cert.eps / 2.0 + 1e-9)


def _ellipse24():
    t = 2.0 * np.pi * np.arange(24) / 24
    return Body2.from_polychain(np.column_stack([2.0 * np.cos(t), np.sin(t)]),
                                name="ellipse24")


def test_lower_profile_batched_matches_per_z(quartet):
    """The lower profile is the lower end of each vertical line's chord:
    the disk's and the parabola's closed forms hold within 1e-15, one call
    gives each z's own value, z beyond the profile's reach stays NaN (also
    on a vertical line parallel to a polygon's edge), and the square's flat
    bottom reads exactly 0."""
    C = Body2.ball((0.0, 1.0), 1.0)
    zs = np.concatenate([np.geomspace(1e-4, 0.999, 37), [1.5]])
    batched = _lower_profile(C, zs)
    assert np.isnan(batched[-1]) and not np.isnan(batched[:-1]).any()
    np.testing.assert_allclose(batched[:-1], 1.0 - np.sqrt(1.0 - zs[:-1] ** 2), rtol=0, atol=1e-15)
    single = np.array([_lower_profile(C, [z])[0] for z in zs])
    np.testing.assert_array_equal(batched, single)
    # the parabola v = 2 u^2 about the origin, up to v_max = 4
    P = Body2.epigraph("parabola", {"a": 2.0, "c": 0.0})
    zs = np.concatenate([np.geomspace(1e-6, 1.4, 25), -np.geomspace(1e-6, 1.4, 25), [1.5]])
    g = _lower_profile(P, zs)
    assert np.isnan(g[-1])
    np.testing.assert_allclose(g[:-1], 2.0 * zs[:-1] ** 2, rtol=0, atol=1e-15)
    box = Body2.from_polychain([(0, 0), (2, 0), (2, 2), (0, 2)])
    g = _lower_profile(box, [1e-3, 1.0, 2.0 + 1e-9, 2.5])
    assert g[0] == g[1] == 0.0 and np.isnan(g[2:]).all()
    _, cert = gen_no_lip(quartet["square"], k_max=8, scan=16)
    assert cert.params["g_eps"] == 0.0


def _scan_reference(E, scan):
    """The direction scan one direction at a time: the framed body built by
    transform_body and its own lower-profile solve."""
    best, rows = None, []
    for j in range(scan):
        theta = 2.0 * math.pi * j / scan
        frame = _no_lip_frames(E, np.array([[math.cos(theta), math.sin(theta)]]))[0]
        if frame is None:
            continue
        C = transform_body(E, frame)
        z0 = 0.25 * min(frame.lam * E.clearance, 1.0)
        g = _lower_profile(C, [z0, z0 / 2.0])
        rows.append((frame, [z0, z0 / 2.0], g))
        if np.isnan(g).any():
            continue
        gap = 0.5 * g[0] - g[1]
        if best is None or gap > best[0] + 1e-15:
            best = (gap, theta)
    return best[1], rows


@pytest.mark.parametrize("name", ["disk", "parabola", "square", "hypograph", "ellipse24"])
def test_no_lip_scan_matches_per_direction(quartet, name):
    E = _ellipse24() if name == "ellipse24" else quartet[name]
    theta, rows = _scan_reference(E, 16)
    frames = [frame for frame, _, _ in rows]
    g = _lower_profile(E, [zs for _, zs, _ in rows], frames)
    want = np.array([g_ref for _, _, g_ref in rows])
    np.testing.assert_array_equal(np.isnan(g), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.max(np.abs(g[ok] - want[ok])) <= 1e-12
    _, cert = gen_no_lip(E, k_max=4, scan=16)
    assert cert.params["theta"] == theta


@pytest.fixture(scope="module")
def fuzz_313():
    """A bounded 9-cut body (verify.fuzz_bodies(1, 400)[313])."""
    from qcext.verify import fuzz_bodies

    return fuzz_bodies(1, 400)[313]


@pytest.mark.parametrize("k_max,scan", [(8, 16), (8, 64), (24, 64)])
def test_no_lip_raises_on_its_own_invalid_certificate(fuzz_313, k_max, scan):
    """On this body the construction's Lipschitz lower bounds do not
    increase, so gen_no_lip's own validate() raises instead of returning
    the certificate."""
    assert fuzz_313.bounded
    with pytest.raises(ConstructionError, match="not increasing"):
        gen_no_lip(fuzz_313, k_max=k_max, scan=scan)


@pytest.mark.parametrize("k_max,scan", [(8, 16), (24, 64)])
def test_no_lip_shelf_with_a_small_disk_builds(k_max, scan):
    """verify.fuzz_bodies(3, 400)[73] is a cut ball whose shelf 0 holds a
    disk of radius 0.062, between the ball's probes 0.13 apart.  The
    certificate validates, every shelf builds with an interior witness
    (shelf 0 by the cut-ball fallback, clearance about 0.0618) and f
    evaluates."""
    from qcext.verify import fuzz_bodies

    E = fuzz_bodies(3, 400)[73]
    f, cert = gen_no_lip(E, k_max=k_max, scan=scan)
    assert cert.validate()
    shelves = f.meta["staircase"].meta["family"].bodies
    for k in range(len(shelves)):
        assert shelves[k].margin_many(shelves[k].witness[None, :])[0] < 0.0
    assert shelves[0]._clearance0 == pytest.approx(0.0618, abs=1e-4)
    rng = np.random.default_rng(3)
    vals = f.eval_many(E.witness + rng.normal(0.0, 2.0, (2000, 2)))
    assert np.isfinite(vals).all() and len(np.unique(vals)) > 2


def test_no_lip_margin_call_budget(quartet, monkeypatch):
    """The scan's lower profiles are one chord_ends call for all directions,
    so the membership calls stay far below one 100-step bisection per
    direction (1,600 calls at scan=16; 5 at this writing)."""
    calls = []
    margin_many = Body2.margin_many
    monkeypatch.setattr(Body2, "margin_many",
                        lambda self, pts: calls.append(1) or margin_many(self, pts))
    gen_no_lip(quartet["disk"], k_max=8, scan=16)
    assert len(calls) <= 20


@pytest.mark.parametrize("verts", [[(0, 1), (2, 1), (1, -3)],
                                   [(2.0 * math.cos(t), math.sin(t))
                                    for t in 2.0 * math.pi * np.arange(24) / 24]])
def test_no_lip_frame_exit_is_the_chord_end(verts):
    """Where the inward normal leaves the body before t = 2, the frame's
    scale is half the exit: the upper end of the normal's chord, which an
    80-step margin bisection along the normal matches within 1e-12."""
    from qcext.geometry import bisect_leq, support_point

    E = Body2.from_polychain(verts)
    dirs = np.array([[math.cos(t), math.sin(t)] for t in 2.0 * math.pi * np.arange(16) / 16])
    _, pts = support_point(E, dirs)
    exits = 0
    for p, frame in zip(pts, _no_lip_frames(E, dirs)):
        if frame is None:
            continue
        up = frame.R[1]
        if E.margin_many((p + 2.0 * up)[None])[0] <= 0:
            assert frame.lam == 1.0
            continue
        exits += 1
        t = bisect_leq(lambda t: E.margin_many(p + np.multiply.outer(t, up)), 2.0, 1e-3, 80)
        assert abs(1.0 / frame.lam - t / 2.0) <= 1e-12
    assert exits >= 1


def test_no_lip_scan_builds_no_probe_body(quartet, monkeypatch):
    """The direction scan reads membership in the body's own coordinates:
    the only bodies built are the chosen frame's body and its k_max + 1
    shelves, not one probe body per scan direction."""
    calls = []
    init = Body2.__init__
    monkeypatch.setattr(Body2, "__init__",
                        lambda self, *a, **k: calls.append(1) or init(self, *a, **k))
    gen_no_lip(quartet["disk"], k_max=8, scan=64)
    assert len(calls) <= 8 + 2


# -- the fixed usc counterexample ---------------------------------------------------

def test_usc_values():
    f, wit = gen_usc_counterexample()
    assert f.eval_one((0.0, -1.0)) == 0.0
    assert f.eval_one((0.0, 0.0)) == 1.0
    assert f.eval_one((0.5, 0.5)) == 0.5
    assert wit.value_bottom == 0.0 and wit.value_corner == 1.0


def test_usc_strict_sublevels_convex():
    f, _ = gen_usc_counterexample()
    rng = np.random.default_rng(6)
    dom = Body2.from_polychain([(0, -1), (1, -1), (1, 1), (0, 1)])
    for alpha in (0.25, 0.5, 0.75, 1.0):
        pts = np.column_stack([rng.uniform(0, 1, 4000), rng.uniform(-1, 1, 4000)])
        inside = f.eval_many(pts) < alpha
        a = pts[inside]
        if len(a) < 2:
            continue
        idx = rng.integers(0, len(a), (2000, 2))
        mids = 0.5 * (a[idx[:, 0]] + a[idx[:, 1]])
        assert np.all(f.eval_many(mids) < alpha + 1e-12)
    del dom


# -- classifier -----------------------------------------------------------------------

def test_characterize_quartet(quartet):
    want = {"disk": "UC_EXTENDABLE", "parabola": "C_EXTENDABLE",
            "square": "QC_EXTENDABLE", "hypograph": "NOT_QC_EXTENDABLE"}
    for name, body in quartet.items():
        cls = characterize(body)
        assert cls.extendability_class == want[name], name


def test_characterize_denials(quartet):
    cls = characterize(quartet["disk"])
    assert cls.denied == {"lipschitz": "gen_no_lip"}
    cls = characterize(quartet["parabola"])
    assert cls.denied["uniformly_continuous"] == "gen_no_uc"
    cls = characterize(quartet["square"])
    assert cls.denied["continuous"] == "gen_non_rotund"
    cls = characterize(quartet["hypograph"])
    assert cls.denied["qc"] == "gen_no_qc"
    assert cls.granted == []


def test_asymptotic_direction_searched_once_per_body(monkeypatch):
    """characterize and then gen_no_qc on the hypograph test each recession
    ray once, and writing to a returned direction or witness does not
    change the next result."""
    import qcext.geometry as geo
    from qcext.geometry import find_asymptotic_direction

    body = Body2.epigraph("exp_hypograph")
    asked = []
    is_asymptotic = geo.is_asymptotic_direction
    monkeypatch.setattr(geo, "is_asymptotic_direction",
                        lambda C, v, *a: asked.append(np.asarray(v).tobytes())
                        or is_asymptotic(C, v, *a))
    assert characterize(body).extendability_class == "NOT_QC_EXTENDABLE"
    gen_no_qc(body, k_max=8)
    assert asked and len(asked) == len(set(asked))
    assert len(asked) <= len(body.recession_cone().directions())
    v, x0 = find_asymptotic_direction(body)
    want = v.copy(), x0.copy()
    v[:], x0[:] = 7.0, 7.0
    again = find_asymptotic_direction(body)
    assert np.array_equal(again[0], want[0]) and np.array_equal(again[1], want[1])
    assert len(asked) == len(set(asked))


def test_characterize_predicates(quartet):
    cls = characterize(quartet["hypograph"])
    assert cls.predicates["has_asymptotic_direction"]
    assert cls.predicates["rotund"]  # strictly convex yet not QC-extendable
    assert not cls.predicates["bounded"]


def test_no_lip_staircase_recovers_shelves(quartet):
    # sublevel recovery of the framed staircase: [f <= beta_k] equals the
    # k-th shelf body, and the sampled slope stays within the frame scale
    from qcext.levelset import lipschitz_estimate, sample_domain

    f, cert = gen_no_lip(quartet["disk"], k_max=8)
    stair = f.meta["staircase"]
    fam = stair.meta["family"]
    rng = np.random.default_rng(7)
    pts = sample_domain(fam.ambient, 4000, rng)
    vals = stair.eval_many(pts)
    for k in (0, 2, 4):
        inside = fam.bodies[k].contains_many(pts)
        assert np.all(vals[inside] <= cert.levels[k] + 1e-9)
        assert np.all(vals[~inside] > cert.levels[k] - 1e-9)
    slope = lipschitz_estimate(stair.eval_many, fam.ambient, 20_000, seed=8)
    assert slope <= 1.0 + 1e-3
    world_slope = lipschitz_estimate(f.eval_many, quartet["disk"], 20_000, seed=8)
    assert world_slope <= cert.gauge * (1.0 + 1e-3)


def test_generators_on_transformed_bodies():
    # constructions must not depend on axis alignment or scale
    import math

    th = 0.8
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    tr = np.column_stack([1.3 * R, [0.4, -0.7]])
    rpar = Body2.epigraph("parabola", None, tr, name="rotated_parabola")
    assert characterize(rpar).extendability_class == "C_EXTENDABLE"
    _, cert = gen_no_uc(rpar, k_max=16)
    assert float(np.min(np.diff(cert.levels))) >= cert.bilip * (1 - 1e-6)
    assert cert.gaps[-1] < cert.gaps[0]

    tri = Body2.from_polychain([(0, 1), (2, 1), (1, -3)])
    _, c2 = gen_no_lip(tri, k_max=14, scan=24)
    assert np.all(np.diff(c2.lip_lower_bounds[2:]) > 0)

    verts = [tuple(R @ np.array(v)) for v in [(-1, -1), (1, -1), (1, 1), (-1, 1)]]
    sq = Body2.from_polychain(verts)
    _, c3 = gen_non_rotund(sq, k_max=14)
    assert np.all(c3.arc_lengths > 0) and c3.jump[1] > c3.jump[0]


# -- chain length -----------------------------------------------------------------

@pytest.mark.parametrize("generator, body", [
    (gen_no_qc, "hypograph"), (gen_non_rotund, "square"),
    (gen_no_uc, "parabola"), (gen_no_lip, "disk")])
@pytest.mark.parametrize("k_max", [0, -3])
def test_generators_reject_k_max_below_one(quartet, generator, body, k_max):
    """Each generator names a k_max below 1, before it reads the body."""
    with pytest.raises(ConstructionError, match="k_max must be at least 1"):
        generator(quartet[body], k_max=k_max)


# -- certificate parity ---------------------------------------------------------

def _gallery():
    t = 2.0 * math.pi * np.arange(24) / 24
    return {
        "disk": Body2.ball((0.0, 0.0), 1.0, name="disk"),
        "parabola": Body2.epigraph("parabola", name="parabola"),
        "square": Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)], name="square"),
        "hypograph": Body2.epigraph("exp_hypograph", name="hypograph"),
        "cosh": Body2.epigraph("cosh", name="cosh"),
        "triangle": Body2.from_polychain([(0, 1), (2, 1), (1, -3)], name="triangle"),
        "ellipse24": Body2.from_polychain(np.column_stack([2.0 * np.cos(t), np.sin(t)]),
                                          name="ellipse24"),
    }


def _assert_close(got, want, bound, path=""):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for k in want:
            _assert_close(got[k], want[k], bound, f"{path}/{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, bound, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert abs(got - want) <= bound or got == want, (path, got, want)
    else:
        assert got == want, (path, got, want)


def test_gallery_certificates_match_stored():
    """Every certificate of the seven-body gallery (characterize, then each
    denied generator at k_max 8, gen_no_lip at scan 16) equals the stored
    JSON within 1e-10 per number.  The file holds them as the bisection
    solvers and gen_no_uc's boundary walk built them.  Moving the chords to
    newton_leq and gen_no_uc's c0 and y1 to chord_ends moved numbers by
    rounding only: cosh's no-uc chain points by at most 4.4e-16 and its
    bilip by 2.3e-13, the no-lip certificates of cosh and the hypograph by
    at most 6e-24.  Stopping chords at their rounding targets, giving
    flipped graph pieces t = -u and writing the profile-frame maps per
    coordinate moved six numbers past 1e-10, and only those were
    re-recorded: cosh's lip_lower_bounds[6..8] and the hypograph's [7, 8]
    (they divide by secant gaps of 1e-6 or less, so 1e-17 in a profile
    height moves them by about 1e-9; each stays within 2.3e-9 of its
    50-digit value on the same float frame) and the hypograph's
    arc_lengths[7] (2.4e11) by one float spacing, to the nearer float of
    its 50-digit value.  The NoLipCertificate tail at k_max 24 is not stored:
    its last secant gaps are about 1e-16, the size of the profile
    heights' own rounding, so its bounds and products hang on the last
    bits of any solver."""
    import json
    import os

    from qcext.serialize import certificate_to_json

    with open(os.path.join(os.path.dirname(__file__), "data",
                           "gallery_certificates_k8.json")) as fh:
        stored = json.load(fh)
    generators = {"gen_no_lip": gen_no_lip, "gen_no_qc": gen_no_qc, "gen_no_uc": gen_no_uc,
                  "gen_non_rotund": gen_non_rotund}
    for name, body in _gallery().items():
        cls = characterize(body)
        assert cls.extendability_class == stored[name]["class"]
        certs = {}
        for gen in dict.fromkeys(cls.denied.values()):
            kw = {"k_max": 8, "scan": 16} if gen == "gen_no_lip" else {"k_max": 8}
            certs[gen] = certificate_to_json(generators[gen](body, **kw)[1])
        _assert_close(json.loads(json.dumps(certs)), stored[name]["certificates"], 1e-10, name)


def test_gallery_pass_newton_rounds(monkeypatch):
    """A certify pass over the seven-body gallery (characterize, then every
    denied generator at k_max 8, gen_no_lip at scan 16) runs at most 64
    newton_leq rounds (_narrow calls inside newton_leq): 85 when each chord
    solve started at its window end, 25 of them crawling on the +-65,536
    windows of cosh and the hypograph past the +-700 clip.  No round
    evaluates a done bracket: replayed one bracket at a time, every bracket
    of every solve is in exactly as many f calls as in the pass."""
    import qcext.counterexamples as cx
    import qcext.geometry as geo

    newton, narrow = geo.newton_leq, geo._narrow
    solves, rounds = [], []

    def counted(f, calls):
        def wrapped(t, rows):
            calls.append(rows)
            return f(t, rows)
        return wrapped

    def traced_newton(f, df, bad, good, target):
        solves.append((f, df, bad, good, target, []))
        return newton(counted(f, solves[-1][-1]), df, bad, good, target)

    def traced_narrow(*args):
        if sys._getframe(1).f_code is newton.__code__:
            rounds.append(1)
        return narrow(*args)

    monkeypatch.setattr(geo, "newton_leq", traced_newton)
    monkeypatch.setattr(cx, "newton_leq", traced_newton)
    monkeypatch.setattr(geo, "_narrow", traced_narrow)
    for body in _gallery().values():
        for gen in dict.fromkeys(characterize(body).denied.values()):
            kw = {"k_max": 8, "scan": 16} if gen == "gen_no_lip" else {"k_max": 8}
            globals()[gen](body, **kw)
    monkeypatch.undo()
    assert 0 < len(rounds) <= 64
    for f, df, bad, good, target, calls in solves:
        bad, good = (a.ravel() for a in np.broadcast_arrays(np.asarray(bad, dtype=float),
                                                            np.asarray(good, dtype=float)))
        goal = target if callable(target) else np.broadcast_to(target, bad.shape)
        for k in range(len(bad)):
            row, one = np.array([k]), []
            newton(counted(lambda t, _: f(t, row), one), lambda t, _: df(t, row), bad[k], good[k],
                   (lambda t, f_t, df_t, _: goal(t, f_t, df_t, row)) if callable(goal) else goal[k])
            assert sum(k in rows for rows in calls) == len(one)


def test_gallery_certificates_roundtrip():
    """Every certificate of the seven-body gallery (each denied generator at
    k_max 8, gen_no_lip at scan 16) and the usc witness reads back from its
    JSON to equal JSON, number for number, with its array fields as equal
    arrays; the kind table names each certificate's class."""
    import dataclasses
    import json

    from qcext.counterexamples import CERTIFICATES
    from qcext.serialize import certificate_from_json, certificate_to_json

    certs = [gen_usc_counterexample()[1]]
    for body in _gallery().values():
        for gen in dict.fromkeys(characterize(body).denied.values()):
            kw = {"k_max": 8, "scan": 16} if gen == "gen_no_lip" else {"k_max": 8}
            certs.append(globals()[gen](body, **kw)[1])
    assert len(certs) == 14
    for cert in certs:
        data = json.loads(json.dumps(certificate_to_json(cert)))
        back = certificate_from_json(data)
        assert type(back) is type(cert) is CERTIFICATES[cert.kind][0]
        assert certificate_to_json(back) == data, cert.kind
        for f in dataclasses.fields(cert):
            if isinstance(getattr(cert, f.name), np.ndarray):
                got, want = getattr(back, f.name), getattr(cert, f.name)
                assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes(), f.name


def test_certificate_from_json_names_a_missing_field():
    from qcext.geometry import GeometryError
    from qcext.serialize import certificate_from_json, certificate_to_json

    data = certificate_to_json(gen_no_qc(Body2.epigraph("exp_hypograph"), k_max=4)[1])
    del data["arc_lengths"]
    with pytest.raises(GeometryError, match="arc_lengths"):
        certificate_from_json(data)
    with pytest.raises(GeometryError, match="unknown certificate kind"):
        certificate_from_json({"kind": "no_such"})
