"""Non-extendability constructions with machine-checkable certificates.

Each generator builds a Lipschitz quasiconvex function on a body of the
required shape together with numeric evidence for why no extension of the
stated grade can exist: divergent forced levels, collapsing sublevel
separation, or Lipschitz-constant blow-up.  `characterize` classifies a
body by the extension grades it supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .geometry import (
    Body2,
    CutTable,
    EpigraphBase,
    Frame,
    GraphPiece,
    HalfPlane,
    as_points,
    as_rows,
    chord_ends,
    cross2,
    dots,
    find_asymptotic_direction,
    find_boundary_segment,
    halfplanes_of,
    is_rotund,
    lengths,
    newton_leq,
    norm,
    perp,
    rounding_target,
    support,
    support_point,
    supporting_normals,
    transform_body,
    unit,
    vec,
)
from .levelset import CutLevels, QCFunction, ramp_qc, staircase_qc


class ConstructionError(ValueError):
    """A generator's hypothesis on the body failed; the message names it."""


def _given(C: Optional[Body2], k_max: int) -> Body2:
    """C; ConstructionError when a generator has no body or a k_max below 1."""
    if k_max < 1:
        raise ConstructionError("k_max must be at least 1")
    if C is None:
        raise ConstructionError("hypothesis failed: no body given")
    return C


# ---------------------------------------------------------------------------
# frames

def _rotation_to(d_from, d_to) -> np.ndarray:
    a = unit(np.asarray(d_from, dtype=float))
    b = unit(np.asarray(d_to, dtype=float))
    cos = float(a @ b)
    sin = float(cross2(a, b))
    return np.array([[cos, -sin], [sin, cos]])


# ---------------------------------------------------------------------------
# certificate containers; serialize writes each as its kind and its fields,
# leaving out the frame (_NOT_WRITTEN) and None values

_NOT_WRITTEN = {"json": False}


@dataclass
class ForcingCertificate:
    """Evidence that convexity forces unbounded or jumping extension values.

    Built by _wedge_staircase for gen_no_qc and gen_non_rotund.  Each
    forcing half-plane's boundary line meets the body in an arc of positive
    length (its chord within the construction's window, _arc_lengths,
    world units); by convexity any quasiconvex extension is pinned above
    the recorded level outside it.
    """

    kind: str                      # 'no_qc' or 'non_rotund'
    levels: np.ndarray             # alpha_n, increasing
    forcing_halfplanes: list       # world-coordinate HalfPlane per level
    arc_lengths: np.ndarray        # chord length of line-body meets
    witnesses: np.ndarray          # points where the extension is pinned
    jump: Optional[tuple] = None   # (alpha_1, alpha_last) for the jump pair
    frame: Optional[Frame] = field(default=None, metadata=_NOT_WRITTEN)
    params: dict = field(default_factory=dict)
    trend: dict = field(init=False)  # divergence_trend() at construction

    def __post_init__(self):
        self.trend = self.divergence_trend()

    def divergence_trend(self) -> dict:
        d = np.diff(self.levels)
        return {"increasing": bool(np.all(d > 0)),
                "last_level": float(self.levels[-1]),
                "min_gap": float(np.min(d)) if len(d) else 0.0}


@dataclass
class NoUCCertificate:
    """Collapsing separation of consecutive sublevel sets (no UC extension).

    gap_k = |y_{2k+1} + y_{2k-1} - 2 y_{2k}| bounds the distance between
    the forced sublevel separators and tends to zero, while consecutive
    levels stay at least bilip apart.
    """

    kind: ClassVar[str] = "no_uc"
    points: np.ndarray             # y_n along the boundary branch
    levels: np.ndarray             # alpha_n = h(y_n)
    bilip: float                   # sampled bi-Lipschitz lower constant
    halfplanes: list               # H_{2k}, world coordinates
    gaps: np.ndarray               # gap_k, k = 1..k_max
    h_normal: np.ndarray
    h_offset: float
    params: dict = field(default_factory=dict)

    def validate(self):
        """The chain it states: consecutive points 1 apart and levels
        h(points) = points . h_normal - h_offset, both within
        1e-12 max(1, the largest |point|); increasing levels; and level
        gaps at least bilip (1 - 1e-6) - 1e-12."""
        pts = np.asarray(self.points, dtype=float)
        slack = 1e-12 * max(1.0, float(np.linalg.norm(pts, axis=1).max()))
        if np.any(np.abs(np.linalg.norm(np.diff(pts, axis=0), axis=1) - 1.0) > slack):
            raise ConstructionError("chain links are not of unit length")
        if np.any(np.abs(self.levels - (pts @ self.h_normal - self.h_offset)) > slack):
            raise ConstructionError("levels differ from h at the chain points")
        lg = np.diff(self.levels)
        if np.any(lg <= 0):
            raise ConstructionError("levels along the chain do not increase")
        if np.any(lg < self.bilip * (1 - 1e-6) - 1e-12):
            raise ConstructionError("level gaps fell below the bi-Lipschitz bound")
        return True

    def tail_monotone_from(self) -> int:
        g = self.gaps
        k = len(g) - 1
        while k > 0 and g[k] <= g[k - 1] + 1e-12:
            k -= 1
        return k


@dataclass
class NoLipCertificate:
    """Lipschitz-constant blow-up table (no Lipschitz extension).

    Any extension with constant K must satisfy
    2^k (2 delta(eps/2^k) + alpha_{k+1}) >= gauge*eps/(8K); the vanishing
    left side forces the lower bounds K_k to explode.
    """

    kind: ClassVar[str] = "no_lip"
    eps: float
    gauge: float
    profile_samples: np.ndarray    # (z, g(z)) rows
    secant_gaps: np.ndarray        # delta(eps/2^k), k = 0..k_max
    alphas: np.ndarray             # alpha_k = 4^-k, k = 0..k_max+1
    levels: np.ndarray             # staircase plateau levels beta_k
    body_cuts: list                # D_k half-plane lists (frame coordinates)
    lines: list                    # l_k as (slope, intercept) rows
    p_points: np.ndarray           # P_k on the profile graph
    q_points: np.ndarray           # Q_k on l_{k+1}
    lip_lower_bounds: np.ndarray   # K_k
    products: np.ndarray           # 2^k (2 delta_k + alpha_{k+1})
    frame: Optional[Frame] = field(default=None, metadata=_NOT_WRITTEN)
    params: dict = field(default_factory=dict)

    def validate(self):
        if np.any(np.diff(self.lip_lower_bounds[2:]) <= 0):
            raise ConstructionError("Lipschitz lower bounds are not increasing")
        return True


# ---------------------------------------------------------------------------
# wedge staircases force the values of every extension

def _wedge_rows(eps, bs) -> np.ndarray:
    """Rows of the frame-coordinate wedges {s <= 1 + eps_n - (eps_n / b_n) t}:
    normal (eps_n / b_n, 1), offset its 1-D `@` product with (b_n, 1)."""
    n = np.column_stack([eps / bs, np.ones(len(bs))])
    at = np.column_stack([bs, np.ones(len(bs))])
    return as_rows(np.column_stack([n, (n[:, None, :] @ at[:, :, None])[:, 0, 0]]))


def _arc_lengths(C: Body2, frame: Frame, lines: np.ndarray, spans) -> np.ndarray:
    """Length of each line's meet with the body within |t| <= spans[k] of
    the foot of the frame origin on it, in world units; the lines, as rows,
    and the spans are in frame coordinates.

    The meet of a line with a convex body is its chord: one chord_ends call
    on the pulled-back lines, read as hi - lo (0 where the line misses), so
    a pinched sliver keeps its length however thin it is.
    """
    feet = frame.invert(lines[:, :2] * lines[:, 2:])
    span = chord_ends(C, CutTable(frame.pullback_rows(lines)), feet,
                      np.asarray(spans, dtype=float) / frame.lam)[3]
    return np.maximum(span[:, 1] - span[:, 0], 0.0)


def _wedge_staircase(C: Body2, frame: Frame, bs, spans):
    """The wedge construction shared by gen_no_qc and gen_non_rotund.

    In frame coordinates wedge n is {s <= 1 + eps_n - (eps_n / b_n) t} with
    eps_n = 2^-(n+1); its world pullback H_n, computed once, cuts the level
    body C ∩ H_n.  Gap n is the pinch distance from the corner
    (b_{n+1}, 1) to the line of wedge n, in world units (the last gap is
    repeated), and the levels are the running sums of the gaps from 0.
    The arc lengths are the chords of C on the lines of H_n within
    |t| <= spans[n], all k_max + 1 lines in one _arc_lengths call.
    The level bodies are CutLevels of C with one row H_n each, named
    wedge<n>: none is built here, each on the first evaluation that
    measures the distance to it, and an empty one raises GeometryError
    then.  Returns the staircase function, eps, the levels, the H_n and
    the arc lengths.
    """
    bs = np.asarray(bs, dtype=float)
    eps = 0.5 ** np.arange(1, len(bs) + 1)
    wedges = _wedge_rows(eps, bs)
    rows = frame.pullback_rows(wedges)
    bodies = CutLevels(C, rows[:, None], name="wedge")
    slope = eps[:-1] / bs[:-1]
    pinch = eps[:-1] * (bs[1:] / bs[:-1] - 1.0) / np.sqrt(1.0 + slope * slope)
    gaps = np.append(pinch, pinch[-1]) / frame.lam
    levels = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    f = staircase_qc(C, bodies, levels, gaps, check_gaps=False)
    arcs = _arc_lengths(C, frame, wedges, spans)
    return f, eps, levels, list(halfplanes_of(rows)), arcs


def gen_no_qc(C: Body2, k_max: int = 24):
    """Lipschitz QC function on a body with an asymptotic direction that
    admits no quasiconvex extension at all.

    Wedge sublevel bodies tilt into the asymptote; convexity forces any
    extension to exceed every level at the fixed witness point while the
    levels diverge.
    """
    found = find_asymptotic_direction(_given(C, k_max))
    if found is None:
        if C.bounded:
            raise ConstructionError("hypothesis failed: body is bounded "
                                    "(no asymptotic direction)")
        raise ConstructionError("hypothesis failed: no asymptotic direction found")
    v, x0 = found
    # supporting normal orthogonal to v on the witness side of the asymptote
    n = None
    for cand in (perp(v), -perp(v)):
        s_val = support(C, cand)
        if math.isfinite(s_val) and abs(float(cand @ x0) - s_val) < 1e-6 * (1 + abs(s_val)):
            n, s0 = cand, s_val
            break
    if n is None:
        raise ConstructionError("no finite supporting line orthogonal to the "
                                "asymptotic direction")
    # frame: t along v from the witness, s = n.p - s0 + 1 (so sup_C s = 1)
    R = np.vstack([v, n])
    shift = vec(0.0, 1.0 - (s0 - float(n @ C.witness)))
    frame = Frame(R=R, anchor=C.witness.copy(), shift=shift, lam=1.0)
    # b_{n+1} = 2 b_n (1 + 1/eps_n)
    bs = np.cumprod(np.concatenate([[1.0], 2.0 * (1.0 + 2.0 ** np.arange(1.0, k_max + 1))]))
    f, eps, levels, halfplanes, arcs = _wedge_staircase(C, frame, bs, 4.0 * bs + 8.0)
    witness = frame.invert(vec(0.0, 1.0 + eps[0])[None, :])[0]
    cert = ForcingCertificate(
        kind="no_qc", levels=levels, forcing_halfplanes=halfplanes,
        arc_lengths=arcs, witnesses=witness[None, :], frame=frame,
        params={"eps": eps.tolist(), "b": bs.tolist(),
                "direction": v.tolist(), "x0": np.asarray(x0).tolist()})
    return f, cert


def gen_non_rotund(C: Body2, k_max: int = 24):
    """Lipschitz QC function on a non-rotund body with no continuous QC
    extension: the forced limit along the boundary segment jumps.
    """
    seg = find_boundary_segment(_given(C, k_max))
    if seg is None:
        raise ConstructionError("hypothesis failed: body is rotund "
                                "(no boundary segment found)")
    # frame: segment end d -> (0, 1), start c -> (2, 1), interior below s = 1
    c_pt, d_pt = seg.a, seg.b
    lam = 2.0 / norm(c_pt - d_pt)
    R = np.vstack([unit(c_pt - d_pt), seg.n])
    frame = Frame(R=R, anchor=d_pt.copy(), shift=vec(0.0, 1.0), lam=lam)
    bs = 2.0 - 2.0 ** (-np.arange(0.0, k_max + 1))  # 1, 1.5, 1.75, ... -> 2
    f, eps, levels, halfplanes, arcs = _wedge_staircase(C, frame, bs, np.full(k_max + 1, 8.0))
    witnesses = frame.invert(np.column_stack([np.zeros(k_max + 1), 1.0 + eps]))
    cert = ForcingCertificate(
        kind="non_rotund", levels=levels, forcing_halfplanes=halfplanes,
        arc_lengths=arcs, witnesses=witnesses,
        jump=(float(levels[0]), float(levels[-1])), frame=frame,
        params={"eps": eps.tolist(), "b": bs.tolist(),
                "segment": [c_pt.tolist(), d_pt.tolist()]})
    return f, cert


# ---------------------------------------------------------------------------
# unbounded rotund bodies kill uniformly continuous extensions

def _chord_params(base: EpigraphBase, u, ahead: float, u_end: float, chords):
    """Per row, the graph parameter past u (toward u_end, ahead = +-1) where
    the chord from graph_point(u) first reaches its length; NaN where it
    does not before u_end.  gen_no_uc's half-chord net and short-chord
    probes are one call each; _unit_chain hands it, one link per call, the
    unit-chord links from the first one its Newton solve does not keep.

    The graph is a lam-isometric image of the profile's, so the chord to
    the point chords / lam ahead in u is at least chords long.  That point
    (or u_end) is the good end and u the bad end of
    f(s) = chords - |graph_point(s) - graph_point(u)|, which is 0 or less
    from the first crossing on; one newton_leq solves every row that
    reaches.  At s = u, where the distance has no derivative, f' is its
    one-sided limit -ahead |graph_tangent(u)|, so the first Newton step is
    the tangent's estimate chords / |graph_tangent(u)|.
    """
    u, chords = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(chords, dtype=float))
    anchors = base.graph_point(u)
    far = u + ahead * chords / base.scale
    far = np.minimum(far, u_end) if ahead > 0 else np.maximum(far, u_end)

    def f(t, anchors, chords):
        return chords - lengths(base.graph_point(t) - anchors)

    def df(t, anchors):
        rel, tangent = base.graph_point(t) - anchors, base.graph_tangent(t)
        dist = lengths(rel)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(dist > 0, -dots(rel, tangent) / dist, -ahead * lengths(tangent))

    out = np.full(u.shape, np.nan)
    reach = f(far, anchors, chords) <= 0
    if reach.any():
        a, c = anchors[reach], chords[reach]
        # f's terms: the chord, and graph_point's terms |G - shift| + |shift|
        # at t and at the anchor, with |G(t) - anchor| = chord - f
        terms = 2.0 * (c + lengths(a - base.shift) + norm(base.shift))
        out[reach] = newton_leq(lambda t, rows: f(t, a[rows], c[rows]),
                                lambda t, rows: df(t, a[rows]), u[reach], far[reach],
                                lambda t, f_t, df_t, rows: rounding_target(terms[rows] - f_t, df_t))
    return out


#: _unit_chain's Newton iterations at most; a link has converged once its
#: last step is at most _CHAIN_STOP_ULPS float spacings of the link's ends
_CHAIN_NEWTON_ITERS = 16
_CHAIN_STOP_ULPS = 4


def _unit_chain(base: EpigraphBase, u0: float, ahead: float, u_end: float, n: int) -> np.ndarray:
    """The graph parameters s_0 = u0, s_1, ..., s_n of n unit-chord links
    toward u_end (ahead = +-1): each link |G(s_i) - G(s_{i-1})|, with
    G = graph_point, is 1 to rounding, and NoUCCertificate.validate checks
    it to 1e-12 max(1, |point|).

    From the tangent steps s_{i+1} = s_i + ahead / |graph_tangent(s_i)|,
    Newton runs on all links at once: F_i = |G(s_i) - G(s_{i-1})| - 1 has
    the lower bidiagonal Jacobian a_i d_i - c_i d_{i-1} = -F_i,
    a_i = rel.T_i / |rel| and c_i = rel.T_{i-1} / |rel|, one graph_point
    and one graph_tangent call per iteration and a forward substitution.
    It stops once every step is at most _CHAIN_STOP_ULPS float spacings of
    its link's ends, or after _CHAIN_NEWTON_ITERS iterations.  The links
    before the first one whose step did not converge, that is not finite,
    or that lies behind its anchor or past _chord_params' far end
    (anchor + 1/scale, or u_end) are kept; from that one on the links are
    one _chord_params call each, and a link that does not reach its chord
    before u_end raises the exhausted branch's ConstructionError.
    """
    s = np.empty(n + 1)
    s[0] = u = float(u0)
    for i in range(n):
        u += ahead / (base.scale * math.hypot(1.0, float(base.profile.dg(u))))
        s[i + 1] = u
    step = np.empty(n)
    with np.errstate(all="ignore"):
        for _ in range(_CHAIN_NEWTON_ITERS):
            pts, tangents = base.graph_point(s), base.graph_tangent(s)
            rel = pts[1:] - pts[:-1]
            dist = np.hypot(rel[:, 0], rel[:, 1])
            a, c = dots(rel, tangents[1:]) / dist, dots(rel, tangents[:-1]) / dist
            d = 0.0
            for i, (ai, ci, fi) in enumerate(zip(a.tolist(), c.tolist(), (dist - 1.0).tolist())):
                d = (ci * d - fi) / ai if ai else math.nan
                step[i] = d
            s[1:] += step
            tol = _CHAIN_STOP_ULPS * np.spacing(np.maximum(np.abs(s[:-1]), np.abs(s[1:])))
            done = np.abs(step) <= tol
            # a NaN step (and every later one) goes to _chord_params
            if np.all(done | np.isnan(step)):
                break
        far = s[:-1] + ahead / base.scale
        far = np.minimum(far, u_end) if ahead > 0 else np.maximum(far, u_end)
        ok = done & (ahead * (s[1:] - s[:-1]) > 0) & (ahead * (far - s[1:]) >= 0)
    bad = np.flatnonzero(~ok)
    for i in range(bad[0] + 1 if len(bad) else n + 1, n + 1):
        s[i] = _chord_params(base, s[i - 1], ahead, u_end, 1.0)
        if math.isnan(s[i]):
            raise ConstructionError("boundary branch exhausted inside the window")
    return s


def gen_no_uc(C: Body2, k_max: int = 64):
    """Lipschitz QC function on an unbounded rotund asymptote-free body
    with no uniformly continuous QC extension.

    Unit-chord points y_n climb one boundary branch; the certificate shows
    the forced separation gap_k collapsing while level gaps stay >= bilip.
    The hypotheses leave an epigraph body whose boundary is one graph
    piece, so every chord is solved on the profile parameter u: the
    2 k_max + 2 unit-chord links in one Newton solve of the whole chain
    (_unit_chain, each link of unit length to rounding), the half-chord
    net and the short-chord probes each in one _chord_params call.  The
    bottom point c0 and the first chain point y1 are line-body meets
    (chord_ends); the chain, y1 included, is the graph points at the
    solved parameters.  The asymptotic-direction test reads the body's
    cached search (find_asymptotic_direction), so it costs nothing after
    characterize.  The certificate's validate() checks the unit links and
    levels it states.
    """
    if _given(C, k_max).bounded:
        raise ConstructionError("hypothesis failed: body is bounded")
    if not is_rotund(C):
        raise ConstructionError("hypothesis failed: body is not rotund")
    if find_asymptotic_direction(C) is not None:
        raise ConstructionError("hypothesis failed: body has an asymptotic direction")
    recc = C.recession_cone()
    if recc.kind == "ray":
        v = recc.d1
    elif recc.kind == "wedge":
        v = unit(recc.d1 + recc.d2)
    else:
        raise ConstructionError("hypothesis failed: recession cone contains a line")
    # bottom boundary point along -v (the lower end of the witness's line
    # along v) and its supporting functional; the construction's origin
    # sits on the recession ray just above it
    w, n_v = C.witness, np.array([v[1], -v[0]])
    ends, on_c, _, _ = chord_ends(C, CutTable([*n_v, n_v @ w]), [w], [C.window_half])
    if not on_c[0, 0]:
        raise ConstructionError("support geometry failed: no boundary point below "
                                "the witness")
    c0 = ends[0, 0]
    anchor = c0 + v * min(1.0, 0.5 * norm(w - c0))
    # a rotund unbounded body's chain is one graph piece
    chain = C.pieces()
    if len(chain) != 1 or not isinstance(chain[0], GraphPiece):
        raise ConstructionError("hypothesis failed: the branch is not a graph piece")
    piece, fan = chain[0], supporting_normals(C, c0)
    h = -unit(fan.lo + fan.hi)
    h_off = float(h @ anchor)

    def h_val(pts):
        return as_points(pts) @ h - h_off

    if h_val(c0[None, :])[0] >= 0:
        raise ConstructionError("support geometry failed: witness not above "
                                "the minimal level")
    # first chain point: where the level line h = 0 leaves the body forward
    # of c0, its lower chord end (the chain runs with the body on its left)
    ends, on_c, _, _ = chord_ends(C, CutTable([*h, h_off]), [anchor], [C.window_half])
    if not on_c[0, 0]:
        raise ConstructionError("level crossing not found along the boundary")
    base = piece.base
    ahead, u_end = (-1.0, piece.u0) if piece.flipped else (1.0, piece.u1)
    # unit-chord links; one that leaves the piece ends the branch in the window
    us = _unit_chain(base, float(base.to_profile(ends[0, :1])[0, 0]), ahead, u_end,
                     2 * k_max + 2)
    points = base.graph_point(us)
    alphas = h_val(points)
    if np.any(np.diff(alphas) <= 0):
        raise ConstructionError("levels along the branch failed to increase")
    # sampled bi-Lipschitz lower bound on a refined branch net: the
    # half-chord point after each chain point
    dense = np.empty((2 * len(points) - 1, 2))
    dense[0::2] = points
    dense[1::2] = base.graph_point(_chord_params(base, us[:-1], ahead, u_end, 0.5))
    dense = dense[~np.isnan(dense[:, 0])]
    dh = np.abs(h_val(dense)[None, :] - h_val(dense)[:, None])
    dd = np.linalg.norm(dense[None, :, :] - dense[:, None, :], axis=-1)
    mask = dd > 1e-9
    bilip = float(np.min(dh[mask] / dd[mask]))
    # the infimum lives at short chords near the flat start of the branch
    chords = 0.5 ** np.arange(1, 10)
    ys = base.graph_point(_chord_params(base, us[0], ahead, u_end, chords))
    hit = ~np.isnan(ys[:, 0])
    ratios = h_val(ys[hit]) / chords[hit]
    bilip = float(min([bilip, *ratios[ratios > 0]]))
    if bilip <= 0:
        raise ConstructionError("bi-Lipschitz estimate degenerated")
    halfplanes = []
    for k in range(1, k_max + 1):
        a, b = points[2 * k - 1], points[2 * k]  # 1-based chain indices 2k, 2k+1
        nline = unit(perp(b - a))
        off = float(nline @ a)
        if float(nline @ anchor) > off:
            nline, off = -nline, -off
        halfplanes.append(HalfPlane(nline, off))
    gaps = np.array([norm(points[2 * k] + points[2 * k - 2] - 2 * points[2 * k - 1])
                     for k in range(1, k_max + 1)])
    f = ramp_qc(C, h, points, alphas, halfplanes, bilip, h_offset=h_off)
    cert = NoUCCertificate(points=points, levels=np.asarray(alphas),
                           bilip=bilip, halfplanes=halfplanes, gaps=gaps,
                           h_normal=h, h_offset=h_off,
                           params={"c0": c0.tolist(), "anchor": anchor.tolist(),
                                   "k_max": k_max})
    cert.validate()
    return f, cert


# ---------------------------------------------------------------------------
# no body admits Lipschitz quasiconvex extensions

def _lower_profile(E: Body2, zs, frames=None) -> np.ndarray:
    """Smallest v in [0, 4] with (z, v) in the framed body for each z,
    NaN where the vertical line at z misses the body there.

    zs is (n,) in E's own coordinates (frames None), or (J, n) with row j
    in the coordinates of frames[j].  Membership is frame-invariant,
    (z, v) in frame(E) iff frame.invert((z, v)) in E, so the vertical line
    at z is o + (v / lam) R[1] in E's coordinates, and all of them are one
    chord_ends call on E over |v| <= 4.  The lower end of each chord,
    raised to 0, is the profile height.

    Assumes the framed body sits in {v >= 0}; only profile heights below
    4 are of interest (the construction needs g <= 1).
    """
    zs = np.asarray(zs, dtype=float)
    if frames is None:
        o = np.column_stack([zs, np.zeros_like(zs)])
        up, lam = np.tile(vec(0.0, 1.0), (len(o), 1)), np.ones(len(o))
    else:
        # Frame.invert of every (z, 0) in one pass, per coordinate
        R = np.array([f.R for f in frames])
        lam = np.array([f.lam for f in frames])
        shift = np.array([f.shift for f in frames])[:, None]
        rel = (np.stack([zs, np.zeros_like(zs)], axis=-1) - shift) / lam[:, None, None]
        o = (np.stack([dots(rel, R[:, None, :, 0]), dots(rel, R[:, None, :, 1])], axis=-1)
             + np.array([f.anchor for f in frames])[:, None]).reshape(-1, 2)
        up = np.repeat(R[:, 1], zs.shape[1], axis=0)
        lam = np.repeat(lam, zs.shape[1])
    n = np.column_stack([up[:, 1], -up[:, 0]])  # the lines run along up
    span = chord_ends(E, CutTable(np.column_stack([n, dots(o, n)])), o, 4.0 / lam)[3]
    lo = np.maximum(span[:, 0], 0.0)
    return np.where(lo <= span[:, 1], lam * lo, np.nan).reshape(zs.shape)


def gen_no_lip(E: Body2, k_max: int = 24, scan: int = 64):
    """Lipschitz QC function on an arbitrary body with no Lipschitz QC
    extension, with the blow-up certificate of the implied constants.

    The supporting direction maximizing the boundary secant gap is chosen
    (ties broken toward the lowest angle); the body is framed so the
    support point is the origin, the body sits in {v >= 0} and (0, 1) is
    interior.  The usable frames of the scan's directions come first; the
    lower profiles at (z0, z0/2) of all of them are then one
    _lower_profile call in E's coordinates, and only the chosen frame's
    body is built (transform_body).  The shelves C ∩ {u >= 3 z_k / 4} ∩
    {v >= slope_k u + alpha_k} are CutLevels of that body, named shelf<k>:
    none is built here, each on the first evaluation of f that measures
    the distance to it, and an empty one raises GeometryError then.  The
    certificate's validate() runs before the return, so one whose
    Lipschitz lower bounds do not increase raises ConstructionError.
    """
    thetas = [2.0 * math.pi * j / scan for j in range(scan)]
    dirs = np.array([[math.cos(theta), math.sin(theta)] for theta in thetas])
    usable = [(theta, frame) for theta, frame
              in zip(thetas, _no_lip_frames(_given(E, k_max), dirs)) if frame is not None]
    if not usable:
        raise ConstructionError("no usable supporting direction found")
    frames = [frame for _, frame in usable]
    z0 = 0.25 * np.minimum([frame.lam * E.clearance for frame in frames], 1.0)
    g_scan = _lower_profile(E, np.column_stack([z0, z0 / 2.0]), frames)
    best = None
    for (theta, frame), g in zip(usable, g_scan):
        if np.isnan(g).any():
            continue
        gap = 0.5 * g[0] - g[1]
        if best is None or gap > best[0] + 1e-15:
            best = (gap, theta, frame)
    if best is None:
        raise ConstructionError("no usable supporting direction found")
    _, theta, frame = best
    C = transform_body(E, frame, name="framed")
    lam = frame.lam
    # horizontal reach of the profile fixes the working eps
    z_scan = np.geomspace(1e-4, 8.0, 257)
    g = _lower_profile(C, z_scan)
    # the scan stops at the first z without a body point or with g > 1
    stop = ~(g <= 1.0)
    n = int(np.argmax(stop)) if stop.any() else len(z_scan)
    if n == 0:
        raise ConstructionError("boundary profile has no horizontal extent")
    z_ok = np.column_stack([z_scan[:n], g[:n]])
    eps = min(z_ok[-1, 0] / 2.0, 0.95)
    zs = eps / 2.0 ** np.arange(0, k_max + 2)
    g_at = _lower_profile(C, zs)
    if np.isnan(g_at).any():
        raise ConstructionError("no body point above the profile at u = "
                                f"{zs[np.isnan(g_at)][0]}")
    secant = 0.5 * g_at[:-1] - g_at[1:]          # delta(eps/2^k), k = 0..k_max
    secant = np.maximum(secant, 0.0)             # convexity up to roundoff
    alphas = 4.0 ** -np.arange(0.0, k_max + 2)   # side condition 2^k a_k -> 0
    # per shelf the rows of {u >= 3 z_k / 4} and {v >= slope_k u + alpha_k}
    z, a = zs[:k_max + 1], alphas[:k_max + 1]
    slope = (g_at[:k_max + 1] - a) / z
    one, zero = np.ones_like(z), np.zeros_like(z)
    rows = as_rows(np.column_stack([-one, zero, -0.75 * z, slope, -one, -a]).reshape(-1, 3))
    rows = rows.reshape(-1, 2, 3)
    betas = (eps / 4.0) * (2.0 - 2.0 ** (1.0 - np.arange(0.0, k_max + 1)))
    gaps = eps / 2.0 ** (np.arange(0.0, k_max + 1) + 2.0)
    shelves = CutLevels(C, rows, name="shelf")
    stair = staircase_qc(C, shelves, betas, gaps, check_gaps=False)

    def evaluate(pts):
        return stair.eval_many(frame.apply(pts))

    f = QCFunction(domain=E, eval_many=evaluate, lipschitz=lam,
                   meta={"kind": "no_lip", "frame": frame, "eps": eps,
                         "staircase": stair})
    p_pts = np.column_stack([zs[:-1], g_at[:-1]])
    q_pts = np.column_stack([zs[:-1], 2.0 * g_at[1:] - alphas[1: k_max + 2]])
    products = 2.0 ** np.arange(0.0, k_max + 1) * (2.0 * secant + alphas[1: k_max + 2])
    k_bounds = lam * eps / (2.0 ** (np.arange(0.0, k_max + 1) + 3.0)
                            * (2.0 * secant + alphas[1: k_max + 2]))
    cert = NoLipCertificate(
        eps=eps, gauge=lam,
        profile_samples=z_ok, secant_gaps=secant, alphas=alphas,
        levels=betas, body_cuts=[list(halfplanes_of(r)) for r in rows],
        lines=list(zip(slope.tolist(), a.tolist())),
        p_points=p_pts, q_points=q_pts,
        lip_lower_bounds=k_bounds, products=products, frame=frame,
        params={"theta": theta, "k_max": k_max, "g_eps": float(g_at[0])})
    cert.validate()
    return f, cert


def _no_lip_frames(E: Body2, dirs: np.ndarray) -> list:
    """For each (N, 2) direction row, the frame rotating it onto -v, its
    support point to the origin, scaled so (0, 1) is interior; None where
    the direction is unusable (infinite support or no interior along the
    inward normal).

    The frame's v axis is the inward normal pt + t R[1].  All rows share
    one support_point call and one margin call at t = 2; a row whose t = 2
    lies outside reads its exit as the upper end of the inward normal's
    chord over |t| <= 2 (one chord_ends call for all such rows) and halves
    it, within [1e-6, 1]; a chord that misses the interior (a corner where
    the inward normal leaves at once) makes the row unusable.
    """
    _, pts = support_point(E, dirs)
    rows = np.flatnonzero(~np.isnan(pts[:, 0]))
    frames = [None] * len(dirs)
    if not len(rows):
        return frames
    rots = [_rotation_to(dirs[i], vec(0.0, -1.0)) for i in rows]
    base = pts[rows]
    inward = np.array([R[1] for R in rots])
    t_hi = 2.0
    t0 = np.ones(len(rows))
    out = np.flatnonzero(~(E.margin_many(base + t_hi * inward) <= 0))
    if len(out):
        n = np.column_stack([inward[out, 1], -inward[out, 0]])  # the lines run along inward
        _, _, meets, span = chord_ends(E, CutTable(np.column_stack([n, dots(base[out], n)])),
                                       base[out], np.full(len(out), t_hi))
        t0[out] = np.where(meets, np.clip(span[:, 1] / 2.0, 1e-6, 1.0), np.nan)
    for i, R, p, t in zip(rows, rots, base, t0):
        if not np.isnan(t):
            frames[i] = Frame(R=R, anchor=p.copy(), shift=np.zeros(2), lam=1.0 / t)
    return frames


# ---------------------------------------------------------------------------
# the fixed upper-semicontinuous counterexample

@dataclass
class UscWitness:
    """The usc counterexample's two pinned values and its forcing data."""

    kind: ClassVar[str] = "usc"
    domain: Body2
    value_bottom: float     # f(0, -1)
    value_corner: float     # f(0, 0)
    ball_center: np.ndarray
    forcing_segment: tuple  # ((0, 1/3), (1, 1/3)) with open ends


def gen_usc_counterexample():
    """Upper semicontinuous QC function on [0,1] x [-1,1] with no usc QC
    extension: 0 below the axis, y on the open vertical strip, 1 elsewhere.
    """
    domain = Body2.from_polychain([(0.0, -1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 1.0)],
                                  name="usc_rectangle")

    def evaluate(pts):
        pts = as_points(pts)
        x, y = pts[:, 0], pts[:, 1]
        out = np.ones(pts.shape[0])
        out[y < 0] = 0.0
        strip = (x > 0) & (x < 1) & (y >= 0) & (y <= 1)
        out[strip] = y[strip]
        return out

    f = QCFunction(domain=domain, eval_many=evaluate,
                   meta={"kind": "usc_counterexample"})
    wit = UscWitness(domain=domain, value_bottom=f.eval_one((0.0, -1.0)),
                     value_corner=f.eval_one((0.0, 0.0)),
                     ball_center=vec(0.0, -1.0),
                     forcing_segment=((0.0, 1.0 / 3.0), (1.0, 1.0 / 3.0)))
    return f, wit


#: certificate kind -> (certificate class, generator).  A certificate's kind
#: attribute is its key here and its JSON "kind"; every generator is called
#: as generator(body, k_max=...) and returns (function, certificate); the
#: usc counterexample has its own domain and size and takes neither.
CERTIFICATES = {
    "no_qc": (ForcingCertificate, gen_no_qc),
    "non_rotund": (ForcingCertificate, gen_non_rotund),
    "no_uc": (NoUCCertificate, gen_no_uc),
    "no_lip": (NoLipCertificate, gen_no_lip),
    "usc": (UscWitness, lambda C, k_max: gen_usc_counterexample()),
}


# ---------------------------------------------------------------------------
# classification

@dataclass
class Classification:
    predicates: dict
    extendability_class: str
    denied: dict     # grade -> generator producing the witness
    granted: list    # grades the extension machinery supports
    evidence: dict = field(default_factory=dict)


def characterize(C: Body2) -> Classification:
    """Classify a body by which quasiconvex extension grades it admits."""
    asym = find_asymptotic_direction(C)
    rotund = is_rotund(C)
    bounded = C.bounded
    preds = {
        "bounded": bounded,
        "rotund": rotund,
        "has_asymptotic_direction": asym is not None,
    }
    evidence = {}
    if asym is not None:
        evidence["asymptotic_direction"] = np.asarray(asym[0]).tolist()
        evidence["asymptotic_witness"] = np.asarray(asym[1]).tolist()
    seg = find_boundary_segment(C)
    if seg is not None:
        evidence["boundary_segment"] = [seg.a.tolist(), seg.b.tolist()]
    denied = {"lipschitz": "gen_no_lip"}  # no body admits Lipschitz extensions
    if asym is not None:
        cls = "NOT_QC_EXTENDABLE"
        denied.update({"qc": "gen_no_qc", "continuous": "gen_no_qc",
                       "uniformly_continuous": "gen_no_qc"})
        granted = []
    elif bounded and rotund:
        cls = "UC_EXTENDABLE"
        granted = ["uniformly_continuous", "continuous", "qc"]
    elif rotund:
        cls = "C_EXTENDABLE"
        denied["uniformly_continuous"] = "gen_no_uc"
        granted = ["continuous", "qc"]
    else:
        cls = "QC_EXTENDABLE"
        denied.update({"continuous": "gen_non_rotund",
                       "uniformly_continuous": "gen_non_rotund"})
        granted = ["qc"]
    return Classification(predicates=preds, extendability_class=cls,
                          denied=denied, granted=granted, evidence=evidence)
