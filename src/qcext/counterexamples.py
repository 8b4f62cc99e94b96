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
from typing import Optional

import numpy as np

from .geometry import (
    BallBase,
    Body2,
    EpigraphBase,
    HalfPlane,
    PlaneBase,
    along,
    as_point,
    as_points,
    bisect_leq,
    boundary_crossing,
    cross2,
    feasible_ends,
    find_asymptotic_direction,
    find_boundary_segment,
    golden_min,
    is_rotund,
    locate_on_boundary,
    norm,
    perp,
    support,
    support_point,
    supporting_normals,
    unit,
    vec,
    walk_to_chord,
    walk_until,
)
from .levelset import QCFunction, ramp_qc, staircase_qc


class ConstructionError(ValueError):
    """A generator's hypothesis on the body failed; the message names it."""


# ---------------------------------------------------------------------------
# frames

@dataclass(frozen=True)
class Frame:
    """Affine map q = lam * R (p - anchor) + shift with R orthogonal."""

    R: np.ndarray
    anchor: np.ndarray
    shift: np.ndarray
    lam: float = 1.0

    def apply(self, pts):
        return self.lam * ((as_points(pts) - self.anchor) @ self.R.T) + self.shift

    def invert(self, qts):
        return ((as_points(qts) - self.shift) / self.lam) @ self.R + self.anchor

    def pullback_halfplane(self, hp: HalfPlane) -> HalfPlane:
        # {n.q <= c} in frame coords -> half-plane in world coords
        n_world = self.R.T @ hp.normal
        c_world = (hp.offset - float(hp.normal @ self.shift)) / self.lam \
            + float(n_world @ self.anchor)
        return HalfPlane(n_world, c_world)


def _rotation_to(d_from, d_to) -> np.ndarray:
    a = unit(np.asarray(d_from, dtype=float))
    b = unit(np.asarray(d_to, dtype=float))
    cos = float(a @ b)
    sin = float(cross2(a, b))
    return np.array([[cos, -sin], [sin, cos]])


def transform_body(E: Body2, frame: Frame, name: str = "") -> Body2:
    """Image of a body under a frame (scaled isometry)."""
    M = frame.lam * frame.R

    def fwd_hp(hp: HalfPlane) -> HalfPlane:
        n_new = frame.R @ hp.normal
        c_new = frame.lam * (hp.offset - float(hp.normal @ frame.anchor)) \
            + float(n_new @ frame.shift)
        return HalfPlane(n_new, c_new)

    cuts = [fwd_hp(hp) for hp in E.cuts]
    if isinstance(E.base, PlaneBase):
        return Body2(PlaneBase(), cuts, name=name)
    if isinstance(E.base, BallBase):
        c_new = frame.apply(E.base.center[None, :])[0]
        return Body2(BallBase(c_new, frame.lam * E.base.radius), cuts, name=name)
    if isinstance(E.base, EpigraphBase):
        eb = E.base
        M_new = M @ eb.M
        shift_new = frame.apply(eb.shift[None, :])[0]
        return Body2(EpigraphBase(eb.profile, M_new, shift_new), cuts, name=name)
    raise ConstructionError("unknown base representation")


# ---------------------------------------------------------------------------
# certificate containers

@dataclass
class ProjectionMap:
    """Linear map onto the construction plane with its covering gauge.

    gauge * (unit ball of the target) is contained in the image of the
    source unit ball; for the planar scaled isometries used here the gauge
    equals the scale factor.
    """

    matrix: np.ndarray
    gauge: float

    def __post_init__(self):
        self.matrix = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if self.gauge <= 0:
            raise ConstructionError("projection gauge must be positive")


@dataclass
class ForcingCertificate:
    """Evidence that convexity forces unbounded or jumping extension values.

    Each forcing half-plane's boundary line meets the body in an arc of
    positive length; by convexity any quasiconvex extension is pinned above
    the recorded level outside it.
    """

    kind: str                      # 'no_qc' or 'non_rotund'
    levels: np.ndarray             # alpha_n, increasing
    forcing_halfplanes: list       # world-coordinate HalfPlane per level
    arc_lengths: np.ndarray        # sampled chord length of line-body meets
    witnesses: np.ndarray          # points where the extension is pinned
    jump: Optional[tuple] = None   # (alpha_1, alpha_last) for the jump pair
    frame: Optional[Frame] = None
    params: dict = field(default_factory=dict)

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

    points: np.ndarray             # y_n along the boundary branch
    levels: np.ndarray             # alpha_n = h(y_n)
    bilip: float                   # sampled bi-Lipschitz lower constant
    halfplanes: list               # H_{2k}, world coordinates
    gaps: np.ndarray               # gap_k, k = 1..k_max
    h_normal: np.ndarray
    h_offset: float
    params: dict = field(default_factory=dict)

    def validate(self, tol: float = 1e-6):
        lg = np.diff(self.levels)
        if np.any(lg < self.bilip * (1 - tol) - 1e-12):
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
    frame: Frame = None
    projection: Optional["ProjectionMap"] = None
    params: dict = field(default_factory=dict)

    def monotone_from(self) -> int:
        p = self.products
        k = len(p) - 1
        while k > 0 and p[k] < p[k - 1] - 1e-15:
            k -= 1
        return k

    def validate(self):
        if np.any(np.diff(self.lip_lower_bounds[2:]) <= 0):
            raise ConstructionError("Lipschitz lower bounds are not increasing")
        return True


# ---------------------------------------------------------------------------
# asymptotic directions kill every quasiconvex extension

def _wedge_halfplane(eps_n: float, b_n: float) -> HalfPlane:
    # frame-coordinates half-plane {s <= 1 + eps_n - (eps_n/b_n) t}
    slope = eps_n / b_n
    n = np.array([slope, 1.0])
    return HalfPlane.from_any(n, float(n @ vec(b_n, 1.0)))


def _line_body_arc_length(C: Body2, hp: HalfPlane, t_grid: np.ndarray,
                          frame: Frame, focus: Optional[np.ndarray] = None) -> float:
    """Sampled chord length of the half-plane boundary inside the body.

    Pure membership arithmetic, so it stays valid far outside the working
    window of the boundary pieces.  The meet of a line with a convex body is
    one interval around the deepest sample; its ends are bisected from the
    nearest outside samples on either side.  A geometric grid around the
    focus point resolves pinched slivers.
    """
    d = perp(hp.normal)
    anchor = hp.normal * hp.offset
    if focus is not None:
        tau = float((as_point(focus) - anchor) @ d)
        fine = np.geomspace(1e-12, max(np.abs(t_grid).max(), 1.0), 240)
        t_grid = np.sort(np.concatenate([t_grid, tau + fine, tau - fine, [tau]]))

    m = along(C.margin_many, lambda t: frame.invert(anchor + np.multiply.outer(t, d)))
    vals = m(t_grid)
    j = int(np.argmin(vals))
    t_star, m_star = t_grid[j], vals[j]
    if m_star >= 0:
        lo = t_grid[max(j - 1, 0)]
        hi = t_grid[min(j + 1, len(t_grid) - 1)]
        t_star, m_star = golden_min(m, lo, hi, iters=90)
        if m_star >= 0:
            return 0.0
    # the nearest outside samples on either side of t_star bracket the ends
    out_lo = t_grid[(t_grid < t_star) & (vals > 0)]
    out_hi = t_grid[(t_grid > t_star) & (vals > 0)]
    t_lo = out_lo[-1] if len(out_lo) else (t_grid[0] if t_grid[0] < t_star else t_star - 1.0)
    t_hi = out_hi[0] if len(out_hi) else (t_grid[-1] if t_grid[-1] > t_star else t_star + 1.0)
    a, b = feasible_ends(m, (t_lo, t_hi), t_star)
    return float(max(b - a, 0.0)) / frame.lam


def gen_no_qc(C: Body2, k_max: int = 24):
    """Lipschitz QC function on a body with an asymptotic direction that
    admits no quasiconvex extension at all.

    Wedge sublevel bodies tilt into the asymptote; convexity forces any
    extension to exceed every level at the fixed witness point while the
    levels diverge.
    """
    found = find_asymptotic_direction(C)
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

    eps = 0.5 ** np.arange(1, k_max + 2)
    bs = [1.0]
    for nn in range(k_max):
        bs.append(2.0 * bs[-1] * (1.0 + 1.0 / eps[nn]))
    bs = np.array(bs)
    wedges = [_wedge_halfplane(eps[i], bs[i]) for i in range(k_max + 1)]
    bodies = [C.clip([frame.pullback_halfplane(w)], name=f"wedge{i}")
              for i, w in enumerate(wedges)]
    # gap lower bound: distance from the corner (b_{n+1}, 1) to the line l_n
    gaps = []
    for i in range(k_max):
        slope = eps[i] / bs[i]
        gaps.append(eps[i] * (bs[i + 1] / bs[i] - 1.0) / math.sqrt(1.0 + slope * slope))
    gaps.append(gaps[-1])
    levels = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    f = staircase_qc(C, bodies, levels, gaps, check_gaps=False)
    arc_lengths = []
    for i, w in enumerate(wedges):
        span = 4.0 * bs[i] + 8.0
        grid = np.linspace(-span, span, 8193)
        arc_lengths.append(_line_body_arc_length(C, w, grid, frame,
                                                 focus=vec(bs[i], 1.0)))
    witness = frame.invert(vec(0.0, 1.0 + eps[0])[None, :])[0]
    cert = ForcingCertificate(
        kind="no_qc", levels=levels,
        forcing_halfplanes=[frame.pullback_halfplane(w) for w in wedges],
        arc_lengths=np.array(arc_lengths), witnesses=witness[None, :],
        frame=frame,
        params={"eps": eps[: k_max + 1].tolist(), "b": bs.tolist(),
                "direction": v.tolist(), "x0": np.asarray(x0).tolist()})
    return f, cert


# ---------------------------------------------------------------------------
# a boundary segment kills continuous quasiconvex extensions

def gen_non_rotund(C: Body2, k_max: int = 24, min_segment: float = 1e-6):
    """Lipschitz QC function on a non-rotund body with no continuous QC
    extension: the forced limit along the boundary segment jumps.
    """
    seg = find_boundary_segment(C, min_segment)
    if seg is None:
        raise ConstructionError("hypothesis failed: body is rotund "
                                "(no boundary segment found)")
    # frame: segment end d -> (0, 1), start c -> (2, 1), interior below s = 1
    c_pt, d_pt = seg.a, seg.b
    lam = 2.0 / norm(c_pt - d_pt)
    e_t = unit(c_pt - d_pt)
    e_s = seg.n
    R = np.vstack([e_t, e_s])
    frame = Frame(R=R, anchor=d_pt.copy(), shift=vec(0.0, 1.0), lam=lam)

    eps = 0.5 ** np.arange(1, k_max + 2)
    bs = 2.0 - 2.0 ** (-np.arange(0.0, k_max + 1))  # 1, 1.5, 1.75, ... -> 2
    wedges = [_wedge_halfplane(eps[i], bs[i]) for i in range(k_max + 1)]
    bodies = [C.clip([frame.pullback_halfplane(w)], name=f"wedge{i}")
              for i, w in enumerate(wedges)]
    gaps = []
    for i in range(k_max):
        slope = eps[i] / bs[i]
        pinch = eps[i] * (bs[i + 1] / bs[i] - 1.0) / math.sqrt(1.0 + slope * slope)
        gaps.append(pinch / lam)  # world distances
    gaps.append(gaps[-1])
    levels = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    f = staircase_qc(C, bodies, levels, gaps, check_gaps=False)
    arc_lengths = []
    for i, w in enumerate(wedges):
        grid = np.linspace(-8.0, 8.0, 8193)
        arc_lengths.append(_line_body_arc_length(C, w, grid, frame,
                                                 focus=vec(bs[i], 1.0)))
    witnesses = frame.invert(np.column_stack([np.zeros(k_max + 1), 1.0 + eps[: k_max + 1]]))
    cert = ForcingCertificate(
        kind="non_rotund", levels=levels,
        forcing_halfplanes=[frame.pullback_halfplane(w) for w in wedges],
        arc_lengths=np.array(arc_lengths), witnesses=witnesses,
        jump=(float(levels[0]), float(levels[-1])), frame=frame,
        params={"eps": eps[: k_max + 1].tolist(), "b": bs.tolist(),
                "segment": [c_pt.tolist(), d_pt.tolist()]})
    return f, cert


# ---------------------------------------------------------------------------
# unbounded rotund bodies kill uniformly continuous extensions

def gen_no_uc(C: Body2, k_max: int = 64, branch_samples: int = 6):
    """Lipschitz QC function on an unbounded rotund asymptote-free body
    with no uniformly continuous QC extension.

    Unit-chord points y_n climb one boundary branch; the certificate shows
    the forced separation gap_k collapsing while level gaps stay >= bilip.
    """
    if C.bounded:
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
    # bottom boundary point along -v and its supporting functional; the
    # construction's origin sits on the recession ray just above it
    c0 = boundary_crossing(C, C.witness, C.witness - 1e6 * v)
    anchor = c0 + v * min(1.0, 0.5 * norm(C.witness - c0))
    fan = supporting_normals(C, c0)
    h = -unit(fan.lo + fan.hi)
    h_off = float(h @ anchor)

    def h_val(pts):
        return as_points(pts) @ h - h_off

    if h_val(c0[None, :])[0] >= 0:
        raise ConstructionError("support geometry failed: witness not above "
                                "the minimal level")
    # first chain point: walk forward from c0 to the h = 0 crossing
    hit = walk_until(C, locate_on_boundary(C, c0), +1.0, max(C.clearance / 8.0, 1e-3),
                     lambda p: p @ h - h_off >= 0.0, 80)
    if hit is None:
        raise ConstructionError("level crossing not found along the boundary")
    y1 = hit[1]
    points = [y1]
    params = [locate_on_boundary(C, y1)]
    for _ in range(2 * k_max + 2):
        res = walk_to_chord(C, params[-1], +1.0, 1.0, points[-1])
        if res is None:
            raise ConstructionError("boundary branch exhausted inside the window")
        prm, pt = res
        params.append(prm)
        points.append(pt)
    points = np.array(points)
    alphas = h_val(points)
    if np.any(np.diff(alphas) <= 0):
        raise ConstructionError("levels along the branch failed to increase")
    # sampled bi-Lipschitz lower bound on a refined branch net
    dense = [points[0]]
    for i in range(len(points) - 1):
        res = walk_to_chord(C, params[i], +1.0, 0.5, points[i])
        if res is not None:
            dense.append(res[1])
        dense.append(points[i + 1])
    dense = np.array(dense)
    dh = np.abs(h_val(dense)[None, :] - h_val(dense)[:, None])
    dd = np.linalg.norm(dense[None, :, :] - dense[:, None, :], axis=-1)
    mask = dd > 1e-9
    bilip = float(np.min(dh[mask] / dd[mask]))
    # the infimum lives at short chords near the flat start of the branch
    for chord in 0.5 ** np.arange(1, 10):
        res = walk_to_chord(C, params[0], +1.0, float(chord), y1)
        if res is not None:
            ratio = float(h_val(res[1][None, :])[0]) / float(chord)
            if 0 < ratio < bilip:
                bilip = ratio
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

#: z values per batch of lower-profile solves; bounds the (batch, 257) grid
_Z_BATCH = 16


def _lower_profile(C: Body2, zs, v_max: float = 4.0, iters: int = 100) -> np.ndarray:
    """Smallest v with (z, v) in C for each z, by bisection on the membership
    margin, _Z_BATCH values of z at a time; NaN where no body point lies
    above z below v_max.

    Assumes the framed body sits in {v >= 0}; only profile heights below
    v_max are of interest (the construction needs g <= 1).
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
    vs = np.linspace(0.0, v_max, 257)
    out = np.full(len(zs), np.nan)
    for s in range(0, len(zs), _Z_BATCH):
        z = zs[s:s + _Z_BATCH]
        m = C.margin_many(np.column_stack([np.repeat(z, len(vs)), np.tile(vs, len(z))]))
        m = m.reshape(len(z), len(vs))
        j = np.argmin(m, axis=1)
        ok = m.min(axis=1) < 0
        if ok.any():
            z_in = z[ok]
            f = along(C.margin_many, lambda v: np.column_stack([z_in, v]))
            out[s:s + len(z)][ok] = bisect_leq(f, -0.5, vs[j[ok]], iters)
    return out


def gen_no_lip(E: Body2, k_max: int = 24, scan: int = 64):
    """Lipschitz QC function on an arbitrary body with no Lipschitz QC
    extension, with the blow-up certificate of the implied constants.

    The supporting direction maximizing the boundary secant gap is chosen
    (ties broken toward the lowest angle); the body is framed so the
    support point is the origin, the body sits in {v >= 0} and (0, 1) is
    interior.
    """
    best = None
    for j in range(scan):
        theta = 2.0 * math.pi * j / scan
        d = vec(math.cos(theta), math.sin(theta))
        frame = _no_lip_frame(E, d)
        if frame is None:
            continue
        C = transform_body(E, frame, name="framed")
        z0 = 0.25 * min(frame.lam * E.clearance, 1.0)
        g = _lower_profile(C, [z0, z0 / 2.0])
        if np.isnan(g).any():
            continue
        gap = 0.5 * g[0] - g[1]
        if best is None or gap > best[0] + 1e-15:
            best = (gap, theta, frame, C)
    if best is None:
        raise ConstructionError("no usable supporting direction found")
    _, theta, frame, C = best
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
    cuts, lines, bodies = [], [], []
    for k in range(k_max + 1):
        zk = zs[k]
        slope = (g_at[k] - alphas[k]) / zk
        hp_u = HalfPlane.from_any(vec(-1.0, 0.0), -0.75 * zk)
        hp_line = HalfPlane.from_any(vec(slope, -1.0), -alphas[k])
        cuts.append([hp_u, hp_line])
        lines.append((float(slope), float(alphas[k])))
        bodies.append(C.clip([hp_u, hp_line], name=f"shelf{k}"))
    betas = (eps / 4.0) * (2.0 - 2.0 ** (1.0 - np.arange(0.0, k_max + 1)))
    gaps = eps / 2.0 ** (np.arange(0.0, k_max + 1) + 2.0)
    stair = staircase_qc(C, bodies, betas, gaps, check_gaps=False)

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
        levels=betas, body_cuts=cuts, lines=lines,
        p_points=p_pts, q_points=q_pts,
        lip_lower_bounds=k_bounds, products=products, frame=frame,
        projection=ProjectionMap(lam * frame.R, lam),
        params={"theta": theta, "k_max": k_max, "g_eps": float(g_at[0])})
    return f, cert


def _no_lip_frame(E: Body2, d: np.ndarray) -> Optional[Frame]:
    """Frame rotating the supporting direction onto -v, the support point to
    the origin, scaled so (0, 1) is interior; None if the direction is
    unusable (infinite support or no interior along the inward normal)."""
    val, pt = support_point(E, d)
    if pt is None:
        return None
    R = _rotation_to(d, vec(0.0, -1.0))
    probe = Frame(R=R, anchor=pt.copy(), shift=np.zeros(2), lam=1.0)
    C0 = transform_body(E, probe)

    mg = along(C0.margin_many, lambda t: np.multiply.outer(t, vec(0.0, 1.0)))
    t_hi = 2.0
    if mg(t_hi) <= 0:
        t0 = 1.0
    else:
        ts = np.geomspace(1e-6, t_hi, 64)
        inside = ts[mg(ts) < 0]
        if not len(inside):
            return None  # corner support: the inward normal leaves at once
        t_in = inside[len(inside) // 2]
        t_exit = bisect_leq(mg, t_hi, t_in, 80)
        t0 = max(min(t_exit / 2.0, 1.0), 1e-6)
    return Frame(R=R, anchor=pt.copy(), shift=np.zeros(2), lam=1.0 / t0)


# ---------------------------------------------------------------------------
# the fixed upper-semicontinuous counterexample

@dataclass
class UscWitness:
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


# ---------------------------------------------------------------------------
# classification

@dataclass
class Classification:
    predicates: dict
    extendability_class: str
    denied: dict     # grade -> generator producing the witness
    granted: list    # grades the extension machinery supports
    evidence: dict = field(default_factory=dict)

    def summary(self) -> str:
        return self.extendability_class


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
