"""Planar convex-body kernel.

Bodies are closed convex proper subsets of the plane with nonempty
interior, stored as an analytic base (none, ball, or the epigraph of a
convex profile under a scaled isometry) intersected with a list of
half-planes.  All predicates are tolerance-based; evaluation paths accept
(N, 2) point arrays.

The root finders (`bisect_leq`, `golden_min`, `coarse_golden_min`) take
numpy-broadcasting closures: `f(t)` returns an array shaped like `t`
(`along` builds one from a point path).  `bisect_leq` solves an array of
brackets in one loop; `coarse_golden_min` evaluates each grid in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

TOL = 1e-9            # absolute tolerance for geometric predicates
RESOLUTION = 2048     # default boundary sampling resolution
WINDOW_MULT = 1024.0  # working window half-size = WINDOW_MULT * witness clearance

TWO_PI = 2.0 * math.pi
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class GeometryError(ValueError):
    """Raised when an operation's geometric precondition fails."""


# ---------------------------------------------------------------------------
# vectors

def vec(x: float, y: float) -> np.ndarray:
    return np.array([float(x), float(y)])


def as_point(p) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.shape != (2,):
        raise GeometryError(f"expected a 2-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise GeometryError("point has non-finite components")
    return a


def as_points(pts) -> np.ndarray:
    a = np.atleast_2d(np.asarray(pts, dtype=float))
    if a.shape[-1] != 2:
        raise GeometryError("expected points of shape (N, 2)")
    return a


def norm(v) -> float:
    return float(math.hypot(v[0], v[1]))


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = math.hypot(v[0], v[1])
    if n == 0.0:
        raise GeometryError("cannot normalize the zero vector")
    return v / n


def perp(v) -> np.ndarray:
    """Rotate by +90 degrees (counterclockwise)."""
    return np.array([-v[1], v[0]])


def cross2(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def angle_of(v) -> float:
    """Angle in [0, 2*pi)."""
    a = math.atan2(v[1], v[0])
    return a + TWO_PI if a < 0 else a


def dir_of(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


def ccw_span(a: float, b: float) -> float:
    """Counterclockwise angular distance from a to b, in [0, 2*pi)."""
    return (b - a) % TWO_PI


def golden_min(f, a: float, b: float, iters: int = 80):
    """Scalar golden-section minimum of f on [a, b]; one f call per step."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    t = 0.5 * (a + b)
    return t, f(t)


def coarse_golden_min(f, a: float, b: float, samples: int = 257, iters: int = 90,
                      stages: int = 6):
    """Golden-section minimum seeded by staged coarse-grid argmins.

    Re-grids the bracket while its samples show a flat plateau, so narrow
    basins inside wide clipped-profile plateaus are not lost.  Each grid is
    one f call.
    """
    lo, hi = float(a), float(b)
    for _ in range(stages):
        us = np.linspace(lo, hi, samples)
        vals = f(us)
        j = int(np.argmin(vals))
        lo = float(us[max(j - 1, 0)])
        hi = float(us[min(j + 1, samples - 1)])
        # exactly equal neighbor samples signal a clipped plateau inside the
        # bracket; golden section would wander off it, so re-grid instead
        plateau = ((j >= 2 and vals[j - 1] == vals[j - 2])
                   or (j + 2 < samples and vals[j + 1] == vals[j + 2]))
        if not plateau or hi - lo <= 1e-12 * (abs(hi) + abs(lo) + 1.0):
            break
    return golden_min(f, lo, hi, iters=iters)


def bisect_leq(f, bad, good, iters: int = 80):
    """Crossing points between f(bad) > 0 and f(good) <= 0.

    bad and good broadcast to an array of brackets that are bisected
    together, one f call per step; returns the good sides, a scalar for a
    scalar bracket.
    """
    bad, good = np.broadcast_arrays(np.asarray(bad, dtype=float),
                                    np.asarray(good, dtype=float))
    for _ in range(iters):
        mid = 0.5 * (bad + good)
        ok = f(mid) <= 0
        good = np.where(ok, mid, good)
        bad = np.where(ok, bad, mid)
    return good[()]


def along(fn, path):
    """Broadcasting closure t -> fn(path(t)) shaped like t, for an fn that
    maps (N, 2) points to N values (a margin, an offset)."""
    return lambda t: fn(as_points(path(t))).reshape(np.shape(t))


def feasible_ends(f, ends, inner):
    """The ends where f > 0 moved onto the f <= 0 crossing toward inner, all
    in one bisection; ends where f <= 0 stay."""
    ends = np.array(ends, dtype=float)
    out = f(ends) > 0
    if out.any():
        ends[out] = bisect_leq(f, ends[out], inner)
    return ends


# ---------------------------------------------------------------------------
# half-planes

@dataclass(frozen=True)
class HalfPlane:
    """Closed half-plane {p : normal . p <= offset} with a unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if abs(norm(n) - 1.0) > 1e-7:
            n = unit(n)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset))

    @staticmethod
    def from_any(normal, offset: float) -> "HalfPlane":
        n = np.asarray(normal, dtype=float)
        s = norm(n)
        if s == 0.0:
            raise GeometryError("half-plane normal must be nonzero")
        return HalfPlane(n / s, float(offset) / s)

    def value(self, pts: np.ndarray) -> np.ndarray:
        """Signed margin; <= 0 inside, equals the distance outside."""
        return as_points(pts) @ self.normal - self.offset

    def contains(self, p, tol: float = TOL) -> bool:
        return bool(self.value(p)[0] <= tol)

    def direction(self) -> np.ndarray:
        """Boundary direction with the half-plane on its left."""
        return perp(self.normal)


def halfplane_through(a, b) -> HalfPlane:
    """Half-plane whose boundary passes a -> b with the interior on the left."""
    a = as_point(a)
    b = as_point(b)
    d = unit(b - a)
    n = -perp(d)
    return HalfPlane(n, float(n @ a))


def halfplane_ray(anchor, direction) -> HalfPlane:
    """Half-plane bounded by the line through anchor with the given direction,
    interior on the left of the direction."""
    d = unit(np.asarray(direction, dtype=float))
    n = -perp(d)
    return HalfPlane(n, float(n @ as_point(anchor)))


# ---------------------------------------------------------------------------
# cones

@dataclass(frozen=True)
class Cone2:
    """Closed convex cone with an apex.

    kind: 'point' (apex only), 'ray', 'wedge' (span < pi), 'halfplane'
    (span = pi), 'line', or 'plane'.  d1 -> d2 is the counterclockwise span.
    """

    apex: np.ndarray
    kind: str
    d1: Optional[np.ndarray] = None
    d2: Optional[np.ndarray] = None

    def span(self) -> float:
        if self.kind in ("point", "ray"):
            return 0.0
        if self.kind == "plane":
            return TWO_PI
        if self.kind == "line":
            return math.pi
        return ccw_span(angle_of(self.d1), angle_of(self.d2))

    def directions(self) -> list:
        if self.kind == "point":
            return []
        if self.kind == "plane":
            return [dir_of(k * math.pi / 2) for k in range(4)]
        if self.kind == "ray":
            return [self.d1]
        if self.kind == "line":
            return [self.d1, -self.d1]
        return [self.d1, self.d2]

    def contains_dir(self, v, tol: float = 1e-9) -> bool:
        v = unit(np.asarray(v, dtype=float))
        if self.kind == "point":
            return False
        if self.kind == "plane":
            return True
        if self.kind == "ray":
            return norm(v - self.d1) <= tol
        if self.kind == "line":
            return min(norm(v - self.d1), norm(v + self.d1)) <= tol
        a1 = angle_of(self.d1)
        s = ccw_span(a1, angle_of(v))
        total = ccw_span(a1, angle_of(self.d2))
        return s <= total + tol or TWO_PI - s <= tol

    def is_trivial(self) -> bool:
        return self.kind == "point"


def _intersect_circular(constraints: list) -> list:
    """Intersect circular angle intervals (start, length), length <= 2*pi.

    Returns the disjoint pieces of the intersection.
    """
    pieces = [(0.0, TWO_PI)]
    for (s, ln) in constraints:
        nxt = []
        for (ps, pl) in pieces:
            rel = (s - ps) % TWO_PI
            for start in (rel, rel - TWO_PI):
                lo = max(0.0, start)
                hi = min(pl, start + ln)
                if hi >= lo - 1e-15:
                    nxt.append(((ps + lo) % TWO_PI, max(0.0, hi - lo)))
        pieces = nxt
        if not pieces:
            return []
    merged = []
    for (s, ln) in sorted(pieces):
        if merged and abs((merged[-1][0] + merged[-1][1]) % TWO_PI - s) < 1e-12:
            merged[-1] = (merged[-1][0], merged[-1][1] + ln)
        else:
            merged.append((s, ln))
    if len(merged) > 1:
        # join across the 0 / 2*pi wrap
        s_last, l_last = merged[-1]
        if abs((s_last + l_last) % TWO_PI - merged[0][0]) < 1e-12:
            merged[0] = (s_last, l_last + merged[0][1])
            merged.pop()
    return merged


def _cone_from_pieces(apex: np.ndarray, pieces: list, tol: float = 1e-9) -> Cone2:
    pieces = [p for p in pieces if p[1] > tol] or pieces
    if not pieces:
        return Cone2(apex, "point")
    if len(pieces) == 1:
        s, ln = pieces[0]
        if ln >= TWO_PI - 1e-9:
            return Cone2(apex, "plane")
        if ln <= tol:
            d = dir_of(s)
            return Cone2(apex, "ray", d, d)
        if abs(ln - math.pi) <= 1e-9:
            return Cone2(apex, "halfplane", dir_of(s), dir_of(s + ln))
        if ln > math.pi + 1e-9:
            raise GeometryError("recession span exceeds pi for a proper convex set")
        return Cone2(apex, "wedge", dir_of(s), dir_of(s + ln))
    pieces = sorted(pieces, key=lambda p: -p[1])[:2]
    (s1, l1), (s2, l2) = pieces
    if l1 <= tol and l2 <= tol and abs(ccw_span(s1, s2) - math.pi) < 1e-6:
        return Cone2(apex, "line", dir_of(s1), dir_of(s2))
    raise GeometryError("disconnected direction set; the body is not convex")


# ---------------------------------------------------------------------------
# profiles

class Profile:
    """Convex scalar profile g with derivative and recession slopes."""

    name = "custom"
    params: dict = {}

    #: recession slopes lim g(+-t)/t as t -> +inf (may be math.inf)
    slope_pos: float = math.inf
    slope_neg: float = math.inf

    #: graph contains no straight segment (flat profiles must clear this)
    strictly_convex: bool = True

    def g(self, u):
        raise NotImplementedError

    def dg(self, u):
        raise NotImplementedError

    def validate(self, u_lo=-64.0, u_hi=64.0, n=512, tol=1e-7):
        u = np.linspace(u_lo, u_hi, n)
        g = self.g(u)
        d2 = g[:-2] - 2 * g[1:-1] + g[2:]
        if np.min(d2) < -tol * max(1.0, float(np.max(np.abs(g)))):
            raise GeometryError(f"profile {self.name!r} is not convex on samples")


class ParabolaProfile(Profile):
    name = "parabola"

    def __init__(self, a: float = 1.0, c: float = -1.0):
        if a <= 0:
            raise GeometryError("parabola coefficient must be positive")
        self.a, self.c = float(a), float(c)
        self.params = {"a": self.a, "c": self.c}

    def g(self, u):
        return self.a * np.asarray(u, dtype=float) ** 2 + self.c

    def dg(self, u):
        return 2.0 * self.a * np.asarray(u, dtype=float)


class ExpProfile(Profile):
    """g(u) = exp(-u); flat toward +inf, steep toward -inf."""

    name = "exp"
    slope_pos = 0.0
    slope_neg = math.inf

    def __init__(self):
        self.params = {}

    def g(self, u):
        return np.exp(-np.clip(np.asarray(u, dtype=float), -700, 700))

    def dg(self, u):
        return -np.exp(-np.clip(np.asarray(u, dtype=float), -700, 700))


class CoshProfile(Profile):
    name = "cosh"

    def __init__(self, c: float = -2.0):
        self.c = float(c)
        self.params = {"c": self.c}

    def g(self, u):
        return np.cosh(np.clip(np.asarray(u, dtype=float), -700, 700)) + self.c

    def dg(self, u):
        return np.sinh(np.clip(np.asarray(u, dtype=float), -700, 700))


class PolyProfile(Profile):
    name = "custom_poly"

    def __init__(self, coeffs: Sequence[float]):
        # increasing-degree coefficient order
        self.coeffs = [float(c) for c in coeffs]
        self.params = {"coeffs": self.coeffs}
        self._p = np.polynomial.polynomial.Polynomial(self.coeffs)
        self._dp = self._p.deriv()
        deg = self._p.degree()
        if deg >= 2:
            self.slope_pos = math.inf
            self.slope_neg = math.inf
        elif deg == 1:
            self.slope_pos = self.coeffs[1]
            self.slope_neg = -self.coeffs[1]
        else:
            self.slope_pos = 0.0
            self.slope_neg = 0.0
        # a convex polynomial of degree >= 2 has no flat interval
        self.strictly_convex = deg >= 2
        self.validate()

    def g(self, u):
        return self._p(np.asarray(u, dtype=float))

    def dg(self, u):
        return self._dp(np.asarray(u, dtype=float))


class BallProfile(Profile):
    """Lower quarter of a circle of radius r tangent to the origin from above.

    g(u) = r - sqrt(r^2 - u^2), valid for |u| < r, written without
    cancellation so secant gaps stay accurate down to u ~ 1e-8.
    """

    name = "ball_lower"

    def __init__(self, r: float):
        self.r = float(r)
        self.params = {"r": self.r}

    def g(self, u):
        u = np.asarray(u, dtype=float)
        s = np.sqrt(np.maximum(self.r ** 2 - u ** 2, 0.0))
        return u ** 2 / (self.r + s)

    def dg(self, u):
        u = np.asarray(u, dtype=float)
        s = np.sqrt(np.maximum(self.r ** 2 - u ** 2, 1e-300))
        return u / s


PROFILES = {
    "parabola": ParabolaProfile,
    "exp_hypograph": ExpProfile,  # canonical transform flips it into {s <= 1 - e^-t}
    "exp": ExpProfile,
    "cosh": CoshProfile,
    "custom_poly": PolyProfile,
}


# ---------------------------------------------------------------------------
# analytic bases

class PlaneBase:
    """No analytic constraint; the body is cut out by half-planes alone."""

    kind = "plane"

    def recession_constraints(self):
        return []


class BallBase:
    kind = "ball"

    def __init__(self, center, radius: float):
        self.center = as_point(center)
        self.radius = float(radius)
        if self.radius <= 0:
            raise GeometryError("ball radius must be positive")

    def margin(self, pts: np.ndarray) -> np.ndarray:
        d = np.linalg.norm(as_points(pts) - self.center, axis=-1)
        return d - self.radius

    def recession_constraints(self):
        return None  # trivial cone


class EpigraphBase:
    """Image of {(u, v) : v >= g(u)} under p = M (u, v)^T + shift.

    M must be a scaled isometry (lam * orthogonal) so distances map
    uniformly through the transform.
    """

    kind = "epigraph"

    def __init__(self, profile: Profile, M=None, shift=None):
        self.profile = profile
        self.M = np.asarray(M, dtype=float) if M is not None else np.eye(2)
        self.shift = as_point(shift) if shift is not None else np.zeros(2)
        mtm = self.M.T @ self.M
        lam2 = 0.5 * (mtm[0, 0] + mtm[1, 1])
        if lam2 <= 0 or abs(mtm[0, 1]) > 1e-9 * lam2 or abs(mtm[0, 0] - mtm[1, 1]) > 1e-9 * lam2:
            raise GeometryError("epigraph transform must be a scaled isometry")
        self.scale = math.sqrt(lam2)
        self.Minv = np.linalg.inv(self.M)

    def to_profile(self, pts: np.ndarray) -> np.ndarray:
        return (as_points(pts) - self.shift) @ self.Minv.T

    def from_profile(self, uv: np.ndarray) -> np.ndarray:
        return as_points(uv) @ self.M.T + self.shift

    def margin(self, pts: np.ndarray) -> np.ndarray:
        """First-order signed distance (negative inside); exact near the graph."""
        uv = self.to_profile(pts)
        u, v = uv[..., 0], uv[..., 1]
        gap = self.profile.g(u) - v
        slope = self.profile.dg(u)
        return self.scale * gap / np.hypot(1.0, slope)

    def graph_point(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        uv = np.stack([u, self.profile.g(u)], axis=-1)
        return uv @ self.M.T + self.shift

    def graph_normal(self, u) -> np.ndarray:
        """Outward unit normal of the epigraph at the graph point of u."""
        u = np.asarray(u, dtype=float)
        slope = self.profile.dg(u)
        n = np.stack([slope, -np.ones_like(slope)], axis=-1)
        n = n / np.linalg.norm(n, axis=-1, keepdims=True)
        return n @ (self.M / self.scale).T

    def recession_constraints(self):
        sp, sn = self.profile.slope_pos, self.profile.slope_neg
        up = vec(0.0, 1.0)
        right = unit(vec(1.0, sp)) if math.isfinite(sp) else up
        left = unit(vec(-1.0, sn)) if math.isfinite(sn) else up
        a_lo, a_hi = angle_of(right), angle_of(left)
        length = ccw_span(a_lo, a_hi) if norm(right - left) > 1e-15 else 0.0
        d_lo = unit(self.M @ dir_of(a_lo))
        d_hi = unit(self.M @ dir_of(a_hi))
        b_lo, b_hi = angle_of(d_lo), angle_of(d_hi)
        if np.linalg.det(self.M) < 0:
            b_lo, b_hi = b_hi, b_lo
        if length == 0.0:
            return [(b_lo, 0.0)]
        return [(b_lo, ccw_span(b_lo, b_hi))]


# ---------------------------------------------------------------------------
# boundary pieces

class Segment:
    """Oriented straight boundary piece; the body lies on its left."""

    kind = "segment"

    def __init__(self, a, b, synthetic: bool = False):
        self.a = as_point(a)
        self.b = as_point(b)
        self.length = norm(self.b - self.a)
        if self.length <= 0:
            raise GeometryError("degenerate segment")
        self.t0, self.t1 = 0.0, self.length
        self.d = (self.b - self.a) / self.length
        self.n = -perp(self.d)
        self.synthetic = synthetic  # lies on the working window, not on the body

    def point(self, t):
        t = np.asarray(t, dtype=float)
        return self.a + np.multiply.outer(t, self.d)

    def normal(self, t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(self.n, t.shape + (2,)).copy()

    def start(self):
        return self.a

    def end(self):
        return self.b

    def reversed(self):
        return Segment(self.b, self.a, self.synthetic)

    def sample_params(self, n: int) -> np.ndarray:
        return np.linspace(self.t0, self.t1, n)

    def distance_many(self, pts):
        pts = as_points(pts)
        rel = pts - self.a
        t = np.clip(rel @ self.d, 0.0, self.length)
        closest = self.a + t[:, None] * self.d
        return np.linalg.norm(pts - closest, axis=-1), t

    def support_max(self, direction):
        va = float(self.a @ direction)
        vb = float(self.b @ direction)
        return (va, 0.0) if va >= vb else (vb, self.length)


class Arc:
    """Counterclockwise circular boundary piece, parameterized by arc length."""

    kind = "arc"
    synthetic = False

    def __init__(self, center, radius: float, th0: float, th1: float):
        self.center = as_point(center)
        self.radius = float(radius)
        self.th0 = float(th0)
        self.th1 = float(th1)
        if self.th1 <= self.th0:
            raise GeometryError("empty arc")
        self.length = (self.th1 - self.th0) * self.radius
        self.t0, self.t1 = 0.0, self.length

    def _theta(self, t):
        return self.th0 + np.asarray(t, dtype=float) / self.radius

    def point(self, t):
        th = self._theta(t)
        return self.center + self.radius * np.stack([np.cos(th), np.sin(th)], axis=-1)

    def normal(self, t):
        th = self._theta(t)
        return np.stack([np.cos(th), np.sin(th)], axis=-1)

    def start(self):
        return self.point(0.0)

    def end(self):
        return self.point(self.length)

    def sample_params(self, n: int) -> np.ndarray:
        return np.linspace(self.t0, self.t1, n)

    def distance_many(self, pts):
        pts = as_points(pts)
        rel = pts - self.center
        th = np.arctan2(rel[:, 1], rel[:, 0])
        th = self.th0 + (th - self.th0) % TWO_PI
        inside = th <= self.th1
        t_in = (th - self.th0) * self.radius
        r = np.linalg.norm(rel, axis=-1)
        d_arc = np.abs(r - self.radius)
        d0 = np.linalg.norm(pts - self.start(), axis=-1)
        d1 = np.linalg.norm(pts - self.end(), axis=-1)
        d_end = np.minimum(d0, d1)
        t_end = np.where(d0 <= d1, 0.0, self.length)
        return np.where(inside, d_arc, d_end), np.where(inside, t_in, t_end)

    def support_max(self, direction):
        th = angle_of(direction)
        th_w = self.th0 + (th - self.th0) % TWO_PI
        cands = [(float(self.point(t) @ direction), t) for t in (0.0, self.length)]
        if th_w <= self.th1:
            t = (th_w - self.th0) * self.radius
            cands.append((float(self.point(t) @ direction), t))
        return max(cands)


class GraphPiece:
    """Boundary piece on the analytic graph of an epigraph base.

    Parameterized by the profile coordinate u, not by arc length; coarse
    scans use an equal-chord reparameterization so steep stretches of the
    graph are sampled as densely in space as flat ones.
    """

    kind = "graph"
    synthetic = False

    def __init__(self, base: EpigraphBase, u0: float, u1: float, flipped: bool = False):
        if u1 <= u0:
            raise GeometryError("empty graph piece")
        self.base = base
        self.u0, self.u1 = float(u0), float(u1)
        self.flipped = flipped
        self.t0, self.t1 = self.u0, self.u1
        self._chord_grid = None

    def _u(self, t):
        t = np.asarray(t, dtype=float)
        return (self.u0 + self.u1) - t if self.flipped else t

    def point(self, t):
        return self.base.graph_point(self._u(t))

    def normal(self, t):
        u = self._u(np.atleast_1d(np.asarray(t, dtype=float)))
        n = self.base.graph_normal(u)
        return n if np.ndim(t) else n[0]

    @property
    def length(self):
        # chord estimate, used only for sampling weights
        return norm(self.point(self.t1) - self.point(self.t0))

    def start(self):
        return self.point(self.t0)

    def end(self):
        return self.point(self.t1)

    def reversed(self):
        return GraphPiece(self.base, self.u0, self.u1, not self.flipped)

    def _chord_us(self, n: int) -> np.ndarray:
        """Ascending u values spread at roughly equal spatial spacing."""
        if self._chord_grid is None:
            us = np.linspace(self.u0, self.u1, 1025)
            pts = self.base.graph_point(us)
            seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
            cum = np.concatenate([[0.0], np.cumsum(seg)])
            self._chord_grid = (us, cum)
        us, cum = self._chord_grid
        if cum[-1] <= 0:
            return np.linspace(self.u0, self.u1, n)
        return np.interp(np.linspace(0.0, cum[-1], n), cum, us)

    def sample_params(self, n: int) -> np.ndarray:
        """Ascending params at roughly equal spatial (chord) spacing."""
        u = self._chord_us(n)
        return ((self.u0 + self.u1) - u)[::-1] if self.flipped else u

    def distance_many(self, pts, samples: int = 48, iters: int = 60):
        """Distance to the graph stretch, per-point bracketed.

        The transform is a lam-isometry of the u-axis, so the nearest
        parameter lies within 2 d0 / lam of the query's own profile
        abscissa, where d0 is the distance to the anchor graph point.
        """
        pts = as_points(pts)
        uv = self.base.to_profile(pts)
        u_a = np.clip(uv[:, 0], self.u0, self.u1)
        d0 = np.linalg.norm(pts - self.base.graph_point(u_a), axis=-1)
        rad = 2.0 * d0 / self.base.scale + 1e-12
        lo = np.maximum(self.u0, u_a - rad)
        hi = np.minimum(self.u1, u_a + rad)
        frac = np.linspace(0.0, 1.0, samples)
        cand = lo[:, None] + (hi - lo)[:, None] * frac[None, :]
        d2 = ((pts[:, None, :] - self.base.graph_point(cand)) ** 2).sum(-1)
        j = np.argmin(d2, axis=1)
        rows = np.arange(len(pts))
        a = cand[rows, np.maximum(j - 1, 0)]
        b = cand[rows, np.minimum(j + 1, samples - 1)]
        for _ in range(iters):
            c = b - _INVPHI * (b - a)
            d = a + _INVPHI * (b - a)
            fc = ((pts - self.base.graph_point(c)) ** 2).sum(-1)
            fd = ((pts - self.base.graph_point(d)) ** 2).sum(-1)
            take = fc < fd
            b = np.where(take, d, b)
            a = np.where(take, a, c)
        u_best = 0.5 * (a + b)
        dist = np.linalg.norm(pts - self.base.graph_point(u_best), axis=-1)
        dist = np.minimum(dist, d0)
        u_best = np.where(dist < d0, u_best, u_a)
        t = (self.u0 + self.u1) - u_best if self.flipped else u_best
        return dist, t

    def support_max(self, direction):
        w = self.base.M.T @ np.asarray(direction, dtype=float)
        vals = [(float(np.asarray(self.point(t)) @ direction), t)
                for t in (self.t0, self.t1)]
        if w[1] < 0:
            # direction . point(u) is concave in u
            u, nf = golden_min(lambda u: -(self.base.graph_point(u) @ direction),
                               self.u0, self.u1, iters=200)
            t = (self.u0 + self.u1) - u if self.flipped else u
            vals.append((-nf, t))
        return max(vals)


# ---------------------------------------------------------------------------
# half-plane pruning and clipping

def prune_halfplanes(halfplanes: Sequence[HalfPlane], witness: np.ndarray) -> list:
    """Irredundant subset, sorted by normal angle.

    Polar duality about an interior witness: a constraint is irredundant
    iff its dual point is a vertex of conv(duals + origin).
    """
    if not halfplanes:
        return []
    by_dir: dict = {}
    for hp in halfplanes:
        cp = hp.offset - float(hp.normal @ witness)
        if cp <= 1e-15:
            raise GeometryError("witness not strictly interior to a half-plane")
        key = round(angle_of(hp.normal) * 1e12)
        cur = by_dir.get(key)
        if cur is None or cp < cur[0]:
            by_dir[key] = (cp, hp)
    items = list(by_dir.values())
    if len(items) <= 2:
        return sorted((hp for _, hp in items), key=lambda h: angle_of(h.normal))
    duals = np.array([hp.normal / cp for cp, hp in items])
    pts = np.vstack([duals, [[0.0, 0.0]]])
    try:
        hull = ConvexHull(pts)
        vert = {int(i) for i in hull.vertices}
    except QhullError:
        vert = set(range(len(items)))
    kept = [items[i][1] for i in range(len(items)) if i in vert]
    return sorted(kept, key=lambda h: angle_of(h.normal))


def clip_polygon(poly: list, hp: HalfPlane, tol: float = 1e-12) -> list:
    """Sutherland-Hodgman clip of a convex polygon by one half-plane."""
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


def window_polygon(center: np.ndarray, half: float) -> list:
    c, h = center, half
    return [c + vec(-h, -h), c + vec(h, -h), c + vec(h, h), c + vec(-h, h)]


def cut_polyline(halfplanes: Sequence[HalfPlane], window_center, window_half):
    """Clip the window box by the half-planes; CCW polygon vertices.

    Edges on the window boundary mark unbounded directions.
    """
    poly = window_polygon(as_point(window_center), float(window_half))
    for hp in halfplanes:
        poly = clip_polygon(poly, hp)
        if not poly:
            return []
    return poly


def _on_window(p, center, half, tol_frac=1e-9):
    return bool(np.max(np.abs(p - center)) >= half * (1.0 - tol_frac) - 1e-9)


# ---------------------------------------------------------------------------
# piece chaining

def _chain_pieces(pieces: list, interior_point: np.ndarray):
    """Orient pieces interior-left and order them along the boundary.

    Returns (ordered pieces, closed flag).
    """
    if not pieces:
        return [], False
    fixed = []
    for pc in pieces:
        tm = 0.5 * (pc.t0 + pc.t1)
        nvec = pc.normal(tm)
        p = pc.point(tm)
        if float(np.asarray(nvec) @ (interior_point - p)) > 0 and hasattr(pc, "reversed"):
            pc = pc.reversed()
        # handedness: walking the piece, the outward normal must be on the right
        span = pc.t1 - pc.t0
        eps = 1e-6 * max(1.0, abs(span))
        tangent = np.asarray(pc.point(min(pc.t1, tm + eps))) - np.asarray(pc.point(max(pc.t0, tm - eps)))
        if cross2(tangent, pc.normal(tm)) > 0 and hasattr(pc, "reversed"):
            pc = pc.reversed()
        fixed.append(pc)
    pieces = fixed
    if len(pieces) == 1:
        single = pieces[0]
        return pieces, norm(np.asarray(single.start()) - np.asarray(single.end())) < 1e-9
    starts = [np.asarray(pc.start()) for pc in pieces]
    ends = [np.asarray(pc.end()) for pc in pieces]
    scale = max(1.0, max(norm(p) for p in starts + ends))
    tol = 1e-6 * scale
    n = len(pieces)
    nxt = [-1] * n
    has_prev = [False] * n
    for i in range(n):
        best, bd = -1, tol
        for j in range(n):
            if i != j:
                d = norm(ends[i] - starts[j])
                if d < bd:
                    best, bd = j, d
        nxt[i] = best
        if best >= 0:
            has_prev[best] = True
    start_idx = next((i for i in range(n) if not has_prev[i]), 0)
    order_idx = []
    seen = set()
    i = start_idx
    while i >= 0 and i not in seen:
        order_idx.append(i)
        seen.add(i)
        i = nxt[i]
    for j in range(n):
        if j not in seen:
            order_idx.append(j)
    order = [pieces[i] for i in order_idx]
    closed = len(seen) == n and norm(np.asarray(order[-1].end()) - np.asarray(order[0].start())) < tol
    return order, bool(closed)


# ---------------------------------------------------------------------------
# Body2

class Body2:
    """Closed convex proper subset of the plane with nonempty interior."""

    def __init__(self, base, cuts: Sequence[HalfPlane] = (), name: str = "",
                 witness=None, resolution: int = RESOLUTION):
        self.base = base
        self.cuts = tuple(cuts)
        self.name = name
        self.resolution = int(resolution)
        if isinstance(base, PlaneBase) and not self.cuts:
            raise GeometryError("a body must be a proper subset of the plane")
        if witness is not None:
            w = as_point(witness)
            c0 = -self._margin_at(w)
            if c0 <= 0:
                raise GeometryError("supplied witness is not interior")
            self.witness, self._clearance0 = w, float(c0)
        else:
            self.witness, self._clearance0 = self._find_witness()
        self._clearance = None
        self._recc = None
        self._pieces = None
        self._closed = False

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_halfplanes(halfplanes, name: str = "", **kw) -> "Body2":
        hps = [hp if isinstance(hp, HalfPlane) else HalfPlane.from_any(*hp)
               for hp in halfplanes]
        return Body2(PlaneBase(), hps, name=name, **kw)

    @staticmethod
    def from_polychain(vertices, rays=None, name: str = "",
                       collinear_ok: bool = False, **kw) -> "Body2":
        """Convex region from a CCW vertex chain, optionally unbounded.

        rays = (incoming, outgoing) recession directions attached to the
        first and last vertex of an unbounded chain.  Three collinear
        vertices are rejected unless collinear_ok flags a polyhedral chain.
        """
        verts = [as_point(v) for v in vertices]
        hps = []
        if rays is None:
            if len(verts) < 3:
                raise GeometryError("a bounded polychain needs at least 3 vertices")
            area = sum(cross2(verts[i], verts[(i + 1) % len(verts)])
                       for i in range(len(verts)))
            if area < 0:
                verts = verts[::-1]
            m = len(verts)
            scale = max(norm(v) for v in verts) + 1.0
            for i in range(m):
                e1 = verts[(i + 1) % m] - verts[i]
                e2 = verts[(i + 2) % m] - verts[(i + 1) % m]
                turn = cross2(e1, e2)
                if turn < -1e-9 * scale * scale:
                    raise GeometryError("vertex chain is not convex")
                if abs(turn) <= 1e-9 * scale * scale and not collinear_ok:
                    raise GeometryError(
                        "three collinear vertices (pass collinear_ok for a "
                        "polyhedral chain)")
            for i in range(m):
                a, b = verts[i], verts[(i + 1) % m]
                if norm(b - a) > 1e-14:
                    hps.append(halfplane_through(a, b))
        else:
            if not verts:
                raise GeometryError("an unbounded polychain needs vertices")
            r_in, r_out = (unit(np.asarray(r, dtype=float)) for r in rays)
            # boundary comes in from infinity along -r_in to verts[0]
            hps.append(halfplane_ray(verts[0], -r_in))
            for i in range(len(verts) - 1):
                hps.append(halfplane_through(verts[i], verts[i + 1]))
            hps.append(halfplane_ray(verts[-1], r_out))
        return Body2(PlaneBase(), hps, name=name, **kw)

    @staticmethod
    def ball(center, radius: float, name: str = "", **kw) -> "Body2":
        return Body2(BallBase(center, radius), (), name=name, **kw)

    @staticmethod
    def epigraph(profile, params: Optional[dict] = None, transform=None,
                 name: str = "", **kw) -> "Body2":
        if isinstance(profile, str):
            if profile not in PROFILES:
                raise GeometryError(f"unknown profile {profile!r}")
            prof = PROFILES[profile](**(params or {}))
            if profile == "exp_hypograph" and transform is None:
                transform = [[1.0, 0.0, 0.0], [0.0, -1.0, 1.0]]
        else:
            prof = profile
        M = shift = None
        if transform is not None:
            t = np.asarray(transform, dtype=float)
            M, shift = t[:, :2], t[:, 2]
        return Body2(EpigraphBase(prof, M, shift), (), name=name, **kw)

    def clip(self, halfplanes, name: str = "", **kw) -> "Body2":
        hps = [hp if isinstance(hp, HalfPlane) else HalfPlane.from_any(*hp)
               for hp in halfplanes]
        return Body2(self.base, self.cuts + tuple(hps),
                     name=name or self.name, resolution=self.resolution, **kw)

    # -- witness ------------------------------------------------------------

    def _margin_at(self, p) -> float:
        return float(self.margin_many(np.asarray(p, dtype=float)[None, :])[0])

    def margin_many(self, pts: np.ndarray) -> np.ndarray:
        """Approximate signed distance; negative strictly inside.

        Exact for half-plane and ball parts; first-order near the graph of
        an epigraph base (exact on it).
        """
        pts = as_points(pts)
        m = np.full(pts.shape[0], -np.inf)
        if isinstance(self.base, (BallBase, EpigraphBase)):
            m = self.base.margin(pts)
        for hp in self.cuts:
            m = np.maximum(m, hp.value(pts))
        return m

    def _find_witness(self):
        if isinstance(self.base, PlaneBase):
            return self._witness_lp()
        if isinstance(self.base, BallBase):
            cand = [self.base.center]
            if self.cuts:
                r = self.base.radius
                g = np.linspace(-r, r, 41)
                gx, gy = np.meshgrid(g, g)
                cand.append(self.base.center + np.stack([gx.ravel(), gy.ravel()], axis=-1))
                cand = [np.vstack(cand)]
            cand = np.vstack([np.atleast_2d(c) for c in cand])
            m = self.margin_many(cand)
            i = int(np.argmin(m))
            if m[i] >= -1e-12:
                raise GeometryError("body has empty interior (no witness found)")
            return cand[i], -float(m[i])
        base = self.base
        side = np.concatenate([[0.0], np.geomspace(1e-4, 64.0, 30)])
        us = np.concatenate([side, -side[1:]])
        gu = np.asarray(base.profile.g(us), dtype=float)
        keep = np.abs(gu) < 1e9  # steep-profile probes are numerically useless
        us, gu = us[keep], gu[keep]
        ts = np.geomspace(1e-3, 64.0, 25)
        uu, tt = np.meshgrid(us, ts)
        gg = np.broadcast_to(gu, uu.shape)
        uv = np.stack([uu.ravel(), (gg + tt).ravel()], axis=-1)
        cand = base.from_profile(uv)
        # profile margin straight from uv (no world round trip), cuts in world
        slope = np.asarray(base.profile.dg(uv[:, 0]), dtype=float)
        m = base.scale * (np.asarray(base.profile.g(uv[:, 0]), dtype=float)
                          - uv[:, 1]) / np.hypot(1.0, slope)
        for hp in self.cuts:
            m = np.maximum(m, hp.value(cand))
        i = int(np.argmin(m))
        if m[i] >= -1e-12:
            raise GeometryError("body has empty interior (no witness found)")
        return cand[i], -float(m[i])

    def _witness_lp(self):
        A = np.array([hp.normal for hp in self.cuts])
        b = np.array([hp.offset for hp in self.cuts])
        c = np.array([0.0, 0.0, -1.0])
        A_ub = np.hstack([A, np.ones((len(self.cuts), 1))])
        res = linprog(c, A_ub=A_ub, b_ub=b,
                      bounds=[(None, None), (None, None), (0, 1e3)],
                      method="highs")
        if not res.success or res.x[2] <= 1e-12:
            raise GeometryError("half-plane body has empty interior")
        return np.array(res.x[:2]), float(res.x[2])

    @property
    def clearance(self) -> float:
        """Verified inscribed-ball radius at the witness."""
        if self._clearance is None:
            if isinstance(self.base, EpigraphBase):
                d = boundary_distance_many(self, self.witness[None, :])[0]
                self._clearance = float(min(self._clearance0, d))
            else:
                self._clearance = self._clearance0
        return self._clearance

    @property
    def window_half(self) -> float:
        return min(max(WINDOW_MULT * self._clearance0, 256.0), 1e7)

    @property
    def bounded(self) -> bool:
        return self.recession_cone().is_trivial()

    def recession_cone(self) -> Cone2:
        if self._recc is None:
            base_cons = self.base.recession_constraints()
            if base_cons is None:
                self._recc = Cone2(np.zeros(2), "point")
                return self._recc
            cons = list(base_cons)
            for hp in self.cuts:
                a = angle_of(hp.normal)
                cons.append(((a + math.pi / 2) % TWO_PI, math.pi))
            merged = _intersect_circular(cons)
            self._recc = _cone_from_pieces(np.zeros(2), merged)
        return self._recc

    # -- boundary structure ---------------------------------------------------

    def pieces(self) -> list:
        if self._pieces is None:
            self._pieces, self._closed = self._build_pieces()
        return self._pieces

    @property
    def closed_chain(self) -> bool:
        self.pieces()
        return self._closed

    def _cut_segments(self) -> list:
        pruned = prune_halfplanes(list(self.cuts), self.witness)
        poly = cut_polyline(pruned, self.witness, self.window_half)
        if not poly:
            return []
        segs = []
        wc, wh = self.witness, self.window_half
        m = len(poly)
        for i in range(m):
            a, b = poly[i], poly[(i + 1) % m]
            if norm(b - a) < 1e-12:
                continue
            mid = 0.5 * (a + b)
            segs.append(Segment(a, b, synthetic=_on_window(mid, wc, wh)))
        return segs

    def _build_pieces(self):
        segs = self._cut_segments()
        if isinstance(self.base, PlaneBase):
            return _chain_pieces([s for s in segs if not s.synthetic], self.witness)
        if isinstance(self.base, BallBase):
            return self._ball_pieces(segs)
        return self._epigraph_pieces(segs)

    def _ball_pieces(self, segs):
        base = self.base
        constraints = []
        empty = False
        for hp in self.cuts:
            q = (hp.offset - float(hp.normal @ base.center)) / base.radius
            if q >= 1.0:
                continue
            if q <= -1.0:
                empty = True
                break
            a = math.acos(max(-1.0, min(1.0, q)))
            phi = angle_of(hp.normal)
            constraints.append(((phi + a) % TWO_PI, TWO_PI - 2 * a))
        pieces = []
        if not empty:
            for (s, ln) in _intersect_circular(constraints):
                if ln * base.radius > 1e-12:
                    pieces.append(Arc(base.center, base.radius, s, s + ln))
        for seg in segs:
            if seg.synthetic:
                continue
            rel = seg.a - base.center
            b_coef = 2.0 * float(rel @ seg.d)
            c_coef = float(rel @ rel) - base.radius ** 2
            disc = b_coef ** 2 - 4 * c_coef
            if disc <= 0:
                continue
            r1 = (-b_coef - math.sqrt(disc)) / 2
            r2 = (-b_coef + math.sqrt(disc)) / 2
            lo, hi = max(0.0, r1), min(seg.length, r2)
            if hi - lo > 1e-12:
                pieces.append(Segment(seg.point(lo), seg.point(hi)))
        return _chain_pieces(pieces, self.witness)

    def _epigraph_pieces(self, segs):
        base = self.base
        ucv = base.to_profile(self.witness[None, :])[0]
        uc = ucv[0]
        uw = self.window_half / base.scale
        intervals = [(uc - uw, uc + uw)]
        # trim to where the graph stays inside an inflated window, so steep
        # profiles (exp, cosh) never overflow downstream arithmetic
        bound = float(ucv[1]) + 4.0 * uw

        def over(u):
            return base.profile.g(u) - bound

        u_min, g_min = coarse_golden_min(over, *intervals[0])
        if g_min <= 0:
            intervals = [tuple(feasible_ends(over, intervals[0], u_min))]
        for hp in self.cuts:
            intervals = _graph_feasible(intervals, base, hp)
            if not intervals:
                break
        pieces = [GraphPiece(base, a, b) for (a, b) in intervals if b - a > 1e-12]
        for seg in segs:
            if seg.synthetic:
                continue
            sub = _segment_in_epigraph(seg, base)
            if sub is not None:
                pieces.append(sub)
        return _chain_pieces(pieces, self.witness)

    # -- membership -----------------------------------------------------------

    def contains_many(self, pts, tol: float = TOL) -> np.ndarray:
        return self.margin_many(pts) <= tol

    def interior_many(self, pts, margin: float = TOL) -> np.ndarray:
        return self.margin_many(pts) < -margin

    def boundary_samples(self, n: Optional[int] = None) -> np.ndarray:
        n = n or self.resolution
        pieces = self.pieces()
        if not pieces:
            return np.zeros((0, 2))
        lens = np.array([max(pc.length, 1e-12) for pc in pieces])
        total = float(lens.sum())
        out = []
        for pc, ln in zip(pieces, lens):
            k = max(2, int(round(n * ln / total)))
            out.append(pc.point(pc.sample_params(k)))
        return np.vstack(out)

    def __repr__(self):
        tag = self.name or self.base.kind
        return f"Body2({tag}, cuts={len(self.cuts)}, bounded={self.bounded})"


def _graph_feasible(intervals: list, base: EpigraphBase, hp: HalfPlane) -> list:
    """Feasible u-set of the graph under one cut, intersected with intervals.

    phi(u) = hp margin of the graph point: linear + (coef) * g(u), so it is
    convex, concave, or linear depending on the sign of coef.
    """
    w = base.M.T @ hp.normal
    const = float(hp.normal @ base.shift) - hp.offset

    def phi1(u):
        return w[0] * u + w[1] * base.profile.g(u) + const

    coef = w[1]
    out = []
    for (a, b) in intervals:
        fa, fb = phi1(a), phi1(b)
        if abs(coef) <= 1e-14:
            # linear in u
            if fa <= 0 and fb <= 0:
                out.append((a, b))
            elif fa <= 0 < fb:
                out.append((a, bisect_leq(phi1, b, a)))
            elif fb <= 0 < fa:
                out.append((bisect_leq(phi1, a, b), b))
            continue
        if coef > 0:
            # convex: feasible set is one interval around the minimum
            u_min, f_min = coarse_golden_min(phi1, a, b)
            if f_min > 0:
                continue
            out.append(tuple(feasible_ends(phi1, (a, b), u_min)))
        else:
            # concave: infeasible set is one interval around the maximum
            u_max, neg = coarse_golden_min(lambda u: -phi1(u), a, b)
            f_max = -neg
            if f_max <= 0:
                out.append((a, b))
                continue
            # each feasible end keeps the stretch up to its crossing
            ends = np.array([a, b])[np.array([fa, fb]) <= 0]
            if len(ends):
                cross = bisect_leq(phi1, u_max, ends)
                out.extend((min(e, c), max(e, c)) for e, c in zip(ends, cross))
    return [(lo, hi) for (lo, hi) in out if hi - lo > 1e-12]


def _segment_in_epigraph(seg: Segment, base: EpigraphBase):
    """Clip a straight cut edge to the epigraph; v - g(u) is concave along it."""
    a_uv = base.to_profile(seg.a[None, :])[0]
    b_uv = base.to_profile(seg.b[None, :])[0]

    def over(t):
        frac = t / seg.length
        u = a_uv[0] + frac * (b_uv[0] - a_uv[0])
        v = a_uv[1] + frac * (b_uv[1] - a_uv[1])
        return base.profile.g(u) - v

    t_max, f_min = coarse_golden_min(over, 0.0, seg.length)
    if f_min > 0:
        return None
    lo, hi = feasible_ends(over, (0.0, seg.length), t_max)
    if hi - lo <= 1e-12:
        return None
    return Segment(seg.point(lo), seg.point(hi))


# ---------------------------------------------------------------------------
# operations

def contains(C: Body2, p, tol: float = TOL) -> bool:
    """Membership within distance tol."""
    return bool(C.contains_many(as_point(p)[None, :], tol)[0])


def distance_many(C: Body2, pts) -> np.ndarray:
    """Distance from each point to the body (0 inside)."""
    pts = as_points(pts)
    out = np.zeros(pts.shape[0])
    outside = ~C.contains_many(pts, 0.0)
    if outside.any():
        sub = pts[outside]
        best = np.full(sub.shape[0], np.inf)
        for pc in C.pieces():
            d, _ = pc.distance_many(sub)
            best = np.minimum(best, d)
        out[outside] = best
    return out


def boundary_distance_many(C: Body2, pts) -> np.ndarray:
    """Distance to the boundary chain (points may be inside the body)."""
    pts = as_points(pts)
    best = np.full(pts.shape[0], np.inf)
    for pc in C.pieces():
        d, _ = pc.distance_many(pts)
        best = np.minimum(best, d)
    return best


def project(p, C: Body2):
    """Nearest point of C and the distance to it."""
    p = as_point(p)
    if contains(C, p, 0.0):
        return p.copy(), 0.0
    best_d, best_q = np.inf, None
    for pc in C.pieces():
        d, t = pc.distance_many(p[None, :])
        if d[0] < best_d:
            best_d = float(d[0])
            best_q = np.asarray(pc.point(float(t[0])))
    if best_q is None:
        raise GeometryError("body has no boundary pieces inside the window")
    return best_q, best_d


def support(C: Body2, direction, tol: float = TOL) -> float:
    """Support value sup {d . p : p in C}; +inf along recession growth."""
    d = unit(np.asarray(direction, dtype=float))
    recc = C.recession_cone()
    for r in recc.directions():
        if float(d @ r) > 1e-12:
            return math.inf
    if recc.kind in ("wedge", "halfplane", "plane") and recc.contains_dir(d):
        return math.inf
    chain = C.pieces()
    if not chain:
        raise GeometryError("empty boundary; cannot evaluate support")
    best, best_pc, best_t = -np.inf, None, None
    for pc in chain:
        v, t = pc.support_max(d)
        if v > best:
            best, best_pc, best_t = v, pc, t
    # divergence guard when the max sits at a window-clipped chain end
    if not C.closed_chain:
        at_end = (best_pc is chain[0] and abs(best_t - best_pc.t0) < 1e-9 * (1 + abs(best_pc.t0))) or \
                 (best_pc is chain[-1] and abs(best_t - best_pc.t1) < 1e-9 * (1 + abs(best_pc.t1)))
        if at_end:
            t_mid = 0.5 * (best_pc.t0 + best_pc.t1)
            t_q = 0.5 * (t_mid + best_t)
            v_mid = float(np.asarray(best_pc.point(t_mid)) @ d)
            v_q = float(np.asarray(best_pc.point(t_q)) @ d)
            step1 = v_q - v_mid
            step2 = best - v_q
            if step2 > max(tol, 1e-9 * abs(best)) and step2 > 0.5 * step1:
                return math.inf
    return float(best)


class NormalFan:
    """Closed counterclockwise arc of outward unit normals at a boundary point."""

    def __init__(self, lo, hi):
        self.lo = unit(lo)
        self.hi = unit(hi)

    @property
    def single(self) -> bool:
        return norm(self.lo - self.hi) < 1e-9

    def extremes(self) -> list:
        return [self.lo] if self.single else [self.lo, self.hi]

    def span(self) -> float:
        return 0.0 if self.single else ccw_span(angle_of(self.lo), angle_of(self.hi))

    def __repr__(self):
        return f"NormalFan({self.lo}, {self.hi})"


def support_point(C: Body2, direction):
    """Support value and an attaining boundary point (value may be +inf)."""
    d = unit(np.asarray(direction, dtype=float))
    val = support(C, d)
    if not math.isfinite(val):
        return val, None
    best, best_pt = -np.inf, None
    for pc in C.pieces():
        v, t = pc.support_max(d)
        if v > best:
            best, best_pt = v, np.asarray(pc.point(t))
    return val, best_pt


def boundary_crossing(C: Body2, inside_pt, outside_pt, iters: int = 90):
    """Point of the boundary on the segment from an interior to an exterior point."""
    a = as_point(inside_pt)
    b = as_point(outside_pt)
    f = along(C.margin_many, lambda t: a + np.multiply.outer(t, b - a))
    if f(0.0) >= 0 or f(1.0) <= 0:
        raise GeometryError("crossing needs one interior and one exterior endpoint")
    t = bisect_leq(lambda t: -f(t), 0.0, 1.0, iters)
    # -f <= 0 means margin >= 0: lands on the outside edge of the boundary
    return a + t * (b - a)


def walk_to_chord(C: Body2, start, direction: float, chord: float, anchor,
                  iters: int = 70):
    """Walk the boundary chain from a (piece, param) start until the chord
    distance from anchor reaches the target; returns ((idx, t), point) or None.
    """
    anchor = as_point(anchor)
    return walk_until(C, start, direction, chord / 8.0,
                      lambda p: norm(p - anchor) >= chord, iters,
                      max_walk=1e4 * chord + 100.0 * (1.0 + C.clearance))


def walk_until(C: Body2, start, direction: float, step: float, reached,
               iters: int, max_walk: float = math.inf):
    """March the boundary chain from a (piece, param) start in steps of
    step until reached(point) holds, then bisect the last step iters times.

    Returns ((idx, t), point) of the reached side, or None when the chain
    ends, 200000 steps pass or the walk exceeds max_walk first.
    """
    pieces = C.pieces()
    closed = C.closed_chain
    cur = start
    walked = 0.0
    for _ in range(200000):
        nxt, hit_end = _advance(pieces, cur, direction * step, closed)
        if reached(np.asarray(pieces[nxt[0]].point(nxt[1]))):
            break
        cur = nxt
        walked += step
        if hit_end or walked > max_walk:
            return None
    else:
        return None
    lo, hi, gap = cur, nxt, step
    for _ in range(iters):
        gap *= 0.5
        mid, _ = _advance(pieces, lo, direction * gap, closed)
        if reached(np.asarray(pieces[mid[0]].point(mid[1]))):
            hi = mid
        else:
            lo = mid
    return hi, np.asarray(pieces[hi[0]].point(hi[1]))


def locate_on_boundary(C: Body2, x):
    """(piece index, parameter) of the boundary point nearest to x."""
    return _locate_on_boundary(C, as_point(x))


def supporting_normals(C: Body2, x, tol: float = 1e-7) -> NormalFan:
    """Outward unit normals supporting C at the boundary point x.

    Smooth points give a single normal; corners give the arc between the
    two incident piece normals.
    """
    x = as_point(x)
    scale = max(1.0, norm(x - C.witness))
    normals = []
    for pc in C.pieces():
        # piece endpoints are the common case (corners); test them first
        hit_t = None
        for t_end in (pc.t0, pc.t1):
            if norm(np.asarray(pc.point(t_end)) - x) <= tol * scale:
                hit_t = t_end
                break
        if hit_t is None:
            d, t = pc.distance_many(x[None, :])
            if d[0] <= tol * scale:
                hit_t = float(t[0])
        if hit_t is not None:
            normals.append(np.asarray(pc.normal(hit_t), dtype=float))
    if not normals:
        side = "interior" if contains(C, x, 0.0) else "exterior"
        raise GeometryError(f"point {x} is {side}, not on the boundary")
    if len(normals) == 1:
        return NormalFan(normals[0], normals[0])
    angles = sorted((angle_of(n), i) for i, n in enumerate(normals))
    lo = normals[angles[0][1]]
    hi = normals[angles[-1][1]]
    if ccw_span(angle_of(lo), angle_of(hi)) > math.pi:
        lo, hi = hi, lo
    return NormalFan(lo, hi)


def recession_cone(C: Body2) -> Cone2:
    return C.recession_cone()


def asymptotic_slope(x0, v, C: Body2, rel_tol: float = 1e-6, t_max_pow: int = 20):
    """Limit slope of t -> d(x0 + t v, C) / t along a ray missing int C.

    Doubles t from 1 to 2**t_max_pow until successive secant slopes agree
    to rel_tol; returns (value, (previous slope, last slope)).
    """
    x0 = as_point(x0)
    v = unit(np.asarray(v, dtype=float))
    probe = x0 + np.outer(np.linspace(0.5, 8, 7), v)
    if C.interior_many(probe, 1e-12).any():
        raise GeometryError("ray meets the interior of the body")
    ts = 2.0 ** np.arange(0, t_max_pow + 2)
    phi = distance_many(C, x0 + np.outer(ts, v))
    slopes = (phi[1:] - phi[:-1]) / ts[:-1]
    prev = last = float(slopes[0])
    for k in range(1, len(slopes)):
        prev, last = last, float(slopes[k])
        if abs(last - prev) < rel_tol * max(1.0, abs(last)):
            break
    return last, (prev, last)


def is_asymptotic_direction(C: Body2, v, slope_tol: float = 1e-4):
    """Detect an asymptotic direction; returns (flag, witness x0 or None).

    Any witness must sit on a supporting line whose normal is orthogonal to
    the direction, so only those two normals are scanned.
    """
    v = unit(np.asarray(v, dtype=float))
    if C.bounded:
        return False, None
    if not C.recession_cone().contains_dir(v, 1e-7):
        return False, None
    for n in (perp(v), -perp(v)):
        s = support(C, n)
        if not math.isfinite(s):
            continue
        x0 = C.witness + (s - float(n @ C.witness)) * n
        try:
            slope, _ = asymptotic_slope(x0, v, C)
        except GeometryError:
            continue
        if slope < slope_tol:
            return True, x0
    return False, None


def rotundity_modulus(C: Body2, x, eps: float, refine_iters: int = 60) -> float:
    """Local uniform rotundity modulus at a boundary point.

    Infimum over boundary points y at chord distance eps of the distance of
    the chord midpoint from the boundary; always <= eps / 2.
    """
    x = as_point(x)
    if eps < 0 or eps >= 2 * C.clearance:
        raise GeometryError("eps outside [0, 2r) for the witness ball radius r")
    if eps == 0:
        return 0.0
    start = _locate_on_boundary(C, x)
    hits = [walk_to_chord(C, start, direction, eps, x, refine_iters)
            for direction in (+1.0, -1.0)]
    ys = [hit[1] for hit in hits if hit is not None]
    if not ys:
        raise GeometryError("no boundary point at the requested chord distance")
    mids = np.array([0.5 * (x + y) for y in ys])
    return float(np.min(boundary_distance_many(C, mids)))


def _locate_on_boundary(C: Body2, x):
    best = (np.inf, None, None)
    for idx, pc in enumerate(C.pieces()):
        d, t = pc.distance_many(x[None, :])
        if d[0] < best[0]:
            best = (float(d[0]), idx, float(t[0]))
    if best[1] is None or best[0] > 1e-6 * max(1.0, norm(x)):
        raise GeometryError("point is not on the boundary")
    return best[1], best[2]


def _advance(pieces, cur, dt, closed):
    """Move dt (signed) along the chain; returns ((idx, t), hit_open_end)."""
    idx, t = cur
    remaining = dt
    while True:
        pc = pieces[idx]
        if remaining >= 0:
            room = pc.t1 - t
            if remaining <= room:
                return (idx, t + remaining), False
            remaining -= room
            nxt = idx + 1
            if nxt >= len(pieces):
                if not closed:
                    return (idx, pc.t1), True
                nxt = 0
            idx, t = nxt, pieces[nxt].t0
        else:
            room = t - pc.t0
            if -remaining <= room:
                return (idx, t + remaining), False
            remaining += room
            nxt = idx - 1
            if nxt < 0:
                if not closed:
                    return (idx, pc.t0), True
                nxt = len(pieces) - 1
            idx, t = nxt, pieces[nxt].t1


def cone_from(z, E: Body2, refine_iters: int = 90) -> Cone2:
    """Closure of the cone with vertex z generated by the body E.

    At a boundary vertex this degenerates to the supporting half-plane or
    corner cone; an interior vertex is an error (cone would be the plane).
    """
    z = as_point(z)
    if E.interior_many(z[None, :], TOL)[0]:
        raise GeometryError("cone vertex lies in the interior (cone is the plane)")
    if contains(E, z, 1e-7):
        fan = supporting_normals(E, z)
        d1 = perp(fan.hi)
        d2 = -perp(fan.lo)
        if fan.single:
            return Cone2(z, "halfplane", d1, d2)
        return Cone2(z, "wedge", d1, d2)
    ref_a = angle_of(unit(E.witness - z))

    def offsets_of(pts):
        rel = as_points(pts) - z
        return ((np.arctan2(rel[:, 1], rel[:, 0]) - ref_a + math.pi) % TWO_PI) - math.pi

    lo_val, hi_val = np.inf, -np.inf
    for pc in E.pieces():
        ts = pc.sample_params(257)
        offs = offsets_of(pc.point(ts))
        for maximize in (False, True):
            j = int(np.argmax(offs) if maximize else np.argmin(offs))
            t_lo = ts[max(j - 1, 0)]
            t_hi = ts[min(j + 1, len(ts) - 1)]
            sign = -1.0 if maximize else 1.0
            t_best, f_best = golden_min(along(lambda p: sign * offsets_of(p), pc.point),
                                        t_lo, t_hi, iters=refine_iters)
            val = sign * f_best
            lo_val = min(lo_val, val)
            hi_val = max(hi_val, val)
    for r in E.recession_cone().directions():
        o = ((angle_of(r) - ref_a + math.pi) % TWO_PI) - math.pi
        lo_val = min(lo_val, o)
        hi_val = max(hi_val, o)
    d1 = dir_of(ref_a + lo_val)
    d2 = dir_of(ref_a + hi_val)
    span = hi_val - lo_val
    if span <= 1e-12:
        return Cone2(z, "ray", d1, d1)
    if span >= math.pi - 1e-9:
        return Cone2(z, "halfplane", d1, d2)
    return Cone2(z, "wedge", d1, d2)


@dataclass
class BoundaryArc:
    """Portion of a body's boundary: parameter intervals over boundary pieces."""

    parent: Body2
    intervals: list  # (piece_index, t_lo, t_hi); t_lo == t_hi marks a point

    def is_empty(self) -> bool:
        return not self.intervals

    def sample(self, n: int = 64) -> np.ndarray:
        pts = []
        pieces = self.parent.pieces()
        for (idx, t0, t1) in self.intervals:
            pc = pieces[idx]
            if t1 - t0 <= 1e-12:
                pts.append(np.atleast_2d(pc.point(np.array([t0]))))
            else:
                pts.append(pc.point(np.linspace(t0, t1, max(2, n))))
        return np.vstack(pts) if pts else np.zeros((0, 2))

    def endpoints(self) -> np.ndarray:
        pts = []
        pieces = self.parent.pieces()
        for (idx, t0, t1) in self.intervals:
            pc = pieces[idx]
            pts.append(np.asarray(pc.point(t0)))
            if t1 - t0 > 1e-12:
                pts.append(np.asarray(pc.point(t1)))
        return np.array(pts) if pts else np.zeros((0, 2))

    def length(self) -> float:
        total = 0.0
        pieces = self.parent.pieces()
        for (idx, t0, t1) in self.intervals:
            if t1 - t0 <= 1e-12:
                continue
            pts = pieces[idx].point(np.linspace(t0, t1, 64))
            total += float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())
        return total


def tangency_set(z, C: Body2) -> BoundaryArc:
    """Tangency set: the part of C on the boundary of the cone from z.

    Two points for a rotund body, up to two segments for a polyhedral one.
    Needs z outside C; boundedness of the result relies on C having no
    asymptotic directions.
    """
    z = as_point(z)
    if contains(C, z, TOL):
        raise GeometryError("tangency set needs an exterior viewpoint")
    cone = cone_from(z, C)
    intervals = []
    for d in (cone.d1, cone.d2):
        intervals.extend(_ray_boundary_contacts(C, z, d))
    pieces = C.pieces()
    out = []
    kept_pts = []
    for iv in intervals:
        pc = pieces[iv[0]]
        mid = np.asarray(pc.point(0.5 * (iv[1] + iv[2])))
        if iv[2] - iv[1] > 1e-9 or not any(norm(mid - q) < 1e-6 * max(1.0, norm(mid))
                                           for q in kept_pts):
            out.append(iv)
            kept_pts.append(mid)
    arc = BoundaryArc(C, out)
    if arc.is_empty():
        raise GeometryError("empty tangency set (asymptotic direction suspected)")
    return arc


def _ray_boundary_contacts(C: Body2, z, d, tol: float = 1e-6):
    """Parameter intervals where the tangent ray z + R+ d touches the boundary.

    The ray's line supports the body, so the cross-offset has constant sign
    along the boundary and vanishes exactly on the contact set.
    """
    out = []
    for idx, pc in enumerate(C.pieces()):
        if isinstance(pc, Segment):
            collinear = abs(cross2(pc.d, d)) < 1e-9
            a_off = abs(float(cross2(d, pc.a - z)))
            if collinear and a_off <= tol * max(1.0, norm(pc.a - z)):
                if float((pc.a - z) @ d) > -tol or float((pc.b - z) @ d) > -tol:
                    out.append((idx, pc.t0, pc.t1))
                continue
        ts = pc.sample_params(513)
        pts = pc.point(ts)
        rel = pts - z
        offs = np.abs(cross2(np.broadcast_to(d, rel.shape), rel))
        j = int(np.argmin(offs))
        t_lo = ts[max(j - 1, 0)]
        t_hi = ts[min(j + 1, len(ts) - 1)]
        t_best, f_best = golden_min(lambda t: np.abs(cross2(d, pc.point(t) - z)),
                                    t_lo, t_hi)
        p_best = np.asarray(pc.point(t_best))
        if f_best <= tol * max(1.0, norm(p_best - z)) and float((p_best - z) @ d) > tol:
            out.append((idx, t_best, t_best))
    return out


def supporting_cone(x, C: Body2) -> Body2:
    """Intersection of all supporting half-planes of C at the boundary point x.

    The two extreme normals suffice in the plane; the result equals the
    closure of cone_from(x, C).
    """
    x = as_point(x)
    fan = supporting_normals(C, x)
    hps = [HalfPlane(n, float(n @ x)) for n in fan.extremes()]
    return Body2(PlaneBase(), hps, name="supporting_cone", witness=None)


def _mask_runs(mask: np.ndarray) -> np.ndarray:
    """(first, last) index rows of the True runs of a boolean mask."""
    edges = np.diff(np.concatenate([[0], mask.astype(int), [0]]))
    return np.column_stack([np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1])


def relative_boundary(B: Body2, C: Body2, samples_per_piece: int = 129,
                      tol: float = 1e-9, check_containment: bool = True) -> BoundaryArc:
    """Closure of the part of the boundary of B lying in the interior of C.

    Returns parameter intervals over B's boundary pieces; endpoints refined
    onto the boundary of C.
    """
    clip_derived = B.base is C.base and all(
        any(c is d for d in B.cuts) for c in C.cuts)
    if check_containment and not clip_derived:
        probe = B.boundary_samples(96)
        big = max(1.0, float(np.abs(probe).max()))
        if not C.contains_many(probe, 1e-6 * big).all():
            raise GeometryError("the inner body is not contained in the ambient")

    intervals = []
    for idx, pc in enumerate(B.pieces()):
        ts = pc.sample_params(samples_per_piece)
        runs = _mask_runs(C.margin_many(pc.point(ts)) < -tol)
        if not len(runs):
            continue
        # closure endpoints: each run end strictly inside the piece moves
        # from its outside neighbour to the margin-0 frontier, in one batch
        t_ends = ts[runs]
        outer = runs + [-1, 1]
        cut = (outer >= 0) & (outer < len(ts))
        if cut.any():
            t_ends[cut] = bisect_leq(along(C.margin_many, pc.point),
                                     ts[outer[cut]], t_ends[cut], 52)
        intervals.extend((idx, float(lo), float(hi)) for lo, hi in t_ends)
    return BoundaryArc(B, intervals)


# ---------------------------------------------------------------------------
# classification predicates

def find_boundary_segment(C: Body2, min_length: float = 1e-6):
    """Longest straight boundary piece, or None if the boundary has none."""
    best = None
    for pc in C.pieces():
        if isinstance(pc, Segment) and not pc.synthetic and pc.length >= min_length:
            if best is None or pc.length > best.length:
                best = pc
    return best


def is_rotund(C: Body2) -> bool:
    """No nontrivial straight segment on the boundary.

    Decided structurally: any straight boundary piece disqualifies, and
    analytic graph pieces inherit the profile's strict-convexity flag.
    Sampling the rotundity modulus cannot make this call (it underflows on
    asymptotically flat but strictly convex boundaries).
    """
    for pc in C.pieces():
        if isinstance(pc, Segment) and not pc.synthetic:
            return False
        if isinstance(pc, GraphPiece) and not pc.base.profile.strictly_convex:
            return False
    return True


def find_asymptotic_direction(C: Body2):
    """Search the recession cone's extreme rays; returns (v, x0) or None.

    Interior recession directions can never be asymptotic (their orthogonal
    supports are infinite), so the extreme rays exhaust the candidates.
    """
    if C.bounded:
        return None
    for v in C.recession_cone().directions():
        ok, x0 = is_asymptotic_direction(C, v)
        if ok:
            return unit(v), x0
    return None
