"""Planar convex-body kernel.

Bodies are closed convex proper subsets of the plane with nonempty
interior, stored as an analytic base (none, ball, or the epigraph of a
convex profile under a scaled isometry) intersected with a list of
half-planes.  All predicates are tolerance-based; evaluation paths accept
(N, 2) point arrays.

A body's cuts keep one vertex chain (`halfplane_chain`, cached as
`Body2.chain`): the meets of consecutive irredundant cuts, a bounded
half-plane body's alone, other bodies' within their window box.  A
half-plane body's boundary pieces, its containment test in another body
and the polygon Hausdorff distance of the extension read it; ball and
epigraph bodies clip its cut edges to their base.

Where a line meets a body is one primitive, `chord_ends`: closed form on
half-planes, a ball or a parabola, and one `Profile.slope_point` minimum
plus one `newton_leq` solve per end on other epigraph profiles.  Epigraph
boundary pieces, the no-Lipschitz lower profile, the forcing arc lengths
and the segment test of the extension all read chords; `chord_parts`
clips chords by a body's cuts, for the relative boundary in e(B) and the
nesting check of a level family.

The root finders (`bisect_leq`, `newton_leq`, `golden_min`,
`coarse_golden_min`) take numpy-broadcasting closures: `f(t)` returns an
array shaped like `t` (`along` builds one from a point path).  Each solves
an array of independent brackets in one loop with the same step rule as
for a single bracket.  `newton_leq` stops each bracket at an absolute
target that its caller derives from the rounding scale of its own f
(`rounding_target`: a few eps times the magnitudes of f's terms at the
bracket, over |f'|), or at adjacent floats, and freezes it there, so a
batched call returns its per-bracket calls' results bit for bit: the
chords of `Profile.chord` (`Profile.chord_target`), the normal equation
of a projection and the chords of the no-uniformly-continuous
certificate take such targets, and a zero target means adjacent floats.
The projection onto a graph stretch (`GraphPiece.distance_many`) is one
`newton_leq` on the normal equation at every upward crossing of its
samples, its derivative from the profile's g'' (`Profile.ddg`);
`golden_min` stays for the minima of `cone_from`,
`_ray_boundary_contacts` and the staircase check.  Slope points are
closed form on the parabola and start from guesses
(`Profile.slope_guess`) that leave a bisection a few floats wide: closed
form on the cosh and exp profiles, a `newton_leq` solve on g' with g''
to adjacent floats (target 0) on a polynomial profile.  Coupled roots
are not theirs: the unit-chord chain of the no-uniformly-continuous
certificate, where each link starts at the end of the one before, is
one Newton solve of the whole chain, stopped once every step is a few
float spacings (`counterexamples._unit_chain`), and `newton_leq` runs one
link at a time only from the first link that solve does not keep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

TOL = 1e-9            # absolute tolerance for geometric predicates
WINDOW_MULT = 1024.0  # working window half-size = WINDOW_MULT * witness clearance
NORMAL_REACH = 1e-7   # supporting_normals' and active_normals' reach, per max(1, |x - witness|)
MIN_SEGMENT = 1e-6    # shortest straight boundary piece find_boundary_segment reports

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


def dots(pts, dirs):
    """Row-wise d . p over broadcast (..., 2) arrays, written out per
    coordinate so a row's value does not depend on the array's shape (a
    matmul picks its kernel by shape, and its rows can differ in the last
    bit)."""
    return pts[..., 0] * dirs[..., 0] + pts[..., 1] * dirs[..., 1]


def lengths(v):
    """Row-wise |v| over a (..., 2) array (math.hypot per row)."""
    return np.hypot(v[..., 0], v[..., 1])


def linear2(M, x, y, shift=None):
    """M (x, y)^T (+ shift) over arrays x and y of one shape, shaped
    x.shape + (2,) and written out per coordinate, as dots.  M is 2 x 2
    (nested lists of floats are the fastest to unpack)."""
    (a, b), (c, d) = M
    out = np.empty(np.shape(x) + (2,))
    if shift is None:
        out[..., 0] = x * a + y * b
        out[..., 1] = x * c + y * d
    else:
        out[..., 0] = x * a + y * b + shift[0]
        out[..., 1] = x * c + y * d + shift[1]
    return out


def angle_of(v) -> float:
    """Angle in [0, 2*pi)."""
    a = math.atan2(v[1], v[0])
    return a + TWO_PI if a < 0 else a


def dir_of(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


def ccw_span(a: float, b: float) -> float:
    """Counterclockwise angular distance from a to b, in [0, 2*pi)."""
    return (b - a) % TWO_PI


def _select(ok, x, y):
    return x if ok else y


def golden_min(f, a, b, iters: int = 80):
    """Golden-section minimum of f on [a, b], one f call per step.

    a and b broadcast to an array of brackets that are narrowed together
    (np.where picks each bracket's side); scalar brackets keep plain
    floats.  Returns the bracket midpoints and f there.
    """
    pick = np.where if np.ndim(a) or np.ndim(b) else _select
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        left = fc < fd
        a, b = pick(left, a, c), pick(left, d, b)
        x = pick(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        fx = f(x)
        c, d = pick(left, x, d), pick(left, c, x)
        fc, fd = pick(left, fx, fd), pick(left, fc, fx)
    t = 0.5 * (a + b)
    return t, f(t)


def coarse_golden_min(f, a, b):
    """Golden-section minimum seeded by staged coarse-grid argmins.

    No caller in qcext is left; it stays because perfbench/tracing.py
    counts it by name (ROOT_FINDERS) and a test oracle of chord_ends
    (_staged_chord_ends) runs it.

    Re-grids a bracket (at most six times) while its samples show a flat
    plateau, so narrow basins inside wide clipped-profile plateaus are not
    lost.  a and b broadcast to an array of brackets: each stage's grids,
    shaped a.shape + (samples,), are one f call, and only brackets still on
    a plateau take the next stage's grid.
    """
    samples = 257
    lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    regrid = np.ones(lo.shape, dtype=bool)
    for _ in range(6):
        us = np.linspace(lo, hi, samples, axis=-1)
        vals = f(us)
        j = np.argmin(vals, axis=-1)
        # samples j-2, j-1, j+1, j+2, clamped to the grid
        near = np.clip(j[..., None] + np.array([-2, -1, 1, 2]), 0, samples - 1)
        u_near = np.take_along_axis(us, near, -1)
        v_near = np.take_along_axis(vals, near, -1)
        lo = np.where(regrid, u_near[..., 1], lo)
        hi = np.where(regrid, u_near[..., 2], hi)
        # exactly equal neighbor samples signal a clipped plateau inside the
        # bracket; golden section would wander off it, so re-grid instead
        plateau = (((j >= 2) & (v_near[..., 0] == v_near[..., 1]))
                   | ((j + 2 < samples) & (v_near[..., 2] == v_near[..., 3])))
        regrid &= plateau & (hi - lo > 1e-12 * (np.abs(hi) + np.abs(lo) + 1.0))
        if not regrid.any():
            break
    if lo.ndim == 0:
        lo, hi = float(lo), float(hi)
    return golden_min(f, lo, hi, iters=90)


def bisect_leq(f, bad, good, iters: int = 80):
    """Crossing points between f(bad) > 0 and f(good) <= 0.

    bad and good broadcast to an array of brackets that are bisected
    together, one f call per step; returns the good sides, a scalar for a
    scalar bracket.  The loop stops after a fourth step that moved no
    bracket end: a bracket that did not move never moves again (its
    midpoint and f there repeat), so the result is the fixed-count loop's.
    """
    bad, good = np.broadcast_arrays(np.asarray(bad, dtype=float),
                                    np.asarray(good, dtype=float))
    for k in range(iters):
        mid = 0.5 * (bad + good)
        ok = f(mid) <= 0
        new_good, new_bad = np.where(ok, mid, good), np.where(ok, bad, mid)
        if k % 4 == 3 and (new_good == good).all() and (new_bad == bad).all():
            break
        good, bad = new_good, new_bad
    return good[()]


#: newton_leq's rounds at most; each cuts a finite bracket to a sixteenth or
#: less, so 20 cut it to 2^-80 of its first width, as bisect_leq's halvings
_NEWTON_ROUNDS = 40
#: newton_leq's probes each round, as fractions of the bracket: its
#: sixteenths from the good end, and the guards about the Newton point
_NEWTON_GRID = np.arange(1, 16) / 16.0
_NEWTON_GUARDS = np.concatenate([-(256.0 ** -np.arange(1, 7)), 256.0 ** -np.arange(1, 7)])
#: and in float spacings about the Newton point, so that a zero target ends
#: a round after Newton is good to a float
_NEWTON_ULPS = np.array([-4.0, -1.0, 0.0, 1.0, 4.0])


def rounding_target(terms, slope):
    """A root's absolute target from its function's rounding scale: 4 eps
    (eps = 2^-52) times the summed magnitudes of f's terms where it is
    evaluated, over |f'| there (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3).  Past it the sign of f is rounding noise.  A zero
    slope gives an infinite target."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return 4.0 * np.finfo(float).eps * terms / np.abs(slope)


def _narrow(f, probes, bad, good, f_bad=np.nan, f_good=np.nan):
    """Brackets narrowed by one f call at probes, shaped (k,) + the brackets'
    shape: the new bad end is the probe with f > 0 nearest to good, the new
    good end the probe with f <= 0 nearest to it on good's side; an end
    stays where no probe strictly inside its bracket qualifies.  A probe
    outside its bracket or not finite is taken at the bracket's midpoint
    instead.  Returns (bad, good, f(bad), f(good)), with the given f_bad
    and f_good for the ends that stay."""
    lo, hi = np.minimum(bad, good), np.maximum(bad, good)
    probes = np.where((probes > lo) & (probes < hi), probes, 0.5 * (bad + good))
    inside = (probes > lo) & (probes < hi)  # an adjacent pair's midpoint is an end
    f_probe = f(probes)
    ok = f_probe <= 0
    sign = np.sign(bad - good)
    key = probes * sign  # grows from good toward bad, exactly
    key_bad = np.where(inside & ~ok, key, np.inf).min(axis=0)
    key_good = np.where(inside & ok & (key < key_bad), key, -np.inf).max(axis=0)
    with np.errstate(invalid="ignore"):  # inf * 0 where a bracket is one point
        bad = np.where(key_bad < np.inf, key_bad * sign, bad)
        good = np.where(key_good > -np.inf, key_good * sign, good)
    f_bad = np.where(key_bad < np.inf, np.where(probes == bad, f_probe, -np.inf).max(axis=0), f_bad)
    f_good = np.where(key_good > -np.inf,
                      np.where(probes == good, f_probe, -np.inf).max(axis=0), f_good)
    return bad, good, f_bad, f_good


def newton_leq(f, df, bad, good, target):
    """Crossing points between f(bad) > 0 and f(good) <= 0, by safeguarded
    Newton steps; df is f's derivative.

    bad and good broadcast to an array of brackets narrowed together, each
    round by one df call at the bad ends and one f call at every bracket's
    probes (_narrow).  The probes are the Newton point x from the
    bad end, x plus and minus 1 and 4 float spacings and 256^-j of the
    bracket (j = 1..6), the false-position point of the ends and the
    bracket's sixteenths.  A Newton or false-position point that leaves the
    bracket or is not finite falls back to the midpoint.  Where x is good
    to within e, one guard pair brackets the root within 256 e of x, so the
    bracket follows Newton's quadratic convergence; the sixteenths bound
    the rounds where Newton crawls (on a clipped exponential tail) or f is
    rounding noise.  On a convex f, Newton from the bad end stays on that
    side, as in Profile.chord.

    target is each bracket's absolute target: a number or an array that
    broadcasts with the brackets, or a callable target(t, f(t), df(t))
    that gives it at the brackets' bad ends t (the caller's
    rounding_target there), read at the start of each round.  A bracket is
    done once its ends are adjacent floats or its width is at most its
    target; a done bracket is frozen, its ends and f values never change
    again, and the call ends when every bracket is done (a round that
    finds every bracket at adjacent floats calls neither df nor target) or
    after _NEWTON_ROUNDS rounds.  Returns the good ends.  So with a pointwise f,
    df and target a batched call returns its per-bracket calls' results bit
    for bit, and with target 0 the result is bisect_leq's switching float
    wherever the sign of f is monotone and bisect_leq converges to adjacent
    floats.
    """
    bad, good = (np.array(a, dtype=float) for a in np.broadcast_arrays(
        np.asarray(bad, dtype=float), np.asarray(good, dtype=float)))
    goal = target if callable(target) else (lambda *_: target)
    f_bad, f_good = f(np.stack([bad, good]))
    shape = (-1,) + (1,) * bad.ndim
    grid, guards, ulps = (a.reshape(shape) for a in (_NEWTON_GRID, _NEWTON_GUARDS, _NEWTON_ULPS))
    done = np.zeros(bad.shape, dtype=bool)
    for _ in range(_NEWTON_ROUNDS):
        # adjacent floats first: where every bracket is, df is not needed
        done |= np.nextafter(good, bad) == bad
        if done.all():
            break
        df_bad = df(bad)
        done |= np.abs(bad - good) <= goal(bad, f_bad, df_bad)
        if done.all():
            break
        width = bad - good
        with np.errstate(all="ignore"):
            false_pos = bad - f_bad * width / (f_bad - f_good)
            x = bad - f_bad / df_bad
        x = np.where(np.isfinite(x), x, false_pos)
        probes = np.concatenate([good + grid * width, false_pos[None], x + guards * width,
                                 x + ulps * np.spacing(np.abs(x))])
        new = _narrow(f, probes, bad, good, f_bad, f_good)
        if done.any():  # frozen
            new = (np.where(done, old, moved)
                   for old, moved in zip((bad, good, f_bad, f_good), new))
        bad, good, f_bad, f_good = new
    return good[()]


def along(fn, path):
    """Broadcasting closure t -> fn(path(t)) shaped like t, for an fn that
    maps (N, 2) points to N values (a margin, an offset)."""
    return lambda t: fn(as_points(path(t))).reshape(np.shape(t))


# ---------------------------------------------------------------------------
# half-planes

#: a normal this close to unit length is kept bit for bit
UNIT_SLACK = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class HalfPlane:
    """Closed half-plane {p : normal . p <= offset}, stored with a unit
    normal.

    A normal n of length s (math.hypot) is stored as given when
    |s - 1| <= 4 eps, so a unit normal read back from JSON keeps its bits;
    otherwise normal and offset are both divided by s, which keeps the
    half-plane: HalfPlane((0, 2), 2) is {y <= 1}.  A zero normal raises
    GeometryError.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        offset = float(self.offset)
        s = math.hypot(n[0], n[1])
        if s == 0.0:
            raise GeometryError("half-plane normal must be nonzero")
        if abs(s - 1.0) > UNIT_SLACK:
            n, offset = n / s, offset / s
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", offset)

    def value(self, pts: np.ndarray) -> np.ndarray:
        """Signed margin; <= 0 inside, equals the distance outside (as
        CutTable.values, x n_x + y n_y - offset per point)."""
        return dots(as_points(pts), self.normal) - self.offset


#: values per CutTable.margin temporary: calls up to this many point-cut
#: values are one (m, N) expression, larger ones run per cut over blocks of
#: this many points
_CUT_BLOCK = 16384


class CutTable:
    """Half-planes stacked once as unit normals (m, 2) and offsets (m,).

    Every margin is x * n_x + y * n_y - offset in that order of operations,
    so a point's value does not depend on the other points of the call.
    """

    def __init__(self, halfplanes: Sequence[HalfPlane] = (), normals=None, offsets=None):
        """From half-planes, or from unit normals (m, 2) and offsets (m,)."""
        if normals is None:
            normals = [hp.normal for hp in halfplanes]
            offsets = [hp.offset for hp in halfplanes]
        self.normals = np.array(normals, dtype=float).reshape(-1, 2)
        self.offsets = np.array(offsets, dtype=float).reshape(-1)
        # (m, 1) columns that broadcast against a row of N coordinates
        self._columns = (self.normals[:, :1], self.normals[:, 1:], self.offsets[:, None])

    def values(self, pts: np.ndarray) -> np.ndarray:
        """(m, N) signed margins of every cut at every point of an (N, 2)
        array."""
        nx, ny, c = self._columns
        v = nx * pts[:, 0]
        v += ny * pts[:, 1]
        v -= c
        return v

    def margin(self, pts) -> np.ndarray:
        """Largest cut margin per point, -inf without cuts.

        Up to _CUT_BLOCK point-cut values this is one (m, N) array
        expression; beyond, each block of _CUT_BLOCK points takes one
        in-place pass per cut over contiguous coordinate rows.  Against
        per-cut matrix-vector products the first is 2-10x faster for m >= 4
        at small N; the second is 5-20% slower for m <= 4 at N of
        4,000-9,000, about as fast for m >= 8 and faster at N = 10^5.
        """
        pts = as_points(pts)
        m = len(self.offsets)
        if m * len(pts) <= _CUT_BLOCK:
            v = self.values(pts)
            return v[0] if m == 1 else v.max(axis=0, initial=-np.inf)
        out = np.full(len(pts), -np.inf)
        buf = np.empty((2, min(len(pts), _CUT_BLOCK)))
        for s in range(0, len(pts), _CUT_BLOCK):
            x, y = pts[s:s + _CUT_BLOCK].T.copy()
            o, t, u = out[s:s + len(x)], buf[0, :len(x)], buf[1, :len(x)]
            for (nx, ny), c in zip(self.normals, self.offsets):
                np.multiply(x, nx, out=t)
                t += np.multiply(y, ny, out=u)
                t -= c
                np.maximum(o, t, out=o)
        return out


def _line_halfplanes(anchors, directions, skip_below: float = 0.0) -> list:
    """Per row of two (m, 2) arrays, the half-plane bounded by the line
    through anchors[i] along directions[i], interior on the left, skipping
    rows whose direction is skip_below long or shorter (with 0, a zero
    direction is an error).  Each is what the per-line recipe gives, bit for
    bit: d = unit(direction) by math.hypot, normal -perp(d), offset the 1-D
    `@` product normal @ anchor (a stacked matmul of (1, 2) by (2, 1) runs
    the same dot)."""
    length = np.fromiter(map(math.hypot, directions[:, 0].tolist(), directions[:, 1].tolist()),
                         float, len(directions))
    if skip_below == 0.0 and not length.all():
        raise GeometryError("cannot normalize the zero vector")
    keep = length > skip_below
    d = directions[keep] / length[keep, None]
    normals = np.column_stack([d[:, 1], -d[:, 0]])
    offsets = (normals[:, None, :] @ anchors[keep, :, None])[:, 0, 0]
    return [HalfPlane(n, o) for n, o in zip(normals, offsets.tolist())]


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


def _cone_from_pieces(apex: np.ndarray, pieces: list) -> Cone2:
    pieces = [p for p in pieces if p[1] > 1e-9] or pieces
    if not pieces:
        return Cone2(apex, "point")
    if len(pieces) == 1:
        s, ln = pieces[0]
        if ln >= TWO_PI - 1e-9:
            return Cone2(apex, "plane")
        if ln <= 1e-9:
            d = dir_of(s)
            return Cone2(apex, "ray", d, d)
        if abs(ln - math.pi) <= 1e-9:
            return Cone2(apex, "halfplane", dir_of(s), dir_of(s + ln))
        if ln > math.pi + 1e-9:
            raise GeometryError("recession span exceeds pi for a proper convex set")
        return Cone2(apex, "wedge", dir_of(s), dir_of(s + ln))
    pieces = sorted(pieces, key=lambda p: -p[1])[:2]
    (s1, l1), (s2, l2) = pieces
    if l1 <= 1e-9 and l2 <= 1e-9 and abs(ccw_span(s1, s2) - math.pi) < 1e-6:
        return Cone2(apex, "line", dir_of(s1), dir_of(s2))
    raise GeometryError("disconnected direction set; the body is not convex")


# ---------------------------------------------------------------------------
# profiles

class Profile:
    """Convex scalar profile g with its first and second derivatives (dg,
    ddg) and recession slopes.  A profile that clips u (exp, cosh at
    +-700) evaluates g, dg and ddg at the clipped u alike."""

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

    def ddg(self, u):
        raise NotImplementedError

    def slope_guess(self, s, lo, hi):
        """A u near where g'(u) = s in [lo, hi] (arrays broadcasting with
        s), or None without one."""
        return None

    def slope_point(self, s, lo, hi):
        """Where g' crosses s on [lo, hi], elementwise over broadcast
        arrays: the good side of one bisect_leq on the monotone g' - s from
        bad = hi to good = lo (lo where g'(lo) > s; where g'(hi) <= s, hi or
        the float below it, as the last halving rounds).

        With a slope_guess, one g' call at the guess plus and minus four
        float spacings, moved strictly inside [lo, hi], narrows each bracket
        first (_narrow), so the bisection starts a few floats wide.  Where
        the guess is off, the bracket narrows only to one probe, and a NaN
        guess probes the midpoint.  The result is the one the whole
        bracket's bisection converges to wherever the sign of g' - s is
        monotone.
        """
        s = np.asarray(s, dtype=float)
        bad, good = np.broadcast_to(hi, s.shape), np.broadcast_to(lo, s.shape)

        def f(u):
            return self.dg(u) - s

        guess = self.slope_guess(s, good, bad)
        if guess is not None:
            inner = np.nextafter(good, bad), np.nextafter(bad, good)
            guess = np.clip(guess, *inner)
            spread = np.array([-4.0, 4.0]).reshape((2,) + (1,) * s.ndim)
            probes = np.clip(guess + spread * np.spacing(np.abs(guess)), *inner)
            bad, good = _narrow(f, probes, bad, good)[:2]
        return bisect_leq(f, bad, good)

    def chord(self, pu, pv, qu, qv, half):
        """(lo, hi) per line (pu, pv) + t (qu, qv) of the profile frame: the
        line keeps h(t) = g(pu + t qu) - (pv + t qv) <= 0 on [lo, hi] within
        |t| <= half, and lo > hi where h > 0 on the whole window.

        h is convex.  Its window minimum is where g'(u) = qv / qu
        (slope_point; the window end toward qv where qu = 0, h being
        linear), and one newton_leq over the (K, 2) brackets, with
        h'(t) = g'(pu + t qu) qu - qv, moves each window end with h > 0 onto
        the root between it and the minimum.  Each end stops at adjacent
        floats or within its chord_target, h's rounding scale over |h'| at
        the bracket's outer end: past it the sign of h is rounding noise.
        An end is within that target of the root of the same float line's
        h at 50 digits, where the root is simple (not a tangent line's).
        """
        ends = np.column_stack([-half, half])
        u_ends = pu[:, None] + ends * qu[:, None]
        lin = qu == 0
        q_u = np.where(lin, 1.0, qu)
        u_min = self.slope_point(np.where(lin, 0.0, qv / q_u), u_ends.min(axis=1),
                                 u_ends.max(axis=1))
        t_min = np.clip(np.where(lin, np.copysign(half, qv), (u_min - pu) / q_u), -half, half)

        def h(t, pu, pv, qu, qv):
            return self.g(pu + t * qu) - (pv + t * qv)

        meets = h(t_min, pu, pv, qu, qv) <= 0
        out = (h(ends.T, pu, pv, qu, qv).T > 0) & meets[:, None]
        if out.any():
            rows = np.nonzero(out)[0]
            lines = pu[rows], pv[rows], qu[rows], qv[rows]
            p_u, _, q_u, q_v = lines
            ends[out] = newton_leq(
                lambda t: h(t, *lines), lambda t: self.dg(p_u + t * q_u) * q_u - q_v,
                ends[out], t_min[rows], lambda *at: self.chord_target(*lines, *at))
        return np.where(meets, ends[:, 0], np.inf), np.where(meets, ends[:, 1], -np.inf)

    def chord_target(self, pu, pv, qu, qv, t, h, dh):
        """rounding_target of h(t) = g(pu + t qu) - (pv + t qv) at t, from
        h(t) and h'(t): h's terms are g(u), at most |h| + |pv| + |t qv|,
        pv and t qv, and g'(u) = (h' + qv) / qu times u's terms pu and
        t qu (none where qu = 0, as u = pu then), over |h'(t)|.  Terms and
        slope are divided by max(1, |h'|) first, so a g past a clip cannot
        overflow."""
        s = np.maximum(1.0, np.abs(dh))
        with np.errstate(divide="ignore", invalid="ignore"):
            u_terms = np.where(qu == 0, 0.0, np.abs(pu / qu) + np.abs(t))
            terms = ((np.abs(h) + 2.0 * (np.abs(pv) + np.abs(t * qv))) / s
                     + np.abs((dh + qv) / s) * u_terms)
        return rounding_target(terms, dh / s)

    def validate(self):
        u = np.linspace(-64.0, 64.0, 512)
        g = self.g(u)
        d2 = g[:-2] - 2 * g[1:-1] + g[2:]
        if np.min(d2) < -1e-7 * max(1.0, float(np.max(np.abs(g)))):
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

    def ddg(self, u):
        return np.full(np.shape(u), 2.0 * self.a)

    def slope_point(self, s, lo, hi):
        """Closed form: g'(u) = 2 a u = s at u = s / (2 a), clamped."""
        return np.clip(np.asarray(s, dtype=float) / (2.0 * self.a), lo, hi)

    def chord(self, pu, pv, qu, qv, half):
        """Closed form: h(t) = A t^2 + B t + D with A = a qu^2,
        B = 2 a pu qu - qv and D = g(pu) - pv, by the stable root formula
        k = -(B + sign(B) sqrt(B^2 - 4 A D)) / 2, roots k / A and D / k.
        Where qu = 0 h is linear and its root is D / k = -D / B; a negative
        discriminant misses.  The roots are not clipped to the window."""
        A = self.a * qu * qu
        B = 2.0 * self.a * pu * qu - qv
        D = self.g(pu) - pv
        disc = B * B - 4.0 * A * D
        k = -0.5 * (B + np.copysign(np.sqrt(np.maximum(disc, 0.0)), B))
        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = k / A  # +-inf where qu = 0: the linear h's unbounded side
            r2 = np.where(k == 0, r1, D / k)
        miss = disc < 0
        return (np.where(miss, np.inf, np.minimum(r1, r2)),
                np.where(miss, -np.inf, np.maximum(r1, r2)))


def _clip(u):
    """u clipped to the exp and cosh profiles' [-700, 700], as np.clip
    does, by two ufunc calls (np.clip's Python wrappers cost more than the
    clip on the few hundred values of a root-finding round)."""
    return np.minimum(np.maximum(np.asarray(u, dtype=float), -700.0), 700.0)


def _past_clip(u):
    """u, with values beyond the profiles' +-700 clip sent to +-inf."""
    return np.where(np.abs(u) > 700.0, np.copysign(np.inf, u), u)


class ExpProfile(Profile):
    """g(u) = exp(-u); flat toward +inf, steep toward -inf."""

    name = "exp"
    slope_pos = 0.0
    slope_neg = math.inf

    def __init__(self):
        self.params = {}

    def g(self, u):
        return np.exp(-_clip(u))

    def dg(self, u):
        return -np.exp(-_clip(u))

    def ddg(self, u):
        return np.exp(-_clip(u))

    def slope_guess(self, s, lo, hi):
        """-log(-s), closed form; past the +-700 clip g' is constant, so a
        guess beyond it is the infinity on its side (+inf also for s >= 0,
        which g' never reaches)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return _past_clip(-np.log(np.maximum(-s, 0.0)))


class CoshProfile(Profile):
    name = "cosh"

    def __init__(self, c: float = -2.0):
        self.c = float(c)
        self.params = {"c": self.c}

    def g(self, u):
        return np.cosh(_clip(u)) + self.c

    def dg(self, u):
        return np.sinh(_clip(u))

    def ddg(self, u):
        return np.cosh(_clip(u))

    def slope_guess(self, s, lo, hi):
        """asinh(s), closed form; an infinity past the +-700 clip (as on
        ExpProfile)."""
        return _past_clip(np.arcsinh(s))


class PolyProfile(Profile):
    name = "custom_poly"

    def __init__(self, coeffs: Sequence[float]):
        # increasing-degree coefficient order
        self.coeffs = [float(c) for c in coeffs]
        self.params = {"coeffs": self.coeffs}
        self._p = np.polynomial.polynomial.Polynomial(self.coeffs)
        self._dp = self._p.deriv()
        self._ddp = self._dp.deriv()
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

    def ddg(self, u):
        return self._ddp(np.asarray(u, dtype=float))

    def slope_guess(self, s, lo, hi):
        """newton_leq on g' - s with g'' from hi toward lo, evaluating the
        polynomials g' and g'' themselves (not dg); hi where g'(hi) <= s
        and lo where g'(lo) > s, without a solve."""
        s, lo, hi = np.broadcast_arrays(s, lo, hi)
        d_lo, d_hi = self._dp(np.stack([lo, hi]))
        out = np.where(d_hi <= s, hi, lo)
        inner = (d_lo <= s) & (d_hi > s)
        if inner.any():
            out[inner] = newton_leq(lambda u: self._dp(u) - s[inner], self._ddp,
                                    hi[inner], lo[inner], 0.0)
        return out


PROFILES = {
    "parabola": ParabolaProfile,
    "exp_hypograph": ExpProfile,  # canonical transform flips it into {s <= 1 - e^-t}
    "exp": ExpProfile,
    "cosh": CoshProfile,
    "custom_poly": PolyProfile,
}


# ---------------------------------------------------------------------------
# analytic bases

#: epigraph witness probes: profile abscissae u, heights t above the graph
#: and the (t, u) index grid, t-major
_PROBE_U = np.concatenate([[0.0], np.geomspace(1e-4, 64.0, 30), -np.geomspace(1e-4, 64.0, 30)])
_PROBE_T = np.geomspace(1e-3, 64.0, 25)
_PROBE_IT, _PROBE_IU = (i.ravel() for i in np.indices((len(_PROBE_T), len(_PROBE_U))))


def _probe_columns(cand: np.ndarray, margin: np.ndarray) -> tuple:
    """(cand, margin, x, y), read-only: a base's witness candidates (N, 2),
    their base margins (N,) and the candidates' coordinates as contiguous
    (N,) columns, which Body2._find_witness reads once per cut."""
    arrays = (cand, margin, cand[:, 0].copy(), cand[:, 1].copy())
    for a in arrays:
        a.flags.writeable = False
    return arrays


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

    @cached_property
    def probe(self):
        """Witness candidates (the centre, then a 41 x 41 grid over the
        bounding box), their margins and the candidates' contiguous x and y
        columns, read-only (_probe_columns)."""
        g = np.linspace(-self.radius, self.radius, 41)
        gx, gy = np.meshgrid(g, g)
        cand = np.vstack([self.center, self.center + np.stack([gx.ravel(), gy.ravel()], axis=-1)])
        return _probe_columns(cand, self.margin(cand))

    def inscribed(self, table: CutTable):
        """(normals, offsets) of the _INSCRIBED_EDGES edges of a regular
        polygon inscribed in the ball, for the witness fallback of a cut
        ball (Body2._find_witness); the cuts do not enter."""
        th = (np.arange(_INSCRIBED_EDGES) + 0.5) * (2.0 * math.pi / _INSCRIBED_EDGES)
        n = np.column_stack([np.cos(th), np.sin(th)])
        return n, n @ self.center + self.radius * math.cos(math.pi / _INSCRIBED_EDGES)

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
        # M, Minv and shift as floats, for the per-coordinate maps
        self._m, self._minv, self._shift = self.M.tolist(), self.Minv.tolist(), self.shift.tolist()

    def _uv(self, pts):
        """(u, v) of world points as two arrays: Minv (p - shift) written
        out per coordinate, so a point's value does not depend on the other
        points (a matmul's rows can differ in the last bit)."""
        pts = as_points(pts)
        (a, b), (c, e), (sx, sy) = *self._minv, self._shift
        x, y = pts[..., 0] - sx, pts[..., 1] - sy
        return x * a + y * b, x * c + y * e

    def to_profile(self, pts: np.ndarray) -> np.ndarray:
        """(u, v) of world points, shaped like pts (_uv)."""
        return np.stack(self._uv(pts), axis=-1)

    def from_profile(self, uv: np.ndarray) -> np.ndarray:
        """World points M (u, v)^T + shift, per coordinate."""
        uv = as_points(uv)
        return linear2(self._m, uv[..., 0], uv[..., 1], self._shift)

    def margin(self, pts: np.ndarray) -> np.ndarray:
        """First-order signed distance (negative inside); exact near the graph."""
        u, v = self._uv(pts)
        gap = self.profile.g(u) - v
        slope = self.profile.dg(u)
        return self.scale * gap / np.hypot(1.0, slope)

    @cached_property
    def probe(self):
        """Witness candidates (points at heights _PROBE_T above the graph
        at _PROBE_U, skipping |g| >= 1e9), their margins and the
        candidates' contiguous x and y columns, read-only
        (_probe_columns)."""
        gu = np.asarray(self.profile.g(_PROBE_U), dtype=float)
        keep = np.abs(gu) < 1e9  # steep-profile probes are numerically useless
        iu, it = _PROBE_IU[keep[_PROBE_IU]], _PROBE_IT[keep[_PROBE_IU]]
        uv = np.stack([_PROBE_U[iu], gu[iu] + _PROBE_T[it]], axis=-1)
        # profile margin straight from uv, without a world round trip
        slope = np.asarray(self.profile.dg(uv[:, 0]), dtype=float)
        m = self.scale * (np.asarray(self.profile.g(uv[:, 0]), dtype=float)
                          - uv[:, 1]) / np.hypot(1.0, slope)
        return _probe_columns(self.from_profile(uv), m)

    def profile_line(self, foot, d):
        """(pu, pv, qu, qv): the world lines foot + t d as p + t q in the
        profile frame with the same t, per coordinate (_uv)."""
        q = linear2(self._minv, d[:, 0], d[:, 1])
        return (*self._uv(foot), q[:, 0], q[:, 1])

    def chord(self, foot, d, half):
        """Profile.chord of the world lines foot + t d (profile_line), t in
        world arc length."""
        return self.profile.chord(*self.profile_line(foot, d), half)

    def graph_point(self, u) -> np.ndarray:
        """World points of the graph at u, shaped u.shape + (2,): M (u,
        g(u))^T + shift per coordinate, as from_profile."""
        u = np.asarray(u, dtype=float)
        return linear2(self._m, u, self.profile.g(u), self._shift)

    def graph_tangent(self, u) -> np.ndarray:
        """d graph_point / du = M (1, g'(u))^T, shaped u.shape + (2,)."""
        slope = self.profile.dg(np.asarray(u, dtype=float))
        (a, b), (c, d) = self._m
        return np.stack([a + slope * b, c + slope * d], axis=-1)

    def graph_normal(self, u) -> np.ndarray:
        """Outward unit normal of the epigraph at the graph point of u."""
        slope = self.profile.dg(np.asarray(u, dtype=float))
        n = np.stack([slope, -np.ones_like(slope)], axis=-1)
        n = n / np.linalg.norm(n, axis=-1, keepdims=True)
        return linear2(self.M / self.scale, n[..., 0], n[..., 1])

    def inscribed(self, table: CutTable):
        """(normals, offsets) of a polygon inscribed in the epigraph over the
        cuts' extent, for the witness fallback of a cut epigraph
        (Body2._find_witness).

        The extent is the profile abscissae u of the vertices of the cuts
        and the graph's tangent half-planes at _PROBE_U (a region holding
        the body), within the window box of its Chebyshev centre.  The
        polygon is the secants between _INSCRIBED_EDGES + 1 graph points
        equally spaced in u over the extent (graph_point: mapped through
        the transform), which lie in the epigraph since g is convex, and
        the two lines u = const through the end points.  GeometryError
        where the region has no interior or the extent is a point.
        """
        u = _PROBE_U[np.abs(self.profile.g(_PROBE_U)) < 1e9]
        n = np.vstack([table.normals, self.graph_normal(u)])
        c = np.concatenate([table.offsets, dots(self.graph_point(u), n[len(table.offsets):])])
        w, r = chebyshev_centre(n, c)
        verts, _ = halfplane_chain(n, c, w, min(max(WINDOW_MULT * r, 256.0), 1e7))
        extent = self.to_profile(verts)[:, 0]
        lo, hi = extent.min(), extent.max()
        if not lo < hi:
            raise GeometryError("the cuts' extent is a point")
        p = self.graph_point(np.linspace(lo, hi, _INSCRIBED_EDGES + 1))
        d = np.diff(p, axis=0)
        # the epigraph lies left of increasing u, right where M reflects
        side = math.copysign(1.0, np.linalg.det(self.M))
        edge = side * np.column_stack([d[:, 1], -d[:, 0]]) / np.hypot(d[:, 0], d[:, 1])[:, None]
        ends = np.stack([-self.M[:, 0], self.M[:, 0]]) / self.scale
        normals = np.vstack([edge, ends])
        return normals, dots(np.vstack([p[:-1], p[[0, -1]]]), normals)

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

    def __init__(self, a, b):
        self.a = as_point(a)
        self.b = as_point(b)
        self.length = norm(self.b - self.a)
        if self.length <= 0:
            raise GeometryError("degenerate segment")
        self.t0, self.t1 = 0.0, self.length
        self.d = (self.b - self.a) / self.length
        self.n = -perp(self.d)

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

    def sample_params(self, n: int) -> np.ndarray:
        return np.linspace(self.t0, self.t1, n)

    def distance_many(self, pts):
        pts = as_points(pts)
        rel = pts - self.a
        t = np.clip(dots(rel, self.d), 0.0, self.length)
        closest = self.a + t[:, None] * self.d
        return np.linalg.norm(pts - closest, axis=-1), t


class Arc:
    """Counterclockwise circular boundary piece, parameterized by arc length."""

    kind = "arc"

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

    def support_max(self, dirs):
        """Largest d . p over the arc and its parameter per (N, 2) direction
        row: the ends, and the point of normal d where the arc holds one."""
        th = np.arctan2(dirs[:, 1], dirs[:, 0])
        th_w = self.th0 + (np.where(th < 0, th + TWO_PI, th) - self.th0) % TWO_PI
        ts = np.column_stack([np.zeros(len(dirs)), np.full(len(dirs), self.length),
                              (th_w - self.th0) * self.radius])
        vals = dots(self.point(ts), dirs[:, None])
        vals[:, 2] = np.where(th_w <= self.th1, vals[:, 2], -np.inf)
        return _lex_max(vals, ts)


#: GraphPiece.distance_many scans each window of the graph at this many
#: equally spaced u
_PROJECTION_SCAN = 48
#: and samples the normal equation at these fractions of its last bracket
#: (at most two scan spacings), so minima one step apart are solved apart
_PROJECTION_STEPS = np.linspace(0.0, 1.0, 17)


class GraphPiece:
    """Boundary piece on the analytic graph of an epigraph base.

    Parameterized by the profile coordinate u, not by arc length: t = u,
    or t = -u on a flipped piece (t0 = -u1, t1 = -u0), so t and u convert
    exactly.  Coarse scans use an equal-chord reparameterization so steep
    stretches of the graph are sampled as densely in space as flat ones.
    """

    kind = "graph"

    def __init__(self, base: EpigraphBase, u0: float, u1: float):
        if u1 <= u0:
            raise GeometryError("empty graph piece")
        self.base = base
        self.u0, self.u1 = float(u0), float(u1)
        # the epigraph lies left of increasing u unless M reflects, so the
        # piece then runs from u1 to u0, on t = -u (exact both ways)
        self.flipped = bool(np.linalg.det(base.M) < 0)
        self.t0, self.t1 = (-self.u1, -self.u0) if self.flipped else (self.u0, self.u1)
        self._chord_grid = None

    def _u(self, t):
        t = np.asarray(t, dtype=float)
        return -t if self.flipped else t

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
        return (-u)[::-1] if self.flipped else u

    def distance_many(self, pts):
        """Distance to the graph stretch, per-point bracketed.

        The transform is a lam-isometry of the u-axis, so the nearest
        parameter lies within 2 d / lam of the query's profile abscissa
        (clipped to the stretch) for any graph point at distance d: first
        the anchor graph point there.  A scan of _PROJECTION_SCAN samples
        of that window brackets the nearest parameter, and is repeated
        while it finds a point that halves the window (its best sample, or
        a crossing of the query's profile level v between two samples, as
        near in u as the farther), so a coarse scan beside a steep arm does
        not settle on a far arm.

        The nearest parameter is where phi(u) = (G(u) - p) . G'(u), half
        the u-derivative of |G(u) - p|^2, crosses zero upward.  phi is
        sampled at the _PROJECTION_STEPS of the last scan's bracket [a, b]
        about its nearest sample (inside the body, near an evolute, [a, b]
        can hold a local maximum between two minima) and at the last
        scan's samples outside [a, b]: on a steep arm the nearest sample
        can sit in the basin of a farther minimum, and the nearer one is
        then an upward crossing between two other samples.  Every upward
        crossing is solved, all in one newton_leq (bad = right end, good =
        left end), with phi' = |G'|^2 + (G - p) . M (0, g'')^T.  Each point
        takes the nearest of its roots and its phi samples.
        """
        pts = as_points(pts)
        base, graph, tangent = self.base, self.base.graph_point, self.base.graph_tangent
        uv = base.to_profile(pts)
        u_a = np.clip(uv[:, 0], self.u0, self.u1)
        d0 = np.linalg.norm(pts - graph(u_a), axis=-1)
        frac = np.linspace(0.0, 1.0, _PROJECTION_SCAN)
        rad = 2.0 * d0 / base.scale + 1e-12
        a, b, todo = np.empty(len(pts)), np.empty(len(pts)), np.arange(len(pts))
        # each point's last scan: its u samples and their graph points - p
        scan = np.empty((_PROJECTION_SCAN, len(pts)))
        scan_rel = np.empty((_PROJECTION_SCAN, len(pts), 2))
        while len(todo):
            lo = np.maximum(self.u0, u_a[todo] - rad[todo])
            cand = lo[:, None] + (np.minimum(self.u1, u_a[todo] + rad[todo]) - lo)[:, None] * frac
            diff = graph(cand) - pts[todo, None, :]
            scan[:, todo], scan_rel[:, todo] = cand.T, diff.transpose(1, 0, 2)
            d2 = (diff ** 2).sum(-1)
            j, rows = np.argmin(d2, axis=1), np.arange(len(todo))
            a[todo] = cand[rows, np.maximum(j - 1, 0)]
            b[todo] = cand[rows, np.minimum(j + 1, _PROJECTION_SCAN - 1)]
            # g(u) - v has the sign of diff . M (0, 1)
            cross = np.diff(dots(diff, base.M[:, 1]) > 0, axis=1)
            reach = np.abs(cand - uv[todo, :1])
            reach = np.where(cross, np.maximum(reach[:, 1:], reach[:, :-1]), np.inf).min(axis=1)
            near = 2.0 * np.minimum(np.sqrt(d2[rows, j]) / base.scale, reach) + 1e-12
            again = near < 0.5 * rad[todo]
            todo = todo[again]
            rad[todo] = near[again]

        def normal_eq(q):
            """phi for the query points q, and its derivative."""
            def dphi(u):
                rel, tan = graph(u) - q, tangent(u)
                return dots(tan, tan) + dots(rel, base.M[:, 1]) * base.profile.ddg(u)
            return (lambda u: dots(graph(u) - q, tangent(u))), dphi

        steps = a + (b - a) * _PROJECTION_STEPS[:, None]
        grid = np.concatenate([steps, scan])
        rel, tan = np.concatenate([graph(steps) - pts, scan_rel]), tangent(grid)
        phi, d2 = dots(rel, tan), dots(rel, rel)
        up = (phi[:-1] <= 0) & (phi[1:] > 0)
        # two runs of samples; the scan's steps inside [a, b] are refined
        up[len(steps) - 1] = False
        up[len(steps):] &= (scan[:-1] < a) | (scan[1:] > b)
        roots, d2_roots = np.zeros(up.shape), np.full(up.shape, np.inf)
        if up.any():
            q = np.broadcast_to(pts, up.shape + (2,))[up]
            # phi's terms at each bracket's left sample: |G(u) - shift|,
            # |shift| and |q|, times |G'(u)|
            terms = (lengths(rel[:-1][up] + q - base.shift) + norm(base.shift)
                     + lengths(q)) * lengths(tan[:-1][up])
            roots[up] = newton_leq(*normal_eq(q), grid[1:][up], grid[:-1][up],
                                   lambda u, phi_u, dphi_u: rounding_target(terms, dphi_u))
            rel = graph(roots[up]) - q
            d2_roots[up] = dots(rel, rel)
        us, d2 = np.concatenate([roots, grid]), np.concatenate([d2_roots, d2])
        k, rows = np.argmin(d2, axis=0), np.arange(len(pts))
        u_best, d2_best = us[k, rows], d2[k, rows]
        dist = np.minimum(np.sqrt(d2_best), d0)
        u_best = np.where(dist < d0, u_best, u_a)
        return dist, self._u(u_best)

    def support_max(self, dirs):
        """Largest d . p over the piece and its parameter per (N, 2)
        direction row.

        With w = M^T d, d . p(u) = w_u u + w_v g(u) + d . shift.  Where
        w_v < 0 it is concave and peaks where g'(u) = -w_u / w_v, which
        Profile.slope_point solves for every such row at once; elsewhere it
        peaks at an end.
        """
        M = self.base.M
        w_u, w_v = dots(M[:, 0], dirs), dots(M[:, 1], dirs)
        n = len(dirs)
        ts = np.column_stack([np.full(n, self.t0), np.full(n, self.t1), np.full(n, self.t0)])
        vals = np.full((n, 3), -np.inf)
        vals[:, :2] = dots(self.point(ts[:, :2]), dirs[:, None])
        concave = w_v < 0
        if concave.any():
            u = self.base.profile.slope_point(-w_u[concave] / w_v[concave], self.u0, self.u1)
            ts[concave, 2] = self._u(u)
            vals[concave, 2] = dots(self.base.graph_point(u), dirs[concave])
        return _lex_max(vals, ts)


def _lex_max(vals, ts):
    """Row-wise largest (value, parameter) pair of (N, K) arrays: the
    largest value, ties to the largest parameter."""
    top = vals.max(axis=1, keepdims=True)
    j = np.argmax(np.where(vals == top, ts, -np.inf), axis=1)
    rows = np.arange(len(vals))
    return vals[rows, j], ts[rows, j]


# ---------------------------------------------------------------------------
# half-plane pruning and vertex chains

#: the interval test keeps a half-plane whose boundary line has a segment
#: inside the others shrunk toward the witness by this share of their slack
_PRUNE_RTOL = 1e-12
#: most padded (list, row, row) entries of one interval-test block: lists
#: are padded to the longest of their block, so one long list in a large
#: batch does not pad the others (about 2 MB per float temporary)
_PRUNE_BLOCK = 1 << 18


def irredundant(normals: np.ndarray, offsets: np.ndarray, witnesses: np.ndarray,
                level: np.ndarray) -> np.ndarray:
    """Rows of the irredundant half-planes of many lists at once, ordered by
    list and then by normal angle.

    Row r is {x : normals[r] . x <= offsets[r]} of list level[r], and
    witnesses[level[r]] must lie strictly inside it (GeometryError
    otherwise).  Rows of one list with the same direction (the normal's
    angle rounded at 1e12) keep the one with the least witness slack
    s = offset - n . w, computed per coordinate, ties to the first row.
    Then row i is kept when its boundary line w + s_i n_i + t perp(n_i) has
    a segment of positive length inside every other row j shrunk toward the
    witness by _PRUNE_RTOL of its slack:
    s_i n_i . n_j - (1 - _PRUNE_RTOL) s_j + t n_i x n_j <= 0.  In exact
    arithmetic and without the shrink this is the dual-hull rule (n_i / s_i
    is a vertex of the hull of the duals and the origin).  The shrink drops
    a line through a vertex of the others, and a near-parallel neighbour
    whose crossing it moves past that vertex; Qhull resolves such tight
    rows to its own rounding.  Every value is a row-wise expression, so a
    list keeps the same rows in any batch.

    A list of m directions costs m^2 padded entries, so one long list is
    slow: on 2 CPUs (numpy 2.4.6; best of 5, circle tangents and random
    rows) one list took 0.15 ms at 64 rows, 1.6 ms at 256, 7.2 ms at 512,
    28 ms at 1,024 and 130-160 ms at 2,048, with about 100 MB of
    temporaries at 2,048 (Qhull's dual hull took 0.5-5.4 ms from 256 to
    2,048 rows).  Only the sampled construction (extension._extend_sampled,
    about its resolution plus the fan rows, 512 by default) builds lists
    past 64 rows.
    """
    slack = offsets - dots(witnesses[level], normals)
    if len(slack) and slack.min() <= 1e-15:
        raise GeometryError("witness not strictly interior to a half-plane")
    # angle_of's arithmetic (math.atan2; numpy's vectorised arctan2 can
    # differ in the last bit)
    ang = np.array([math.atan2(y, x) for x, y in normals.tolist()])
    key = np.rint(np.where(ang < 0, ang + TWO_PI, ang) * 1e12)
    # lexsort is stable, so equal keys keep the row order
    order = np.lexsort((slack, key, level))
    lv, key = level[order], key[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = (lv[1:] != lv[:-1]) | (key[1:] != key[:-1])
    rows, lv = order[head], lv[head]
    count = np.bincount(lv)
    keep = np.ones(len(rows), dtype=bool)
    # a list of one or two directions keeps them all
    if count.max(initial=0) > 2:
        keep = _interval_test(np.array([normals[rows, 0], normals[rows, 1], slack[rows]]),
                              lv, count)
    return rows[keep]


def _interval_test(cols: np.ndarray, lv: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Mask of irredundant's interval test over rows (nx, ny, slack) =
    cols (3, N) of the lists lv (sorted), size[k] rows in list k.  The
    lists are padded to the longest; when that exceeds _PRUNE_BLOCK
    entries they go in order of size, in blocks of at most _PRUNE_BLOCK
    padded entries (one list at least), each padded to its own longest."""
    pos = np.arange(len(lv)) - np.searchsorted(lv, lv)
    if len(size) * size.max() ** 2 <= _PRUNE_BLOCK:
        return _interval_block(cols, lv, pos, len(size), size.max())
    by_size = np.argsort(size, kind="stable")
    by_size = by_size[size[by_size] > 0]
    slot = np.empty(len(size), dtype=np.intp)
    slot[by_size] = np.arange(len(by_size))
    size = size[by_size]
    # rows in the order of their lists' slots, in place within a list
    rows = np.argsort(slot[lv], kind="stable")
    ends = np.cumsum(size)
    out = np.empty(len(lv), dtype=bool)
    a = 0
    while a < len(size):
        # the most lists from a whose padding to the last one's size fits
        n = np.arange(1, min(len(size) - a, _PRUNE_BLOCK // size[a] ** 2) + 1)
        b = a + max(1, int(np.count_nonzero(n * size[a:a + len(n)] ** 2 <= _PRUNE_BLOCK)))
        sel = rows[ends[a] - size[a]:ends[b - 1]]
        out[sel] = _interval_block(cols[:, sel], slot[lv[sel]] - a, pos[sel], b - a, size[b - 1])
        a = b
    return out


def _interval_block(cols, li, pos, lists, width):
    """The interval test on rows cols (3, N) at (list, position) = (li, pos)
    of lists padded to width rows."""
    if lists == 1:
        grid = cols[:, None, :]
    else:
        # (3, lists, width) padded with zero normals, whose b = 0 bounds nothing
        grid = np.zeros((3, lists, width))
        grid[:, li, pos] = cols
    xi, yi, si = grid[..., None]
    xj, yj, sj = grid[:, :, None, :]
    a = si * (xi * xj + yi * yj) - (1.0 - _PRUNE_RTOL) * sj
    b = xi * yj - yi * xj
    with np.errstate(divide="ignore", invalid="ignore"):
        q = a / b  # the bound of row j on line i is t = -q
    # t >= -q where b < 0 and t <= -q where b > 0
    ok = (np.maximum.reduce(q, axis=2, where=b > 0, initial=-np.inf)
          < np.minimum.reduce(q, axis=2, where=b < 0, initial=np.inf))
    return ok[li, pos]


def prune_halfplanes(halfplanes: Sequence[HalfPlane], witness: np.ndarray) -> list:
    """Irredundant subset, sorted by normal angle: the one-list call of
    irredundant (extend_bodies prunes all its bodies in one call)."""
    if not halfplanes:
        return []
    normals = np.array([hp.normal for hp in halfplanes])
    offsets = np.array([hp.offset for hp in halfplanes])
    rows = irredundant(normals, offsets, as_point(witness)[None, :],
                       np.zeros(len(offsets), dtype=np.intp))
    return [halfplanes[i] for i in rows]


#: outward normals of the window box's four sides, in angle order
_BOX_NORMALS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
_BOX_NORMALS.flags.writeable = False


def halfplane_chain(normals: np.ndarray, offsets: np.ndarray, center, half=None):
    """Vertex chain of {x : normals @ x <= offsets} within the window box
    |x - center|_inf <= half: the CCW vertices (k, 2) and the (k,) mask of
    the edges that lie on the box, edge i running from vertex i to vertex
    i + 1 (cyclically).  Without half there is no box, and the rows must
    bound a polygon.

    center must lie strictly inside every half-plane.  The rows and the
    box's four go through one irredundant call, whose kept rows come in
    normal-angle order, and consecutive kept rows meet at the vertices (de
    Berg et al., Computational Geometry, 4.2): vertex i is the meet of the
    rows of edges i - 1 and i, by Cramer's rule on those two rows alone, so
    it does not depend on the other rows.  The chain starts at the edge of
    least normal angle in [0, 2 pi).  An edge no longer than 1e-12 times
    max(1, the largest |coordinate|) is dropped with its start vertex.
    """
    center = as_point(center)
    n, c = np.reshape(normals, (-1, 2)), np.reshape(offsets, -1)
    m = len(c)
    if half is not None:
        n = np.concatenate([n, _BOX_NORMALS])
        c = np.concatenate([c, dots(_BOX_NORMALS, center) + half])
    rows = irredundant(n, c, center[None, :], np.zeros(len(c), dtype=np.intp))
    prev = np.roll(rows, 1)
    a, b, ca, cb = n[prev], n[rows], c[prev], c[rows]
    det = cross2(a, b)
    verts = np.column_stack([(ca * b[:, 1] - cb * a[:, 1]) / det,
                             (a[:, 0] * cb - b[:, 0] * ca) / det])
    length = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
    keep = length > 1e-12 * max(1.0, float(np.abs(verts).max()))
    return verts[keep], rows[keep] >= m


def polygon_distance(pts, verts: np.ndarray) -> np.ndarray:
    """Distance from each point to the convex polygon with CCW vertices
    verts (k, 2): 0 where the point lies on the inner side of every edge
    line, else the least distance to an edge."""
    pts = as_points(pts)
    e = np.roll(verts, -1, axis=0) - verts
    rel = pts[:, None, :] - verts[None]
    t = np.clip(dots(rel, e) / dots(e, e), 0.0, 1.0)
    d = np.linalg.norm(rel - t[..., None] * e, axis=-1).min(axis=1)
    return np.where((cross2(e, rel) >= 0).all(axis=1), 0.0, d)


# ---------------------------------------------------------------------------
# piece chaining

def _chain_pieces(pieces: list, interior_point: np.ndarray):
    """Order pieces, each built with the body on its left, along the
    boundary: (ordered pieces, closed flag).

    A convex body's boundary turns monotonically about an interior point,
    so the pieces go in the order of their midpoints' angles about
    interior_point, counted from the first piece's.  A gap follows a piece
    whose end is at least tol from the next piece's start (cyclically), tol
    being 1e-6 * max(1, the largest |start| or |end|), or 1e-9 for a lone
    piece.  The chain starts after the last gap in that order, and is closed
    when it has none.
    """
    if not pieces:
        return [], False
    mid = np.array([pc.point(0.5 * (pc.t0 + pc.t1)) for pc in pieces]) - interior_point
    ang = np.arctan2(mid[:, 1], mid[:, 0])
    pieces = [pieces[i] for i in np.argsort((ang - ang[0]) % TWO_PI, kind="stable")]
    starts = np.array([pc.start() for pc in pieces])
    ends = np.array([pc.end() for pc in pieces])
    tol = 1e-9 if len(pieces) == 1 else 1e-6 * max(
        1.0, float(np.linalg.norm(np.vstack([starts, ends]), axis=1).max()))
    gap = np.flatnonzero(np.linalg.norm(ends - np.roll(starts, -1, axis=0), axis=1) >= tol)
    if not len(gap):
        return pieces, True
    k = int(gap[-1]) + 1
    return pieces[k:] + pieces[:k], False


# ---------------------------------------------------------------------------
# Body2

# ---------------------------------------------------------------------------
# Chebyshev centres of half-plane bodies

#: inscribed radius cap of the Chebyshev-centre problem; it keeps the problem
#: bounded for unbounded bodies
RADIUS_CAP = 1e3
#: most cuts whose Chebyshev centre comes from vertex enumeration, which
#: solves C(m + 1, 3) 2x2 systems and tests each vertex on m + 1 rows; HiGHS
#: solves larger systems.  On random m-gons (2 CPUs, numpy 2.4.6, scipy
#: 1.17.1; median of 5 polygons) enumeration took 0.10 ms at m = 4, 0.23 ms
#: at m = 14, 0.64 ms at m = 22, 1.7 ms at m = 26 and 2.4 ms at m = 28, the
#: LP 1.9-2.6 ms at every m.
_VERTEX_MAX_CUTS = 26

#: edges of the polygon inscribed in a ball or over a cut epigraph's extent,
#: for the witness fallback of a cut ball or epigraph (`inscribed`)
_INSCRIBED_EDGES = 64

#: feasibility and tie tolerance of enumerated vertices, relative to the
#: size of their coordinates and of the offsets
_VERTEX_RTOL = 1e-12


@lru_cache(maxsize=None)
def _triples(k: int) -> np.ndarray:
    """(C(k, 3), 3) read-only index rows of every 3-subset of range(k)."""
    t = np.array(list(itertools.combinations(range(k), 3)), dtype=np.intp).reshape(-1, 3)
    t.flags.writeable = False
    return t


def chebyshev_centre(normals: np.ndarray, offsets: np.ndarray):
    """(centre, radius) of the largest disk in {x : normals @ x <= offsets}.

    The rows are unit normals.  The radius r is capped at RADIUS_CAP; the
    centre x maximises r subject to normals @ x + r <= offsets and
    r <= RADIUS_CAP (Boyd & Vandenberghe, Convex Optimization, 8.5.1).

    In the plane an optimum lies on a vertex of (x, r) where three of these
    m + 1 rows are active, whenever two normals are not parallel.  Up to
    _VERTEX_MAX_CUTS cuts every triple of rows is solved at once, by
    Cramer's rule on the 2x2 system left after subtracting one row from the
    other two, and the largest r over the feasible vertices is taken.  A
    vertex is feasible when it violates no row by more than _VERTEX_RTOL
    times the largest |offset| plus its largest |coordinate|, so the test
    follows translation and scale.  Tie rule: the optimal vertices are those within
    that tolerance of the best r, and the centre is the midpoint of the
    lexicographically smallest and largest of them, ordered by x and then y,
    with x compared to the same tolerance.  For a rectangle that is its
    centre; for a capped wedge it is the single optimal vertex.  The radius
    returned is the smaller of the best r and the centre's least slack.

    The HiGHS LP (`linprog`) solves the rest: more cuts than
    _VERTEX_MAX_CUTS, and systems with no feasible vertex (one half-plane,
    or only parallel normals).  GeometryError when the radius is at most
    1e-12, i.e. the body has empty interior.
    """
    m = len(offsets)
    if 2 <= m <= _VERTEX_MAX_CUTS:
        # rows u . x + r <= b: the cuts, then the cap with u = 0
        ux, uy = np.append(normals[:, 0], 0.0), np.append(normals[:, 1], 0.0)
        b = np.append(offsets, RADIUS_CAP)
        i, j, k = _triples(m + 1).T
        # row i subtracted from rows j and k leaves a 2x2 system in x
        d1x, d1y, d2x, d2y = ux[j] - ux[i], uy[j] - uy[i], ux[k] - ux[i], uy[k] - uy[i]
        det = d1x * d2y - d1y * d2x  # the 3x3 determinant
        regular = np.abs(det) > 1e-12
        if regular.any():
            i, det = i[regular], det[regular]
            e1, e2 = b[j[regular]] - b[i], b[k[regular]] - b[i]
            d1x, d1y, d2x, d2y = d1x[regular], d1y[regular], d2x[regular], d2y[regular]
            x = (e1 * d2y - e2 * d1y) / det
            y = (d1x * e2 - d2x * e1) / det
            r = b[i] - (ux[i] * x + uy[i] * y)
            big = np.abs(offsets).max() + np.maximum(np.abs(x), np.abs(y))
            slack = (ux * x[:, None] + uy * y[:, None] + r[:, None] - b).max(axis=1)
            feasible = slack <= _VERTEX_RTOL * big
            if feasible.any():
                x, y, r, big = x[feasible], y[feasible], r[feasible], big[feasible]
                best = int(np.argmax(r))
                r_best, tol = r[best], _VERTEX_RTOL * big[best]
                if r_best <= 1e-12:
                    raise GeometryError("half-plane body has empty interior")
                top = r >= r_best - tol
                x, y = x[top], y[top]
                order = np.lexsort((y, x) if np.ptp(x) > tol else (y,))
                w = 0.5 * np.array([x[order[0]] + x[order[-1]], y[order[0]] + y[order[-1]]])
                return w, float(min(r_best, (offsets - normals @ w).min()))
    return _chebyshev_lp(normals, offsets)


def ConvexHull(*args, **kwargs):
    """scipy.spatial.ConvexHull, imported on the first call (loading it took
    about 0.33 s).  No geometry code calls it; the name stays because the
    benchmark's tracer (perfbench/tracing.py) wraps geometry.ConvexHull.
    verify and acceptance import it from here only so that importing them
    loads no scipy, and the tracer does not count their calls."""
    from scipy.spatial import ConvexHull as hull

    return hull(*args, **kwargs)


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call: loading
    scipy.optimize takes about 0.2 s and 11 MB, and only the witness LP
    (_chebyshev_lp) solves with it."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def _chebyshev_lp(normals: np.ndarray, offsets: np.ndarray):
    """chebyshev_centre by one HiGHS LP."""
    A_ub = np.hstack([normals, np.ones((len(offsets), 1))])
    res = linprog(np.array([0.0, 0.0, -1.0]), A_ub=A_ub, b_ub=offsets,
                  bounds=[(None, None), (None, None), (0, RADIUS_CAP)],
                  method="highs")
    if not res.success or res.x[2] <= 1e-12:
        raise GeometryError("half-plane body has empty interior")
    return np.array(res.x[:2]), float(res.x[2])


class Body2:
    """Closed convex proper subset of the plane with nonempty interior.

    Construction proves the interior nonempty by an interior witness with a
    clearance (the radius of a disk about it inside the body), supplied or
    found by _find_witness.  A half-plane body's witness is its Chebyshev
    centre, the centre of its largest inscribed disk with the radius capped
    at RADIUS_CAP = 1e3: exact by vertex enumeration, with a fixed tie rule
    for non-unique centres (see chebyshev_centre).  The HiGHS LP runs only
    for systems without a vertex (one half-plane, parallel normals) or with
    more than _VERTEX_MAX_CUTS cuts.  A ball or epigraph body's witness is
    the best point of its base's cached probe grid.
    """

    def __init__(self, base, cuts: Sequence[HalfPlane] = (), name: str = "",
                 witness=None):
        self.base = base
        self.cuts = tuple(cuts)
        self.cut_table = CutTable(self.cuts)
        self.name = name
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
        hps = [hp if isinstance(hp, HalfPlane) else HalfPlane(*hp)
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
        verts = np.array([as_point(v) for v in vertices]).reshape(-1, 2)
        if rays is None:
            if len(verts) < 3:
                raise GeometryError("a bounded polychain needs at least 3 vertices")
            # about the first vertex, so translation cannot flip the sign
            rel = verts - verts[0]
            if sum(cross2(rel, np.roll(rel, -1, axis=0)).tolist()) < 0:
                verts = verts[::-1]
                rel = verts - verts[0]
            # turns are measured against the chain's own extent, so the test
            # follows translation and scaling
            scale = max(map(math.hypot, rel[:, 0].tolist(), rel[:, 1].tolist()))
            edges = np.roll(verts, -1, axis=0) - verts
            turn = cross2(edges, np.roll(edges, -1, axis=0))
            bent = turn < -1e-9 * scale * scale
            flat = (np.abs(turn) <= 1e-9 * scale * scale) & (not collinear_ok)
            if (bent | flat).any():
                raise GeometryError(
                    "vertex chain is not convex" if bent[np.argmax(bent | flat)] else
                    "three collinear vertices (pass collinear_ok for a polyhedral chain)")
            hps = _line_halfplanes(verts, edges, skip_below=1e-14)
        else:
            if not len(verts):
                raise GeometryError("an unbounded polychain needs vertices")
            r_in, r_out = (unit(np.asarray(r, dtype=float)) for r in rays)
            # boundary comes in from infinity along -r_in to verts[0]
            hps = _line_halfplanes(np.vstack([verts[:1], verts]),
                                   np.vstack([-r_in, np.diff(verts, axis=0), r_out]))
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
        hps = [hp if isinstance(hp, HalfPlane) else HalfPlane(*hp)
               for hp in halfplanes]
        return Body2(self.base, self.cuts + tuple(hps),
                     name=name or self.name, **kw)

    # -- witness ------------------------------------------------------------

    def _margin_at(self, p) -> float:
        return float(self.margin_many(np.asarray(p, dtype=float)[None, :])[0])

    def margin_many(self, pts: np.ndarray) -> np.ndarray:
        """Approximate signed distance; negative strictly inside.

        Exact for half-plane and ball parts; first-order near the graph of
        an epigraph base (exact on it).  The cuts enter through the body's
        cut table (CutTable.margin: one array expression up to _CUT_BLOCK
        point-cut values, one pass per cut beyond).
        """
        if isinstance(self.base, PlaneBase):
            return self.cut_table.margin(pts)
        m = self.base.margin(pts)
        return np.maximum(m, self.cut_table.margin(pts)) if self.cuts else m

    def _find_witness(self):
        """(witness, clearance) from the base and the cuts.

        A half-plane body takes its Chebyshev centre (chebyshev_centre:
        exact vertex enumeration, the LP only without a vertex or above
        _VERTEX_MAX_CUTS cuts).  A ball or epigraph body takes the point of
        its base's probe grid (`probe`, computed once per base object) with
        the smallest margin max(base margin, x nx + y ny - c over the
        cuts), in one in-place pass per cut over the probe's contiguous x
        and y columns: CutTable.margin's values in its order of operations,
        so the same point as np.maximum(m, cut_table.margin(cand)).  A cut
        ball or epigraph with no probe inside (its interior can fall
        between the grid's points) takes the Chebyshev centre of its cuts
        and a polygon inscribed in its base (`inscribed`), with that
        point's own -margin as its clearance.
        """
        table = self.cut_table
        if isinstance(self.base, PlaneBase):
            return chebyshev_centre(table.normals, table.offsets)
        cand, m, x, y = self.base.probe
        for (nx, ny), c in zip(table.normals.tolist(), table.offsets.tolist()):
            t = x * nx
            t += y * ny
            t -= c
            m = np.maximum(m, t, out=t)
        i = int(m.argmin())
        if m[i] < -1e-12:
            return cand[i].copy(), -float(m[i])
        if self.cuts:
            try:
                n, c = self.base.inscribed(table)
                w, _ = chebyshev_centre(np.vstack([table.normals, n]),
                                        np.concatenate([table.offsets, c]))
            except GeometryError:
                pass
            else:
                c0 = -self._margin_at(w)
                if c0 > 1e-12:
                    return w, c0
        raise GeometryError("body has empty interior (no witness found)")

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

    @property
    def is_polygon(self) -> bool:
        """A bounded half-plane body, whose chain has no window edge."""
        return isinstance(self.base, PlaneBase) and self.bounded

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
        """The boundary pieces within the window box, in CCW chain order,
        each with the body on its left.

        A half-plane body's pieces are its vertex chain's body edges
        (_cut_segments), so an unbounded body's pieces run from one window
        end to the other.  The vertices are the meets of consecutive
        irredundant cuts, exact up to rounding on a bounded body and
        wherever they lie inside the box.  Ball and epigraph bodies clip the
        chain's body edges to the base and add its arcs or graph pieces,
        each built with the body on its left; _chain_pieces orders them by
        angle about the witness and starts the chain after its last gap.
        """
        if self._pieces is None:
            self._pieces, self._closed = self._build_pieces()
        return self._pieces

    @property
    def closed_chain(self) -> bool:
        self.pieces()
        return self._closed

    @cached_property
    def chain(self):
        """(vertices, window): halfplane_chain of the cuts about the witness,
        built once: a polygon's (is_polygon) own, without a window edge,
        else within the window box of half-size window_half, widened on a
        ball body to |witness - center|_inf + 2 radius so that the box holds
        the ball and no cut edge inside it is clipped; empty arrays for a
        body without cuts."""
        if not self.cuts:
            return np.zeros((0, 2)), np.zeros(0, dtype=bool)
        half = None if self.is_polygon else self.window_half
        if isinstance(self.base, BallBase):
            half = max(half, float(np.abs(self.witness - self.base.center).max())
                       + 2.0 * self.base.radius)
        return halfplane_chain(self.cut_table.normals, self.cut_table.offsets, self.witness,
                               half)

    @cached_property
    def _asymptotic(self):
        """find_asymptotic_direction's (v, x0) or None, searched once: the
        first extreme ray of the recession cone that is_asymptotic_direction
        accepts."""
        if self.bounded:
            return None
        for v in self.recession_cone().directions():
            ok, x0 = is_asymptotic_direction(self, v)
            if ok:
                return unit(v), x0
        return None

    @cached_property
    def _segment_table(self):
        """Chain indices, starts (S, 2), ends (S, 2), lengths (S,) and
        outward normals (S, 2) of the segment pieces, stacked once for
        support solves."""
        chain = self.pieces()
        seg = [i for i, pc in enumerate(chain) if pc.kind == "segment"]
        return (seg, np.array([chain[i].a for i in seg]).reshape(-1, 2),
                np.array([chain[i].b for i in seg]).reshape(-1, 2),
                np.array([chain[i].length for i in seg]),
                np.array([chain[i].n for i in seg]).reshape(-1, 2))

    def _cut_segments(self) -> list:
        """The chain's body edges, not those on the window box, as segments
        in chain order, from the first body edge after a window edge (from
        the chain's start when there is none, or no body edge reaches the
        window)."""
        verts, window = self.chain
        ends = np.roll(verts, -1, axis=0)
        after = np.flatnonzero(window & ~np.roll(window, -1)) + 1
        k = int(after[0]) if len(after) else 0
        return [Segment(verts[i], ends[i]) for i in np.roll(np.arange(len(verts)), -k)
                if not window[i]]

    def _build_pieces(self):
        segs = self._cut_segments()
        if isinstance(self.base, PlaneBase):
            return segs, not self.chain[1].any()
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
            # the chord runs half to either side of the centre's foot on the
            # line, so its ends come out near the circle, not near seg.a
            t_foot, half, dist = (float(x) for x in
                                  _circle_chord(base.center, base.radius, seg.a, seg.n, seg.d))
            if abs(dist) >= base.radius:
                continue
            foot = base.center - dist * seg.n
            lo, hi = max(0.0, t_foot - half), min(seg.length, t_foot + half)
            if hi - lo > 1e-12:
                a = seg.a if lo == 0.0 else foot - half * seg.d
                b = seg.b if hi == seg.length else foot + half * seg.d
                pieces.append(Segment(a, b))
        return _chain_pieces(pieces, self.witness)

    def _epigraph_pieces(self, edges):
        """Graph pieces and clipped cut edges, all read from chords.

        The graph stretch is the chord of the profile line v = bound, four
        window halves above the witness, within the window's u-range, so
        steep profiles (exp, cosh) never overflow downstream arithmetic.
        The other chords are one EpigraphBase.chord call, in world arc
        length from the foot of the witness, where the body's chords lie,
        so a far window centre costs no digits: each cut line out to the
        farthest corner of the stretch's box, and each cut edge out to its
        ends.  A cut line crosses the graph at its chord's ends; the
        crossings split the stretch, and the runs of parts whose midpoints
        every cut keeps are the graph pieces.  Each cut edge is clipped to
        its own chord.
        """
        base, prof, w = self.base, self.base.profile, self.witness
        uc, vc = base.to_profile(w[None, :])[0]
        uw = self.window_half / base.scale
        bound = vc + 4.0 * uw
        lo, hi = prof.chord(np.array([uc]), np.array([bound]), np.ones(1), np.zeros(1), uw)
        stretch = np.array([uc + max(lo[0], -uw), uc + min(hi[0], uw)])
        m = len(self.cuts)
        if not m:
            return _chain_pieces([GraphPiece(base, *stretch)], w)
        # each line as points on it: the box corners projected onto each cut
        # line, then each edge's ends (twice, to fill the row)
        n, c = self.cut_table.normals, self.cut_table.offsets
        v_lo = float(prof.g(prof.slope_point(0.0, *stretch)))
        box = base.from_profile(np.array([[stretch[0], v_lo], [stretch[1], v_lo],
                                          [stretch[0], bound], [stretch[1], bound]]))
        reach = box - (dots(box[None], n[:, None]) - c[:, None])[..., None] * n[:, None]
        if edges:
            ab = np.array([[seg.a, seg.b] for seg in edges])
            n = np.concatenate([n, [seg.n for seg in edges]])
            reach = np.concatenate([reach, np.concatenate([ab, ab], axis=1)])
        foot = w + dots(reach[:, 0] - w, n)[:, None] * n
        d = np.column_stack([-n[:, 1], n[:, 0]])
        half = np.linalg.norm(reach - foot[:, None], axis=-1).max(axis=1)
        lo, hi = base.chord(foot, d, half)
        pu, _, qu, _ = base.profile_line(foot[:m], d[:m])
        t = np.stack([lo[:m], hi[:m]])
        hit = np.abs(t) < half[:m]  # a graph crossing, not a window end or a miss
        cross = (pu + np.where(hit, t, 0.0) * qu)[hit]
        us = np.unique(np.concatenate([stretch, cross[(cross > stretch[0]) & (cross < stretch[1])]]))
        keep = self.cut_table.margin(base.graph_point(0.5 * (us[:-1] + us[1:]))) <= 0
        pieces = [GraphPiece(base, us[a], us[b + 1]) for a, b in _mask_runs(keep)
                  if us[b + 1] - us[a] > 1e-12]
        t_ab = dots(reach[m:, :2] - foot[m:, None], d[m:, None])
        for seg, p, e, a, b, (ta, tb) in zip(edges, foot[m:], d[m:], lo[m:], hi[m:], t_ab):
            a, b = max(a, ta), min(b, tb)
            if b - a > 1e-12:
                pieces.append(Segment(seg.a if a == ta else p + a * e,
                                      seg.b if b == tb else p + b * e))
        return _chain_pieces(pieces, w)

    # -- membership -----------------------------------------------------------

    def contains_many(self, pts, tol: float = TOL) -> np.ndarray:
        return self.margin_many(pts) <= tol

    def interior_many(self, pts, margin: float = TOL) -> np.ndarray:
        return self.margin_many(pts) < -margin

    def boundary_samples(self, n: int) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# scaled isometries

@dataclass(frozen=True)
class Frame:
    """Affine map q = lam * R (p - anchor) + shift with R orthogonal."""

    R: np.ndarray
    anchor: np.ndarray
    shift: np.ndarray
    lam: float = 1.0

    def apply(self, pts):
        rel = as_points(pts) - self.anchor
        return self.lam * linear2(self.R, rel[..., 0], rel[..., 1]) + self.shift

    def invert(self, qts):
        rel = (as_points(qts) - self.shift) / self.lam
        return linear2(self.R.T, rel[..., 0], rel[..., 1], self.anchor)

    def pullback_halfplane(self, hp: HalfPlane) -> HalfPlane:
        # {n.q <= c} in frame coords -> half-plane in world coords
        n_world = self.R.T @ hp.normal
        c_world = (hp.offset - float(hp.normal @ self.shift)) / self.lam \
            + float(n_world @ self.anchor)
        return HalfPlane(n_world, c_world)


def transform_body(E: Body2, frame: Frame, name: str = "") -> Body2:
    """Image of a body under a frame (scaled isometry); the frame maps E's
    witness onto an interior point of the image, which is passed on."""
    def fwd_hp(hp: HalfPlane) -> HalfPlane:
        n_new = frame.R @ hp.normal
        c_new = frame.lam * (hp.offset - float(hp.normal @ frame.anchor)) \
            + float(n_new @ frame.shift)
        return HalfPlane(n_new, c_new)

    cuts = [fwd_hp(hp) for hp in E.cuts]
    witness = frame.apply(E.witness[None, :])[0]
    if isinstance(E.base, BallBase):
        base = BallBase(frame.apply(E.base.center[None, :])[0], frame.lam * E.base.radius)
    elif isinstance(E.base, EpigraphBase):
        eb = E.base
        base = EpigraphBase(eb.profile, (frame.lam * frame.R) @ eb.M,
                            frame.apply(eb.shift[None, :])[0])
    else:
        base = PlaneBase()
    return Body2(base, cuts, name=name, witness=witness)


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
        out[outside] = boundary_distance_many(C, pts[outside])
    return out


def _nearest(C: Body2, pts):
    """The boundary point of C nearest to each point, as (distance, piece
    index, parameter) arrays: one distance_many call per piece for all the
    points, ties to the first piece in chain order (index -1, distance inf
    and parameter NaN where C has no pieces)."""
    pts = as_points(pts)
    best, idx, par = np.full(len(pts), np.inf), np.full(len(pts), -1), np.full(len(pts), np.nan)
    for i, pc in enumerate(C.pieces()):
        d, t = pc.distance_many(pts)
        closer = d < best
        best[closer], idx[closer], par[closer] = d[closer], i, t[closer]
    return best, idx, par


def boundary_distance_many(C: Body2, pts) -> np.ndarray:
    """Distance to the boundary chain (points may be inside the body)."""
    return _nearest(C, pts)[0]


def project(p, C: Body2):
    """Nearest point of C and the distance to it."""
    p = as_point(p)
    if contains(C, p, 0.0):
        return p.copy(), 0.0
    d, idx, t = _nearest(C, p[None, :])
    if idx[0] < 0:
        raise GeometryError("body has no boundary pieces inside the window")
    return np.asarray(C.pieces()[idx[0]].point(float(t[0]))), float(d[0])


def support(C: Body2, directions):
    """Support values sup {d . p : p in C}: a float for one direction, an
    (N,) array for (N, 2) directions; +inf along recession growth."""
    return support_point(C, directions)[0]


def support_point(C: Body2, directions):
    """Support values and attaining boundary points.

    One direction gives (value, point), with point None where the value is
    +inf; (N, 2) directions give (N,) values and (N, 2) points, NaN rows
    where the value is +inf.  Directions are normalised.  Every row is
    computed on its own, so a batch equals its per-direction calls bit for
    bit; a batch takes one support_max call per arc or graph piece and one
    expression for all segments.  A value is +inf along recession growth
    (the recession test) or where the maximum sits at a window-clipped
    chain end and the values still climb toward it (the divergence guard).

    Ties do not depend on where the chain starts: a segment whose outward
    normal is the direction (within 1e-12 in sine) is a flat face, and its
    start, the face's CCW-first end, is the point; otherwise, among the
    pieces with the largest value, a piece's start beats a piece's end (the
    same vertex), and then the first in chain order wins.
    """
    given = np.asarray(directions, dtype=float)
    size = np.hypot(given[..., 0], given[..., 1])
    if np.any(size == 0.0):
        raise GeometryError("cannot normalize the zero vector")
    dirs = np.atleast_2d(given / size[..., None])
    n = len(dirs)
    recc = C.recession_cone()
    grows = np.zeros(n, dtype=bool)
    for r in recc.directions():
        grows |= dots(r, dirs) > 1e-12
    if recc.kind in ("wedge", "halfplane", "plane"):
        grows |= [recc.contains_dir(d) for d in dirs]
    chain = C.pieces()
    if not chain:
        raise GeometryError("empty boundary; cannot evaluate support")
    fin = np.flatnonzero(~grows)
    d = dirs[fin]
    vals = np.empty((len(chain), len(fin)))
    ts = np.empty((len(chain), len(fin)))
    # all segments at once: the larger end value, a tie or a face to the start
    seg, a, b, length, normal = C._segment_table
    face = np.zeros(vals.shape, dtype=bool)
    if seg:
        va, vb = dots(a[:, None], d), dots(b[:, None], d)
        face[seg] = (dots(normal[:, None], d) > 0) & (np.abs(cross2(normal[:, None], d)) <= 1e-12)
        start = (va >= vb) | face[seg]
        vals[seg] = np.where(start, va, vb)
        ts[seg] = np.where(start, 0.0, length[:, None])
    for i, pc in enumerate(chain):
        if pc.kind != "segment":
            vals[i], ts[i] = pc.support_max(d)
    t0, t1 = np.array([(pc.t0, pc.t1) for pc in chain]).T
    top = vals == vals.max(axis=0)
    idx = np.argmax(4 * face + top + (top & (ts == t0[:, None])), axis=0)
    rows = np.arange(len(fin))
    best, t = vals[idx, rows], ts[idx, rows]
    if not C.closed_chain:
        # divergence guard where the max sits at a window-clipped chain end
        at_end = (((idx == 0) & (np.abs(t - t0[0]) < 1e-9 * (1 + abs(t0[0]))))
                  | ((idx == len(chain) - 1) & (np.abs(t - t1[-1]) < 1e-9 * (1 + abs(t1[-1])))))
        e = np.flatnonzero(at_end)
        if len(e):
            t_mid = 0.5 * (t0[idx[e]] + t1[idx[e]])
            t_q = 0.5 * (t_mid + t[e])
            v_mid = dots(_chain_points(chain, idx[e], t_mid), d[e])
            v_q = dots(_chain_points(chain, idx[e], t_q), d[e])
            step1, step2 = v_q - v_mid, best[e] - v_q
            climbs = (step2 > np.maximum(TOL, 1e-9 * np.abs(best[e]))) & (step2 > 0.5 * step1)
            grows[fin[e[climbs]]] = True
    out = np.full(n, np.inf)
    pts = np.full((n, 2), np.nan)
    out[fin], pts[fin] = best, _chain_points(chain, idx, t)
    out[grows], pts[grows] = np.inf, np.nan
    if given.ndim > 1:
        return out, pts
    return float(out[0]), (pts[0] if np.isfinite(out[0]) else None)


def _chain_points(pieces, idx, t) -> np.ndarray:
    """Points of a boundary chain at (piece index, parameter) arrays of one
    shape, one point() call per piece present."""
    first = idx.flat[0] if idx.size else 0
    if np.all(idx == first):
        return pieces[first].point(t).reshape(np.shape(t) + (2,))
    out = np.empty(np.shape(t) + (2,))
    for i in np.unique(idx):
        at = idx == i
        out[at] = pieces[i].point(t[at])
    return out


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


def supporting_normals(C: Body2, x) -> NormalFan:
    """Outward unit normals supporting C at the boundary point x.

    Smooth points give a single normal; corners give the arc between the
    two incident piece normals: those of the pieces that pass within
    NORMAL_REACH * max(1, |x - witness|) of x.
    """
    x = as_point(x)
    reach = NORMAL_REACH * max(1.0, norm(x - C.witness))
    normals = []
    for pc in C.pieces():
        # piece endpoints are the common case (corners); test them first
        hit_t = None
        for t_end in (pc.t0, pc.t1):
            if norm(np.asarray(pc.point(t_end)) - x) <= reach:
                hit_t = t_end
                break
        if hit_t is None:
            d, t = pc.distance_many(x[None, :])
            if d[0] <= reach:
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


def asymptotic_slope(x0, v, C: Body2):
    """Limit slope of t -> d(x0 + t v, C) / t along a ray missing int C.

    Doubles t from 1 to 2**20 until successive secant slopes agree to
    1e-6 (relative); returns (value, (previous slope, last slope)).
    """
    x0 = as_point(x0)
    v = unit(np.asarray(v, dtype=float))
    probe = x0 + np.outer(np.linspace(0.5, 8, 7), v)
    if C.interior_many(probe, 1e-12).any():
        raise GeometryError("ray meets the interior of the body")
    ts = 2.0 ** np.arange(0, 22)
    phi = distance_many(C, x0 + np.outer(ts, v))
    slopes = (phi[1:] - phi[:-1]) / ts[:-1]
    prev = last = float(slopes[0])
    for k in range(1, len(slopes)):
        prev, last = last, float(slopes[k])
        if abs(last - prev) < 1e-6 * max(1.0, abs(last)):
            break
    return last, (prev, last)


def is_asymptotic_direction(C: Body2, v):
    """Detect an asymptotic direction; returns (flag, witness x0 or None).

    The distance slope along an asymptotic direction (asymptotic_slope)
    is below 1e-4.  Any witness must sit on a supporting line whose normal
    is orthogonal to the direction, so only those two normals are scanned.
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
        if slope < 1e-4:
            return True, x0
    return False, None


#: angles rotundity_modulus scans across the inward fan at a boundary point
_ROTUNDITY_SCAN = 257


def rotundity_modulus(C: Body2, x, eps: float) -> float:
    """Local uniform rotundity modulus at a boundary point.

    Infimum over boundary points y at chord distance eps of the distance of
    the chord midpoint from the boundary; always <= eps / 2.  The y taken
    are the first boundary points at distance eps from x on either side.
    Walking the boundary away from x, the direction from x to the walker
    turns monotonically across the inward fan, from a tangent at x (the
    perpendicular of the normal fan's hi, or of its lo) toward the other,
    and the circle point x + eps (cos phi, sin phi) lies in C exactly when
    the boundary point in direction phi is at least eps from x.  So each y
    is the circle point at the first phi from its tangent with margin
    <= 0: one margin_many call at _ROTUNDITY_SCAN angles across the fan
    finds both sides' first inside angles, and one bisect_leq call closes
    both brackets.  An inside arc narrower than one scan step (the fan's
    width / 256) before the first inside angle is missed, and the y taken
    is then a later boundary point at distance eps.

    Raises GeometryError for eps outside [0, 2 clearance), for an x off the
    boundary and where no scanned circle point lies in C.
    """
    x = as_point(x)
    if eps < 0 or eps >= 2 * C.clearance:
        raise GeometryError("eps outside [0, 2r) for the witness ball radius r")
    if eps == 0:
        return 0.0
    fan = supporting_normals(C, x)
    margin = along(C.margin_many, lambda a: x + eps * np.stack([np.cos(a), np.sin(a)], axis=-1))
    # from the forward tangent perp(hi) counterclockwise to -perp(lo)
    phi = angle_of(perp(fan.hi)) + (math.pi - fan.span()) * np.linspace(0.0, 1.0, _ROTUNDITY_SCAN)
    inside = np.flatnonzero(margin(phi) <= 0)
    if not len(inside):
        raise GeometryError("no boundary point at the requested chord distance")
    first, last = inside[0], inside[-1]
    bad = phi[[max(first - 1, 0), min(last + 1, len(phi) - 1)]]
    phi = bisect_leq(margin, bad, phi[[first, last]])
    ys = x + eps * np.column_stack([np.cos(phi), np.sin(phi)])
    mids = 0.5 * (x + ys)
    return float(np.min(boundary_distance_many(C, mids)))


def cone_from(z, E: Body2) -> Cone2:
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
                                        t_lo, t_hi, iters=90)
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


def _ray_boundary_contacts(C: Body2, z, d):
    """Parameter intervals where the tangent ray z + R+ d touches the boundary.

    The ray's line supports the body, so the cross-offset has constant sign
    along the boundary and vanishes exactly on the contact set.
    """
    tol = 1e-6
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


def _same_base(a, b) -> bool:
    """Whether two analytic bases are equal by value."""
    if isinstance(a, EpigraphBase) and isinstance(b, EpigraphBase):
        return (type(a.profile) is type(b.profile) and a.profile.params == b.profile.params
                and np.array_equal(a.M, b.M) and np.array_equal(a.shift, b.shift))
    if isinstance(a, BallBase) and isinstance(b, BallBase):
        return a.radius == b.radius and np.array_equal(a.center, b.center)
    return isinstance(a, PlaneBase) and isinstance(b, PlaneBase)


def _check_inside(B: Body2, C: Body2):
    """GeometryError unless B lies in C, up to a slack of 1e-6 times
    max(1, the largest |coordinate| tested).

    A half-plane body is tested without samples: the vertices of its chain
    lie in C, and its recession cone lies in C's (every extreme direction,
    and a half-plane cone's middle one, by Cone2.contains_dir).  That
    decides B in C for a bounded B, whose chain is its own, and for an
    unbounded B whose vertices lie inside its window box; one reaching past
    its box is tested on its box part and its cone.  Other bodies test 96
    boundary samples."""
    if isinstance(B.base, PlaneBase):
        probe = B.chain[0]
        cone = B.recession_cone()
        dirs = cone.directions()
        if cone.kind == "halfplane":
            dirs.append(dir_of(angle_of(cone.d1) + 0.5 * math.pi))
        ambient = C.recession_cone()
        if not all(ambient.contains_dir(v) for v in dirs):
            raise GeometryError("the inner body's recession cone leaves the ambient's")
    else:
        probe = B.boundary_samples(96)
    big = max(1.0, float(np.abs(probe).max()))
    if not C.contains_many(probe, 1e-6 * big).all():
        raise GeometryError("the inner body is not contained in the ambient")


def _rows_beyond(bodies: Sequence[Body2], C: Body2) -> tuple:
    """Per body, the (m, 3) rows (nx, ny, offset) of its cut table that
    equal no row of C's, in its order, and the (K,) mask of the bodies that
    have C's base (by value, _same_base) and hold every row of C's.

    Every body's rows are stacked once and compared with C's as arrays:
    rows are equal when all three entries are (==, so -0.0 equals 0.0 and
    NaN equals nothing).  One logical_or.reduceat over the bodies' bounds
    tells which of C's rows each body holds."""
    if not bodies:
        return [], np.zeros(0, dtype=bool)
    tables = [B.cut_table for B in bodies]
    counts = [len(t.offsets) for t in tables]
    stop = list(itertools.accumulate(counts))
    start = [s - c for s, c in zip(stop, counts)]
    rows = np.concatenate([np.concatenate([t.normals for t in tables]),
                           np.concatenate([t.offsets for t in tables])[:, None]], axis=1)
    theirs = C.cut_table
    # same[i, j]: stacked row i equals C's row j; the last row is padding,
    # which reduceat reads for a body without rows, so that body is masked
    same = np.zeros((len(rows) + 1, len(theirs.offsets)), dtype=bool)
    np.logical_and((rows[:, None, :2] == theirs.normals).all(axis=2),
                   rows[:, None, 2] == theirs.offsets, out=same[:-1])
    held = np.logical_or.reduceat(same, start, axis=0)
    held[[c == 0 for c in counts]] = False
    held = held.all(axis=1) & [B.base is C.base or _same_base(B.base, C.base) for B in bodies]
    keep = ~same[:-1].any(axis=1)
    ends = list(itertools.accumulate(keep.tolist(), initial=0))
    rows = rows[keep]
    return [rows[ends[a]:ends[b]] for a, b in zip(start, stop)], held


def _beyond(B: Body2, C: Body2, rows: np.ndarray, held: bool):
    """cuts_beyond(B, C) from B's _rows_beyond entry."""
    if not held:
        if not isinstance(B.base, PlaneBase):
            return None
        _check_inside(B, C)
    return rows


def cuts_beyond(B: Body2, C: Body2):
    """B's cuts that are not C's (by value), as (m, 3) rows (nx, ny,
    offset) of B's cut table in B's order, when B is C cut by half-planes,
    else None.

    B is when it has C's base and holds C's cuts, both by value (no test
    of points), or when it is a half-plane body inside C: _check_inside
    tests its chain's vertices and its recession cone, exact up to its
    slack for a body whose vertices lie in its window box, and raises
    GeometryError for a body outside C.  The rows are compared as arrays
    (_rows_beyond): a row of B is dropped when all three of its entries
    equal (==) those of some row of C."""
    (rows,), (held,) = _rows_beyond([B], C)
    return _beyond(B, C, rows, held)


def cuts_beyond_all(bodies: Sequence, C: Body2) -> list:
    """cuts_beyond(B, C) for each body of a list in one _rows_beyond pass:
    (m, 3) rows, or None for a None body, for a body not cut from C and
    for a half-plane body outside C (where cuts_beyond raises)."""
    real = [B for B in bodies if B is not None]
    found = iter(zip(real, *_rows_beyond(real, C)))
    out = []
    for B in bodies:
        rows = None
        if B is not None:
            B, mine, held = next(found)
            try:
                rows = _beyond(B, C, mine, held)
            except GeometryError:
                pass
        out.append(rows)
    return out


def _circle_chord(center, radius: float, p, n, d):
    """(t_mid, half, dist) of the chord that a circle cuts from each line
    p + t d with unit normal n: the centre's foot at t_mid, the centre's
    offset dist along n, and the half-length half = sqrt((r - dist)(r + dist)),
    which does not cancel like r^2 - dist^2.  Where the line misses, half is
    -sqrt((dist - r)(dist + r)), so t_mid -+ half is an empty interval about
    the line's point nearest the circle."""
    rel = (center - p)[..., None, :]
    # row-wise dot products with the arithmetic of a 1-D `@`
    dist = (rel @ n[..., :, None])[..., 0, 0]
    h2 = (radius - dist) * (radius + dist)
    return (rel @ d[..., :, None])[..., 0, 0], np.copysign(np.sqrt(np.abs(h2)), h2), dist


def chord_ends(C: Body2, table: CutTable, centers, halves):
    """Ends of the chords that the boundary lines of a CutTable's
    half-planes cut from C.

    Line k runs over parameters |t| <= halves[k] from the foot of
    centers[k] on it.  The base bounds t first: a ball to the circle's
    chord (_circle_chord), an epigraph to where the line lies above the
    graph (EpigraphBase.chord: closed form on a parabola, a slope_point
    minimum and one newton_leq elsewhere).  Then each cut of C bounds t on
    one side, the window clips, and the chord's midpoint is tested.
    Returns the (K, 2, 2) end points, the (K, 2) mask of ends on the
    boundary of C (the others lie on the window), the (K,) mask of lines
    that meet the interior of C (margin below -1e-9 at the midpoint) and
    the (K, 2) clipped parameter intervals (lo, hi), lo > hi where the line
    misses C within its window.  The interval reads no margin: a tangent
    line or a sliver chord keeps lo <= hi where the interior test fails.
    """
    n, c = table.normals, table.offsets
    if not len(c):
        return (np.zeros((0, 2, 2)), np.zeros((0, 2), dtype=bool), np.zeros(0, dtype=bool),
                np.zeros((0, 2)))
    w = as_points(centers)
    half = np.asarray(halves, dtype=float)
    foot = w + (c - np.einsum("ij,ij->i", n, w))[:, None] * n
    d = np.column_stack([-n[:, 1], n[:, 0]])

    def line(t):
        t = np.asarray(t)
        rows = (slice(None),) + (None,) * (t.ndim - 1)
        return (foot[rows] + t[..., None] * d[rows]).reshape(-1, 2)

    # along line k each cut j of C keeps a[j, k] + t * b[j, k] <= 0
    lo, hi = -np.inf, np.inf
    if isinstance(C.base, BallBase):
        t_mid, r_half, _ = _circle_chord(C.base.center, C.base.radius, foot, n, d)
        lo, hi = t_mid - r_half, t_mid + r_half
    elif isinstance(C.base, EpigraphBase):
        lo, hi = C.base.chord(foot, d, half)
    a, b = C.cut_table.values(foot), C.cut_table.normals @ d.T
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -a / b
    lo = np.maximum(np.maximum(lo, -half), np.where(b < 0, t, -np.inf).max(axis=0, initial=-np.inf))
    hi = np.minimum(np.minimum(hi, half), np.where(b > 0, t, np.inf).min(axis=0, initial=np.inf))
    if (b == 0).any():  # a line parallel to a cut and outside it misses
        lo[((b == 0) & (a > 0)).any(axis=0)] = np.inf
    t_end = np.column_stack([np.minimum(lo, half), np.maximum(hi, -half)])
    meets = (lo < hi) & (C.margin_many(line(0.5 * (t_end[:, 0] + t_end[:, 1]))) < -1e-9)
    on_c = np.column_stack([lo != -half, hi != half]) & meets[:, None]
    return line(t_end).reshape(-1, 2, 2), on_c, meets, np.column_stack([lo, hi])


def chord_parts(ends: np.ndarray, table: CutTable, rtol: float = 1e-9):
    """(lo, hi) in [0, 1] along each chord ends[j, 0] -> ends[j, 1]: the part
    that every cut of the table keeps (lo > hi: none).  A cut keeps an end
    within rtol * max(1, |end|); rtol = 0 keeps exactly the closed side."""
    v = np.stack([table.values(ends[:, 0]), table.values(ends[:, 1])], axis=-1)
    out = v > rtol * np.maximum(1.0, np.linalg.norm(ends, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.clip(v[..., 0] / (v[..., 0] - v[..., 1]), 0.0, 1.0)
    lo = np.where(out[..., 0], np.where(out[..., 1], np.inf, s), 0.0).max(axis=0)
    hi = np.where(out[..., 1], np.where(out[..., 0], -np.inf, s), 1.0).min(axis=0)
    return lo, hi


def active_normals(C: Body2, pts):
    """The outward unit normals (c, N, 2) of C's c constraints (the ball or
    graph base, then each cut) at N boundary points, and the (c, N) mask of
    those active there: within NORMAL_REACH * max(1, distance to the
    witness), the reach of supporting_normals."""
    pts = as_points(pts)
    near = NORMAL_REACH * np.maximum(1.0, np.linalg.norm(pts - C.witness, axis=-1))
    base, table = C.base, C.cut_table
    normals = np.broadcast_to(table.normals[:, None, :], (len(table.offsets),) + pts.shape)
    active = np.abs(table.values(pts)) <= near
    if isinstance(base, PlaneBase):
        return normals, active
    if isinstance(base, BallBase):
        rel = pts - base.center
        own = rel / np.linalg.norm(rel, axis=-1, keepdims=True)
    else:
        own = base.graph_normal(base.to_profile(pts)[:, 0])
    return (np.concatenate([own[None], normals]),
            np.concatenate([(np.abs(base.margin(pts)) <= near)[None], active]))


def relative_boundary(B: Body2, C: Body2, check_containment: bool = True) -> BoundaryArc:
    """Closure of the part of the boundary of B lying in the interior of C.

    Returns parameter intervals over B's boundary pieces (129 samples
    each); endpoints refined onto the boundary of C.
    """
    if check_containment:
        _check_inside(B, C)

    intervals = []
    for idx, pc in enumerate(B.pieces()):
        ts = pc.sample_params(129)
        runs = _mask_runs(C.margin_many(pc.point(ts)) < -TOL)
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

def find_boundary_segment(C: Body2):
    """Longest straight boundary piece (MIN_SEGMENT or longer), or None.

    Lengths within 1e-12 (relative) of the longest tie, and a tie goes to
    the lowest outward-normal angle in [0, 2 pi), so the answer does not
    depend on where the chain starts.
    """
    segs = [pc for pc in C.pieces()
            if isinstance(pc, Segment) and pc.length >= MIN_SEGMENT]
    if not segs:
        return None
    longest = max(pc.length for pc in segs)
    return min((pc for pc in segs if pc.length >= (1.0 - 1e-12) * longest),
               key=lambda pc: angle_of(pc.n))


def is_rotund(C: Body2) -> bool:
    """No nontrivial straight segment on the boundary.

    Decided structurally: any straight boundary piece disqualifies, and
    analytic graph pieces inherit the profile's strict-convexity flag.
    Sampling the rotundity modulus cannot make this call (it underflows on
    asymptotically flat but strictly convex boundaries).
    """
    for pc in C.pieces():
        if isinstance(pc, Segment):
            return False
        if isinstance(pc, GraphPiece) and not pc.base.profile.strictly_convex:
            return False
    return True


def find_asymptotic_direction(C: Body2):
    """Search the recession cone's extreme rays; returns (v, x0) or None.

    Interior recession directions can never be asymptotic (their orthogonal
    supports are infinite), so the extreme rays exhaust the candidates.
    The search runs once per body (Body2._asymptotic); each call returns
    copies of its result.
    """
    found = C._asymptotic
    return None if found is None else (found[0].copy(), found[1].copy())
