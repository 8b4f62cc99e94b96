"""Level-set representation of quasiconvex functions and diagnostics.

A quasiconvex function is carried either as a finite nested level family
(step evaluation) or as a vectorized oracle; the constructors here build
the explicit staircase and boundary-ramp functions used by the
counterexample generators, plus empirical continuity/Lipschitz checks.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .geometry import (
    TOL,
    UNIT_SLACK,
    Body2,
    CutTable,
    Frame,
    HalfPlane,
    along,
    as_point,
    as_points,
    chord_ends,
    chord_parts,
    cuts_beyond_all,
    distance_many,
    dots,
    golden_min,
    norm,
    relative_boundary,
    transform_body,
    unit,
)

#: value reported where a level family does not cover a point
SENTINEL = sys.float_info.max

#: sampling window radius = SAMPLE_RADIUS_MULT * witness clearance
SAMPLE_RADIUS_MULT = 16.0


class LevelSetError(ValueError):
    """Raised on invalid level-family or function data."""


# ---------------------------------------------------------------------------
# core containers

class CutLevels(Sequence):
    """The levels of a family given as its ambient C cut by per-level rows,
    each level's Body2 built the first time it is read.

    Stored: table, the padded (K, m, 3) rows in row_table's layout, which
    first_row_level reads without a copy.  Level k is C cut by the rows
    (nx, ny, c) of table[k] with c < inf; (0, 0, inf) is padding.  The
    normals must be finite and unit within UNIT_SLACK (a NaN normal or
    offset, or c = -inf, raises LevelSetError), so a level's Body2.rows keep
    the table's bits.  Derived: cuts(k), level k's rows without padding,
    and self[k], C.clip of them, named name + str(k) (C's name when name
    is empty), built on first access and cached; a level with an empty
    interior raises GeometryError there, not here.
    """

    def __init__(self, ambient: Body2, rows, name: str = ""):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 3 or rows.shape[2] != 3 or len(rows) == 0:
            raise LevelSetError("cut rows must be a nonempty (K, m, 3) table")
        unit = np.abs(np.hypot(rows[..., 0], rows[..., 1]) - 1.0) <= UNIT_SLACK
        bad = (rows[..., 2] != np.inf) & ~(unit & np.isfinite(rows).all(axis=-1))
        if bad.any():
            raise LevelSetError("cut rows must be finite with unit normals, "
                                f"got {tuple(rows[bad][0].tolist())}")
        self.ambient, self.name = ambient, name
        self.table = np.ascontiguousarray(rows.transpose(1, 2, 0)).transpose(2, 0, 1)
        self._built = {}

    def __len__(self):
        return len(self.table)

    def cuts(self, k: int) -> np.ndarray:
        """Level k's (m_k, 3) rows, without the padding."""
        r = self.table[k]
        return r[r[:, 2] != np.inf]

    def __getitem__(self, k: int) -> Body2:
        k = range(len(self))[k]
        if k not in self._built:
            self._built[k] = self.ambient.clip(self.cuts(k),
                                               name=f"{self.name}{k}" if self.name else "")
        return self._built[k]


@dataclass
class LevelFamily:
    """Finite increasing family (alpha_k, B_k) of nested convex bodies.

    Represents the sublevel structure of a quasiconvex function on the
    ambient body: B_k = [f <= alpha_k].  bodies is a list of Body2 (or
    None, the empty set), or CutLevels of the ambient (from_cuts), whose
    levels are built only where something reads bodies[k]: evaluation
    (eval_many, eval_on) reads the cut table and the ambient and builds
    none; validate_nesting builds every level but the last, and the
    extension operator every level.  Each level's cuts beyond the ambient
    are read once per family (_extra_cuts: one cuts_beyond_all pass over a
    body list, a cut family's own rows), and validate_nesting, evaluation
    and the extension operator's batch all take them from there.
    """

    levels: np.ndarray
    bodies: Sequence
    ambient: Body2
    sentinel: float = SENTINEL

    def __post_init__(self):
        try:
            self.levels = np.asarray(self.levels, dtype=float)
        except (TypeError, ValueError):
            raise LevelSetError("levels must be numbers") from None
        if isinstance(self.bodies, CutLevels) and self.bodies.ambient is not self.ambient:
            raise LevelSetError("cut levels must be cut from the family's ambient")
        if self.levels.ndim != 1 or len(self.levels) != len(self.bodies) or len(self.bodies) == 0:
            raise LevelSetError("levels and bodies must align and be nonempty")
        if not np.isfinite(self.levels).all():
            raise LevelSetError("levels must be finite")
        if np.any(np.diff(self.levels) <= 0):
            raise LevelSetError("levels must be strictly increasing")

    @classmethod
    def from_cuts(cls, levels, ambient: Body2, rows, name: str = "") -> "LevelFamily":
        """The family whose level k is ambient cut by rows[k], a padded
        (K, m, 3) table in row_table's layout (CutLevels); no level is
        built here."""
        return cls(levels, CutLevels(ambient, rows, name), ambient)

    def __len__(self):
        return len(self.bodies)

    def validate_nesting(self, tol: float = 1e-7):
        """True if every B_k lies in B_{k+1} up to tol; LevelSetError names
        the first pair that does not.

        Where both levels are cut from the ambient C (_extra_cuts), the
        check is exact up to tol within B_k's window: B_k lies in an extra
        cut n . x <= c of B_{k+1} widened to c + tol iff B_k's witness does
        and the chord of C on the line n . x = c + tol, clipped by B_k's
        extra cuts (chord_parts, no slack), is empty; a convex B_k with an
        interior point on the kept side crosses the line iff the line meets
        its interior.  Every such pair's lines are one chord_ends batch,
        searched B_k.window_half about the foot of B_k's witness as in
        extend_bodies.  Other pairs test 128 boundary samples of B_k
        (_nests_sampled).  A None level (the empty set) nests in any level.
        Each level is read as bodies[k], so a cut family (CutLevels) builds
        its levels but the last, and an empty one raises GeometryError.
        """
        C = self.ambient
        extra = self._extra_cuts
        bad, pair, rows, centers, halves = [], [], [], [], []
        for k in range(len(self) - 1):
            inner = self.bodies[k]
            if inner is None:
                continue
            if extra[k] is None or extra[k + 1] is None:
                outer = self.bodies[k + 1]
                if outer is None or not _nests_sampled(inner, outer, 128, tol):
                    bad.append(k)
            else:
                cut = extra[k + 1]
                pair += [k] * len(cut)
                rows.append(cut)
                centers += [inner.witness] * len(cut)
                halves += [inner.window_half] * len(cut)
        if pair:
            pair, rows = np.array(pair), np.concatenate(rows)
            lines = CutTable(np.column_stack([rows[:, :2], rows[:, 2] + tol]))
            ends, _, crosses, _ = chord_ends(C, lines, centers, halves)
            for k in np.unique(pair[crosses]):
                if len(extra[k]):
                    mine = pair == k
                    lo, hi = chord_parts(ends[mine], CutTable(extra[k]), rtol=0.0)
                    crosses[mine] &= lo <= hi
            beyond = dots(np.asarray(centers), lines.normals) > lines.offsets
            bad += pair[crosses | beyond].tolist()
        if bad:
            k = min(bad)
            raise LevelSetError(f"body {k} is not contained in body {k + 1}")
        return True

    @cached_property
    def _extra_cuts(self) -> list:
        """Per level, cuts_beyond(B_k, ambient) as (m, 3) rows, or None for
        a None level, a level not cut from the ambient and a half-plane
        level outside it: one cuts_beyond_all pass, computed once per
        family.  A cut family gives its own rows (CutLevels.cuts), without
        building a level; a row equal to one of the ambient's cuts is kept
        there, where cuts_beyond would drop it."""
        if isinstance(self.bodies, CutLevels):
            return [self.bodies.cuts(k) for k in range(len(self))]
        return cuts_beyond_all(self.bodies, self.ambient)

    @cached_property
    def _cut_rows(self) -> Optional[np.ndarray]:
        """A row_table of the levels' extra cuts (a cut family's own
        table), or None where some level is neither None nor cut from the
        ambient."""
        if isinstance(self.bodies, CutLevels):
            return self.bodies.table
        extra = self._extra_cuts
        if any(B is not None and e is None for B, e in zip(self.bodies, extra)):
            return None
        return row_table(*stack_levels(extra))

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Per point, the smallest level alpha_k with the point in B_k
        (contains_many at its default TOL), the sentinel where no level
        holds it: eval_on, after one C.contains_many call that sends points
        off the ambient C to the sentinel where every level is None or cut
        from C (_extra_cuts)."""
        pts = as_points(pts)
        if self._cut_rows is None:
            return self.eval_on(pts)
        out = np.full(pts.shape[0], self.sentinel)
        on = self.ambient.contains_many(pts)
        out[on] = self.eval_on(pts[on])
        return out

    def eval_on(self, pts: np.ndarray) -> np.ndarray:
        """eval_many on points known to lie on the ambient C, without an
        ambient test, for nested levels (validate_nesting).  Where every
        level is None or cut from C, one first_row_level search with margin
        <= TOL finds each point's level in a row_table of the levels' extra
        cuts, built once per family (a None level is a row every point
        violates, a level equal to C all padding); other families scan the
        levels in order, one contains_many each."""
        pts = as_points(pts)
        if self._cut_rows is not None:
            k = first_row_level(self._cut_rows, pts, lambda m: m <= TOL)
            return np.append(self.levels, self.sentinel)[k]
        out = np.full(pts.shape[0], self.sentinel)
        unset = np.ones(pts.shape[0], dtype=bool)
        for alpha, body in zip(self.levels, self.bodies):
            if not unset.any():
                break
            if body is not None:
                hit = unset & body.contains_many(pts)
                out[hit] = alpha
                unset &= ~hit
        return out

    def max_gap(self) -> float:
        return float(np.max(np.diff(self.levels))) if len(self.levels) > 1 else 0.0


def stack_levels(levels: Sequence) -> tuple:
    """(rows, bounds) of per-level (m_k, 3) rows, None for the empty set
    (one row (0, 0, -inf), which every point violates): their stack and its
    (K + 1,) bounds, level k's rows being rows[bounds[k]:bounds[k + 1]]."""
    levels = [np.array([[0.0, 0.0, -np.inf]]) if r is None else r for r in levels]
    return (np.concatenate([np.zeros((0, 3)), *levels]),
            np.cumsum([0] + [len(r) for r in levels]))


def row_table(rows: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """(K, m, 3) table of per-level rows (nx, ny, c), as first_row_level
    reads it: level k's rows rows[bounds[k]:bounds[k + 1]] of a stack
    (stack_levels), padded with rows (0, 0, inf), which no point violates,
    all placed by one scatter.  The table is a view whose (m, 3, K) transpose is
    C-contiguous, so first_row_level takes from it without a copy."""
    size = np.diff(bounds)
    cols = np.zeros((max(1, size.max(initial=0)), 3, len(size)))
    cols[:, 2] = np.inf
    level = np.repeat(np.arange(len(size)), size)
    cols[np.arange(len(level)) - bounds[level], :, level] = rows
    return cols.transpose(2, 0, 1)


def first_row_level(table: np.ndarray, pts, inside) -> np.ndarray:
    """Per point, the smallest k with inside(margin) true, where margin is
    the largest x nx + y ny - c over the rows (nx, ny, c) of table[k], a
    (K, m, 3) array; K where no level passes.

    A branchless lower bound (Khuong and Morin, "Array layouts for
    comparison-based searching", JEA 2017): the answer lies in
    base .. base + n - 1, and every point takes the same ceil(log2(K + 1))
    steps, each probing level base + n // 2 - 1.  The answer is the
    smallest passing level where inside is monotone in k (false, then
    true), as on nested levels.  Each row's margin is x nx, plus y ny,
    minus c, as in CutTable, so it equals the cut table's bit for bit; the
    first row's margin is written straight into the running maximum.  A
    table from row_table is read without a copy.  Each call pays a fixed
    cost per step and row, so callers search all their points in one call.
    """
    pts = as_points(pts)
    cols = np.ascontiguousarray(np.asarray(table, dtype=float).transpose(1, 2, 0))
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    margin = np.full(len(pts), -np.inf)  # stays -inf for a table without rows
    t, u = np.empty((2, len(pts)))
    base = np.zeros(len(pts), dtype=np.intp)
    n = cols.shape[2] + 1
    while n > 1:
        half = n // 2
        probe = base + (half - 1)
        for i, (nx, ny, c) in enumerate(cols):
            row = margin if i == 0 else t
            np.multiply(nx.take(probe), x, out=row)
            row += np.multiply(ny.take(probe), y, out=u)
            row -= c.take(probe)
            if i:
                np.maximum(margin, t, out=margin)
        base += half * ~inside(margin)
        n -= half
    return base


def _nests_sampled(inner: Body2, outer: Body2, n: int, tol: float) -> bool:
    """Whether n boundary samples of inner lie in outer up to tol."""
    return bool(outer.contains_many(inner.boundary_samples(n), tol).all())


@dataclass
class QCFunction:
    """Evaluation oracle over a convex domain, with optional regularity data."""

    domain: Optional[Body2]
    eval_many: Callable[[np.ndarray], np.ndarray]
    lipschitz: Optional[float] = None
    modulus: Optional["ModulusTable"] = None
    meta: dict = field(default_factory=dict)

    def __call__(self, pts) -> np.ndarray:
        return self.eval_many(as_points(pts))

    def eval_one(self, p) -> float:
        return float(self.eval_many(as_point(p)[None, :])[0])


@dataclass
class ModulusTable:
    """Empirical lower envelope of a minimal modulus of continuity."""

    ts: np.ndarray
    omegas: np.ndarray

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.omegas = np.asarray(self.omegas, dtype=float)
        if self.ts[0] != 0.0 or self.omegas[0] != 0.0:
            raise LevelSetError("modulus table must start at (0, 0)")
        if np.any(np.diff(self.omegas) < -1e-12):
            raise LevelSetError("modulus table must be non-decreasing")

    def at(self, t: float) -> float:
        return float(np.interp(t, self.ts, self.omegas))


# ---------------------------------------------------------------------------
# sampling

def sample_domain(domain, n: int, rng, window=None) -> np.ndarray:
    """Uniform samples of a body (rejection in a window) or of a box.

    domain: Body2, or (xmin, xmax, ymin, ymax) box. The default body window
    is the witness ball center +- SAMPLE_RADIUS_MULT * clearance.  A body
    takes rounds of m candidates, m = max(4 n, 64) doubling each round up
    to 2,000,000, for at most 60 rounds, and returns the first n candidates
    it contains: a round's x are the next m uniforms over the window's x
    span and its y the m after.  Only a prefix of a round is tested, in
    slices sized from the acceptance rate seen so far, and only the tested
    candidates are drawn where the stream can jump (_Round); the output
    and the rng state after the call are those of drawing and testing
    every candidate of every round.
    """
    if isinstance(domain, Body2):
        if window is None:
            c, r = domain.witness, SAMPLE_RADIUS_MULT * domain.clearance
            window = (c[0] - r, c[0] + r, c[1] - r, c[1] + r)
        out = [np.empty((0, 2))]
        got = tested = 0
        m = max(4 * n, 64)
        for _ in range(60):
            cand = _Round(rng, window, m)
            start = 0
            while start < m and got < n:
                stop = min(m, start + 16 + int(1.25 * (n - got) * (tested + 1) / (got + 1)))
                part = cand.take(start, stop)
                out.append(part[domain.contains_many(part)])
                got += len(out[-1])
                tested += stop - start
                start = stop
            cand.close()
            if got >= n:
                break
            m = min(2 * m, 2_000_000)  # thin bodies need bigger batches
        if got < n:
            raise LevelSetError("rejection sampling failed; window misses the body")
        return np.vstack(out)[:n]
    xmin, xmax, ymin, ymax = domain
    return np.column_stack([rng.uniform(xmin, xmax, n), rng.uniform(ymin, ymax, n)])


#: sample_domain draws rounds of at most this many candidates whole
WHOLE_ROUND = 4096


class _Round:
    """One round of sample_domain: m candidate pairs whose x are rng's
    next m uniforms over window[0:2] and whose y the m after, over
    window[2:4].  take(start, stop) gives candidates start .. stop - 1;
    close() leaves rng where drawing all 2 m uniforms leaves it.

    A round of more than WHOLE_ROUND candidates on a PCG64 or PCG64DXSM
    stream draws only the slices taken: each jumps from the state saved at
    the round's start with advance, which skips one double per step on
    these generators (Philox's advance does not, and MT19937 and SFC64
    have none), and close() jumps to 2 m, keeping the saved 32-bit buffer
    that advance clears.  Any other round is drawn whole: a small round
    costs less to draw than to position slice by slice.
    """

    def __init__(self, rng, window, m: int):
        self.rng, self.window, self.m = rng, window, m
        bg = getattr(rng, "bit_generator", None)
        if m > WHOLE_ROUND and isinstance(bg, (np.random.PCG64, np.random.PCG64DXSM)):
            self.bg, self.saved = bg, bg.state
        else:
            self.bg = None
            self.cand = np.column_stack([rng.uniform(window[0], window[1], m),
                                         rng.uniform(window[2], window[3], m)])

    def _seek(self, offset: int):
        self.bg.state = self.saved
        self.bg.advance(offset)

    def take(self, start: int, stop: int) -> np.ndarray:
        if self.bg is None:
            return self.cand[start:stop]
        w, size = self.window, stop - start
        self._seek(start)
        x = self.rng.uniform(w[0], w[1], size)
        self._seek(self.m + start)
        return np.column_stack([x, self.rng.uniform(w[2], w[3], size)])

    def close(self):
        if self.bg is not None:
            self._seek(2 * self.m)
            keep = {k: self.saved[k] for k in ("has_uint32", "uinteger")}
            self.bg.state = {**self.bg.state, **keep}


# ---------------------------------------------------------------------------
# constructors

def staircase_qc(ambient: Body2, bodies: Sequence[Body2], levels: Sequence[float],
                 gaps: Sequence[float], check_gaps: bool = True) -> QCFunction:
    """1-Lipschitz quasiconvex staircase with [f <= levels[k]] = bodies[k].

    After leaving body k the value ramps with the distance to it for gaps[k],
    then plateaus at levels[k+1]; past the last body the ramp settles on the
    constant levels[-1] + gaps[-1].  Requires d(C \\ D_{k+1}, D_k) >= gaps[k],
    which check_gaps tests at 96 samples of each relative boundary.
    A point's first body is the level family's search (LevelFamily.eval_many),
    which assumes the bodies nested.  bodies may be CutLevels of ambient
    (LevelFamily.from_cuts): then a level is built only where it is read,
    by check_gaps or by the first evaluation at a point whose ramp
    measures the distance to it, and an empty level raises GeometryError
    there.
    """
    if not isinstance(bodies, CutLevels):
        bodies = list(bodies)
    levels = np.asarray(levels, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    if not (len(bodies) == len(levels) == len(gaps)):
        raise LevelSetError("bodies, levels and gaps must have equal length")
    if np.any(gaps <= 0):
        raise LevelSetError("gaps must be positive")
    if len(levels) > 1 and not np.allclose(np.diff(levels), gaps[:-1], rtol=0, atol=1e-9):
        raise LevelSetError("levels must increase exactly by the gaps")
    if check_gaps:
        for k in range(len(bodies) - 1):
            # d(C \ D_{k+1}, D_k) is approached on the relative boundary
            arc = relative_boundary(bodies[k + 1], ambient,
                                    check_containment=False)
            pts = arc.sample(96)
            if len(pts) == 0:
                continue
            d = distance_many(bodies[k], pts)
            if float(np.min(d)) < gaps[k] * (1 - 1e-6) - 1e-9:
                raise LevelSetError(
                    f"gap violation between bodies {k} and {k + 1}: "
                    f"measured {float(np.min(d)):.3g} < required {gaps[k]:.3g}")

    fam = LevelFamily(levels, bodies, ambient)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = as_points(pts)
        k = np.searchsorted(levels, fam.eval_many(pts))
        out = np.full(pts.shape[0], levels[0])
        for j in np.unique(k[k > 0]):
            zone = k == j
            out[zone] = levels[j - 1] + np.minimum(distance_many(bodies[j - 1], pts[zone]),
                                                   gaps[j - 1])
        return out

    return QCFunction(domain=ambient, eval_many=evaluate, lipschitz=1.0,
                      meta={"kind": "staircase", "family": fam,
                            "gaps": gaps, "residual": float(levels[-1] + gaps[-1])})


def ramp_qc(domain: Body2, h_normal, points: np.ndarray, alphas: np.ndarray,
            halfplanes: Sequence[HalfPlane], bilip: float,
            h_offset: float = 0.0) -> QCFunction:
    """Continuous quasiconvex ramp/plateau function tracking a boundary chain.

    h is the linear functional h(y) = h_normal . y; points y_n on the
    boundary have increasing levels alphas[n] = h(y_n).  Value 0 where
    h < 0, a linear ramp on [alphas[2k-1], alphas[2k]), and on
    [alphas[2k], alphas[2k+1]) the plateau alphas[2k+1] plus the distance
    to the halfplane H_{2k}.  (2/bilip)-Lipschitz.
    """
    h = unit(np.asarray(h_normal, dtype=float))
    points = as_points(points)
    alphas = np.asarray(alphas, dtype=float)
    if len(points) != len(alphas) or len(points) < 3:
        raise LevelSetError("need matching points/levels, at least three")
    if np.any(np.diff(alphas) <= 0):
        raise LevelSetError("levels along the chain must increase")
    if abs(alphas[0]) > 1e-9:
        raise LevelSetError("the chain must start at level 0")
    hps = list(halfplanes)
    # hps[j] is the half-plane below the line through the chain points
    # with 1-based indices 2j+2 and 2j+3

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = as_points(pts)
        hv = dots(pts, h) - h_offset
        out = np.zeros(pts.shape[0])
        pos = hv >= 0
        if not pos.any():
            return out
        idx = np.searchsorted(alphas, hv[pos], side="right")  # alphas[idx-1] <= hv
        idx = np.clip(idx, 1, len(alphas) - 1)
        n = idx  # 1-based chain index of the interval start
        vals = np.empty(n.shape)
        odd = (n % 2) == 1  # hv in [alpha_{2k-1}, alpha_{2k}): linear ramp
        if odd.any():
            k2m1 = n[odd]  # = 2k-1 as a 1-based index -> 0-based k2m1-1
            a_lo = alphas[k2m1 - 1]
            a_mid = alphas[np.minimum(k2m1, len(alphas) - 1)]
            a_hi = alphas[np.minimum(k2m1 + 1, len(alphas) - 1)]
            denom = np.where(a_mid > a_lo, a_mid - a_lo, 1.0)
            vals[odd] = a_lo + (a_hi - a_lo) * (hv[pos][odd] - a_lo) / denom
        even = ~odd  # hv in [alpha_{2k}, alpha_{2k+1}): plateau + halfplane ramp
        if even.any():
            n_even = n[even]
            a_next = alphas[np.minimum(n_even, len(alphas) - 1)]
            dists = np.zeros(int(even.sum()))
            sub = pts[pos][even]
            for j, hp in enumerate(hps):
                sel = n_even == 2 * (j + 1)
                if sel.any():
                    dists[sel] = np.maximum(hp.value(sub[sel]), 0.0)
            vals[even] = a_next + dists
        out[pos] = vals
        return out

    return QCFunction(domain=domain, eval_many=evaluate, lipschitz=2.0 / bilip,
                      meta={"kind": "ramp", "h": h, "h_offset": h_offset,
                            "points": points, "alphas": alphas,
                            "halfplanes": hps, "bilip": bilip})


def compose_projection(f, P) -> QCFunction:
    """Compose a quasiconvex function with a linear map: x -> f(P x).

    P may be 2x2 (plane to plane) or 1x2 (plane to line, f scalar on the
    line).  Quasiconvexity, continuity and Lipschitz class carry over
    (Lipschitz constant scaled by the operator norm of P).
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    op_norm = float(np.linalg.svd(P, compute_uv=False)[0])
    if P.shape == (2, 2):
        if not isinstance(f, QCFunction):
            raise LevelSetError("plane-to-plane composition needs a QCFunction")

        def evaluate(pts):
            return f.eval_many(as_points(pts) @ P.T)

        dom = None
        if f.domain is not None:
            dom = _pullback_body(f.domain, P)
        lip = f.lipschitz * op_norm if f.lipschitz is not None else None
        return QCFunction(domain=dom, eval_many=evaluate, lipschitz=lip,
                          meta={"kind": "composed", "proj": P, "inner": f})
    if P.shape == (1, 2):
        scalar, interval = f if isinstance(f, tuple) else (f, None)

        def evaluate(pts):
            t = as_points(pts) @ P[0]
            return np.asarray(scalar(t), dtype=float)

        dom = None
        if interval is not None:
            a, b = interval
            n = unit(P[0])
            s = norm(P[0])
            dom = Body2.from_halfplanes([(n, b / s), (-n, -a / s)])
        return QCFunction(domain=dom, eval_many=evaluate,
                          meta={"kind": "composed", "proj": P})
    raise LevelSetError("projection must be 2x2 or 1x2")


def _pullback_body(body: Body2, P: np.ndarray) -> Optional[Body2]:
    """Preimage of a body under an invertible scaled isometry, else None."""
    PtP = P.T @ P
    lam2 = 0.5 * (PtP[0, 0] + PtP[1, 1])
    if abs(np.linalg.det(P)) < 1e-12:
        return None
    if abs(PtP[0, 1]) > 1e-9 * lam2 or abs(PtP[0, 0] - PtP[1, 1]) > 1e-9 * lam2:
        return None
    # the preimage is the image under P^-1 = lam * R with R orthogonal
    lam, zero = 1.0 / math.sqrt(lam2), np.zeros(2)
    return transform_body(body, Frame(R=np.linalg.inv(P) / lam, anchor=zero,
                                      shift=zero, lam=lam))


def mcshane_extend(f: QCFunction) -> Callable[[np.ndarray], np.ndarray]:
    """Largest L-Lipschitz extension of a convex f: inf over C of f(u) + L|x-u|.

    Evaluated by minimizing over 512 boundary and 24 x 24 interior grid
    samples of the domain with 60 golden-section steps along the boundary.
    """
    if f.domain is None:
        raise LevelSetError("mcshane_extend needs a function with a body domain")
    L = float(f.lipschitz)
    C = f.domain
    pieces = C.pieces()
    bpts = C.boundary_samples(512)
    c, r = C.witness, max(C.clearance * SAMPLE_RADIUS_MULT, 1.0)
    gx = np.linspace(c[0] - r, c[0] + r, 24)
    gy = np.linspace(c[1] - r, c[1] + r, 24)
    gg = np.stack(np.meshgrid(gx, gy), axis=-1).reshape(-1, 2)
    interior = gg[C.contains_many(gg)]
    anchors = np.vstack([bpts, interior]) if len(interior) else bpts
    f_anchor = f.eval_many(anchors)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = as_points(pts)
        out = np.empty(pts.shape[0])
        inside = C.contains_many(pts)
        if inside.any():
            out[inside] = f.eval_many(pts[inside])
        rest = ~inside
        if rest.any():
            sub = pts[rest]
            vals = f_anchor[None, :] + L * np.linalg.norm(
                sub[:, None, :] - anchors[None, :, :], axis=-1)
            best = vals.min(axis=1)
            # refine along each boundary piece around the coarse winner
            for i, p in enumerate(sub):
                for pc in pieces:
                    cost = along(lambda q: f.eval_many(q)
                                 + L * np.linalg.norm(p - q, axis=-1), pc.point)
                    ts = np.linspace(pc.t0, pc.t1, 33)
                    vals_t = cost(ts)
                    j = int(np.argmin(vals_t))
                    lo, hi = ts[max(j - 1, 0)], ts[min(j + 1, len(ts) - 1)]
                    _, v = golden_min(cost, lo, hi, iters=60)
                    if v < best[i]:
                        best[i] = v
            out[rest] = best
        return out

    return evaluate


# ---------------------------------------------------------------------------
# diagnostics

@dataclass
class QCReport:
    checked: int
    violations: int
    worst: float
    witness: Optional[tuple]  # (x, y, lam, f(x), f(y), f(mid))

    @property
    def passed(self) -> bool:
        return self.violations == 0


def quasiconvex_check(eval_many, domain, n_triples: int, tol: float = 1e-9,
                      seed: int = 0, window=None) -> QCReport:
    """Sampled quasiconvexity test on segment triples.

    Flags f(lam x + (1-lam) y) > max(f(x), f(y)) + tol; reports worst
    violation and its witness.  Sentinel values compare like any float.
    The x, y and midpoints go to eval_many in one call, which assumes f
    is evaluated pointwise.
    """
    if n_triples < 1:
        raise LevelSetError("need at least one triple")
    rng = np.random.default_rng(seed)
    xs = sample_domain(domain, n_triples, rng, window)
    ys = sample_domain(domain, n_triples, rng, window)
    lam = rng.uniform(0.0, 1.0, n_triples)
    mids = lam[:, None] * xs + (1 - lam[:, None]) * ys
    fx, fy, fm = np.split(np.asarray(eval_many(np.vstack([xs, ys, mids])), dtype=float), 3)
    gap = fm - np.maximum(fx, fy)
    bad = gap > tol
    worst = float(np.max(gap)) if len(gap) else -math.inf
    witness = None
    if bad.any():
        i = int(np.argmax(gap))
        witness = (xs[i], ys[i], float(lam[i]), float(fx[i]), float(fy[i]), float(fm[i]))
    return QCReport(checked=n_triples, violations=int(bad.sum()),
                    worst=worst, witness=witness)


def _sample_pairs(eval_many, domain, pair_samples, rng, window):
    """Distances and value gaps of pairs (x, y) and (x, z), z a local step
    from x; one eval_many call over x, y and z (f evaluated pointwise)."""
    xs = sample_domain(domain, pair_samples, rng, window)
    ys = sample_domain(domain, pair_samples, rng, window)
    # local pairs catch the short-range slope; project back into the domain
    span = float(np.max(np.abs(ys - xs))) or 1.0
    disp = rng.normal(0.0, 1e-3 * span, xs.shape)
    zs = xs + disp
    if isinstance(domain, Body2):
        keep = domain.contains_many(zs)
        zs[~keep] = xs[~keep]
    d = np.linalg.norm(np.vstack([xs, xs]) - np.vstack([ys, zs]), axis=-1)
    fx, fy, fz = np.split(np.asarray(eval_many(np.vstack([xs, ys, zs]))), 3)
    df = np.abs(np.concatenate([fx, fx]) - np.concatenate([fy, fz]))
    good = d > 1e-12
    return d[good], df[good]


def modulus_estimate(eval_many, domain, pair_samples: int, seed: int = 0,
                     window=None) -> ModulusTable:
    """Empirical lower envelope of the minimal modulus of continuity (32 bins)."""
    bins = 32
    d, df = _sample_pairs(eval_many, domain, pair_samples, np.random.default_rng(seed), window)
    t_hi = float(np.max(d))
    edges = np.linspace(0.0, t_hi, bins + 1)
    omega = np.zeros(bins + 1)
    idx = np.clip(np.searchsorted(edges, d, side="left"), 1, bins)
    for i, v in zip(idx, df):
        if v > omega[i]:
            omega[i] = v
    omega = np.maximum.accumulate(omega)
    return ModulusTable(edges, omega)


def lipschitz_estimate(eval_many, domain, pair_samples: int, seed: int = 0,
                       window=None) -> float:
    """Max sampled difference quotient (a lower bound on the true constant)."""
    d, df = _sample_pairs(eval_many, domain, pair_samples, np.random.default_rng(seed), window)
    return float(np.max(df / d)) if len(d) else 0.0
