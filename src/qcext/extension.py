"""The cone-hull extension operator and the full quasiconvex extension.

extend_bodies realizes e(B), the pruned supporting half-planes along the
relative boundary of B in the ambient C: exactly, in one batch, for bodies
cut from C by half-planes, else from sampled boundary points.
extend_function turns a nested level family on C into a quasiconvex
function on the whole plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .geometry import (
    Body2,
    CutTable,
    GeometryError,
    HalfPlane,
    Segment,
    TOL,
    active_normals,
    as_point,
    as_points,
    chord_ends,
    cuts_beyond,
    distance_many,
    dots,
    find_asymptotic_direction,
    irredundant,
    is_rotund,
    norm,
    prune_halfplanes,
    relative_boundary,
    supporting_normals,
)
from .levelset import LevelFamily

#: boundary sampling resolution of the sampled fallback
EXT_RESOLUTION = 512

#: strict-interior margin for extended-body membership
INT_MARGIN = 1e-9

#: margin tolerance of extended-body containment
CONTAIN_TOL = 1e-9


class ExtensionError(ValueError):
    """Raised when the extension preconditions fail."""


class CoveringError(ExtensionError):
    """No extended body in the family covers the query point."""

    def __init__(self, msg, last_level=None):
        super().__init__(msg)
        self.last_level = last_level


# ---------------------------------------------------------------------------
# the operator e(B)

@dataclass
class ExtendedBody:
    """Cone-hull extension of B relative to the ambient body.

    special is None for the generic half-plane intersection, 'empty' for
    the empty set and 'plane' for the whole plane (B equal to the ambient).
    """

    source: Optional[Body2]
    ambient: Optional[Body2]
    halfplanes: tuple = ()
    special: Optional[str] = None

    @cached_property
    def _cut_table(self) -> CutTable:
        return CutTable(self.halfplanes)

    def margin_many(self, pts: np.ndarray) -> np.ndarray:
        pts = as_points(pts)
        if self.special == "empty":
            return np.full(pts.shape[0], np.inf)
        return self._cut_table.margin(pts)

    def contains_many(self, pts, tol: float = CONTAIN_TOL) -> np.ndarray:
        return self.margin_many(pts) <= tol

    def interior_many(self, pts, margin: float = INT_MARGIN) -> np.ndarray:
        """Strict membership with a safety margin on every half-plane."""
        return self.margin_many(pts) < -margin


def _extend_sampled(B: Body2, C: Body2, resolution: int = EXT_RESOLUTION) -> ExtendedBody:
    """e(B) from supporting half-planes of B at sampled points of its
    relative boundary in C: the fallback for a body not cut from C, and the
    exact construction's test oracle.  Straight stretches give one
    half-plane; interval ends (on the boundary of C, and corners) give their
    full normal fan.  A chord that leaves B's window box is cut short there."""
    rel = relative_boundary(B, C)
    if rel.is_empty():
        return ExtendedBody(B, C, (), special="plane")
    pieces = B.pieces()
    raw = []

    def add(normal: np.ndarray, y: np.ndarray):
        raw.append(HalfPlane(normal, float(np.asarray(normal) @ y)))

    lengths = [0.0 if t1 - t0 <= 1e-12 else
               max(norm(np.asarray(pieces[i].point(t1)) - np.asarray(pieces[i].point(t0))), 1e-12)
               for i, t0, t1 in rel.intervals]
    total = sum(lengths) or 1.0
    for (idx, t0, t1), ln in zip(rel.intervals, lengths):
        pc = pieces[idx]
        for t_end in {t0, t1}:
            y = np.asarray(pc.point(t_end))
            try:
                for n in supporting_normals(B, y).extremes():
                    add(n, y)
            except GeometryError:
                add(np.asarray(pc.normal(t_end)), y)
        if t1 - t0 <= 1e-12:
            continue
        if isinstance(pc, Segment):
            tm = 0.5 * (t0 + t1)
            add(np.asarray(pc.normal(tm)), np.asarray(pc.point(tm)))
            continue
        k = max(2, int(round(resolution * ln / total)))
        ts = np.linspace(t0, t1, k + 2)[1:-1]
        nrm = np.atleast_2d(pc.normal(ts))
        offs = np.einsum("ij,ij->i", nrm, np.atleast_2d(pc.point(ts)))
        raw.extend(HalfPlane(n, float(o)) for n, o in zip(nrm, offs))
    return ExtendedBody(B, C, tuple(prune_halfplanes(raw, B.witness)))


def _chord_parts(ends: np.ndarray, table: CutTable):
    """(lo, hi) in [0, 1] along each chord ends[j, 0] -> ends[j, 1]: the part that
    every cut keeps (lo > hi: none); a cut keeps an end within 1e-9 * max(1, |end|)."""
    v = np.stack([table.values(ends[:, 0]), table.values(ends[:, 1])], axis=-1)
    out = v > 1e-9 * np.maximum(1.0, np.linalg.norm(ends, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.clip(v[..., 0] / (v[..., 0] - v[..., 1]), 0.0, 1.0)
    lo = np.where(out[..., 0], np.where(out[..., 1], np.inf, s), 0.0).max(axis=0)
    hi = np.where(out[..., 1], np.where(out[..., 0], -np.inf, s), 1.0).min(axis=0)
    return lo, hi


def extend_bodies(bodies, C: Body2, resolution: int = EXT_RESOLUTION) -> list:
    """e(B) for each body of a list (None: the empty set); exact, in one
    batch, for every B = C cut by H_1, ..., H_m (cuts_beyond).

    The relative boundary of B in C is the chords of C on the lines of the
    H_j (chord_ends, searched B.window_half about the foot of B's witness),
    each clipped by B's other cuts.  e(B) is the cuts with a non-empty part
    plus, at each part end on the boundary of C, the half-planes of C's
    constraints active there (any other cut of B active there has a part or
    is implied by C's), pruned.  Every body's half-planes are pruned in one
    call of geometry.irredundant, with prune_halfplanes' rule (the cuts
    first, then the ends' half-planes in order, for its ties).  An end on
    the window adds nothing; no part at all gives the whole plane.  Other
    bodies go to _extend_sampled."""
    out, rows, lines, centers, halves = [], {}, [], [], []
    for k, B in enumerate(bodies):
        extra = None if B is None else cuts_beyond(B, C)
        if extra is None:
            out.append(ExtendedBody(None, C, (), special="empty") if B is None
                       else _extend_sampled(B, C, resolution))
            continue
        out.append(None)
        rows[k] = slice(len(lines), len(lines) + len(extra))
        lines += extra
        centers += [B.witness] * len(extra)
        halves += [B.window_half] * len(extra)
    if not rows:
        return out
    table = CutTable(lines)
    ends, on_c, meets, _ = chord_ends(C, table, centers, halves)
    lo, hi = np.zeros(len(lines)), np.ones(len(lines))
    owner = np.empty(len(lines), dtype=np.intp)
    for k, r in rows.items():
        owner[r] = k
        if r.stop - r.start > 1:
            lo[r], hi[r] = _chord_parts(ends[r], bodies[k].cut_table)
    has_part = meets & (lo <= hi)
    on_c &= has_part[:, None] & np.column_stack([lo == 0.0, hi == 1.0])
    # the raw rows: the cuts with a part, then each end's active constraints
    part, (line_of, _) = np.flatnonzero(has_part), np.nonzero(on_c)
    y = ends[on_c]
    nrm, act = active_normals(C, y)
    point, cons = np.nonzero(act.T)
    fan = nrm[cons, point]
    normals = np.concatenate([table.normals[part], fan])
    offsets = np.concatenate([table.offsets[part], dots(fan, y[point])])
    level = np.concatenate([owner[part], owner[line_of[point]]])
    witnesses = np.zeros((len(bodies), 2))
    witnesses[list(rows)] = [bodies[k].witness for k in rows]
    kept = irredundant(normals, offsets, witnesses, level)
    hps = [lines[part[i]] if i < len(part) else HalfPlane(normals[i], offsets[i]) for i in kept]
    bounds = np.searchsorted(level[kept], np.arange(len(bodies) + 1))
    raw = np.bincount(level, minlength=len(bodies))
    for k in rows:
        out[k] = (ExtendedBody(bodies[k], C, tuple(hps[bounds[k]:bounds[k + 1]])) if raw[k]
                  else ExtendedBody(bodies[k], C, (), special="plane"))
    return out


def extend_body(B: Optional[Body2], C: Body2, resolution: int = EXT_RESOLUTION) -> ExtendedBody:
    """e(B) by extend_bodies; resolution reaches only the sampled fallback."""
    return extend_bodies([B], C, resolution)[0]


# ---------------------------------------------------------------------------
# function extension

@dataclass
class ExtensionOperator:
    """Per-level extension of a nested family.

    The first extended(k) builds every level in one extend_bodies call.
    The searches (covering_index_many, first_level) bisect one padded
    (K, m, 3) table of the levels' half-planes.
    """

    family: LevelFamily
    _cache: dict = field(default_factory=dict)
    _table: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def extended(self, k: int) -> ExtendedBody:
        if k not in self._cache:
            self._cache.update(enumerate(extend_bodies(self.family.bodies, self.family.ambient)))
        return self._cache[k]

    def level_table(self) -> np.ndarray:
        """(K, m, 3) rows (nx, ny, offset) of every level's half-planes,
        padded with rows no point violates; an empty level holds one row
        every point violates."""
        if self._table is None:
            exts = [self.extended(k) for k in range(len(self.family))]
            table = np.zeros((len(exts), max([1] + [len(e.halfplanes) for e in exts]), 3))
            table[..., 2] = np.inf
            for k, e in enumerate(exts):
                if e.special == "empty":
                    table[k, 0, 2] = -np.inf
                for j, hp in enumerate(e.halfplanes):
                    table[k, j] = (hp.normal[0], hp.normal[1], hp.offset)
            self._table = table
        return self._table

    def first_level(self, pts: np.ndarray, inside) -> np.ndarray:
        """Per point, the smallest k with inside(margin in e(B_k)) true, or
        len(family) where no level passes.

        One per-point bisection over level_table(); valid because the
        extended bodies grow with k, so inside is monotone in k.
        """
        pts = as_points(pts)
        cols = self.level_table().transpose(1, 2, 0).copy()  # (m, 3, K)
        x, y = pts[:, 0].copy(), pts[:, 1].copy()
        lo = np.zeros(len(pts), dtype=int)
        hi = np.full(len(pts), cols.shape[2])
        act = np.arange(len(pts))
        while act.size:
            mid = (lo[act] + hi[act]) // 2
            xa, ya = x[act], y[act]
            margin = np.full(act.size, -np.inf)
            for nx, ny, off in cols:
                margin = np.maximum(margin, nx.take(mid) * xa + ny.take(mid) * ya - off.take(mid))
            ok = inside(margin)
            hi[act] = np.where(ok, mid, hi[act])
            lo[act] = np.where(ok, lo[act], mid + 1)
            act = act[lo[act] < hi[act]]
        return lo

    def covering_index_many(self, pts: np.ndarray) -> np.ndarray:
        """Smallest k with the point in e(B_k) (margin <= CONTAIN_TOL).

        Every level is built up front, then first_level bisects each
        point's index over the level table.  CoveringError names the first
        point that no level contains.
        """
        pts = as_points(pts)
        idx = self.first_level(pts, lambda m: m <= CONTAIN_TOL)
        K = len(self.family)
        missed = idx == K
        if missed.any():
            i = int(np.argmax(missed))
            raise CoveringError(
                f"point {pts[i]} not covered by any extended body up to level "
                f"{self.family.levels[K - 1]}", last_level=float(self.family.levels[K - 1]))
        return idx

    def covering_index(self, x) -> int:
        """Smallest level index k with x in e(B_k); CoveringError if none."""
        return int(self.covering_index_many(as_point(x)[None, :])[0])


@dataclass
class ExtensionResult:
    """Quasiconvex extension of a level family to the whole plane.

    On the ambient body the value is the family's step evaluation; outside
    it is the smallest level whose extended body contains the point
    strictly, clamped to the top level beyond the family's reach.
    regularity: 'continuous' | 'usc-only' | 'unsupported' (ambient grade).
    """

    family: LevelFamily
    operator: ExtensionOperator
    regularity: str

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Family value on the ambient; off it, the smallest level whose
        extended body holds the point with margin < -INT_MARGIN (the top
        level where none does), from the operator's first_level bisection.
        The first off-body point builds every level up front."""
        pts = as_points(pts)
        out = np.empty(pts.shape[0])
        amb = self.family.ambient
        inside = amb.contains_many(pts)
        if inside.any():
            out[inside] = self.family.eval_many(pts[inside])
        rest = ~inside
        if rest.any():
            k = self.operator.first_level(pts[rest], lambda m: m < -INT_MARGIN)
            out[rest] = self.family.levels[np.minimum(k, len(self.family) - 1)]
        return out


def ambient_regularity(C: Body2) -> str:
    """Extension grade the ambient body supports.

    'continuous' for rotund bodies without asymptotic directions,
    'usc-only' without rotundity, 'unsupported' with an asymptotic
    direction (no quasiconvex extension is guaranteed at all).
    """
    if find_asymptotic_direction(C) is not None:
        return "unsupported"
    return "continuous" if is_rotund(C) else "usc-only"


def extend_function(fam: LevelFamily, validate: bool = True,
                    tol: float = 1e-7) -> ExtensionResult:
    """Extend a nested level family on its ambient body to the plane.

    The off-body rule rounds up to the smallest level whose extended body
    contains the point in its interior; this keeps every sublevel set
    exactly convex for a finite family (the family's own nesting supplies
    the strict containment the construction needs).
    """
    if validate:
        fam.validate_nesting(tol=tol)
    reg = ambient_regularity(fam.ambient)
    op = ExtensionOperator(fam)
    return ExtensionResult(family=fam, operator=op, regularity=reg)


# ---------------------------------------------------------------------------
# diagnostics used by the operator contracts

def restriction_hausdorff(ext: ExtendedBody, n: int = 256) -> float:
    """Hausdorff distance between e(B) intersected with the ambient and B."""
    if ext.special is not None:
        raise ExtensionError("special extensions have no restriction")
    B, C = ext.source, ext.ambient
    meet = Body2(C.base, C.cuts + tuple(ext.halfplanes), name="e_cap_C")
    a = meet.boundary_samples(n)
    d1 = float(np.max(distance_many(B, a))) if len(a) else 0.0
    b = B.boundary_samples(n)
    d2 = float(np.max(distance_many(meet, b))) if len(b) else 0.0
    return max(d1, d2)


def segment_meets_body(x, y, B: Body2) -> bool:
    """Whether the closed segment [x, y] meets B: the chord of B on its line
    within the segment (chord_ends, centred at the midpoint) is non-empty,
    or it is empty by rounding (a line through a vertex, a tangent line)
    and the segment's point at the middle of its clipped ends lies within
    TOL of B.  A point segment has no line; it meets B where its point lies
    within TOL of B."""
    x, y = as_point(x), as_point(y)
    length = norm(y - x)
    if length == 0:
        return bool(B.margin_many(x[None, :])[0] <= TOL)
    d = (y - x) / length
    n = np.array([[d[1], -d[0]]])
    ends, _, _, span = chord_ends(B, CutTable(normals=n, offsets=n @ x), [0.5 * (x + y)],
                                  [0.5 * length])
    return bool(span[0, 0] <= span[0, 1] or B.margin_many(ends[0].mean(axis=0)[None, :])[0] <= TOL)
