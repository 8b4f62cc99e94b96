"""The cone-hull extension operator and the full quasiconvex extension.

extend_bodies realizes e(B), the pruned supporting half-planes along the
relative boundary of B in the ambient C: exactly, in one batch, for bodies
cut from C by half-planes, else from sampled boundary points.  Either way
an ExtendedBody stores e(B) in one form, (m, 3) rows (nx, ny, offset).
extend_function turns a nested level family on C into a quasiconvex
function on the whole plane; its evaluation tests C once per call.
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
    chord_parts,
    cuts_beyond_all,
    distance_many,
    dots,
    halfplane_chain,
    irredundant,
    norm,
    polygon_distance,
    prune_halfplanes,
    relative_boundary,
    supporting_normals,
)
from .counterexamples import characterize
from .levelset import LevelFamily, first_row_level

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
    """Cone-hull extension of B relative to the ambient body, stored once
    as the (m, 3) rows (nx, ny, offset) of its half-planes, unit normals in
    angle order (for an exact e(B), a view into _extend_batch's array).
    special is None for the generic half-plane intersection, 'empty' for
    the empty set and 'plane' for the whole plane (B equal to the ambient),
    both with no rows.
    """

    source: Optional[Body2]
    ambient: Optional[Body2]
    rows: np.ndarray = field(repr=False)
    special: Optional[str] = None

    @cached_property
    def halfplanes(self) -> tuple:
        """The rows as HalfPlane objects, built on first use."""
        return tuple(HalfPlane(r[:2], r[2]) for r in self.rows.copy())

    @cached_property
    def _cut_table(self) -> CutTable:
        return CutTable(normals=self.rows[:, :2], offsets=self.rows[:, 2])

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
        return ExtendedBody(B, C, np.zeros((0, 3)), special="plane")
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
    kept = prune_halfplanes(raw, B.witness)
    return ExtendedBody(B, C, np.array([(*h.normal, h.offset) for h in kept]).reshape(-1, 3))


def extend_bodies(bodies, C: Body2, resolution: int = EXT_RESOLUTION) -> list:
    """e(B) for each body of a list (None: the empty set); exact, in one
    batch, for every B = C cut by H_1, ..., H_m: the list of _extend_batch
    on the list's cuts_beyond_all pass."""
    return _extend_batch(bodies, C, cuts_beyond_all(bodies, C), resolution)[0]


def _extend_batch(bodies, C: Body2, extra, resolution: int = EXT_RESOLUTION) -> tuple:
    """(e(B) per body, the batch's kept rows, their (K + 1,) level bounds)
    for bodies whose cuts beyond C are given as extra[k]: cuts_beyond's
    (m, 3) rows, or None for the empty set (B None) and for a body not cut
    from C.  The kept rows of body k are kept_rows[bounds[k]:bounds[k + 1]],
    its e(B)'s rows (none for a body built otherwise).

    The relative boundary of B in C is the chords of C on the lines of the
    H_j (chord_ends, searched B.window_half about the foot of B's witness),
    each clipped by B's other cuts.  e(B) is the cuts with a non-empty part
    plus, at each part end on the boundary of C, the half-planes of C's
    constraints active there (any other cut of B active there has a part or
    is implied by C's), pruned.  Every body's half-planes are pruned in one
    call of geometry.irredundant, with prune_halfplanes' rule (the cuts
    first, then the ends' half-planes in order, for its ties).  An end on
    the window adds nothing; no part at all gives the whole plane.  Other
    bodies go to _extend_sampled, whose containment test raises
    GeometryError for a half-plane body outside C.  One pass over the
    bodies collects the rows and each row's body, witness and window."""
    out, rows, lines, owner, centers, halves = [None] * len(bodies), {}, [], [], [], []
    for k, (B, cut) in enumerate(zip(bodies, extra)):
        if B is None:
            out[k] = ExtendedBody(None, C, np.zeros((0, 3)), special="empty")
        elif cut is None:
            out[k] = _extend_sampled(B, C, resolution)
        else:
            rows[k] = slice(len(owner), len(owner) + len(cut))
            lines.append(cut)
            owner += [k] * len(cut)
            centers += [B.witness] * len(cut)
            halves += [B.window_half] * len(cut)
    if not rows:
        return out, np.zeros((0, 3)), np.zeros(len(bodies) + 1, dtype=np.intp)
    lines = np.concatenate(lines)
    table = CutTable(normals=lines[:, :2], offsets=lines[:, 2])
    ends, on_c, meets, _ = chord_ends(C, table, centers, halves)
    lo, hi = np.zeros(len(owner)), np.ones(len(owner))
    for k, r in rows.items():
        if r.stop - r.start > 1:
            lo[r], hi[r] = chord_parts(ends[r], bodies[k].cut_table)
    owner = np.array(owner, dtype=np.intp)
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
    bounds = np.searchsorted(level[kept], np.arange(len(bodies) + 1))
    raw = np.bincount(level, minlength=len(bodies))
    kept_rows = np.column_stack([normals[kept], offsets[kept]])
    for k in rows:
        out[k] = (ExtendedBody(bodies[k], C, kept_rows[bounds[k]:bounds[k + 1]]) if raw[k]
                  else ExtendedBody(bodies[k], C, np.zeros((0, 3)), special="plane"))
    return out, kept_rows, bounds


def extend_body(B: Optional[Body2], C: Body2, resolution: int = EXT_RESOLUTION) -> ExtendedBody:
    """e(B) by extend_bodies; resolution reaches only the sampled fallback."""
    return extend_bodies([B], C, resolution)[0]


# ---------------------------------------------------------------------------
# function extension

@dataclass
class ExtensionOperator:
    """Per-level extension of a nested family.

    The first extended(k) builds every level in one _extend_batch call
    from the family's own rows beyond the ambient (LevelFamily._extra_cuts,
    the pass validate_nesting reads too) and keeps the batch's kept rows
    and level bounds, which level_table scatters.
    The searches (covering_index_many, first_level) run one
    first_row_level lower bound over the padded (K, m, 3) table of the
    levels' rows, which assumes nested levels (the family's
    validate_nesting), so that the extended bodies grow with k.
    """

    family: LevelFamily
    _cache: dict = field(default_factory=dict)
    _kept: tuple = field(default=(), repr=False)

    def extended(self, k: int) -> ExtendedBody:
        if k not in self._cache:
            fam = self.family
            exts, rows, bounds = _extend_batch(fam.bodies, fam.ambient, fam._extra_cuts)
            self._kept = (rows, bounds)
            self._cache.update(enumerate(exts))
        return self._cache[k]

    @cached_property
    def level_table(self) -> np.ndarray:
        """The row_table of every level's rows, built once after the batch
        (_extend_batch): one scatter of its kept rows at their levels and
        places (level k's rows lie between its bounds), then the levels it
        did not build from rows one at a time, an empty level as one row
        every point violates and a sampled level's own rows."""
        self.extended(0)
        rows, bounds = self._kept
        size = np.diff(bounds)
        other = [k for k, e in enumerate(self.family._extra_cuts) if e is None]
        cols = np.zeros((max([1, size.max(initial=0)] + [len(self._cache[k].rows) for k in other]),
                         3, len(size)))
        cols[:, 2] = np.inf
        level = np.repeat(np.arange(len(size)), size)
        cols[np.arange(len(level)) - bounds[level], :, level] = rows
        for k in other:
            e = self._cache[k]
            cols[:len(e.rows), :, k] = e.rows
            if e.special == "empty":
                cols[0, 2, k] = -np.inf
        return cols.transpose(2, 0, 1)

    def first_level(self, pts: np.ndarray, inside) -> np.ndarray:
        """Per point, the smallest k with inside(margin in e(B_k)) true, or
        len(family) where no level passes: first_row_level over
        level_table, right where the extended bodies grow with k (nested
        levels)."""
        return first_row_level(self.level_table, pts, inside)

    def covering_index_many(self, pts: np.ndarray) -> np.ndarray:
        """Smallest k with the point in e(B_k) (margin <= CONTAIN_TOL).

        Every level is built up front, then first_level searches each
        point's index in the level table (nested levels assumed).
        CoveringError names the first point that no level contains.
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
        """One ambient contains_many call splits the points.  On the
        ambient the value is the family's search (LevelFamily.eval_on, so
        LevelFamily.eval_many's value bit for bit); off it, the smallest
        level whose extended body holds the point with margin < -INT_MARGIN
        (the top level where none does), by the operator's first_level.
        Both assume nested levels; the first off-body point builds them."""
        pts = as_points(pts)
        out = np.empty(pts.shape[0])
        inside = self.family.ambient.contains_many(pts)
        if inside.any():
            out[inside] = self.family.eval_on(pts[inside])
        rest = ~inside
        if rest.any():
            k = self.operator.first_level(pts[rest], lambda m: m < -INT_MARGIN)
            out[rest] = self.family.levels[np.minimum(k, len(self.family) - 1)]
        return out


_REGULARITY = {"UC_EXTENDABLE": "continuous", "C_EXTENDABLE": "continuous",
               "QC_EXTENDABLE": "usc-only", "NOT_QC_EXTENDABLE": "unsupported"}


def ambient_regularity(C: Body2) -> str:
    """Extension grade the ambient body supports, read from characterize's
    class: 'continuous' for rotund bodies without asymptotic directions,
    'usc-only' without rotundity, 'unsupported' with an asymptotic
    direction (no quasiconvex extension is guaranteed at all).
    """
    return _REGULARITY[characterize(C).extendability_class]


def extend_function(fam: LevelFamily, validate: bool = True,
                    tol: float = 1e-7) -> ExtensionResult:
    """Extend a nested level family on its ambient body to the plane.

    The off-body rule rounds up to the smallest level whose extended body
    contains the point in its interior; this keeps every sublevel set
    exactly convex for a finite family (the family's own nesting supplies
    the strict containment the construction needs).  validate runs
    LevelFamily.validate_nesting at tol first: exact up to tol within each
    level's window for levels cut from the ambient by half-planes,
    from boundary samples for other levels.
    """
    if validate:
        fam.validate_nesting(tol=tol)
    reg = ambient_regularity(fam.ambient)
    op = ExtensionOperator(fam)
    return ExtensionResult(family=fam, operator=op, regularity=reg)


# ---------------------------------------------------------------------------
# diagnostics used by the operator contracts

def restriction_hausdorff(ext: ExtendedBody) -> float:
    """Hausdorff distance between e(B) intersected with the ambient C and B.

    Exact when B and C are polygons (Body2.is_polygon), which makes the
    meet one too: the meet's vertices are one box-free halfplane_chain of
    C's cuts and e(B)'s rows about B's witness, and the distance is the
    largest distance from either polygon's vertices to the other polygon
    (for convex polygons the farthest point lies at a vertex; Atallah, IPL
    17, 1983).  Otherwise the meet is a Body2 and each side takes 256
    boundary samples, so the value can fall short of the distance by up
    to the sample spacing.
    """
    if ext.special is not None:
        raise ExtensionError("special extensions have no restriction")
    B, C = ext.source, ext.ambient
    if B.is_polygon and C.is_polygon:
        normals = np.concatenate([C.cut_table.normals, ext.rows[:, :2]])
        offsets = np.concatenate([C.cut_table.offsets, ext.rows[:, 2]])
        meet, _ = halfplane_chain(normals, offsets, B.witness)
        poly = B.chain[0]
        return float(max(polygon_distance(poly, meet).max(), polygon_distance(meet, poly).max()))
    meet = Body2(C.base, C.cuts + tuple(ext.halfplanes), name="e_cap_C")
    a = meet.boundary_samples(256)
    d1 = float(np.max(distance_many(B, a))) if len(a) else 0.0
    b = B.boundary_samples(256)
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
