"""The cone-hull extension operator and the full quasiconvex extension.

extend_body realizes e(B) as a pruned list of supporting half-planes
collected along the relative boundary of B in the ambient body;
extend_function turns a nested level family on the ambient into a
quasiconvex function on the whole plane.  A family whose bodies are each
the ambient clipped by one more half-plane is extended in one batch from
its chord ends (extend_chords); the smallest-level searches bisect one
padded table of every level's half-planes.
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
    active_normals,
    along,
    as_point,
    as_points,
    chord_ends,
    clip_extra_cuts,
    distance_many,
    find_asymptotic_direction,
    golden_min,
    is_rotund,
    norm,
    prune_halfplanes,
    relative_boundary,
    supporting_normals,
)
from .levelset import LevelFamily, QCFunction

#: default boundary sampling resolution for the operator
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

    def to_body(self) -> Body2:
        if self.special is not None:
            raise ExtensionError(f"special extension ({self.special}) is not a body")
        return Body2.from_halfplanes(self.halfplanes, name="extended")


def extend_body(B: Optional[Body2], C: Body2, resolution: int = EXT_RESOLUTION) -> ExtendedBody:
    """The extension operator: intersect the supporting half-planes of B
    taken at sampled points of its relative boundary in C.

    Straight stretches contribute a single half-plane; interval endpoints
    (where the relative boundary reaches the ambient boundary, and corner
    points) always enter with their full normal fan.
    """
    if B is None:
        return ExtendedBody(None, C, (), special="empty")
    rel = relative_boundary(B, C)
    if rel.is_empty():
        return ExtendedBody(B, C, (), special="plane")
    pieces = B.pieces()
    raw = []

    def add(normal: np.ndarray, y: np.ndarray):
        raw.append(HalfPlane(normal, float(np.asarray(normal) @ y)))

    lengths = []
    for (idx, t0, t1) in rel.intervals:
        pc = pieces[idx]
        if t1 - t0 <= 1e-12:
            lengths.append(0.0)
        else:
            lengths.append(max(norm(np.asarray(pc.point(t1)) - np.asarray(pc.point(t0))), 1e-12))
    total = sum(lengths) or 1.0
    for (iv, ln) in zip(rel.intervals, lengths):
        idx, t0, t1 = iv
        pc = pieces[idx]
        for t_end in {t0, t1}:
            y = np.asarray(pc.point(t_end))
            try:
                fan = supporting_normals(B, y)
                for n in fan.extremes():
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
        pts = pc.point(ts)
        nrm = pc.normal(ts)
        offs = np.einsum("ij,ij->i", np.atleast_2d(nrm), np.atleast_2d(pts))
        for n, o in zip(np.atleast_2d(nrm), offs):
            raw.append(HalfPlane(n, float(o)))
    pruned = prune_halfplanes(raw, B.witness)
    return ExtendedBody(B, C, tuple(pruned), special=None)


def extend_chords(bodies: list, cuts: list, C: Body2) -> list:
    """e(B_k) for bodies B_k = C clipped by the one half-plane cuts[k], all
    in one batch.

    The relative boundary of such a B_k is the chord that the cut line
    cuts from C, so e(B_k) is the cut plus the supporting half-planes of C
    at the chord's ends on the boundary of C, one per constraint of C
    active there, pruned.  Each line is searched B_k.window_half to either
    side of the foot of B_k's witness; an end on that window adds nothing,
    and a line that misses the interior of C there gives the whole plane.
    extend_body samples B_k's boundary in a window box about the witness
    instead, which cuts short a chord that leaves the box, so on far
    chords of unbounded ambients it can miss an end (or the whole chord,
    giving the plane) that this search finds.
    """
    ends, on_c, meets = chord_ends(C, cuts, [B.witness for B in bodies],
                                   [B.window_half for B in bodies])
    fans = iter(active_normals(C, ends[on_c]))
    out = []
    for B, hp, y, on, hit in zip(bodies, cuts, ends, on_c, meets):
        if not hit:
            out.append(ExtendedBody(B, C, (), special="plane"))
            continue
        raw = [hp]
        for yk in y[on]:
            raw.extend(HalfPlane(nrm, float(nrm @ yk)) for nrm in next(fans))
        out.append(ExtendedBody(B, C, tuple(prune_halfplanes(raw, B.witness))))
    return out


# ---------------------------------------------------------------------------
# function extension

def _single_cuts(fam: LevelFamily):
    """The one extra cut of each body when every body is the ambient
    clipped by one half-plane, else None."""
    cuts = []
    for B in fam.bodies:
        extra = None if B is None else clip_extra_cuts(B, fam.ambient)
        if extra is None or len(extra) != 1:
            return None
        cuts.append(extra[0])
    return cuts


@dataclass
class ExtensionOperator:
    """Per-level extension of a nested family.

    When every body is the ambient clipped by one half-plane, the first
    extended(k) builds all levels in one batch (extend_chords); any other
    family builds extend_body(B_k) per requested level.  The searches
    (covering_index_many, first_level) build every level up front and
    bisect one padded (K, m, 3) table of the levels' half-planes.
    """

    family: LevelFamily
    resolution: int = EXT_RESOLUTION
    _cache: dict = field(default_factory=dict)
    _table: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def extended(self, k: int) -> ExtendedBody:
        if k not in self._cache:
            fam = self.family
            cuts = _single_cuts(fam)
            if cuts is None:
                self._cache[k] = extend_body(fam.bodies[k], fam.ambient, self.resolution)
            else:
                self._cache.update(enumerate(extend_chords(fam.bodies, cuts, fam.ambient)))
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

        Every level is built up front (in one batch for a family of
        single-cut clips of the ambient), then first_level bisects each
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

    @property
    def extended(self) -> list:
        return [self.operator.extended(k) for k in range(len(self.family))]

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Family value on the ambient; off it, the smallest level whose
        extended body holds the point with margin < -INT_MARGIN (the top
        level where none does), from the operator's first_level bisection.
        The first off-body point builds every level up front, in one batch
        for a family of single-cut clips of the ambient."""
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

    def eval_one(self, p) -> float:
        return float(self.eval_many(as_point(p)[None, :])[0])

    def as_qcfunction(self) -> QCFunction:
        return QCFunction(domain=None, eval_many=self.eval_many,
                          meta={"kind": "extension", "regularity": self.regularity})


def ambient_regularity(C: Body2) -> str:
    """Extension grade the ambient body supports.

    'continuous' for rotund bodies without asymptotic directions,
    'usc-only' without rotundity, 'unsupported' with an asymptotic
    direction (no quasiconvex extension is guaranteed at all).
    """
    if find_asymptotic_direction(C) is not None:
        return "unsupported"
    return "continuous" if is_rotund(C) else "usc-only"


def extend_function(fam: LevelFamily, resolution: int = EXT_RESOLUTION,
                    validate: bool = True, tol: float = 1e-7) -> ExtensionResult:
    """Extend a nested level family on its ambient body to the plane.

    The off-body rule rounds up to the smallest level whose extended body
    contains the point in its interior; this keeps every sublevel set
    exactly convex for a finite family (the family's own nesting supplies
    the strict containment the construction needs).
    """
    if validate:
        fam.validate_nesting(tol=tol)
    reg = ambient_regularity(fam.ambient)
    op = ExtensionOperator(fam, resolution=resolution)
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


def segment_meets_body(x, y, B: Body2, samples: int = 512) -> bool:
    """Whether the closed segment [x, y] intersects B (sampled + refined)."""
    x, y = as_point(x), as_point(y)
    f = along(B.margin_many, lambda t: x + np.multiply.outer(t, y - x))
    ts = np.linspace(0.0, 1.0, samples)
    m = f(ts)
    if (m <= 1e-9).any():
        return True
    j = int(np.argmin(m))
    lo, hi = max(j - 1, 0), min(j + 1, samples - 1)
    _, v = golden_min(f, ts[lo], ts[hi], iters=60)
    return bool(v <= 1e-9)
