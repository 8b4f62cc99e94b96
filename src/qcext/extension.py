"""The cone-hull extension operator and the full quasiconvex extension.

extend_body realizes e(B) as a pruned list of supporting half-planes
collected along the relative boundary of B in the ambient body;
extend_function turns a nested level family on the ambient into a
quasiconvex function on the whole plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import (
    Body2,
    GeometryError,
    HalfPlane,
    Segment,
    along,
    as_point,
    as_points,
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

    def margin_many(self, pts: np.ndarray) -> np.ndarray:
        pts = as_points(pts)
        if self.special == "empty":
            return np.full(pts.shape[0], np.inf)
        if self.special == "plane":
            return np.full(pts.shape[0], -np.inf)
        m = np.full(pts.shape[0], -np.inf)
        for hp in self.halfplanes:
            m = np.maximum(m, hp.value(pts))
        return m

    def contains_many(self, pts, tol: float = 1e-9) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# function extension

@dataclass
class ExtensionOperator:
    """Lazy per-level extension of a nested family."""

    family: LevelFamily
    resolution: int = EXT_RESOLUTION
    _cache: dict = field(default_factory=dict)

    def extended(self, k: int) -> ExtendedBody:
        if k not in self._cache:
            body = self.family.bodies[k]
            self._cache[k] = extend_body(body, self.family.ambient, self.resolution)
        return self._cache[k]

    def covering_index_many(self, pts: np.ndarray) -> np.ndarray:
        """Smallest k with the point in e(B_k), by shared binary search.

        Monotonicity of the extended bodies makes per-point bisection valid.
        A ladder pre-pass probes levels 0, 1, 3, 7, ... for all points, then
        each point bisects its own bracket.  Every level any point probes
        is built and cached, so points spread over many levels build most
        levels up to the largest index: all 100 of a 100-level chord family
        over 2,000 box points, 8,733 of 10,201 for 10,000 points.
        """
        pts = as_points(pts)
        K = len(self.family) - 1
        top = self.extended(K)
        ok = top.contains_many(pts)
        if not ok.all():
            i = int(np.argmin(ok))
            raise CoveringError(
                f"point {pts[i]} not covered by any extended body up to level "
                f"{self.family.levels[K]}", last_level=float(self.family.levels[K]))
        lo = np.zeros(pts.shape[0], dtype=int)   # smallest candidate
        hi = np.full(pts.shape[0], K, dtype=int)  # known member
        in_b0 = self.extended(0).contains_many(pts)
        hi[in_b0] = 0
        ladder = [0]
        step = 1
        while ladder[-1] < K:
            ladder.append(min(ladder[-1] + step, K))
            step *= 2
        for k in ladder[1:]:
            unresolved = lo < hi
            if not unresolved.any():
                break
            member = self.extended(int(k)).contains_many(pts)
            hi = np.where(unresolved & member & (hi > k), k, hi)
            lo = np.where(unresolved & ~member & (lo <= k), k + 1, lo)
        while True:
            active = lo < hi
            if not active.any():
                break
            mid = (lo + hi) // 2
            for k in np.unique(mid[active]):
                sel = active & (mid == k)
                member = self.extended(int(k)).contains_many(pts[sel])
                hi_sel = hi[sel]
                lo_sel = lo[sel]
                hi_sel[member] = k
                lo_sel[~member] = k + 1
                hi[sel] = hi_sel
                lo[sel] = lo_sel
        return hi

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
        pts = as_points(pts)
        out = np.empty(pts.shape[0])
        amb = self.family.ambient
        inside = amb.contains_many(pts)
        if inside.any():
            out[inside] = self.family.eval_many(pts[inside])
        rest = ~inside
        if rest.any():
            sub = pts[rest]
            vals = np.full(sub.shape[0], self.family.levels[-1])
            unset = np.ones(sub.shape[0], dtype=bool)
            for k in range(len(self.family)):
                if not unset.any():
                    break
                hit = unset & self.operator.extended(k).interior_many(sub)
                vals[hit] = self.family.levels[k]
                unset &= ~hit
            out[rest] = vals
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
