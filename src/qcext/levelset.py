"""Level-set representation of quasiconvex functions and diagnostics.

A quasiconvex function is carried either as a finite nested level family
(step evaluation) or as a vectorized oracle; the constructors here build
the explicit staircase and boundary-ramp functions used by the
counterexample generators, plus empirical continuity/Lipschitz checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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
    distance_many,
    golden_min,
    norm,
    relative_boundary,
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

@dataclass
class LevelFamily:
    """Finite increasing family (alpha_k, B_k) of nested convex bodies.

    Represents the sublevel structure of a quasiconvex function on the
    ambient body: B_k = [f <= alpha_k].
    """

    levels: np.ndarray
    bodies: list
    ambient: Body2
    strict: bool = False
    sentinel: float = SENTINEL

    def __post_init__(self):
        self.levels = np.asarray(self.levels, dtype=float)
        if len(self.levels) != len(self.bodies) or len(self.bodies) == 0:
            raise LevelSetError("levels and bodies must align and be nonempty")
        if np.any(np.diff(self.levels) <= 0):
            raise LevelSetError("levels must be strictly increasing")

    def __len__(self):
        return len(self.bodies)

    def validate_nesting(self, n: int = 128, tol: float = 1e-7):
        """Sampled nestedness check; strict margin when the flag is set."""
        for k in range(len(self.bodies) - 1):
            pts = self.bodies[k].boundary_samples(n)
            inner = self.bodies[k + 1].contains_many(pts, tol)
            if not inner.all():
                raise LevelSetError(f"body {k} is not contained in body {k + 1}")
            if self.strict:
                margins = self.bodies[k + 1].margin_many(pts)
                amb = self.ambient.margin_many(pts)
                interior_needed = amb < -tol  # relative interior in the ambient
                if np.any(margins[interior_needed] > -1e-12):
                    raise LevelSetError(f"body {k} not strictly inside body {k + 1}")
        return True

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        pts = as_points(pts)
        out = np.full(pts.shape[0], self.sentinel)
        unset = np.ones(pts.shape[0], dtype=bool)
        for alpha, body in zip(self.levels, self.bodies):
            if not unset.any():
                break
            hit = unset & body.contains_many(pts)
            out[hit] = alpha
            unset &= ~hit
        return out

    def max_gap(self) -> float:
        return float(np.max(np.diff(self.levels))) if len(self.levels) > 1 else 0.0


def eval_levels(fam: LevelFamily, x) -> float:
    """Smallest listed level whose body contains x; sentinel if none."""
    x = as_point(x)
    if not fam.ambient.contains_many(x[None, :])[0]:
        raise LevelSetError("point lies outside the ambient body")
    return float(fam.eval_many(x[None, :])[0])


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
    is the witness ball center +- SAMPLE_RADIUS_MULT * clearance.
    """
    if isinstance(domain, Body2):
        if window is None:
            c, r = domain.witness, SAMPLE_RADIUS_MULT * domain.clearance
            window = (c[0] - r, c[0] + r, c[1] - r, c[1] + r)
        out = []
        got = 0
        m = max(4 * n, 64)
        for _ in range(60):
            cand = np.column_stack([rng.uniform(window[0], window[1], m),
                                    rng.uniform(window[2], window[3], m)])
            keep = cand[domain.contains_many(cand)]
            if len(keep):
                out.append(keep)
                got += len(keep)
            if got >= n:
                break
            m = min(2 * m, 2_000_000)  # thin bodies need bigger batches
        if got < n:
            raise LevelSetError("rejection sampling failed; window misses the body")
        return np.vstack(out)[:n]
    xmin, xmax, ymin, ymax = domain
    return np.column_stack([rng.uniform(xmin, xmax, n), rng.uniform(ymin, ymax, n)])


# ---------------------------------------------------------------------------
# constructors

def staircase_qc(ambient: Body2, bodies: Sequence[Body2], levels: Sequence[float],
                 gaps: Sequence[float], check_gaps: bool = True,
                 gap_samples: int = 96) -> QCFunction:
    """1-Lipschitz quasiconvex staircase with [f <= levels[k]] = bodies[k].

    After leaving body k the value ramps with the distance to it for gaps[k],
    then plateaus at levels[k+1]; past the last body the ramp settles on the
    constant levels[-1] + gaps[-1].  Requires d(C \\ D_{k+1}, D_k) >= gaps[k].
    """
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
            pts = arc.sample(gap_samples)
            if len(pts) == 0:
                continue
            d = distance_many(bodies[k], pts)
            if float(np.min(d)) < gaps[k] * (1 - 1e-6) - 1e-9:
                raise LevelSetError(
                    f"gap violation between bodies {k} and {k + 1}: "
                    f"measured {float(np.min(d)):.3g} < required {gaps[k]:.3g}")

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = as_points(pts)
        out = np.empty(pts.shape[0])
        unset = np.ones(pts.shape[0], dtype=bool)
        for k, body in enumerate(bodies):
            inside = body.contains_many(pts)
            zone = unset & inside
            if zone.any():
                if k == 0:
                    out[zone] = levels[0]
                else:
                    d = distance_many(bodies[k - 1], pts[zone])
                    out[zone] = levels[k - 1] + np.minimum(d, gaps[k - 1])
                unset &= ~zone
        if unset.any():
            d = distance_many(bodies[-1], pts[unset])
            out[unset] = levels[-1] + np.minimum(d, gaps[-1])
        return out

    fam = LevelFamily(levels, bodies, ambient)
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
        hv = pts @ h - h_offset
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
    Pinv = np.linalg.inv(P)
    cuts = [HalfPlane.from_any(P.T @ hp.normal, hp.offset) for hp in body.cuts]
    if isinstance(body.base, PlaneBase):
        return Body2(PlaneBase(), cuts)
    if isinstance(body.base, BallBase):
        lam = math.sqrt(lam2)
        return Body2(BallBase(Pinv @ body.base.center, body.base.radius / lam), cuts)
    if isinstance(body.base, EpigraphBase):
        eb = body.base
        return Body2(EpigraphBase(eb.profile, Pinv @ eb.M, Pinv @ eb.shift), cuts)
    return None


def extend_line_constant(f: Callable[[np.ndarray], np.ndarray], interval):
    """Extend a scalar function on [a, b] to the line, constant on each side."""
    a, b = float(interval[0]), float(interval[1])
    if b < a:
        raise LevelSetError("empty interval")
    fa = float(np.asarray(f(np.array([a])))[0])
    fb = float(np.asarray(f(np.array([b])))[0])

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        inner = np.asarray(f(np.clip(t, a, b)), dtype=float)
        return np.where(t < a, fa, np.where(t > b, fb, inner))

    return evaluate


def mcshane_extend(f: QCFunction, L: Optional[float] = None,
                   boundary_samples: int = 512, grid: int = 24,
                   refine_iters: int = 60) -> Callable[[np.ndarray], np.ndarray]:
    """Largest L-Lipschitz extension of a convex f: inf over C of f(u) + L|x-u|.

    Evaluated by minimizing over boundary and interior grid samples of the
    domain with golden-section refinement along the boundary.
    """
    if f.domain is None:
        raise LevelSetError("mcshane_extend needs a function with a body domain")
    L = float(L if L is not None else f.lipschitz)
    C = f.domain
    pieces = C.pieces()
    bpts = C.boundary_samples(boundary_samples)
    c, r = C.witness, max(C.clearance * SAMPLE_RADIUS_MULT, 1.0)
    gx = np.linspace(c[0] - r, c[0] + r, grid)
    gy = np.linspace(c[1] - r, c[1] + r, grid)
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
                    _, v = golden_min(cost, lo, hi, iters=refine_iters)
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
                      seed: int = 0, window=None, rng=None) -> QCReport:
    """Sampled quasiconvexity test on segment triples.

    Flags f(lam x + (1-lam) y) > max(f(x), f(y)) + tol; reports worst
    violation and its witness.  Sentinel values compare like any float.
    """
    if n_triples < 1:
        raise LevelSetError("need at least one triple")
    rng = np.random.default_rng(seed) if rng is None else rng
    xs = sample_domain(domain, n_triples, rng, window)
    ys = sample_domain(domain, n_triples, rng, window)
    lam = rng.uniform(0.0, 1.0, n_triples)
    mids = lam[:, None] * xs + (1 - lam[:, None]) * ys
    fx = np.asarray(eval_many(xs), dtype=float)
    fy = np.asarray(eval_many(ys), dtype=float)
    fm = np.asarray(eval_many(mids), dtype=float)
    gap = fm - np.maximum(fx, fy)
    bad = gap > tol
    worst = float(np.max(gap)) if len(gap) else -math.inf
    witness = None
    if bad.any():
        i = int(np.argmax(gap))
        witness = (xs[i], ys[i], float(lam[i]), float(fx[i]), float(fy[i]), float(fm[i]))
    return QCReport(checked=n_triples, violations=int(bad.sum()),
                    worst=worst, witness=witness)


def _sample_pairs(eval_many, domain, pair_samples, rng, window, local_scale=1e-3):
    xs = sample_domain(domain, pair_samples, rng, window)
    ys = sample_domain(domain, pair_samples, rng, window)
    # local pairs catch the short-range slope; project back into the domain
    span = float(np.max(np.abs(ys - xs))) or 1.0
    disp = rng.normal(0.0, local_scale * span, xs.shape)
    zs = xs + disp
    if isinstance(domain, Body2):
        keep = domain.contains_many(zs)
        zs[~keep] = xs[~keep]
    a = np.vstack([xs, xs])
    b = np.vstack([ys, zs])
    d = np.linalg.norm(a - b, axis=-1)
    df = np.abs(np.asarray(eval_many(a)) - np.asarray(eval_many(b)))
    good = d > 1e-12
    return d[good], df[good]


def modulus_estimate(eval_many, domain, pair_samples: int, seed: int = 0,
                     window=None, bins: int = 32, rng=None) -> ModulusTable:
    """Empirical lower envelope of the minimal modulus of continuity."""
    rng = np.random.default_rng(seed) if rng is None else rng
    d, df = _sample_pairs(eval_many, domain, pair_samples, rng, window)
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
                       window=None, rng=None) -> float:
    """Max sampled difference quotient (a lower bound on the true constant)."""
    rng = np.random.default_rng(seed) if rng is None else rng
    d, df = _sample_pairs(eval_many, domain, pair_samples, rng, window)
    return float(np.max(df / d)) if len(d) else 0.0
