"""Seeded property suites binding the library invariants into check runs.

Each suite executes the invariants of one module on sampled instances and
reports failures with (minimized) witnesses; identical seed and budget
give an identical report hash.  The check_* functions are the single
implementation of the paper's contract checks: the acceptance criteria
(qcext.acceptance, the authority) call them with pinned seeds and sizes,
and the extension and counterexamples suites call them at budget size.
Each returns (checked, failures, detail).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import counterexamples as cx
from . import extension as ext
from . import geometry as geo
from . import levelset as ls
from .geometry import Body2, ConvexHull, GeometryError
from .serialize import content_hash

DEFAULT_BUDGET = {
    "geometric_cases": 10_000,   # samples per geometric predicate
    "qc_triples": 100_000,       # segment triples for quasiconvexity
    "grid": 1024,                # continuity scan resolution (grid x grid)
    "bodies": 24,                # fuzzed bodies per geometry case
    "pairs": 60,                 # polygon-in-polygon instances
}

SMALL_BUDGET = {
    "geometric_cases": 400,
    "qc_triples": 4_000,
    "grid": 128,
    "bodies": 8,
    "pairs": 10,
}

SUITES = ["geometry", "levelset", "extension", "counterexamples", "end_to_end"]


class VerifyError(ValueError):
    pass


@dataclass
class CaseResult:
    name: str
    checked: int
    failures: list
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class SuiteReport:
    suite: str
    seed: int
    cases: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def failures(self) -> int:
        return sum(len(c.failures) for c in self.cases)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "cases": [{"name": c.name, "checked": c.checked,
                       "failures": c.failures} for c in self.cases],
            "failures": self.failures,
            "wall_time": self.wall_time,
            "content_hash": self.content_hash(),
        }

    def content_hash(self) -> str:
        payload = {"suite": self.suite, "seed": self.seed,
                   "cases": [{"name": c.name, "checked": c.checked,
                              "failures": c.failures} for c in self.cases]}
        return content_hash(payload)

    def summary(self) -> str:
        lines = [f"suite {self.suite} seed {self.seed}: "
                 f"{'PASS' if self.passed else 'FAIL'} "
                 f"({len(self.cases)} cases, {self.failures} failures, "
                 f"{self.wall_time:.1f}s)"]
        for c in self.cases:
            mark = "ok " if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name} ({c.checked} checked)")
        return "\n".join(lines)


def _rng(seed: int, case_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, case_index]))


# ---------------------------------------------------------------------------
# fuzzing

def fuzz_bodies(seed: int, n: int) -> list:
    """Random valid bodies: Gaussian-hull polygons, half-plane intersections,
    randomized analytic profiles and balls."""
    rng = np.random.default_rng(seed)
    out = []
    makers = [_fuzz_polygon, _fuzz_halfplanes, _fuzz_analytic, _fuzz_ball]
    tries = 0
    while len(out) < n and tries < 50 * n:
        tries += 1
        maker = makers[int(rng.integers(len(makers)))]
        try:
            body = maker(rng)
            body.pieces()
            out.append(body)
        except GeometryError:
            continue
    if len(out) < n:
        raise VerifyError("body fuzzing failed to produce enough valid bodies")
    return out


def _fuzz_polygon(rng) -> Body2:
    m = int(rng.integers(5, 24))
    pts = rng.normal(0.0, 2.0, (m, 2)) + rng.normal(0.0, 3.0, 2)
    hull = ConvexHull(pts)
    verts = pts[hull.vertices]
    return Body2.from_polychain(verts, name="fuzz_polygon", collinear_ok=True)


def _fuzz_halfplanes(rng) -> Body2:
    k = int(rng.integers(3, 12))
    center = rng.normal(0.0, 2.0, 2)
    hps = []
    for _ in range(k):
        th = rng.uniform(0, 2 * math.pi)
        nvec = np.array([math.cos(th), math.sin(th)])
        hps.append(geo.HalfPlane(nvec, float(nvec @ center) + rng.uniform(0.5, 4.0)))
    return Body2.from_halfplanes(hps, name="fuzz_halfplanes")


def _fuzz_analytic(rng) -> Body2:
    kind = rng.integers(3)
    th = rng.uniform(0, 2 * math.pi)
    lam = rng.uniform(0.5, 2.0)
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    if rng.integers(2):
        R = R @ np.diag([1.0, -1.0])
    shift = rng.normal(0.0, 2.0, 2)
    transform = np.column_stack([lam * R, shift])
    if kind == 0:
        params = {"a": float(rng.uniform(0.2, 3.0)), "c": float(rng.uniform(-2, 0))}
        return Body2.epigraph("parabola", params, transform, name="fuzz_parabola")
    if kind == 1:
        return Body2.epigraph("cosh", {"c": float(rng.uniform(-3, -1))},
                              transform, name="fuzz_cosh")
    coeffs = [float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
              float(rng.uniform(0.1, 1.0)), 0.0, float(rng.uniform(0.0, 0.2))]
    return Body2.epigraph("custom_poly", {"coeffs": coeffs}, transform,
                          name="fuzz_poly")


def _fuzz_ball(rng) -> Body2:
    body = Body2.ball(rng.normal(0.0, 3.0, 2), float(rng.uniform(0.5, 3.0)),
                      name="fuzz_ball")
    if rng.integers(2):
        th = rng.uniform(0, 2 * math.pi)
        nvec = np.array([math.cos(th), math.sin(th)])
        off = float(nvec @ body.base.center) + rng.uniform(-0.5 * body.base.radius,
                                                           0.5 * body.base.radius)
        body = body.clip([geo.HalfPlane(nvec, off)], name="fuzz_cut_ball")
    return body


def _sample_near(body: Body2, n: int, rng, spread: float = 4.0) -> np.ndarray:
    c, r = body.witness, max(body.clearance, 0.5)
    return c + rng.normal(0.0, spread * r, (n, 2))


def minimize_qc_witness(eval_many, witness, steps: int = 40):
    """Shrink a violating segment triple while it keeps violating."""
    x, y, lam, fx, fy, fm = witness
    x, y = np.asarray(x, float), np.asarray(y, float)

    def violated(a, b):
        m = lam * a + (1 - lam) * b
        vals = eval_many(np.vstack([a, b, m]))
        return vals[2] > max(vals[0], vals[1]) + 1e-12

    for _ in range(steps):
        shrunk = False
        for (a2, b2) in (((x + y) / 2, y), (x, (x + y) / 2)):
            if violated(a2, b2):
                x, y = a2, b2
                shrunk = True
                break
        if not shrunk:
            break
    m = lam * x + (1 - lam) * y
    vals = eval_many(np.vstack([x, y, m]))
    return {"x": x.tolist(), "y": y.tolist(), "lam": float(lam),
            "f_x": float(vals[0]), "f_y": float(vals[1]), "f_mid": float(vals[2])}


# ---------------------------------------------------------------------------
# geometry cases

def _case_project_idempotent(rng, budget):
    failures, checked = [], 0
    bodies = fuzz_bodies(int(rng.integers(1 << 31)), budget["bodies"])
    per = max(4, budget["geometric_cases"] // (4 * len(bodies)))
    for body in bodies:
        for p in _sample_near(body, per, rng):
            q, d = geo.project(p, body)
            _, d2 = geo.project(q, body)
            checked += 1
            if d2 > 1e-6 * max(1.0, d):
                failures.append({"body": body.name, "p": p.tolist(),
                                 "residual": d2})
    return checked, failures


def _case_support_inequality(rng, budget):
    failures, checked = [], 0
    bodies = fuzz_bodies(int(rng.integers(1 << 31)), budget["bodies"])
    for body in bodies:
        pts = ls.sample_domain(body, max(8, budget["geometric_cases"] // (8 * len(bodies))), rng)
        for _ in range(8):
            th = rng.uniform(0, 2 * math.pi)
            d = np.array([math.cos(th), math.sin(th)])
            s = geo.support(body, d)
            checked += 1
            if math.isfinite(s):
                worst = float(np.max(pts @ d))
                if worst > s + 1e-6 * max(1.0, abs(s)):
                    failures.append({"body": body.name, "dir": d.tolist(),
                                     "support": s, "witness_value": worst})
    return checked, failures


def _case_recession_bounded(rng, budget):
    failures, checked = [], 0
    for body in fuzz_bodies(int(rng.integers(1 << 31)), budget["bodies"]):
        cone = geo.recession_cone(body)
        checked += 1
        # membership cross-check: c + t v stays inside for recession dirs
        for v in cone.directions()[:2]:
            pt = body.witness + 1e4 * np.asarray(v)
            if not body.contains_many(pt[None, :], 1e-6)[0]:
                failures.append({"body": body.name, "dir": np.asarray(v).tolist(),
                                 "issue": "recession direction leaves the body"})
        if body.bounded != cone.is_trivial():
            failures.append({"body": body.name, "issue": "bounded flag mismatch"})
    return checked, failures


def _case_supporting_cone(rng, budget):
    failures, checked = [], 0
    bodies = fuzz_bodies(int(rng.integers(1 << 31)), budget["bodies"])
    for body in bodies:
        samples = body.boundary_samples(16)
        inner = ls.sample_domain(body, 32, rng)
        for x in samples[:: max(1, len(samples) // 6)]:
            try:
                kc = geo.supporting_cone(x, body)
            except GeometryError:
                continue
            checked += 1
            if not kc.contains_many(inner, 1e-6).all():
                failures.append({"body": body.name, "x": x.tolist(),
                                 "issue": "supporting cone misses body points"})
            # closure of the vertex cone agrees with the half-plane form
            try:
                cone = geo.cone_from(x, body)
            except GeometryError:
                continue
            bad = False
            for d in cone.directions():
                probe = np.asarray(x) + np.outer([0.5, 2.0, 8.0], d)
                if not kc.contains_many(probe, 1e-5).all():
                    failures.append({"body": body.name, "x": x.tolist(),
                                     "issue": "cone direction outside half-plane form"})
                    bad = True
                    break
            if bad:
                continue
            # converse: half-plane members near x point into the cone
            ths = rng.uniform(0, 2 * math.pi, 24)
            dirs = np.column_stack([np.cos(ths), np.sin(ths)])
            probes = np.asarray(x) + 0.5 * dirs
            members = kc.contains_many(probes, -1e-7)
            for dvec in dirs[members]:
                if not cone.contains_dir(dvec, 1e-4):
                    failures.append({"body": body.name, "x": x.tolist(),
                                     "issue": "half-plane form exceeds the cone"})
                    break
    return checked, failures


def _case_gamma(rng, budget):
    failures, checked = [], 0
    for body in fuzz_bodies(int(rng.integers(1 << 31)), budget["bodies"]):
        if geo.find_asymptotic_direction(body) is not None:
            continue
        spread = 8 * min(max(body.clearance, 0.5), 20.0)
        for _ in range(4):
            z = body.witness + rng.normal(0, spread, 2)
            if geo.contains(body, z, 1e-6):
                continue
            try:
                arc = geo.tangency_set(z, body)
            except GeometryError as e:
                failures.append({"body": body.name, "z": z.tolist(), "error": str(e)})
                continue
            checked += 1
            pts = arc.sample(16)
            if len(pts) == 0:
                failures.append({"body": body.name, "z": z.tolist(),
                                 "issue": "empty tangency set"})
            else:
                # contacts must be genuine boundary points; boundedness
                # beyond the working window cannot be certified by sampling
                bd = geo.boundary_distance_many(body, pts)
                scale = 1.0 + np.linalg.norm(pts, axis=1)
                if np.any(bd > 1e-4 * scale):
                    failures.append({"body": body.name, "z": z.tolist(),
                                     "issue": "tangency point off the boundary"})
    return checked, failures


def _case_supporting_cone_membership(rng, budget):
    # for asymptote-free bodies, x outside C lies in K(y, C) for boundary
    # points y away from the tangency hull
    failures, checked = [], 0
    for body in fuzz_bodies(int(rng.integers(1 << 31)), budget["bodies"]):
        if geo.find_asymptotic_direction(body) is not None:
            continue
        for _ in range(3):
            z = body.witness + rng.normal(0, 6 * max(body.clearance, 0.5), 2)
            if geo.contains(body, z, 1e-6):
                continue
            try:
                arc = geo.tangency_set(z, body)
                cone = geo.cone_from(z, body)
            except GeometryError:
                continue
            gpts = arc.sample(16)
            hull_extra = [np.asarray(z)]
            # a cone extreme whose contact lies beyond the window still spans
            # part of the true hull; close it with a far point on the ray
            for d in (cone.d1, cone.d2):
                dirs = (gpts - np.asarray(z))
                dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
                if not len(dirs) or float(np.max(dirs @ d)) < 1.0 - 1e-6:
                    hull_extra.append(np.asarray(z) + 1e9 * d)
            hull_pts = np.vstack([gpts, np.array(hull_extra)])
            for y in body.boundary_samples(24):
                if _in_hull(y, hull_pts, 1e-7):
                    continue
                try:
                    kc = geo.supporting_cone(y, body)
                except GeometryError:
                    continue
                checked += 1
                if not kc.contains_many(np.asarray(z)[None, :], 1e-6)[0]:
                    failures.append({"body": body.name, "z": np.asarray(z).tolist(),
                                     "y": np.asarray(y).tolist(),
                                     "issue": "supporting-cone membership failed"})
    return checked, failures


def _in_hull(p, pts, tol):
    from scipy.spatial import QhullError

    try:
        hull = ConvexHull(pts)
    except QhullError:
        return False
    eqs = hull.equations
    return bool(np.all(eqs[:, :2] @ np.asarray(p) + eqs[:, 2] <= tol))


def _case_bounded_sublevels(rng, budget):
    # a functional bounded below on an asymptote-free unbounded body attains
    # its infimum and has bounded sublevel sets
    failures, checked = [], 0
    for name in ("parabola", "cosh"):
        body = Body2.epigraph(name)
        for _ in range(4):
            th = rng.uniform(0, 2 * math.pi)
            h = np.array([math.cos(th), math.sin(th)])
            if not math.isfinite(geo.support(body, -h)):
                continue  # h unbounded below on the body
            checked += 1
            m_val, m_pt = geo.support_point(body, -h)
            m = -m_val
            if m_pt is None or not body.contains_many(m_pt[None, :], 1e-5)[0]:
                failures.append({"body": name, "h": h.tolist(),
                                 "issue": "infimum not attained on the body"})
                continue
            if abs(float(m_pt @ h) - m) > 1e-5 * (1 + abs(m)):
                failures.append({"body": name, "h": h.tolist(),
                                 "issue": "attaining point misses the infimum"})
            pts = ls.sample_domain(body, 4000, rng)
            vals = pts @ h
            if float(np.min(vals)) < m - 1e-6:
                failures.append({"body": name, "h": h.tolist(),
                                 "issue": "sampled value below the support bound"})
            alpha = m + 2.0
            sub = pts[vals <= alpha]
            if len(sub) and float(np.max(np.linalg.norm(sub, axis=1))) > 1e5:
                failures.append({"body": name, "h": h.tolist(),
                                 "issue": "sublevel set unbounded"})
    return checked, failures


def _case_delta_monotone(rng, budget):
    failures, checked = [], 0
    for body in (Body2.ball((0, 0), 1.0), Body2.epigraph("parabola"),
                 Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)])):
        x = body.boundary_samples(8)[0]
        eps_hi = 1.5 * body.clearance
        grid = np.linspace(0.0, eps_hi, 9)
        vals = []
        for e in grid:
            try:
                vals.append(geo.rotundity_modulus(body, x, float(e)))
            except GeometryError:
                vals.append(np.nan)
        vals = np.asarray(vals)
        checked += 1
        good = ~np.isnan(vals)
        v = vals[good]
        if np.any(np.diff(v) < -1e-7):
            failures.append({"body": body.name, "x": np.asarray(x).tolist(),
                             "issue": "modulus not monotone", "values": v.tolist()})
        if np.any(v > grid[good] / 2 + 1e-9):
            failures.append({"body": body.name, "issue": "modulus above eps/2"})
    return checked, failures


# ---------------------------------------------------------------------------
# levelset cases

def _nested_chord_family(body: Body2, levels):
    bodies = [body.clip([((0.0, 1.0), float(a))], name=f"chord{i}")
              for i, a in enumerate(levels)]
    return ls.LevelFamily(np.asarray(levels, float), bodies, body)


def _case_staircase_recovery(rng, budget):
    failures, checked = [], 0
    par = Body2.epigraph("parabola")
    levels = np.array([0.0, 1.0, 2.5, 4.0])
    fam = _nested_chord_family(par, levels)
    gaps = np.append(np.diff(levels), 1.0)
    f = ls.staircase_qc(par, fam.bodies, levels, gaps)
    pts = ls.sample_domain(par, budget["geometric_cases"], rng, window=(-4, 4, -2, 8))
    vals = f.eval_many(pts)
    for k, (alpha, body) in enumerate(zip(levels, fam.bodies)):
        inside = body.contains_many(pts)
        checked += int(inside.sum())
        if np.any(vals[inside] > alpha + 1e-9):
            failures.append({"level": k, "issue": "sublevel not recovered (high)"})
        if k + 1 < len(levels):
            outside_next = ~fam.bodies[k + 1].contains_many(pts)
            bad = outside_next & (vals < alpha + gaps[k] * (1 - 1e-6) - 1e-9)
            if np.any(bad):
                failures.append({"level": k, "issue": "value too small outside"})
    return checked, failures


def _case_ramp_continuity(rng, budget):
    failures, checked = [], 0
    par = Body2.epigraph("parabola")
    f, cert = cx.gen_no_uc(par, k_max=8)
    L = 2.0 / cert.bilip
    pts = ls.sample_domain(par, 4000, rng, window=(-6, 6, -1.2, 20))
    h = rng.normal(0, 1e-3, pts.shape)
    qts = pts + h
    keep = par.contains_many(qts)
    dv = np.abs(f.eval_many(pts[keep]) - f.eval_many(qts[keep]))
    dx = np.linalg.norm(h[keep], axis=1)
    checked += int(keep.sum())
    bad = dv > L * dx + 1e-7
    if np.any(bad):
        i = int(np.argmax(dv - L * dx))
        failures.append({"issue": "ramp function jump above Lipschitz bound",
                         "p": pts[keep][i].tolist(), "dv": float(dv[i]),
                         "dx": float(dx[i]), "L": L})
    return checked, failures


def _case_compose_preserves_qc(rng, budget):
    failures, checked = [], 0
    par = Body2.epigraph("parabola")
    levels = np.array([0.0, 1.0, 2.0])
    fam = _nested_chord_family(par, levels)
    f = ls.staircase_qc(par, fam.bodies, levels, np.append(np.diff(levels), 1.0))
    th = rng.uniform(0, 2 * math.pi)
    P = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    g = ls.compose_projection(f, P)
    rep_f = ls.quasiconvex_check(f.eval_many, par, budget["qc_triples"] // 4,
                                 seed=int(rng.integers(1 << 31)))
    rep_g = ls.quasiconvex_check(g.eval_many, g.domain, budget["qc_triples"] // 4,
                                 seed=int(rng.integers(1 << 31)))
    checked += rep_f.checked + rep_g.checked
    if rep_f.passed != rep_g.passed:
        failures.append({"issue": "composition changed the quasiconvexity verdict"})
    return checked, failures


def _case_mcshane(rng, budget):
    failures, checked = [], 0
    hp = Body2.from_halfplanes([((0.0, 1.0), 1.0)])
    gvec = np.array([0.3, 1.1])
    L = float(np.linalg.norm(gvec))
    f = ls.QCFunction(domain=hp, eval_many=lambda pts: pts @ gvec, lipschitz=L)
    F = ls.mcshane_extend(f)
    pts = ls.sample_domain(hp, 200, rng)
    vals = F(pts)
    checked += len(pts)
    if float(np.max(np.abs(vals - pts @ gvec))) > 1e-6:
        failures.append({"issue": "extension does not restrict to the function"})
    outside = pts + np.array([0.0, 5.0])
    vals_out = F(outside)
    if np.any(vals_out + 1e-6 < outside @ gvec):
        failures.append({"issue": "extension below the linear form"})
    return checked, failures


def _case_modulus_bound(rng, budget):
    failures, checked = [], 0
    par = Body2.epigraph("parabola")
    levels = np.array([0.0, 1.0, 2.0, 3.0])
    fam = _nested_chord_family(par, levels)
    f = ls.staircase_qc(par, fam.bodies, levels, np.append(np.diff(levels), 1.0))
    table = ls.modulus_estimate(f.eval_many, par, 4000,
                                seed=int(rng.integers(1 << 31)))
    checked += len(table.ts)
    if np.any(table.omegas > table.ts * (1.0 + 1e-6) + 1e-9):
        failures.append({"issue": "modulus exceeds the 1-Lipschitz envelope"})
    slope = ls.lipschitz_estimate(f.eval_many, par, 4000,
                                  seed=int(rng.integers(1 << 31)))
    if slope > 1.0 + 1e-3:
        failures.append({"issue": "sampled slope above 1", "slope": slope})
    return checked, failures


def _case_planted_xy(rng, budget):
    # the planted violation: |x*y| on the square is not quasiconvex
    sq = Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)])

    def f(pts):
        return np.abs(pts[:, 0] * pts[:, 1])

    rep = ls.quasiconvex_check(f, sq, 10_000, seed=int(rng.integers(1 << 31)))
    checked = rep.checked
    failures = []
    if rep.witness is not None:
        failures.append({"planted": True,
                         "witness": minimize_qc_witness(f, rep.witness),
                         "worst": rep.worst})
    return checked, failures


# ---------------------------------------------------------------------------
# extension cases

def check_parabola_extension(rng, n_points: int, n_triples: int, grid: int,
                             qc_seed: int):
    """Extension identity, exact quasiconvexity and bounded grid jumps of the
    extension of a 12-level chord family on the parabola body."""
    par = Body2.epigraph("parabola", name="parabola")
    levels = _acceptance_levels(grid_n=grid)
    fam = _nested_chord_family(par, levels)
    res = ext.extend_function(fam)
    window = (-20, 20, -20, 20)
    pts = ls.sample_domain(par, n_points, rng, window=window)
    max_diff = float(np.max(np.abs(res.eval_many(pts) - fam.eval_many(pts))))
    rep = ls.quasiconvex_check(res.eval_many, window, n_triples, tol=1e-9,
                               seed=qc_seed)
    jump = _max_grid_jump(res, window, grid)
    failures = []
    if max_diff != 0.0:
        failures.append({"issue": "extension does not restrict exactly",
                         "max_diff": max_diff})
    if not rep.passed:
        failures.append({"violations": rep.violations, "worst": rep.worst,
                         "witness": minimize_qc_witness(res.eval_many, rep.witness)})
    if not jump <= fam.max_gap() + 1e-12:
        failures.append({"issue": "grid jump above the maximum level gap",
                         "jump": jump, "max_gap": fam.max_gap()})
    detail = {"levels": len(levels), "top_level": float(levels[-1]),
              "max_restriction_diff": max_diff,
              "qc_violations": rep.violations, "qc_worst": rep.worst,
              "max_grid_jump": jump, "max_level_gap": fam.max_gap(),
              "regularity": res.regularity}
    return len(pts) + rep.checked + grid * grid, failures, detail


def _random_polygon_pair(rng):
    outer_pts = rng.normal(0, 3.0, (14, 2))
    outer = Body2.from_polychain(outer_pts[ConvexHull(outer_pts).vertices],
                            collinear_ok=True)
    inner_raw = ls.sample_domain(outer, 24, rng)
    shrink = outer.witness + (inner_raw - outer.witness) * rng.uniform(0.3, 0.9)
    hull = ConvexHull(shrink)
    inner = Body2.from_polychain(shrink[hull.vertices], collinear_ok=True)
    return inner, outer


def check_polygon_operator(rng, n_instances: int):
    """Operator contracts on random polygon pairs B in C: e(B) restricted to
    C within five boundary steps of B, monotonicity against a shrunken source,
    and the segment property of a chord body touching the boundary of C."""
    failures = []
    worst_ratio = 0.0
    mono_bad = seg_bad = seg_checked = 0
    n = tries = 0
    while n < n_instances and tries < 4 * n_instances:
        tries += 1
        try:
            B, C = _random_polygon_pair(rng)
        except Exception:
            continue
        e = ext.extend_body(B, C)
        if e.special is not None:
            continue
        n += 1
        step = _perimeter(B) / 256
        h = ext.restriction_hausdorff(e)
        ratio = h / (5 * step)
        worst_ratio = max(worst_ratio, ratio)
        if ratio > 1.0:
            failures.append({"hausdorff": h, "step": step})
        # monotonicity probe: a shrunken inner body
        pts1 = B.witness + (B.boundary_samples(16) - B.witness) * 0.5
        try:
            B1 = Body2.from_polychain(pts1[ConvexHull(pts1).vertices],
                                      collinear_ok=True)
        except Exception:
            continue
        e1 = ext.extend_body(B1, C)
        probe = C.witness + rng.normal(0, 8.0, (32, 2))
        inside1 = e1.contains_many(probe, -1e-9)
        if np.any(inside1 & ~e.contains_many(probe, 1e-7)):
            mono_bad += 1
            failures.append({"issue": "monotonicity of the operator failed"})
        # segment property: probe via a chord body touching the ambient boundary,
        # so the extension has a part outside the ambient
        th = rng.uniform(0, 2 * math.pi)
        nvec = np.array([math.cos(th), math.sin(th)])
        chord = C.clip([(nvec, float(nvec @ C.witness) + 0.2 * C.clearance)])
        e_ch = ext.extend_body(chord, C)
        off = probe[e_ch.contains_many(probe, -1e-9) & ~C.contains_many(probe, 1e-9)]
        ys = ls.sample_domain(C, 16, rng)
        ys = ys[~chord.contains_many(ys, 1e-9)]
        for x in off[:3]:
            for y in ys[:3]:
                seg_checked += 1
                if not ext.segment_meets_body(x, y, chord):
                    seg_bad += 1
                    failures.append({"x": x.tolist(), "y": y.tolist(),
                                     "issue": "segment misses the source body"})
    detail = {"instances": n, "worst_hausdorff_ratio": worst_ratio,
              "monotonicity_failures": mono_bad, "segment_failures": seg_bad,
              "segment_probes": seg_checked}
    return n, failures, detail


def _perimeter(B: Body2) -> float:
    pts = B.boundary_samples(256)
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def _case_strict_monotonicity(rng, budget):
    failures, checked = [], 0
    par = Body2.epigraph("parabola")
    levels = np.array([0.0, 2.0, 5.0, 9.0])
    fam = _nested_chord_family(par, levels)
    op = ext.ExtensionOperator(fam)
    for k in range(len(levels) - 1):
        e1, e2 = op.extended(k), op.extended(k + 1)
        pts = ls.sample_domain(par, 200, rng, window=(-8, 8, -8, 12))
        pts = pts[e1.contains_many(pts)]
        checked += len(pts)
        if len(pts) and float(np.max(e2.margin_many(pts))) > -1e-6:
            failures.append({"k": k, "issue": "no positive margin inside the "
                                              "next extended body"})
    return checked, failures


def check_downward_exclusion(pts, levels):
    """Every point eventually leaves e(B_k) for the parabola caps
    B_k = {y >= k}: the downward family's extensions meet in the empty set."""
    par = Body2.epigraph("parabola", name="parabola")
    excl = np.zeros(len(pts), dtype=bool)
    for k in levels:
        e = ext.extend_body(par.clip([((0.0, -1.0), -float(k))]), par)
        excl |= ~e.contains_many(pts, 1e-9)
        if excl.all():
            break
    failures = [] if excl.all() else [
        {"issue": "downward family: some point never excluded",
         "count": int((~excl).sum())}]
    return len(pts), failures, {"all_excluded": bool(excl.all())}


def _max_grid_jump(res, window, n) -> float:
    xmin, xmax, ymin, ymax = window
    xs = np.linspace(xmin, xmax, n)
    ys = np.linspace(ymin, ymax, n)
    gx, gy = np.meshgrid(xs, ys)
    vals = res.eval_many(np.column_stack([gx.ravel(), gy.ravel()])).reshape(n, n)
    dx = np.abs(np.diff(vals, axis=1)).max() if n > 1 else 0.0
    dy = np.abs(np.diff(vals, axis=0)).max() if n > 1 else 0.0
    return float(max(dx, dy))


def _acceptance_levels(n_levels: int = 12, window_top: float = 20.0,
                       grid_n: int = 1024, margin: float = 1.5) -> np.ndarray:
    """Chord levels on the parabola body spaced so consecutive extended
    boundaries stay farther apart than a grid cell near the corners.

    The pinch between consecutive tangent lines at chord corners is
    (ds)^2 / sqrt(1 + 4 s^2) for corner abscissa s = sqrt(level + 1); the
    spacing solves that against the grid step with a safety margin.
    """
    h = 40.0 / grid_n * margin
    s = [1.0]
    while s[-1] ** 2 - 1.0 < window_top + 2.0 or len(s) < n_levels:
        cur = s[-1]
        ds = math.sqrt(h)
        for _ in range(40):
            ds = math.sqrt(h * math.sqrt(1.0 + 4.0 * (cur + ds) ** 2))
        s.append(cur + ds)
        if len(s) > 64:
            break
    s = np.array(s[:max(n_levels, len(s))])
    if len(s) > n_levels:
        # keep exactly n_levels, preserving the top coverage
        idx = np.unique(np.linspace(0, len(s) - 1, n_levels).round().astype(int))
        s = s[idx]
    return s ** 2 - 1.0


# ---------------------------------------------------------------------------
# counterexample cases

def check_no_lip_trend():
    """No-Lipschitz certificate on the unit disk: the Lipschitz lower bounds
    increase and double in the tail, and the products vanish."""
    disk = Body2.ball((0.0, 0.0), 1.0, name="disk")
    _, cert = cx.gen_no_lip(disk, k_max=20)
    ratios = cert.lip_lower_bounds[1:] / cert.lip_lower_bounds[:-1]
    detail = {"increasing": bool(np.all(np.diff(cert.lip_lower_bounds[2:21]) > 0)),
              "ratio_in_band": bool(np.all((ratios[12:] >= 1.8) & (ratios[12:] <= 2.2))),
              "product_monotone": bool(np.all(np.diff(cert.products) < 0)),
              "product_20": float(cert.products[20]), "eps": cert.eps}
    failures = []
    if not detail["increasing"]:
        failures.append({"issue": "K table not strictly increasing"})
    if not detail["ratio_in_band"]:
        failures.append({"issue": "K ratio off the doubling trend",
                         "ratios": ratios[12:].tolist()})
    if not (detail["product_monotone"] and detail["product_20"] < 1e-4):
        failures.append({"issue": "vanishing product trend failed"})
    return len(ratios), failures, detail


def check_no_uc_trend():
    """No-uniform-continuity certificate on the parabola body: the separation
    gaps collapse and the level gaps stay above the bi-Lipschitz constant."""
    par = Body2.epigraph("parabola", name="parabola")
    _, cert = cx.gen_no_uc(par, k_max=64)
    detail = {"gap_64": float(cert.gaps[63]), "tail_monotone_from": cert.tail_monotone_from(),
              "bilip": cert.bilip, "min_level_gap": float(np.min(np.diff(cert.levels)))}
    failures = []
    if not detail["gap_64"] < 0.05:
        failures.append({"issue": "gap_64 too large", "gap": detail["gap_64"]})
    if detail["tail_monotone_from"] > 32:
        failures.append({"issue": "gap table not eventually decreasing",
                         "k0": detail["tail_monotone_from"]})
    if not detail["min_level_gap"] >= cert.bilip * (1 - 1e-6):
        failures.append({"issue": "level gaps below the bi-Lipschitz constant"})
    if not cert.bilip >= 0.5:
        failures.append({"issue": "bi-Lipschitz estimate below 0.5",
                         "bilip": cert.bilip})
    return len(cert.gaps), failures, detail


def _case_forcing_arcs(rng, budget):
    failures, checked = [], 0
    hyp = Body2.epigraph("exp_hypograph")
    _, cert = cx.gen_no_qc(hyp, k_max=12)
    checked += len(cert.arc_lengths)
    if not np.all(cert.arc_lengths > 0):
        failures.append({"issue": "no-qc forcing arc degenerate"})
    sq = Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    _, cert2 = cx.gen_non_rotund(sq, k_max=12)
    checked += len(cert2.arc_lengths)
    if not np.all(cert2.arc_lengths > 0):
        failures.append({"issue": "non-rotund forcing arc degenerate"})
    if not (cert2.jump and cert2.jump[1] > cert2.jump[0]):
        failures.append({"issue": "jump pair not positive"})
    return checked, failures


def _quartet():
    return {
        "disk": Body2.ball((0.0, 0.0), 1.0, name="disk"),
        "parabola": Body2.epigraph("parabola", name="parabola"),
        "square": Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)],
                                       name="square"),
        "hypograph": Body2.epigraph("exp_hypograph", name="hypograph"),
    }


QUARTET_CLASSES = {
    "disk": "UC_EXTENDABLE",
    "parabola": "C_EXTENDABLE",
    "square": "QC_EXTENDABLE",
    "hypograph": "NOT_QC_EXTENDABLE",
}

def check_classifier_consistency(n_triples: int, seed: int):
    """The classifier agrees with QUARTET_CLASSES, every denied grade's
    generator runs, and a granted grade's extension passes the QC check.

    Returns the class per body and a message per failed generator or
    extension as its detail."""
    failures, results = [], {}
    for name, body in _quartet().items():
        cls = cx.characterize(body)
        results[name] = cls.extendability_class
        if cls.extendability_class != QUARTET_CLASSES[name]:
            failures.append({"body": name, "got": cls.extendability_class,
                             "want": QUARTET_CLASSES[name]})
            continue
        for grade, gen_name in cls.denied.items():
            kw = {"k_max": 8, "scan": 16} if gen_name == "gen_no_lip" else {"k_max": 8}
            try:
                getattr(cx, gen_name)(body, **kw)
            except Exception as e:  # noqa: BLE001  (any failure is a finding)
                results[f"{name}:{grade}"] = f"generator failed: {e}"
                failures.append({"body": name, "grade": grade,
                                 "generator": gen_name, "error": str(e)})
        if cls.granted:
            # the family must exhaust the body over the check window, else
            # the clamped top level is genuinely non-quasiconvex
            if body.bounded:
                levels = np.linspace(-0.5, geo.support(body, (0.0, 1.0)), 4)
            else:
                levels = np.linspace(0.0, 4.5, 4)
            res = ext.extend_function(_nested_chord_family(body, levels))
            rep = ls.quasiconvex_check(res.eval_many, (-4, 4, -4, 4), n_triples,
                                       tol=1e-9, seed=seed)
            if not rep.passed:
                results[f"{name}:extension"] = f"{rep.violations} violations"
                failures.append({"body": name, "issue": "granted-grade extension "
                                                        "fails the QC suite",
                                 "violations": rep.violations})
    return len(QUARTET_CLASSES), failures, results


def _case_quotient_bound(rng, budget):
    # quotient bound: any extension candidate's modulus, measured at the
    # critical argument, exceeds the level gap
    failures, checked = [], 0
    disk = Body2.ball((0.0, 0.0), 1.0)
    f, cert = cx.gen_no_lip(disk, k_max=8)
    stair = f.meta["staircase"]
    fam = stair.meta["family"]
    res = ext.extend_function(fam, validate=False)
    for k in range(2, 7):
        d_lk = float(np.linalg.norm(cert.q_points[k] - cert.p_points[k]))
        arg = 2.0 * d_lk / cert.gauge
        beta_gap = cert.levels[k + 1] - cert.levels[k]

        # measure the modulus of the candidate at the critical argument by
        # sampling straddling pairs near the separating line
        base = cert.p_points[k]
        f_base = float(res.eval_many(base[None, :])[0])
        # directed probe: step from P_k across the separating line l_{k+1},
        # the pair the proof itself exhibits
        hp_line = cert.body_cuts[k + 1][1]
        ts = np.linspace(0.0, arg, 64)[1:]
        b = base[None, :] + ts[:, None] * hp_line.normal[None, :]
        fb = res.eval_many(b)
        omega = float(np.max(np.abs(fb - f_base)))
        # random pairs as a supplement
        dirs = rng.normal(0, 1.0, (500, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        a2 = base[None, :] + rng.uniform(0, arg, (500, 1)) * dirs
        b2 = a2 + dirs * arg
        omega = max(omega, float(np.max(np.abs(res.eval_many(a2)
                                               - res.eval_many(b2)))))
        checked += 1
        if omega < beta_gap - 1e-9:
            failures.append({"k": k, "issue": "quotient modulus bound violated",
                             "omega": omega, "needed": beta_gap})
    return checked, failures


# ---------------------------------------------------------------------------
# acceptance (end-to-end) cases live in their own module to stay importable
# from the test suite; see qcext.acceptance

def _end_to_end_cases():
    from . import acceptance

    return [(f"criterion_{i}", fn) for i, fn in acceptance.CRITERIA.items()]


_CASES = {
    "geometry": [
        ("project_idempotent", _case_project_idempotent),
        ("support_inequality", _case_support_inequality),
        ("recession_bounded_iff", _case_recession_bounded),
        ("supporting_cone_contains", _case_supporting_cone),
        ("tangency_set_bounded_nonempty", _case_gamma),
        ("supporting_cone_membership", _case_supporting_cone_membership),
        ("bounded_sublevels", _case_bounded_sublevels),
        ("rotundity_modulus_monotone", _case_delta_monotone),
    ],
    "levelset": [
        ("staircase_sublevel_recovery", _case_staircase_recovery),
        ("ramp_function_continuity", _case_ramp_continuity),
        ("composition_preserves_qc", _case_compose_preserves_qc),
        ("mcshane_restriction", _case_mcshane),
        ("modulus_below_lipschitz", _case_modulus_bound),
    ],
    "extension": [
        ("parabola_extension", lambda rng, b: check_parabola_extension(
            rng, b["geometric_cases"], b["qc_triples"], b["grid"],
            int(rng.integers(1 << 31)))),
        ("polygon_operator_contracts",
         lambda rng, b: check_polygon_operator(rng, b["pairs"])),
        ("operator_strict_monotonicity", _case_strict_monotonicity),
        ("downward_family_exclusion", lambda rng, b: check_downward_exclusion(
            ls.sample_domain((-30, 30, -30, 30), b["geometric_cases"] // 5, rng),
            np.arange(0.0, 39.0, 3.0))),
    ],
    "counterexamples": [
        ("no_lip_blowup_trend", lambda rng, b: check_no_lip_trend()),
        ("no_uc_gap_trend", lambda rng, b: check_no_uc_trend()),
        ("forcing_arcs_positive", _case_forcing_arcs),
        ("classifier_generator_consistency",
         lambda rng, b: check_classifier_consistency(b["qc_triples"] // 4,
                                                     int(rng.integers(1 << 31)))),
        ("quotient_modulus_bound", _case_quotient_bound),
    ],
}


def run_suite(name: str, seed: int = 0, budget=None,
              plant_failure: bool = False) -> SuiteReport:
    """Execute one suite; deterministic for a fixed (seed, budget)."""
    if name not in SUITES:
        raise VerifyError(f"unknown suite {name!r}; choose from {SUITES}")
    if budget is None:
        budget = DEFAULT_BUDGET
    elif isinstance(budget, str):
        budget = {"default": DEFAULT_BUDGET, "small": SMALL_BUDGET}[budget]
    report = SuiteReport(suite=name, seed=seed)
    t_suite = time.time()
    if name == "end_to_end":
        cases = _end_to_end_cases()
    else:
        cases = list(_CASES[name])
        if plant_failure and name == "levelset":
            cases.append(("planted_xy_violation", _case_planted_xy))
    for idx, (case_name, fn) in enumerate(cases):
        t0 = time.time()
        if name == "end_to_end":
            ok, detail = fn()
            checked = 1
            failures = [] if ok else [detail]
        else:
            checked, failures, *_ = fn(_rng(seed, idx), budget)
        report.cases.append(CaseResult(name=case_name, checked=checked,
                                       failures=failures,
                                       seconds=time.time() - t0))
    report.wall_time = time.time() - t_suite
    return report
