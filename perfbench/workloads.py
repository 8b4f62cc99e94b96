"""The four benchmark workloads: seeded inputs, one request, output checks.

A workload object is built once per run from the seed.  ``setup`` does the
preparation and the warm-up, ``make_input(i)`` derives the inputs of request
i < ``requests`` from (seed, i), ``run`` makes the program calls a user would
make and is the only part that is timed, and ``check`` verifies the outputs
against the gates of the acceptance criteria or an independent closed form.

The program is reached only through ``qcext``'s public functions, looked up
at call time so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

import qcext as qc
from qcext import counterexamples as cx
from qcext import extension as ext
from qcext import levelset as ls
from qcext import serialize as ser

#: strict containment tolerance of ``ExtendedBody.contains_many``
CONTAIN_TOL = 1e-9
#: strict-interior margin of ``ExtendedBody.interior_many``
INTERIOR_MARGIN = 1e-9
#: a covering index may differ from the closed form by one level only for a
#: point this close (world distance per unit of ambient scale) to the
#: boundary line of the extended body at the lower of the two levels
BOUNDARY_SLACK = 1e-6


#: request index of the set-up's own inputs, beyond any timed request
SETUP_INDEX = 1 << 40


def request_rng(seed: int, i: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, i, stream])


# ---------------------------------------------------------------------------
# nested chord families on a transformed parabola, with their closed form

@dataclass
class ChordFamily:
    """Parabola epigraph v >= u^2 - 1 mapped by x = lam R (u, v) + shift,
    cut by the nested half-planes m . (u, v) <= d_k of profile coordinates.

    For a clipped body the relative boundary in the ambient is the chord,
    so e(B_k) is the cut half-plane plus the ambient's tangent half-planes
    where the chord line crosses the parabola (PAPER.md's e(B)).
    """

    lam: float
    R: np.ndarray
    shift: np.ndarray
    m: np.ndarray
    d: np.ndarray

    @staticmethod
    def draw(rng: np.random.Generator, n_levels: int) -> "ChordFamily":
        th = rng.uniform(0.0, 2.0 * math.pi)
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        if rng.integers(2):
            R = R @ np.diag([1.0, -1.0])
        lam = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        shift = rng.normal(0.0, 2.0, 2)
        tilt = rng.uniform(-0.5, 0.5)
        m = np.array([math.sin(tilt), math.cos(tilt)])
        u_star = -m[0] / (2.0 * m[1])
        d_min = m[0] * u_star + m[1] * (u_star ** 2 - 1.0)
        d = d_min + 1.0 + np.arange(n_levels, dtype=float)
        return ChordFamily(lam, R, shift, m, d)

    @property
    def transform(self) -> np.ndarray:
        return np.column_stack([self.lam * self.R, self.shift])

    def build(self):
        """The ambient body and the nested chord bodies, via the program."""
        C = qc.Body2.epigraph("parabola", None, self.transform, name="ambient")
        n_w = self.R @ self.m
        offs = self.lam * self.d + float(n_w @ self.shift)
        bodies = [C.clip([(n_w, float(c))], name=f"chord{k}")
                  for k, c in enumerate(offs)]
        return C, bodies

    def box(self, half: float = 5.0) -> tuple:
        """World box of half-width half * lam around the parabola's vertex."""
        cx_, cy_ = self.shift + self.lam * (self.R @ np.array([0.0, -1.0]))
        h = half * self.lam
        return (cx_ - h, cx_ + h, cy_ - h, cy_ + h)

    def to_profile(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.shift) @ self.R / self.lam

    def outside_gap(self, x: np.ndarray) -> np.ndarray:
        """g(u) - v in profile units: positive strictly outside the ambient."""
        uv = self.to_profile(x)
        return uv[:, 0] ** 2 - 1.0 - uv[:, 1]

    def chord_margins(self, x: np.ndarray) -> np.ndarray:
        """(K, N) world signed distances to the chord lines m . (u, v) = d_k."""
        uv = self.to_profile(x)
        return self.lam * ((uv @ self.m)[None, :] - self.d[:, None])

    def extended_margins(self, x: np.ndarray) -> np.ndarray:
        """(K, N) world signed distances to the closed-form e(B_k)."""
        uv = self.to_profile(x)
        m1, m2 = self.m
        disc = np.sqrt(m1 * m1 + 4.0 * m2 * (m2 + self.d))
        out = (uv @ self.m)[None, :] - self.d[:, None]
        for u in ((-m1 + disc) / (2.0 * m2), (-m1 - disc) / (2.0 * m2)):
            nrm = np.hypot(2.0 * u, 1.0)
            nx, ny = 2.0 * u / nrm, -1.0 / nrm
            off = nx * u + ny * (u * u - 1.0)
            out = np.maximum(out, nx[:, None] * uv[None, :, 0]
                             + ny[:, None] * uv[None, :, 1] - off[:, None])
        return self.lam * out

    def first_level(self, margins: np.ndarray, below: float) -> np.ndarray:
        """Smallest k with margin < below per point; K where there is none."""
        hit = margins < below
        return np.where(hit.any(axis=0), np.argmax(hit, axis=0), len(self.d))

    def index_mismatches(self, got: np.ndarray, want: np.ndarray,
                         margins: np.ndarray) -> int:
        """Points whose level index differs from the closed form's, allowing
        one level of difference only within BOUNDARY_SLACK of the boundary
        of the lower level's body (`margins` holds those boundaries)."""
        diff = np.flatnonzero(got != want)
        k = np.minimum(got, want)[diff]
        near = np.abs(margins[k, diff]) <= BOUNDARY_SLACK * self.lam
        ok = (np.abs(got[diff] - want[diff]) == 1) & near
        return int((~ok).sum())

    def covered_box_points(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform box points well inside the top extended body."""
        xmin, xmax, ymin, ymax = self.box()
        out, got = [], 0
        while got < n:
            cand = np.column_stack([rng.uniform(xmin, xmax, 2 * n),
                                    rng.uniform(ymin, ymax, 2 * n)])
            top = self.extended_margins(cand)[-1]
            keep = cand[top < -1e-3 * self.lam]
            out.append(keep)
            got += len(keep)
        return np.vstack(out)[:n]


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""
    #: distinct requests; the runner repeats them in passes over this set
    requests = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        """Preparation and warm-up: counted in the set-up time, not in any
        request's time."""

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list:
        """Names of the failed checks (empty when the request is correct)."""
        raise NotImplementedError

    def points(self, inp) -> int:
        """Query points the request answers (0 where that is not the unit)."""
        return 0


class ChordCover(Workload):
    """Each request builds its chord family afresh, then asks for the
    covering indices of box points."""

    name = "chord_cover"
    requests = 5
    n_levels = 100
    n_points = 2000

    def setup(self):
        # warm-up: a small family through the same calls
        fam = ChordFamily.draw(request_rng(self.seed, SETUP_INDEX), 8)
        pts = fam.covered_box_points(request_rng(self.seed, SETUP_INDEX, 1), 50)
        self.run((fam, pts))

    def make_input(self, i):
        fam = ChordFamily.draw(request_rng(self.seed, i), self.n_levels)
        return fam, fam.covered_box_points(request_rng(self.seed, i, 1), self.n_points)

    def run(self, inp):
        fam, pts = inp
        C, bodies = fam.build()
        op = qc.ExtensionOperator(qc.LevelFamily(fam.d, bodies, C))
        return op.covering_index_many(pts)

    def check(self, inp, out):
        fam, pts = inp
        margins = fam.extended_margins(pts)
        want = fam.first_level(margins, CONTAIN_TOL)
        if (want == len(fam.d)).any() or fam.index_mismatches(out, want, margins):
            return ["covering_index_vs_closed_form"]
        return []

    def points(self, inp):
        return len(inp[1])


class ExtendEval(Workload):
    """One prebuilt extension; requests evaluate it on and off the body."""

    name = "extend_eval"
    requests = 25
    n_levels = 100
    n_on = 5000
    n_off = 5000
    n_triples = 5000

    def setup(self):
        self.fam = ChordFamily.draw(request_rng(self.seed, SETUP_INDEX), self.n_levels)
        C, bodies = self.fam.build()
        self.family = qc.LevelFamily(self.fam.d, bodies, C)
        self.result = qc.extend_function(self.family)
        for k in range(len(self.family)):
            self.result.operator.extended(k)
        self.run(self.make_input(SETUP_INDEX))

    def make_input(self, i):
        rng = request_rng(self.seed, i)
        xmin, xmax, ymin, ymax = box = self.fam.box()
        off, got = [], 0
        while got < self.n_off:
            cand = np.column_stack([rng.uniform(xmin, xmax, 2 * self.n_off),
                                    rng.uniform(ymin, ymax, 2 * self.n_off)])
            keep = cand[self.fam.outside_gap(cand) > 1e-6]
            off.append(keep)
            got += len(keep)
        return {"box": box, "off": np.vstack(off)[:self.n_off],
                "rng_seed": [self.seed, i, 2], "qc_seed": int(rng.integers(1 << 31))}

    def run(self, inp):
        rng = np.random.default_rng(inp["rng_seed"])
        on = ls.sample_domain(self.family.ambient, self.n_on, rng, window=inp["box"])
        v_on = self.result.eval_many(on)
        v_off = self.result.eval_many(inp["off"])
        rep = ls.quasiconvex_check(self.result.eval_many, inp["box"], self.n_triples,
                                   tol=1e-9, seed=inp["qc_seed"])
        return on, v_on, v_off, rep

    def check(self, inp, out):
        on, v_on, v_off, rep = out
        failed = []
        # on the body: the smallest level whose chord holds the point; every
        # box point of the ambient lies below the top chord
        margins = self.fam.chord_margins(on)
        want = self.fam.first_level(margins, CONTAIN_TOL)
        got = np.searchsorted(self.fam.d, v_on)
        if (want == len(self.fam.d)).any() or self.fam.index_mismatches(got, want, margins):
            failed.append("on_body_value_vs_closed_form")
        # criterion 1: the extension restricts exactly to the family
        if not np.array_equal(v_on, self.family.eval_many(on)):
            failed.append("on_body_restriction")
        # off the body: the smallest level whose extended body holds the
        # point strictly, clamped to the top level beyond the family's reach
        margins = self.fam.extended_margins(inp["off"])
        want = np.minimum(self.fam.first_level(margins, -INTERIOR_MARGIN),
                          len(self.fam.d) - 1)
        got = np.searchsorted(self.fam.d, v_off)
        if self.fam.index_mismatches(got, want, margins):
            failed.append("off_body_value_vs_closed_form")
        if rep.violations != 0:
            failed.append("quasiconvexity")
        return failed

    def points(self, inp):
        return self.n_on + self.n_off + 3 * self.n_triples


class PolygonPairs(Workload):
    """Criterion-2 operator contracts on one random polygon pair."""

    name = "polygon_pairs"
    requests = 50

    def setup(self):
        self.run(self.make_input(SETUP_INDEX))

    def make_input(self, i):
        rng = request_rng(self.seed, i)
        outer_pts = rng.normal(0.0, 3.0, (14, 2))
        hull = ConvexHull(outer_pts)
        outer = outer_pts[hull.vertices]
        eq = hull.equations
        inner_raw = []
        lo, hi = outer.min(axis=0), outer.max(axis=0)
        while len(inner_raw) < 24:
            p = rng.uniform(lo, hi)
            if np.all(eq[:, :2] @ p + eq[:, 2] < 0):
                inner_raw.append(p)
        inner_raw = np.array(inner_raw)
        center = outer.mean(axis=0)
        shrink = center + (inner_raw - center) * rng.uniform(0.3, 0.9)
        inner = shrink[ConvexHull(shrink).vertices]
        th = rng.uniform(0.0, 2.0 * math.pi)
        return {"inner": inner, "outer": outer,
                "probe_offsets": rng.normal(0.0, 8.0, (32, 2)),
                "chord_normal": np.array([math.cos(th), math.sin(th)]),
                "rng_seed": [self.seed, i, 1]}

    def run(self, inp):
        rng = np.random.default_rng(inp["rng_seed"])
        B = qc.Body2.from_polychain(inp["inner"], collinear_ok=True)
        C = qc.Body2.from_polychain(inp["outer"], collinear_ok=True)
        e = qc.extend_body(B, C, resolution=256)
        h = ext.restriction_hausdorff(e)
        # monotonicity probe: a shrunken inner body
        pts1 = B.witness + (B.boundary_samples(16) - B.witness) * 0.5
        B1 = qc.Body2.from_polychain(pts1[ConvexHull(pts1).vertices], collinear_ok=True)
        e1 = qc.extend_body(B1, C, resolution=128)
        probe = C.witness + inp["probe_offsets"]
        mono_bad = int(np.sum(e1.contains_many(probe, -1e-9)
                              & ~e.contains_many(probe, 1e-7)))
        # segment property through a chord body touching the ambient boundary
        nvec = inp["chord_normal"]
        chord = C.clip([(nvec, float(nvec @ C.witness) + 0.2 * C.clearance)])
        e_ch = qc.extend_body(chord, C, resolution=128)
        off = probe[e_ch.contains_many(probe, -1e-9) & ~C.contains_many(probe, 1e-9)]
        ys = ls.sample_domain(C, 16, rng)
        ys = ys[~chord.contains_many(ys, 1e-9)]
        seg = [ext.segment_meets_body(x, y, chord) for x in off[:3] for y in ys[:3]]
        return B, e, h, mono_bad, seg

    def check(self, inp, out):
        B, e, h, mono_bad, seg = out
        failed = []
        if e.special is not None:
            failed.append("extension_is_special")
        pts = B.boundary_samples(256)
        step = float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()) / 256
        if not h <= 5 * step:
            failed.append("hausdorff_within_5_steps")
        if mono_bad:
            failed.append("monotonicity")
        if not all(seg):
            failed.append("segment_meets_body")
        return failed


def _ellipse24():
    t = 2.0 * math.pi * np.arange(24) / 24
    return qc.Body2.from_polychain(np.column_stack([2.0 * np.cos(t), np.sin(t)]),
                                   name="ellipse24")


#: body name -> (constructor, expected extendability class)
GALLERY = {
    "disk": (lambda: qc.Body2.ball((0.0, 0.0), 1.0, name="disk"), "UC_EXTENDABLE"),
    "parabola": (lambda: qc.Body2.epigraph("parabola", name="parabola"), "C_EXTENDABLE"),
    "square": (lambda: qc.Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)],
                                               name="square"), "QC_EXTENDABLE"),
    "hypograph": (lambda: qc.Body2.epigraph("exp_hypograph", name="hypograph"),
                  "NOT_QC_EXTENDABLE"),
    "cosh": (lambda: qc.Body2.epigraph("cosh", name="cosh"), "C_EXTENDABLE"),
    "triangle": (lambda: qc.Body2.from_polychain([(0, 1), (2, 1), (1, -3)],
                                                 name="triangle"), "QC_EXTENDABLE"),
    "ellipse24": (_ellipse24, "QC_EXTENDABLE"),
}

#: criterion-6 generator sizes
GEN_KWARGS = {"gen_no_lip": {"k_max": 8, "scan": 16}}


class Certify(Workload):
    """`qcext characterize` then `qcext certify` for every denied grade."""

    name = "certify"
    requests = len(GALLERY)

    def setup(self):
        self.run("disk")

    def make_input(self, i):
        # the whole gallery, in a seeded order
        return str(request_rng(self.seed, 0).permutation(sorted(GALLERY))[i])

    def run(self, inp):
        body = GALLERY[inp][0]()
        cls = qc.characterize(body)
        certs = {}
        for gen_name in dict.fromkeys(cls.denied.values()):
            _, cert = getattr(cx, gen_name)(body, **GEN_KWARGS.get(gen_name, {"k_max": 8}))
            certs[gen_name] = (cert, ser.certificate_to_json(cert),
                               ser.certificate_tables(cert))
        return cls, certs

    def check(self, inp, out):
        cls, certs = out
        failed = []
        if cls.extendability_class != GALLERY[inp][1]:
            failed.append("classification")
        for gen_name, (cert, data, tables) in certs.items():
            if isinstance(cert, qc.ForcingCertificate):
                good = cert.divergence_trend()["increasing"]
            else:
                try:
                    good = cert.validate()
                except qc.ConstructionError:
                    good = False
            if not good:
                failed.append(f"{gen_name}_certificate")
            try:
                json.dumps(data)
            except (TypeError, ValueError):
                failed.append(f"{gen_name}_json")
            if not tables or any(len(rows) == 0 for _, rows in tables.values()):
                failed.append(f"{gen_name}_tables")
        return failed


WORKLOADS = {w.name: w for w in (ChordCover, ExtendEval, PolygonPairs, Certify)}
