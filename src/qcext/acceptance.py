"""End-to-end acceptance criteria at their pinned tolerances.

The criteria are the authority on the paper's claims: each runs a contract
check from qcext.verify with pinned seeds and sizes and adds the gates that
depend on sample count or wall time.  The extension and counterexamples
verify suites run the same checks at budget size.  Each criterion returns
(passed, detail); the test suite asserts them and prints one line per
criterion, and the end_to_end verify suite runs the same functions.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import counterexamples as cx
from . import extension as ext
from . import levelset as ls
from .geometry import Body2, ConvexHull, as_rows
from .verify import (
    check_classifier_consistency,
    check_downward_exclusion,
    check_no_lip_trend,
    check_no_uc_trend,
    check_parabola_extension,
    check_polygon_operator,
)


def criterion_1():
    """Extension identity and regularity on the parabola body."""
    t0 = time.time()
    _, failures, detail = check_parabola_extension(
        np.random.default_rng(11), n_points=100_000, n_triples=100_000,
        grid=1024, qc_seed=12)
    detail["seconds"] = elapsed = time.time() - t0
    return not failures and elapsed < 120.0, detail


def criterion_2():
    """Operator contracts on random polygon pairs and the half-disk form."""
    _, failures, detail = check_polygon_operator(np.random.default_rng(21), 500)
    # half-disk closed form
    disk = Body2.ball((0.0, 0.0), 1.0)
    halfdisk = disk.clip([((1.0, 0.0), 0.0)], name="halfdisk")
    e_half = ext.extend_body(halfdisk, disk)
    want = [((1.0, 0.0), 0.0), ((0.0, 1.0), 1.0), ((0.0, -1.0), 1.0)]
    detail["halfdisk_error"] = _halfplane_set_distance(e_half.rows, want)
    ok = (not failures and detail["instances"] >= 500
          and detail["segment_probes"] > 100 and detail["halfdisk_error"] <= 1e-6)
    return ok, detail


def _halfplane_set_distance(got, want) -> float:
    """Largest L1 gap from a wanted (normal, offset) to its nearest row."""
    if len(got) != len(want):
        return math.inf
    return float(np.abs(got - as_rows(want)[:, None]).sum(axis=2).min(axis=1).max())


def criterion_3():
    """Covering indices are finite upward and exclusion holds downward.

    levels_built counts the operator's cached levels: one batch builds all
    10,201.
    """
    par = Body2.epigraph("parabola", name="parabola")
    K = 10_200
    levels = np.arange(0.0, K + 1.0)
    bodies = [par.clip([((0.0, 1.0), float(k))]) for k in levels]
    fam = ls.LevelFamily(levels, bodies, par)
    op = ext.ExtensionOperator(fam)
    rng = np.random.default_rng(31)
    pts = ls.sample_domain((-50, 50, -50, 50), 10_000, rng)
    try:
        max_index = int(np.max(op.covering_index_many(pts)))
        finite = True
    except ext.CoveringError:
        finite = False
        max_index = -1
    # downward family: every sampled point eventually excluded
    _, failures, down = check_downward_exclusion(pts, np.arange(0.0, 60.0, 1.0))
    detail = {"finite_covering": finite, "max_index": max_index,
              "levels_built": len(op._cache), **down}
    return finite and not failures, detail


def criterion_4():
    """No-Lipschitz certificate trend on the unit disk."""
    t0 = time.time()
    _, failures, detail = check_no_lip_trend()
    detail["seconds"] = elapsed = time.time() - t0
    return not failures and elapsed < 30.0, detail


def criterion_5():
    """No-uniform-continuity certificate trend on the parabola body."""
    t0 = time.time()
    _, failures, detail = check_no_uc_trend()
    detail["seconds"] = elapsed = time.time() - t0
    return not failures and elapsed < 30.0, detail


def criterion_6():
    """Classifier agreement with the generators on the canonical quartet."""
    _, failures, results = check_classifier_consistency(n_triples=20_000, seed=61)
    return not failures, results


def criterion_7():
    """Upper-semicontinuous counterexample wiring and hull forcing."""
    f, wit = cx.gen_usc_counterexample()
    vals_ok = (wit.value_bottom == 0.0 and wit.value_corner == 1.0
               and f.eval_one((0.5, 0.5)) == 0.5)
    rng = np.random.default_rng(71)
    forced = True
    for _ in range(50):
        epsb = float(rng.uniform(0.01, 0.3))
        th = rng.uniform(0, 2 * math.pi, 24)
        ball = wit.ball_center + epsb * np.column_stack([np.cos(th), np.sin(th)])
        tt = np.concatenate([np.geomspace(1e-4, 0.999, 24), rng.uniform(0, 1, 8)])
        segment = np.column_stack([tt, np.full_like(tt, 1.0 / 3.0)])
        hull = ConvexHull(np.vstack([ball, segment, wit.ball_center[None, :]]))
        eqs = hull.equations
        inside = bool(np.all(eqs[:, :2] @ np.zeros(2) + eqs[:, 2] <= 1e-9))
        if not inside:
            forced = False
            break
    corner_exceeds = f.eval_one((0.0, 0.0)) > 0.5
    detail = {"values_exact": vals_ok, "hull_forcing": forced,
              "corner_exceeds_half": corner_exceeds}
    return vals_ok and forced and corner_exceeds, detail


def criterion_8():
    """Planted-failure sensitivity of the quasiconvexity checker."""
    sq = Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)])

    def f(pts):
        return np.abs(pts[:, 0] * pts[:, 1])

    rep = ls.quasiconvex_check(f, sq, 10_000, tol=1e-9, seed=43)
    detail = {"violations": rep.violations, "worst": rep.worst,
              "witness": None if rep.witness is None else
              [np.asarray(rep.witness[0]).tolist(),
               np.asarray(rep.witness[1]).tolist(), rep.witness[2]]}
    ok = rep.violations > 0 and rep.worst >= 0.2
    return ok, detail


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
}

