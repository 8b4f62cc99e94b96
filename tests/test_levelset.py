"""Level-set constructors and diagnostics."""

import math

import numpy as np
import pytest

from qcext.geometry import Body2, Frame, HalfPlane, distance_many, transform_body
from qcext.levelset import (
    LevelFamily,
    LevelSetError,
    ModulusTable,
    QCFunction,
    _nests_sampled,
    compose_projection,
    eval_levels,
    extend_line_constant,
    lipschitz_estimate,
    mcshane_extend,
    modulus_estimate,
    quasiconvex_check,
    ramp_qc,
    sample_domain,
    staircase_qc,
)


@pytest.fixture(scope="module")
def parabola():
    return Body2.epigraph("parabola", name="parabola")


def chord_family(body, levels):
    bodies = [body.clip([((0.0, 1.0), float(a))]) for a in levels]
    return LevelFamily(np.asarray(levels, dtype=float), bodies, body)


# -- eval_levels ----------------------------------------------------------------

def test_eval_levels_single_entry():
    disk = Body2.ball((0, 0), 2.0)
    fam = LevelFamily(np.array([0.0]), [disk], disk)
    assert eval_levels(fam, (0.3, 0.1)) == 0.0


def test_eval_levels_nested_disks():
    big = Body2.ball((0, 0), 2.0)
    small = Body2.ball((0, 0), 1.0)
    fam = LevelFamily(np.array([0.0, 1.0]), [small, big], big)
    assert eval_levels(fam, (1.5, 0.0)) == 1.0
    assert eval_levels(fam, (0.5, 0.0)) == 0.0


def test_eval_levels_sentinel():
    big = Body2.ball((0, 0), 2.0)
    small = Body2.ball((0, 0), 1.0)
    fam = LevelFamily(np.array([0.0]), [small], big)
    assert eval_levels(fam, (1.5, 0.0)) == fam.sentinel


def test_eval_levels_outside_ambient():
    disk = Body2.ball((0, 0), 1.0)
    fam = LevelFamily(np.array([0.0]), [disk], disk)
    with pytest.raises(LevelSetError):
        eval_levels(fam, (5.0, 0.0))


def test_family_validation():
    for levels in ([1.0, 0.0], [0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(LevelSetError):
            LevelFamily(np.array(levels),
                        [Body2.ball((0, 0), 1.0), Body2.ball((0, 0), 2.0)],
                        Body2.ball((0, 0), 2.0))
    big = Body2.ball((0, 0), 2.0)
    bad = LevelFamily(np.array([0.0, 1.0]),
                      [big, Body2.ball((0, 0), 1.0)], big)
    with pytest.raises(LevelSetError):
        bad.validate_nesting()


# -- nesting from chords -----------------------------------------------------------

_AMBIENTS = {
    "parabola": lambda: Body2.epigraph("parabola"),
    "cosh": lambda: Body2.epigraph("cosh"),
    "exp_hypograph": lambda: Body2.epigraph("exp_hypograph"),
    "ball": lambda: Body2.ball((0.5, -0.2), 1.0),
    "polygon": lambda: Body2.from_polychain([(0, 0), (2, 0), (3, 1), (2, 2), (0, 2), (-1, 1)]),
}

#: cut directions: axis, oblique, and a second oblique for two-cut levels
_N1, _N2, _N3 = np.array([0.0, 1.0]), np.array([0.6, 0.8]), np.array([-0.8, 0.6])

#: (inner cuts, outer cuts, nested): cuts are (normal, offset past the
#: ambient's witness); () is the ambient itself
_PAIRS = [
    (((_N1, -0.3),), ((_N1, 0.2),), True),
    (((_N2, -0.1),), ((_N2, -0.1),), True),  # equal levels
    (((_N2, 0.3),), ((_N2, 0.0),), False),
    (((_N2, 0.1), (_N3, 0.1)), ((_N2, 0.2), (_N3, 0.3)), True),
    (((_N2, 0.1), (_N3, 0.2)), ((_N2, 0.3), (_N3, 0.1)), False),
    (((_N2, 0.0),), ((_N2, 0.2), (_N3, 0.2)), False),
    (((_N2, 0.0), (_N3, 0.0)), ((_N2, 0.0),), True),
    ((), ((_N1, 0.4),), False),
    (((_N1, 0.0),), (), True),
]


def _level(C, cuts, scale=1.0):
    """C cut by n . x <= n . w + scale * s for each (n, s), w C's witness."""
    if not cuts:
        return C
    return C.clip([(n, float(n @ C.witness) + scale * s) for n, s in cuts])


@pytest.mark.parametrize("name", sorted(_AMBIENTS))
def test_chord_nesting_matches_sampled(name):
    """The chord check and 128 boundary samples agree on every pair, nested
    or not, with oblique, two-cut and equal levels."""
    C = _AMBIENTS[name]()
    for inner_cuts, outer_cuts, nested in _PAIRS:
        inner, outer = _level(C, inner_cuts), _level(C, outer_cuts)
        assert _nests_sampled(inner, outer, 128, 1e-7) == nested
        fam = LevelFamily(np.array([0.0, 1.0]), [inner, outer], C)
        if nested:
            assert fam.validate_nesting()
        else:
            with pytest.raises(LevelSetError, match="body 0 is not contained in body 1"):
                fam.validate_nesting()


_FRAMES = {
    "identity": Frame(R=np.eye(2), anchor=np.zeros(2), shift=np.zeros(2)),
    "translated": Frame(R=np.eye(2), anchor=np.zeros(2), shift=np.array([1e6, -1e6])),
    "small": Frame(R=np.eye(2), anchor=np.zeros(2), shift=np.zeros(2), lam=1e-4),
    "large": Frame(R=np.eye(2), anchor=np.zeros(2), shift=np.zeros(2), lam=1e4),
}


@pytest.mark.parametrize("frame", sorted(_FRAMES))
@pytest.mark.parametrize("name", ["parabola", "cosh", "ball", "polygon"])
def test_chord_nesting_tolerance(name, frame):
    """A level past the next one's cut by 0.5 tol nests and by 2 tol does
    not, on an axis cut and on the second cut of two-cut levels; the
    verdicts hold after translating by 1e6 and scaling by 1e-4 and 1e4
    (with tol scaled alike), and the error names the failing pair."""
    fr, tol = _FRAMES[frame], 1e-7
    C = _AMBIENTS[name]()
    for n, rest in ((_N1, ()), (_N3, ((_N2, 0.2),))):
        for excess, nested in ((0.5 * tol, True), (2.0 * tol, False)):
            cuts = [rest + ((n, -0.3),), rest + ((n, excess),), rest + ((n, 0.0),)]
            bodies = [transform_body(_level(C, c), fr) for c in cuts]
            fam = LevelFamily(np.arange(3.0), bodies, transform_body(C, fr))
            if nested:
                assert fam.validate_nesting(tol=fr.lam * tol)
            else:
                with pytest.raises(LevelSetError, match="body 1 is not contained in body 2"):
                    fam.validate_nesting(tol=fr.lam * tol)


def test_none_level_nests_in_anything():
    disk = Body2.ball((0, 0), 1.0)
    cap = disk.clip([((0.0, 1.0), 0.5)])
    assert LevelFamily(np.arange(2.0), [None, cap], disk).validate_nesting()
    with pytest.raises(LevelSetError, match="body 0 is not contained in body 1"):
        LevelFamily(np.arange(2.0), [cap, None], disk).validate_nesting()


# -- staircase -------------------------------------------------------------------

def test_staircase_single_body_constant():
    disk = Body2.ball((0, 0), 1.0)
    f = staircase_qc(disk, [disk], [0.0], [1.0])
    pts = np.array([[0, 0], [0.5, 0.5], [0.9, 0]])
    assert np.allclose(f.eval_many(pts), 0.0)


def test_staircase_concentric_squares():
    # distance ramp between two squares: f = clamp(d(x, inner), 0, 1)
    inner = Body2.from_polychain([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    outer = Body2.from_polychain([(-1.5, -1.5), (1.5, -1.5), (1.5, 1.5), (-1.5, 1.5)])
    f = staircase_qc(outer, [inner, outer], [0.0, 1.0], [1.0, 1.0])
    rng = np.random.default_rng(0)
    pts = sample_domain(outer, 400, rng)
    want = np.clip(distance_many(inner, pts), 0.0, 1.0)
    assert np.allclose(f.eval_many(pts), want, atol=1e-9)


def test_staircase_sublevel_recovery(parabola):
    levels = np.array([0.0, 1.0, 2.5])
    fam = chord_family(parabola, levels)
    f = staircase_qc(parabola, fam.bodies, levels, np.append(np.diff(levels), 1.0))
    rng = np.random.default_rng(1)
    pts = sample_domain(parabola, 3000, rng, window=(-3, 3, -2, 6))
    vals = f.eval_many(pts)
    for alpha, body in zip(levels, fam.bodies):
        inside = body.contains_many(pts)
        assert np.all(vals[inside] <= alpha + 1e-9)
        assert np.all(vals[~inside] > alpha - 1e-9)


def test_staircase_lipschitz_and_qc(parabola):
    levels = np.array([0.0, 1.0, 2.0, 3.0])
    fam = chord_family(parabola, levels)
    f = staircase_qc(parabola, fam.bodies, levels, np.append(np.diff(levels), 1.0))
    slope = lipschitz_estimate(f.eval_many, parabola, 20_000, seed=3)
    assert slope <= 1.0 + 1e-3
    rep = quasiconvex_check(f.eval_many, parabola, 20_000, seed=3)
    assert rep.passed


def test_staircase_gap_violation():
    ambient = Body2.ball((0, 0), 3.0)
    inner = Body2.ball((0, 0), 1.0)
    middle = Body2.ball((0, 0), 2.0)
    with pytest.raises(LevelSetError):
        staircase_qc(ambient, [inner, middle], [0.0, 5.0], [5.0, 1.0])


# -- boundary ramp function -------------------------------------------------------

def test_ramp_case_values():
    # three chain points on a synthetic straight chain; h is the y-coordinate
    domain = Body2.from_halfplanes([((0.0, -1.0), 1.0)])  # {y >= -1}
    pts = np.array([[0.0, 0.0], [0.6, 1.0], [1.0, 2.2]])
    alphas = np.array([0.0, 1.0, 2.2])
    hp = HalfPlane((1.0, 0.0), 0.8)
    f = ramp_qc(domain, (0.0, 1.0), pts, alphas, [hp], bilip=0.9)
    # below the chain start the value vanishes
    assert f.eval_one((3.0, -0.5)) == 0.0
    # first case: linear ramp between alpha_1 and alpha_2
    hv = 0.5
    want = alphas[0] + (alphas[2] - alphas[0]) * (hv - alphas[0]) / (alphas[1] - alphas[0])
    assert f.eval_one((0.0, hv)) == pytest.approx(want, abs=1e-12)
    # second case: plateau inside the half-plane
    assert f.eval_one((0.0, 1.5)) == pytest.approx(alphas[2], abs=1e-12)
    # third case: plateau plus the distance to the half-plane
    assert f.eval_one((2.0, 1.5)) == pytest.approx(alphas[2] + 1.2, abs=1e-12)


def test_ramp_requires_increasing_levels():
    domain = Body2.from_halfplanes([((0.0, -1.0), 1.0)])
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.5]])
    with pytest.raises(LevelSetError):
        ramp_qc(domain, (0.0, 1.0), pts, np.array([0.0, 1.0, 0.5]), [], 1.0)


# -- composition and line extension ------------------------------------------------

def test_compose_projection_coordinate():
    f = compose_projection((lambda t: t, (0.0, 1.0)), np.array([[1.0, 0.0]]))
    pts = np.array([[0.3, 9.0], [0.8, -4.0]])
    assert np.allclose(f.eval_many(pts), [0.3, 0.8])
    assert f.domain is not None


def test_compose_projection_constant():
    f = compose_projection((lambda t: np.full_like(t, 7.0), (0.0, 1.0)),
                           np.array([[1.0, 0.0]]))
    assert np.allclose(f.eval_many(np.array([[5, 5], [0, 0]])), 7.0)


def test_compose_projection_rotation_preserves_qc(parabola):
    levels = np.array([0.0, 1.0, 2.0])
    fam = chord_family(parabola, levels)
    f = staircase_qc(parabola, fam.bodies, levels, np.append(np.diff(levels), 1.0))
    th = 0.7
    P = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    g = compose_projection(f, P)
    rep = quasiconvex_check(g.eval_many, g.domain, 20_000, seed=4)
    assert rep.passed
    assert g.lipschitz == pytest.approx(1.0, rel=1e-9)


def test_extend_line_constant():
    F = extend_line_constant(lambda t: t, (0.0, 1.0))
    ts = np.array([-3.0, 0.0, 0.4, 1.0, 9.0])
    assert np.allclose(F(ts), [0.0, 0.0, 0.4, 1.0, 1.0])
    G = extend_line_constant(lambda t: np.abs(t), (-1.0, 1.0))
    assert np.allclose(G(np.array([-5.0, 0.0, 5.0])), [1.0, 0.0, 1.0])


# -- McShane ------------------------------------------------------------------------

def test_mcshane_constant():
    disk = Body2.ball((0, 0), 1.0)
    f = QCFunction(domain=disk, eval_many=lambda p: np.full(len(p), 3.0),
                   lipschitz=0.0)
    F = mcshane_extend(f)
    assert np.allclose(F(np.array([[5, 5], [0, 0], [-9, 2]])), 3.0, atol=1e-9)


def test_mcshane_linear_on_halfplane():
    # the downward ray from any point re-enters the domain, so the largest
    # Lipschitz extension of a linear functional is the functional itself
    hp = Body2.from_halfplanes([((0.0, 1.0), 1.0)])
    g = np.array([0.0, 2.0])
    f = QCFunction(domain=hp, eval_many=lambda p: p @ g, lipschitz=2.0)
    F = mcshane_extend(f)
    pts = np.array([[0.0, 3.0], [4.0, 2.0], [-2.0, 5.0], [1.0, 0.0]])
    assert np.allclose(F(pts), pts @ g, atol=1e-6)


def test_mcshane_distance_form():
    disk = Body2.ball((0, 0), 1.0)
    x0 = np.array([0.2, -0.1])

    def f_eval(p):
        return np.linalg.norm(p - x0, axis=-1) + 2.0

    f = QCFunction(domain=disk, eval_many=f_eval, lipschitz=1.0)
    F = mcshane_extend(f)
    pts = np.array([[3.0, 0.0], [0.0, -4.0], [2.0, 2.0]])
    # triangle-inequality oracle: the same formula holds globally
    assert np.allclose(F(pts), f_eval(pts), atol=1e-6)


def test_mcshane_brute_force_oracle():
    disk = Body2.ball((0, 0), 1.0)
    g = np.array([1.0, 0.5])
    L = float(np.linalg.norm(g))
    f = QCFunction(domain=disk, eval_many=lambda p: p @ g, lipschitz=L)
    F = mcshane_extend(f)
    rng = np.random.default_rng(5)
    th = rng.uniform(0, 2 * math.pi, 4000)
    r = np.sqrt(rng.uniform(0, 1, 4000))
    dense = np.column_stack([r * np.cos(th), r * np.sin(th)])
    for x in ([2.0, 1.0], [0.0, 3.0], [-2.0, -2.0]):
        x = np.asarray(x)
        brute = float(np.min(dense @ g + L * np.linalg.norm(x - dense, axis=1)))
        # the dense sample is the cruder side; allow its resolution
        assert float(F(x[None, :])[0]) == pytest.approx(brute, abs=0.05)
        assert float(F(x[None, :])[0]) <= brute + 1e-9


# -- quasiconvexity checker -----------------------------------------------------------

def test_qc_check_convex_passes():
    sq = Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    rep = quasiconvex_check(lambda p: (p ** 2).sum(-1), sq, 20_000, seed=6)
    assert rep.passed


def test_qc_check_flags_xy():
    sq = Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    rep = quasiconvex_check(lambda p: np.abs(p[:, 0] * p[:, 1]), sq, 10_000, seed=43)
    assert not rep.passed
    assert rep.worst >= 0.2
    x, y, lam, fx, fy, fm = rep.witness
    assert fm > max(fx, fy)


# -- moduli ----------------------------------------------------------------------------

def test_modulus_linear_slope():
    sq = Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    g = np.array([0.6, -0.8])
    est = lipschitz_estimate(lambda p: p @ g, sq, 20_000, seed=7)
    assert est == pytest.approx(1.0, rel=0.02)


def test_modulus_constant_zero():
    sq = Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    table = modulus_estimate(lambda p: np.zeros(len(p)), sq, 2_000, seed=8)
    assert np.allclose(table.omegas, 0.0)


def test_modulus_below_line(parabola):
    levels = np.array([0.0, 1.0, 2.0])
    fam = chord_family(parabola, levels)
    f = staircase_qc(parabola, fam.bodies, levels, np.append(np.diff(levels), 1.0))
    table = modulus_estimate(f.eval_many, parabola, 20_000, seed=9)
    assert np.all(table.omegas <= table.ts + 1e-9)


def test_modulus_table_validation():
    with pytest.raises(LevelSetError):
        ModulusTable(np.array([0.0, 1.0]), np.array([0.5, 1.0]))
    with pytest.raises(LevelSetError):
        ModulusTable(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.5]))
