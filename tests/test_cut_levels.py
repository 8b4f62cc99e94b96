"""Level families given as an ambient plus per-level cut rows (CutLevels):
evaluation, nesting, extension and JSON equal the body-list family's, and a
level's Body2 is built only where something reads it."""

import json
import math

import numpy as np
import pytest

from qcext import counterexamples as cx
from qcext import serialize as ser
from qcext.extension import extend_function
from qcext.geometry import Body2, GeometryError, HalfPlane
from qcext.levelset import CutLevels, LevelFamily, LevelSetError, row_table, staircase_qc


def _gallery():
    t = 2.0 * math.pi * np.arange(24) / 24
    return {
        "disk": Body2.ball((0.0, 0.0), 1.0, name="disk"),
        "parabola": Body2.epigraph("parabola", name="parabola"),
        "square": Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)], name="square"),
        "hypograph": Body2.epigraph("exp_hypograph", name="hypograph"),
        "cosh": Body2.epigraph("cosh", name="cosh"),
        "triangle": Body2.from_polychain([(0, 1), (2, 1), (1, -3)], name="triangle"),
        "ellipse24": Body2.from_polychain(np.column_stack([2.0 * np.cos(t), np.sin(t)]),
                                          name="ellipse24"),
    }


_STAIRCASE_GENERATORS = ("gen_no_lip", "gen_no_qc", "gen_non_rotund")


#: (body, generator) for every staircase generator a gallery body is denied
_CASES = [(name, gen) for name, body in _gallery().items()
          for gen in dict.fromkeys(cx.characterize(body).denied.values())
          if gen in _STAIRCASE_GENERATORS]


@pytest.fixture
def level_builds(monkeypatch):
    """Names of the Body2 objects built while the fixture is active."""
    names = []
    init = Body2.__init__

    def counting(self, base, cuts=(), name="", witness=None):
        names.append(name)
        init(self, base, cuts, name=name, witness=witness)

    monkeypatch.setattr(Body2, "__init__", counting)
    return names


def _eager_staircase(f, cert):
    """The staircase of f with every level built up front as C.clip of the
    certificate's cuts, and the map from world points to its frame."""
    if cert.kind == "no_lip":
        stair, to_frame = f.meta["staircase"], cert.frame.apply
        cuts = cert.body_cuts
    else:
        stair, to_frame = f, (lambda pts: pts)
        cuts = [[hp] for hp in cert.forcing_halfplanes]
    C, fam = stair.domain, stair.meta["family"]
    bodies = [C.clip(c) for c in cuts]
    eager = staircase_qc(C, bodies, fam.levels, stair.meta["gaps"], check_gaps=False)
    return stair, eager, to_frame


def _probe_points(body, cert):
    """World points about the body's witness and, for no-lip, points at the
    shelves' scale about the frame's origin."""
    rng = np.random.default_rng(11)
    pts = body.witness + rng.normal(0.0, 3.0 * max(body.clearance, 0.5), (3000, 2))
    if cert.kind == "no_lip":
        eps = cert.eps
        near = np.column_stack([rng.uniform(-eps, 2 * eps, 3000), rng.uniform(0.0, eps, 3000)])
        pts = np.vstack([pts, cert.frame.invert(near)])
    return pts


@pytest.mark.parametrize("k_max", [8, 24])
@pytest.mark.parametrize("name,gen", _CASES)
def test_generator_staircase_equals_eager_levels(name, gen, k_max):
    """f.eval_many equals bit for bit the staircase whose levels are built
    up front from C.clip of the same cuts (gen_no_lip scans 16 directions
    at k_max 8, 64 at 24)."""
    body = _gallery()[name]
    kw = {"scan": 16 if k_max == 8 else 64} if gen == "gen_no_lip" else {}
    f, cert = getattr(cx, gen)(body, k_max=k_max, **kw)
    stair, eager, to_frame = _eager_staircase(f, cert)
    assert isinstance(stair.meta["family"].bodies, CutLevels)
    pts = _probe_points(body, cert)
    want = eager.eval_many(to_frame(pts))
    assert np.array_equal(f.eval_many(pts), want)
    assert len(np.unique(want)) > 3


@pytest.mark.parametrize("name,gen", _CASES)
def test_generators_build_no_level(level_builds, name, gen):
    """Generating a certificate builds no level body; evaluating f builds
    only levels whose distance a ramp measures, each once."""
    body = _gallery()[name]
    f, cert = getattr(cx, gen)(body, k_max=8, **({"scan": 16} if gen == "gen_no_lip" else {}))
    prefix = "shelf" if gen == "gen_no_lip" else "wedge"
    assert not [n for n in level_builds if n.startswith(prefix)]
    ser.certificate_to_json(cert)
    stair = f.meta["staircase"] if gen == "gen_no_lip" else f
    ser.function_to_json(stair)
    assert not [n for n in level_builds if n.startswith(prefix)]
    rng = np.random.default_rng(2)
    pts = body.witness + rng.normal(0.0, 2.0, (2000, 2))
    f.eval_many(pts)
    f.eval_many(pts)
    built = [n for n in level_builds if n.startswith(prefix)]
    assert len(built) == len(set(built)) <= len(stair.meta["family"])


def _parabola_cut_family():
    par = Body2.epigraph("parabola")
    levels = np.linspace(0.0, 12.0, 6)
    rows = [[(0.0, 1.0, a)] if k % 2 else [(0.0, 1.0, a), (1.0, 0.0, 1.0 + a)]
            for k, a in enumerate(levels)]
    return par, levels, rows


def _body_list(C, levels, rows):
    return LevelFamily(levels, [C.clip([HalfPlane(r[:2], r[2]) for r in level])
                                for level in rows], C)


def _disk_shelf_family():
    """gen_no_lip's shelves on the disk: two cuts a level."""
    f, _ = cx.gen_no_lip(Body2.ball((0.0, 0.0), 1.0), k_max=8, scan=16)
    fam = f.meta["staircase"].meta["family"]
    return fam.ambient, fam.levels, [fam.bodies.cuts(k) for k in range(len(fam))]


@pytest.mark.parametrize("make", [_parabola_cut_family, _disk_shelf_family])
def test_cut_family_nesting_and_extension_equal_body_list(make):
    """validate_nesting and extend_function's level table of a cut family
    equal those of the same levels built as bodies, and a cut family
    evaluates like one."""
    C, levels, rows = make()
    cut = LevelFamily.from_cuts(levels, C, row_table([np.asarray(r, float) for r in rows]))
    listed = _body_list(C, levels, rows)
    assert cut.validate_nesting() and listed.validate_nesting()
    got = extend_function(cut).operator.level_table
    want = extend_function(listed).operator.level_table
    assert np.array_equal(got, want)
    rng = np.random.default_rng(5)
    pts = C.witness + rng.normal(0.0, 4.0 * max(C.clearance, 1.0), (4000, 2))
    assert np.array_equal(cut.eval_many(pts), listed.eval_many(pts))


def test_cut_family_nesting_names_the_same_pair():
    par, levels, rows = _parabola_cut_family()
    rows[3], rows[4] = rows[4], rows[3]
    table = row_table([np.asarray(r, float) for r in rows])
    for fam in (LevelFamily.from_cuts(levels, par, table), _body_list(par, levels, rows)):
        with pytest.raises(LevelSetError, match="body 3 is not contained in body 4"):
            fam.validate_nesting()


def test_cut_family_json_equals_body_list_and_round_trips(level_builds):
    """family_to_json writes a cut family without building a level, byte for
    byte as the body-list family; reading it back keeps the levels and the
    cut table."""
    for C, levels, rows in (_parabola_cut_family(), _disk_shelf_family()):
        listed = _body_list(C, levels, rows)
        cut = LevelFamily.from_cuts(levels, C, row_table([np.asarray(r, float) for r in rows]),
                                    name="cut")
        del level_builds[:]
        text = json.dumps(ser.family_to_json(cut))
        assert level_builds == []
        assert text == json.dumps(ser.family_to_json(listed))
        back = ser.family_from_json(json.loads(text))
        assert np.array_equal(back.levels, cut.levels)
        assert np.array_equal(back._cut_rows, cut._cut_rows)
        assert json.dumps(ser.family_to_json(back)) == text


def test_cut_family_with_an_empty_level_raises_on_first_use():
    """A cut family whose level 0 misses the disk is built without error and
    evaluates from its table; reading the level, validating the nesting or
    a staircase ramp that measures the distance to it raises GeometryError."""
    disk = Body2.ball((0.0, 0.0), 1.0)
    table = row_table([np.array([(0.0, 1.0, -2.0)]), np.array([(0.0, 1.0, 0.5)])])
    fam = LevelFamily.from_cuts([0.0, 1.0], disk, table)
    pts = np.array([[0.0, 0.0], [0.0, 0.9]])
    assert fam.eval_many(pts).tolist() == [1.0, fam.sentinel]
    with pytest.raises(GeometryError, match="empty interior"):
        fam.bodies[0]
    with pytest.raises(GeometryError, match="empty interior"):
        fam.validate_nesting()
    stair = staircase_qc(disk, CutLevels(disk, table), [0.0, 1.0], [1.0, 1.0],
                         check_gaps=False)
    with pytest.raises(GeometryError, match="empty interior"):
        stair.eval_many(pts)


def test_cut_levels_reject_bad_rows():
    disk = Body2.ball((0.0, 0.0), 1.0)
    with pytest.raises(LevelSetError, match="unit normals"):
        CutLevels(disk, [[(0.0, 2.0, 1.0)]])
    with pytest.raises(LevelSetError, match="table"):
        CutLevels(disk, [(0.0, 1.0, 1.0)])
    with pytest.raises(LevelSetError, match="ambient"):
        LevelFamily([0.0], CutLevels(disk, [[(0.0, 1.0, 0.5)]]), Body2.ball((0.0, 0.0), 1.0))
