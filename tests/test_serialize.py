"""JSON/CSV interchange round trips."""

import json

import numpy as np
import pytest

from qcext import serialize as ser
from qcext.counterexamples import gen_no_lip, gen_no_uc, gen_no_qc, gen_usc_counterexample
from qcext.extension import extend_function
from qcext.geometry import Body2
from qcext.levelset import LevelFamily, sample_domain, staircase_qc


def roundtrip_body(body, pts):
    data = ser.body_to_json(body)
    back = ser.body_from_json(json.loads(json.dumps(data)))
    assert np.array_equal(body.contains_many(pts), back.contains_many(pts))
    return data


def test_body_roundtrips():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-4, 4, (400, 2))
    roundtrip_body(Body2.ball((0.3, -0.2), 1.5), pts)
    roundtrip_body(Body2.ball((0, 0), 1.0).clip([((1.0, 0.0), 0.0)]), pts)
    roundtrip_body(Body2.from_halfplanes([((0.0, 1.0), 1.0), ((1.0, 0.0), 2.0)]), pts)
    roundtrip_body(Body2.epigraph("parabola"), pts)
    roundtrip_body(Body2.epigraph("exp_hypograph"), pts)
    roundtrip_body(Body2.epigraph("cosh", {"c": -3.0}), pts)
    roundtrip_body(Body2.epigraph("custom_poly", {"coeffs": [0.0, 0.0, 0.5]}), pts)


def test_polychain_parse():
    data = {"kind": "polychain",
            "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]}
    body = ser.body_from_json(data)
    assert body.bounded
    data = {"kind": "polychain", "vertices": [[0, 0], [2, 0]],
            "rays": [[-1, 1], [1, 1]]}
    body = ser.body_from_json(data)
    assert not body.bounded


def test_unknown_kind():
    with pytest.raises(Exception):
        ser.body_from_json({"kind": "blob"})


def test_function_roundtrip_staircase():
    par = Body2.epigraph("parabola")
    levels = np.array([0.0, 1.0, 2.0])
    bodies = [par.clip([((0.0, 1.0), float(a))]) for a in levels]
    f = staircase_qc(par, bodies, levels, np.append(np.diff(levels), 1.0))
    back = ser.function_from_json(json.loads(json.dumps(ser.function_to_json(f))))
    rng = np.random.default_rng(1)
    pts = sample_domain(par, 500, rng, window=(-3, 3, -2, 5))
    assert np.allclose(f.eval_many(pts), back.eval_many(pts), atol=1e-12)


def test_function_roundtrip_ramp():
    par = Body2.epigraph("parabola")
    f, _ = gen_no_uc(par, k_max=6)
    back = ser.function_from_json(json.loads(json.dumps(ser.function_to_json(f))))
    rng = np.random.default_rng(2)
    pts = sample_domain(par, 500, rng, window=(-4, 4, -1.5, 8))
    assert np.allclose(f.eval_many(pts), back.eval_many(pts), atol=1e-12)


def test_function_roundtrip_composed():
    par = Body2.epigraph("parabola")
    levels = np.array([0.0, 1.0])
    bodies = [par.clip([((0.0, 1.0), float(a))]) for a in levels]
    f = staircase_qc(par, bodies, levels, np.array([1.0, 1.0]))
    from qcext.levelset import compose_projection

    g = compose_projection(f, np.array([[0.0, -1.0], [1.0, 0.0]]))
    back = ser.function_from_json(json.loads(json.dumps(ser.function_to_json(g))))
    pts = np.array([[0.5, 0.0], [2.0, 0.3], [-1.0, 0.7]])
    assert np.allclose(g.eval_many(pts), back.eval_many(pts), atol=1e-12)


def test_certificate_json_and_tables():
    disk = Body2.ball((0, 0), 1.0)
    _, cert = gen_no_lip(disk, k_max=8)
    data = ser.certificate_to_json(cert)
    assert data["kind"] == "no_lip"
    tables = ser.certificate_tables(cert)
    header, rows = tables["blowup"]
    assert header[0] == "k" and len(np.atleast_2d(rows)) == 9
    back = ser.certificate_from_json(json.loads(json.dumps(data)))
    assert np.allclose(back.lip_lower_bounds, cert.lip_lower_bounds)

    hyp = Body2.epigraph("exp_hypograph")
    _, fc = gen_no_qc(hyp, k_max=6)
    data = ser.certificate_to_json(fc)
    assert data["kind"] == "no_qc" and data["trend"]["increasing"]

    _, wit = gen_usc_counterexample()
    data = ser.certificate_to_json(wit)
    assert data["value_corner"] == 1.0


def test_csv_17_digit_roundtrip(tmp_path):
    vals = np.array([[1.0 / 3.0, np.pi, 1e-17], [2.0 / 7.0, 1.7976931348623157e308, -0.0]])
    path = tmp_path / "vals.csv"
    ser.write_csv(path, ["a", "b", "c"], vals, {"note": "x"})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    parsed = np.array([[float(v) for v in line.split(",")]
                       for line in lines[2:]])
    assert np.array_equal(parsed, vals)


def test_grid_csv_metadata():
    par = Body2.epigraph("parabola")
    levels = np.array([0.0, 1.0])
    bodies = [par.clip([((0.0, 1.0), float(a))]) for a in levels]
    fam = LevelFamily(levels, bodies, par)
    res = extend_function(fam)
    text = ser.grid_csv(res, (-2, 2, -2, 2), 8, {"regularity": res.regularity})
    head = text.splitlines()
    assert any("regularity: continuous" in ln for ln in head[:4])
    assert head[:6][-1].count(",") == 2 or "x,y,F" in text


def test_family_hash_stable():
    par = Body2.epigraph("parabola")
    levels = np.array([0.0, 1.0])
    bodies = [par.clip([((0.0, 1.0), float(a))]) for a in levels]
    fam = LevelFamily(levels, bodies, par)
    assert ser.family_hash(fam) == ser.family_hash(fam)


def test_fuzz_bodies_roundtrip_bit_for_bit():
    """Each of verify.fuzz_bodies(1, 400) reads back from its JSON with the
    same cut table, bit for bit: a stored unit normal keeps its bits."""
    from qcext.verify import fuzz_bodies

    for i, body in enumerate(fuzz_bodies(1, 400)):
        back = ser.body_from_json(json.loads(json.dumps(ser.body_to_json(body))))
        assert back.cut_table.normals.tobytes() == body.cut_table.normals.tobytes(), i
        assert back.cut_table.offsets.tobytes() == body.cut_table.offsets.tobytes(), i


def test_family_roundtrip():
    """family_from_json reads what family_to_json writes: the same levels,
    the same cut tables and the same hash; a staircase function's JSON
    gives its family, and another kind raises GeometryError."""
    from qcext.geometry import GeometryError

    par = Body2.epigraph("parabola")
    levels = np.linspace(0.0, 6.0, 4)
    bodies = [par.clip([((0.3, 1.0), float(a))]) for a in levels]
    fam = LevelFamily(levels, bodies, par)
    data = json.loads(json.dumps(ser.family_to_json(fam)))
    back = ser.family_from_json(data)
    assert back.levels.tobytes() == fam.levels.tobytes()
    for b, want in zip([back.ambient, *back.bodies], [par, *bodies]):
        assert b.cut_table.normals.tobytes() == want.cut_table.normals.tobytes()
        assert b.cut_table.offsets.tobytes() == want.cut_table.offsets.tobytes()
    assert ser.family_hash(back) == ser.family_hash(fam)
    f = staircase_qc(par, bodies, levels, np.append(np.diff(levels), 1.0), check_gaps=False)
    stair = ser.family_from_json(json.loads(json.dumps(ser.function_to_json(f))), par)
    assert stair.ambient is par and ser.family_hash(stair) == ser.family_hash(fam)
    with pytest.raises(GeometryError, match="tilde_f"):
        ser.family_from_json({"kind": "tilde_f"})
