"""Command-line interface flows."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qcext
from qcext import serialize as ser
from qcext.cli import main
from qcext.geometry import Body2
from qcext.levelset import LevelFamily


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_body(tmp_path, name, body):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(ser.body_to_json(body)))
    return str(path)


def write_staircase(tmp_path, body, levels):
    bodies = [ser.body_to_json(body.clip([((0.0, 1.0), float(a))]))
              for a in levels]
    fn = {"kind": "staircase", "ambient": ser.body_to_json(body),
          "bodies": bodies, "levels": [float(a) for a in levels],
          "gaps": [float(g) for g in np.append(np.diff(levels), 1.0)]}
    path = tmp_path / "stair.json"
    path.write_text(json.dumps(fn))
    return str(path)


def test_body_make_validate_roundtrip(tmp_path, capsys):
    code, out, _ = run(["body", "make", "disk"], capsys)
    assert code == 0
    path = tmp_path / "disk.json"
    path.write_text(out)
    code, out2, _ = run(["body", "validate", str(path)], capsys)
    assert code == 0
    assert out2 == out


def test_body_make_unknown(capsys):
    code, _, err = run(["body", "make", "dodecahedron"], capsys)
    assert code == 2
    assert "unknown body" in err


def test_body_info_parabola(capsys):
    code, out, _ = run(["body", "make", "parabola"], capsys)
    import tempfile, os

    fd, path = tempfile.mkstemp(suffix=".json")
    os.write(fd, out.encode())
    os.close(fd)
    code, out, _ = run(["body", "info", path], capsys)
    os.unlink(path)
    assert code == 0
    info = json.loads(out)
    assert info["bounded"] is False
    assert info["rotund"] is True
    assert info["asymptotic_direction"] is None


def test_body_validate_nonconvex(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "polychain",
                                "vertices": [[0, 0], [2, 0], [1, 1], [2, 2], [0, 2]]}))
    code, _, err = run(["body", "validate", str(path)], capsys)
    assert code == 2
    assert "convex" in err


def test_extend_csv_and_tags(tmp_path, capsys):
    par = Body2.epigraph("parabola")
    body_path = write_body(tmp_path, "par", par)
    fn_path = write_staircase(tmp_path, par, np.linspace(0.0, 12.0, 5))
    out_csv = tmp_path / "grid.csv"
    svg = tmp_path / "levels.svg"
    code, _, _ = run(["extend", "--body", body_path, "--function", fn_path,
                      "--grid", "16", "--window-box=-4,4,-4,4",
                      "--out", str(out_csv), "--svg", str(svg)], capsys)
    assert code == 0
    text = out_csv.read_text()
    assert "# regularity: continuous" in text
    assert "x,y,F" in text
    assert svg.read_text().startswith("<svg")


def test_extend_usc_tag(tmp_path, capsys):
    rect = Body2.from_polychain([(0, -1), (1, -1), (1, 1), (0, 1)])
    body_path = write_body(tmp_path, "rect", rect)
    fn_path = write_staircase(tmp_path, rect, np.array([0.0, 0.5, 1.0]))
    out_csv = tmp_path / "rect.csv"
    code, _, _ = run(["extend", "--body", body_path, "--function", fn_path,
                      "--grid", "8", "--window-box=-2,2,-2,2",
                      "--out", str(out_csv)], capsys)
    assert code == 0
    assert "# regularity: usc-only" in out_csv.read_text()


@pytest.mark.parametrize("command", ["extend", "plot"])
def test_bad_family_file_exits_2(tmp_path, capsys, command):
    par = Body2.epigraph("parabola")
    body_path = write_body(tmp_path, "par", par)
    nested = write_staircase(tmp_path, par, np.array([0.0, 1.0]))
    bad = json.loads(open(nested).read())
    bad["bodies"].reverse()
    files = {"no_bodies": {"kind": "staircase", "levels": [0.0, 1.0]},
             "wrong_kind": {"kind": "tilde_f"}, "not_nested": bad}
    # json writes and reads NaN and Infinity
    for name, level in (("nan_level", np.nan), ("inf_level", np.inf)):
        files[name] = {**json.loads(open(nested).read()), "levels": [0.0, level]}
    for name, data in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        code, _, err = run([command, "--body", body_path, "--function", str(path),
                            "--grid", "8", "--out", str(tmp_path / "out")], capsys)
        assert code == 2, name
        assert "invalid input" in err, name


@pytest.mark.parametrize("command", [["characterize"], ["certify", "--kind", "no-lip"],
                                     ["extend", "--function", "missing.json"]])
def test_body_missing_key_exits_2(tmp_path, capsys, command):
    bodies = {"center": {"kind": "ball", "radius": 1.0},
              "offset": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0,
                         "cuts": [{"normal": [0.0, 1.0]}]}}
    for key, data in bodies.items():
        path = tmp_path / f"no_{key}.json"
        path.write_text(json.dumps(data))
        code, _, err = run(command + ["--body", str(path)], capsys)
        assert code == 2, key
        assert "invalid input" in err and repr(key) in err, key


def test_certify_no_lip(tmp_path, capsys):
    disk_path = write_body(tmp_path, "disk", Body2.ball((0, 0), 1.0))
    prefix = tmp_path / "nolip"
    code, out, _ = run(["certify", "--kind", "no-lip", "--body", disk_path,
                        "--kmax", "12", "--out", str(prefix)], capsys)
    assert code == 0
    cert = json.loads((tmp_path / "nolip.json").read_text())
    assert cert["kind"] == "no_lip"
    table = (tmp_path / "nolip_blowup.csv").read_text()
    assert table.splitlines()[1] == "k,secant_gap,alpha_next,product,K_lower"


def test_certify_hypothesis_failure(tmp_path, capsys):
    disk_path = write_body(tmp_path, "disk", Body2.ball((0, 0), 1.0))
    code, _, err = run(["certify", "--kind", "no-uc", "--body", disk_path], capsys)
    assert code == 2
    assert "bounded" in err


def test_certify_usc(tmp_path, capsys):
    prefix = tmp_path / "usc"
    code, _, _ = run(["certify", "--kind", "usc", "--out", str(prefix)], capsys)
    assert code == 0
    data = json.loads((tmp_path / "usc.json").read_text())
    assert data["value_bottom"] == 0.0 and data["value_corner"] == 1.0


def test_characterize_quartet(tmp_path, capsys):
    want = {"disk": "UC_EXTENDABLE", "parabola": "C_EXTENDABLE",
            "square": "QC_EXTENDABLE", "exp_hypograph": "NOT_QC_EXTENDABLE"}
    for name, cls in want.items():
        code, out, _ = run(["body", "make", name], capsys)
        path = tmp_path / f"{name}.json"
        path.write_text(out)
        code, out, _ = run(["characterize", "--body", str(path)], capsys)
        assert code == 0
        assert out.splitlines()[0] == cls


def test_verify_exit_codes(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(["verify", "--suite", "levelset", "--budget", "small",
                        "--seed", "7", "--out", str(report)], capsys)
    assert code == 0
    assert "PASS" in out
    data = json.loads(report.read_text())
    assert data["failures"] == 0
    code, out, _ = run(["verify", "--suite", "levelset", "--budget", "small",
                        "--seed", "7", "--plant-failure"], capsys)
    assert code == 1
    assert "planted_xy_violation" in out


def test_env_seed_precedence(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QCEXT_SEED", "9")
    code, out, _ = run(["verify", "--suite", "levelset", "--budget", "small"], capsys)
    assert code == 0
    assert "seed 9" in out
    # explicit flag wins over the environment
    code, out, _ = run(["verify", "--suite", "levelset", "--budget", "small",
                        "--seed", "3"], capsys)
    assert "seed 3" in out


def test_bad_window_box_exits_2(tmp_path):
    disk_path = write_body(tmp_path, "disk", Body2.ball((0, 0), 1.0))
    with pytest.raises(SystemExit) as exc:
        main(["plot", "--body", disk_path, "--window-box=1,2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("box", ["1,1,0,1", "0,1,2,2", "2,1,0,1", "0,1,1,0",
                                 "0,nan,0,1", "-inf,1,0,1", "0,1,0,inf"])
@pytest.mark.parametrize("command", ["plot", "extend"])
def test_empty_reversed_or_infinite_window_box_exits_2(tmp_path, capsys, box, command):
    """--window-box takes only a finite box with xmin < xmax and ymin < ymax."""
    disk = Body2.ball((0, 0), 1.0)
    disk_path = write_body(tmp_path, "disk", disk)
    argv = ["plot", "--body", disk_path]
    if command == "extend":
        fn_path = write_staircase(tmp_path, disk, np.array([-0.5, 0.0, 0.5]))
        argv = ["extend", "--body", disk_path, "--function", fn_path, "--grid", "4",
                "--out", str(tmp_path / "grid.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--window-box={box}", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "xmin < xmax" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["body", "make", "disk", "--params", "[1]"], "--params must be a JSON object"),
    (["body", "make", "disk", "--params", "x"], "invalid input"),
    (["body", "make", "disk", "--grid", "0"], "must be positive"),
    (["body", "make", "disk", "--tol", "-1"], "must be positive")])
def test_malformed_settings_exit_2_with_one_line(capsys, argv, message):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and message in err


@pytest.mark.parametrize("name, params, message", [
    ("disk", '{"radius": "x"}', "'radius' must be a finite number"),
    ("cosh", '{"c": "y"}', "'c' must be a finite number"),
    ("disk", '{"radius": NaN}', "'radius' must be a finite number"),
    ("disk", '{"center": [1]}', "'center' must be a pair of finite numbers"),
    ("parabola", '{"q": 1}', "takes --params keys ['a', 'c'], not ['q']"),
    ("disk", '{"a": -1}', "takes --params keys ['center', 'radius'], not ['a']"),
    ("square", '{"radius": 2}', "'square' takes no --params")])
def test_body_make_bad_params_exit_2_with_one_line(capsys, name, params, message):
    code, out, err = run(["body", "make", name, "--params", params], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and message in err


def test_body_make_params_reach_the_body(capsys):
    code, out, _ = run(["body", "make", "disk", "--params",
                        '{"center": [1, 2], "radius": 3}'], capsys)
    assert code == 0
    body = ser.body_from_json(json.loads(out))
    assert np.allclose(body.base.center, [1.0, 2.0]) and body.base.radius == 3.0
    code, out, _ = run(["body", "make", "parabola", "--params", '{"a": 2, "c": 0}'], capsys)
    assert code == 0
    assert ser.body_from_json(json.loads(out)).base.profile.params == {"a": 2.0, "c": 0.0}


def test_certify_kmax_below_one_exits_2(tmp_path, capsys):
    hyp_path = write_body(tmp_path, "hyp", Body2.epigraph("exp_hypograph"))
    code, _, err = run(["certify", "--kind", "no-qc", "--body", hyp_path, "--kmax", "0",
                        "--out", str(tmp_path / "cert")], capsys)
    assert code == 2
    assert "k_max must be at least 1" in err
    assert not (tmp_path / "cert.json").exists()


def test_plot_body_and_certificate(tmp_path, capsys):
    disk_path = write_body(tmp_path, "disk", Body2.ball((0, 0), 1.0))
    out_svg = tmp_path / "disk.svg"
    code, _, _ = run(["plot", "--body", disk_path, "--window-box=-2,2,-2,2",
                      "--out", str(out_svg)], capsys)
    assert code == 0
    assert out_svg.read_text().startswith("<svg")
    prefix = tmp_path / "nolip"
    run(["certify", "--kind", "no-lip", "--body", disk_path, "--kmax", "10",
         "--out", str(prefix)], capsys)
    cert_svg = tmp_path / "cert.svg"
    code, _, _ = run(["plot", "--certificate", str(tmp_path / "nolip.json"),
                      "--out", str(cert_svg)], capsys)
    assert code == 0
    assert cert_svg.read_text().startswith("<svg")


@pytest.mark.parametrize("kind, body", [
    ("no-uc", Body2.epigraph("parabola")),
    ("no-qc", Body2.epigraph("exp_hypograph")),
    ("non-rotund", Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)]))])
def test_certify_then_plot_certificate(tmp_path, capsys, kind, body):
    body_path = write_body(tmp_path, "body", body)
    prefix = tmp_path / "cert"
    code, out, _ = run(["certify", "--kind", kind, "--body", body_path, "--kmax", "8",
                        "--out", str(prefix)], capsys)
    assert code == 0
    assert json.loads((tmp_path / "cert.json").read_text())["kind"] == kind.replace("-", "_")
    svg = tmp_path / "cert.svg"
    code, _, _ = run(["plot", "--certificate", str(tmp_path / "cert.json"),
                      "--out", str(svg)], capsys)
    assert code == 0
    assert svg.read_text().startswith("<svg")


def test_certify_without_body_exits_2(capsys):
    code, _, err = run(["certify", "--kind", "no-lip"], capsys)
    assert code == 2
    assert "no body given" in err


def test_extend_reads_family_json(tmp_path, capsys):
    """extend reads a family written by family_to_json, and its grid equals
    the one from the same family written as a staircase function."""
    par = Body2.epigraph("parabola")
    body_path = write_body(tmp_path, "par", par)
    levels = np.linspace(0.0, 12.0, 5)
    fam = LevelFamily(levels, [par.clip([((0.0, 1.0), float(a))]) for a in levels], par)
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps(ser.family_to_json(fam)))
    grids = []
    for fn_path in (str(fam_path), write_staircase(tmp_path, par, levels)):
        out_csv = tmp_path / "grid.csv"
        code, _, err = run(["extend", "--body", body_path, "--function", fn_path,
                            "--grid", "8", "--window-box=-4,4,-4,4", "--out", str(out_csv)],
                           capsys)
        assert code == 0, err
        grids.append(out_csv.read_text())
    assert grids[0] == grids[1]
    assert f"# family: {ser.family_hash(fam)}" in grids[0]


@pytest.mark.parametrize("kind", ["family", "staircase"])
def test_extend_rejects_a_non_numeric_level(tmp_path, capsys, kind):
    """A family or staircase JSON whose levels are not numbers is invalid
    input (exit 2, LevelSetError), not a traceback."""
    par = Body2.epigraph("parabola")
    body_path = write_body(tmp_path, "par", par)
    fn_path = write_staircase(tmp_path, par, [0.0, 1.0])
    data = json.loads(open(fn_path).read())
    if kind == "family":
        del data["kind"], data["gaps"]
    data["levels"] = ["a", 1.0]
    with open(fn_path, "w") as fh:
        json.dump(data, fh)
    code, _, err = run(["extend", "--body", body_path, "--function", fn_path,
                        "--grid", "4", "--window-box=-2,2,-2,2",
                        "--out", str(tmp_path / "grid.csv")], capsys)
    assert code == 2
    assert "levels must be numbers" in err


_NO_SCIPY = """
import sys
import qcext, qcext.cli
assert "scipy" not in sys.modules, "importing qcext loaded scipy"
assert qcext.cli.main(["characterize", "--body", {path!r}]) == 0
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""


def test_import_and_characterize_leave_scipy_unloaded(tmp_path):
    """In a fresh interpreter, importing qcext and its CLI and then
    characterizing the square loads no scipy module."""
    path = write_body(tmp_path, "square", Body2.from_polychain(
        [(-1, -1), (1, -1), (1, 1), (-1, 1)]))
    src = os.path.dirname(os.path.dirname(qcext.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY.format(path=path)], env=env,
                         capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "QC_EXTENDABLE"
