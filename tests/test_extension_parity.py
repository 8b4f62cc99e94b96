"""Extension outputs against values stored from the implementation that kept
each e(B) both as (m, 3) rows and as a HalfPlane tuple and tested the
ambient twice per on-body point: the level tables, the covering indices and
the extension's values must not move by a bit.

tests/data/extension_parity.json holds them (level tables as floats, which
JSON round-trips exactly; covering indices and extension values as level
indices).  They were computed with numpy 2.4.6 on x86-64 Linux.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qcext.extension import CONTAIN_TOL, ExtensionOperator, extend_function
from qcext.geometry import Body2
from qcext.levelset import SENTINEL, LevelFamily

STORED = json.loads((Path(__file__).parent / "data" / "extension_parity.json").read_text())


def parabola_family():
    par = Body2.epigraph("parabola")
    levels = np.linspace(0.0, 30.0, 31)
    return LevelFamily(levels, [par.clip([((0.0, 1.0), float(a))]) for a in levels], par)


def disk_mixed_family():
    """The empty set, a disk chord, a square inside the disk, a disk chord."""
    disk = Body2.ball((0.0, 0.0), 1.0)
    other = Body2.from_polychain([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    return LevelFamily(np.arange(4.0), [None, disk.clip([((0.0, 1.0), -0.5)]), other,
                                        disk.clip([((0.0, 1.0), 0.5)])], disk)


def transformed_chord_family(K=100):
    """K nested chords of a rotated, scaled and shifted parabola, as in the
    benchmark's chord_cover and extend_eval workloads."""
    th, lam, shift, tilt = 0.7, 1.3, np.array([0.4, -1.2]), 0.2
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    C = Body2.epigraph("parabola", None, np.column_stack([lam * R, shift]))
    m = np.array([np.sin(tilt), np.cos(tilt)])
    u_star = -m[0] / (2.0 * m[1])
    d = m[0] * u_star + m[1] * (u_star ** 2 - 1.0) + 1.0 + np.arange(K, dtype=float)
    n_w = R @ m
    bodies = [C.clip([(n_w, lam * c + float(n_w @ shift))]) for c in d]
    return LevelFamily(d, bodies, C)


def box_points(fam, n=2000, seed=17):
    """n uniform points of a box about the parabola's vertex, on and off it."""
    vertex = fam.ambient.base.from_profile(np.array([[0.0, -1.0]]))[0]
    return vertex + 1.3 * np.random.default_rng(seed).uniform(-5.0, 5.0, (n, 2))


@pytest.mark.parametrize("name", ["parabola", "disk_mixed"])
def test_level_table_matches_stored(name):
    fam = {"parabola": parabola_family, "disk_mixed": disk_mixed_family}[name]()
    got = ExtensionOperator(fam).level_table
    want = np.array(STORED["level_table"][name], dtype=float)
    assert got.tobytes() == want.tobytes()


def test_covering_indices_match_stored():
    fam = transformed_chord_family()
    pts = box_points(fam)
    op = ExtensionOperator(fam)
    idx = op.first_level(pts, lambda m: m <= CONTAIN_TOL)
    want = np.array(STORED["covering_index"])
    assert np.array_equal(idx, want)
    covered = want < len(fam)
    assert covered.sum() > 1000 and (~covered).any()
    assert np.array_equal(op.covering_index_many(pts[covered]), want[covered])


def test_extension_values_match_stored():
    fam = transformed_chord_family()
    pts = box_points(fam)
    values = extend_function(fam).eval_many(pts)
    want = np.append(fam.levels, SENTINEL)[STORED["extension_value_index"]]
    assert values.tobytes() == want.tobytes()
    on = fam.ambient.contains_many(pts)
    assert 300 < on.sum() < len(pts) - 300
