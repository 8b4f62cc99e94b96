"""Boundary piece chains against values stored from the implementation that
oriented each piece by tests at its midpoint and ordered the pieces by
matching their ends: pieces(), closed_chain and boundary_samples(50) must
not move by a bit.

tests/data/piece_chains.json holds, per body, each piece's kind, start and
end (float64 bytes in hex) and, for a graph piece, its direction, then the
closed flag and the boundary samples' bytes.  They were computed with
numpy 2.4.6 on x86-64 Linux.  Regenerate with

    PYTHONPATH=src python tests/test_piece_chains.py > tests/data/piece_chains.json

only where a change means to move them.  Giving flipped graph pieces the
parameter t = -u (in place of (u0 + u1) - u, which lost up to 1.4e-6 on
the exp hypograph's samples) and stopping chords at their rounding targets
moved 135 numbers of five records; each new value is within 1.3e-11 of the
50-digit point it stands for.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from qcext.geometry import BallBase, Body2, HalfPlane

DATA = Path(__file__).parent / "data" / "piece_chains.json"


def _reflected(th, lam, shift):
    """A scaled rotation followed by a reflection (det < 0), as [M | shift]."""
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    return np.column_stack([lam * R @ np.diag([1.0, -1.0]), shift])


def _cap():
    """A cap of height 1e-3 on a ball of radius 1e9: its chord (about
    2,800 long) is longer than the window box, and the chain's box holds
    the ball, so the chord keeps its ends and the chain closes."""
    R, h, n = 1e9, 1e-3, np.array([0.6, 0.8])
    top = R * n
    return Body2(BallBase((0.0, 0.0), R), (HalfPlane(-n, float(-n @ top) + h),),
                 witness=top - 0.5 * h * n)


def _long_parabola():
    """A flat parabola cut above its vertex and left of it: bounded, but
    reaching past its window on the right only, so the chain is open with
    one gap."""
    C = Body2.epigraph("parabola", {"a": 1e-7})
    return C.clip([((0.0, 1.0), 1.0), ((-1.0, 0.0), 1.0)])


BODIES = {
    "cut_ball": lambda: Body2.ball((0.3, -0.2), 1.5).clip([((0.6, 0.8), 0.5),
                                                            ((-1.0, 0.2), 0.9)]),
    "polygon_in_ball": lambda: Body2.ball((0.0, 0.0), 2.0).clip(
        list(Body2.from_polychain([(-1, -1), (1, -1), (1.2, 0.5), (-0.4, 1)]).cuts)),
    "cap_1e9": _cap,
    "parabola_1cut": lambda: Body2.epigraph(
        "parabola", {"a": 0.7}, _reflected(0.4, 1.3, (0.5, -1.0))).clip([((0.2, -1.0), 2.0)]),
    "cosh_2cuts": lambda: Body2.epigraph("cosh", {"c": -2.0}, _reflected(2.1, 0.8, (-1.0, 2.0)))
    .clip([((1.0, 0.3), 1.5), ((-0.6, 0.8), 1.0)]),
    "exp_hypograph_3cuts": lambda: Body2.epigraph(
        "exp_hypograph", None, _reflected(-0.9, 1.1, (0.0, 0.5)))
    .clip([((1.0, 0.0), 2.0), ((0.0, 1.0), 1.0), ((-0.7, -0.7), 3.0)]),
    "parabola_4cuts": lambda: Body2.epigraph("parabola", None, _reflected(1.0, 1.0, (0.0, 0.0)))
    .clip([((1.0, 0.0), 1.0), ((-1.0, 0.0), 1.2), ((0.3, 1.0), 3.0), ((-0.3, 1.0), 3.0)]),
    "exp_hypograph": lambda: Body2.epigraph("exp_hypograph"),
    "long_parabola": _long_parabola,
}


def chain_record(B) -> dict:
    pieces = [{"kind": pc.kind, "start": np.asarray(pc.start(), float).tobytes().hex(),
               "end": np.asarray(pc.end(), float).tobytes().hex(),
               "flipped": getattr(pc, "flipped", None)} for pc in B.pieces()]
    return {"pieces": pieces, "closed": bool(B.closed_chain),
            "samples": B.boundary_samples(50).tobytes().hex()}


@pytest.mark.parametrize("name", sorted(BODIES))
def test_piece_chain_matches_stored(name):
    want = json.loads(DATA.read_text())[name]
    assert chain_record(BODIES[name]()) == want


def _gaps(rec) -> int:
    """Pieces whose end is not within 1e-6 max(1, |end|) of the next start."""
    ends = [np.frombuffer(bytes.fromhex(pc[key])) for key in ("start", "end")
            for pc in rec["pieces"]]
    starts, ends = np.array(ends[:len(ends) // 2]), np.array(ends[len(ends) // 2:])
    tol = 1e-6 * max(1.0, np.linalg.norm(np.vstack([starts, ends]), axis=1).max())
    return int((np.linalg.norm(ends - np.roll(starts, -1, axis=0), axis=1) >= tol).sum())


def test_stored_chains_cover_each_case():
    """Closed chains (a cap whose chord outruns the window among them), an
    open chain with one gap, graph pieces in either direction and a lone
    piece are all among the stored bodies."""
    stored = json.loads(DATA.read_text())
    assert stored.keys() == BODIES.keys()
    kinds = {pc["kind"] for rec in stored.values() for pc in rec["pieces"]}
    assert kinds == {"segment", "arc", "graph"}
    assert {pc["flipped"] for rec in stored.values() for pc in rec["pieces"]
            if pc["kind"] == "graph"} == {False, True}
    gaps = {name: _gaps(rec) for name, rec in stored.items() if len(rec["pieces"]) > 1}
    assert all(stored[name]["closed"] == (g == 0) for name, g in gaps.items())
    assert gaps["cut_ball"] == gaps["polygon_in_ball"] == 0
    assert gaps["long_parabola"] == 1 and gaps["cap_1e9"] == 0
    assert len(stored["exp_hypograph"]["pieces"]) == 1


def test_ball_caps_close():
    """Caps of radius 1e6 to 1e9 and height 1e-4 to 1e-2 (seed 0) have
    chords far longer than the window box; each chain is closed."""
    rng = np.random.default_rng(0)
    for _ in range(12):
        R, h, th = 10.0 ** rng.uniform(6, 9), 10.0 ** rng.uniform(-4, -2), rng.uniform(0, 2 * math.pi)
        n = np.array([math.cos(th), math.sin(th)])
        B = Body2(BallBase((0.0, 0.0), R), (HalfPlane(-n, float(-n @ (R * n)) + h),),
                  witness=(R - 0.5 * h) * n)
        assert B.closed_chain and [pc.kind for pc in B.pieces()] == ["arc", "segment"]


if __name__ == "__main__":
    print(json.dumps({name: chain_record(make()) for name, make in BODIES.items()}, indent=1))
