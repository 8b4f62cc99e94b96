"""The unit-chord chain of gen_no_uc, solved in one piece (_unit_chain),
against the link-by-link loop it replaces: each link one _chord_params
call from the one before.  The chains must agree bit for bit."""

import math

import numpy as np
import pytest

import qcext.counterexamples as cx
from qcext.counterexamples import ConstructionError, gen_no_uc
from qcext.geometry import Body2


def _links_one_by_one(base, u0, ahead, u_end, n):
    us = [u0]
    for _ in range(n):
        u = float(cx._chord_params(base, us[-1], ahead, u_end, 1.0))
        if math.isnan(u):
            raise ConstructionError("boundary branch exhausted inside the window")
        us.append(u)
    return np.array(us)


def _fuzzed(seed: int) -> Body2:
    """A parabola, cosh or custom_poly epigraph (by seed mod 3) under a
    seeded scaled isometry, reflected for odd seed // 3."""
    rng = np.random.default_rng(seed)
    th, lam = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 2.0)
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    if (seed // 3) % 2:
        R = R @ np.diag([1.0, -1.0])
    transform = np.column_stack([lam * R, rng.normal(0.0, 2.0, 2)])
    if seed % 3 == 0:
        params = {"a": float(rng.uniform(0.2, 3.0)), "c": float(rng.uniform(-2.0, 0.0))}
        return Body2.epigraph("parabola", params, transform)
    if seed % 3 == 1:
        return Body2.epigraph("cosh", {"c": float(rng.uniform(-3.0, -1.0))}, transform)
    coeffs = [float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)),
              float(rng.uniform(0.1, 1.0)), 0.0, float(rng.uniform(0.0, 0.2))]
    return Body2.epigraph("custom_poly", {"coeffs": coeffs}, transform)


def _chain_of(monkeypatch, body, k_max):
    """gen_no_uc's _unit_chain arguments, its chain, the number of links it
    handed to _chord_params, and the certificate."""
    seen, fallback = [], []
    unit_chain, chord_params = cx._unit_chain, cx._chord_params

    def spy(*args):
        monkeypatch.setattr(cx, "_chord_params",
                            lambda *a: fallback.append(1) or chord_params(*a))
        seen.append((args, unit_chain(*args)))
        monkeypatch.setattr(cx, "_chord_params", chord_params)
        return seen[-1][1]

    monkeypatch.setattr(cx, "_unit_chain", spy)
    _, cert = gen_no_uc(body, k_max=k_max)
    monkeypatch.undo()
    (args, chain), = seen
    return args, chain, len(fallback), cert


BODIES = {"parabola": lambda: Body2.epigraph("parabola"),
          "cosh": lambda: Body2.epigraph("cosh"),
          **{f"fuzz{seed}": (lambda seed=seed: _fuzzed(seed)) for seed in range(24)}}


@pytest.mark.parametrize("k_max", [8, 64])
@pytest.mark.parametrize("name", sorted(BODIES))
def test_chain_matches_links_one_by_one(monkeypatch, name, k_max):
    args, chain, _, cert = _chain_of(monkeypatch, BODIES[name](), k_max)
    assert args[-1] == 2 * k_max + 2
    want = _links_one_by_one(*args)
    assert chain.tobytes() == want.tobytes()
    assert np.array_equal(cert.points, args[0].graph_point(want))


@pytest.mark.parametrize("name", ["parabola", "cosh"])
def test_gallery_chains_settle_without_a_link_by_link_solve(monkeypatch, name):
    """On the gallery bodies every link settles in the chain's own solve."""
    *_, fallback, _ = _chain_of(monkeypatch, BODIES[name](), 64)
    assert fallback == 0


@pytest.mark.parametrize("name", ["parabola", "cosh", "fuzz2"])
def test_unsettled_links_fall_back_to_chord_params(monkeypatch, name):
    """With one Newton iteration the sweeps cannot settle the chain, and the
    links go through _chord_params one at a time: the same chain."""
    monkeypatch.setattr(cx, "_CHAIN_NEWTON_ITERS", 1)
    args, chain, fallback, _ = _chain_of(monkeypatch, BODIES[name](), 8)
    assert fallback > 0
    assert chain.tobytes() == _links_one_by_one(*args).tobytes()


def test_float_steps_are_consecutive_floats():
    s = np.array([1.0, -1.0, 0.0, 3.5e-300, -2.0 ** 60])
    got = cx._float_steps(s, np.arange(-3, 4, dtype=np.int64))
    assert np.array_equal(got[:, 3], s)
    assert np.array_equal(got[:, 1:], np.nextafter(got[:, :-1], math.inf))


def test_link_ending_near_zero_keeps_newton_leq_float():
    """On g = u^2 - 1 the first link from this u0 ends near u = 1e-12,
    where newton_leq's 2^-79 resolution stops its bracket before adjacent
    floats, ahead of the switching float; there the floats are too fine for
    a sweep window to see f change sign, and the chain keeps newton_leq's
    float."""
    base = Body2.epigraph("parabola").pieces()[0].base
    u0 = -0.7861513777569761
    chain = cx._unit_chain(base, u0, 1.0, 10.0, 3)
    assert chain.tobytes() == _links_one_by_one(base, u0, 1.0, 10.0, 3).tobytes()
    behind = np.nextafter(chain[1], u0)
    rel = base.graph_point(behind) - base.graph_point(np.array(u0))
    assert 1.0 - math.hypot(*rel) <= 0  # the switching float lies further behind
