"""The unit-chord chain of gen_no_uc, solved in one piece (_unit_chain),
against a 50-digit chain from the same start on the exact profile: every
float link is 1 to within 1e-12 max(1, |point|) (NoUCCertificate's
slack), and every chain point lies within 1e-14 max(1, |point|) of the
50-digit one.  Where the chain's Newton solve does not keep a link, the
links go one at a time through _chord_params, and that path equals the
link-by-link loop bit for bit."""

import math
import mpmath
import numpy as np
import pytest

import qcext.counterexamples as cx
from qcext.counterexamples import ConstructionError, gen_no_uc
from qcext.geometry import Body2

LINK_SLACK = 1e-12   # |link| - 1, relative to max(1, |point|)
ORACLE_BOUND = 1e-14  # |point - 50-digit point|, relative to max(1, |point|)


def _links_one_by_one(base, u0, ahead, u_end, n):
    us = [u0]
    for _ in range(n):
        u = float(cx._chord_params(base, us[-1], ahead, u_end, 1.0))
        if math.isnan(u):
            raise ConstructionError("boundary branch exhausted inside the window")
        us.append(u)
    return np.array(us)


def _exact_graph(base):
    """G(u) = M (u, g(u)) + shift and G'(u) in mpmath, with the float M,
    shift and profile parameters taken as exact."""
    mpf, prof = mpmath.mpf, base.profile
    (a, b), (c, d) = [[mpf(float(x)) for x in row] for row in base.M]
    e, f = (mpf(float(x)) for x in base.shift)
    if prof.name == "parabola":
        pa, pc = mpf(prof.a), mpf(prof.c)
        g, dg = (lambda u: pa * u * u + pc), (lambda u: 2 * pa * u)
    elif prof.name == "cosh":
        pc = mpf(prof.c)
        g, dg = (lambda u: mpmath.cosh(u) + pc), mpmath.sinh
    else:
        cs = [mpf(x) for x in prof.coeffs]
        g = lambda u: mpmath.polyval(cs[::-1], u)  # noqa: E731
        dg = lambda u: mpmath.polyval([i * ci for i, ci in enumerate(cs)][:0:-1], u)  # noqa: E731
    return ((lambda u: (a * u + b * g(u) + e, c * u + d * g(u) + f)),
            (lambda u: (a + b * dg(u), c + d * dg(u))))


def _oracle_points(base, u0, ahead, n):
    """The chain's n + 1 points at 50 digits: each link's end is the
    Newton root of |G(s) - G(s_prev)|^2 = 1 from the tangent step, run
    until a step is below 1e-45 max(1, |s|)."""
    with mpmath.workdps(50):
        G, dG = _exact_graph(base)
        s = mpmath.mpf(float(u0))
        pts = [G(s)]
        for _ in range(n):
            (ax, ay), (tx, ty) = pts[-1], dG(s)
            x = s + ahead / mpmath.sqrt(tx * tx + ty * ty)
            for _ in range(60):
                (px, py), (tx, ty) = G(x), dG(x)
                rx, ry = px - ax, py - ay
                step = (rx * rx + ry * ry - 1) / (2 * (rx * tx + ry * ty))
                x -= step
                if abs(step) < mpmath.mpf(10) ** -45 * max(1, abs(x)):
                    break
            else:
                raise AssertionError("the 50-digit link did not converge")
            assert ahead * (x - s) > 0
            s = x
            pts.append(G(s))
        return np.array([[float(px), float(py)] for px, py in pts])


def _check_against_oracle(base, u0, ahead, chain, points):
    """Links of the float chain within LINK_SLACK of 1 and its points within
    ORACLE_BOUND of the 50-digit chain from u0; returns the oracle's points."""
    want = _oracle_points(base, u0, ahead, len(chain) - 1)
    size = np.maximum(1.0, np.hypot(want[:, 0], want[:, 1]))
    links = np.hypot(*np.diff(points, axis=0).T)
    assert np.all(np.abs(links - 1.0) <= LINK_SLACK * np.maximum(size[1:], size[:-1]))
    assert np.all(np.hypot(*(points - want).T) <= ORACLE_BOUND * size)
    return want


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
    """Against the 50-digit chain the certificate's points keep the stated
    bounds; the link-by-link loop, whose links each stop within their
    newton_leq target of their own root, drifts further (up to 4.7e-12 on
    these chains) but stays within the link slack."""
    args, chain, _, cert = _chain_of(monkeypatch, BODIES[name](), k_max)
    base, u0, ahead, _, n = args
    assert n == 2 * k_max + 2
    assert np.array_equal(cert.points, base.graph_point(chain))
    want = _check_against_oracle(base, u0, ahead, chain, cert.points)
    one_by_one = base.graph_point(_links_one_by_one(*args))
    size = np.maximum(1.0, np.hypot(want[:, 0], want[:, 1]))
    assert np.all(np.hypot(*(one_by_one - cert.points).T) <= LINK_SLACK * size)


@pytest.mark.parametrize("name", ["parabola", "cosh"])
def test_gallery_chains_settle_without_a_link_by_link_solve(monkeypatch, name):
    """On the gallery bodies every link settles in the chain's own solve."""
    *_, fallback, _ = _chain_of(monkeypatch, BODIES[name](), 64)
    assert fallback == 0


@pytest.mark.parametrize("name", ["parabola", "cosh", "fuzz2"])
def test_unsettled_links_fall_back_to_chord_params(monkeypatch, name):
    """With one Newton iteration the chain's solve does not converge, and
    the links go through _chord_params one at a time: the same chain as
    the link-by-link loop, bit for bit."""
    monkeypatch.setattr(cx, "_CHAIN_NEWTON_ITERS", 1)
    args, chain, fallback, _ = _chain_of(monkeypatch, BODIES[name](), 8)
    assert fallback > 0
    assert chain.tobytes() == _links_one_by_one(*args).tobytes()


def test_link_ending_near_zero_matches_oracle(monkeypatch):
    """On g = u^2 - 1 the first link from this u0 ends near u = 1e-12,
    where the float spacing of u is far below the rounding of the link's
    length.  A link's Newton stop reads the spacing at the larger of its
    ends, so the chain's own solve keeps this link (no _chord_params call),
    within the stated bounds of the 50-digit chain."""
    base = Body2.epigraph("parabola").pieces()[0].base
    u0 = -0.7861513777569761
    monkeypatch.setattr(cx, "_chord_params", None)
    chain = cx._unit_chain(base, u0, 1.0, 10.0, 3)
    assert abs(chain[1]) < 1e-9
    _check_against_oracle(base, u0, 1.0, chain, base.graph_point(chain))
