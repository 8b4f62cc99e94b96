"""The smallest-level search (levelset.first_row_level), the staircase
values read from it and the rejection sampler against the per-level scans,
the lo/hi bisection and the eager sampling loop they replace; the sampled
checks' one evaluation per call against evaluating each array apart."""

import numpy as np
import pytest

import qcext.levelset as ls
from qcext.counterexamples import gen_no_lip, gen_no_qc, gen_no_uc, gen_non_rotund
from qcext.extension import CONTAIN_TOL, INT_MARGIN, ExtensionOperator, extend_function
from qcext.geometry import Body2, distance_many
from qcext.levelset import (LevelFamily, LevelSetError, first_row_level, lipschitz_estimate,
                            modulus_estimate, quasiconvex_check, row_table, sample_domain,
                            stack_levels, staircase_qc)

RULES = {"contain": lambda m: m <= CONTAIN_TOL, "interior": lambda m: m < -INT_MARGIN}


# -- oracles ----------------------------------------------------------------------

def scan_levels(fam, pts):
    """Per point, the smallest level alpha_k whose body contains it, one
    contains_many per level in order (a None level holds no point)."""
    out = np.full(len(pts), fam.sentinel)
    unset = np.ones(len(pts), dtype=bool)
    for alpha, body in zip(fam.levels, fam.bodies):
        if body is not None:
            hit = unset & body.contains_many(pts)
            out[hit] = alpha
            unset &= ~hit
    return out


def scan_staircase(f, pts):
    """staircase_qc's value by one contains_many per body in order: the
    first body holding the point, else past the last, and the ramp away
    from the body before it."""
    fam, gaps = f.meta["family"], f.meta["gaps"]
    bodies, levels = fam.bodies, fam.levels
    out = np.empty(len(pts))
    unset = np.ones(len(pts), dtype=bool)
    for k, body in enumerate(bodies):
        zone = unset & body.contains_many(pts)
        if zone.any():
            if k == 0:
                out[zone] = levels[0]
            else:
                d = distance_many(bodies[k - 1], pts[zone])
                out[zone] = levels[k - 1] + np.minimum(d, gaps[k - 1])
            unset &= ~zone
    if unset.any():
        d = distance_many(bodies[-1], pts[unset])
        out[unset] = levels[-1] + np.minimum(d, gaps[-1])
    return out


def bisect_levels(table, pts, inside):
    """Per point, the smallest k with inside(margin of table[k]) true, by
    a per-point lo/hi bisection over the points still open."""
    cols = np.asarray(table).transpose(1, 2, 0).copy()  # (m, 3, K)
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    lo = np.zeros(len(pts), dtype=int)
    hi = np.full(len(pts), cols.shape[2])
    act = np.arange(len(pts))
    while act.size:
        mid = (lo[act] + hi[act]) // 2
        xa, ya = x[act], y[act]
        margin = np.full(act.size, -np.inf)
        for nx, ny, off in cols:
            margin = np.maximum(margin, nx.take(mid) * xa + ny.take(mid) * ya - off.take(mid))
        ok = inside(margin)
        hi[act] = np.where(ok, mid, hi[act])
        lo[act] = np.where(ok, lo[act], mid + 1)
        act = act[lo[act] < hi[act]]
    return lo


def sample_eager(domain, n, rng, window):
    """Rejection sampling that tests every candidate of every round."""
    out, got, m = [], 0, max(4 * n, 64)
    for _ in range(60):
        cand = np.column_stack([rng.uniform(window[0], window[1], m),
                                rng.uniform(window[2], window[3], m)])
        keep = cand[domain.contains_many(cand)]
        if len(keep):
            out.append(keep)
            got += len(keep)
        if got >= n:
            break
        m = min(2 * m, 2_000_000)
    if got < n:
        raise LevelSetError("rejection sampling failed; window misses the body")
    return np.vstack(out)[:n]


# -- families ---------------------------------------------------------------------

def random_chord_family(name, K, seed):
    """K nested chords of the parabola or the cosh body along one random
    upward normal, at increasing random offsets above the body's lowest
    value along it."""
    rng = np.random.default_rng(seed)
    C = Body2.epigraph(name)
    n = np.array([rng.uniform(-1.0, 1.0), 1.0])
    n /= np.linalg.norm(n)
    u = np.linspace(-8.0, 8.0, 16001)
    low = float(np.min(n[0] * u + n[1] * C.base.profile.g(u)))
    offsets = low + 0.1 + np.cumsum(rng.uniform(0.1, 1.0, K) * 8.0 / K)
    return LevelFamily(np.sort(rng.uniform(0.0, 10.0, K)) + np.arange(K),
                       [C.clip([(n, float(c))]) for c in offsets], C)


def shelves():
    C = Body2.ball((0.0, 0.0), 1.0)
    return LevelFamily(np.arange(5.0), [
        C.clip([((0.0, 1.0), -0.6 + 0.35 * k), ((1.0, 0.0), 0.2 + 0.15 * k)]) for k in range(5)], C)


def none_and_ambient():
    C = Body2.epigraph("parabola")
    return LevelFamily(np.arange(4.0), [None, C.clip([((0.0, 1.0), 1.0)]),
                                        C.clip([((0.0, 1.0), 4.0)]), C], C)


def squares(r):
    return Body2.from_polychain([(-r, -r), (r, -r), (r, r), (-r, r)])


def polygons():
    """Nested squares built from vertices, not by clipping the ambient."""
    return LevelFamily(np.array([0.5, 1.5, 2.5]), [squares(1.0), squares(2.0), squares(3.0)],
                       squares(4.0))


FAMILIES = {
    **{f"{name}-{K}": (lambda name=name, K=K: random_chord_family(name, K, K))
       for name in ("parabola", "cosh") for K in (1, 2, 100, 10_000)},
    "shelves": shelves,
    "none-and-ambient": none_and_ambient,
    "polygons": polygons,
}


def query_points(fam, rng, n=4000):
    """Boundary samples of up to eight levels spread over the family, and
    uniform points in their bounding box padded by one."""
    pick = np.unique(np.linspace(0, len(fam) - 1, 8).astype(int))
    near = np.vstack([fam.bodies[k].boundary_samples(48) for k in pick
                      if fam.bodies[k] not in (None, fam.ambient)])
    lo, hi = near.min(axis=0) - 1.0, near.max(axis=0) + 1.0
    return np.vstack([near, lo + (hi - lo) * rng.random((n, 2))])


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_search_matches_scan_and_bisection(name, monkeypatch):
    """On-body values equal the per-level scan's with one ambient
    containment test, and both inside rules of the operator's search give
    the bisection's indices."""
    fam = FAMILIES[name]()
    pts = query_points(fam, np.random.default_rng(3), 4000 if len(fam) <= 100 else 1000)
    want = scan_levels(fam, pts)
    fam.eval_many(pts[:1])  # builds the family's table
    calls = []
    contains = Body2.contains_many
    monkeypatch.setattr(Body2, "contains_many",
                        lambda self, p, tol=1e-9: calls.append(self) or contains(self, p, tol))
    got = fam.eval_many(pts)
    monkeypatch.undo()
    assert calls == [fam.ambient]
    assert np.array_equal(got, want)
    assert len(np.unique(want)) >= min(len(fam), 5)
    table = ExtensionOperator(fam).level_table
    for rule in RULES.values():
        idx = first_row_level(table, pts, rule)
        assert np.array_equal(idx, bisect_levels(table, pts, rule))
        assert len(np.unique(idx)) >= min(len(fam), 3)


def test_ball_level_takes_the_scan(monkeypatch):
    """A level that is not cut from the ambient (a disk inside the
    parabola) keeps the per-level scan."""
    C = Body2.epigraph("parabola")
    fam = LevelFamily(np.arange(3.0), [Body2.ball((0.0, 1.0), 0.5), C.clip([((0.0, 1.0), 2.0)]),
                                       C.clip([((0.0, 1.0), 3.0)])], C)
    pts = np.random.default_rng(4).uniform(-3.0, 3.0, (2000, 2))
    calls = []
    contains = Body2.contains_many
    monkeypatch.setattr(Body2, "contains_many",
                        lambda self, p, tol=1e-9: calls.append(self) or contains(self, p, tol))
    got = fam.eval_many(pts)
    monkeypatch.undo()
    assert calls == fam.bodies
    assert np.array_equal(got, scan_levels(fam, pts))


def parabola_chords():
    """The verify suite's parabola chord staircase."""
    C = Body2.epigraph("parabola")
    levels = np.array([0.0, 1.0, 2.5, 4.0])
    return staircase_qc(C, [C.clip([((0.0, 1.0), float(a))]) for a in levels], levels,
                        np.append(np.diff(levels), 1.0))


STAIRCASES = {
    "no_lip-disk": lambda: gen_no_lip(Body2.ball((0.0, 0.0), 1.0), k_max=8, scan=16)[0]
    .meta["staircase"],
    "no_lip-parabola": lambda: gen_no_lip(Body2.epigraph("parabola"), k_max=8, scan=16)[0]
    .meta["staircase"],
    "no_qc-hypograph": lambda: gen_no_qc(Body2.epigraph("exp_hypograph"), k_max=8)[0],
    "non_rotund-square": lambda: gen_non_rotund(squares(1.0), k_max=8)[0],
    "parabola-chords": parabola_chords,
}


@pytest.mark.parametrize("name", sorted(STAIRCASES))
def test_staircase_matches_level_scan(name):
    """A staircase's values equal the per-body scan's bit for bit on every
    body's boundary samples, those moved by up to twice the largest gap,
    and uniform points about them."""
    f = STAIRCASES[name]()
    rng = np.random.default_rng(11)
    gaps = f.meta["gaps"]
    near = np.vstack([body.boundary_samples(48) for body in f.meta["family"].bodies])
    moved = near + rng.uniform(-2.0, 2.0, near.shape) * gaps.max()
    lo, hi = near.min(axis=0) - 1.0, near.max(axis=0) + 1.0
    pts = np.vstack([near, moved, lo + (hi - lo) * rng.random((2000, 2))])
    want = scan_staircase(f, pts)
    assert np.array_equal(f.eval_many(pts), want)
    assert len(np.unique(want)) >= 3


def test_row_table_rows():
    """A None level is one row every point violates, an empty level all
    padding, and the kernel reads the table without a copy."""
    table = row_table(*stack_levels([None, np.zeros((0, 3)),
                                     [(0.0, 1.0, 2.0), (1.0, 0.0, 5.0)]]))
    assert table.shape == (3, 2, 3)
    assert np.array_equal(table[0, :, 2], [-np.inf, np.inf])
    assert np.array_equal(table[1, :, 2], [np.inf, np.inf])
    assert table.transpose(1, 2, 0).flags.c_contiguous
    pts = np.array([[0.0, 0.0], [0.0, 3.0], [9.0, 0.0]])
    assert first_row_level(table, pts, RULES["contain"]).tolist() == [1, 1, 1]
    assert first_row_level(table[[0, 2]], pts, RULES["contain"]).tolist() == [1, 2, 2]


# -- the sampler ------------------------------------------------------------------

def _domains():
    cosh = Body2.epigraph("cosh")
    return {
        "parabola": (Body2.epigraph("parabola"), (-5.0, 5.0, -2.0, 8.0)),
        "disk": (Body2.ball((0.0, 0.0), 1.0), None),
        "thin-triangle": (Body2.from_polychain([(0.0, 0.0), (2.0, 0.0), (300.0, 1.5)]),
                          (0.0, 300.0, 0.0, 1.5)),
        "clipped-cosh": (cosh.clip([((0.0, 1.0), 2.0)]), None),
    }


#: the bit generators the sampler must follow: two that jump with advance
#: and two that it draws whole rounds from
BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox)


@pytest.mark.parametrize("name", ["parabola", "disk", "thin-triangle", "clipped-cosh"])
@pytest.mark.parametrize("n", [7, 300, 5000])
def test_sampler_matches_eager_loop(name, n):
    """The same samples and the same rng stream as testing every candidate
    of every round, over three seeds of each bit generator."""
    body, window = _domains()[name]
    if window is None:
        c, r = body.witness, 16.0 * body.clearance
        window = (c[0] - r, c[0] + r, c[1] - r, c[1] + r)
    for bit_generator in BIT_GENERATORS:
        for seed in range(3):
            rng_a = np.random.Generator(bit_generator(seed))
            rng_b = np.random.Generator(bit_generator(seed))
            got = sample_domain(body, n, rng_a, window=window)
            want = sample_eager(body, n, rng_b, window)
            assert got.shape == (n, 2) and np.array_equal(got, want)
            assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM])
def test_sampler_keeps_the_32_bit_buffer(bit_generator):
    """A round that jumps with advance leaves the half-used 32-bit draw
    where the eager loop leaves it."""
    body, window = _domains()["parabola"]
    rng_a, rng_b = np.random.Generator(bit_generator(5)), np.random.Generator(bit_generator(5))
    for rng in (rng_a, rng_b):
        rng.integers(0, 1000, dtype=np.uint32)
    assert rng_a.bit_generator.state["has_uint32"] == 1
    assert np.array_equal(sample_domain(body, 5000, rng_a, window=window),
                          sample_eager(body, 5000, rng_b, window))
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    assert rng_a.integers(0, 1 << 30, 4, dtype=np.uint32).tolist() == \
        rng_b.integers(0, 1 << 30, 4, dtype=np.uint32).tolist()


# -- one evaluation per sampled check ---------------------------------------------

def _extension():
    res = extend_function(random_chord_family("parabola", 100, 100))
    return res.eval_many, res.family.ambient


def _certified(gen, body, **kw):
    f = gen(body, **kw)[0]
    return f.eval_many, f.domain


#: name: (f and its domain, a window about where f varies)
POINTWISE = {
    "extension-100": (_extension, (-2.0, 2.0, -1.0, 3.0)),
    "no_lip-cosh": (lambda: _certified(gen_no_lip, Body2.epigraph("cosh"), k_max=8, scan=16),
                    (-4.0, 4.0, 0.0, 8.0)),
    "no_uc-parabola": (lambda: _certified(gen_no_uc, Body2.epigraph("parabola"), k_max=8),
                       (-1.0, 6.0, -2.0, 20.0)),
    "no_qc-hypograph": (lambda: _certified(gen_no_qc, Body2.epigraph("exp_hypograph"), k_max=8),
                        (-3.0, 10.0, -5.0, 1.5)),
    "non_rotund-triangle": (lambda: _certified(
        gen_non_rotund, Body2.from_polychain([(0, 1), (2, 1), (1, -3)]), k_max=8),
        (-0.5, 2.5, -4.0, 2.0)),
}


@pytest.mark.parametrize("name", sorted(POINTWISE))
def test_evaluation_is_pointwise(name):
    """One eval_many call on 3,000 points, on and off the domain, equals
    three 1,000-point calls and 200 one-point calls bit for bit, the
    precondition of the checks' single evaluation: no value goes through
    a matmul, whose one-row kernel rounds differently."""
    make, window = POINTWISE[name]
    f, body = make()
    rng = np.random.default_rng(21)
    pts = np.vstack([sample_domain(body, 1500, rng, window=window),
                     sample_domain(window, 1500, rng)])[rng.permutation(3000)]
    whole = f(pts)
    assert np.array_equal(whole, np.concatenate([f(part) for part in np.split(pts, 3)]))
    pick = rng.choice(3000, 200, replace=False)
    one = np.concatenate([f(pts[i:i + 1]) for i in pick])
    assert np.array_equal(one, whole[pick])
    assert len(np.unique(whole)) >= 50


def qc_check_apart(eval_many, domain, n_triples, tol, seed, window):
    """quasiconvex_check with x, y and the midpoints evaluated apart."""
    rng = np.random.default_rng(seed)
    xs = sample_domain(domain, n_triples, rng, window)
    ys = sample_domain(domain, n_triples, rng, window)
    lam = rng.uniform(0.0, 1.0, n_triples)
    mids = lam[:, None] * xs + (1 - lam[:, None]) * ys
    fx, fy, fm = (np.asarray(eval_many(p), dtype=float) for p in (xs, ys, mids))
    gap = fm - np.maximum(fx, fy)
    i = int(np.argmax(gap))
    witness = (xs[i], ys[i], float(lam[i]), float(fx[i]), float(fy[i]), float(fm[i]))
    return int((gap > tol).sum()), float(np.max(gap)), witness if gap[i] > tol else None


def sample_pairs_apart(eval_many, domain, pair_samples, rng, window, local_scale=1e-3):
    """levelset._sample_pairs with both ends of every pair evaluated apart."""
    xs = sample_domain(domain, pair_samples, rng, window)
    ys = sample_domain(domain, pair_samples, rng, window)
    span = float(np.max(np.abs(ys - xs))) or 1.0
    zs = xs + rng.normal(0.0, local_scale * span, xs.shape)
    if isinstance(domain, Body2):
        keep = domain.contains_many(zs)
        zs[~keep] = xs[~keep]
    a, b = np.vstack([xs, xs]), np.vstack([ys, zs])
    d = np.linalg.norm(a - b, axis=-1)
    df = np.abs(np.asarray(eval_many(a)) - np.asarray(eval_many(b)))
    return d[d > 1e-12], df[d > 1e-12]


def _xy_square():
    return (lambda pts: np.abs(pts[:, 0] * pts[:, 1])), squares(1.0)


@pytest.mark.parametrize("name", ["extension-100", "no_lip-cosh", "no_uc-parabola",
                                  "non_rotund-triangle", "xy-square"])
def test_checks_match_separate_evaluations(name, monkeypatch):
    """quasiconvex_check, modulus_estimate and lipschitz_estimate report
    what evaluating each sampled array apart reports, on the domain within
    a window and on the window box; |x y| on the square has violations to
    report."""
    if name == "xy-square":
        (f, body), window = _xy_square(), (-1.0, 1.0, -1.0, 1.0)
    else:
        make, window = POINTWISE[name]
        f, body = make()
    for domain in (body, window):
        rep = quasiconvex_check(f, domain, 2000, tol=1e-9, seed=7, window=window)
        violations, worst, witness = qc_check_apart(f, domain, 2000, 1e-9, 7, window)
        assert (rep.checked, rep.violations, rep.worst) == (2000, violations, worst)
        assert (rep.witness is None) == (witness is None)
        if witness is not None:
            assert all(np.array_equal(a, b) for a, b in zip(rep.witness, witness))
        got = (modulus_estimate(f, domain, 1500, seed=8, window=window),
               lipschitz_estimate(f, domain, 1500, seed=9, window=window))
        monkeypatch.setattr(ls, "_sample_pairs", sample_pairs_apart)
        want = (modulus_estimate(f, domain, 1500, seed=8, window=window),
                lipschitz_estimate(f, domain, 1500, seed=9, window=window))
        monkeypatch.undo()
        assert np.array_equal(got[0].ts, want[0].ts)
        assert np.array_equal(got[0].omegas, want[0].omegas)
        assert got[1] == want[1]
        assert name != "xy-square" or rep.violations > 0
