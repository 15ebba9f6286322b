"""Band sets, half-line truncations, sparse spectral checks."""

import functools
import math
import re

import numpy as np
import pytest
import scipy.linalg as sla

from sturmspec import cocycle as cc
from sturmspec import sequences as sq
from sturmspec import spectrum as sp
from test_transfer_run import ref_word_matrix

AB = sq.Alphabet(("a", "b"), (0.0, 1.0))


def simple_spec(periods=(3, 3), offsets=None, letters=None, **kw):
    n = len(periods)
    return sq.ToeplitzSpec(
        AB, sq.CodingTriple((), 1, 0),
        letters or tuple("ab"[i % 2] for i in range(n)), tuple(periods),
        offsets or (0,) * n, **kw
    )


def zero_window(length):
    return sq.SparseSpec(v=1.0, positions=(10**9,)).window(1, length)


# ---------------------------------------------------------------------------
# Band sets from traces
# ---------------------------------------------------------------------------


def band_set_from_trace(trace_fn, e_range, grid, tol, level=None):
    """{E : |h(E)| <= 2} of one trace function, as ``band_sets`` finds it
    for one level: ``trace_fn`` must act on each energy alone."""
    (intervals,) = sp._band_intervals(
        lambda xs: np.asarray(trace_fn(xs), dtype=np.float64)[None], [0], e_range, grid, tol
    )
    return sp.BandSet(intervals=intervals, level=level, refinement_tol=tol)


def test_free_laplacian_band_for_any_power():
    # trace of the m-step free product stays in [-2, 2] exactly on [-2, 2]
    for m in (1, 4, 9):

        def fn(es, m=m):
            return np.array([np.trace(ref_word_matrix([0.0] * m, e)) for e in es])

        band = band_set_from_trace(fn, (-3.0, 3.0), 4001, 1e-10, level=m)
        assert len(band) >= 1
        assert abs(band.intervals[0][0] + 2.0) < 1e-8
        assert abs(band.intervals[-1][1] - 2.0) < 1e-8
        assert abs(band.measure - 4.0) < 1e-7


def test_sigma_endpoints_satisfy_trace_condition():
    spec = simple_spec()
    band = sp.sigma_n(spec, 4, grid=20_000, tol=1e-10)
    worst = max(
        abs(abs(float(cc.trace_recursion_f64(spec, 4, np.array([e]))[4, 0])) - 2.0)
        for iv in band.intervals
        for e in iv
    )
    assert worst <= 1e-9


def test_sigma_validation():
    spec = simple_spec()
    with pytest.raises(sq.ValidationError):
        sp.sigma_n(spec, 2, grid=500)
    with pytest.raises(sq.ValidationError):
        sp.sigma_n(spec, 2, e_range=(-1.0, 4.0))  # misses the hull
    shallow = simple_spec(periods=(3, 3, 3), cycle=False)
    with pytest.raises(sq.ValidationError):
        sp.sigma_n(shallow, 5)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_band_sets_reject_a_negative_or_non_finite_tol(tol):
    spec = simple_spec()
    for build in (
        lambda: sp.band_sets(spec, (2, 3), grid=2000, tol=tol),
        lambda: sp.sigma_n(spec, 2, grid=2000, tol=tol),
        lambda: band_set_from_trace(np.cos, (-3.0, 3.0), 2000, tol),
    ):
        with pytest.raises(sq.ValidationError, match="tol"):
            build()


def test_band_sets_take_any_integer_levels():
    spec = simple_spec()
    want = sp.band_sets(spec, (2, 3), grid=2000)
    got = sp.band_sets(spec, np.array([2, 3]), grid=2000)
    assert [b.intervals for b in got] == [b.intervals for b in want]
    assert [b.level for b in got] == [2, 3]
    with pytest.raises(sq.ValidationError, match="level must be >= 0, got -1"):
        sp.sigma_n(spec, -1, grid=2000)
    with pytest.raises(sq.ValidationError, match="at least one level"):
        sp.band_sets(spec, np.array([], dtype=int), grid=2000)


def test_band_sets_reject_a_non_finite_range_and_a_non_integer_grid():
    spec = simple_spec()

    def fn(es):
        return cc.trace_recursion_f64(spec, 3, es)[3]

    for e_range in ((math.nan, 5.0), (-3.0, math.inf)):
        with pytest.raises(sq.ValidationError, match="e_range must be finite"):
            sp.sigma_n(spec, 3, e_range=e_range, grid=2000)
        with pytest.raises(sq.ValidationError, match="e_range must be finite"):
            band_set_from_trace(fn, e_range, 2000, 1e-10)
    for grid in (2000.5, "2000"):
        with pytest.raises(sq.ValidationError, match="grid must be an integer"):
            sp.band_sets(spec, (3,), grid=grid)
        with pytest.raises(sq.ValidationError, match="grid must be an integer"):
            band_set_from_trace(fn, (-2.5, 3.5), grid, 1e-10)
    assert sp.sigma_n(spec, 3, grid=np.int64(2000)) == sp.sigma_n(spec, 3, grid=2000)


def test_band_sets_reject_a_non_integer_level():
    spec = simple_spec()
    for levels in ((2.5,), ("3",), (2, 3.0)):
        with pytest.raises(sq.ValidationError, match="levels must be an integer"):
            sp.band_sets(spec, levels, grid=2000)


def test_band_set_from_trace_rejects_a_range_that_does_not_increase():
    spec = simple_spec()

    def fn(es):
        return cc.trace_recursion_f64(spec, 3, es)[3]

    for e_range in ((3.5, -2.5), (0.5, 0.5)):
        with pytest.raises(sq.ValidationError,
                           match=r"e_range must increase, got \(%r, %r\)" % e_range):
            band_set_from_trace(fn, e_range, 2000, 1e-10)


def test_zero_tol_bisects_to_adjacent_floats(monkeypatch):
    runs = []

    def recording(g, lo, hi, tol):
        x = bisect(g, lo, hi, tol)
        runs.append((g, lo, hi, x))
        return x

    bisect = sp._bisect_edges
    monkeypatch.setattr(sp, "_bisect_edges", recording)
    exact = sp.sigma_n(simple_spec(), 3, grid=2000, tol=0.0)
    assert exact.refinement_tol == 0.0
    (g, lo, hi, x), = runs
    assert x.size == 2 * len(exact)
    lanes = np.arange(x.size)
    gx = g(x, lanes)
    # g changes sign between x and its neighbouring float on the far side
    # of the root: the bracket was bisected down to two adjacent floats
    beside = np.where(gx > 0, np.nextafter(x, hi), np.nextafter(x, lo))
    assert np.all((gx == 0.0) | ((gx > 0) != (g(beside, lanes) > 0)))


def test_large_energy_is_outside_every_level():
    spec = simple_spec()
    for k in range(5):
        band = sp.sigma_n(spec, k, e_range=(-4.5, 10.5), grid=20_000)
        assert not ref_contains(band, 10.0)
        assert band.intervals[-1][1] <= 3.0 + 1e-6  # norm bound: max V + 2


def test_band_measures_shrink():
    spec = simple_spec()
    a0 = sp.band_approximant(spec, 0, grid=20_000)
    a2 = sp.band_approximant(spec, 2, grid=20_000)
    assert a2.measure < a0.measure


def test_containment_of_deeper_levels():
    spec = simple_spec()
    outer = sp.band_approximant(spec, 2, grid=20_000)
    inner = sp.sigma_n(spec, 5, grid=20_000)
    viol, checked = sp.grid_containment(inner, outer, (-2.5, 3.5), 20_000)
    assert checked > 1000
    assert not viol


def test_union_merges_overlaps():
    a = sp.BandSet(((0.0, 1.0), (2.0, 3.0)), level=0, refinement_tol=1e-10)
    b = sp.BandSet(((0.5, 2.5),), level=1, refinement_tol=1e-10)
    u = a.union(b)
    assert u.intervals == ((0.0, 3.0),)
    assert abs(u.measure - 3.0) < 1e-15


def test_bandset_validation():
    with pytest.raises(sq.ValidationError):
        sp.BandSet(((0.0, 1.0), (0.5, 2.0)), level=0, refinement_tol=1e-10)
    with pytest.raises(sq.ValidationError):
        sp.BandSet(((1.0, 0.0),), level=0, refinement_tol=1e-10)


# ---------------------------------------------------------------------------
# Lane-wise refinement and containment against scalar references
# ---------------------------------------------------------------------------


def scalar_bisect_edge(g, lo, hi, tol):
    """One edge at a time: the reference the lane-wise refiner reproduces."""
    glo, ghi = g(lo), g(hi)
    assert glo > 0 >= ghi, "grid points must bracket the edge"
    x = 0.5 * (lo + hi)
    for _ in range(200):
        x = 0.5 * (lo + hi)
        gx = g(x)
        if abs(gx) <= 10.0 * tol:
            return x
        if gx > 0:
            lo = x
        else:
            hi = x
        if abs(hi - lo) <= max(abs(x), 1.0) * 1e-17:
            break
    return x


def scalar_band_set(trace_fn, e_range, grid, tol, level=None):
    """Grid scan with one trace call per bisection or ternary step per edge."""
    lo, hi = float(e_range[0]), float(e_range[1])
    es = np.linspace(lo, hi, grid)
    h = np.asarray(trace_fn(es), dtype=np.float64)
    g = np.abs(h) - 2.0

    def g_scalar(x):
        return abs(float(trace_fn(np.array([x]))[0])) - 2.0

    inside = g <= 0.0
    intervals = []
    i = 0
    while i < grid:
        if not inside[i]:
            i += 1
            continue
        j = i
        while j + 1 < grid and inside[j + 1]:
            j += 1
        left = es[i] if i == 0 else scalar_bisect_edge(g_scalar, es[i - 1], es[i], tol)
        right = (
            es[j] if j == grid - 1
            else scalar_bisect_edge(g_scalar, es[j + 1], es[j], tol)
        )
        intervals.append((left, right))
        i = j + 1

    step = (hi - lo) / (grid - 1)
    interior = np.flatnonzero(
        (g[1:-1] > 0)
        & (g[1:-1] <= g[:-2])
        & (g[1:-1] <= g[2:])
        & (g[1:-1] < 4.0 * step * np.maximum(np.abs(h[1:-1]), 1.0))
    )
    for idx in interior + 1:
        a, b = es[idx - 1], es[idx + 1]
        for _ in range(120):
            m1 = a + (b - a) / 3
            m2 = b - (b - a) / 3
            if g_scalar(m1) <= g_scalar(m2):
                b = m2
            else:
                a = m1
            if b - a < tol:
                break
        x = 0.5 * (a + b)
        if abs(g_scalar(x)) <= 10.0 * tol:
            intervals.append((x, x))

    intervals.sort()
    merged = []
    for a, b in intervals:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return sp.BandSet(tuple((a, b) for a, b in merged), level, tol)


def ref_contains(bands, e, slack=0.0):
    """Whether e lies in some interval of bands, widened by slack."""
    return any(a - slack <= e <= b + slack for a, b in bands.intervals)


def loop_containment(inner, outer, e_range, grid):
    """Per-point membership test over every interval."""
    es = np.linspace(float(e_range[0]), float(e_range[1]), grid)
    step = (es[-1] - es[0]) / (grid - 1)
    checked = 0
    violations = []
    for e in es:
        if ref_contains(inner, float(e)):
            checked += 1
            if not ref_contains(outer, float(e), slack=step):
                violations.append(float(e))
    return violations, checked


def tail_spec(values, periods, offsets):
    return sq.ToeplitzSpec(
        sq.Alphabet(("a", "b"), values), sq.CodingTriple((), 1, 0),
        ("a", "b"), periods, offsets,
    )


@pytest.mark.parametrize(
    "spec, k, grid",
    [
        pytest.param(simple_spec(), 4, 20_001, id="4-20001"),
        pytest.param(simple_spec(), 5, 20_001, id="5-20001"),
        pytest.param(simple_spec(), 7, 2000, id="7-2000"),
        pytest.param(simple_spec(), 8, 2000, id="8-2000"),
        # at grid 20001 each of these leaves one interior local minimum of
        # |h| - 2 above zero, which the reference's tangency pass refines
        pytest.param(tail_spec((0.0, 1.5), (3, 4), (1, 2)), 5, 20_001,
                     id="a:3:1,b:4:2-5-20001"),
        pytest.param(tail_spec((0.0, 1.0), (5, 5), (0, 3)), 6, 20_001,
                     id="a:5:0,b:5:3-6-20001"),
    ],
)
def test_lane_refinement_matches_scalar_reference(spec, k, grid):
    calls = []

    def fn(es):
        calls.append(np.size(es))
        return cc.trace_recursion_f64(spec, max(k, 2), es)[k]

    vals = spec.coupling_values()
    e_range = (min(vals) - 2.5, max(vals) + 2.5)
    lanes = band_set_from_trace(fn, e_range, grid, 1e-10, level=k)
    assert lanes.intervals == sp.sigma_n(spec, k, grid=grid, tol=1e-10).intervals
    # grid scan and at most 200 bisection steps
    assert len(calls) <= 1 + 200
    ref = scalar_band_set(fn, e_range, grid, 1e-10, level=k)
    assert lanes.intervals == ref.intervals


def ref_band_set(trace_fn, e_range, grid, tol, level=None):
    """One level's grid scan with its edges refined by ref_bisect_edges."""
    es = np.linspace(float(e_range[0]), float(e_range[1]), grid)
    g = np.abs(np.asarray(trace_fn(es), dtype=np.float64)) - 2.0

    def g_lanes(xs, live):
        return np.abs(np.asarray(trace_fn(xs), dtype=np.float64)) - 2.0

    change = np.diff((g <= 0.0).astype(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(change == 1)
    ends = np.flatnonzero(change == -1) - 1
    cut_l = starts[starts > 0]
    cut_r = ends[ends < grid - 1]
    roots = ref_bisect_edges(
        g_lanes,
        np.concatenate([es[cut_l - 1], es[cut_r + 1]]),
        np.concatenate([es[cut_l], es[cut_r]]),
        tol,
    )
    left = es[starts]
    left[starts > 0] = roots[: cut_l.size]
    right = es[ends]
    right[ends < grid - 1] = roots[cut_l.size :]
    return sp.BandSet(sp._merge(zip(left.tolist(), right.tolist())), level, tol)


JOINT_SPECS = [
    pytest.param(simple_spec(), id="simple3"),
    pytest.param(simple_spec((3, 4), (1, 2)), id="a:3:1,b:4:2"),
    pytest.param(simple_spec((5, 5), (0, 3)), id="a:5:0,b:5:3"),
    pytest.param(simple_spec((3, 3), (2, 1)), id="a:3:2,b:3:1"),
    pytest.param(simple_spec((2, 3, 4), (1, 1, 0), ("a", "b", "a"), cycle=False),
                 id="period-2"),
]


@pytest.mark.parametrize("grid", [1000, 2000, 20_001, 100_000])
@pytest.mark.parametrize("spec", JOINT_SPECS)
def test_joint_refinement_equals_the_per_level_reference(spec, grid):
    levels = list(range(int(min(8, spec.max_level()))))
    ref = {}
    for k in levels:
        def fn(es, k=k):
            return cc.trace_recursion_f64(spec, max(k, 1), es)[k]
        ref[k] = ref_band_set(fn, sp._default_e_range(spec), grid, 1e-10, level=k).intervals
    asked = [(k,) for k in levels] + [(k, k + 1) for k in levels[:-1]] + [levels]
    for ks in asked:
        got = sp.band_sets(spec, ks, grid=grid, tol=1e-10)
        assert [b.level for b in got] == list(ks)
        assert [b.intervals for b in got] == [ref[k] for k in ks]


def test_level_0_on_one_declared_level_equals_the_reference():
    one = simple_spec(periods=(3,), cycle=False)

    def fn(es):
        return cc.trace_recursion_f64(one, 1, es)[0]

    for grid in (1000, 20_001):
        ref = ref_band_set(fn, sp._default_e_range(one), grid, 1e-10)
        assert sp.band_sets(one, (0,), grid=grid)[0].intervals == ref.intervals


def ref_bisect_edges(g, lo, hi, tol):
    """Lane-wise bisection with only the tolerance, width and step rules."""
    lo, hi = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    x = 0.5 * (lo + hi)
    live = np.arange(lo.size)
    for _ in range(200):
        if live.size == 0:
            break
        a, b = lo[live], hi[live]
        m = 0.5 * (a + b)
        x[live] = m
        gm = g(m, live)
        hit = np.abs(gm) <= 10.0 * tol
        a, b = np.where(gm > 0, m, a), np.where(gm > 0, b, m)
        lo[live], hi[live] = a, b
        narrow = np.abs(b - a) <= np.maximum(np.abs(m), 1.0) * 1e-17
        live = live[~(hit | narrow)]
    return x


def counting(g, calls):
    def fn(*args):
        calls.append(None)
        return g(*args)
    return fn


def test_bisection_stops_once_the_bracket_is_two_adjacent_floats():
    # a step at r: |g| never reaches tol, so each lane narrows until the
    # width rule (near 0, where 1e-17 spans several floats) or the
    # adjacent-float rule stops it; both give the reference's floats
    for r in (0.01, 0.0123, -0.02, 0.3, 1.5, -2.7, 1e3):
        def step(xs, live, r=r):
            return np.where(xs < r, 1.0, -1.0)

        new, old = [], []
        lo, hi = np.array([r - 1.0]), np.array([r + 0.5])
        x = sp._bisect_edges(counting(step, new), lo, hi, 1e-10)
        assert x.tolist() == ref_bisect_edges(counting(step, old), lo, hi, 1e-10).tolist()
        assert abs(x[0] - r) <= max(abs(r), 1.0) * 4e-16
        assert len(new) < 70
        if abs(r) >= 0.1:
            assert len(old) == 200  # the width rule cannot stop these lanes


def test_band_edges_equal_the_reference_bisection(monkeypatch):
    spec = simple_spec()
    real = sp._bisect_edges
    counts = []

    def both(g, lo, hi, tol):
        new, old = [], []
        x = real(counting(g, new), lo, hi, tol)
        assert x.tolist() == ref_bisect_edges(counting(g, old), lo, hi, tol).tolist()
        counts.append((len(new), len(old)))
        return x

    monkeypatch.setattr(sp, "_bisect_edges", both)
    sp.band_approximant(spec, 7, grid=2000)  # the certify sweep's energies
    sp.sigma_n(spec, 7, grid=100_000)
    # one joint run for sigma_7 and sigma_8 at grid 2000, where sigma_8 left
    # 3 of its 204 edges stepping to the cap, then one run for sigma_7 at 1e5
    assert len(counts) == 2
    assert counts[0][1] == 200 and counts[1][1] == 200
    assert all(new <= old for new, old in counts)


def test_trace_calls_of_the_band_approximants(monkeypatch):
    spec = simple_spec()
    calls = []
    monkeypatch.setattr(sp, "trace_recursion_f64",
                        counting(lambda *a: cc.trace_recursion_f64(*a), calls))
    sp.band_approximant(spec, 7, grid=2000)
    # one grid pass and one bisection run for both levels; two of each took
    # 87, and 242 while stuck lanes ran to the 200-step cap
    assert len(calls) <= 46
    calls.clear()
    sp.sigma_n(spec, 7, grid=100_000)
    assert len(calls) <= 40  # 201 while stuck lanes ran to the cap


def test_sigma_n_at_level_0_on_one_declared_level():
    one = simple_spec(periods=(3,), cycle=False)
    deep = simple_spec(periods=(3, 3, 3), cycle=False)
    assert sp.sigma_n(one, 0, grid=2000).intervals == sp.sigma_n(deep, 0, grid=2000).intervals
    with pytest.raises(sq.ValidationError, match="beyond the declared tail"):
        sp.sigma_n(one, 1, grid=2000)


def test_lane_refinement_matches_scalar_on_free_laplacian():
    # a trace_fn that is a per-energy matrix product, not the recursion
    for m in (1, 4, 9):

        def fn(es, m=m):
            return np.array([np.trace(ref_word_matrix([0.0] * m, e)) for e in es])

        lanes = band_set_from_trace(fn, (-3.0, 3.0), 4001, 1e-10, level=m)
        ref = scalar_band_set(fn, (-3.0, 3.0), 4001, 1e-10, level=m)
        assert lanes.intervals == ref.intervals


def test_containment_matches_loop_reference():
    spec = simple_spec()
    sig = {k: sp.sigma_n(spec, k, grid=100_000) for k in (3, 4, 5)}
    empty = sp.BandSet((), level=None, refinement_tol=1e-10)
    e_range = (-2.5, 3.5)
    nested = sp.grid_containment(sig[5], sig[3].union(sig[4]), e_range, 100_000)
    assert nested == loop_containment(sig[5], sig[3].union(sig[4]), e_range, 100_000)
    assert nested[0] == [] and nested[1] > 10_000
    crossed = sp.grid_containment(sig[3], sig[5], e_range, 100_000)
    assert crossed == loop_containment(sig[3], sig[5], e_range, 100_000)
    assert 0 < len(crossed[0]) < crossed[1]
    assert sp.grid_containment(empty, sig[3], e_range, 100_000) == ([], 0)
    lost = sp.grid_containment(sig[3], empty, e_range, 100_000)
    assert lost == loop_containment(sig[3], empty, e_range, 100_000)
    assert len(lost[0]) == lost[1] > 0


@pytest.mark.parametrize("e_range, grid, named", [
    pytest.param((-2.5, 3.5), 0, "grid", id="grid-0"),
    pytest.param((-2.5, 3.5), 1, "grid", id="grid-1"),
    pytest.param((-2.5, 3.5), 2.5, "grid", id="grid-2.5"),
    pytest.param((-2.5, 3.5), "2000", "grid", id="grid-str"),
    pytest.param((3.5, -2.5), 2000, "e_range", id="decreasing"),
    pytest.param((0.5, 0.5), 2000, "e_range", id="empty"),
    pytest.param((math.nan, 3.5), 2000, "e_range", id="nan"),
    pytest.param((-2.5, math.inf), 2000, "e_range", id="inf"),
    pytest.param((-2.5, 0.0, 3.5), 2000, "e_range", id="three-ends"),
])
def test_grid_containment_rejects_a_bad_grid_or_range(e_range, grid, named):
    bands = sp.BandSet(((-1.0, 1.0),), level=0, refinement_tol=1e-10)
    with pytest.raises(sq.ValidationError, match="^%s must" % named):
        sp.grid_containment(bands, bands, e_range, grid)


# ---------------------------------------------------------------------------
# Sparse essential spectrum and truncations
# ---------------------------------------------------------------------------


def test_essential_spectrum_formula():
    band, point = sp.sparse_essential_spectrum(sq.SparseSpec(v=2.0, rule=("power", 3)))
    assert band == (-2.0, 2.0)
    assert abs(point - math.sqrt(8.0)) < 1e-12
    _, neg = sp.sparse_essential_spectrum(sq.SparseSpec(v=-2.0, rule=("power", 3)))
    assert abs(neg + math.sqrt(8.0)) < 1e-12
    _, near = sp.sparse_essential_spectrum(
        sq.SparseSpec(v=1e-6, positions=(1, 3, 7, 15))
    )
    assert 2.0 < near < 2.0 + 1e-12  # continuous into the band edge


def ref_free_halfline_eigs(n):
    """Dirichlet eigenvalues of the zero potential: 2 cos(pi j / (n+1))."""
    return np.sort(2.0 * np.cos(math.pi * np.arange(1, n + 1) / (n + 1)))


def test_halfline_free_spectrum_closed_form():
    op = sp.HalfLineOperator(512, zero_window(600))
    eigs = np.array(sp.halfline_eigs(op))
    ref = ref_free_halfline_eigs(512)
    assert np.abs(eigs - ref).max() <= 1e-10


def test_halfline_matches_scipy_on_random_potential():
    rng = np.random.default_rng(0)
    vals = rng.uniform(-1, 1, 128)
    alpha = sq.Alphabet(tuple("s%d" % i for i in range(128)), tuple(vals))
    w = sq.Window(1, np.arange(128, dtype=np.int16), alpha)
    for phi in (math.pi / 2, 1.0, 2.2):
        op = sp.HalfLineOperator(128, w, boundary_phi=phi)
        mine = np.array(sp.halfline_eigs(op))
        ref = np.sort(
            sla.eigh_tridiagonal(op.diagonal(), np.ones(127), eigvals_only=True)
        )
        assert np.abs(mine - ref).max() <= 1e-11


def test_halfline_top_eigs_match_scipy_on_sparse_truncation():
    # the acceptance criterion 8 operator: v = 2 at 3^k, Dirichlet, N = 4096
    spec = sq.SparseSpec(v=2.0, rule=("power", 3))
    op = sp.HalfLineOperator(4096, spec.window(1, 4200))
    mine = np.array(sp.halfline_eigs(op, count=16))
    ref = sla.eigh_tridiagonal(
        op.diagonal(), np.ones(4095), eigvals_only=True,
        select="i", select_range=(4096 - 16, 4095),
    )
    assert np.abs(mine - ref).max() <= 1e-11


def test_halfline_gershgorin_bound():
    spec = sq.SparseSpec(v=2.0, rule=("power", 3))
    op = sp.HalfLineOperator(256, spec.window(1, 300))
    eigs = sp.halfline_eigs(op)
    assert max(eigs) <= 2.0 + 2.0 + 1e-12


def test_halfline_count_selects_largest():
    op = sp.HalfLineOperator(128, zero_window(200))
    top = sp.halfline_eigs(op, count=5)
    full = sp.halfline_eigs(op)
    assert np.allclose(top, full[-5:])


def test_halfline_validation():
    with pytest.raises(sq.ValidationError):
        sp.HalfLineOperator(32, zero_window(64))
    with pytest.raises(sq.ValidationError):
        sp.HalfLineOperator(64, zero_window(80), boundary_phi=0.0)
    with pytest.raises(sq.ValidationError):
        sp.HalfLineOperator(128, zero_window(100))  # window too short


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_halfline_rejects_a_non_finite_boundary_phi(phi):
    with pytest.raises(sq.ValidationError, match="boundary_phi must be finite"):
        sp.HalfLineOperator(64, zero_window(80), boundary_phi=phi)


def ref_sturm_counts(d, x):
    """The per-site count loop with the pivot nudge at every site."""
    pivmin = 1e-30
    count = np.zeros(np.shape(x), dtype=np.int64)
    q = np.ones_like(x)
    for i in range(d.size):
        q = (d[i] - x) - (1.0 / q if i > 0 else 0.0)
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        count += q < 0
    return count


def ref_halfline_eigs(op, count=None):
    """One-step Sturm bisection: one count call per step for all lanes."""
    d = op.diagonal()
    n = d.size
    count = n if count is None else min(int(count), n)
    lo = float(d.min() - 2.0)
    hi = float(d.max() + 2.0)
    targets = np.arange(n - count, n)
    los = np.full(count, lo)
    his = np.full(count, hi)
    for _ in range(80):
        mids = 0.5 * (los + his)
        c = ref_sturm_counts(d, mids)
        below = c <= targets
        los = np.where(below, mids, los)
        his = np.where(below, his, mids)
        if np.max(his - los) < 1e-14 * max(abs(lo), abs(hi), 1.0):
            break
    return [float(x) for x in 0.5 * (los + his)]


SPARSE3 = sq.SparseSpec(v=2.0, rule=("power", 3))
RANDOM128 = np.random.default_rng(0).uniform(-1, 1, 128)


def random_window():
    alpha = sq.Alphabet(tuple("s%d" % i for i in range(128)), tuple(RANDOM128))
    return sq.Window(1, np.arange(128, dtype=np.int16), alpha)


@pytest.mark.parametrize("name", ["sparse3", "random", "zero"])
def test_sturm_counts_equal_reference(name):
    d = {
        "sparse3": SPARSE3.window(1, 1500).values().astype(np.float64),
        "random": RANDOM128,
        "zero": np.zeros(401),
    }[name]
    rng = np.random.default_rng(7)
    # exact hits take the recount path: q = 0 at x = 0 on the zero
    # potential, free eigenvalues, and x equal to a diagonal entry.  An
    # un-nudged zero pivot only moves the count when it is the last one:
    # x = 0 is an exact eigenvalue of the 401 zero sites.
    x = np.concatenate([
        rng.uniform(d.min() - 2.5, d.max() + 2.5, 2000),
        [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5],
        2.0 * np.cos(np.pi * np.arange(1, d.size + 1) / (d.size + 1)),
        np.unique(d),
    ])
    assert np.array_equal(sp._sturm_counts(d, x), ref_sturm_counts(d, x))


HALFLINE_CASES = [
    pytest.param(sp.HalfLineOperator(4096, SPARSE3.window(1, 4200)), 16, id="sparse3-4096-16"),
    # the top 64 accumulate at sqrt(8), so lanes share brackets deep into the tree
    pytest.param(sp.HalfLineOperator(4096, SPARSE3.window(1, 4200)), 64, id="sparse3-4096-64"),
    pytest.param(sp.HalfLineOperator(2048, SPARSE3.window(1, 2100)), 16, id="sparse3-2048-16"),
    pytest.param(sp.HalfLineOperator(256, SPARSE3.window(1, 300)), None, id="sparse3-256-all"),
    pytest.param(sp.HalfLineOperator(512, zero_window(600)), None, id="free-512-all"),
] + [
    pytest.param(sp.HalfLineOperator(128, random_window(), boundary_phi=phi), None,
                 id="random-128-phi%.2f" % phi)
    for phi in (math.pi / 2, 1.0, 2.2)
]


@pytest.mark.parametrize("op, count", HALFLINE_CASES)
def test_halfline_eigs_equal_reference(op, count):
    assert sp.halfline_eigs(op, count=count) == ref_halfline_eigs(op, count=count)


def sturm_calls(monkeypatch):
    """The distinct midpoints of each _sturm_counts call, in call order."""
    calls = []
    counts = sp._sturm_counts

    def counted(d, x):
        calls.append(np.unique(x))
        return counts(d, x)

    monkeypatch.setattr(sp, "_sturm_counts", counted)
    return calls


def lapack_eigs(op, count):
    n = op.size
    return sla.eigh_tridiagonal(op.diagonal(), np.ones(n - 1), eigvals_only=True,
                                select="i", select_range=(n - count, n - 1))


@functools.cache
def acceptance_reference():
    """The criterion-8 operator, its top 16 by ref_halfline_eigs, and its levels."""
    op = sp.HalfLineOperator(4096, SPARSE3.window(1, 4200))
    return op, ref_halfline_eigs(op, count=16), ref_halfline_levels(op, 16)


def test_halfline_multisection_call_count(monkeypatch):
    # LAPACK predicts every lane's path, and one count call checks all of it:
    # 408 distinct midpoints for the 16 lanes of about 48 steps at N = 4096
    golden = sp.HalfLineOperator(2048, SPARSE3.window(1, 2100))
    cases = [acceptance_reference()[:2], (golden, ref_halfline_eigs(golden, count=8))]
    calls = sturm_calls(monkeypatch)
    for op, want in cases:
        del calls[:]
        assert sp.halfline_eigs(op, count=len(want)) == want
        assert len(calls) == 1
        assert calls[0].size <= 4 * sp.LANE_BUDGET


def test_halfline_eigs_are_the_bisection_floats_not_lapack_ones():
    # dstebz stops at its own tolerance: all 16 of its values differ from
    # the bisection's midpoints, by up to about 1e-14
    op, want, _ = acceptance_reference()
    mine = sp.halfline_eigs(op, count=16)
    assert mine == want
    gap = np.abs(np.array(mine) - lapack_eigs(op, 16))
    assert (gap > 0.0).all() and gap.max() <= 1e-13


def ref_halfline_levels(op, count):
    """ref_halfline_eigs step by step: (los, his, mids, below) of each level."""
    d = op.diagonal()
    n = d.size
    lo = float(d.min() - 2.0)
    hi = float(d.max() + 2.0)
    targets = np.arange(n - count, n)
    los = np.full(count, lo)
    his = np.full(count, hi)
    levels = []
    for _ in range(80):
        mids = 0.5 * (los + his)
        below = ref_sturm_counts(d, mids) <= targets
        levels.append((los, his, mids, below))
        los = np.where(below, mids, los)
        his = np.where(below, his, mids)
        if np.max(his - los) < 1e-14 * max(abs(lo), abs(hi), 1.0):
            break
    return levels


def shift_lane_across(lam, levels, lane=5, level=40):
    """lam with one lane's prediction just across its level-40 midpoint."""
    _, _, mids, below = levels[level]
    lam = lam.copy()
    m = mids[lane]
    lam[lane] = m if below[lane] else np.nextafter(m, np.inf)
    return lam


def swap_top_lanes(lam, levels):
    """lam with the top two lanes' predictions swapped."""
    return lam[[*range(lam.size - 2), lam.size - 1, lam.size - 2]]


def nan_lanes(lam, levels):
    return np.full_like(lam, np.nan)


@pytest.mark.parametrize("wrong, first", [
    (shift_lane_across, 40), (swap_top_lanes, 10), (nan_lanes, 0),
])
def test_a_wrong_prediction_resumes_at_its_first_wrong_level(wrong, first, monkeypatch):
    op, want, levels = acceptance_reference()
    lam = wrong(lapack_eigs(op, 16), levels)
    # the first level at which some lane's predicted sign is wrong
    assert first == next(i for i, (_, _, mids, below) in enumerate(levels)
                         if ((mids < lam) != below).any())
    counts = sp._sturm_counts
    monkeypatch.setattr(sp, "_predicted_eigs", lambda d, first: lam)
    calls = sturm_calls(monkeypatch)
    assert sp.halfline_eigs(op, count=16) == want
    # the counted run from the brackets checked before the first wrong level
    d = op.diagonal()
    tol = 1e-14 * max(abs(d.min() - 2.0), abs(d.max() + 2.0), 1.0)
    targets = np.arange(4096 - 16, 4096) + 0.5
    resumed = []
    los, his, mids, _ = levels[first]
    sp._bisect(counting(lambda xs, lanes: targets[lanes] - counts(d, xs), resumed),
               los, his, sp.MAX_STEPS - first, 0.0, lambda a, b, m: np.max(b - a) < tol)
    assert len(calls) == 1 + len(resumed)
    assert np.isin(mids, calls[1]).all()
    if first:
        assert not np.isin(levels[first - 1][2], np.concatenate(calls[1:])).any()


def test_bracket_groups_match_bit_for_bit():
    # -0.0 == 0.0 as values, but the brackets differ in their bits
    los = np.array([0.0, -0.0, 0.0, 1.0, 0.0])
    his = np.array([2.0, 2.0, 2.0, 2.0, 1.0])
    first, group = sp._bracket_groups(los, his)
    assert group.shape == los.shape
    assert len(first) == 4
    assert group[0] == group[2]
    assert len({group[0], group[1], group[3], group[4]}) == 4
    for lane, g in enumerate(group):
        assert los[first[g]].tobytes() == los[lane].tobytes()
        assert his[first[g]].tobytes() == his[lane].tobytes()


def bisect_calls(monkeypatch):
    """One entry per call of g in every _bisect run."""
    calls = []
    bisect = sp._bisect
    monkeypatch.setattr(sp, "_bisect", lambda g, *args: bisect(counting(g, calls), *args))
    return calls


@pytest.mark.parametrize("spec", JOINT_SPECS)
def test_one_level_per_call_gives_the_same_band_edges(spec, monkeypatch):
    levels = list(range(int(min(8, spec.max_level()))))
    calls = bisect_calls(monkeypatch)
    want = [b.intervals for b in sp.band_sets(spec, levels, grid=2000)]
    trees = len(calls)
    monkeypatch.setattr(sp, "LANE_BUDGET", 1)
    assert [b.intervals for b in sp.band_sets(spec, levels, grid=2000)] == want
    assert len(calls) - trees > trees


@pytest.mark.parametrize("op, count", HALFLINE_CASES)
def test_one_level_per_call_gives_the_same_eigenvalues(op, count, monkeypatch):
    calls = sturm_calls(monkeypatch)
    want = sp.halfline_eigs(op, count=count)
    trees, budget = len(calls), sp.LANE_BUDGET
    # past budget // 3 lanes the default already steps one level per call
    one_level = (count or op.size) > budget // 3
    monkeypatch.setattr(sp, "LANE_BUDGET", 1)
    # a prediction wrong from the first level leaves all to the counted tree
    nan = lambda d, first: np.full(d.size - first, np.nan)
    for predict in (sp._predicted_eigs, nan):
        monkeypatch.setattr(sp, "_predicted_eigs", predict)
        del calls[:]
        assert sp.halfline_eigs(op, count=count) == want
        assert len(calls) == trees if one_level else len(calls) > trees


def test_one_edge_lane_walks_several_levels_per_call():
    sizes, old = [], []

    def step(xs, lanes):
        assert not lanes.any()
        return np.where(xs < 0.3, 1.0, -1.0)

    def sized(xs, lanes):
        sizes.append(xs.size)
        return step(xs, lanes)

    lo, hi = np.array([-0.7]), np.array([0.8])
    x = sp._bisect_edges(sized, lo, hi, 1e-10)
    assert x.tolist() == ref_bisect_edges(counting(step, old), lo, hi, 1e-10).tolist()
    # a lone bracket's tree is 9 levels deep, 511 midpoints within the budget;
    # the lane stops at adjacent floats in 7 calls, and the reference, which
    # has no such rule, steps to its cap
    assert sizes == [511] * len(sizes)
    assert len(sizes) <= 7 and len(old) == 200


def test_halfline_eigs_rejects_a_non_integer_count():
    op = sp.HalfLineOperator(64, SPARSE3.window(1, 128))
    for count in (2.5, "3", math.nan):
        with pytest.raises(sq.ValidationError, match="count must be an integer"):
            sp.halfline_eigs(op, count=count)
    assert sp.halfline_eigs(op, count=np.int64(3)) == sp.halfline_eigs(op, count=3)


def test_halfline_operator_rejects_a_non_integer_size():
    for size in (64.5, "64"):
        with pytest.raises(sq.ValidationError, match="size must be an integer"):
            sp.HalfLineOperator(size, SPARSE3.window(1, 128))
    assert sp.HalfLineOperator(np.int64(64), SPARSE3.window(1, 128)).diagonal().size == 64


def test_halfline_eigs_rejects_a_count_above_the_size():
    op = sp.HalfLineOperator(64, SPARSE3.window(1, 128))
    with pytest.raises(sq.ValidationError, match="count 100 exceeds the truncation size 64"):
        sp.halfline_eigs(op, count=100)
    with pytest.raises(sq.ValidationError, match="count must be >= 1"):
        sp.halfline_eigs(op, count=0)
    assert len(sp.halfline_eigs(op, count=64)) == 64


# ---------------------------------------------------------------------------
# Eigenvalue-exclusion certificates
# ---------------------------------------------------------------------------


def test_free_power_bound_at_zero_energy():
    assert sp.free_power_norm_bound(0.0) == 1.0
    assert abs(sp.sampled_power_sup(0.0, 2000) - 1.0) <= 1e-12


def test_free_power_bound_generic_energies():
    for e in (0.7, -0.4, 1.1):
        closed = sp.free_power_norm_bound(e)
        sampled = sp.sampled_power_sup(e, 10_000)
        assert sampled <= closed + 1e-12
        assert abs(sampled - closed) <= 1e-6


def test_certificate_requires_interior_energy():
    spec = sq.SparseSpec(v=2.0, rule=("power", 3))
    with pytest.raises(sq.ValidationError):
        sp.sparse_no_eigenvalue_certificate(spec, 2.0)
    with pytest.raises(sq.ValidationError):
        sp.free_power_norm_bound(-2.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(sq.ValidationError, match=repr(bad)):
            sp.sparse_no_eigenvalue_certificate(spec, bad)
        with pytest.raises(sq.ValidationError):
            sp.free_power_norm_bound(bad)
        with pytest.raises(sq.ValidationError):
            sp.sampled_power_sup(bad)


@pytest.mark.parametrize("j_max,message", [
    (0, "j_max must be >= 1, got 0"), (-3, "j_max must be >= 1, got -3"),
    (2.5, "j_max must be an integer, got 2.5"), ("4", "j_max must be an integer, got '4'"),
])
def test_sampled_power_sup_rejects_a_j_max_below_one_or_not_an_integer(j_max, message):
    with pytest.raises(sq.ValidationError, match="^%s$" % re.escape(message)):
        sp.sampled_power_sup(0.3, j_max)
    # numpy integers are integers
    assert sp.sampled_power_sup(0.3, np.int64(2000)) == sp.sampled_power_sup(0.3, 2000)


@pytest.mark.parametrize("k_max,message", [
    (0, "k_max must be >= 1, got 0"), (-3, "k_max must be >= 1, got -3"),
    (1.5, "k_max must be an integer, got 1.5"), ("4", "k_max must be an integer, got '4'"),
])
def test_certificate_rejects_a_k_max_below_one_or_not_an_integer(k_max, message):
    spec = sq.SparseSpec(v=2.0, rule=("power", 3))
    with pytest.raises(sq.ValidationError, match=re.escape(message)):
        sp.sparse_no_eigenvalue_certificate(spec, 0.3, k_max=k_max)
    assert len(sp.sparse_no_eigenvalue_certificate(spec, 0.3, k_max=np.int64(1)).terms) == 1


def test_certificate_diverges_for_factorial_gaps():
    spec = sq.SparseSpec(v=2.0, rule=("factorial_gaps", 1))
    cert = sp.sparse_no_eigenvalue_certificate(spec, 0.0, k_max=15)
    assert cert.positive
    assert cert.partial_sums[-1] > 2 * cert.partial_sums[7]
    assert cert.terms[-1] > cert.terms[-2] > cert.terms[-3]


def test_certificate_converges_for_geometric_gaps_with_large_barrier():
    gaps = [2**k for k in range(1, 16)]
    cert = sp.certificate_from_gaps(gaps, 8.0, 0.0)
    assert (cert.c_closed * cert.o_norm) ** 2 > 2.0
    assert cert.verdict == "converges-evidence"
    assert not cert.positive


def test_certificate_geometric_threshold():
    # at E = 0, v = 2: (C O)^2 = 3 + 2 sqrt(2) ~ 5.83, so gap ratio 3
    # converges while gap ratio 7 diverges
    slow = sp.sparse_no_eigenvalue_certificate(
        sq.SparseSpec(v=2.0, rule=("power", 3)), 0.0, k_max=15
    )
    assert slow.verdict == "converges-evidence"
    fast = sp.sparse_no_eigenvalue_certificate(
        sq.SparseSpec(v=2.0, rule=("power", 7)), 0.0, k_max=15
    )
    assert fast.verdict == "diverges-evidence"
