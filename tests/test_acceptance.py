"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Criterion 8 tests the sparse gap against the essential spectrum
[-2, 2] u {sqrt8}: the truncation must show eigenvalues within 1e-3 of
sqrt8, one more for each barrier added, and inside (2 + 1e-2, sqrt8 - 1e-2)
only discrete spectrum, which stays put as N doubles and matches the mpmath
roots of the half-line decaying-solution condition (2.8165074 here).
"""

import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from sturmspec import cocycle as cc
from sturmspec import complexity as cx
from sturmspec import gordon as gd
from sturmspec import sequences as sq
from sturmspec import spectrum as sp

AB = sq.Alphabet(("a", "b"), (0.0, 1.0))
SIMPLE3 = sq.ToeplitzSpec(AB, sq.CodingTriple((), 1, 0), ("a", "b"), (3, 3), (0, 0))
SPARSE3 = sq.SparseSpec(v=2.0, rule=("power", 3))
ROOT8 = math.sqrt(8.0)

_caches = {}


def report(num, ok, detail):
    line = "ACCEPTANCE %02d [%s] %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    return line


def trace_tables_on_grid():
    """Shared K=7 trace tables over 200 grid energies in [-3, 4]."""
    if "tables" not in _caches:
        grid = np.linspace(-3.0, 4.0, 200)
        _caches["tables"] = [
            cc.trace_table(SIMPLE3, float(e), 7) for e in grid
        ]
    return _caches["tables"]


def sigma_levels():
    """Shared level-0..7 band sets at grid 1e5, tol 1e-10, from one call."""
    if "sigma" not in _caches:
        levels = range(8)
        _caches["sigma"] = dict(
            zip(levels, sp.band_sets(SIMPLE3, levels, grid=100_000, tol=1e-10))
        )
    return _caches["sigma"]


def test_01_pattern_sturmian_cap_and_attainment():
    t0 = time.time()
    words = {
        "circle beta=alpha": sq.CircleMapSpec(
            377, 610, Fraction(377, 610), Fraction(0), 1.0
        ).window(0, 5000, allow_periodic=True),
        # 2/5 stands in for a generic arc length (not a rotation multiple)
        "circle beta=2/5": sq.CircleMapSpec(
            377, 610, Fraction(2, 5), Fraction(0), 1.0
        ).window(0, 5000, allow_periodic=True),
        "sparse 3^k": SPARSE3.window(1, 5000),
    }
    failures = []
    for name, w in words.items():
        profile = cx.pstar_profile(w, 12, 200)
        values = [c for c, _ in profile]
        for n in range(1, 9):
            if values[n - 1] != 2 * n:
                failures.append("%s: p*(%d) = %d != %d" % (name, n, values[n - 1], 2 * n))
        for n in range(1, 13):
            if values[n - 1] > 2 * n:
                failures.append("%s: p*(%d) = %d exceeds %d" % (name, n, values[n - 1], 2 * n))
    elapsed = time.time() - t0
    ok = not failures and elapsed <= 300
    report(1, ok, "p* = 2n attained (n<=8), cap respected (n<=12), %.0fs" % elapsed)
    assert not failures, failures
    assert elapsed <= 300


def test_02_sturmian_block_complexity():
    w = sq.CircleMapSpec(377, 610, Fraction(377, 610), Fraction(0), 1.0).window(
        0, 2000, allow_periodic=True
    )
    values = [cx.block_complexity(w, n) for n in range(1, 13)]
    ok = values == [n + 1 for n in range(1, 13)]
    report(2, ok, "p(n) = n + 1 for n = 1..12 on the arc coding: %s" % values)
    assert ok


def test_03_trace_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    for table in trace_tables_on_grid():
        for k in range(7):
            hd, hr = table.h_direct[k], table.h_recursion[k]
            rel = float(abs(hd - hr) / max(1, abs(hd)))
            worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed <= 60
    report(3, ok, "direct vs recursion on 200 energies, worst rel diff %.2e, %.0fs"
           % (worst, elapsed))
    assert worst <= 1e-8
    assert elapsed <= 60


def test_04_escape_property():
    violations = []
    for table in trace_tables_on_grid():
        h = [abs(x) for x in table.h_recursion]
        for k in range(5):
            if h[k] > 2 and h[k + 1] > 2:
                if not all(h[j] > 2 for j in range(k, 8)):
                    violations.append(table.energy)
                break
    ok = not violations
    report(4, ok, "escaped traces stay escaped through level 7 (%d violations)"
           % len(violations))
    assert not violations


def test_05_band_nesting_and_measure_trend():
    t0 = time.time()
    sig = sigma_levels()
    e_range = (-2.5, 3.5)
    violations = []
    for k in range(1, 5):
        outer = sig[k].union(sig[k + 1])
        viol, checked = sp.grid_containment(sig[k + 2], outer, e_range, 100_000)
        assert checked > 1000
        violations.extend(viol)
    measures = [sig[k].union(sig[k + 1]).measure for k in range(7)]
    monotone = all(b <= a + 1e-9 for a, b in zip(measures, measures[1:]))
    halved = measures[6] < 0.5 * measures[0]
    elapsed = time.time() - t0
    ok = not violations and monotone and halved and elapsed <= 600
    report(5, ok, "containment ok, measures %.3f -> %.3f, %.0fs"
           % (measures[0], measures[6], elapsed))
    assert not violations
    assert monotone and halved
    assert elapsed <= 600


def test_06_lyapunov_dichotomy():
    t0 = time.time()
    sig = sigma_levels()
    approx5 = sig[5].union(sig[6])
    rng = np.random.default_rng(6)
    inside = approx5.sample_energies()
    rng.shuffle(inside)
    inside = inside[:20]
    outside = list(np.linspace(-4.0, -2.5, 10)) + list(np.linspace(3.5, 5.0, 10))
    g_in, _ = cc.lyapunov_scan(SIMPLE3, inside, n_steps=100_000, samples=4)
    g_out, _ = cc.lyapunov_scan(SIMPLE3, outside, n_steps=100_000, samples=4)
    ok = np.abs(g_in).max() <= 5e-2 and g_out.min() >= 0.1
    report(6, ok, "in-band max |gamma| %.4f (<= 0.05), off-box min %.3f (>= 0.1), %.0fs"
           % (np.abs(g_in).max(), g_out.min(), time.time() - t0))
    assert np.abs(g_in).max() <= 5e-2
    assert g_out.min() >= 0.1


def test_07_gordon_sweep_and_nondecay():
    t0 = time.time()
    rep = gd.gordon_sweep(
        SIMPLE3, entry_k=2, n_energies=50, n_origins=200,
        energy_level=7, max_scale=9, seed=20260810, grid=100_000,
    )
    classified = sum(rep.case_counts.values())
    scan_failures = []
    for e in rep.energies[:20]:
        nd = gd.nondecay_scan(SIMPLE3, e, 2000)
        if not nd.passed:
            scan_failures.append((e, nd.failures))
    elapsed = time.time() - t0
    ok = (
        classified == 50 * 200
        and not rep.falsifications
        and rep.min_margin >= -1e-9
        and not scan_failures
        and elapsed <= 900
    )
    report(7, ok, "10000/10000 classified, min margin %.4f, %d falsifications, "
           "nondecay ok, %.0fs" % (rep.min_margin, len(rep.falsifications), elapsed))
    assert classified == 50 * 200
    assert rep.falsifications == ()
    assert rep.min_margin >= -1e-9
    assert not scan_failures
    assert elapsed <= 900


def decay_mismatch(energy, sites, v):
    """psi(m+1) - psi(m) / lam for the solution with psi(0) = 0, psi(1) = 1.

    The potential is v at ``sites`` and 0 elsewhere, m = max(sites).  Past m
    the solution is a lam^n + b lam^-n with lam = (E + sqrt(E^2 - 4)) / 2, so
    for E > 2 this vanishes exactly when the solution decays like lam^-n:
    at the eigenvalues of the infinite half-line operator.
    """
    e = mp.mpf(energy)
    m = max(sites)
    prev, cur = mp.mpf(0), mp.mpf(1)
    for n in range(1, m + 1):
        prev, cur = cur, (e - (v if n in sites else 0)) * cur - prev
    lam = (e + mp.sqrt(e * e - 4)) / 2
    return cur - prev / lam


def decaying_solution_roots(lo, hi, sites, v):
    """Roots of :func:`decay_mismatch` in (lo, hi), bracketed on a grid."""
    def f(e):
        return decay_mismatch(e, sites, v)

    with mp.workdps(30):
        es = np.linspace(lo, hi, 2001)
        fs = [f(e) for e in es]
        return [
            float(mp.findroot(f, (a, b), solver="bisect"))
            for a, b, fa, fb in zip(es, es[1:], fs, fs[1:])
            if mp.sign(fa) != mp.sign(fb)
        ]


def paired_gap(xs, ys):
    """Largest |x - y| over the sorted lists paired one for one; inf if
    their lengths differ."""
    if len(xs) != len(ys):
        return math.inf
    return max((abs(x - y) for x, y in zip(xs, ys)), default=0.0)


def test_08_sparse_truncation_spectrum():
    # sqrt8 bounds only the essential spectrum: barriers close to the wall or
    # to each other may add finitely many discrete eigenvalues in the zone.
    op = sp.HalfLineOperator(4096, SPARSE3.window(1, 4200))
    top = sp.halfline_eigs(op, count=16)
    near = [x for x in top if abs(x - ROOT8) <= 1e-3]
    zone = [x for x in top if 2 + 1e-2 < x < ROOT8 - 1e-2]

    # (a) no drift with N
    op_half = sp.HalfLineOperator(2048, SPARSE3.window(1, 2100))
    top_half = sp.halfline_eigs(op_half, count=16)
    near_half = [x for x in top_half if abs(x - ROOT8) <= 1e-3]
    zone_half = [x for x in top_half if 2 + 1e-2 < x < ROOT8 - 1e-2]
    drift = paired_gap(zone, zone_half)
    # (b) one new eigenvalue near sqrt8 per barrier added in (2048, 4096]
    added = len(SPARSE3.positions_upto(4096)) - len(SPARSE3.positions_upto(2048))
    # (c) each zone eigenvalue is a root of the decaying-solution condition
    # for the barriers at 3, 9 and 27; farther barriers move a state that
    # lives on sites 1..12 by less than lam^-100, far below 1e-9.
    roots = decaying_solution_roots(
        2 + 1e-2, ROOT8 - 1e-2, set(SPARSE3.positions_upto(27)), SPARSE3.v
    )
    oracle = paired_gap(zone, roots)
    ok = (
        bool(near)
        and drift <= 1e-10
        and len(near) - len(near_half) == added
        and oracle <= 1e-9
    )
    report(
        8, ok,
        "%d/%d eigenvalues within 1e-3 of sqrt8 at N = 2048/4096; zone holds"
        " discrete spectrum only: [%s] at both N (drift %.1e), oracle diff %.1e"
        % (
            len(near_half), len(near), ", ".join("%.7f" % x for x in zone),
            drift, oracle,
        ),
    )
    assert near, "no truncation eigenvalue within 1e-3 of sqrt(8)"
    assert drift <= 1e-10, (
        "zone eigenvalues move with N: %s at N = 2048, %s at N = 4096"
        % (zone_half, zone)
    )
    assert len(near) - len(near_half) == added, (
        "%d eigenvalues near sqrt(8) at N = 2048 and %d at N = 4096; expected"
        " %d more, one per barrier in (2048, 4096]"
        % (len(near_half), len(near), added)
    )
    assert oracle <= 1e-9, (
        "zone eigenvalues %s do not match the decaying-solution roots %s"
        % (zone, roots)
    )


def test_09_sparse_certificate():
    c_closed = sp.free_power_norm_bound(0.0)
    c_sampled = sp.sampled_power_sup(0.0, 10_000)
    exact = c_closed == 1.0 and abs(c_sampled - c_closed) <= 1e-12
    gaps = [math.factorial(k) for k in range(1, 16)]
    cert = sp.certificate_from_gaps(gaps, 2.0, 0.0)
    tail_growth = all(
        b > a for a, b in zip(cert.partial_sums[8:], cert.partial_sums[9:])
    )
    unbounded = (
        cert.positive
        and cert.terms[-1] > cert.terms[-2] > cert.terms[-3]
        and cert.partial_sums[-1] > 4 * cert.partial_sums[7]
    )
    ok = exact and tail_growth and unbounded
    report(9, ok, "C_0 = 1 exactly (closed = sampled), factorial-gap sums grow "
           "without bound (last partial sum %.3g)" % cert.partial_sums[-1])
    assert exact
    assert unbounded and tail_growth


def test_10_nonrecurrent_extension():
    rows = cx.nonrecurrent_extension_test(SPARSE3, 0, [25, 40, 60, 90, 120])
    passed = [r for r in rows if r.exceeds]
    ok = len(passed) >= 5
    report(10, ok, "p(n) > 2n certified at n = %s" % [r.n for r in passed])
    assert len(passed) >= 5


def test_11_structural_identities():
    t0 = time.time()
    rng = np.random.default_rng(11)

    def random_partial():
        period = int(rng.integers(1, 10))
        hole = int(rng.integers(0, period))
        cells = [str(x) for x in rng.choice(["a", "b"], size=period)]
        cells[hole] = sq.HOLE
        return sq.PartialWord.from_cells(cells, AB)

    # associativity, 1000 random triples, exact cell-wise equality
    for _ in range(1000):
        x, y, z = random_partial(), random_partial(), random_partial()
        left = sq.compose(sq.compose(x, y), z)
        right = sq.compose(x, sq.compose(y, z))
        assert left.period == right.period
        assert np.array_equal(left.codes, right.codes)
        assert left.hole_offset == right.hole_offset

    # shared-prefix property of the building blocks, 20 random specs
    for _ in range(20):
        depth = 8
        periods = tuple(int(p) for p in rng.integers(3, 6, size=depth))
        offsets = tuple(int(rng.integers(0, p)) for p in periods)
        spec = sq.ToeplitzSpec(
            AB, sq.CodingTriple((), 1, 0),
            tuple("ab"[i % 2] for i in range(depth)), periods, offsets,
            cycle=False,
        )
        for k in range(7):
            s, t = sq.blocks(spec, k)
            assert len(s) == len(t) == spec.block_length(k)
            assert np.array_equal(s[:-1], t[:-1])
            assert s[-1] != t[-1]

    # partition uniqueness and gap membership on shifted windows
    w = SIMPLE3.window(1, 6000)
    for k in (1, 2, 3):
        n_above = SIMPLE3.tail_period(k + 1)
        for shift in (0, 5, 23):
            pv = sq.k_partition(w.slice(1 + shift, 5800 + shift), SIMPLE3, k)
            assert set(pv.gaps) <= {n_above - 1, 2 * n_above - 1}
    with pytest.raises(sq.AmbiguousPartitionError):
        sq.k_partition(sq.Window(0, np.zeros(300, dtype=np.int16), AB), SIMPLE3, 1)

    # period-2 merge equivalence over a full merged period
    spec2 = sq.ToeplitzSpec(
        AB, sq.CodingTriple((), 1, 0),
        ("a", "b", "a", "b"), (2, 3, 3, 4), (1, 0, 2, 1), cycle=False,
    )
    raw = sq.PartialWord.identity(AB)
    for a, n, l in [("a", 2, 1), ("b", 3, 0), ("a", 3, 2), ("b", 4, 1)]:
        raw = sq.compose(raw, sq.CodingTriple((a,) * (n - 1), n, l).to_partial(AB))
    norm = spec2.composed(3)
    assert raw.period == norm.period
    assert np.array_equal(raw.codes, norm.codes)
    assert raw.hole_offset == norm.hole_offset

    report(11, True, "associativity x1000, block prefixes x20 specs, partition "
           "uniqueness, merge equivalence: all exact, %.0fs" % (time.time() - t0))
