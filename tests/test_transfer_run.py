"""The transfer-recurrence kernel and its callers.

Each caller of ``cocycle.transfer_run`` is compared against the
site-by-site loop it replaced, kept below as ``ref_*``.  The references
write the recurrence out by hand, so none of them shares the kernel.  Most
callers match with ``==``.  Three associate their products differently:
the block matrices composed through the substitution match the literal
mpmath products to a relative 1e-40; ``lyapunov_scan``, which
multiplies word matrices, matches ``ref_lyapunov_scan`` to
1e-12 max(1, |gamma|) and the literal mpmath product near E = +-2; and
``_norm_slabs``, whose runs past ``WORD_REACH`` multiply word matrices,
matches the literal mpmath loop to 1e-12 max(1, |N|) there, and
``ref_norm_slabs`` to ``DEEP_TOL`` (the float64 loop drifts further).
"""

import math
import pathlib
import re

import mpmath as mp
import numpy as np
import pytest

from sturmspec import cocycle as cc
from sturmspec import config as cfg
from sturmspec import gordon as gd
from sturmspec import sequences as sq
from sturmspec import spectrum as sp

AB = sq.Alphabet(("a", "b"), (0.0, 1.0))


def simple_spec(periods=(3, 3)):
    n = len(periods)
    return sq.ToeplitzSpec(
        AB, sq.CodingTriple((), 1, 0),
        tuple("ab"[i % 2] for i in range(n)), tuple(periods), (0,) * n,
    )


SIMPLE3 = simple_spec()
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def config_spec(name):
    return cfg.build_spec(cfg.parse_config(str(CONFIGS / ("%s.cfg" % name))))


# ---------------------------------------------------------------------------
# The replaced loops
# ---------------------------------------------------------------------------


def ref_word_matrix(values, energy):
    m = np.eye(2)
    for v in values:
        m = np.array([[energy - v, -1.0], [1.0, 0.0]]) @ m
    return m


def ref_word_matrix_mp(values, energy):
    e = mp.mpf(energy)
    a, b, c, d = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
    for v in values:
        ev = e - v
        a, b, c, d = ev * a - c, ev * b - d, a, b
    return [a, b, c, d]


def ref_trace_seeds_f64(spec, e_grid):
    e = np.asarray(e_grid, dtype=np.float64)

    def fold(values):
        a = np.ones_like(e)
        b = np.zeros_like(e)
        c = np.zeros_like(e)
        d = np.ones_like(e)
        for v in values:
            ev = e - v
            a, b, c, d = ev * a - c, ev * b - d, a, b
        return a + d

    table = spec.alphabet.value_table()
    return tuple(fold(table[sq.blocks(spec, k)[0]]) for k in (0, 1))


def ref_lyapunov_scan(vals, energies, n_steps, samples, stride=1013):
    e = np.atleast_1d(np.asarray(energies, dtype=np.float64))
    ecol = np.repeat(e, samples)
    offs = np.tile(np.arange(samples) * stride, e.size)
    a = np.ones_like(ecol)
    b = np.zeros_like(ecol)
    c = np.zeros_like(ecol)
    d = np.ones_like(ecol)
    logacc = np.zeros_like(ecol)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            ev = ecol - vals[offs + i]
            a, b, c, d = ev * a - c, ev * b - d, a, b
            if (i + 1) % 32 == 0:
                scale = np.maximum.reduce([np.abs(a), np.abs(b), np.abs(c), np.abs(d)])
                logacc += np.log(scale)
                a, b, c, d = a / scale, b / scale, c / scale, d / scale
    norms = np.sqrt(
        np.maximum(
            (a * a + b * b + c * c + d * d) / 2
            + np.sqrt(
                np.maximum(
                    ((a * a + b * b + c * c + d * d) / 2) ** 2 - (a * d - b * c) ** 2,
                    0.0,
                )
            ),
            1e-300,
        )
    )
    gam = ((logacc + np.log(norms)) / n_steps).reshape(e.size, samples)
    return gam.mean(axis=1), gam.max(axis=1) - gam.min(axis=1)


def ref_propagate(window, energy, phi_init, origin, lo, hi):
    pm1, p0 = phi_init
    vals = window.values()
    base = window.start
    phi = np.zeros(hi - lo + 1)
    phi[origin - 1 - lo] = pm1
    phi[origin - lo] = p0
    e = float(energy)
    with np.errstate(over="ignore", invalid="ignore"):
        for site in range(origin, hi):
            phi[site + 1 - lo] = (
                (e - vals[site - base]) * phi[site - lo] - phi[site - 1 - lo]
            )
        for site in range(origin - 1, lo, -1):
            phi[site - 1 - lo] = (
                (e - vals[site - base]) * phi[site - lo] - phi[site + 1 - lo]
            )
    return phi


def ref_norm_slabs(window, energies, origins, offsets, basis):
    e = np.asarray(energies, dtype=np.float64)[:, None]
    o = np.asarray(origins, dtype=np.int64)[None, :]
    vals = window.values()
    base = window.start
    offsets = sorted(set(offsets))
    out = {}
    pm1, p0 = basis
    fwd = [t for t in offsets if t >= 0]
    bwd = [t for t in offsets if t < 0]
    prev = np.full((e.size, o.shape[1]), pm1)
    cur = np.full((e.size, o.shape[1]), p0)
    if 0 in offsets:
        out[0] = np.hypot(cur, prev)
    for rel in range(0, max(fwd) if fwd else 0):
        v = vals[(o + rel) - base]
        prev, cur = cur, (e - v) * cur - prev
        if (rel + 1) in offsets:
            out[rel + 1] = np.hypot(cur, prev)
    prev = np.full((e.size, o.shape[1]), p0)
    cur = np.full((e.size, o.shape[1]), pm1)
    for rel in range(-1, (min(bwd) if bwd else 0) - 1, -1):
        v = vals[(o + rel) - base]
        prev, cur = cur, (e - v) * cur - prev
        if rel in offsets:
            out[rel] = np.hypot(prev, cur)
    return out


def ref_matrix_norm2(m):
    fro2 = float(np.sum(m * m))
    det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    inner = max(fro2 * fro2 - 4.0 * det * det, 0.0)
    return math.sqrt(max((fro2 + math.sqrt(inner)) / 2.0, 0.0))


def ref_cheb_eval(n, x):
    s_prev = x * 0
    if n == 0:
        return s_prev
    s_cur = x * 0 + 1
    for _ in range(n - 1):
        s_prev, s_cur = s_cur, x * s_cur - s_prev
    return s_cur


def ref_recursion_step(h_prev, h_cur, n_mid, n_top):
    inner = ref_cheb_eval(n_mid, h_prev) * h_prev - 2 * ref_cheb_eval(n_mid - 1, h_prev)
    return ref_cheb_eval(n_top, h_cur) * inner - 2 * ref_cheb_eval(n_top - 1, h_cur)


def ref_sampled_power_sup(energy, j_max):
    f = np.array([[energy, -1.0], [1.0, 0.0]])
    m = np.eye(2)
    best = 1.0
    for _ in range(j_max):
        m = f @ m
        best = max(best, ref_matrix_norm2(m))
    return best


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------


def test_transfer_run_steps_and_trail():
    trail = []
    cur, prev = cc.transfer_run([2.0, 3.0, -1.0], 1.0, 0.5, trail)
    # 2*1 - 0.5 = 1.5; 3*1.5 - 1 = 3.5; -1*3.5 - 1.5 = -5
    assert trail == [1.5, 3.5, -5.0]
    assert (cur, prev) == (-5.0, 3.5)
    assert cc.transfer_run([], 0.25, 0.75) == (0.25, 0.75)
    assert cc.transfer_run(iter([2.0, 3.0, -1.0]), 1.0, 0.5) == (-5.0, 3.5)


def test_transfer_run_backward_is_the_reversed_run():
    coeffs = np.random.default_rng(3).uniform(-2, 2, size=40).tolist()
    fwd = [0.6, 0.8]
    cur, prev = cc.transfer_run(coeffs, 0.8, 0.6, fwd)
    back = []
    cur2, prev2 = cc.transfer_run(coeffs[::-1], prev, cur, back)
    assert abs(cur2 - 0.6) < 1e-9 and abs(prev2 - 0.8) < 1e-9
    assert np.allclose(back[::-1], fwd[:-2], rtol=1e-9, atol=1e-9)


def test_transfer_run_on_lanes_and_mp():
    lanes = np.array([0.5, -1.5, 3.0])
    cur, prev = cc.transfer_run([lanes, lanes], 1.0, 0.0)
    assert np.array_equal(cur, lanes * lanes - 1.0) and np.array_equal(prev, lanes)
    with mp.workdps(50):
        c = mp.mpf(1) / 3
        cur, _ = cc.transfer_run([c, c], mp.mpf(1), mp.mpf(0))
        assert cur == c * c - 1


# ---------------------------------------------------------------------------
# Callers against the replaced loops
# ---------------------------------------------------------------------------


def test_word_matrix_matches_matmul_reference():
    # the two column runs that give the level-0 block matrices
    vals = SIMPLE3.window(1, 300).values()
    for e in (-1.7, 0.3, 2.95):
        for word in (vals, vals.tolist()):
            m = np.array(cc._run_matrix([e - v for v in word]))
            assert np.array_equal(m, ref_word_matrix(vals, e))


def assert_close_mp(got, want, rel=1e-40):
    for x, y in zip(got, want):
        assert abs(x - y) <= rel * max(1, abs(y))


def test_block_trace_matches_mp_products():
    # composed through the substitution, so associated differently from
    # the literal product: equal to 1e-40, not bit for bit
    with mp.workdps(50):
        for energy in (-1.9, 0.0, 0.3, 2.9):
            e = mp.mpf(energy)
            traces = cc.block_traces(SIMPLE3, 8, e)
            for k in range(9):
                sv = SIMPLE3.alphabet.value_table()[sq.blocks(SIMPLE3, k)[0]]
                m = ref_word_matrix_mp(sv, e)
                assert_close_mp([traces[k]], [m[0] + m[3]])


def ref_block_matrices_mp(spec, k, e):
    """[a, b, c, d] of M(s_k) and M(t_k) by literal site-by-site products.

    The two words differ only in their last site, so one run covers the
    shared part.
    """
    s, t = (spec.alphabet.value_table()[w] for w in sq.blocks(spec, k))
    a, b, c, d = ref_word_matrix_mp(s[:-1], e)
    return [[(e - v) * a - c, (e - v) * b - d, a, b] for v in (s[-1], t[-1])]


def varying_period_specs():
    rng = np.random.default_rng(4)
    for _ in range(3):
        periods = tuple(int(p) for p in rng.integers(3, 6, size=8))
        offsets = tuple(int(rng.integers(0, p)) for p in periods)
        yield sq.ToeplitzSpec(AB, sq.CodingTriple((), 1, 0), ("a", "b") * 4,
                              periods, offsets, cycle=False)


PREFIX_SPEC = sq.ToeplitzSpec(
    AB, sq.CodingTriple(("b", "a"), 3, 1), ("a", "b"), (4, 3), (1, 2)
)


@pytest.mark.parametrize(
    "spec, K, energies",
    [(SIMPLE3, 9, (-2.6, 0.3, 1.05, 3.1))]
    + [(spec, 6, (-1.2, 0.3, 2.9)) for spec in varying_period_specs()]
    + [(PREFIX_SPEC, 6, (-1.2, 0.3, 2.9))],
    ids=["simple3", "varying0", "varying1", "varying2", "prefix"],
)
def test_block_matrices_match_literal_products(spec, K, energies):
    with mp.workdps(50):
        for energy in energies:
            e = mp.mpf(energy)
            mats = cc.block_matrices(spec, K, e)
            assert len(mats) == K + 1
            for k, pair in enumerate(mats):
                want = ref_block_matrices_mp(spec, k, e)
                got = [[m[0][0], m[0][1], m[1][0], m[1][1]] for m in pair]
                if k == 0:
                    assert got == want
                for g, w in zip(got, want):
                    assert_close_mp(g, w)


@pytest.mark.parametrize("lanes", [200, 1001, 100_000])
def test_block_trace_lanes_match_seed_reference(lanes):
    grid = np.linspace(-3.0, 4.0, lanes)
    h0, h1 = ref_trace_seeds_f64(SIMPLE3, grid)
    traces = cc.block_traces(SIMPLE3, 1, grid)
    assert np.array_equal(traces[0], h0) and np.array_equal(traces[1], h1)
    h = cc.trace_recursion_f64(SIMPLE3, 2, grid)
    assert np.array_equal(h[0], h0) and np.array_equal(h[1], h1)


def test_cheb_eval_matches_reference():
    lanes = np.linspace(-3.0, 3.0, 101)
    with mp.workdps(50):
        xm = mp.mpf(7) / 3
        for n in range(13):
            assert np.array_equal(cc.cheb_eval(n, lanes), ref_cheb_eval(n, lanes))
            assert cc.cheb_eval(n, 1.7) == ref_cheb_eval(n, 1.7)
            assert cc.cheb_eval(n, xm) == ref_cheb_eval(n, xm)
    with pytest.raises(sq.ValidationError):
        cc.cheb_eval(-1, 0.5)


def test_trace_recursion_matches_reference_step(monkeypatch):
    grid = np.linspace(-3.0, 4.0, 100_000)
    got = cc.trace_recursion_f64(SIMPLE3, 8, grid)
    monkeypatch.setattr(cc, "_recursion_step", ref_recursion_step)
    assert np.array_equal(got, cc.trace_recursion_f64(SIMPLE3, 8, grid))


@pytest.mark.parametrize("energy,K", [(0.3, 12), (-2.6, 9), (1.05, 9), (3.1, 9), (5.5, 9)])
def test_trace_table_recursion_matches_reference_step(monkeypatch, energy, K):
    got = cc.trace_table(SIMPLE3, energy, K).h_recursion
    monkeypatch.setattr(cc, "_recursion_step", ref_recursion_step)
    assert got == cc.trace_table(SIMPLE3, energy, K).h_recursion


def lyapunov_windows(total):
    """The Lyapunov oracle's windows: three shipped configs and a random one."""
    rng = np.random.default_rng(11)
    abc = sq.Alphabet(("a", "b", "c"), (0.0, 1.0, -0.7))
    return {
        "simple3": SIMPLE3.window(1, total),
        "fib": config_spec("fib").window(1, total, allow_periodic=True),
        "sparse3": config_spec("sparse3").window(1, total),
        # nearly every 32-site word distinct: no sharing to exploit
        "random": sq.Window(1, rng.integers(0, 3, total), abc),
    }


def assert_lyapunov_close(got, want):
    """|dgamma| and |dspread| <= 1e-12 max(1, |gamma|): the word products
    associate differently from the site-by-site loop."""
    (gam, spread), (ref_gam, ref_spread) = got, want
    tol = 1e-12 * np.maximum(1.0, np.abs(ref_gam))
    assert np.all(np.abs(gam - ref_gam) <= tol)
    assert np.all(np.abs(spread - ref_spread) <= tol)


@pytest.mark.parametrize("n_steps", [1000, 1001, 2017, 100_000])
def test_lyapunov_scan_matches_reference(n_steps):
    energies = [-2.0, -1.9, 0.0, 0.3, 2.0, 2.9, 40.0, 1e6]
    for samples in (1, 4, 6) if n_steps < 10_000 else (6,):
        windows = lyapunov_windows(n_steps + (samples - 1) * 1013)
        for window in windows.values():
            got = cc.lyapunov_scan(window, energies, n_steps=n_steps, samples=samples)
            want = ref_lyapunov_scan(window.values(), energies, n_steps, samples)
            assert_lyapunov_close(got, want)


@pytest.mark.parametrize("n_energies", [1, 20, 80])
def test_lyapunov_scan_energy_chunks(monkeypatch, n_energies):
    energies = np.random.default_rng(n_energies).uniform(-2.5, 3.5, n_energies)
    n_steps = 20_000
    windows = lyapunov_windows(n_steps + 3 * 1013)
    # 2500 distinct words: one energy per chunk
    window = windows["random"]
    got = cc.lyapunov_scan(window, energies, n_steps=n_steps)
    assert_lyapunov_close(got, ref_lyapunov_scan(window.values(), energies, n_steps, 4))
    # chunking only regroups independent lanes, so it cannot move a bit
    window = windows["simple3"]
    whole = cc.lyapunov_scan(window, energies, n_steps=n_steps)
    assert_lyapunov_close(whole, ref_lyapunov_scan(window.values(), energies, n_steps, 4))
    monkeypatch.setattr(cc, "WORD_LANES", 1024)
    assert np.array_equal(cc.lyapunov_scan(window, energies, n_steps=n_steps), whole)


def mp_lyapunov(values, energy):
    """log ||A(n)|| / n of the literal product at 40 digits."""
    with mp.workdps(40):
        e = mp.mpf(energy)
        a, b, c, d = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
        for v in values:
            ev = e - v
            a, b, c, d = ev * a - c, ev * b - d, a, b
        fro2 = a * a + b * b + c * c + d * d
        norm2 = (fro2 + mp.sqrt(fro2 * fro2 - 4 * (a * d - b * c) ** 2)) / 2
        return float(mp.log(norm2) / (2 * len(values)))


@pytest.mark.parametrize("energy", [2.0 - 1e-15, 1.999999])
def test_lyapunov_scan_near_parabolic_matches_mp(energy):
    # Near E = +-2 the free stretches of the sparse word are almost
    # parabolic.  On this sample the site-by-site float64 loop drifts from
    # the literal product by 1.2e-12 at 2 - 1e-15 and 3.9e-14 at 1.999999.
    window = config_spec("sparse3").window(3040, 100_000)
    gam, _ = cc.lyapunov_scan(window, [energy], samples=1, start=3040)
    assert abs(gam[0] - mp_lyapunov(window.values(), energy)) <= 2e-14


def test_lyapunov_scan_overflow_threshold():
    # a word matrix outgrows float64 once |E|**32 > 2**1024, as the
    # site-by-site loop did: the same energies raise
    window = SIMPLE3.window(1, 1024 + 1013)
    below = [4294967294.0, -4294967294.0, 1e9]
    got = cc.lyapunov_scan(window, below, n_steps=1024, samples=2)
    want = ref_lyapunov_scan(window.values(), below, 1024, 2)
    assert np.all(np.isfinite(want[0]))
    assert_lyapunov_close(got, want)
    for energy in (4294967298.0, -4294967298.0, 1e10):
        named = re.escape("energy %g (sample starting at site 1)" % energy)
        with pytest.raises(sq.ValidationError, match=named):
            cc.lyapunov_scan(window, [0.3, energy, 1e11], n_steps=1024, samples=2)
    # a huge coupling that only the second sample reaches
    codes = np.zeros(1024 + 1013, dtype=np.int16)
    codes[1100:1300] = 1
    tall = sq.Window(1, codes, sq.Alphabet(("a", "b"), (0.0, -1e10)))
    named = re.escape("energy 0.3 (sample starting at site 1014)")
    with pytest.raises(sq.ValidationError, match=named):
        cc.lyapunov_scan(tall, [0.3, -0.3], n_steps=1024, samples=2)


@pytest.mark.parametrize("energy", [0.3, 2.95, 4.0])
@pytest.mark.parametrize("basis", [(0.0, 1.0), (1.0, 0.0)])
def test_propagate_matches_reference(energy, basis):
    window = SIMPLE3.window(1, 50_000)
    origin = 20_000
    phi = gd.propagate(window, energy, phi_init=basis, origin=origin)
    ref = ref_propagate(window, energy, basis, origin, window.start, window.end - 1)
    assert np.array_equal(phi, ref, equal_nan=True)
    if energy == 4.0:
        assert not np.all(np.isfinite(phi))  # the tails overflow
    # the shortest range: no step either way
    short = gd.propagate(window.slice(origin - 1, origin + 1), energy, phi_init=basis,
                         origin=origin)
    assert short.tolist() == list(basis)


#: |word path - ref_norm_slabs| / max(1, |N|) allowed on runs past WORD_REACH:
#: ref_norm_slabs itself drifts up to 8e-12 from the mpmath loop at reach 4374
DEEP_TOL = 1e-10


def side_reach(lane, t):
    """The reach of the run that reads offset t of a lane: offset 0 and
    positive offsets are read forward, negative ones backward."""
    return max(abs(x) for x in lane if (x < 0) == (t < 0))


def assert_lane_norms_match_reference(window, energies, origins, offsets, got):
    """Every lane's norms at its own offsets against the site-by-site loop,
    run on the grid of the lanes' distinct energies and origins: == on a
    run that steps sites, within DEEP_TOL on one that steps words, where a
    norm the loop overflowed (inf or NaN) is NaN.  Slots past a lane's
    offsets hold -1."""
    e_grid, ie = np.unique(energies, return_inverse=True)
    o_grid, io = np.unique(origins, return_inverse=True)
    union = {t for lane in offsets for t in lane}
    width = max(map(len, offsets), default=0)
    assert got.shape == (2, len(offsets), width)
    for b, basis in enumerate(gd._BASES):
        want = ref_norm_slabs(window, e_grid, o_grid, union, basis)
        for j, lane in enumerate(offsets):
            for i, t in enumerate(lane):
                norm, expect = got[b, j, i], want[t][ie[j], io[j]]
                if side_reach(lane, t) < gd.WORD_REACH:
                    assert norm == expect or np.isnan(norm) and np.isnan(expect), \
                        (basis, j, lane)
                elif np.isfinite(expect):
                    assert abs(norm - expect) <= DEEP_TOL * max(1.0, expect), (basis, j, lane)
                else:
                    assert np.isnan(norm), (basis, j, lane)
            assert np.all(got[b, j, len(lane):] == -1.0)


def test_norm_slabs_match_reference_on_certify_sweep(monkeypatch):
    calls = []
    new = gd._norm_slabs

    def checked(window, energies, origins, offsets):
        got = new(window, energies, origins, offsets)
        assert_lane_norms_match_reference(window, energies, origins, offsets, got)
        calls.append(len(offsets))
        return got

    monkeypatch.setattr(gd, "_norm_slabs", checked)
    report = gd.gordon_sweep(SIMPLE3, 2, 40, 500, grid=2000, seed=1)
    # one call, one lane per distinct (energy, offsets, word) among the
    # 40 * 500 - 44 pairs that classify: the 44 that failed get no lane
    assert calls == [4211]
    assert len(report.falsifications) == 44


def certify_sweep_lanes(monkeypatch):
    """(window, energies, origins, offsets) of the seed-1 certify sweep's one
    ``_norm_slabs`` call."""
    calls, real = [], gd._norm_slabs

    def recorded(window, energies, origins, offsets):
        calls.append((window, np.asarray(energies), np.asarray(origins), list(offsets)))
        return real(window, energies, origins, offsets)

    monkeypatch.setattr(gd, "_norm_slabs", recorded)
    gd.gordon_sweep(SIMPLE3, 2, 40, 500, grid=2000, seed=1)
    monkeypatch.setattr(gd, "_norm_slabs", real)
    (call,) = calls
    return call


def mp_lane_norms(window, energy, origin, offsets):
    """{(basis, t): ||Phi(t)||} by the literal site loop at 40 digits."""
    vals = window.values()
    out = {}
    with mp.workdps(40):
        e = mp.mpf(float(energy))
        for side in (1, -1):
            reads = sorted(t * side for t in offsets if (t < 0) == (side < 0))
            if not reads:
                continue
            # per basis (cur, prev): (phi(d), phi(d-1)) forward, (phi(-d-1), phi(-d)) backward
            state = [tuple(mp.mpf(x) for x in (basis[::-1] if side > 0 else basis))
                     for basis in gd._BASES]
            d = 0
            for depth in reads:
                for k in range(d, depth):
                    c = e - vals[origin + k - window.start if side > 0
                                 else origin - 1 - k - window.start]
                    state = [(c * cur - prev, cur) for cur, prev in state]
                d = depth
                for b, (cur, prev) in enumerate(state):
                    out[b, side * depth] = mp.sqrt(cur * cur + prev * prev)
    return out


def max_mp_error(got, window, energies, origins, offsets):
    """max |got - N| / max(1, N) over every lane's slots, N from the mpmath loop."""
    worst = 0.0
    for j, lane in enumerate(offsets):
        want = mp_lane_norms(window, energies[j], origins[j], lane)
        for b in range(2):
            for i, t in enumerate(lane):
                n = want[b, t]
                worst = max(worst, float(abs(mp.mpf(float(got[b, j, i])) - n) / max(1, n)))
    return worst


def test_norm_slabs_deep_reads_match_mp_products(monkeypatch):
    """12 lanes of the seed-1 certify sweep, sampled among those that reach
    2187 sites or more: every norm is within 1e-12 max(1, |N|) of the
    literal 40-digit loop, and the word products are no less accurate than
    the site-by-site float64 loop (6.6e-14 against 8.0e-12 when measured)."""
    window, energies, origins, offsets = certify_sweep_lanes(monkeypatch)
    deep = [j for j, lane in enumerate(offsets) if max(map(abs, lane)) >= 2187]
    pick = np.random.default_rng(0).choice(deep, 12, replace=False)
    lanes = energies[pick], origins[pick], [offsets[j] for j in pick]
    words = max_mp_error(gd._norm_slabs(window, *lanes), window, *lanes)
    loop = [[ref_norm_slabs(window, [e], [o], lane, basis) for e, o, lane in zip(*lanes)]
            for basis in gd._BASES]
    sites = np.array([[[by_t[t][0, 0] for t in lane] for by_t, lane in zip(row, lanes[2])]
                      for row in loop])
    assert words <= 1e-12
    assert words <= max_mp_error(sites, window, *lanes)


def test_norm_slabs_one_more_climb_reach(monkeypatch):
    """Offsets -+39366 = 2 * 3**9 at origin 200000 of the certify window, the
    reach of one more climb: the norms at two certify energies are within
    1e-12 max(1, |N|) of the 40-digit loop, both norms at E = 20 outgrow
    float64 and read NaN, and each lane reads the same bits alone as
    beside the seed-1 sweep's 4211 lanes."""
    window, energies, origins, offsets = certify_sweep_lanes(monkeypatch)
    certify = np.unique(energies)  # the sweep's 40 energies
    assert len(certify) == 40
    deep = ([certify[3], certify[27], 20.0], [200_000] * 3, [(-39_366, 39_366)] * 3)
    alone = gd._norm_slabs(window, *deep)
    assert max_mp_error(alone[:, :2], window, *(x[:2] for x in deep)) <= 1e-12
    assert np.isnan(alone[:, 2]).all() and np.isfinite(alone[:, :2]).all()
    half = len(offsets) // 2
    beside = gd._norm_slabs(window, np.concatenate([energies[:half], deep[0], energies[half:]]),
                            np.concatenate([origins[:half], deep[1], origins[half:]]),
                            offsets[:half] + deep[2] + offsets[half:])
    assert np.array_equal(beside[:, half : half + 3, :2], alone, equal_nan=True)
    assert np.array_equal(beside[:, half + 3 :, :], gd._norm_slabs(
        window, energies[half:], origins[half:], offsets[half:]))


def test_norm_slabs_sparse_offsets():
    window = SIMPLE3.window(1, 5000)
    lanes = [
        (0.3, 1200, ()),  # no offsets
        (2.95, 2500, ()),
        (0.3, 2500, (0,)),
        (2.95, 1200, (-1,)),
        (0.3, 3100, (-1, 0, 3)),
        (2.95, 3100, (0, -1)),
        (0.3, 1200, (4, -9, 333)),  # ties in forward reach ...
        (2.95, 2500, (333, -700)),  # ... and in backward reach
        (0.3, 3100, (-700, 4)),
        (2.95, 1200, (3, 3)),
        (0.3, 2500, (1700,)),  # alone at the deepest forward offset
        (2.95, 1200, (-1100, 2)),  # alone at the deepest backward offset; overflows
        # runs that step words, read at no word, at whole words and between
        (0.3, 3100, (0, 5, 64, 600)),
        (2.95, 2500, (-512, -33, -1)),
    ]
    order = np.random.default_rng(5).permutation(len(lanes))
    energies = [lanes[j][0] for j in order]
    origins = [lanes[j][1] for j in order]
    offsets = [lanes[j][2] for j in order]
    with np.errstate(over="ignore", invalid="ignore"):
        got = gd._norm_slabs(window, energies, origins, offsets)
        assert_lane_norms_match_reference(window, energies, origins, offsets, got)
    assert np.isnan(got[:, offsets.index((-1100, 2)), 0]).all()
    # the deepest offsets read the window's first and last sites
    edge = gd._norm_slabs(window, [0.3, 0.3], [window.end - 5, 6], [(4,), (-4,)])
    assert_lane_norms_match_reference(window, [0.3, 0.3], [window.end - 5, 6],
                                      [(4,), (-4,)], edge)


def test_norm_slabs_without_lanes():
    window = SIMPLE3.window(1, 100)
    assert gd._norm_slabs(window, [], [], []).shape == (2, 0, 0)
    assert gd._norm_slabs(window, [0.3], [50], [()]).shape == (2, 1, 0)


@pytest.mark.parametrize("energy", [0.0, 0.3, -1.7, 1.99])
def test_sampled_power_sup_matches_reference(energy):
    assert sp.sampled_power_sup(energy, 10_000) == ref_sampled_power_sup(energy, 10_000)
    assert sp.sampled_power_sup(energy, 1) == ref_sampled_power_sup(energy, 1)


def test_matrix_norm2_lanes_match_scalar():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(2, 2, 50))
    lanes = cc.matrix_norm2(m)
    for j in range(50):
        assert lanes[j] == ref_matrix_norm2(m[:, :, j])
        assert cc.matrix_norm2(m[:, :, j]) == ref_matrix_norm2(m[:, :, j])
    for e, v in ((0.3, 2.0), (-1.1, 0.0)):
        assert sp.barrier_matrix_norm(e, v) == ref_matrix_norm2(
            np.array([[e - v, -1.0], [1.0, 0.0]])
        )
