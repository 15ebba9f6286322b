"""Transfer matrices, recurrence polynomials, trace tables, Lyapunov."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmspec import cocycle as cc
from sturmspec import sequences as sq
from test_transfer_run import ref_recursion_step

AB = sq.Alphabet(("a", "b"), (0.0, 1.0))


def simple_spec(periods=(3, 3), offsets=None, letters=None, **kw):
    n = len(periods)
    letters = letters or tuple("ab"[i % 2] for i in range(n))
    offsets = offsets or (0,) * n
    return sq.ToeplitzSpec(
        AB, sq.CodingTriple((), 1, 0), letters, tuple(periods), tuple(offsets), **kw
    )


def random_sl2(rng):
    while True:
        a, b, c = rng.uniform(-2, 2, size=3)
        if abs(a) > 1e-3:
            d = (1.0 + b * c) / a
            return np.array([[a, b], [c, d]])


# ---------------------------------------------------------------------------
# Word matrices
# ---------------------------------------------------------------------------


def test_empty_word_gives_identity():
    assert np.array_equal(cc.word_matrix([], 1.7), np.eye(2))


def test_word_matrix_worked_example():
    m = cc.word_matrix(["a", "a", "b"], 0.0, AB)
    assert np.allclose(m, [[1.0, 1.0], [-1.0, 0.0]])
    assert np.trace(m) == 1.0


def test_rotation_fourth_power_is_identity():
    # at E = a each site matrix is a quarter turn
    m = cc.word_matrix([0.0, 0.0, 0.0, 0.0], 0.0)
    assert np.allclose(m, np.eye(2))


def test_word_matrix_accepts_windows_and_values():
    w = sq.Window(0, np.array([0, 0, 1], dtype=np.int16), AB)
    m1 = cc.word_matrix(w, 0.5)
    m2 = cc.word_matrix([0.0, 0.0, 1.0], 0.5)
    m3 = cc.word_matrix(["a", "a", "b"], 0.5, AB)
    assert np.allclose(m1, m2) and np.allclose(m1, m3)


def test_word_matrix_unknown_symbol():
    with pytest.raises(sq.ValidationError):
        cc.word_matrix(["a", "z"], 0.0, AB)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["a", "b"]), min_size=0, max_size=18),
       st.integers(min_value=0, max_value=18),
       st.floats(min_value=-3, max_value=4, allow_nan=False))
def test_cocycle_splitting_identity(word, cut, energy):
    cut = min(cut, len(word))
    u, v = word[:cut], word[cut:]
    full = cc.word_matrix(word, energy, AB)
    split = cc.word_matrix(v, energy, AB) @ cc.word_matrix(u, energy, AB)
    assert np.allclose(full, split, atol=1e-9)


def test_determinant_drift_stays_small_on_long_words():
    # the determinant carries information only while the product stays
    # bounded; an elliptic energy over the zero potential keeps it so,
    # and 2e5 multiplications must not drift det away from 1
    e = 0.5
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    log = 0.0
    for i in range(200_000):
        a, b, c, d = e * a - c, e * b - d, a, b
        if (i + 1) % 32 == 0:
            s = max(abs(a), abs(b), abs(c), abs(d))
            log += math.log(s)
            a, b, c, d = a / s, b / s, c / s, d / s
    det_scaled = a * d - b * c
    assert abs(det_scaled * math.exp(2 * log) - 1.0) < 1e-10
    assert abs(log) < 10  # product genuinely stayed bounded


def test_matrix_norm_closed_form_matches_svd():
    rng = np.random.default_rng(1)
    for _ in range(200):
        m = rng.normal(size=(2, 2)) * rng.uniform(0.1, 10)
        assert abs(cc.matrix_norm2(m) - np.linalg.svd(m, compute_uv=False)[0]) < 1e-9 * max(
            1, cc.matrix_norm2(m)
        )


# ---------------------------------------------------------------------------
# Recurrence polynomials
# ---------------------------------------------------------------------------


def test_cheb_base_cases():
    for x in (-3.3, 0.0, 1.0, 7.5):
        assert cc.cheb_eval(0, x) == 0
        assert cc.cheb_eval(1, x) == 1


def test_cheb_worked_values():
    assert cc.cheb_eval(2, 3.0) == 3.0
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(m @ m, 3.0 * m - np.eye(2))
    assert np.array_equal(m @ m, np.array([[5.0, 3.0], [3.0, 2.0]]))
    assert cc.cheb_eval(3, 2.0) == 3.0  # degenerate point: S_n(2) = n
    for n in range(8):
        assert cc.cheb_eval(n, 2.0) == n


def test_power_identity_on_random_unit_determinant_matrices():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = random_sl2(rng)
        tr = np.trace(m)
        power = np.eye(2)
        for n in range(13):
            expect = cc.cheb_eval(n, tr) * m - cc.cheb_eval(n - 1, tr) * np.eye(2) \
                if n >= 1 else np.eye(2)
            scale = max(cc.matrix_norm2(power), 1.0)
            assert np.max(np.abs(power - expect)) <= 1e-8 * scale
            power = power @ m


def test_cheb_vectorized_matches_scalar():
    xs = np.linspace(-3, 3, 11)
    vec = cc.cheb_eval(5, xs)
    for x, v in zip(xs, vec):
        assert abs(cc.cheb_eval(5, float(x)) - v) < 1e-12


# ---------------------------------------------------------------------------
# Trace tables
# ---------------------------------------------------------------------------


def test_trace_table_worked_seeds():
    tt = cc.trace_table(simple_spec(), 0.0, 3)
    assert float(tt.h_recursion[0]) == 0.0
    assert float(tt.h_recursion[1]) == 1.0
    assert tt.max_rel_diff() < 1e-30


def test_trace_routes_agree_on_varying_period_specs():
    rng = np.random.default_rng(4)
    for _ in range(8):
        depth = 8
        periods = tuple(int(p) for p in rng.integers(3, 6, size=depth))
        offsets = tuple(int(rng.integers(0, p)) for p in periods)
        spec = simple_spec(periods=periods, offsets=offsets,
                           letters=tuple("ab"[i % 2] for i in range(depth)),
                           cycle=False)
        for e in rng.uniform(-3, 4, size=3):
            tt = cc.trace_table(spec, float(e), 6)
            assert tt.max_rel_diff() <= 1e-8


def test_trace_routes_agree_with_prefix():
    spec = sq.ToeplitzSpec(
        AB, sq.CodingTriple(("b", "a"), 3, 1), ("a", "b"), (4, 3), (1, 2)
    )
    for e in (-1.2, 0.3, 2.9):
        tt = cc.trace_table(spec, e, 6)
        assert tt.max_rel_diff() <= 1e-8


def test_trace_direct_route_reaches_level_12():
    # 531441 sites per block: composed through the substitution, not stepped
    for e in (-2.4, -1.1, 0.3, 1.7, 3.2):
        tt = cc.trace_table(simple_spec(), e, 12)
        assert len(tt.h_direct) == 13
        assert tt.max_rel_diff() <= 1e-40


def test_trace_escape_property_numeric():
    spec = simple_spec()
    grid = np.linspace(-3, 4, 60)
    for e in grid:
        tt = cc.trace_table(spec, float(e), 7)
        h = [abs(x) for x in tt.h_recursion]
        for k in range(5):
            if h[k] > 2 and h[k + 1] > 2:
                assert all(h[j] > 2 for j in range(k, 8))
                break


def test_trace_table_validation():
    with pytest.raises(sq.ValidationError):
        cc.trace_table(simple_spec(), 0.0, 1)
    with pytest.raises(sq.ValidationError):
        cc.trace_table(simple_spec(periods=(3, 3, 3), cycle=False,
                                   letters=("a", "b", "a")), 0.0, 5)


def test_unipotent_level_shift_facts():
    # facts used by the scalar reduction: the letter-swap matrix is
    # unipotent (trace 2) and consecutive swaps cancel
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = rng.uniform(-2, 2, size=2)
        e = rng.uniform(-3, 3)
        aa = cc.transfer_matrix(a, e)
        bb = cc.transfer_matrix(b, e)
        d1 = bb @ np.linalg.inv(aa)
        d2 = aa @ np.linalg.inv(bb)
        assert abs(np.trace(d1) - 2.0) < 1e-12
        assert np.allclose(d1 @ d2, np.eye(2), atol=1e-12)


def test_f64_recursion_matches_mp_tables():
    spec = simple_spec()
    grid = np.linspace(-3, 4, 41)
    hf = cc.trace_recursion_f64(spec, 6, grid)
    for i, e in enumerate(grid):
        tm = cc.trace_table(spec, float(e), 6)
        for k, hv in enumerate(tm.h_recursion):
            if abs(hv) < 1e100:
                assert abs(mp.mpf(hf[k, i]) - hv) <= 1e-6 * max(1, abs(hv))


def ref_trace_recursion_f64(spec, K, e_grid):
    """The float64 recursion with Chebyshev values seeded at (S_1, S_0)
    and escapes mapped by nan_to_num, then clip."""
    e = np.atleast_1d(np.asarray(e_grid, dtype=np.float64))
    out = np.empty((K + 1, e.size))
    for i in range(0, e.size, cc.LANE_CHUNK):
        lanes, h = e[i : i + cc.LANE_CHUNK], out[:, i : i + cc.LANE_CHUNK]
        with np.errstate(over="ignore", invalid="ignore"):
            h[0], h[1] = cc.block_traces(spec, 1, lanes)
            for k in range(K - 1):
                nxt = ref_recursion_step(
                    h[k], h[k + 1], spec.tail_period(k + 1), spec.tail_period(k + 2)
                )
                np.nan_to_num(nxt, copy=False, nan=cc.TRACE_CAP,
                              posinf=cc.TRACE_CAP, neginf=-cc.TRACE_CAP)
                np.clip(nxt, -cc.TRACE_CAP, cc.TRACE_CAP, out=nxt)
                h[k + 2] = nxt
    return out


@pytest.mark.parametrize("spec", [
    pytest.param(simple_spec(), id="simple3"),
    pytest.param(simple_spec((3, 4), (1, 2)), id="a:3:1,b:4:2"),
    pytest.param(simple_spec((5, 5), (0, 3)), id="a:5:0,b:5:3"),
    pytest.param(simple_spec((3, 3), (2, 1)), id="a:3:2,b:3:1"),
    pytest.param(simple_spec((2, 3, 4), (1, 1, 0), ("a", "b", "a"), cycle=False),
                 id="period-2"),
])
def test_f64_recursion_equals_the_reference_kernel(spec):
    rng = np.random.default_rng(20)
    extremes = [1e3, -1e3, 1e100, -1e100, 1e200, -1e200, 1e308,
                math.inf, -math.inf, math.nan, 0.0, -0.0]
    e = np.concatenate([rng.uniform(-5.0, 6.0, 20_000), extremes])
    for K in range(1, int(min(12, spec.max_level())) + 1):
        # saturation far outside the hull is by design: the kernel warns nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cc.trace_recursion_f64(spec, K, e)
        assert np.array_equal(got, ref_trace_recursion_f64(spec, K, e), equal_nan=True)


def test_f64_recursion_saturates_instead_of_nan():
    spec = simple_spec()
    h = cc.trace_recursion_f64(spec, 10, np.array([4.0, -3.0]))
    assert np.all(np.isfinite(h))
    assert np.all(np.abs(h[8:]) > 2)


# ---------------------------------------------------------------------------
# Lyapunov estimates
# ---------------------------------------------------------------------------


def test_lyapunov_zero_potential_is_flat():
    zero = sq.SparseSpec(v=1.0, positions=(10**9,))
    g, spread = cc.lyapunov(zero.window(1, 120_000), 0.0, n_steps=10_000)
    assert abs(g) <= 1e-3
    assert spread <= 1e-3


def test_lyapunov_matches_free_rate_off_spectrum():
    zero = sq.SparseSpec(v=1.0, positions=(10**9,))
    for e in (3.0, -2.7):
        g, _ = cc.lyapunov(zero.window(1, 20_000), e, n_steps=10_000)
        assert abs(g - cc.free_hyperbolic_rate(e)) <= 0.1 * cc.free_hyperbolic_rate(e)


def test_lyapunov_positive_outside_spectral_hull():
    spec = simple_spec()
    g, _ = cc.lyapunov(spec, 4.0, n_steps=10_000)
    assert g > 0.1


def test_lyapunov_parameter_validation():
    spec = simple_spec()
    with pytest.raises(sq.ValidationError):
        cc.lyapunov(spec, 0.0, n_steps=10)
    with pytest.raises(sq.ValidationError):
        cc.lyapunov(spec, 0.0, n_steps=2000, samples=0)


def test_lyapunov_overflow_guard():
    spec = simple_spec()
    with pytest.raises(sq.ValidationError):
        cc.lyapunov(spec, 1e200, n_steps=2000, samples=1)


@pytest.mark.parametrize("shape", [(2000, 7), (300, 201), (0, 5)])
def test_distinct_rows_match_numpy_unique(shape):
    rows = np.random.default_rng(3).integers(-1, 2, size=shape).astype(np.int16)
    rows = np.concatenate([rows, rows[::3]])  # repeated rows
    keys = rows.view(np.dtype((np.void, 2 * shape[1]))).ravel()
    uniq, inv = np.unique(keys, return_inverse=True)
    got, got_inv = cc._distinct_rows(rows)
    assert np.array_equal(got, uniq.view(np.int16).reshape(-1, shape[1]))
    assert np.array_equal(got_inv, inv.ravel())
    assert np.array_equal(got[got_inv], rows)
