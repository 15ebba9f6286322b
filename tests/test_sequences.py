"""Sequence generators: exact arithmetic, composition algebra, partitions."""

import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmspec import sequences as sq
from sturmspec.config import build_spec, parse_config

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

AB = sq.Alphabet(("a", "b"), (0.0, 1.0))


def simple_spec(periods=(3, 3), offsets=None, letters=None, **kw):
    n = len(periods)
    letters = letters or tuple("ab"[(i % 2)] for i in range(n))
    offsets = offsets or (0,) * n
    return sq.ToeplitzSpec(
        AB, sq.CodingTriple((), 1, 0), letters, tuple(periods), tuple(offsets), **kw
    )


def code_at(window, site):
    """The code at an absolute site; a ValidationError off the window."""
    return int(window.slice(site, site + 1).codes[0])


def symbol_at(window, site):
    return window.alphabet.symbols[code_at(window, site)]


# ---------------------------------------------------------------------------
# Alphabet / Window basics
# ---------------------------------------------------------------------------


def test_alphabet_rejects_hole_label():
    with pytest.raises(sq.ValidationError):
        sq.Alphabet(("a", "?"), (0.0, 1.0))


def test_alphabet_rejects_duplicates_and_nonfinite():
    with pytest.raises(sq.ValidationError):
        sq.Alphabet(("a", "a"), (0.0, 1.0))
    with pytest.raises(sq.ValidationError):
        sq.Alphabet(("a",), (math.inf,))


def test_window_values_and_indexing():
    w = sq.Window(5, np.array([0, 1, 1], dtype=np.int16), AB)
    assert symbol_at(w, 6) == "b"
    assert w.values().tolist() == [0.0, 1.0, 1.0]
    assert w.end == 8
    with pytest.raises(sq.ValidationError):
        code_at(w, 8)


# ---------------------------------------------------------------------------
# Circle map windows
# ---------------------------------------------------------------------------


def brute_circle(p, q, beta, theta, start, length):
    """Independent evaluation of the arc-membership coding."""
    out = []
    for n in range(start, start + length):
        r = (Fraction(n * p, q) + theta) % 1
        out.append(1 if r >= 1 - beta else 0)
    return out


def test_circle_map_matches_bruteforce():
    spec = sq.CircleMapSpec(13, 21, Fraction(13, 21), Fraction(1, 7), 2.5)
    w = spec.window(-30, 50, allow_periodic=True)
    assert list(w.codes) == brute_circle(13, 21, Fraction(13, 21), Fraction(1, 7), -30, 50)
    assert w.values().max() == 2.5


def test_circle_map_fibonacci_length3_factors():
    # enumerate distinct length-3 factors of a long window by brute force
    spec = sq.CircleMapSpec(13, 21, Fraction(13, 21), Fraction(0), 1.0)
    w = spec.window(0, 200, allow_periodic=True)
    factors = {tuple(w.codes[i : i + 3]) for i in range(len(w) - 2)}
    assert len(factors) == 4


def test_circle_map_near_full_arc():
    # beta -> 1: almost every residue lies inside the arc
    spec = sq.CircleMapSpec(13, 21, Fraction(20, 21), Fraction(0), 1.0)
    w = spec.window(0, 21, allow_periodic=True)
    assert int(w.codes.sum()) == 20


def test_circle_map_boundary_is_halfopen():
    # theta chosen so the residue at n=0 is exactly 1 - beta: inside
    spec = sq.CircleMapSpec(13, 21, Fraction(1, 3), Fraction(2, 3), 1.0)
    w = spec.window(0, 1, allow_periodic=True)
    assert w.codes[0] == 1


def test_circle_map_spec_validation():
    with pytest.raises(sq.ValidationError):
        sq.CircleMapSpec(13, 21, Fraction(13, 21), Fraction(0), 0.0)  # lambda
    with pytest.raises(sq.ValidationError):
        sq.CircleMapSpec(14, 21, Fraction(1, 2), Fraction(0), 1.0)  # gcd
    with pytest.raises(sq.ValidationError):
        sq.CircleMapSpec(13, 21, Fraction(1, 1), Fraction(0), 1.0)  # beta = 1
    with pytest.raises(sq.ValidationError):
        sq.CircleMapSpec(13, 21, Fraction(1, 2), Fraction(3, 2), 1.0)  # theta


def test_circle_map_denominator_guard():
    spec = sq.CircleMapSpec(13, 21, Fraction(13, 21), Fraction(0), 1.0)
    with pytest.raises(sq.WindowTooShortError, match=r"need q > 200 "):
        spec.window(0, 200)


def ref_circle_map_codes(spec, start, length):
    """The object-integer residue loop that windows used before int64."""
    bnum, bden = spec.beta.numerator, spec.beta.denominator
    tnum, tden = spec.theta.numerator, spec.theta.denominator
    D = spec.q * tden
    n = np.arange(start, start + length, dtype=object)
    rnum = (n * (spec.p * tden) + tnum * spec.q) % D
    return [int(int(r) * bden >= D * (bden - bnum)) for r in rnum]


def test_circle_map_int64_and_object_paths_match_reference():
    fib = build_spec(parse_config(str(CONFIGS / "fib.cfg")))
    for start, length in ((1, 600), (-300, 200), (0, 5000), (-40_000, 20_000)):
        w = fib.window(start, length, allow_periodic=True)
        assert w.codes.dtype == np.int16
        assert w.codes.tolist() == ref_circle_map_codes(fib, start, length)
    # q = F_80: D = 3q is ~7e16, so D * 1301 overflows int64 and the
    # window below takes the object path; a 50-site window still fits
    big = sq.CircleMapSpec(14472334024676221, 23416728348467685,
                           Fraction(1, 2), Fraction(1, 3), 1.0)
    for start, length in ((1000, 300), (0, 50)):
        codes = big.window(start, length).codes
        assert codes.dtype == np.int16
        assert codes.tolist() == ref_circle_map_codes(big, start, length)
        assert codes.tolist() == brute_circle(big.p, big.q, big.beta, big.theta,
                                              start, length)


# ---------------------------------------------------------------------------
# Partial words and composition
# ---------------------------------------------------------------------------


def test_identity_composition_is_neutral():
    ident = sq.PartialWord.identity(AB)
    inner = sq.CodingTriple(("a", "b"), 3, 1).to_partial(AB)
    out = sq.compose(ident, inner)
    assert out.period == inner.period
    assert np.array_equal(out.codes, inner.codes)
    assert out.hole_offset == inner.hole_offset


def test_composition_worked_example():
    t1 = sq.CodingTriple(("a", "a"), 3, 0).to_partial(AB)
    t2 = sq.CodingTriple(("b", "b"), 3, 0).to_partial(AB)
    c = sq.compose(t1, t2)
    assert c.period == 9
    assert c.cells == ("?", "a", "a", "b", "a", "a", "b", "a", "a")
    assert c.hole_offset == 0


def test_compose_requires_hole():
    full = sq.PartialWord.from_cells(["a", "b"], AB)
    with pytest.raises(sq.ValidationError):
        sq.compose(full, sq.PartialWord.identity(AB))


def ref_compose_triples(first, second):
    """The coding-triple merge: period n1*n2, offset l1 + n1*l2, pattern
    p1 q1 p1 q2 ... p1 q_{n2-1} p1; period-1 operands act as identities."""
    if first.period == 1:
        return second
    if second.period == 1:
        return first
    merged = []
    for q in second.pattern:
        merged.extend(first.pattern + (q,))
    merged.extend(first.pattern)
    return sq.CodingTriple(tuple(merged), first.period * second.period,
                           first.offset + first.period * second.offset)


def test_normalized_prefix_matches_triple_merge():
    # the merge agrees with composition cell by cell ...
    cases = [
        ((("a",), 2, 1), (("b",), 2, 0)),
        ((("a",), 2, 1), (("b", "b"), 3, 2)),
        ((("a", "b"), 3, 1), (("b", "b", "b"), 4, 3)),
    ]
    for raw1, raw2 in cases:
        t1, t2 = sq.CodingTriple(*raw1), sq.CodingTriple(*raw2)
        merged = ref_compose_triples(t1, t2)
        direct = sq.compose(t1.to_partial(AB), t2.to_partial(AB))
        viamerge = merged.to_partial(AB)
        assert np.array_equal(direct.codes, viamerge.codes)
        assert direct.hole_offset == viamerge.hole_offset
    # ... and the period-2 normalization gives the prefix the merge gives
    rng = np.random.default_rng(17)
    for _ in range(300):
        depth = int(rng.integers(2, 6))
        periods = [int(n) for n in rng.integers(2, 5, size=depth)]
        periods[int(rng.integers(0, depth - 1))] = 2
        periods[-1] = max(periods[-1], 3)
        offsets = [int(rng.integers(0, n)) for n in periods]
        letters = ["ab"[int(c)] for c in rng.integers(0, 2, size=depth)]
        pp = int(rng.integers(1, 4))
        prefix = sq.CodingTriple(tuple(rng.choice(["a", "b"], size=pp - 1)), pp,
                                 int(rng.integers(0, pp)))
        cut = max(i for i, n in enumerate(periods) if n == 2) + 1
        expected = prefix
        for a, n, l in zip(letters[:cut], periods[:cut], offsets[:cut]):
            expected = ref_compose_triples(expected, sq.CodingTriple((a,) * (n - 1), n, l))
        try:
            spec = sq.ToeplitzSpec(AB, prefix, letters, periods, offsets, cycle=False)
        except sq.ValidationError as exc:
            assert str(exc) == "consecutive tail letters must differ"
            continue
        assert spec.prefix == expected
        assert spec.tail_periods == tuple(periods[cut:])


@st.composite
def partial_words(draw, max_period=9):
    period = draw(st.integers(min_value=1, max_value=max_period))
    hole = draw(st.integers(min_value=0, max_value=period - 1))
    cells = [draw(st.sampled_from(["a", "b"])) for _ in range(period)]
    cells[hole] = sq.HOLE
    return sq.PartialWord.from_cells(cells, AB)


@settings(max_examples=60, deadline=None)
@given(partial_words(), partial_words(), partial_words())
def test_compose_is_associative(x, y, z):
    left = sq.compose(sq.compose(x, y), z)
    right = sq.compose(x, sq.compose(y, z))
    assert left.period == right.period
    assert np.array_equal(left.codes, right.codes)
    assert left.hole_offset == right.hole_offset


def test_undetermined_class_offset_formula():
    # hole class of an m-fold composition: stride product, offset sum
    spec = simple_spec(periods=(3, 4, 3), offsets=(1, 2, 0),
                       letters=("a", "b", "a"), cycle=False)
    word = spec.composed(3)
    expected = 1 + 3 * 2 + 12 * 0
    assert word.hole_offset == expected
    assert word.period == 36


# ---------------------------------------------------------------------------
# Toeplitz specs and windows
# ---------------------------------------------------------------------------


def brute_toeplitz_cells(spec, depth):
    """Re-derive the composed word by raw partial-word composition."""
    word = spec.prefix.to_partial(spec.alphabet)
    for k in range(1, depth + 1):
        word = sq.compose(word, spec.coding_triple(k).to_partial(spec.alphabet))
    return word


def test_toeplitz_window_worked_example():
    spec = simple_spec()
    w = sq.toeplitz_window(spec, 3, 1, 9)
    assert "".join(w.symbols) == "aabaabaaa"
    oracle = brute_toeplitz_cells(spec, 4)
    for x in range(1, 10):
        assert code_at(w, x) == oracle.at(x)


def test_toeplitz_window_depth_stability():
    spec = simple_spec(periods=(3, 4), offsets=(1, 2))
    w1 = sq.toeplitz_window(spec, 4, -30, 80)
    for depth in (5, 6, 7):
        w2 = sq.toeplitz_window(spec, depth, -30, 80)
        assert np.array_equal(w1.codes, w2.codes)


def test_toeplitz_window_depth_guard():
    spec = simple_spec()
    with pytest.raises(sq.WindowTooShortError):
        sq.toeplitz_window(spec, 2, 0, 50)  # period 9 <= 50


FIB = build_spec(parse_config(str(CONFIGS / "fib.cfg")))
SIMPLE3 = build_spec(parse_config(str(CONFIGS / "simple3.cfg")))
SPARSE3 = build_spec(parse_config(str(CONFIGS / "sparse3.cfg")))


@pytest.mark.parametrize("make, named", [
    pytest.param(lambda: FIB.window(0, 10.5, allow_periodic=True), "length",
                 id="circle-length"),
    pytest.param(lambda: FIB.window(0.5, 10, allow_periodic=True), "start",
                 id="circle-start"),
    pytest.param(lambda: SIMPLE3.window(1, 10.5), "length", id="toeplitz-length"),
    pytest.param(lambda: SIMPLE3.window("1", 10), "start", id="toeplitz-start"),
    pytest.param(lambda: sq.toeplitz_window(SIMPLE3, 4, 1, 10.5), "length",
                 id="toeplitz-depth-length"),
    pytest.param(lambda: sq.toeplitz_window(SIMPLE3, 4.5, 1, 10), "depth",
                 id="toeplitz-depth"),
    pytest.param(lambda: SPARSE3.window(0.5, 10), "start", id="sparse-start"),
    pytest.param(lambda: SPARSE3.window(1, 10.5), "length", id="sparse-length"),
])
def test_windows_reject_a_non_integer_start_or_length(make, named):
    with pytest.raises(sq.ValidationError, match="^%s must be an integer" % named):
        make()


def test_windows_take_numpy_integers():
    for spec in (SIMPLE3, SPARSE3):
        got = spec.window(np.int64(3), np.int32(40))
        assert got.start == 3 and np.array_equal(got.codes, spec.window(3, 40).codes)
    got = FIB.window(np.int64(2), np.int64(40))
    assert np.array_equal(got.codes, FIB.window(2, 40).codes)


@pytest.mark.parametrize("call, named", [
    pytest.param(lambda: SIMPLE3.block_length(-1), "level", id="block_length"),
    pytest.param(lambda: SIMPLE3.hole_position(-1), "depth", id="hole_position"),
])
def test_a_negative_level_raises(call, named):
    with pytest.raises(sq.ValidationError, match="^%s must be >= 0, got -1$" % named):
        call()


def test_extension_letter_fills_limit_site():
    bare = simple_spec()
    with pytest.raises(sq.UndeterminedSiteError) as err:
        sq.toeplitz_window(bare, 4, -3, 8)  # crosses site 0
    assert err.value.site == 0
    ext = simple_spec(extension_letter="a")
    w = sq.toeplitz_window(ext, 4, -3, 8)
    assert symbol_at(w, 0) == "a"
    # surrounding cells agree with the bare spec
    wb = sq.toeplitz_window(bare, 4, 1, 4)
    assert np.array_equal(w.codes[4:], wb.codes[:4])


def test_tail_exhaustion_error_when_not_cycling():
    spec = simple_spec(periods=(3, 3), cycle=False)
    with pytest.raises(sq.WindowTooShortError):
        spec.window(1, 50)  # period reaches only 9


def test_translation_identity_between_offset_variants():
    periods, letters = (3, 4, 3, 5), ("a", "b", "a", "b")
    s1 = simple_spec(periods=periods, offsets=(0, 2, 1, 0), letters=letters)
    s2 = simple_spec(periods=periods, offsets=(2, 1, 0, 3), letters=letters)
    m = 4
    w1, w2 = s1.composed(m), s2.composed(m)
    shift = s2.hole_position(m) - s1.hole_position(m)
    for x in range(w1.period):
        if (x - s1.hole_position(m)) % w1.period == 0:
            continue
        assert w1.at(x) == w2.at(x + shift)


def test_spec_validation_rules():
    with pytest.raises(sq.ValidationError):
        simple_spec(letters=("a", "a"))  # consecutive equal
    with pytest.raises(sq.ValidationError):
        simple_spec(periods=(3,), letters=("a",))  # wraps onto itself
    with pytest.raises(sq.ValidationError):
        simple_spec(periods=(2, 3))  # period 2 while cycling
    with pytest.raises(sq.ValidationError):
        sq.ToeplitzSpec(
            sq.Alphabet(("a", "b", "c"), (0.0, 1.0, 2.0)),
            sq.CodingTriple((), 1, 0), ("a", "b"), (3, 3), (0, 0),
        )  # two-letter alphabet required
    with pytest.raises(sq.ValidationError):
        simple_spec(extension_letter="c")


def test_period2_levels_absorb_into_prefix():
    spec = sq.ToeplitzSpec(
        AB, sq.CodingTriple((), 1, 0),
        ("a", "b", "a", "b"), (2, 3, 3, 4), (1, 0, 2, 1), cycle=False,
    )
    assert spec.tail_periods == (3, 3, 4)
    assert spec.prefix.period == 2
    # the normalized spec generates the identical word
    raw = sq.PartialWord.identity(AB)
    for a, n, l in [("a", 2, 1), ("b", 3, 0), ("a", 3, 2), ("b", 4, 1)]:
        raw = sq.compose(raw, sq.CodingTriple((a,) * (n - 1), n, l).to_partial(AB))
    norm = spec.composed(3)
    assert raw.period == norm.period
    assert np.array_equal(raw.codes, norm.codes)
    assert raw.hole_offset == norm.hole_offset


def test_interior_period2_level_absorbs_leading_run():
    spec = sq.ToeplitzSpec(
        AB, sq.CodingTriple((), 1, 0),
        ("a", "b", "a"), (3, 2, 3), (0, 0, 0), cycle=False,
    )
    assert all(n >= 3 for n in spec.tail_periods)
    assert spec.prefix.period == 6


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def blocks_str(spec, k):
    syms = spec.alphabet.symbols
    return tuple("".join(syms[c] for c in word) for word in sq.blocks(spec, k))


def test_blocks_worked_example():
    spec = simple_spec()
    assert blocks_str(spec, 0) == ("a", "b")
    assert blocks_str(spec, 1) == ("aab", "aaa")
    s2, t2 = blocks_str(spec, 2)
    assert s2 == "aabaabaaa" and t2 == "aabaabaab"


def test_block_lengths_multiply():
    spec = simple_spec(periods=(3, 4), offsets=(0, 0))
    for k in range(5):
        s, t = sq.blocks(spec, k)
        assert len(s) == len(t) == spec.block_length(k)
    assert spec.block_length(2) == 12


def test_blocks_agree_with_window_slices():
    # canonical all-offsets-zero word: site 1 starts a level-k block
    spec = simple_spec(periods=(3, 4), offsets=(0, 0))
    w = spec.window(1, 600)
    for k in range(4):
        s, _ = sq.blocks(spec, k)
        ell = len(s)
        assert np.array_equal(w.codes[:ell], s)


def test_blocks_differ_only_in_last_symbol():
    rng = np.random.default_rng(3)
    for _ in range(12):
        depth = 7
        periods = tuple(int(p) for p in rng.integers(3, 6, size=depth))
        offsets = tuple(int(rng.integers(0, p)) for p in periods)
        spec = simple_spec(periods=periods, offsets=offsets,
                           letters=tuple("ab"[i % 2] for i in range(depth)),
                           cycle=False)
        for k in range(depth - 1):
            s, t = sq.blocks(spec, k)
            assert np.array_equal(s[:-1], t[:-1])
            assert s[-1] != t[-1]


def test_blocks_budget_guard():
    spec = simple_spec()
    assert spec.block_length(15) > sq.BLOCK_BUDGET  # 3^15
    sq._composed_partial.cache_clear()
    with pytest.raises(sq.ValidationError):
        sq.blocks(spec, 15)
    assert sq._composed_partial.cache_info().misses == 0  # nothing was built


def ref_blocks(spec, k):
    """s_k, t_k by tiling: s_0 is the prefix pattern and the first tail
    letter, t_0 the same with the other letter, s_k = s_{k-1}^(n-1) t_{k-1}
    and t_k = s_{k-1}^n."""
    first = spec.tail_letter(1)
    other = next(a for a in spec.alphabet.symbols if a != first)
    s, t = ([spec.alphabet.code(a) for a in spec.prefix.pattern + (last,)]
            for last in (first, other))
    s, t = np.array(s, dtype=np.int16), np.array(t, dtype=np.int16)
    for j in range(1, k + 1):
        n = spec.tail_period(j)
        s, t = np.concatenate([np.tile(s, n - 1), t]), np.tile(s, n)
    return s, t


#: (test id, spec) pairs the composition route is checked on, tiling as oracle
BLOCK_SPECS = [
    ("simple3", simple_spec()),
    ("a:3:1,b:4:2", simple_spec(periods=(3, 4), offsets=(1, 2))),
    ("a:5:0,b:5:3", simple_spec(periods=(5, 5), offsets=(0, 3))),
    ("prefix", sq.ToeplitzSpec(AB, sq.CodingTriple(("b", "a"), 3, 1),
                               ("a", "b"), (3, 4), (1, 2))),
    ("extension", simple_spec(extension_letter="a")),
    ("period-2", simple_spec(periods=(2, 3, 4), offsets=(1, 1, 0),
                             letters=("a", "b", "a"), cycle=False)),
]


def accepted_levels(spec, budget=sq.BLOCK_BUDGET):
    """Every level k that ``blocks`` accepts, up to the last declared one."""
    k = 0
    while k <= spec.max_level() and spec.block_length(k) <= budget:
        yield k
        k += 1


def assert_blocks_match_tiling(spec, budget=sq.BLOCK_BUDGET):
    levels = list(accepted_levels(spec, budget))
    for k in levels:
        s, t = sq.blocks(spec, k)
        ref_s, ref_t = ref_blocks(spec, k)
        assert np.array_equal(s, ref_s) and np.array_equal(t, ref_t), k
        assert s.dtype == np.int16 and not s.flags.writeable and not t.flags.writeable
    sq.blocks.cache_clear()
    sq._composed_partial.cache_clear()
    return levels


@pytest.mark.parametrize("spec", [s for _, s in BLOCK_SPECS],
                         ids=[n for n, _ in BLOCK_SPECS])
def test_blocks_equal_the_tiling_at_every_accepted_level(spec):
    levels = assert_blocks_match_tiling(spec)
    if spec.cycle:
        assert spec.block_length(levels[-1] + 1) > sq.BLOCK_BUDGET
    else:
        # the last declared level, where tail_letter(k + 1) would raise
        assert levels == [0, 1, 2] == list(range(len(spec.tail_letters) + 1))


def test_blocks_equal_the_tiling_on_random_tails():
    rng = np.random.default_rng(16)
    for trial in range(24):
        cycle = trial % 2 == 0
        depth = int(rng.choice((2, 4))) if cycle else int(rng.integers(1, 5))
        periods = [int(n) for n in rng.integers(3 if cycle else 2, 6, size=depth)]
        periods[-1] = max(periods[-1], 3)
        offsets = tuple(int(rng.integers(0, n)) for n in periods)
        letters = tuple("ab"[(i + trial // 2) % 2] for i in range(depth))
        pp = int(rng.integers(1, 4))
        prefix = sq.CodingTriple(tuple(rng.choice(["a", "b"], size=pp - 1)), pp,
                                 int(rng.integers(0, pp)))
        spec = sq.ToeplitzSpec(AB, prefix, letters, tuple(periods), offsets, cycle=cycle)
        assert assert_blocks_match_tiling(spec, budget=10**5)


@pytest.mark.parametrize("spec", [s for _, s in BLOCK_SPECS[:5]],
                         ids=[n for n, _ in BLOCK_SPECS[:5]])
def test_partition_residue_is_one_past_the_hole(spec):
    # level-k blocks end at the level-k hole, on every spec-generated window
    for k in range(5):
        ell = spec.block_length(k)
        need = (4 * spec.tail_period(k + 1) + 2) * ell + 7
        starts = [1, 10_007, -need - 5]  # the last ends left of site 0
        if spec.extension_letter is not None:
            starts.append(-need // 2)  # across the everywhere-undetermined site
        for start in starts:
            view = sq.k_partition(spec.window(start, need), spec, k)
            assert view.residue == (spec.hole_position(k) + 1) % ell, (k, start)


# ---------------------------------------------------------------------------
# k-partitions
# ---------------------------------------------------------------------------


def test_partition_recovers_canonical_alignment():
    spec = simple_spec()
    w = spec.window(1, 800)
    pv = sq.k_partition(w, spec, 1)
    assert pv.residue == 1 % 3
    assert set(pv.gaps) <= {2, 5}
    pv2 = sq.k_partition(w, spec, 2)
    assert pv2.residue == 1 % 9


def test_partition_gap_set_uses_next_period():
    spec = simple_spec(periods=(3, 4), offsets=(0, 0))
    w = spec.window(1, 2500)
    pv1 = sq.k_partition(w, spec, 1)
    assert set(pv1.gaps) == {3, 7}  # period above level 1 is 4
    pv2 = sq.k_partition(w, spec, 2)
    assert set(pv2.gaps) <= {2, 5}  # period above level 2 is 3
    # level-k blocks group as s^(n-1) t and s^n, n = n_(k+1) >= 3, so no
    # s-block ever has a t-block on each side (the classifier relies on it)
    rng = np.random.default_rng(13)
    specs = [
        simple_spec(periods=(3, 4), offsets=(1, 2)),
        simple_spec(periods=(5, 5), offsets=(0, 3)),
        sq.ToeplitzSpec(AB, sq.CodingTriple(("b", "a"), 3, 1),
                        ("a", "b"), (3, 4), (0, 2)),
        simple_spec(periods=(2, 3, 4, 3, 5, 3, 4, 3),
                    offsets=(1, 0, 2, 1, 3, 0, 1, 2), cycle=False),
    ]
    for _ in range(2):
        periods = tuple(int(p) for p in rng.integers(3, 6, size=4))
        specs.append(simple_spec(
            periods=periods, offsets=tuple(int(rng.integers(0, p)) for p in periods)))
    assert specs[2].prefix.period == 3 and specs[3].prefix.period == 2
    for spec in specs:
        w = spec.window(1, 8000)
        for k in range(4):
            n = spec.tail_period(k + 1)
            assert set(sq.k_partition(w, spec, k).gaps) == {n - 1, 2 * n - 1}


def block_containing(part, site):
    """(start, label, index) of the full block of a partition covering the
    site: the starts are starts[0] + block_len * i, so the index is one
    floor division."""
    i = (site - int(part.starts[0])) // part.block_len
    if not 0 <= i < len(part.labels):
        raise sq.PartitionError(
            "site %d not covered by a full level-%d block" % (site, part.level))
    return int(part.starts[i]), part.labels[i], i


def test_partition_is_unique_on_shifted_windows():
    spec = simple_spec()
    base = spec.window(1, 3000)
    for shift in (0, 4, 17):
        w = base.slice(1 + shift, 1 + shift + 700)
        pv = sq.k_partition(w, spec, 1)
        assert pv.residue == 1 % 3
        # the sites around the full blocks: the edge fragments are not covered
        first = int(pv.starts[0])
        last = int(pv.starts[-1]) + pv.block_len - 1
        with pytest.raises(sq.PartitionError):
            block_containing(pv, first - 1)
        assert block_containing(pv, first) == (first, pv.labels[0], 0)
        assert block_containing(pv, last) == (
            int(pv.starts[-1]), pv.labels[-1], len(pv.labels) - 1
        )
        with pytest.raises(sq.PartitionError):
            block_containing(pv, last + 1)


def test_partition_ambiguity_is_an_error():
    # an all-a window tiles as pure t-blocks at every residue
    w = sq.Window(0, np.zeros(200, dtype=np.int16), AB)
    spec = simple_spec()
    with pytest.raises(sq.AmbiguousPartitionError) as err:
        sq.k_partition(w, spec, 1)
    assert len(err.value.residues) == 3


def test_partition_rejects_foreign_windows():
    spec = simple_spec()
    codes = np.zeros(300, dtype=np.int16)
    codes[::2] = 1  # 'bb' spacing never occurs in this word
    w = sq.Window(0, codes, AB)
    with pytest.raises(sq.PartitionError):
        sq.k_partition(w, spec, 1)


def first_mismatches(window, spec, k, residues):
    """Per residue, the first site that differs from s_k tiled from it and
    does not end a block, read site by site."""
    s, _ = sq.blocks(spec, k)
    ell = len(s)
    out = []
    for r in residues:
        for i, code in enumerate(window.codes.tolist()):
            site = window.start + i
            if (site - r + 1) % ell and code != s[(site - r) % ell]:
                out.append("%d at site %d" % (r, site))
                break
    return out


@pytest.mark.parametrize("start", [0, -7])
def test_partition_error_names_the_first_mismatch_per_residue(start):
    spec = simple_spec()
    codes = np.zeros(400, dtype=np.int16)
    codes[::2] = 1
    w = sq.Window(start, codes, AB)
    # level 1: every residue is named
    named = ", ".join(first_mismatches(w, spec, 1, range(3)))
    with pytest.raises(sq.PartitionError, match=r"no legal level-1 alignment: window "
                       r"is not a subshift slice \(first mismatch per residue: %s\)$"
                       % named):
        sq.k_partition(w, spec, 1)
    # level 2 from a level-1 view: the three candidate residues of the refinement
    view = sq.k_partition(spec.window(1, 400), spec, 1)
    named = ", ".join(first_mismatches(w, spec, 2, [(view.residue + 3 * j) % 9
                                                   for j in range(3)]))
    with pytest.raises(sq.PartitionError, match=r"\(first mismatch per residue: %s\)$"
                       % named):
        sq.k_partition(w, spec, 2, refine_from=view)
    # level 3 scans 27 residues: the first PARTITION_ERROR_RESIDUES are named
    shown = sq.PARTITION_ERROR_RESIDUES
    named = ", ".join(first_mismatches(w, spec, 3, range(shown)))
    with pytest.raises(sq.PartitionError, match=r"\(first mismatch per residue: "
                       r"%s, and %d more residues\)$" % (named, 27 - shown)):
        sq.k_partition(w, spec, 3)


def test_partition_window_too_short_reports_requirement():
    spec = simple_spec()
    w = spec.window(1, 30)
    with pytest.raises(sq.WindowTooShortError, match=r"need >= 42$"):
        sq.k_partition(w, spec, 1)


def test_partition_refines_to_lower_level():
    spec = simple_spec(periods=(3, 4), offsets=(0, 0))
    w = spec.window(1, 3000)
    pv1 = sq.k_partition(w, spec, 1)
    pv2 = sq.k_partition(w, spec, 2)
    n2 = spec.tail_period(2)
    expanded = []
    for lab in pv2.labels:
        expanded.extend(["s"] * (n2 - 1) + ["t"] if lab == "s" else ["s"] * n2)
    i0 = int(np.searchsorted(pv1.starts, pv2.starts[0]))
    overlap = min(len(expanded), len(pv1.labels) - i0)
    assert expanded[:overlap] == list(pv1.labels[i0 : i0 + overlap])


def test_partition_refine_from_matches_full_scan():
    spec = simple_spec()
    w = spec.window(1, 3000)
    pv2 = sq.k_partition(w, spec, 2)
    pv3_full = sq.k_partition(w, spec, 3)
    pv3_ref = sq.k_partition(w, spec, 3, refine_from=pv2)
    assert pv3_full.residue == pv3_ref.residue
    assert np.array_equal(pv3_full.starts, pv3_ref.starts)
    assert pv3_full.labels == pv3_ref.labels


def ref_k_partition(window, spec, k, refine_from=None):
    """The two-comparison alignment search: full blocks must equal s_k or
    t_k, the left fragment the shared prefix's tail (its last site free),
    the right fragment the shared prefix's head."""
    s, t = sq.blocks(spec, k)
    ell = len(s)
    min_len = (4 * spec.tail_period(k + 1) + 2) * ell
    if len(window) < min_len:
        raise sq.WindowTooShortError("too short")
    if refine_from is not None:
        base = refine_from.residue % refine_from.block_len
        candidates = [(base + j * refine_from.block_len) % ell
                      for j in range(spec.tail_period(k))]
    else:
        candidates = range(ell)
    codes, w, common = window.codes, len(window), s[:-1]
    legal = []
    for r in candidates:
        off = (r - window.start) % ell
        nfull = (w - off) // ell
        body = codes[off : off + nfull * ell].reshape(nfull, ell)
        is_s = np.all(body == s, axis=1)
        is_t = np.all(body == t, axis=1)
        if not np.all(is_s | is_t):
            continue
        if off > 1 and not np.array_equal(codes[: off - 1], common[ell - off :]):
            continue
        rest = w - off - nfull * ell
        if rest > 0 and not np.array_equal(codes[off + nfull * ell :], common[:rest]):
            continue
        legal.append((r, off, nfull, is_t))
    if not legal:
        raise sq.PartitionError("no legal alignment")
    if len(legal) > 1:
        raise sq.AmbiguousPartitionError("ambiguous", residues=[r for r, *_ in legal])
    r, off, nfull, is_t = legal[0]
    t_idx = np.flatnonzero(is_t)
    return sq.PartitionView(
        level=k, block_len=ell, residue=(window.start + off) % ell,
        starts=window.start + off + ell * np.arange(nfull),
        labels=tuple("t" if flag else "s" for flag in is_t),
        gaps=tuple(int(b - a - 1) for a, b in zip(t_idx, t_idx[1:])),
    )


def partition_outcome(search, window, spec, k, **kw):
    """A view's fields, or the partition error's type and residues."""
    try:
        v = search(window, spec, k, **kw)
    except sq.PartitionError as exc:
        return type(exc), getattr(exc, "residues", None)
    assert v.starts.dtype == np.int64
    return v.level, v.block_len, v.residue, v.starts.tolist(), v.labels, v.gaps


def assert_partition_matches_reference(window, spec, k, **kw):
    got = partition_outcome(sq.k_partition, window, spec, k, **kw)
    assert got == partition_outcome(ref_k_partition, window, spec, k, **kw), (
        window.start, len(window), k)
    return got


def partition_levels(spec):
    return [k for k in range(4) if k + 1 <= spec.max_level()]


@pytest.mark.parametrize("spec", [s for _, s in BLOCK_SPECS[:5]],
                         ids=[n for n, _ in BLOCK_SPECS[:5]])
def test_partition_matches_the_reference_search(spec):
    rng = np.random.default_rng(18)
    for k in partition_levels(spec):
        ell = spec.block_length(k)
        need = (4 * spec.tail_period(k + 1) + 2) * ell
        starts = [1, 10_007, -need - 2 * ell - 9]  # the last ends left of site 0
        if spec.extension_letter is not None:
            starts.append(-need // 2)  # across the everywhere-undetermined site
        below = None
        for start in starts:
            for extra in (0, 1, ell - 1, ell + 3):
                w = spec.window(start, need + extra)
                view = assert_partition_matches_reference(w, spec, k)
                assert view[2] == (spec.hole_position(k) + 1) % ell
                if k > 0:
                    below = sq.k_partition(w, spec, k - 1)
                    assert_partition_matches_reference(w, spec, k, refine_from=below)
                # one flipped site: at a block end, next to one, at the edges
                sites = {0, len(w) - 1, (view[3][0] - start - 1) % len(w),
                         view[3][0] - start, int(rng.integers(0, len(w)))}
                for i in sites:
                    codes = w.codes.copy()
                    codes[i] ^= 1
                    flipped = sq.Window(w.start, codes, w.alphabet)
                    assert_partition_matches_reference(flipped, spec, k)
                    if below is not None:
                        assert_partition_matches_reference(
                            flipped, spec, k, refine_from=below)


def test_partition_matches_the_reference_on_random_windows():
    spec = simple_spec()
    rng = np.random.default_rng(19)
    for trial in range(200):
        k = trial % 4
        need = (4 * 3 + 2) * 3**k
        length = need + int(rng.integers(0, 30))
        start = int(rng.integers(1, 1000))  # simple3 leaves site 0 undetermined
        if trial % 2:
            codes = rng.integers(0, 2, size=length).astype(np.int16)
        else:  # a spec window with one site flipped
            codes = spec.window(start, length).codes.copy()
            codes[int(rng.integers(0, length))] ^= 1
        assert_partition_matches_reference(sq.Window(start, codes, AB), spec, k)


def test_partition_matches_the_reference_on_foreign_windows():
    for _, spec in BLOCK_SPECS:
        for k in partition_levels(spec):
            need = (4 * spec.tail_period(k + 1) + 2) * spec.block_length(k) + 5
            alternating = np.zeros(need, dtype=np.int16)
            alternating[::2] = 1
            for codes in (np.zeros(need, dtype=np.int16), alternating):
                for start in (0, -7):
                    assert_partition_matches_reference(
                        sq.Window(start, codes, AB), spec, k)


def test_partition_rejects_windows_over_other_symbols():
    spec = simple_spec()
    codes = spec.window(1, 200).codes
    for alphabet in (sq.Alphabet(("b", "a"), (1.0, 0.0)),
                     sq.Alphabet(("0", "1"), (0.0, 1.0)),
                     sq.Alphabet(("a", "b", "c"), (0.0, 1.0, 2.0))):
        with pytest.raises(sq.ValidationError, match="differ from the spec's"):
            sq.k_partition(sq.Window(1, codes, alphabet), spec, 1)
    # the symbols decide, not the coupling values
    view = sq.k_partition(sq.Window(1, codes, sq.Alphabet(("a", "b"), (5.0, 7.0))),
                          spec, 1)
    assert view.residue == 1


# ---------------------------------------------------------------------------
# Sparse sequences
# ---------------------------------------------------------------------------


def test_sparse_window_power_rule():
    spec = sq.SparseSpec(v=2.0, rule=("power", 3))
    w = spec.window(1, 29)
    hits = [i for i in range(1, 30) if code_at(w, i) == 1]
    assert hits == [3, 9, 27]
    assert w.values().max() == 2.0


def test_sparse_growth_validation():
    sq.SparseSpec(v=1.0, positions=(1, 3))  # 3 > 2*1 holds
    with pytest.raises(sq.ValidationError):
        sq.SparseSpec(v=1.0, positions=(2, 4))  # 4 > 4 fails
    with pytest.raises(sq.ValidationError):
        sq.SparseSpec(v=1.0, rule=("power", 2))
    with pytest.raises(sq.ValidationError):
        sq.SparseSpec(v=0.0, positions=(1, 3))


def test_sparse_two_sided_left_fill():
    spec = sq.SparseSpec(v=2.0, rule=("power", 3))
    w = spec.window(-5, 10)
    assert all(code_at(w, i) == 0 for i in range(-5, 1))
    assert code_at(w, 3) == 1
    filled = sq.SparseSpec(v=2.0, rule=("power", 3), left_fill=-1.0)
    w2 = filled.window(-5, 10)
    assert w2.values()[0] == -1.0
    assert symbol_at(w2, 3) == "v"


def test_sparse_factorial_gap_rule_is_valid_and_eventually_factorial():
    spec = sq.SparseSpec(v=2.0, rule=("factorial_gaps", 1))
    pos = spec.position_list(12)
    for a, b in zip(pos, pos[1:]):
        assert b > 2 * a
    gaps = spec.gaps(11)
    assert gaps[-3:] == (math.factorial(9), math.factorial(10), math.factorial(11))


def ref_iter_positions(spec, stop):
    """Barrier positions up to the first (n, k) that ``stop`` accepts, k from 1:
    the list-and-callback form the single generator replaced."""
    out = []
    if spec.positions is not None:
        for k, n in enumerate(spec.positions, start=1):
            if stop(n, k):
                break
            out.append(n)
        return out
    kind = spec.rule[0]
    if kind == "power":
        base = spec.rule[1]
        n, k = base, 1
        while not stop(n, k):
            out.append(n)
            k += 1
            n *= base
    else:
        n, k = spec.rule[1], 1
        while not stop(n, k):
            out.append(n)
            n = max(2 * n + 1, n + math.factorial(k))
            k += 1
    return out


@pytest.mark.parametrize("kw", [dict(rule=("power", 3)), dict(rule=("factorial_gaps", 1)),
                                dict(positions=(2, 5, 11, 30, 61, 200))])
def test_sparse_positions_match_the_reference(kw):
    spec = sq.SparseSpec(v=2.0, **kw)
    first = spec.position_list(15)
    assert list(first) == ref_iter_positions(spec, lambda n, k: k > 15)
    for count in range(-1, 17):
        assert spec.position_list(count) == tuple(
            ref_iter_positions(spec, lambda n, k: k > count))
    limits = {0, 1} | {n + d for n in first for d in (-1, 0, 1)}
    for limit in sorted(limits):
        assert spec.positions_upto(limit) == tuple(
            ref_iter_positions(spec, lambda n, k: n > limit)), limit


# ---------------------------------------------------------------------------
# Spec kinds: a library call given the wrong kind names the kind it needs
# ---------------------------------------------------------------------------


def _wrong_kind_calls():
    from sturmspec import cocycle as cc
    from sturmspec import gordon as gd
    from sturmspec import spectrum as sp

    window = FIB.window(0, 200, allow_periodic=True)
    return {
        "sigma_n": ("ToeplitzSpec", lambda: sp.sigma_n(FIB, 2)),
        "band_sets": ("ToeplitzSpec", lambda: sp.band_sets(SPARSE3, (2,))),
        "trace_table": ("ToeplitzSpec", lambda: cc.trace_table(FIB, 0.3, 5)),
        "trace_recursion_f64": ("ToeplitzSpec", lambda: cc.trace_recursion_f64(FIB, 3, [0.1])),
        "gordon_sweep": ("ToeplitzSpec", lambda: gd.gordon_sweep(FIB, 2, 2, 2)),
        "certify_pairs": ("ToeplitzSpec",
                          lambda: gd.certify_pairs(FIB, window, 0, [0.3], [100], 2)),
        "nondecay_scan": ("ToeplitzSpec", lambda: gd.nondecay_scan(FIB, 0.3, 10)),
        "sparse_essential_spectrum": ("SparseSpec",
                                      lambda: sp.sparse_essential_spectrum(SIMPLE3)),
        "sparse_no_eigenvalue_certificate": (
            "SparseSpec", lambda: sp.sparse_no_eigenvalue_certificate(SIMPLE3, 0.3)),
    }


@pytest.mark.parametrize("name", list(_wrong_kind_calls()))
def test_wrong_spec_kind_names_the_kind_needed(name):
    needed, call = _wrong_kind_calls()[name]
    with pytest.raises(sq.ValidationError, match="needs a %s, got " % needed):
        call()
