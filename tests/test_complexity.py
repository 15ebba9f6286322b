"""Complexity estimators and the classification tests built on them."""

import pathlib
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmspec import complexity as cx
from sturmspec import sequences as sq
from sturmspec.config import build_spec, parse_config

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

AB = sq.Alphabet(("a", "b"), (0.0, 1.0))


def word_window(symbols, start=0):
    codes = np.array([AB.code(s) for s in symbols], dtype=np.int16)
    return sq.Window(start, codes, AB)


def fib_window(length, beta=None, start=0):
    beta = beta if beta is not None else Fraction(377, 610)
    spec = sq.CircleMapSpec(377, 610, beta, Fraction(0), 1.0)
    return spec.window(start, length, allow_periodic=True)


# ---------------------------------------------------------------------------
# Block complexity
# ---------------------------------------------------------------------------


def test_constant_word_has_single_factor():
    w = word_window("a" * 100)
    for n in (1, 3, 9):
        assert cx.block_complexity(w, n) == 1


def test_periodic_word_saturates_at_period():
    w = word_window("aabab" * 60)
    assert cx.block_complexity(w, 7) == 5


def test_fibonacci_word_minimal_complexity():
    w = fib_window(2000)
    for n in range(1, 13):
        assert cx.block_complexity(w, n) == n + 1
    assert cx.block_complexity(fib_window(200), 3) == 4


def test_block_complexity_validation():
    w = word_window("ab" * 10)
    with pytest.raises(sq.ValidationError):
        cx.block_complexity(w, 0)
    with pytest.raises(sq.ValidationError):
        cx.block_complexity(w, 21)


def test_block_complexity_vs_python_set_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        symbols = "".join(rng.choice(["a", "b"], size=rng.integers(20, 200)))
        w = word_window(symbols)
        n = int(rng.integers(1, 8))
        oracle = len({symbols[i : i + n] for i in range(len(symbols) - n + 1)})
        assert cx.block_complexity(w, n) == oracle


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="ab", min_size=80, max_size=200))
def test_complexity_monotone_in_n_and_window(text):
    # monotonicity in n needs n well below the window length
    w = word_window(text)
    vals = [cx.block_complexity(w, n) for n in range(1, 6)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    longer = word_window(text + text[: len(text) // 2])
    for n in range(1, 9):
        assert cx.block_complexity(longer, n) >= cx.block_complexity(w, n)


# ---------------------------------------------------------------------------
# Maximal pattern complexity
# ---------------------------------------------------------------------------


def test_pstar_level_one_counts_symbols():
    w = word_window("abba" * 30)
    cnt, tpl = cx.max_pattern_complexity(w, 1, 10)
    assert cnt == 2 and tpl.offsets == (0,)


def test_pstar_exhaustive_circle_pair():
    spec = sq.CircleMapSpec(377, 610, Fraction(2, 5), Fraction(1, 9), 1.0)
    w = spec.window(0, 5000, allow_periodic=True)
    cnt, _ = cx.max_pattern_complexity(w, 2, 50)
    assert cnt == 4


def test_pstar_sparse_exhaustive_and_beam_agree():
    spec = sq.SparseSpec(v=2.0, rule=("power", 3))
    w = spec.window(1, 2000)
    exact, tpl = cx.max_pattern_complexity(w, 3, 100, mode="exhaustive")
    beam, _ = cx.max_pattern_complexity(w, 3, 100, mode="beam")
    assert exact == 6
    assert beam == exact
    assert tpl.offsets[0] == 0 and len(tpl.offsets) == 3


def test_pstar_never_below_block_complexity():
    w = fib_window(3000)
    for n in (2, 4, 6):
        cnt, _ = cx.max_pattern_complexity(w, n, 80)
        assert cnt >= cx.block_complexity(w, n)


def test_pstar_template_budget_error():
    w = fib_window(1000)
    with pytest.raises(sq.ValidationError):
        cx.max_pattern_complexity(w, 6, 200, mode="exhaustive")


def test_pstar_window_guard():
    w = word_window("ab" * 30)
    with pytest.raises(sq.WindowTooShortError):
        cx.max_pattern_complexity(w, 2, 100)


@pytest.mark.parametrize("beam_width", [0, -1])
def test_pstar_rejects_beam_below_one(beam_width):
    # width 0 emptied the beam (IndexError); a negative width sliced off
    # only the last candidates, so the beam grew without bound
    with pytest.raises(sq.ValidationError, match="beam_width"):
        cx.pstar_profile(fib_window(40), 4, 8, beam_width=beam_width, mode="beam")


@pytest.mark.parametrize("query", ["profile", "single"])
def test_pstar_rejects_an_unknown_mode(query):
    # a misspelt mode used to run the beam: (6, (0, 2, 4)) on fib
    w = fib_window(1000)
    with pytest.raises(sq.ValidationError, match="'exhuastive'.*auto, exhaustive, beam"):
        if query == "profile":
            cx.pstar_profile(w, 3, 20, mode="exhuastive")
        else:
            cx.max_pattern_complexity(w, 3, 20, mode="exhuastive")


def test_profile_matches_single_queries():
    w = fib_window(1500)
    prof = cx.pstar_profile(w, 4, 40)
    for n in range(1, 5):
        cnt, tpl = cx.max_pattern_complexity(w, n, 40)
        assert prof[n - 1][0] == cnt


def test_complexity_report_invariants_and_export():
    w = fib_window(1200)
    rep = cx.complexity_report(w, 5, 30)
    assert rep.p_values <= rep.pstar_values
    d = rep.as_dict()
    assert d["n"] == [1, 2, 3, 4, 5]
    assert len(rep.rows()) == 5
    assert rep.position_range[0] == 0


def test_report_reads_block_complexity_off_the_factor_table():
    rng = np.random.default_rng(21)
    for _ in range(300):
        radix = int(rng.integers(2, 5))
        t_max = int(rng.integers(0, 61))
        w = wide_window(rng, int(rng.integers(t_max + 1, t_max + 200)), radix)
        # periodic stretches give repeated factors and long common prefixes
        if rng.random() < 0.3:
            period = int(rng.integers(1, 8))
            w = sq.Window(0, np.resize(w.codes[:period], len(w)), w.alphabet)
        n_max = int(rng.integers(1, t_max + 2)) if t_max < 8 else int(rng.integers(1, 9))
        rep = cx.complexity_report(w, n_max, t_max, beam_width=1, mode="beam")
        assert rep.p_values == tuple(cx.block_complexity(w, n) for n in range(1, n_max + 1))
    for name in ("fib", "simple3", "sparse3"):
        spec = build_spec(parse_config(str(CONFIGS / ("%s.cfg" % name))))
        w = spec.window(1, 3000, allow_periodic=True) if name == "fib" else spec.window(1, 3000)
        rep = cx.complexity_report(w, 12, 40)
        assert rep.p_values == tuple(cx.block_complexity(w, n) for n in range(1, 13)), name


# ---------------------------------------------------------------------------
# Factor table against the position-based reference
# ---------------------------------------------------------------------------
# The reference counts sampled tuples at every window position, as the
# estimators did before counting moved to the distinct-factor table.


def ref_distinct_count(codes, offsets, radix):
    m = len(codes) - offsets[-1]
    key = np.zeros(m, dtype=np.int64)
    for t in offsets:
        key = key * radix + codes[t : t + m]
    return len(np.unique(key))


def ref_beam_profile(codes, radix, n_max, t_max, beam_width):
    m = len(codes) - t_max
    windows = np.lib.stride_tricks.sliding_window_view(codes, m)
    ids0 = np.unique(codes[:m], return_inverse=True)[1].astype(np.int64)
    beam = [((0,), ids0, int(ids0.max()) + 1)]
    best = {}
    for level in range(2, n_max + 1):
        candidates = []
        for offs, ids, u in beam:
            lo = offs[-1] + 1
            if lo > t_max:
                continue
            K = u * radix
            keys = ids * np.int64(radix) + windows[lo : t_max + 1]
            T = keys.shape[0]
            keys = keys + (np.arange(T, dtype=np.int64) * K)[:, None]
            bc = np.bincount(keys.ravel(), minlength=T * K)
            counts = (bc.reshape(T, K) > 0).sum(axis=1)
            for i in range(T):
                candidates.append((int(counts[i]), offs + (lo + i,), offs, lo + i))
        if not candidates:
            break
        candidates.sort(key=lambda c: (-c[0], c[1]))
        best[level] = (candidates[0][0], candidates[0][1])
        by_parent = {offs: ids for offs, ids, _ in beam}
        beam = []
        for cnt, offs, parent, t in candidates[:beam_width]:
            key = by_parent[parent] * np.int64(radix) + codes[t : t + m]
            beam.append((offs, np.unique(key, return_inverse=True)[1], cnt))
    return best


def ref_pstar_profile(window, n_max, t_max, mode, beam_width=cx.DEFAULT_BEAM):
    codes, radix = window.codes, len(window.alphabet)
    out = [(ref_distinct_count(codes, (0,), radix), (0,))]
    if mode == "exhaustive":
        for n in range(2, n_max + 1):
            best, best_offs = -1, None
            for rest in combinations(range(1, t_max + 1), n - 1):
                cnt = ref_distinct_count(codes, (0,) + rest, radix)
                if cnt > best:  # lexicographic order: the first maximum wins
                    best, best_offs = cnt, (0,) + rest
            out.append((best, best_offs))
        return out
    found = ref_beam_profile(codes, radix, n_max, t_max, beam_width)
    for n in range(2, n_max + 1):
        contiguous = tuple(range(n))
        cnt, offs = -1, None
        if n in found:
            offs = found[n][1]
            cnt = ref_distinct_count(codes, offs, radix)
        cnt_c = ref_distinct_count(codes, contiguous, radix)
        if cnt_c > cnt:
            cnt, offs = cnt_c, contiguous
        out.append((cnt, offs))
    return out


def random_window(rng, length, radix):
    letters = "abcd"[:radix]
    ab = sq.Alphabet(tuple(letters), tuple(float(i) for i in range(radix)))
    return sq.Window(0, rng.integers(0, radix, length).astype(np.int16), ab)


SIMPLE3 = sq.ToeplitzSpec(AB, sq.CodingTriple((), 1, 0), ("a", "b"), (3, 3), (0, 0))
SPARSE3 = sq.SparseSpec(v=2.0, rule=("power", 3))


def reference_words():
    rng = np.random.default_rng(11)
    yield "fib", fib_window(1500, start=123)
    yield "simple3", SIMPLE3.window(1, 1500)
    yield "sparse3", SPARSE3.window(1, 1500)
    for radix in (2, 3, 4):
        yield "random%d" % radix, random_window(rng, 300, radix)


def test_factor_table_counts_match_python_set_oracle():
    rng = np.random.default_rng(3)
    for radix in (2, 3, 4):
        for length in (40, 97):
            w = random_window(rng, length, radix)
            codes = [int(c) for c in w.codes]
            t_max = length - 1
            table = cx._factor_table(w.codes, t_max)
            # spans near t_max = len - 1 leave only the last few tail rows
            spans = [1, 2, t_max // 2, t_max - 3, t_max - 1, t_max]
            for span in spans:
                for size in (1, 2, 3, 5, 36):  # 4**36 keys take the wide path
                    size = min(size, span + 1)
                    inner = rng.choice(np.arange(1, span), size - 2, replace=False) \
                        if size > 2 else []
                    offs = tuple(sorted({0, span, *map(int, inner)}))
                    oracle = {tuple(codes[p + t] for t in offs)
                              for p in range(length - span)}
                    got = cx._distinct_count(table, [offs], radix)
                    assert got.tolist() == [len(oracle)], (radix, length, offs)


@pytest.mark.parametrize("window,n_max,t_max", [
    (fib_window(2000), 64, 80),  # 2**62 keys from n = 62 on
    (sq.SparseSpec(v=2.0, rule=("power", 3), left_fill=1.0).window(-300, 1500),
     42, 60),  # three letters: 3**39 < 2**62 <= 3**40
], ids=["fib", "sparse-three-letters"])
def test_pstar_counts_past_int64_keys_match_bytes_oracle(window, n_max, t_max):
    """The last three lengths take ``_distinct_count``'s byte-view path."""
    assert len(window.alphabet) ** (n_max - 2) >= 2**62
    profile = cx.pstar_profile(window, n_max, t_max, beam_width=4)
    for count, template in profile[n_max - 3:]:
        offs = np.asarray(template.offsets)
        oracle = {bytes(window.codes[p + offs]) for p in range(len(window) - offs[-1])}
        assert count == len(oracle), len(template)


def test_block_complexity_matches_python_set_oracle_at_any_length():
    for _, w in reference_words():
        for n in (1, 2, 7, 31, len(w) // 2, len(w)):
            oracle = {bytes(w.codes[p : p + n]) for p in range(len(w) - n + 1)}
            assert cx.block_complexity(w, n) == len(oracle)


@pytest.mark.parametrize(
    "n_max,t_max,mode,beam_width",
    [(3, 30, "exhaustive", None), (4, 20, "exhaustive", None),
     (8, 80, "beam", cx.DEFAULT_BEAM), (6, 40, "beam", 3)],
)
def test_pstar_profile_matches_position_reference(n_max, t_max, mode, beam_width):
    kw = {} if beam_width is None else {"beam_width": beam_width}
    for name, w in reference_words():
        got = [(c, t.offsets) for c, t in cx.pstar_profile(w, n_max, t_max, mode=mode, **kw)]
        assert got == ref_pstar_profile(w, n_max, t_max, mode, **kw), name
        assert all(type(c) is int for c, _ in got)


def wide_window(rng, length, radix):
    ab = sq.Alphabet(tuple("s%d" % i for i in range(radix)),
                     tuple(float(i) for i in range(radix)))
    return sq.Window(0, rng.integers(0, radix, length).astype(np.int16), ab)


@pytest.mark.parametrize("radix,length,n_max,t_max,beam_width", [
    (70, 400, 4, 20, 5),  # two words of symbol bits
    (130, 500, 3, 12, 4),  # three words
    (64, 300, 4, 17, 6),  # one full uint64 word
    (9, 200, 5, 16, 8),  # uint16 words
    (2, 60, 7, 7, 64),  # spans end at t_max, on a word boundary
    (3, 80, 6, 15, 2),
])
def test_beam_profile_matches_reference_on_any_alphabet(radix, length, n_max, t_max,
                                                        beam_width):
    w = wide_window(np.random.default_rng(radix), length, radix)
    got = [(c, t.offsets) for c, t in
           cx.pstar_profile(w, n_max, t_max, beam_width=beam_width, mode="beam")]
    assert got == ref_pstar_profile(w, n_max, t_max, "beam", beam_width=beam_width)


def test_criterion_one_pstar_values_unchanged():
    # the acceptance-test-01 words at (n_max, t_max) = (12, 200), pinned
    # from the position-based estimator
    words = {
        "circle beta=alpha": fib_window(5000),
        "circle beta=2/5": fib_window(5000, beta=Fraction(2, 5)),
        "sparse 3^k": SPARSE3.window(1, 5000),
    }
    pins = {
        "circle beta=alpha": [tuple(range(0, 2 * n, 2)) for n in range(1, 13)],
        "circle beta=2/5": [tuple(range(n)) for n in range(1, 13)],
        "sparse 3^k": [
            (0,), (0, 6), (0, 6, 18), (0, 6, 18, 54), (0, 6, 18, 54, 60),
            (0, 6, 18, 54, 60, 162), (0, 6, 18, 54, 60, 162, 168),
            (0, 6, 18, 54, 60, 162, 168, 180), (0, 1, 6, 7, 18, 19, 54, 55, 60),
            (0, 1, 6, 7, 18, 19, 54, 55, 60, 61),
            (0, 1, 6, 7, 18, 19, 54, 55, 60, 61, 162),
            (0, 1, 6, 7, 18, 19, 54, 55, 60, 61, 162, 163),
        ],
    }
    counts = {
        "circle beta=alpha": [2 * n for n in range(1, 13)],
        "circle beta=2/5": [2 * n for n in range(1, 13)],
        "sparse 3^k": [2, 4, 6, 8, 10, 12, 14, 16, 17, 19, 21, 23],
    }
    for name, w in words.items():
        profile = cx.pstar_profile(w, 12, 200)
        assert [c for c, _ in profile] == counts[name], name
        assert [t.offsets for _, t in profile] == pins[name], name


# ---------------------------------------------------------------------------
# Periodicity verdicts
# ---------------------------------------------------------------------------


def test_periodicity_detects_period_three():
    w = word_window("abb" * 50)
    verdict = cx.periodicity_test(w, 8)
    assert str(verdict) == "periodic-evidence(3)"
    # a genuine period no larger than the witness must exist
    assert cx.find_period(w) <= verdict.n_witness


def test_periodicity_on_aperiodic_words():
    verdict = cx.periodicity_test(fib_window(2000), 10)
    assert verdict.kind == "aperiodic-evidence"
    assert verdict.pstar_at_least_2n
    assert all(p == n + 1 for n, p in enumerate(verdict.p_values, start=1))


def ref_periodicity_test(window, n_max, t_max=None):
    """The per-n verdict: one ``max_pattern_complexity`` query per n."""
    if len(window) < 4 * n_max:
        raise sq.WindowTooShortError("short", required=4 * n_max)
    t_max = t_max if t_max is not None else min(2 * n_max, len(window) // 4)
    ps = tuple(cx.block_complexity(window, n) for n in range(1, n_max + 1))
    witness = next((n for n, p in enumerate(ps, 1) if p <= n), None)
    cap_ok = all(
        cx.max_pattern_complexity(window, n, t_max)[0] >= 2 * n
        for n in range(1, n_max + 1)
    )
    kind = "periodic-evidence" if witness is not None else "aperiodic-evidence"
    return cx.PeriodicityVerdict(kind, witness, ps, cap_ok)


@pytest.mark.parametrize("name,n_max,t_max", [
    ("abb", 8, None), ("aabab", 6, 40), ("fib", 10, None), ("fib", 4, None),
    ("fib", 8, 80), ("fib", 6, 61), ("toeplitz", 10, None), ("toeplitz", 7, 90),
    ("sparse", 9, None), ("random", 6, 30), ("period17", 9, None),
])
def test_periodicity_matches_per_n_reference(name, n_max, t_max):
    spec = sq.ToeplitzSpec(AB, sq.CodingTriple((), 1, 0), ("a", "b"), (3, 3), (0, 0))
    rng = np.random.default_rng(5)
    words = {
        "abb": lambda: word_window("abb" * 50),
        "aabab": lambda: word_window("aabab" * 60),
        "fib": lambda: fib_window(2000),
        "toeplitz": lambda: spec.window(1, 3000),
        "sparse": lambda: sq.SparseSpec(v=2.0, rule=("power", 3)).window(1, 1500),
        "random": lambda: word_window("".join(rng.choice(list("ab"), 400))),
        # p*(n) = 2n up to n = 8, then 17 < 18: the cap fails at n_max only
        "period17": lambda: word_window("bbbaaaaaabbbbbbbb" * 30),
    }
    w = words[name]()
    assert cx.periodicity_test(w, n_max, t_max) == ref_periodicity_test(w, n_max, t_max)


def test_periodicity_on_toeplitz_word():
    spec = sq.ToeplitzSpec(
        AB, sq.CodingTriple((), 1, 0), ("a", "b"), (3, 3), (0, 0)
    )
    verdict = cx.periodicity_test(spec.window(1, 3000), 10)
    assert verdict.kind == "aperiodic-evidence"


# ---------------------------------------------------------------------------
# Two-sided extension complexity
# ---------------------------------------------------------------------------


def test_sparse_extension_exceeds_double_rate():
    spec = sq.SparseSpec(v=2.0, rule=("power", 3))
    rows = cx.nonrecurrent_extension_test(spec, 0, [25, 40, 60, 90, 120])
    assert all(r.exceeds for r in rows)
    assert len(rows) == 5


def test_sparse_extension_higher_threshold():
    spec = sq.SparseSpec(v=2.0, rule=("power", 3))
    rows = cx.nonrecurrent_extension_test(spec, 5, [100, 140, 180, 220])
    assert all(r.exceeds for r in rows)
    assert all(r.threshold == 2 * r.n + 5 for r in rows)


def test_recurrent_word_respects_the_cap():
    w = fib_window(1200, start=-400)
    rows = cx.two_sided_complexity_report(w, 0, [10, 30, 60, 100])
    assert not any(r.exceeds for r in rows)


def test_extension_probe_guard():
    spec = sq.SparseSpec(v=2.0, rule=("power", 3))
    w = spec.window(-10, 50)
    with pytest.raises(sq.WindowTooShortError):
        cx.two_sided_complexity_report(w, 0, [60])
