"""Transfer matrices over symbol words, trace recursions, and Lyapunov
exponent estimation.

A site with coupling a contributes the unit-determinant matrix
``A_a = [[E - a, -1], [1, 0]]``; the matrix of a word multiplies
right-to-left, so the first letter acts first.  Traces over the level-k
building blocks obey a closed scalar recursion through the second-kind
recurrence polynomials S_n, which is checked against the block matrices.
Only the level-0 words are stepped site by site; every higher block matrix
is composed through the substitution s_k = s_{k-1}^{n_k - 1} t_{k-1},
t_k = s_{k-1}^{n_k}, so K levels cost O(n_1 + ... + n_K) 2x2 products.

Lyapunov scans multiply words, not sites: each distinct RESCALE_EVERY-site
word of the samples is stepped once per energy, then the word matrices are
composed in extended precision (see :func:`lyapunov_scan`).

Every recurrence over sites goes through one kernel, :func:`transfer_run`,
which steps phi(n+1) = c_n phi(n) - phi(n-1) with c_n = E - V(n) on
floats, numpy lanes or mpmath numbers.  Column convention: the state is
(cur, prev) = (phi(n), phi(n-1)), so a run from (1, 0) ends at the first
column (a, c) of the product [[a, b], [c, d]] and a run from (0, 1) at
the second column (b, d).  Backward propagation is the same run over the
reversed coefficients, started from (phi(o-1), phi(o)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath as mp
import numpy as np

from .sequences import Alphabet, ToeplitzSpec, ValidationError, Window, blocks

__all__ = [
    "transfer_matrix",
    "word_matrix",
    "matrix_norm2",
    "cheb_eval",
    "TraceTable",
    "trace_table",
    "trace_recursion_f64",
    "lyapunov",
    "lyapunov_scan",
    "free_hyperbolic_rate",
]

#: saturation bound for float64 trace recursions; values beyond it only
#: ever feed |h| > 2 comparisons, never band endpoints.
TRACE_CAP = 1e150
#: energy lanes per trace_recursion_f64 pass: the composed seeds hold ~20
#: lane arrays at once, and on 1e5 lanes fresh pages cost more than the math
LANE_CHUNK = 16384
#: mpmath working precision of trace tables, in decimal digits
TRACE_DPS = 50


def transfer_matrix(value: float, energy: float) -> np.ndarray:
    """Single-site matrix [[E - v, -1], [1, 0]]."""
    return np.array([[energy - value, -1.0], [1.0, 0.0]])


def _values_of(word, alphabet: Optional[Alphabet]):
    if isinstance(word, Window):
        return word.values()
    word = list(word)
    if word and isinstance(word[0], str):
        if alphabet is None:
            raise ValidationError("symbol words need an alphabet")
        return [alphabet.value(sym) for sym in word]
    return [float(v) for v in word]


def transfer_run(coeffs, cur, prev, trail=None):
    """Apply phi(n+1) = c_n phi(n) - phi(n-1) for each c_n = E - V(n) in coeffs.

    cur, prev are phi(n), phi(n-1): floats, numpy lanes or mpmath numbers.
    With a list as trail, cur is appended after every step.  Returns (cur, prev).
    """
    for c in coeffs:
        cur, prev = c * cur - prev, cur
        if trail is not None:
            trail.append(cur)
    return cur, prev


def _run_matrix(coeffs):
    """((a, b), (c, d)), the product over coeffs, by two column runs."""
    a, c = transfer_run(coeffs, 1.0, 0.0)
    b, d = transfer_run(coeffs, 0.0, 1.0)
    return (a, b), (c, d)


def word_matrix(word, energy: float, alphabet: Optional[Alphabet] = None) -> np.ndarray:
    """Product of site matrices over a word, first letter applied first.

    Accepts a Window, a sequence of symbol labels (with an alphabet), or a
    sequence of coupling values.  The empty word gives the identity.
    """
    coeffs = [energy - v for v in _values_of(word, alphabet)]
    return np.array(_run_matrix(coeffs), dtype=np.float64)


def matrix_norm2(m):
    """Operator 2-norm of a 2x2 matrix ((a, b), (c, d)), in closed form.

    The entries may be numpy lanes of one shape; the result then has that
    shape, and a float otherwise.
    """
    (a, b), (c, d) = m
    fro2 = a * a + b * b + c * c + d * d
    det = a * d - b * c
    inner = np.maximum(fro2 * fro2 - 4.0 * det * det, 0.0)
    norm = np.sqrt(np.maximum((fro2 + np.sqrt(inner)) / 2.0, 0.0))
    return float(norm) if np.ndim(norm) == 0 else norm


def _cheb_pair(n: int, x):
    """(S_n(x), S_{n-1}(x)) for n >= 2: n - 2 steps of the kernel from (S_2, S_1) = (x, 1)."""
    return transfer_run([x] * (n - 2), x, 1)


def cheb_eval(n: int, x):
    """S_n(x) by the forward three-term recurrence.

    S_0 = 0, S_1 = 1, S_{j+1} = x S_j - S_{j-1}; for any unit-determinant
    M one has M^n = S_n(tr M) M - S_{n-1}(tr M) I, which pins this seeding
    uniquely.  Works on floats, mpmath numbers, and numpy arrays alike.
    """
    if n < 0:
        raise ValidationError("cheb_eval needs n >= 0")
    if n == 0:
        return x * 0
    if n == 1:
        return x * 0 + 1
    return _cheb_pair(n, x)[0]


# ---------------------------------------------------------------------------
# Trace tables: direct products vs the scalar recursion
# ---------------------------------------------------------------------------


def _mat_mul(m, n):
    """m . n for 2x2 matrices ((a, b), (c, d)) of floats, lanes or mpmath numbers."""
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return (a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)


def block_matrices(spec: ToeplitzSpec, K: int, energy):
    """[(M(s_k), M(t_k)) for k = 0..K], the level-k block matrices.

    Level 0 is two column runs over each word; level k composes
    M(s_k) = M(t_{k-1}) M(s_{k-1})^(n_k - 1) and M(t_k) = M(s_{k-1})^n_k.
    ``energy`` is a float, an mpmath number or an array of float64 lanes.
    """
    values = spec.alphabet.value_table()
    out = [tuple(_run_matrix([energy - v for v in values[w]]) for w in blocks(spec, 0))]
    for k in range(1, K + 1):
        ms, mt = out[-1]
        power = ms
        for _ in range(spec.tail_period(k) - 2):
            power = _mat_mul(ms, power)
        out.append((_mat_mul(mt, power), _mat_mul(ms, power)))
    return out


def block_traces(spec: ToeplitzSpec, K: int, energy) -> list:
    """[tr M(s_k) for k = 0..K], from one composition pass."""
    return [ms[0][0] + ms[1][1] for ms, _ in block_matrices(spec, K, energy)]


def _recursion_step(h_prev, h_cur, n_mid: int, n_top: int):
    """h at level k+2 from (h_k, h_{k+1}) and periods (n_{k+1}, n_{k+2})."""
    s, s_below = _cheb_pair(n_mid, h_prev)
    inner = s * h_prev - 2 * s_below
    s, s_below = _cheb_pair(n_top, h_cur)
    return s * inner - 2 * s_below


@dataclass(frozen=True)
class TraceTable:
    """Traces h_0..h_K of the level-k block matrices at one energy.

    ``h_direct`` holds the traces of the block matrices composed through
    the substitution, one entry for every level 0..K; ``h_recursion`` the
    scalar recursion seeded by h_0, h_1 of that route.  Both are mpmath
    numbers so that super-exponential growth stays representable.
    """

    energy: float
    n_list: tuple
    h_direct: tuple
    h_recursion: tuple

    def max_rel_diff(self) -> float:
        """max_k |direct - recursion| / max(1, |direct|)."""
        worst = mp.mpf(0)
        for hd, hr in zip(self.h_direct, self.h_recursion):
            rel = abs(hd - hr) / max(mp.mpf(1), abs(hd))
            worst = max(worst, rel)
        return float(worst)

    def check_equivalence(self, tol: float = 1e-8) -> None:
        worst = self.max_rel_diff()
        if worst > tol:
            raise AssertionError(
                "trace routes disagree: rel diff %.3e > %.1e at E=%r"
                % (worst, tol, self.energy)
            )

    def rows(self):
        """(k, h_direct, h_recursion, abs_diff) rows for CSV export."""
        return [
            (k, hd, hr, abs(hd - hr))
            for k, (hd, hr) in enumerate(zip(self.h_direct, self.h_recursion))
        ]


def trace_table(
    spec: ToeplitzSpec,
    energy: float,
    K: int,
) -> TraceTable:
    """Compute h_0..h_K by both routes, in mpmath at TRACE_DPS digits.

    The direct route is :func:`block_traces`, one composition pass whose
    cost grows with K, not with the block length.  The recursion route is
    seeded by the direct h_0, h_1.
    """
    if K < 2:
        raise ValidationError("trace tables need K >= 2")
    if not math.isfinite(energy):
        raise ValidationError("energy %r is not finite" % energy)
    if spec.max_level() < K + 1:
        raise ValidationError(
            "trace level %d needs tail periods up to level %d" % (K, K + 1)
        )
    with mp.workdps(TRACE_DPS):
        e = mp.mpf(energy)
        n_list = tuple(spec.tail_period(k) for k in range(1, K + 1))
        direct = block_traces(spec, K, e)
        rec = [direct[0], direct[1]]
        for k in range(K - 1):
            rec.append(
                _recursion_step(
                    rec[k], rec[k + 1], spec.tail_period(k + 1), spec.tail_period(k + 2)
                )
            )
    return TraceTable(
        energy=float(energy),
        n_list=n_list,
        h_direct=tuple(direct),
        h_recursion=tuple(rec),
    )


def trace_recursion_f64(spec: ToeplitzSpec, K: int, e_grid: np.ndarray) -> np.ndarray:
    """h_0..h_K on an energy grid, float64 with saturation.

    Escaped values are clamped to +-TRACE_CAP: past that magnitude only
    the comparison |h| > 2 matters, and clamping keeps it stable under
    further recursion steps (no inf - inf).  Overflow in the level-0/1
    seeds and the steps is by design and warns nothing.  Returns shape
    (K+1, len(grid)).
    """
    e = np.atleast_1d(np.asarray(e_grid, dtype=np.float64))
    out = np.empty((K + 1, e.size))
    for i in range(0, e.size, LANE_CHUNK):
        lanes, h = e[i : i + LANE_CHUNK], out[:, i : i + LANE_CHUNK]
        with np.errstate(over="ignore", invalid="ignore"):
            h[0], h[1] = block_traces(spec, 1, lanes)
            for k in range(K - 1):
                nxt = _recursion_step(
                    h[k], h[k + 1], spec.tail_period(k + 1), spec.tail_period(k + 2)
                )
                # fmin maps NaN to +TRACE_CAP, as it caps +inf; then -inf to -TRACE_CAP
                np.fmin(nxt, TRACE_CAP, out=nxt)
                np.maximum(nxt, -TRACE_CAP, out=h[k + 2])
    return out


# ---------------------------------------------------------------------------
# Lyapunov exponents
# ---------------------------------------------------------------------------

#: sites per word of the Lyapunov products: each word matrix is rescaled
#: on its own, so a word that overflows float64 marks a pathological energy
RESCALE_EVERY = 32
#: sites between the start points of consecutive Lyapunov samples
SAMPLE_STRIDE = 1013
#: pairing levels above the words: blocks of RESCALE_EVERY * 2**TREE_LEVELS
#: sites.  Deeper blocks lose accuracy: a product of two long blocks whose
#: growth cancels keeps only the rounding of their contracting directions.
TREE_LEVELS = 3
#: blocks multiplied into a sample's product between its rescalings; the
#: blocks' entries are below 1 in magnitude, so the product's stay below
#: 2**FOLD_RESCALE
FOLD_RESCALE = 8
#: cap on tree nodes x energies per pass of lyapunov_scan, so its tables
#: stay a few hundred KB whatever the number of energies
WORD_LANES = 1 << 12


def _window_codes(source, start: int, length: int):
    """(codes, value table) of the sites [start, start + length)."""
    if isinstance(source, Window):
        if not (source.start <= start and start + length <= source.end):
            raise ValidationError("window too short for the requested Lyapunov run")
        lo = start - source.start
        return source.codes[lo : lo + length], source.alphabet.value_table()
    window = source.window(start, length)
    return window.codes, window.alphabet.value_table()


def _distinct_rows(rows: np.ndarray):
    """(distinct rows, inverse) of a 2-d code array, keyed on each row's bytes.

    The rows are sorted through one permutation and one sorted copy;
    ``np.unique(..., return_inverse=True)`` would hold a second copy.
    """
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    perm = keys.argsort()
    ordered = keys[perm]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    first[1:] = ordered[1:] != ordered[:-1]
    inv = np.empty(len(keys), dtype=np.intp)
    inv[perm] = np.cumsum(first) - 1
    return ordered[first].view(rows.dtype).reshape(-1, rows.shape[1]), inv


def _distinct_words(parts: list):
    """(distinct rows, [inverse of each part]) over code arrays of one width.

    Each part is deduplicated on its own first, so the sort copies stay the
    size of one sample's words.
    """
    per = [_distinct_rows(part) for part in parts]
    distinct, inv = _distinct_rows(np.concatenate([d for d, _ in per]))
    bounds = np.cumsum([0] + [len(d) for d, _ in per])
    return distinct, [inv[lo + i] for lo, (_, i) in zip(bounds, per)]


def _product_plan(codes: np.ndarray, n_steps: int, samples: int):
    """The energy-independent plan of the Lyapunov products.

    Returns (words, words_seq, levels, seq).  Each sample's sites are cut
    into RESCALE_EVERY-site words and a short final word.  Node 0 of every
    level is the identity.  Level 0 holds the distinct words, one code
    array per word length, and words_seq[s] lists sample s's words in site
    order.  Each of the TREE_LEVELS levels above holds the distinct adjacent
    pairs of the nodes below, as (left, right) index arrays, an odd row
    padded with the identity; seq[s] lists sample s's top-level nodes.
    """
    n_full = n_steps // RESCALE_EVERY * RESCALE_EVERY
    starts = range(0, samples * SAMPLE_STRIDE, SAMPLE_STRIDE)
    words, seq, n_nodes = [], [], 1
    for lo, hi in ((0, n_full), (n_full, n_steps)):
        if hi > lo:
            width = min(hi - lo, RESCALE_EVERY)
            parts = [codes[s + lo : s + hi].reshape(-1, width) for s in starts]
            distinct, inv = _distinct_words(parts)
            words.append(distinct)
            seq.append(np.stack(inv) + n_nodes)
            n_nodes += len(distinct)
    words_seq = seq = np.hstack(seq)
    levels = []
    while len(levels) < TREE_LEVELS and seq.shape[1] > 1:
        if seq.shape[1] % 2:
            seq = np.hstack([seq, np.zeros((samples, 1), dtype=seq.dtype)])
        keys = np.concatenate([[0], (seq[:, 0::2] * n_nodes + seq[:, 1::2]).ravel()])
        uniq, inv = np.unique(keys, return_inverse=True)
        levels.append(np.divmod(uniq, n_nodes))
        seq, n_nodes = inv[1:].reshape(samples, -1), len(uniq)
    return words, words_seq, levels, seq


def _word_matrices(words: np.ndarray, values: np.ndarray, energies: np.ndarray):
    """Matrices of the code rows ``words`` at each energy, shape (words, energies, 2, 2).

    One run steps both columns: cur and prev start as the rows (1, 0) and
    (0, 1) and end as (a, b) and (c, d).
    """
    coeffs = energies - values[:, None]
    cur, prev = np.zeros((2, 2, len(words), energies.size), energies.dtype)
    cur[0] = prev[1] = 1
    cur, prev = transfer_run((coeffs[col] for col in words.T), cur, prev)
    return np.moveaxis(np.array([cur, prev]), (0, 1), (2, 3))


def _rescaled(m: np.ndarray):
    """(m / 2**x, x) for 2x2 lanes m of shape (..., 2, 2), 2**x just above the max-abs entry.

    Scaling by a power of two is exact, so only the products round.
    """
    _, x = np.frexp(np.abs(m).max(axis=(-2, -1)))
    return m * np.ldexp(m.dtype.type(1), -x)[..., None, None], x


def lyapunov_scan(
    window_source,
    energies,
    n_steps: int = 100_000,
    samples: int = 4,
    start: int = 1,
):
    """Finite-horizon Lyapunov estimates for several energies at once.

    For each energy and each of ``samples`` start points, SAMPLE_STRIDE
    sites apart, estimates log ||A(n, x)|| / n over ``n_steps`` sites.
    Returns (gamma, spread): the per-energy mean over samples and the
    max-min spread, a uniformity diagnostic.

    The product runs over words, and a pattern Sturmian window holds only a
    few dozen distinct ones (p(n) <= 2n).  Each sample is cut into
    RESCALE_EVERY-site words and a short final word.  Each distinct word's
    matrix is stepped once per energy by :func:`transfer_run`, then equal
    adjacent pairs are multiplied once, TREE_LEVELS times over, and each
    sample multiplies its blocks in site order.  Every matrix is divided by
    a power of two after each product, and the exponents add up (the
    log-scale channel).  The matrices are held in extended precision
    (``np.longdouble``), which keeps the products as accurate as a site-by-
    site float64 loop near parabolic energies such as E = 2 on a sparse
    window; a word whose max-abs entry exceeds float64 still raises, as the
    site-by-site loop overflowed there.  Energies go in chunks of at most
    WORD_LANES tree nodes x energies.
    """
    if n_steps < 1000:
        raise ValidationError("n_steps must be >= 1000")
    if samples < 1:
        raise ValidationError("need at least one sample start point")
    e = np.atleast_1d(np.asarray(energies, dtype=np.float64))
    bad = e[~np.isfinite(e)]
    if bad.size:
        raise ValidationError("energy %r is not finite" % float(bad[0]))
    codes, values = _window_codes(
        window_source, start, n_steps + (samples - 1) * SAMPLE_STRIDE
    )
    words, words_seq, levels, seq = _product_plan(codes, n_steps, samples)
    values = values.astype(np.longdouble)
    widest = max([1 + sum(map(len, words))] + [len(left) for left, _ in levels])
    chunk = max(1, WORD_LANES // widest)
    gam = np.empty((e.size, samples))
    for i in range(0, e.size, chunk):
        lanes = e[i : i + chunk].astype(np.longdouble)
        with np.errstate(over="ignore", invalid="ignore"):
            table = np.concatenate(
                [np.broadcast_to(np.eye(2, dtype=lanes.dtype), (1, lanes.size, 2, 2))]
                + [_word_matrices(w, values, lanes) for w in words]
            )
        over = ~(np.abs(table).max(axis=(2, 3)) <= np.finfo(np.float64).max)
        if over.any():
            k = np.flatnonzero(over.any(axis=0))[0]
            s = np.isin(words_seq, np.flatnonzero(over[:, k])).any(axis=1).argmax()
            raise ValidationError(
                "cocycle product overflowed despite rescaling at energy %g "
                "(sample starting at site %d); energy magnitude is pathological"
                % (float(lanes[k]), start + s * SAMPLE_STRIDE)
            )
        table, exps = _rescaled(table)
        for left, right in levels:
            table, x = _rescaled(table[right] @ table[left])
            exps = exps[left] + exps[right] + x
        prod, acc = table[seq[:, 0]], exps[seq].sum(axis=1)
        for j, col in enumerate(seq.T[1:], 1):
            prod = table[col] @ prod
            if j % FOLD_RESCALE == 0:
                prod, x = _rescaled(prod)
                acc += x
        norm = np.log(matrix_norm2(np.moveaxis(prod, (2, 3), (0, 1)))).astype(np.float64)
        gam[i : i + chunk] = ((acc * math.log(2.0) + norm) / n_steps).T
    return gam.mean(axis=1), gam.max(axis=1) - gam.min(axis=1)


def lyapunov(window_source, energy: float, n_steps: int = 100_000, samples: int = 4):
    """(gamma_est, spread) for a single energy; see :func:`lyapunov_scan`."""
    g, s = lyapunov_scan(window_source, [energy], n_steps=n_steps, samples=samples)
    return float(g[0]), float(s[0])


def free_hyperbolic_rate(energy: float) -> float:
    """log spectral radius of the zero-potential site matrix, |E| > 2."""
    a = abs(energy)
    if a <= 2.0:
        return 0.0
    return math.log((a + math.sqrt(a * a - 4.0)) / 2.0)
