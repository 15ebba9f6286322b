"""Transfer matrices over symbol words, trace recursions, and Lyapunov
exponent estimation.

A site with coupling a contributes the unit-determinant matrix
``A_a = [[E - a, -1], [1, 0]]``; the matrix of a word multiplies
right-to-left, so the first letter acts first.  Traces over the level-k
building blocks obey a closed scalar recursion through the second-kind
recurrence polynomials S_n, which is checked against literal products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

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
    "trace_seeds_f64",
    "lyapunov",
    "lyapunov_scan",
    "free_hyperbolic_rate",
]

#: saturation bound for float64 trace recursions; values beyond it only
#: ever feed |h| > 2 comparisons, never band endpoints.
TRACE_CAP = 1e150


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


def word_matrix(word, energy: float, alphabet: Optional[Alphabet] = None) -> np.ndarray:
    """Product of site matrices over a word, first letter applied first.

    Accepts a Window, a sequence of symbol labels (with an alphabet), or a
    sequence of coupling values.  The empty word gives the identity.
    """
    m = np.eye(2)
    for v in _values_of(word, alphabet):
        m = transfer_matrix(v, energy) @ m
    return m


def word_matrix_mp(values: Iterable, energy) -> list:
    """Exact-range variant of :func:`word_matrix` on mpmath numbers."""
    e = mp.mpf(energy)
    a, b, c, d = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
    for v in values:
        ev = e - v
        a, b, c, d = ev * a - c, ev * b - d, a, b
    return [a, b, c, d]


def matrix_norm2(m: np.ndarray) -> float:
    """Operator 2-norm of a 2x2 matrix, in closed form."""
    fro2 = float(np.sum(m * m))
    det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    inner = max(fro2 * fro2 - 4.0 * det * det, 0.0)
    return math.sqrt(max((fro2 + math.sqrt(inner)) / 2.0, 0.0))


def cheb_eval(n: int, x):
    """S_n(x) by the forward three-term recurrence.

    S_0 = 0, S_1 = 1, S_{j+1} = x S_j - S_{j-1}; for any unit-determinant
    M one has M^n = S_n(tr M) M - S_{n-1}(tr M) I, which pins this seeding
    uniquely.  Works on floats, mpmath numbers, and numpy arrays alike.
    """
    if n < 0:
        raise ValidationError("cheb_eval needs n >= 0")
    s_prev = x * 0
    if n == 0:
        return s_prev
    s_cur = x * 0 + 1
    for _ in range(n - 1):
        s_prev, s_cur = s_cur, x * s_cur - s_prev
    return s_cur


# ---------------------------------------------------------------------------
# Trace tables: direct products vs the scalar recursion
# ---------------------------------------------------------------------------


def _block_values(spec: ToeplitzSpec, k: int):
    s, t = blocks(spec, k)
    table = spec.alphabet.value_table()
    return table[s], table[t]


def _recursion_step(h_prev, h_cur, n_mid: int, n_top: int):
    """h at level k+2 from (h_k, h_{k+1}) and periods (n_{k+1}, n_{k+2})."""
    inner = cheb_eval(n_mid, h_prev) * h_prev - 2 * cheb_eval(n_mid - 1, h_prev)
    return cheb_eval(n_top, h_cur) * inner - 2 * cheb_eval(n_top - 1, h_cur)


@dataclass(frozen=True)
class TraceTable:
    """Traces h_0..h_K of the level-k block matrices at one energy.

    ``h_direct`` comes from literal site-by-site products (None past the
    product-length budget); ``h_recursion`` from the scalar recursion
    seeded by the two shortest products.  Both are mpmath numbers so that
    super-exponential growth stays representable.
    """

    energy: float
    n_list: tuple
    h_direct: tuple
    h_recursion: tuple

    @property
    def levels(self) -> int:
        return len(self.h_recursion) - 1

    def h_float(self, k: int) -> float:
        """Recursion-route value as a float, +-inf past the float range."""
        x = self.h_recursion[k]
        try:
            return float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf

    def floats(self):
        return [self.h_float(k) for k in range(self.levels + 1)]

    def max_rel_diff(self) -> float:
        """max_k |direct - recursion| / max(1, |direct|) over computed k."""
        worst = mp.mpf(0)
        for hd, hr in zip(self.h_direct, self.h_recursion):
            if hd is None:
                continue
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
        out = []
        for k in range(self.levels + 1):
            hd = self.h_direct[k]
            hr = self.h_recursion[k]
            diff = None if hd is None else abs(hd - hr)
            out.append((k, hd, hr, diff))
        return out


def trace_table(
    spec: ToeplitzSpec,
    energy: float,
    K: int,
    product_budget: int = 20000,
    dps: int = 50,
) -> TraceTable:
    """Compute h_0..h_K by both routes.

    The direct route multiplies the literal block word and is skipped
    (entry None) once the block length exceeds ``product_budget``; the
    recursion route has no such limit.  Seeds h_0, h_1 always come from
    the two shortest direct products.
    """
    if K < 2:
        raise ValidationError("trace tables need K >= 2")
    if spec.max_level() < K + 1:
        raise ValidationError(
            "trace level %d needs tail periods up to level %d" % (K, K + 1)
        )
    with mp.workdps(dps):
        e = mp.mpf(energy)
        n_list = tuple(spec.tail_period(k) for k in range(1, K + 1))
        direct = []
        for k in range(K + 1):
            if spec.block_length(k) > product_budget:
                direct.append(None)
                continue
            sv, _ = _block_values(spec, k)
            m = word_matrix_mp(sv, e)
            direct.append(m[0] + m[3])
        if direct[0] is None or direct[1] is None:
            raise ValidationError("product budget too small for the h_0/h_1 seeds")
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


def trace_seeds_f64(spec: ToeplitzSpec, e_grid: np.ndarray):
    """(h_0, h_1) on an energy grid by short vectorized word products."""
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

    s0, _ = _block_values(spec, 0)
    s1, _ = _block_values(spec, 1)
    return fold(s0), fold(s1)


def trace_recursion_f64(spec: ToeplitzSpec, K: int, e_grid: np.ndarray) -> np.ndarray:
    """h_0..h_K on an energy grid, float64 with saturation.

    Escaped values are clamped to +-TRACE_CAP: past that magnitude only
    the comparison |h| > 2 matters, and clamping keeps it stable under
    further recursion steps (no inf - inf).  Returns shape (K+1, len(grid)).
    """
    e = np.atleast_1d(np.asarray(e_grid, dtype=np.float64))
    h0, h1 = trace_seeds_f64(spec, e)
    out = np.empty((K + 1, e.size))
    out[0], out[1] = h0, h1
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K - 1):
            nxt = _recursion_step(
                out[k], out[k + 1], spec.tail_period(k + 1), spec.tail_period(k + 2)
            )
            np.nan_to_num(nxt, copy=False, nan=TRACE_CAP, posinf=TRACE_CAP, neginf=-TRACE_CAP)
            np.clip(nxt, -TRACE_CAP, TRACE_CAP, out=nxt)
            out[k + 2] = nxt
    return out


def trace_at(spec: ToeplitzSpec, k: int, energy: float) -> float:
    """Scalar h_k(E) via the float64 recursion (saturating)."""
    return float(trace_recursion_f64(spec, max(k, 2), np.array([energy]))[k, 0])


# ---------------------------------------------------------------------------
# Lyapunov exponents
# ---------------------------------------------------------------------------

RESCALE_EVERY = 32


def _window_values(source, start: int, length: int) -> np.ndarray:
    if isinstance(source, Window):
        if not (source.start <= start and start + length <= source.end):
            raise ValidationError("window too short for the requested Lyapunov run")
        return source.values()[start - source.start : start - source.start + length]
    return source.window(start, length).values()


def lyapunov_scan(
    window_source,
    energies,
    n_steps: int = 100_000,
    samples: int = 4,
    start: int = 1,
    stride: int = 1013,
):
    """Finite-horizon Lyapunov estimates for several energies at once.

    For each energy and each of ``samples`` start points, accumulates
    log ||A(n, x)|| over ``n_steps`` sites with rescaling every 32
    multiplications.  Returns (gamma, spread): the per-energy mean over
    samples and the max-min spread, a uniformity diagnostic.
    """
    if n_steps < 1000:
        raise ValidationError("n_steps must be >= 1000")
    if samples < 1:
        raise ValidationError("need at least one sample start point")
    e = np.atleast_1d(np.asarray(energies, dtype=np.float64))
    total = n_steps + (samples - 1) * stride
    vals = _window_values(window_source, start, total)
    # columns: (energy, sample) pairs; rows advance through the word
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
            if (i + 1) % RESCALE_EVERY == 0:
                scale = np.maximum.reduce([np.abs(a), np.abs(b), np.abs(c), np.abs(d)])
                if not np.all(np.isfinite(scale)) or np.any(scale == 0):
                    raise ValidationError(
                        "cocycle product overflowed despite rescaling; "
                        "energy magnitude is pathological"
                    )
                logacc += np.log(scale)
                a, b, c, d = a / scale, b / scale, c / scale, d / scale
    norms = np.sqrt(
        np.maximum(
            (a * a + b * b + c * c + d * d) / 2
            + np.sqrt(
                np.maximum(
                    ((a * a + b * b + c * c + d * d) / 2) ** 2
                    - (a * d - b * c) ** 2,
                    0.0,
                )
            ),
            1e-300,
        )
    )
    gam = (logacc + np.log(norms)) / n_steps
    gam = gam.reshape(e.size, samples)
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
