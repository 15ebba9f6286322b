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

Every product over sites goes through one kernel, :func:`transfer_run`,
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
    """(S_n(x), S_{n-1}(x)) for n >= 1: n - 1 steps of the kernel from (S_1, S_0)."""
    return transfer_run([x] * (n - 1), x * 0 + 1, x * 0)


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
    the substitution (None past the product-length budget);
    ``h_recursion`` the scalar recursion seeded by h_0, h_1 of that route.
    Both are mpmath numbers so that super-exponential growth stays
    representable.
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
) -> TraceTable:
    """Compute h_0..h_K by both routes, in mpmath at TRACE_DPS digits.

    The direct route is :func:`block_traces`, one composition pass whose
    cost grows with K, not with the block length; ``product_budget`` only
    marks which levels get a direct entry (None once the block length
    exceeds it).  The recursion route has no such limit and is seeded by
    the direct h_0, h_1.
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
        # block lengths grow with k: the budget keeps levels 0..top
        top = sum(spec.block_length(k) <= product_budget for k in range(K + 1)) - 1
        if top < 1:
            raise ValidationError("product budget too small for the h_0/h_1 seeds")
        direct = block_traces(spec, top, e) + [None] * (K - top)
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
    further recursion steps (no inf - inf).  Returns shape (K+1, len(grid)).
    """
    e = np.atleast_1d(np.asarray(e_grid, dtype=np.float64))
    out = np.empty((K + 1, e.size))
    for i in range(0, e.size, LANE_CHUNK):
        lanes, h = e[i : i + LANE_CHUNK], out[:, i : i + LANE_CHUNK]
        h[0], h[1] = block_traces(spec, 1, lanes)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(K - 1):
                nxt = _recursion_step(
                    h[k], h[k + 1], spec.tail_period(k + 1), spec.tail_period(k + 2)
                )
                np.nan_to_num(nxt, copy=False, nan=TRACE_CAP, posinf=TRACE_CAP, neginf=-TRACE_CAP)
                np.clip(nxt, -TRACE_CAP, TRACE_CAP, out=nxt)
                h[k + 2] = nxt
    return out


# ---------------------------------------------------------------------------
# Lyapunov exponents
# ---------------------------------------------------------------------------

RESCALE_EVERY = 32
#: sites between the start points of consecutive Lyapunov samples
SAMPLE_STRIDE = 1013


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
):
    """Finite-horizon Lyapunov estimates for several energies at once.

    For each energy and each of ``samples`` start points, SAMPLE_STRIDE
    sites apart, accumulates log ||A(n, x)|| over ``n_steps`` sites with
    rescaling every 32 multiplications.  Returns (gamma, spread): the
    per-energy mean over samples and the max-min spread, a uniformity
    diagnostic.
    """
    if n_steps < 1000:
        raise ValidationError("n_steps must be >= 1000")
    if samples < 1:
        raise ValidationError("need at least one sample start point")
    e = np.atleast_1d(np.asarray(energies, dtype=np.float64))
    bad = e[~np.isfinite(e)]
    if bad.size:
        raise ValidationError("energy %r is not finite" % float(bad[0]))
    total = n_steps + (samples - 1) * SAMPLE_STRIDE
    vals = _window_values(window_source, start, total)
    # lanes: (energy, sample) pairs; rows of cur/prev: the columns
    # (a, c) and (b, d) of the product, started from (1, 0) and (0, 1)
    ecol = np.repeat(e, samples)
    offs = np.tile(np.arange(samples) * SAMPLE_STRIDE, e.size)
    cur = np.zeros((2, ecol.size))
    prev = np.zeros((2, ecol.size))
    cur[0] = prev[1] = 1.0
    logacc = np.zeros_like(ecol)
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n_steps, RESCALE_EVERY):
            rows = np.arange(i0, min(i0 + RESCALE_EVERY, n_steps))
            cur, prev = transfer_run(ecol - vals[offs + rows[:, None]], cur, prev)
            if rows.size == RESCALE_EVERY:
                scale = np.maximum(np.abs(cur).max(axis=0), np.abs(prev).max(axis=0))
                if not np.all(np.isfinite(scale)) or np.any(scale == 0):
                    raise ValidationError(
                        "cocycle product overflowed despite rescaling; "
                        "energy magnitude is pathological"
                    )
                logacc += np.log(scale)
                cur, prev = cur / scale, prev / scale
    gam = (logacc + np.log(matrix_norm2((cur, prev)))) / n_steps
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
