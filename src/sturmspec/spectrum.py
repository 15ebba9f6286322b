"""Spectrum approximants from trace conditions, half-line truncations, and
the sparse-potential spectral checks.

The level-k approximant {E : |h_k(E)| <= 2} is found on an energy grid,
levels sharing one trace table, and its band edges are roots of
|h_k| - 2.  Half-line operators are truncated to symmetric tridiagonal
matrices, whose eigenvalues are where a Sturm count passes their index.
Both kinds of root come from one bracket engine, :func:`_bisect`: a numpy
lane per root, each call of the lanes' function covering the next levels
of the bisection tree of every distinct bracket.  The Sturm count steps
all lanes through chunks of coefficient rows, two ufuncs per site.  For
a few top eigenvalues LAPACK predicts each lane's bisection path, and
one Sturm count call checks every step of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .sequences import SparseSpec, ToeplitzSpec, ValidationError, Window, _integer, _kind
from .cocycle import (_distinct_rows, matrix_norm2, trace_recursion_f64, transfer_matrix,
                      transfer_run)

__all__ = [
    "BandSet",
    "band_sets",
    "sigma_n",
    "band_approximant",
    "grid_containment",
    "sparse_essential_spectrum",
    "HalfLineOperator",
    "halfline_eigs",
    "CertificateReport",
    "free_power_norm_bound",
    "sampled_power_sup",
    "barrier_matrix_norm",
    "no_eigenvalue_series",
    "sparse_no_eigenvalue_certificate",
]


# ---------------------------------------------------------------------------
# Band sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandSet:
    """Disjoint closed energy intervals where a trace condition holds.

    ``level`` records which trace produced the set (a tuple for merged
    sets).  Zero-width intervals are accepted and add no measure;
    :func:`sigma_n` never produces them.
    """

    intervals: tuple
    level: object
    refinement_tol: float

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        for a, b in ivs:
            if b < a:
                raise ValidationError("interval endpoints out of order")
        for (_, b), (a2, _) in zip(ivs, ivs[1:]):
            if a2 <= b:
                raise ValidationError("intervals must be disjoint and sorted")
        object.__setattr__(self, "intervals", ivs)

    @property
    def measure(self) -> float:
        return sum(b - a for a, b in self.intervals)

    def __len__(self):
        return len(self.intervals)

    def union(self, other: "BandSet") -> "BandSet":
        return BandSet(
            intervals=_merge(self.intervals + other.intervals),
            level=(self.level, other.level),
            refinement_tol=max(self.refinement_tol, other.refinement_tol),
        )

    def sample_energies(self, per_band: int = 1) -> list:
        """Interior sample points, band midpoints first."""
        out = []
        for a, b in self.intervals:
            if b == a:
                out.append(a)
                continue
            for i in range(per_band):
                out.append(a + (b - a) * (i + 1) / (per_band + 1))
        return out

    def as_dict(self):
        return {
            "level": self.level,
            "tol": self.refinement_tol,
            "measure": self.measure,
            "intervals": [[a, b] for a, b in self.intervals],
        }


def _merge(intervals) -> tuple:
    """Sorted union of closed intervals; overlapping or touching ones join."""
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return tuple((a, b) for a, b in out)


#: tree midpoints per call of a bisection's function, over all its trees
LANE_BUDGET = 512


def _bisect(g, lo, hi, max_steps: int, hit: float, narrow, budget: Optional[int] = None) -> tuple:
    """Refine lane brackets with g > 0 at lo and g <= 0 at hi to (x, lo, hi).

    ``g(xs, lanes)`` is lane ``lanes[i]``'s g at ``xs[i]``, and x a lane's
    last midpoint m.  A lane stops once |g(m)| <= hit, once m is an end of
    its bracket (two adjacent floats), once ``narrow(lo, hi, m)`` holds for
    its new bracket, or after max_steps steps.  Each call of g covers the
    next levels of one bisection tree per distinct bracket, as deep as
    ``budget`` midpoints in all allow (LANE_BUDGET when None), and the walk
    down the trees gives the floats of one-step bisection.  Past budget // 3
    live lanes each steps one level per call without grouping, so at
    budget 1 every call of g is one level, one midpoint per live lane.
    """
    budget = LANE_BUDGET if budget is None else budget
    a, b = lo, hi = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    x, live, steps = 0.5 * (lo + hi), np.arange(lo.size), 0
    while live.size and steps < max_steps:
        if live.size > budget // 3:
            xs = 0.5 * (a + b)[None]
        else:
            # one tree per distinct bracket, equal bit for bit
            brackets, group = _distinct_rows(np.stack((a, b), axis=1))
            depth = (budget // len(brackets) + 1).bit_length() - 1
            # level l is rows 2^l - 1 .. 2^(l+1) - 2: midpoints of 2^l + 1 sorted ends
            levels, ends = [], brackets.T
            for _ in range(min(depth, max_steps - steps)):
                levels.append(0.5 * (ends[:-1] + ends[1:]))
                grown = np.empty((2 * len(ends) - 1, len(brackets)))
                grown[::2], grown[1::2] = ends, levels[-1]
                ends = grown
            xs = np.concatenate(levels)[:, group]
        gs = g(xs.ravel(), np.broadcast_to(live, xs.shape).ravel()).reshape(xs.shape)
        m, gm, node, col = xs[0], gs[0], 0, np.arange(live.size)
        for deeper in range((xs.shape[0] + 1).bit_length() - 2, -1, -1):
            x[live] = m
            stop = (np.abs(gm) <= hit) | (m == a) | (m == b)
            right = gm > 0
            a, b = np.where(right, m, a), np.where(right, b, m)
            lo[live], hi[live] = a, b
            stop |= narrow(a, b, m)
            steps += 1
            keep = ~stop
            live, a, b = live[keep], a[keep], b[keep]
            if not (deeper and live.size):
                break
            node, col = (2 * node + 1 + right)[keep], col[keep]
            m, gm = xs[node, col], gs[node, col]
    return x, lo, hi


def _bisect_edges(g, lo, hi, tol: float) -> np.ndarray:
    """Roots of g, one per lane, between lo (g > 0) and hi (g <= 0)."""
    narrow = lambda a, b, m: np.abs(b - a) <= np.maximum(np.abs(m), 1.0) * 1e-17
    return _bisect(g, lo, hi, 200, 10.0 * tol, narrow)[0]


def _energy_grid(e_range, grid, least: int) -> np.ndarray:
    """``grid`` >= ``least`` energies, evenly over a finite, increasing ``e_range``."""
    if _integer(grid, "grid") < least:
        raise ValidationError("grid must use at least %d points, got %d" % (least, grid))
    ends = np.asarray(e_range)
    if ends.shape != (2,) or ends.dtype.kind not in "iuf" or not np.isfinite(ends).all():
        raise ValidationError("e_range must be finite, as (lo, hi), got %r" % (e_range,))
    if not e_range[0] < e_range[1]:
        raise ValidationError("e_range must increase, got %r" % (tuple(e_range),))
    return np.linspace(float(e_range[0]), float(e_range[1]), grid)


def _band_intervals(table, rows, es: np.ndarray, tol: float) -> list:
    """Intervals of {E : |h(E)| <= 2} for each row in ``rows`` of the trace
    table ``table(xs)``: one call on the grid ``es`` (an ``_energy_grid``)
    scans every row, and the edges of all rows are the lanes of one
    :func:`_bisect_edges` run, each on its row.

    Bands narrower than the grid step can be missed.  There is no search
    for tangencies of |h| with 2 between runs: when h is the discriminant
    of a periodic Jacobi operator, as every h_k is, its local maxima are
    >= 2 and its local minima are <= -2, so |h| - 2 has no local minimum
    above zero.  ``table`` must act on each energy alone.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError("tol must be finite and >= 0, got %r" % tol)
    rows = np.asarray(rows)
    g = np.abs(table(es)[rows]) - 2.0
    change = np.diff((g <= 0.0).astype(np.int8), axis=1, prepend=0, append=0)
    row_l, starts = np.nonzero(change == 1)
    row_r, ends = np.nonzero(change[:, 1:] == -1)
    # the grid brackets each edge: g > 0 just outside a run, g <= 0 inside it
    cut_l, cut_r = starts > 0, ends < es.size - 1
    lane_rows = rows[np.concatenate([row_l[cut_l], row_r[cut_r]])]
    roots = _bisect_edges(
        lambda xs, live: np.abs(table(xs)[lane_rows[live], np.arange(xs.size)]) - 2.0,
        np.concatenate([es[starts[cut_l] - 1], es[ends[cut_r] + 1]]),
        np.concatenate([es[starts[cut_l]], es[ends[cut_r]]]),
        tol,
    )
    left, right = es[starts], es[ends]
    left[cut_l], right[cut_r] = np.split(roots, [np.count_nonzero(cut_l)])
    return [_merge(zip(left[row_l == i].tolist(), right[row_r == i].tolist()))
            for i in range(rows.size)]


def _default_e_range(spec: ToeplitzSpec):
    vals = spec.coupling_values()
    return (min(vals) - 2.5, max(vals) + 2.5)


def band_sets(
    spec: ToeplitzSpec,
    levels: Sequence[int],
    e_range=None,
    grid: int = 100_000,
    tol: float = 1e-10,
) -> list:
    """The trace band sets {E : |h_k(E)| <= 2}, one for each k in levels,
    from one :func:`trace_recursion_f64` grid pass at the top level and one
    bisection run, each edge on its own level's row of the trace table."""
    _kind(spec, ToeplitzSpec, "band_sets")
    levels = [_integer(k, "levels") for k in levels]
    if not levels:
        raise ValidationError("band_sets needs at least one level")
    if min(levels) < 0:
        raise ValidationError("level must be >= 0, got %d" % min(levels))
    top = max(levels)
    if spec.max_level() < top + 1:
        raise ValidationError("level %d beyond the declared tail" % top)
    if e_range is None:
        e_range = _default_e_range(spec)
    es = _energy_grid(e_range, grid, 1000)
    vals = spec.coupling_values()
    if es[0] > min(vals) - 2 or es[-1] < max(vals) + 2:
        raise ValidationError("e_range must cover the spectral hull [%g, %g]"
                              % (min(vals) - 2, max(vals) + 2))
    found = _band_intervals(lambda xs: trace_recursion_f64(spec, top, xs), levels, es, tol)
    return [BandSet(iv, k, tol) for iv, k in zip(found, levels)]


def sigma_n(
    spec: ToeplitzSpec,
    k: int,
    e_range=None,
    grid: int = 100_000,
    tol: float = 1e-10,
) -> BandSet:
    """The level-k trace band set {E : |h_k(E)| <= 2}."""
    return band_sets(spec, (k,), e_range=e_range, grid=grid, tol=tol)[0]


def band_approximant(
    spec: ToeplitzSpec,
    k: int,
    e_range=None,
    grid: int = 100_000,
    tol: float = 1e-10,
) -> BandSet:
    """Union of the level-k and level-(k+1) band sets.

    Nested intersections of these unions squeeze down on the spectrum;
    at any finite level the union is an outer approximation.
    """
    a, b = band_sets(spec, (k, k + 1), e_range=e_range, grid=grid, tol=tol)
    return a.union(b)


def _held(bands: BandSet, es: np.ndarray, slack: float) -> np.ndarray:
    """Mask of the energies es lying in some interval of bands, +- slack."""
    if not bands.intervals:
        return np.zeros(es.shape, dtype=bool)
    iv = np.array(bands.intervals)
    # intervals are sorted and disjoint: if the last one with a - slack <= e
    # misses e, every earlier one ends further left and misses it too
    idx = np.searchsorted(iv[:, 0] - slack, es, side="right") - 1
    return (idx >= 0) & (es <= iv[idx, 1] + slack)


def grid_containment(
    inner: BandSet, outer: BandSet, e_range, grid: int
) -> tuple:
    """(violations, checked): grid points of `inner` missing from `outer`.

    The slack is one grid step, matching the resolution of the scan that
    produced the sets.  ``grid`` must be an integer >= 2 and ``e_range``
    finite and increasing.
    """
    es = _energy_grid(e_range, grid, 2)
    step = (es[-1] - es[0]) / (grid - 1)
    es = es[_held(inner, es, 0.0)]
    missing = es[~_held(outer, es, step)]
    return missing.tolist(), es.size


# ---------------------------------------------------------------------------
# Sparse potentials: essential spectrum and half-line truncations
# ---------------------------------------------------------------------------


def sparse_essential_spectrum(spec: SparseSpec):
    """([-2, 2], sgn(v) * sqrt(4 + v^2)) for the sparse barrier potential.

    This is the essential spectrum only.  The point sgn(v) * sqrt(4 + v^2)
    is the one accumulation point of the spectrum outside [-2, 2] (above 2
    for v > 0).  Barriers close to the wall or to each other add finitely
    many discrete eigenvalues in the gap between the two: for
    ``("power", 3)`` with v = 2 the Dirichlet half line has one at
    2.8165074.
    """
    _kind(spec, SparseSpec, "sparse_essential_spectrum")
    v = spec.v
    point = math.copysign(math.sqrt(4.0 + v * v), v)
    return ((-2.0, 2.0), point)


@dataclass(frozen=True)
class HalfLineOperator:
    """Truncated half-line operator with boundary angle phi.

    The boundary condition psi(0) sin(phi) + psi(1) cos(phi) = 0 removes
    site 0 and shifts the first diagonal entry by -cot(phi); phi = pi/2 is
    the Dirichlet case.  The potential window must cover sites 1..size.
    Where the eigenvalues of a sparse barrier potential's truncations lie,
    as size grows: see :func:`sparse_essential_spectrum`.
    """

    size: int
    potential: Window
    boundary_phi: float = math.pi / 2

    def __post_init__(self):
        if _integer(self.size, "size") < 64:
            raise ValidationError("truncation size must be >= 64")
        if self.potential.start > 1 or self.potential.end < self.size + 1:
            raise ValidationError("potential window must cover sites 1..size")
        if not math.isfinite(self.boundary_phi):
            raise ValidationError("boundary_phi must be finite, got %r" % self.boundary_phi)
        if abs(math.sin(self.boundary_phi)) < 1e-12:
            raise ValidationError(
                "sin(phi) = 0 pins psi(1) = 0; choose phi in (0, pi)"
            )

    def diagonal(self) -> np.ndarray:
        vals = self.potential.values()
        i0 = 1 - self.potential.start
        d = vals[i0 : i0 + self.size].astype(np.float64).copy()
        d[0] -= math.cos(self.boundary_phi) / math.sin(self.boundary_phi)
        return d


#: pivots smaller than this are nudged to -PIVMIN before counting
PIVMIN = 1e-30
#: sites whose coefficient rows the count loop builds at once
STURM_CHUNK = 64
#: bisection steps per eigenvalue at most
MAX_STEPS = 80


def _nudged_count(d: list, x: float) -> int:
    """Sturm count at one x with each vanishing pivot nudged to -PIVMIN."""
    count, q = 0, math.inf
    for di in d:
        q = (di - x) - 1.0 / q
        if abs(q) < PIVMIN:
            q = -PIVMIN
        count += q < 0
    return count


def _sturm_counts(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of tridiag(d, offdiag=1) below each x in a 1-D x.

    Standard Sturm-sequence pivot count; vanishing pivots are nudged
    negative before counting (an exact hit counts as below), which keeps
    the count monotone in x up to the isolated hit itself.

    The pivots q_i = (d_i - x) - 1/q_{i-1} start from q = inf, so site 0
    needs no branch.  Coefficient rows d_i - x are built STURM_CHUNK
    sites at a time and stepped in place, two ufuncs per site.  A lane
    whose pivots never fall below PIVMIN in magnitude is never nudged, so
    its count is read from the chunk; the few lanes with a tiny pivot are
    recounted with the per-site nudge, once for each distinct x.
    """
    count = np.zeros(x.shape, dtype=np.int64)
    tiny = np.zeros(x.shape, dtype=bool)
    q = np.full(x.shape, np.inf)
    inv = np.empty_like(q)
    # a zero pivot divides by zero; its lane is recounted below
    with np.errstate(divide="ignore"):
        for s in range(0, d.size, STURM_CHUNK):
            rows = d[s : s + STURM_CHUNK, None] - x
            for q_next in rows:
                np.reciprocal(q, out=inv)
                np.subtract(q_next, inv, out=q_next)
                q = q_next
            count += np.count_nonzero(rows < 0, axis=0)
            tiny |= (np.abs(rows) < PIVMIN).any(axis=0)
    if tiny.any():
        # tiny pivots come from exact hits, at few distinct x (0.0 and -0.0
        # give the same count: a signed zero pivot is nudged either way)
        xs, at = np.unique(x[tiny], return_inverse=True)
        dl = d.tolist()
        count[tiny] = np.array([_nudged_count(dl, v) for v in xs.tolist()])[at]
    return count


def _predicted_eigs(d: np.ndarray, first: int) -> np.ndarray:
    """LAPACK's eigenvalues first, ..., n - 1 of tridiag(d, offdiag=1),
    ascending, by bisection (``dstebz``)."""
    from scipy.linalg import eigh_tridiagonal

    n = d.size
    return eigh_tridiagonal(d, np.ones(n - 1), eigvals_only=True,
                            select="i", select_range=(first, n - 1))


def halfline_eigs(op: HalfLineOperator, count: Optional[int] = None) -> list:
    """Eigenvalues of the truncated operator by Sturm-count bisection.

    Returns the ``count`` largest (all of them when count is None),
    sorted ascending.  Off-diagonal entries are all 1, so the counts
    need no squaring of couplings.  Each eigenvalue is a :func:`_bisect`
    lane on [min d - 2, max d + 2], and every lane steps until the widest
    bracket is narrower than 1e-14 of that scale, or MAX_STEPS steps.

    When one count call over every lane's whole path costs less than the
    bisection trees (count * MAX_STEPS <= 4 * LANE_BUDGET), LAPACK's
    eigenvalue lam of each lane (:func:`_predicted_eigs`) first steers a
    one-level-per-call bisection on the sign of lam - x, and one
    :func:`_sturm_counts` call checks every midpoint it visited.  Where
    every sign agrees, the brackets are the counted bisection's own.
    Otherwise the counted bisection resumes from the brackets that every
    live lane had checked before the first level with a wrong sign.  Either
    way each step is decided by the counts, and the output is that of the
    counted bisection, bit for bit.
    """
    d = op.diagonal()
    n = d.size
    count = n if count is None else _integer(count, "count")
    if count < 1:
        raise ValidationError("count must be >= 1")
    if count > n:
        raise ValidationError("count %d exceeds the truncation size %d" % (count, n))
    lo = float(d.min() - 2.0)
    hi = float(d.max() + 2.0)
    tol = 1e-14 * max(abs(lo), abs(hi), 1.0)
    # g = t + 1/2 - (count below x) is > 0 left of eigenvalue t (from 0)
    targets = np.arange(n - count, n) + 0.5

    def g(xs, lanes):
        mids, at = np.unique(xs, return_inverse=True)
        return targets[lanes] - _sturm_counts(d, mids)[at]

    def narrow(a, b, m):
        return np.max(b - a) < tol

    los, his = np.full(count, lo), np.full(count, hi)
    steps, live = 0, np.arange(count)
    if count * MAX_STEPS <= 4 * LANE_BUDGET:
        lam = _predicted_eigs(d, n - count)
        visits = []

        def predicted(xs, lanes):
            visits.append((xs, lanes))
            return np.where(xs < lam[lanes], 0.5, -0.5)

        _, los, his = _bisect(predicted, los, his, MAX_STEPS, 0.0, narrow, budget=1)
        xs, lanes = (np.concatenate(v) for v in zip(*visits))
        level = np.repeat(np.arange(len(visits)), [v[1].size for v in visits])
        wrong = level[(g(xs, lanes) > 0) != (xs < lam[lanes])]
        if not wrong.size:
            return [float(x) for x in 0.5 * (los + his)]
        # replay the levels checked right, then count on from the first wrong one
        steps = int(wrong.min())
        live = visits[steps][1]
        _, los, his = _bisect(predicted, np.full(count, lo), np.full(count, hi),
                              steps, 0.0, narrow, budget=1)
    _, los[live], his[live] = _bisect(lambda xs, lanes: g(xs, live[lanes]),
                                      los[live], his[live], MAX_STEPS - steps, 0.0, narrow)
    return [float(x) for x in 0.5 * (los + his)]


# ---------------------------------------------------------------------------
# Non-eigenvalue certificates for sparse potentials
# ---------------------------------------------------------------------------


def free_power_norm_bound(energy: float) -> float:
    """sup_j ||F^j|| for the free site matrix F at |E| < 2, in closed form.

    F is conjugate to a rotation; the sup over a dense rotation orbit is
    the condition number of the conjugating matrix,
    sqrt((2 + |E|) / (2 - |E|)).  At energies where the rotation angle is
    a rational multiple of pi the finite orbit can fall short of this
    value, so it is an upper bound there (and exact at E = 0).
    """
    a = abs(energy)
    if not a < 2.0:
        raise ValidationError("free powers are unbounded unless |E| < 2, got E=%r" % energy)
    return math.sqrt((2.0 + a) / (2.0 - a))


def sampled_power_sup(energy: float, j_max: int = 10_000) -> float:
    """max_{j <= j_max} ||F^j|| by literal iteration; ``j_max`` must be an
    integer >= 1."""
    if not abs(energy) < 2.0:
        raise ValidationError("free powers are unbounded unless |E| < 2, got E=%r" % energy)
    j_max = _integer(j_max, "j_max")
    if j_max < 1:
        raise ValidationError("j_max must be >= 1, got %r" % j_max)
    # (a[j], b[j]) is the top row of F^j, and its bottom row is that of F^(j-1)
    coeffs = [float(energy)] * j_max
    a, b = [1.0], [0.0]
    transfer_run(coeffs, 1.0, 0.0, a)
    transfer_run(coeffs, 0.0, 1.0, b)
    a, b = np.asarray(a), np.asarray(b)
    norms = matrix_norm2(((a[1:], b[1:]), (a[:-1], b[:-1])))
    return float(np.max(norms, initial=1.0))


def barrier_matrix_norm(energy: float, v: float) -> float:
    """||[[E - v, -1], [1, 0]]||, the single-barrier factor."""
    return matrix_norm2(transfer_matrix(v, energy))


def no_eigenvalue_series(gaps: Sequence[int], v: float, energy: float):
    """Terms (n_{k+1} - n_k) / (C_E O_{E,v})^(2k) of the exclusion series."""
    c = free_power_norm_bound(energy)
    o = barrier_matrix_norm(energy, v)
    co2 = (c * o) ** 2
    return [g / co2**k for k, g in enumerate(gaps, start=1)]


@dataclass(frozen=True)
class CertificateReport:
    """Divergence evidence for the eigenvalue-exclusion series.

    verdict is "diverges-evidence" when the series terms stop decaying
    (their sum then grows without bound and the energy cannot be an
    eigenvalue for any boundary condition), "converges-evidence" when
    they decay geometrically, else "inconclusive".
    """

    energy: float
    v: float
    c_closed: float
    c_sampled: float
    o_norm: float
    terms: tuple
    partial_sums: tuple
    verdict: str

    @property
    def positive(self) -> bool:
        return self.verdict == "diverges-evidence"

    def as_dict(self):
        return {
            "energy": self.energy,
            "v": self.v,
            "C_E_closed": self.c_closed,
            "C_E_sampled": self.c_sampled,
            "O_Ev": self.o_norm,
            "terms": list(self.terms),
            "partial_sums": list(self.partial_sums),
            "verdict": self.verdict,
        }


def certificate_from_gaps(gaps: Sequence[int], v: float, energy: float) -> CertificateReport:
    """Exclusion-series verdict from the barrier gaps; see :class:`CertificateReport`.

    ``c_sampled`` is :func:`sampled_power_sup` at its default 10^4 powers,
    a check on the closed-form C_E.
    """
    terms = no_eigenvalue_series(gaps, v, energy)
    sums = list(np.cumsum(terms))
    tail = terms[-6:] if len(terms) >= 6 else terms
    ratios = [b / a for a, b in zip(tail, tail[1:]) if a > 0]
    if ratios and min(ratios) >= 0.999:
        verdict = "diverges-evidence"
    elif ratios and max(ratios) <= 0.95:
        verdict = "converges-evidence"
    else:
        verdict = "inconclusive"
    return CertificateReport(
        energy=float(energy),
        v=float(v),
        c_closed=free_power_norm_bound(energy),
        c_sampled=sampled_power_sup(energy),
        o_norm=barrier_matrix_norm(energy, v),
        terms=tuple(terms),
        partial_sums=tuple(float(s) for s in sums),
        verdict=verdict,
    )


def sparse_no_eigenvalue_certificate(
    spec: SparseSpec, energy: float, k_max: int = 15
) -> CertificateReport:
    """Eigenvalue-exclusion check at an energy inside (-2, 2).

    Computes the free-power bound C_E (in closed form, and sampled over
    10^4 powers), the barrier norm O_{E,v}, and the partial sums of
    sum_k gap_k / (C_E O_{E,v})^(2k) over the first ``k_max`` gaps;
    growing partial sums certify that the energy is not an eigenvalue
    for any boundary condition.  ``k_max`` must be an integer >= 1.
    """
    _kind(spec, SparseSpec, "sparse_no_eigenvalue_certificate")
    if not abs(energy) < 2.0:
        raise ValidationError(
            "certificate requires |E| < 2 (free powers unbounded otherwise), got E=%r"
            % energy
        )
    if _integer(k_max, "k_max") < 1:
        raise ValidationError("k_max must be >= 1, got %r" % k_max)
    gaps = spec.gaps(k_max)
    return certificate_from_gaps(gaps, spec.v, energy)
