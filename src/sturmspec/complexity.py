"""Block complexity p(n) and maximal pattern complexity p*(n) on finite
windows, plus the complexity-based classification tests.

Both estimators are lower bounds for the infinite-word quantities: a
finite window can only miss patterns, never invent them.  The tuple a
template samples at a position depends only on the length-(t_max+1)
factor starting there, so counting runs over a table of the window's
distinct factors, not over positions.  Sampled tuples pack into integer
keys, sorted per template; when the key range would overflow, rows fall
back to a byte-view comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Optional, Sequence

import numpy as np

from .cocycle import _distinct_rows
from .sequences import (
    SparseSpec,
    ValidationError,
    Window,
    WindowTooShortError,
    sparse_window,
)

__all__ = [
    "PatternTemplate",
    "ComplexityReport",
    "block_complexity",
    "max_pattern_complexity",
    "complexity_report",
    "periodicity_test",
    "PeriodicityVerdict",
    "find_period",
    "two_sided_complexity_report",
    "nonrecurrent_extension_test",
]

EXHAUSTIVE_N = 5
EXHAUSTIVE_TMAX = 60
TEMPLATE_BUDGET = 500_000
DEFAULT_BEAM = 64
#: p* search modes; "auto" searches exhaustively up to EXHAUSTIVE_N and
#: EXHAUSTIVE_TMAX, by beam beyond
PSTAR_MODES = ("auto", "exhaustive", "beam")
#: barriers the non-recurrent extension window spans
EXTENSION_BARRIERS = 6


@dataclass(frozen=True)
class PatternTemplate:
    """Strictly increasing sampling offsets starting at 0."""

    offsets: tuple

    def __post_init__(self):
        offs = tuple(int(t) for t in self.offsets)
        if not offs or offs[0] != 0:
            raise ValidationError("first offset must be 0")
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise ValidationError("offsets must be strictly increasing")
        object.__setattr__(self, "offsets", offs)

    def __len__(self):
        return len(self.offsets)

    @property
    def span(self) -> int:
        return self.offsets[-1]


def _factor_table(codes: np.ndarray, t_max: int) -> np.ndarray:
    """Distinct length-(t_max+1) rows read from every window position.

    Codes past the window end read as -1, so a row holds a template of
    span s exactly when ``row[s] >= 0``: each template keeps its own
    maximal position range, and rows that repeat count once.
    """
    padded = np.full(len(codes) + t_max, -1, dtype=np.int16)
    padded[: len(codes)] = codes
    rows = np.lib.stride_tricks.sliding_window_view(padded, t_max + 1)
    return _distinct_rows(np.ascontiguousarray(rows, dtype=np.int16))[0]


def _distinct_count(table: np.ndarray, offsets, radix: int) -> np.ndarray:
    """Distinct sampled tuples of each template (a row of ``offsets``, all of
    one length) over the table rows that hold its span."""
    offsets = np.asarray(offsets)
    held = table[:, offsets[:, -1]] >= 0  # (rows, templates)
    if radix ** offsets.shape[1] >= 2**62:
        return np.array([
            len(_distinct_rows(
                np.ascontiguousarray(table[held[:, i]][:, offs], dtype=np.int16))[0])
            for i, offs in enumerate(offsets)
        ])
    key = np.zeros(held.shape, dtype=np.int64)
    for col in offsets.T:
        key = key * radix + table[:, col]
    key[~held] = -1
    key.sort(axis=0)  # -1 never counts: it is prepended as the first value
    return (np.diff(key, axis=0, prepend=-1) != 0).sum(axis=0)


def block_complexity(window: Window, n: int) -> int:
    """Number of distinct contiguous length-n factors of the window."""
    if n < 1:
        raise ValidationError("factor length must be >= 1")
    if n > len(window):
        raise ValidationError(
            "factor length %d exceeds window length %d" % (n, len(window))
        )
    rows = np.lib.stride_tricks.sliding_window_view(window.codes, n)
    return len(_distinct_rows(np.ascontiguousarray(rows, dtype=np.int16))[0])


def _block_counts(table: np.ndarray, n_max: int) -> tuple:
    """p(n) for n = 1..n_max (at most the table width) from a factor table.

    The table's rows are sorted lexicographically, so the rows sharing a
    length-n prefix are adjacent, and a row whose first n codes are all
    >= 0 starts a new length-n factor exactly when its common prefix with
    the row before is shorter than n.
    """
    differ = table[1:] != table[:-1]
    common = np.zeros(len(table), dtype=np.int64)
    common[1:] = np.where(differ.any(axis=1), differ.argmax(axis=1), table.shape[1])
    return tuple(int(np.count_nonzero((table[:, n - 1] >= 0) & (common < n)))
                 for n in range(1, n_max + 1))


#: set bits of each byte value
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _symbol_planes(rows: np.ndarray, radix: int) -> list:
    """The rows' symbols as one-bit words, one plane per 64 symbols.

    In plane w, symbols 64w .. 64w + 63 set their own bit and every other
    symbol reads 0.  Words are the smallest unsigned type that holds the
    plane's bits, so a small alphabet takes a byte per cell; the rows are
    padded to a multiple of 8 cells with 0 words, so that each row reads
    as whole uint64 words.
    """
    width = min(radix, 64)
    dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                 if np.iinfo(t).bits >= width)
    codes = np.arange(radix, dtype=np.uint64)
    one_bit = np.uint64(1) << codes % np.uint64(64)
    pad = -rows.shape[1] % 8
    planes = []
    for w in range((radix + 63) // 64):
        lut = np.where(codes // 64 == w, one_bit, 0).astype(dtype)
        planes.append(np.pad(lut[rows.astype(np.intp)], ((0, 0), (0, pad))))
    return planes


def _beam_profile(table, radix: int, n_max: int, t_max: int, beam_width: int):
    """Best (count, offsets) per pattern length 2..n_max in one growth pass.

    Counts run over the table rows that hold the full span t_max.  Partial
    templates carry dense ids of their sampled patterns.  An extension's
    count is the number of distinct (id, new symbol) pairs: each parent's
    rows are sorted by id once, and for all offsets at once the symbol
    bits of each id segment are OR-reduced into a word per offset whose
    set bits are counted.  A winner's new ids rank its (id, symbol) pairs
    present, in that order.  Candidates rank by count, then
    lexicographically.
    """
    rows = table[table[:, t_max] >= 0]
    planes = _symbol_planes(rows, radix)
    _, ids0 = np.unique(rows[:, 0], return_inverse=True)
    beam = [((0,), ids0, int(ids0.max()) + 1)]
    best = {}
    for level in range(2, n_max + 1):
        # candidates are generated in lexicographic order, so a stable sort
        # by count alone breaks ties lexicographically
        beam.sort(key=lambda b: b[0])
        counts, parents, ts = [], [], []
        for j, (offs, ids, _) in enumerate(beam):
            if offs[-1] == t_max:
                continue  # no offset left to extend by
            order = np.argsort(ids, kind="stable")
            sizes = np.bincount(ids)
            starts = np.cumsum(sizes) - sizes  # each id's first row in order
            # the new offsets' cells, from the word boundary at or before them
            lo = (offs[-1] + 1) // 8 * 8
            pairs = 0
            for plane in planes:
                cells = plane[order, lo:]
                seen = np.bitwise_or.reduceat(cells.view(np.uint64), starts)
                bits = _POPCOUNT8[seen.view(np.uint8)].sum(axis=0, dtype=np.int64)
                pairs = pairs + bits.reshape(cells.shape[1], -1).sum(axis=1)
            t = np.arange(offs[-1] + 1, t_max + 1)
            counts.append(pairs[t - lo])
            parents.append(np.full(len(t), j))
            ts.append(t)
        if not counts:
            break
        counts, parents, ts = (np.concatenate(x) for x in (counts, parents, ts))
        order = np.argsort(-counts, kind="stable")[:beam_width]
        new_beam = []
        for c in order:
            offs, ids, u = beam[parents[c]]
            key = ids * radix + rows[:, ts[c]]
            present = np.zeros(u * radix, dtype=bool)
            present[key] = True
            new_ids = np.cumsum(present)[key] - 1
            new_beam.append((offs + (int(ts[c]),), new_ids, int(counts[c])))
        best[level] = new_beam[0][2], new_beam[0][0]
        beam = new_beam
    return best


def max_pattern_complexity(
    window: Window,
    n: int,
    t_max: int,
    beam_width: int = DEFAULT_BEAM,
    mode: str = "auto",
):
    """Estimated p*(n): max distinct sampled n-tuples over offset templates.

    Searches templates 0 = tau_0 < ... < tau_{n-1} <= t_max.  Small
    problems (n <= 5, t_max <= 60) are searched exhaustively; larger ones
    grow the template one offset at a time, keeping the ``beam_width``
    best partial templates by distinct-pattern count (ties broken
    lexicographically, so the result is deterministic).  The contiguous
    template is always evaluated too, so the estimate never drops below
    the block-complexity estimate.  ``mode`` "exhaustive" or "beam" forces
    that search, "auto" chooses as above, and any other value raises
    ValidationError.  Returns (count, template).
    """
    return pstar_profile(window, n, t_max, beam_width=beam_width, mode=mode)[n - 1]


def pstar_profile(
    window: Window,
    n_max: int,
    t_max: int,
    beam_width: int = DEFAULT_BEAM,
    mode: str = "auto",
):
    """(count, template) estimates for every pattern length 1..n_max."""
    return _pstar_table_profile(window, n_max, t_max, beam_width, mode)[1]


def _pstar_table_profile(window: Window, n_max: int, t_max: int, beam_width: int,
                         mode: str):
    """(factor table, p* profile) of :func:`pstar_profile`."""
    if n_max < 1:
        raise ValidationError("pattern length must be >= 1")
    if t_max < n_max - 1:
        raise ValidationError("t_max must allow n strictly increasing offsets")
    if beam_width < 1:
        raise ValidationError("beam_width must be >= 1, got %d" % beam_width)
    if mode not in PSTAR_MODES:
        raise ValidationError(
            "unknown p* mode %r; use one of %s" % (mode, ", ".join(PSTAR_MODES))
        )
    if len(window) <= t_max:
        raise WindowTooShortError(
            "window length %d leaves no sampling positions for t_max=%d"
            % (len(window), t_max),
            required=t_max + 1,
        )
    table = _factor_table(window.codes, t_max)
    radix = len(window.alphabet)
    out = [(int(_distinct_count(table, [(0,)], radix)[0]), PatternTemplate((0,)))]
    if n_max == 1:
        return table, out

    exhaustive = mode == "exhaustive" or (
        mode == "auto" and n_max <= EXHAUSTIVE_N and t_max <= EXHAUSTIVE_TMAX
    )
    if exhaustive:
        for n in range(2, n_max + 1):
            total = math.comb(t_max, n - 1)
            if total > TEMPLATE_BUDGET:
                raise ValidationError(
                    "exhaustive search over %d templates exceeds the budget %d; "
                    "use mode='beam'" % (total, TEMPLATE_BUDGET)
                )
            # lexicographic order in slabs of ~2**16 table cells; keeping
            # the first maximum breaks ties lexicographically
            rests = combinations(range(1, t_max + 1), n - 1)
            step = max(1, (1 << 16) // len(table))
            best, best_offs = -1, None
            while slab := [(0,) + rest for rest in islice(rests, step)]:
                counts = _distinct_count(table, slab, radix)
                i = int(np.argmax(counts))
                if counts[i] > best:
                    best, best_offs = int(counts[i]), slab[i]
            out.append((best, PatternTemplate(best_offs)))
        return table, out

    found = _beam_profile(table, radix, n_max, t_max, beam_width)
    for n in range(2, n_max + 1):
        contiguous = tuple(range(n))
        _, offs = found.get(n, (-1, contiguous))
        # re-count the winner over its own maximal position range, so
        # counts are comparable with the contiguous (block) estimate
        cnt, cnt_c = _distinct_count(table, [offs, contiguous], radix)
        if cnt_c > cnt:
            cnt, offs = cnt_c, contiguous
        out.append((int(cnt), PatternTemplate(offs)))
    return table, out


@dataclass(frozen=True)
class ComplexityReport:
    """p(n) and p*(n) estimates over a range of n, with parameters."""

    n_range: tuple
    p_values: tuple
    pstar_values: tuple
    templates: tuple
    window_len: int
    window_start: int
    t_max: int
    position_range: tuple

    def __post_init__(self):
        # the contiguous template is always in the p* search space, so a
        # p estimate above the p* estimate means the estimator is broken;
        # monotonicity in n, by contrast, only holds when the window
        # dwarfs n and is checked by tests in that regime
        for n, p, ps in zip(self.n_range, self.p_values, self.pstar_values):
            if p > ps:
                raise ValidationError(
                    "p(%d)=%d exceeds p*(%d)=%d; estimator invariant broken"
                    % (n, p, n, ps)
                )

    def as_dict(self):
        return {
            "n": list(self.n_range),
            "p": list(self.p_values),
            "pstar": list(self.pstar_values),
            "template": [list(t.offsets) for t in self.templates],
            "window_len": self.window_len,
            "window_start": self.window_start,
            "t_max": self.t_max,
            "position_range": list(self.position_range),
        }

    def rows(self):
        return [
            (n, p, ps, " ".join(str(o) for o in t.offsets))
            for n, p, ps, t in zip(
                self.n_range, self.p_values, self.pstar_values, self.templates
            )
        ]


def complexity_report(
    window: Window,
    n_max: int,
    t_max: int,
    beam_width: int = DEFAULT_BEAM,
    mode: str = "auto",
) -> ComplexityReport:
    """p(n) and p*(n) for n = 1..n_max: p* as :func:`pstar_profile`, and
    p read off the same factor table (:func:`block_complexity` per n
    gives the same counts)."""
    table, profile = _pstar_table_profile(window, n_max, t_max, beam_width, mode)
    return ComplexityReport(
        n_range=tuple(range(1, n_max + 1)),
        p_values=_block_counts(table, n_max),
        pstar_values=tuple(cnt for cnt, _ in profile),
        templates=tuple(tpl for _, tpl in profile),
        window_len=len(window),
        window_start=window.start,
        t_max=t_max,
        position_range=(window.start, window.end - t_max),
    )


# ---------------------------------------------------------------------------
# Classification tests
# ---------------------------------------------------------------------------


def find_period(window: Window) -> Optional[int]:
    """Smallest exact period of the window contents, if any below len/2."""
    codes = window.codes
    for p in range(1, len(codes) // 2 + 1):
        if np.array_equal(codes[p:], codes[:-p]):
            return p
    return None


@dataclass(frozen=True)
class PeriodicityVerdict:
    kind: str  # "periodic-evidence" | "aperiodic-evidence"
    n_witness: Optional[int]
    p_values: tuple
    pstar_at_least_2n: bool

    def __str__(self):
        if self.kind == "periodic-evidence":
            return "periodic-evidence(%d)" % self.n_witness
        return "aperiodic-evidence"


def periodicity_test(window: Window, n_max: int, t_max: Optional[int] = None) -> PeriodicityVerdict:
    """Periodicity evidence from p(n) <= n, plus the two-sided p* >= 2n check.

    A word is periodic exactly when p(n) <= n for some n; on a finite
    window this yields evidence, not proof, in the aperiodic direction.
    """
    if len(window) < 4 * n_max:
        raise WindowTooShortError(
            "window of length %d is short for n_max=%d" % (len(window), n_max),
            required=4 * n_max,
        )
    t_max = t_max if t_max is not None else min(2 * n_max, len(window) // 4)
    ps = tuple(block_complexity(window, n) for n in range(1, n_max + 1))
    witness = next((n for n, p in enumerate(ps, 1) if p <= n), None)
    # the search "auto" picks per n: exhaustive for n <= EXHAUSTIVE_N when
    # t_max allows, beam otherwise (beam levels do not depend on n_max)
    n_ex = min(n_max, EXHAUSTIVE_N) if t_max <= EXHAUSTIVE_TMAX else 0
    profile = pstar_profile(window, n_ex, t_max, mode="exhaustive") if n_ex else []
    if n_max > n_ex:
        profile += pstar_profile(window, n_max, t_max, mode="beam")[n_ex:]
    cap_ok = all(cnt >= 2 * n for n, (cnt, _) in enumerate(profile, 1))
    if witness is not None:
        return PeriodicityVerdict("periodic-evidence", witness, ps, cap_ok)
    return PeriodicityVerdict("aperiodic-evidence", None, ps, cap_ok)


@dataclass(frozen=True)
class ExtensionComplexityRow:
    n: int
    p_estimate: int
    threshold: int
    exceeds: bool


def two_sided_complexity_report(window: Window, j: int, probes: Sequence[int]):
    """Block complexity of a two-sided window against the 2n + j threshold."""
    rows = []
    for n in sorted(set(int(n) for n in probes)):
        if n > len(window) - 1:
            raise WindowTooShortError(
                "probe n=%d too large for window of length %d" % (n, len(window)),
                required=n + 1,
            )
        p = block_complexity(window, n)
        rows.append(ExtensionComplexityRow(n, p, 2 * n + j, p > 2 * n + j))
    return tuple(rows)


def nonrecurrent_extension_test(spec: SparseSpec, j: int, n_probe: Sequence[int]):
    """Two-sided-extension complexity rows for a sparse word.

    The window spans [-max(n_probe), n_6 + max(n_probe)], n_6 the sixth
    barrier (``EXTENSION_BARRIERS``), with the left half filled by the
    extension, so factors crossing the boundary as well as the rightmost
    barrier context are all visible.
    """
    n_max = max(n_probe)
    hi = spec.position_list(EXTENSION_BARRIERS)[-1] + n_max + 1
    window = sparse_window(spec, -n_max, hi + n_max)
    return two_sided_complexity_report(window, j, n_probe)
