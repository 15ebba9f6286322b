"""Block complexity p(n) and maximal pattern complexity p*(n) on finite
windows, plus the two-sided extension complexity test.

Both estimators are lower bounds for the infinite-word quantities: a
finite window can only miss patterns, never invent them.  The tuple a
template samples at a position depends only on the length-(t_max+1)
factor starting there, so counting runs over a table of the window's
distinct factors, not over positions.  The p* search grows templates one
offset at a time: a template's rows carry dense ids of its sampled
patterns, and one kernel counts the distinct (id, symbol) pairs of a batch
of templates at every column, from per-symbol bit planes OR-reduced over
each id's rows.  The beam and the exhaustive search run that same pass,
the exhaustive one depth first at unbounded width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cocycle import _distinct_rows
from .sequences import (
    SparseSpec,
    ValidationError,
    Window,
    WindowTooShortError,
    _integer,
    sparse_window,
)

__all__ = [
    "PatternTemplate",
    "ComplexityReport",
    "block_complexity",
    "complexity_report",
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
#: (template x table row) cells one p* counting call or id batch handles
SLAB_CELLS = 1 << 16


@dataclass(frozen=True)
class PatternTemplate:
    """Strictly increasing sampling offsets starting at 0."""

    offsets: tuple

    def __post_init__(self):
        offs = tuple(_integer(t, "offsets") for t in self.offsets)
        if not offs or offs[0] != 0:
            raise ValidationError("first offset must be 0")
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise ValidationError("offsets must be strictly increasing")
        object.__setattr__(self, "offsets", offs)


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
    n = _integer(n, "n")
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


def _bit_planes(rows: np.ndarray, radix: int) -> np.ndarray:
    """The rows' symbols as bit planes, shape (radix * words, rows).

    Plane c of a row has bit t set where the row reads symbol c at column
    t, so a -1 cell sets no bit; columns pack into uint64 words, and word w
    of plane c is line c * words + w.
    """
    n, width = rows.shape
    words = (width + 63) // 64
    planes = np.zeros((radix, n, words * 8), dtype=np.uint8)
    for c in range(radix):
        planes[c, :, : (width + 7) // 8] = np.packbits(rows == c, axis=1,
                                                      bitorder="little")
    planes = planes.view(np.uint64)  # (radix, rows, words)
    return np.ascontiguousarray(planes.transpose(0, 2, 1)).reshape(radix * words, n)


def _extension_counts(planes: np.ndarray, radix: int, ids: np.ndarray,
                      n_ids: np.ndarray) -> np.ndarray:
    """Distinct (id, symbol) pairs of each parent at every column.

    ``ids[p, r]`` is parent p's dense pattern id (0 .. n_ids[p] - 1) of
    table row r, and ``planes`` holds the rows' symbols (:func:`_bit_planes`).
    The rows of all parents are sorted by global id once; each id's symbol
    bits are OR-reduced over its rows, and the set bits are summed per
    parent.  A row whose cell at column t is -1 sets no bit there, so only
    rows that hold column t count at t.  Returns (parents, 64 * words).
    """
    n_rows = ids.shape[1]
    first = np.cumsum(n_ids) - n_ids  # each parent's first global id
    gid = (ids + first[:, None]).ravel()
    # global ids below 2**16 sort by radix
    order = np.argsort(gid.astype(np.uint16) if n_ids.sum() <= 1 << 16 else gid,
                       kind="stable")
    sizes = np.bincount(gid)
    seen = np.bitwise_or.reduceat(np.take(planes, order % n_rows, axis=1),
                                  np.cumsum(sizes) - sizes, axis=1)
    lines, n_seg = seen.shape
    bits = np.unpackbits(seen.view(np.uint8), axis=1, bitorder="little")
    # each bit unpacks to a byte, and uint64 words add 8 byte lanes at once,
    # exactly for up to 255 ids: a parent's ids add in blocks of 255 that
    # way, then its blocks add in int32
    blocks = -(-n_ids // 255)
    block_first = np.cumsum(blocks) - blocks
    owner = np.repeat(np.arange(len(n_ids)), blocks)
    starts = first[owner] + 255 * (np.arange(len(owner)) - block_first[owner])
    lanes = np.add.reduceat(bits.view(np.uint64).reshape(lines, n_seg, 8), starts, axis=1)
    counts = np.add.reduceat(lanes.view(np.uint8), block_first, axis=1, dtype=np.int32)
    counts = counts.reshape(radix, -1, len(first), 64).sum(axis=0)
    return counts.transpose(1, 0, 2).reshape(len(first), -1)


def _candidates(planes: np.ndarray, radix: int, t_max: int, offs: np.ndarray,
                ids: np.ndarray, n_ids: np.ndarray, slab: int):
    """(parent, offset, count) of every one-offset extension of the templates
    ``offs``, counted by :func:`_extension_counts` in calls of at most
    ``slab`` parents.  Parents given in lexicographic order list their
    extensions in lexicographic order.
    """
    counts = np.concatenate([
        _extension_counts(planes, radix, ids[i:i + slab], n_ids[i:i + slab])
        for i in range(0, len(ids), slab)])
    parent, t = np.nonzero(np.arange(t_max + 1) > offs[:, -1:])
    return parent, t, counts[parent, t]


def _child_ids(cols: np.ndarray, radix: int, ids: np.ndarray, n_ids: np.ndarray,
               t: np.ndarray):
    """(ids, id counts) of the templates that extend the template of row i of
    ``ids`` by offset ``t[i]``, in one batched rank.

    A child's ids rank its (parent id, symbol at t) pairs present, in that
    order.  ``cols`` is the table transposed; a row whose cell at t is -1
    never counts at t or beyond, so any symbol it is read as (the caller
    reads 0) leaves the counts unchanged.
    """
    width = n_ids * radix
    base = np.cumsum(width) - width
    key = ids * radix + cols[t] + base[:, None]
    present = np.zeros(int(width.sum()), dtype=bool)
    present[key] = True
    rank = np.cumsum(present)
    before = rank[base] - present[base]
    return rank[key] - 1 - before[:, None], rank[base + width - 1] - before


def _beam_profile(table, radix: int, n_max: int, t_max: int, beam_width: int):
    """Best (count, offsets) per pattern length 2..n_max in one growth pass.

    Counts run over the table rows that hold the full span t_max.  Partial
    templates carry dense ids of their sampled patterns.  At each level one
    :func:`_extension_counts` call counts every extension of every kept
    template (more on windows wider than ``SLAB_CELLS`` cells), and the kept
    extensions' ids come from one batched rank (:func:`_child_ids`).
    Candidates rank by count, then lexicographically.
    """
    rows = table[table[:, t_max] >= 0]
    planes = _bit_planes(rows, radix)
    cols = np.ascontiguousarray(rows.T)
    slab = max(1, SLAB_CELLS // len(rows))
    ids = np.unique(rows[:, 0], return_inverse=True)[1].reshape(1, -1)
    offs, n_ids = np.zeros((1, 1), dtype=np.intp), ids.max(axis=1) + 1
    best = {}
    for level in range(2, n_max + 1):
        parent, t, counts = _candidates(planes, radix, t_max, offs, ids, n_ids, slab)
        if not len(t):
            break  # no offset left to extend by
        # candidates come in lexicographic order, so a stable sort by count
        # alone breaks ties lexicographically; the kept ones, back in that
        # order, are the next level's parents in lexicographic order
        top = np.argsort(-counts, kind="stable")[:beam_width]
        best[level] = int(counts[top[0]]), (*offs[parent[top[0]]].tolist(), int(t[top[0]]))
        keep = np.sort(top)
        parent, t = parent[keep], t[keep]
        # filled in place, so a level's ids are never held twice over
        new_ids, new_n = np.empty((len(t), len(rows)), dtype=np.intp), np.empty_like(t)
        for lo in range(0, len(t), slab):
            p, s = parent[lo:lo + slab], t[lo:lo + slab]
            new_ids[lo:lo + slab], new_n[lo:lo + slab] = _child_ids(
                cols, radix, ids[p], n_ids[p], s)
        offs, ids, n_ids = np.column_stack([offs[parent], t]), new_ids, new_n
    return best


def _exhaustive_profile(table, radix: int, n_max: int, t_max: int):
    """Best (count, offsets) per pattern length 2..n_max over every template.

    The beam's growth pass at unbounded width over all table rows: each
    template's extensions are counted over the rows that hold their span.
    The pass runs depth first in slabs of at most ``SLAB_CELLS``
    (template x row) cells, so no level's templates are held at once.
    Slabs, and the extensions within them, come in lexicographic order, so
    keeping the first maximum breaks ties lexicographically.
    """
    planes = _bit_planes(table, radix)
    cols = np.ascontiguousarray(np.maximum(table, 0).T)
    slab = max(1, SLAB_CELLS // len(table))
    best = {}

    def grow(offs, ids, n_ids):
        level = offs.shape[1] + 1
        parent, t, counts = _candidates(planes, radix, t_max, offs, ids, n_ids, slab)
        i = int(np.argmax(counts))
        if counts[i] > best.get(level, (-1,))[0]:
            best[level] = int(counts[i]), (*offs[parent[i]].tolist(), int(t[i]))
        if level < n_max:
            parent, t = parent[t < t_max], t[t < t_max]  # those with room to grow
            for lo in range(0, len(t), slab):
                p, s = parent[lo:lo + slab], t[lo:lo + slab]
                grow(np.column_stack([offs[p], s]),
                     *_child_ids(cols, radix, ids[p], n_ids[p], s))

    ids = np.unique(table[:, 0], return_inverse=True)[1].reshape(1, -1)
    grow(np.zeros((1, 1), dtype=np.intp), ids, ids.max(axis=1) + 1)
    return best


def pstar_profile(
    window: Window,
    n_max: int,
    t_max: int,
    beam_width: int = DEFAULT_BEAM,
    mode: str = "auto",
):
    """(count, template) estimates of p*(n) for n = 1..n_max: the most
    distinct n-tuples that one template 0 = tau_0 < ... < tau_{n-1} <= t_max
    samples.  Mode "exhaustive" searches every template; "beam" grows them
    one offset at a time, keeping the ``beam_width`` best partial templates
    by count (ties to the lexicographically first, so the result is
    deterministic), and counts the contiguous template too, so no estimate
    drops below p(n); "auto" is exhaustive for n_max <= 5 and t_max <= 60
    and beam beyond.  Any other mode raises ValidationError.
    """
    return _pstar_table_profile(window, n_max, t_max, beam_width, mode)[1]


def _pstar_table_profile(window: Window, n_max: int, t_max: int, beam_width: int,
                         mode: str):
    """(factor table, p* profile) of :func:`pstar_profile`."""
    n_max = _integer(n_max, "n_max")
    t_max = _integer(t_max, "t_max")
    beam_width = _integer(beam_width, "beam_width")
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
            % (len(window), t_max)
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
        found = _exhaustive_profile(table, radix, n_max, t_max)
        return table, out + [(found[n][0], PatternTemplate(found[n][1]))
                             for n in range(2, n_max + 1)]

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
# Two-sided extension complexity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtensionComplexityRow:
    n: int
    p_estimate: int
    threshold: int
    exceeds: bool


def two_sided_complexity_report(window: Window, j: int, probes: Sequence[int]):
    """Block complexity of a two-sided window against the 2n + j threshold."""
    rows = []
    for n in sorted(set(_integer(n, "probes") for n in probes)):
        if n > len(window) - 1:
            raise WindowTooShortError(
                "probe n=%d too large for window of length %d" % (n, len(window))
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
    n_probe = [_integer(n, "n_probe") for n in n_probe]
    if not n_probe:
        raise ValidationError("n_probe must name at least one probe length")
    n_max = max(n_probe)
    hi = spec.position_list(EXTENSION_BARRIERS)[-1] + n_max + 1
    window = sparse_window(spec, -n_max, hi + n_max)
    return two_sided_complexity_report(window, j, n_probe)
