"""Symbolic sequence generators and the Toeplitz block algebra.

Three families of potentials are produced here: codings of circle
rotations by a half-open arc, Toeplitz words built by composing periodic
partial words, and sparse barrier sequences.  Symbols are stored as small
integer codes (numpy ``int16``); code ``-1`` marks the undetermined cell
of a partial word.  Everything is immutable after construction, so values
can be shared freely across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, takewhile
from typing import Optional, Sequence

import numpy as np

HOLE = "?"
#: longest building block ``blocks`` will materialize
BLOCK_BUDGET = 10**7
#: candidate residues whose first mismatching site a failed k_partition names
PARTITION_ERROR_RESIDUES = 8

__all__ = [
    "HOLE",
    "ValidationError",
    "WindowTooShortError",
    "UndeterminedSiteError",
    "PartitionError",
    "AmbiguousPartitionError",
    "Alphabet",
    "Window",
    "PartialWord",
    "CodingTriple",
    "compose",
    "CircleMapSpec",
    "circle_map_window",
    "ToeplitzSpec",
    "toeplitz_window",
    "blocks",
    "PartitionView",
    "k_partition",
    "SparseSpec",
    "sparse_window",
]


class ValidationError(ValueError):
    """A spec or argument violates a documented invariant."""


def _integer(value, name: str) -> int:
    """``value`` as an int, or a ``ValidationError`` naming the argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError("%s must be an integer, got %r" % (name, value)) from None


def _kind(spec, kind: type, caller: str):
    """A ``ValidationError`` naming the spec kind ``caller`` needs, unless ``spec`` is one."""
    if not isinstance(spec, kind):
        raise ValidationError("%s needs a %s, got %s" % (caller, kind.__name__, type(spec).__name__))


class WindowTooShortError(ValidationError):
    """Window cannot support the requested operation."""


class UndeterminedSiteError(ValidationError):
    """A window touches a cell that no finite composition depth determines."""

    def __init__(self, message: str, site: int):
        super().__init__(message)
        self.site = site


class PartitionError(ValidationError):
    """No legal block alignment exists for the given window."""


class AmbiguousPartitionError(PartitionError):
    """More than one alignment residue tiles the window legally."""

    def __init__(self, message: str, residues: Sequence[int]):
        super().__init__(message)
        self.residues = tuple(residues)


def _as_fraction(x) -> Fraction:
    """Exact conversion; floats convert via their binary expansion."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, tuple):
        return Fraction(x[0], x[1])
    return Fraction(x)


# ---------------------------------------------------------------------------
# Alphabet and windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbol labels together with their real coupling values."""

    symbols: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(str(s) for s in self.symbols))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.symbols) != len(set(self.symbols)):
            raise ValidationError("alphabet labels must be distinct")
        if HOLE in self.symbols:
            raise ValidationError("the hole label %r is reserved" % HOLE)
        if len(self.symbols) != len(self.values):
            raise ValidationError("one value per symbol required")
        if not self.symbols:
            raise ValidationError("alphabet must not be empty")
        for v in self.values:
            if not math.isfinite(v):
                raise ValidationError("coupling values must be finite")

    def __len__(self):
        return len(self.symbols)

    def code(self, label: str) -> int:
        try:
            return self.symbols.index(label)
        except ValueError:
            raise ValidationError(
                "symbol %r not in alphabet %r" % (label, self.symbols)
            ) from None

    def value(self, label: str) -> float:
        return self.values[self.code(label)]

    def value_table(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Window:
    """A finite view of a sequence, anchored at an absolute start index."""

    start: int
    codes: np.ndarray
    alphabet: Alphabet

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int16)
        if codes.ndim != 1 or codes.size == 0:
            raise ValidationError("window must be a non-empty 1-d symbol array")
        if codes.min() < 0 or codes.max() >= len(self.alphabet):
            raise ValidationError("window entries must be drawn from the alphabet")
        object.__setattr__(self, "codes", _freeze(codes))

    def __len__(self):
        return len(self.codes)

    @property
    def end(self) -> int:
        """One past the last site."""
        return self.start + len(self.codes)

    @property
    def symbols(self) -> tuple:
        return tuple(self.alphabet.symbols[c] for c in self.codes)

    def values(self) -> np.ndarray:
        return self.alphabet.value_table()[self.codes]

    def slice(self, lo: int, hi: int) -> "Window":
        """Sub-window over absolute sites [lo, hi)."""
        if not (self.start <= lo < hi <= self.end):
            raise ValidationError("slice [%d, %d) outside window" % (lo, hi))
        return Window(lo, self.codes[lo - self.start : hi - self.start], self.alphabet)


# ---------------------------------------------------------------------------
# Partial words and composition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartialWord:
    """A periodic symbol map with at most one undetermined residue class.

    ``codes[hole_offset]`` is -1 when ``hole_offset`` is set; a fully
    determined word has ``hole_offset is None`` and no -1 cells.
    """

    period: int
    codes: np.ndarray
    alphabet: Alphabet
    hole_offset: Optional[int]

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int16)
        if self.period < 1 or codes.shape != (self.period,):
            raise ValidationError("cells must have exactly `period` entries")
        holes = np.flatnonzero(codes < 0)
        if self.hole_offset is None:
            if holes.size:
                raise ValidationError("fully determined word cannot contain holes")
        else:
            if not (0 <= self.hole_offset < self.period):
                raise ValidationError("hole offset out of range")
            if holes.size != 1 or holes[0] != self.hole_offset:
                raise ValidationError("exactly one hole per period, at hole_offset")
        if codes.size and codes.max() >= len(self.alphabet):
            raise ValidationError("cell codes exceed alphabet")
        object.__setattr__(self, "codes", _freeze(codes))

    @classmethod
    def from_cells(cls, cells: Sequence[str], alphabet: Alphabet) -> "PartialWord":
        codes = np.empty(len(cells), dtype=np.int16)
        hole = None
        for i, c in enumerate(cells):
            if c == HOLE:
                if hole is not None:
                    raise ValidationError("more than one hole per period")
                hole = i
                codes[i] = -1
            else:
                codes[i] = alphabet.code(c)
        return cls(len(cells), codes, alphabet, hole)

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "PartialWord":
        """The all-hole period-1 word, the neutral element of composition."""
        return cls(1, np.array([-1], dtype=np.int16), alphabet, 0)

    @property
    def cells(self) -> tuple:
        return tuple(
            HOLE if c < 0 else self.alphabet.symbols[c] for c in self.codes
        )

    def at(self, x: int) -> int:
        """Code at absolute position x (periodic); -1 for the hole class."""
        return int(self.codes[x % self.period])


def compose(outer: PartialWord, inner: PartialWord) -> PartialWord:
    """Fill the undetermined residue class of ``outer`` with ``inner``.

    Position x of the result reads ``outer(x)`` off the hole class and
    ``inner((x - l) / n)`` on it, where n is the outer period and l its
    hole offset.  The result period is the product of the two periods and
    the operation is associative.
    """
    if outer.alphabet != inner.alphabet:
        raise ValidationError("composition requires a shared alphabet")
    if outer.hole_offset is None:
        raise ValidationError("outer word is fully determined; nothing to fill")
    n, l = outer.period, outer.hole_offset
    m = inner.period
    period = n * m
    codes = np.tile(outer.codes, m).astype(np.int16)
    codes[l::n] = inner.codes
    if inner.hole_offset is None:
        hole = None
    else:
        hole = l + n * inner.hole_offset
    return PartialWord(period, codes, outer.alphabet, hole)


@dataclass(frozen=True)
class CodingTriple:
    """A periodic partial word described by (pattern, period, offset).

    Cells at offset+1 .. offset+period-1 (mod period) spell the pattern;
    the cell at the offset class is the hole.  Period 1 is the identity
    word with an empty pattern.
    """

    pattern: tuple
    period: int
    offset: int

    def __post_init__(self):
        object.__setattr__(self, "pattern", tuple(str(s) for s in self.pattern))
        if self.period < 1:
            raise ValidationError("period must be >= 1")
        if len(self.pattern) != self.period - 1:
            raise ValidationError("pattern length must equal period - 1")
        if not (0 <= self.offset < self.period):
            raise ValidationError("offset must lie in [0, period)")
        if HOLE in self.pattern:
            raise ValidationError("pattern may not contain the hole label")

    def to_partial(self, alphabet: Alphabet) -> PartialWord:
        codes = np.full(self.period, -1, dtype=np.int16)
        for i, sym in enumerate(self.pattern, start=1):
            codes[(self.offset + i) % self.period] = alphabet.code(sym)
        return PartialWord(self.period, codes, alphabet, self.offset)


# ---------------------------------------------------------------------------
# Circle map sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleMapSpec:
    """Coding of the rotation n -> n*p/q + theta by the arc [1-beta, 1).

    ``(p, q)`` is a continued-fraction convergent standing in for an
    irrational rotation number; arc membership is decided in exact
    rational arithmetic so boundary points never misclassify.  Symbol "1"
    carries the coupling ``lam``, symbol "0" carries zero.
    """

    p: int
    q: int
    beta: Fraction
    theta: Fraction
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "beta", _as_fraction(self.beta))
        object.__setattr__(self, "theta", _as_fraction(self.theta))
        object.__setattr__(self, "lam", float(self.lam))
        if self.q < 1 or math.gcd(self.p, self.q) != 1:
            raise ValidationError("alpha = p/q must be in lowest terms")
        if not (0 < Fraction(self.p, self.q) < 1):
            raise ValidationError("alpha must lie in (0, 1)")
        if not (0 < self.beta < 1):
            raise ValidationError("beta must lie strictly inside (0, 1)")
        if not (0 <= self.theta < 1):
            raise ValidationError("theta must lie in [0, 1)")
        if self.lam == 0.0:
            raise ValidationError("lambda must be nonzero")

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(("0", "1"), (0.0, self.lam))

    def window(self, start: int, length: int, allow_periodic: bool = False) -> Window:
        return circle_map_window(self, start, length, allow_periodic=allow_periodic)


def circle_map_window(
    spec: CircleMapSpec, start: int, length: int, allow_periodic: bool = False
) -> Window:
    """Window [start, start+length) of the circle-map coding.

    Requires q > length + |start| so the window cannot wrap around the
    rational period of the convergent; pass ``allow_periodic=True`` to
    sample the periodic convergent word anyway (complexity estimates on
    moderate windows are insensitive to the difference).
    """
    start, length = _integer(start, "start"), _integer(length, "length")
    if length < 1:
        raise ValidationError("window length must be >= 1")
    needed = length + abs(start)
    if spec.q <= needed and not allow_periodic:
        raise WindowTooShortError(
            "convergent denominator %d too small for window [%d, %d); "
            "need q > %d (or pass allow_periodic=True)"
            % (spec.q, start, start + length, needed)
        )
    bnum, bden = spec.beta.numerator, spec.beta.denominator
    tnum, tden = spec.theta.numerator, spec.theta.denominator
    # residue of n*alpha + theta as a fraction over D = q*tden; the arc test
    # r >= 1 - beta becomes r_num * bden >= D * (bden - bnum) in integers,
    # in int64 when every product stays below 2**63, else object integers.
    D = spec.q * tden
    thresh = D * (bden - bnum)
    fits = D * (abs(start) + length + 1) < 2**63 and D * bden < 2**63
    n = np.arange(start, start + length, dtype=np.int64 if fits else object)
    rnum = (n * (spec.p * tden) + tnum * spec.q) % D
    codes = (rnum * bden >= thresh).astype(np.int16)
    return Window(start, codes, spec.alphabet)


# ---------------------------------------------------------------------------
# Toeplitz specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToeplitzSpec:
    """A Toeplitz word given as a prefix triple composed with a simple tail.

    The tail is a list of (letter, period, offset) levels; with
    ``cycle=True`` (the default) the list repeats indefinitely, giving an
    infinite coding.  Consecutive tail letters must differ, and after
    normalization every tail period is >= 3: period-2 levels are legal
    only in non-cycling specs, where the leading run up to the last
    period-2 level is absorbed into the prefix by composition
    (the generated word is unchanged).

    ``extension_letter`` fills the single everywhere-undetermined site
    when the offsets leave one; without it, windows touching that site
    raise :class:`UndeterminedSiteError`.
    """

    alphabet: Alphabet
    prefix: CodingTriple
    tail_letters: tuple
    tail_periods: tuple
    tail_offsets: tuple
    cycle: bool = True
    extension_letter: Optional[str] = None

    def __post_init__(self):
        if len(self.alphabet) != 2:
            raise ValidationError("Toeplitz specs use a two-letter alphabet")
        letters = tuple(str(x) for x in self.tail_letters)
        periods = tuple(int(x) for x in self.tail_periods)
        offsets = tuple(int(x) for x in self.tail_offsets)
        if not (len(letters) == len(periods) == len(offsets)):
            raise ValidationError("tail letter/period/offset lists must align")
        if not letters:
            raise ValidationError("tail must contain at least one level")
        for a in letters:
            self.alphabet.code(a)
        for sym in self.prefix.pattern:
            self.alphabet.code(sym)
        for n, l in zip(periods, offsets):
            if n < 2:
                raise ValidationError("tail periods must be >= 2")
            if not (0 <= l < n):
                raise ValidationError("tail offsets must lie in [0, period)")

        prefix = self.prefix
        if any(n == 2 for n in periods):
            if self.cycle:
                raise ValidationError(
                    "a cycling tail cannot contain period-2 levels; merge them "
                    "first or construct with cycle=False"
                )
            cut = max(i for i, n in enumerate(periods) if n == 2) + 1
            word = prefix.to_partial(self.alphabet)
            for a, n, l in zip(letters[:cut], periods[:cut], offsets[:cut]):
                word = compose(
                    word, CodingTriple((a,) * (n - 1), n, l).to_partial(self.alphabet)
                )
            cells, hole = word.cells, word.hole_offset
            prefix = CodingTriple(cells[hole + 1 :] + cells[:hole], word.period, hole)
            letters, periods, offsets = letters[cut:], periods[cut:], offsets[cut:]
            if not letters:
                raise ValidationError(
                    "normalization absorbed the whole tail; supply at least one "
                    "period->=3 level after the last period-2 level"
                )

        pairs = zip(letters, letters[1:] + ((letters[0],) if self.cycle else ()))
        for a, b in pairs:
            if a == b:
                raise ValidationError("consecutive tail letters must differ")
        if self.extension_letter is not None:
            if self.extension_letter not in letters:
                raise ValidationError(
                    "extension letter must recur in the tail coding"
                )
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail_letters", letters)
        object.__setattr__(self, "tail_periods", periods)
        object.__setattr__(self, "tail_offsets", offsets)

    # -- level access (1-indexed, cycling if enabled) -----------------------

    def max_level(self) -> float:
        return math.inf if self.cycle else len(self.tail_letters)

    def _tail_index(self, k: int) -> int:
        if k < 1:
            raise ValidationError("tail levels are 1-indexed")
        if self.cycle:
            return (k - 1) % len(self.tail_letters)
        if k > len(self.tail_letters):
            raise ValidationError(
                "tail exhausted at level %d (%d levels declared, cycle=False)"
                % (k, len(self.tail_letters))
            )
        return k - 1

    def tail_letter(self, k: int) -> str:
        return self.tail_letters[self._tail_index(k)]

    def tail_period(self, k: int) -> int:
        return self.tail_periods[self._tail_index(k)]

    def tail_offset(self, k: int) -> int:
        return self.tail_offsets[self._tail_index(k)]

    def coding_triple(self, k: int) -> CodingTriple:
        a, n, l = self.tail_letter(k), self.tail_period(k), self.tail_offset(k)
        return CodingTriple((a,) * (n - 1), n, l)

    def block_length(self, k: int) -> int:
        if _integer(k, "level") < 0:
            raise ValidationError("level must be >= 0, got %d" % k)
        ell = self.prefix.period
        for j in range(1, k + 1):
            ell *= self.tail_period(j)
        return ell

    def hole_position(self, depth: int) -> int:
        """Absolute offset of the undetermined class after `depth` levels."""
        if _integer(depth, "depth") < 0:
            raise ValidationError("depth must be >= 0, got %d" % depth)
        pos = self.prefix.offset
        stride = self.prefix.period
        for j in range(1, depth + 1):
            pos += stride * self.tail_offset(j)
            stride *= self.tail_period(j)
        return pos

    def composed(self, depth: int) -> PartialWord:
        return _composed_partial(self, depth)

    def window(self, start: int, length: int) -> Window:
        """Window at the smallest depth whose period exceeds the length."""
        depth, period, length = 0, self.prefix.period, _integer(length, "length")
        while period <= length:
            depth += 1
            try:
                period *= self.tail_period(depth)
            except ValidationError:
                raise WindowTooShortError(
                    "declared tail too shallow for a window of length %d; "
                    "period reaches only %d" % (length, period)
                ) from None
        return toeplitz_window(self, depth, start, length)

    def coupling_values(self) -> tuple:
        return self.alphabet.values


@lru_cache(maxsize=128)
def _composed_partial(spec: ToeplitzSpec, depth: int) -> PartialWord:
    if depth < 1:
        return spec.prefix.to_partial(spec.alphabet)
    return compose(
        _composed_partial(spec, depth - 1),
        spec.coding_triple(depth).to_partial(spec.alphabet),
    )


def _resolve_site(spec: ToeplitzSpec, x: int) -> int:
    """Symbol code at site x of the limit word, or raise if undetermined.

    Walks the coding one level at a time: a site off the current hole
    class is decided there; otherwise descend into the next level.  The
    descent state shrinks geometrically, so on cycling specs a repeated
    state proves the site is the everywhere-undetermined position.
    """
    prefix = spec.composed(0)
    if x % prefix.period != prefix.hole_offset:
        return prefix.at(x)
    j = (x - spec.prefix.offset) // prefix.period
    seen = set()
    k = 1
    while True:
        if not spec.cycle and k > len(spec.tail_letters):
            raise UndeterminedSiteError(
                "site %d still undetermined after the declared %d levels"
                % (x, len(spec.tail_letters)),
                site=x,
            )
        n, l = spec.tail_period(k), spec.tail_offset(k)
        if (j - l) % n != 0:
            return spec.alphabet.code(spec.tail_letter(k))
        j = (j - l) // n
        if spec.cycle and -2 <= j <= 2:
            state = (j, (k - 1) % len(spec.tail_letters))
            if state in seen:
                if spec.extension_letter is None:
                    raise UndeterminedSiteError(
                        "site %d is the everywhere-undetermined position; "
                        "declare an extension_letter to fill it" % x,
                        site=x,
                    )
                return spec.alphabet.code(spec.extension_letter)
            seen.add(state)
        k += 1


def toeplitz_window(spec: ToeplitzSpec, depth: int, start: int, length: int) -> Window:
    """Window [start, start+length) read from the depth-level composition.

    Requires the composed period to exceed the window length; at most one
    cell then sits on the undetermined class, and it is resolved by
    descending further (or by the extension letter at the limit).
    """
    start, length = _integer(start, "start"), _integer(length, "length")
    if length < 1:
        raise ValidationError("window length must be >= 1")
    word = spec.composed(_integer(depth, "depth"))
    if word.period <= length:
        raise WindowTooShortError(
            "depth %d gives period %d <= window length %d; increase depth"
            % (depth, word.period, length)
        )
    lo = start % word.period  # the period exceeds the length: at most one wrap
    wrap = word.codes[: max(0, lo + length - word.period)]
    codes = np.concatenate([word.codes[lo : lo + length], wrap], dtype=np.int16)
    for pos in np.flatnonzero(codes < 0):
        codes[pos] = _resolve_site(spec, start + int(pos))
    return Window(start, codes, spec.alphabet)


# ---------------------------------------------------------------------------
# Building blocks s_k / t_k and the k-partition
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def blocks(spec: ToeplitzSpec, k: int):
    """The level-k building blocks (s_k, t_k) as code arrays.

    Both have length prefix_period * n_1 * ... * n_k, differ exactly in
    their last symbol, and satisfy s_k = s_{k-1}^(n_k - 1) t_{k-1},
    t_k = s_{k-1}^(n_k).  Level-k blocks end at the level-k hole, so both
    are the depth-k composition read from one past its hole; the hole
    holds the first tail letter in s_k for even k, the other letter for
    odd k, and the opposite letter in t_k.
    """
    if (ell := spec.block_length(k)) > BLOCK_BUDGET:
        raise ValidationError("block length %d exceeds budget %d" % (ell, BLOCK_BUDGET))
    word = spec.composed(k)
    s = np.roll(word.codes, -(word.hole_offset + 1))
    t = s.copy()
    s[-1] = spec.alphabet.code(spec.tail_letter(1)) ^ (k & 1)
    t[-1] = 1 - s[-1]
    return _freeze(s), _freeze(t)


@dataclass(frozen=True)
class PartitionView:
    """The unique tiling of a window by level-k blocks.

    Block starts are congruent to ``residue`` mod the block length; labels
    are "s"/"t" per block.  ``gaps`` lists the number of s-blocks between
    consecutive t-blocks strictly inside the window.
    """

    level: int
    block_len: int
    residue: int
    starts: np.ndarray
    labels: tuple
    gaps: tuple

    def __post_init__(self):
        object.__setattr__(self, "starts", _freeze(np.asarray(self.starts)))


def k_partition(
    window: Window,
    spec: ToeplitzSpec,
    k: int,
    refine_from: Optional[PartitionView] = None,
) -> PartitionView:
    """Recover the level-k block tiling of a window by exhaustive alignment.

    s_k and t_k differ only in their last site, so a residue r is legal
    exactly when the window equals s_k tiled from phase r at every site
    that does not end a block; edge fragments need no separate test, and
    each block's label is read from its last symbol.  s_k is tiled once
    (``np.tile``), each candidate is one slice of that tiling, and the
    labels and gaps come from the block ends in array ops.  Exactly one
    residue may survive: zero legal residues means the window is not a
    slice of the subshift, and the ``PartitionError`` names the first
    mismatching site of each candidate (of the first
    ``PARTITION_ERROR_RESIDUES``); two or more raise an ambiguity error
    rather than silently picking one.  The window must use the spec's
    symbols.

    ``refine_from`` may carry the (unique) level-(k-1) view; level-k
    block starts are then necessarily level-(k-1) starts, which cuts the
    residue search from block_length(k) candidates down to the level-k
    period, without weakening the legality or uniqueness checks among
    the surviving candidates.
    """
    s, t = blocks(spec, k)
    ell = len(s)
    n_next = spec.tail_period(k + 1)
    min_len = (4 * n_next + 2) * ell
    if len(window) < min_len:
        raise WindowTooShortError(
            "window length %d cannot pin a level-%d alignment; need >= %d"
            % (len(window), k, min_len)
        )
    if window.alphabet.symbols != spec.alphabet.symbols:
        raise ValidationError(
            "window symbols %r differ from the spec's %r"
            % (window.alphabet.symbols, spec.alphabet.symbols)
        )
    if refine_from is not None:
        if refine_from.level != k - 1:
            raise ValidationError("refine_from must be the level-(k-1) view")
        base = refine_from.residue % refine_from.block_len
        candidates = [
            (base + j * refine_from.block_len) % ell
            for j in range(spec.tail_period(k))
        ]
    else:
        candidates = range(ell)
    codes = window.codes
    w = len(codes)
    tiled = np.tile(s, w // ell + 2)

    def same_as_tiled(off):
        # site i of the window reads s_k[(i - off) % ell]; block ends are free
        same = codes == tiled[ell - off : ell - off + w]
        same[(off - 1) % ell :: ell] = True
        return same

    legal, illegal = [], []
    for r in candidates:
        off = (r - window.start) % ell
        (legal if same_as_tiled(off).all() else illegal).append((r, off))
    if not legal:
        shown = ", ".join(
            "%d at site %d" % (r, window.start + int(np.argmin(same_as_tiled(off))))
            for r, off in illegal[:PARTITION_ERROR_RESIDUES]
        )
        more = len(illegal) - PARTITION_ERROR_RESIDUES
        raise PartitionError(
            "no legal level-%d alignment: window is not a subshift slice "
            "(first mismatch per residue: %s%s)"
            % (k, shown, ", and %d more residues" % more if more > 0 else "")
        )
    if len(legal) > 1:
        raise AmbiguousPartitionError(
            "multiple legal alignments at level %d" % k,
            residues=[r for r, _ in legal],
        )
    r, off = legal[0]
    nfull = (w - off) // ell
    is_t = codes[off + ell - 1 : off + nfull * ell : ell] == t[-1]
    t_idx = np.flatnonzero(is_t)
    return PartitionView(
        level=k,
        block_len=ell,
        residue=r,
        starts=window.start + off + ell * np.arange(nfull),
        labels=tuple(np.where(is_t, "t", "s").tolist()),
        gaps=tuple((np.diff(t_idx) - 1).tolist()),
    )


# ---------------------------------------------------------------------------
# Sparse sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparseSpec:
    """One-sided sparse barrier sequence: value v at positions n_k, else 0.

    Positions must grow faster than doubling (n_{k+1} > 2 n_k >= 1).  They
    are given either explicitly or by a rule: ``("power", b)`` places
    barriers at b, b^2, b^3, ... (b >= 3), and ``("factorial_gaps", n1)``
    grows gaps as max(k!, n_k + 1) so the doubling constraint always
    holds and the gaps are eventually exactly factorial.  Negative sites
    of a two-sided extension take ``left_fill``.
    """

    v: float
    positions: Optional[tuple] = None
    rule: Optional[tuple] = None
    left_fill: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "v", float(self.v))
        object.__setattr__(self, "left_fill", float(self.left_fill))
        if self.v == 0.0:
            raise ValidationError("barrier value v must be nonzero")
        if (self.positions is None) == (self.rule is None):
            raise ValidationError("give exactly one of positions= or rule=")
        if self.positions is not None:
            pos = tuple(int(n) for n in self.positions)
            if not pos or pos[0] < 1:
                raise ValidationError("positions must start at >= 1")
            for a, b in zip(pos, pos[1:]):
                if not b > 2 * a:
                    raise ValidationError(
                        "growth rule violated: need n_{k+1} > 2 n_k, got %d after %d"
                        % (b, a)
                    )
            object.__setattr__(self, "positions", pos)
        else:
            kind = self.rule[0]
            if kind == "power":
                base = int(self.rule[1])
                if base < 3:
                    raise ValidationError(
                        "power rule needs base >= 3 to satisfy n_{k+1} > 2 n_k"
                    )
                object.__setattr__(self, "rule", ("power", base))
            elif kind == "factorial_gaps":
                n1 = int(self.rule[1])
                if n1 < 1:
                    raise ValidationError("factorial_gaps rule needs n_1 >= 1")
                object.__setattr__(self, "rule", ("factorial_gaps", n1))
            else:
                raise ValidationError("unknown sparse rule %r" % (kind,))

    def positions_upto(self, limit: int) -> tuple:
        """All barrier positions <= limit, in increasing order."""
        return tuple(takewhile(lambda n: n <= limit, self._positions()))

    def position_list(self, count: int) -> tuple:
        """The first `count` barrier positions."""
        return tuple(islice(self._positions(), max(count, 0)))

    def _positions(self):
        """The barrier positions in increasing order; endless for a rule."""
        if self.positions is not None:
            yield from self.positions
            return
        kind, first = self.rule
        n, k = first, 1
        while True:
            yield n
            n = n * first if kind == "power" else max(2 * n + 1, n + math.factorial(k))
            k += 1

    def gaps(self, count: int) -> tuple:
        pos = self.position_list(count + 1)
        return tuple(b - a for a, b in zip(pos, pos[1:]))

    @property
    def alphabet(self) -> Alphabet:
        if self.left_fill == 0.0:
            return Alphabet(("0", "v"), (0.0, self.v))
        return Alphabet(("0", "v", "L"), (0.0, self.v, self.left_fill))

    def window(self, start: int, length: int) -> Window:
        return sparse_window(self, start, length)


def sparse_window(spec: SparseSpec, start: int, length: int) -> Window:
    """Window of the sparse word; sites <= 0 take the two-sided left fill."""
    start, length = _integer(start, "start"), _integer(length, "length")
    if length < 1:
        raise ValidationError("window length must be >= 1")
    end = start + length
    codes = np.zeros(length, dtype=np.int16)
    if start <= 0 and spec.left_fill != 0.0:
        codes[: min(length, 1 - start)] = 2
    for n in spec.positions_upto(max(end - 1, 0)):
        if start <= n < end:
            codes[n - start] = 1
    return Window(start, codes, spec.alphabet)
