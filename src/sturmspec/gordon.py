"""Repetition certificates: square/cube detection through the block
partition, the case classifier, and solution-norm lower bounds.

For a normalized solution of the eigenvalue equation, three aligned
copies of a block (a cube) or a cyclic square of a building block force
max norms >= 1/2 at predictable offsets.  ``certify_pairs`` certifies
explicit (energy, origin) pairs, and ``gordon_sweep`` samples the pairs
it passes there.  The classifier walks the block partitions around all
origins at once, one level per step, escalating levels when traces
escape, with the decision tree's tests as array masks, and returns which
certificate applies at which scale (``_classify``; ``classify_case`` is
its one-origin call).  The literal re-check of each label's hypothesis
(``_recheck``) precedes every bound, so a classifier defect surfaces as
an error rather than a wrong margin.

The four certificates are the rows of ``_CERTIFICATES``, keyed by
(kind, reflected), in units of m = ``label.m`` around the origin:

    key                periodic [a*m, b*m)   rotation at   norm offsets
    cube, direct       [-1, 1)               -             -1, 1, 2
    cube, reflected    [-2, 0)               -             1, -1, -2
    square, direct     [0, 1)                0             1, 2
    square, reflected  [-2, -1)              -1            -1, -2

omega_i == omega_{i+m} must hold on the periodic range, and for a square
the m sites from the rotation anchor must be a cyclic rotation of s_n,
n = ``trace_level``.  Each certificate bounds max(c N1, N2, ...), N1, N2,
... the norms at its offsets in order, with c = 1 for a cube, |h_n| for a square.
In every row the periodic range and its shift by m, [a*m, (b+1)*m), are
the sites from the deepest backward offset to the deepest forward one:
the word a pair's norms step is the word its re-check reads.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .sequences import (
    PartitionError,
    PartitionView,
    ToeplitzSpec,
    ValidationError,
    Window,
    WindowTooShortError,
    _integer,
    blocks,
    k_partition,
)
from .cocycle import (
    FOLD_RESCALE,
    RESCALE_EVERY,
    _distinct_rows,
    _rescaled,
    _word_matrices,
    trace_recursion_f64,
    transfer_run,
)

__all__ = [
    "GordonStructureError",
    "propagate",
    "CaseLabel",
    "classify_case",
    "NondecayReport",
    "nondecay_scan",
    "SweepReport",
    "certify_pairs",
    "gordon_sweep",
]

#: absolute slack absorbing float propagation error over <= 1e5 steps
BOUND_SLACK = 1e-9
NONDECAY_SLACK = 1e-6
#: cap on the coefficients (steps x runs) a site pass of _norm_slabs
#: gathers at once; only runs shorter than WORD_REACH step sites
NORM_CHUNK = 1 << 16
#: reach, in sites, from which a _norm_slabs run multiplies word matrices
#: of RESCALE_EVERY sites instead of stepping sites
WORD_REACH = 512


class GordonStructureError(ValidationError):
    """A certificate's structural hypothesis failed its literal re-check."""


#: the solution basis, (phi(-1), phi(0)) at each origin
_BASES = ((0.0, 1.0), (1.0, 0.0))


# ---------------------------------------------------------------------------
# Solution propagation
# ---------------------------------------------------------------------------


def propagate(
    window: Window,
    energy: float,
    phi_init=(0.0, 1.0),
    origin: int = 0,
) -> np.ndarray:
    """Run the exact two-term recurrence out from the origin.

    ``phi_init`` is (phi(-1), phi(0)) relative to the origin and must be
    normalized.  The recurrence phi(n+1) = (E - V(n)) phi(n) - phi(n-1)
    is applied forward and backward across the whole window: entry i of
    the returned float64 array is phi at site ``window.start + i``.  A
    shorter range is a propagation over ``window.slice``.
    """
    pm1, p0 = float(phi_init[0]), float(phi_init[1])
    if abs(pm1 * pm1 + p0 * p0 - 1.0) > 1e-12:
        raise ValidationError("phi_init must satisfy |phi(-1)|^2 + |phi(0)|^2 = 1")
    origin = _integer(origin, "origin")
    if not (window.start <= origin - 1 and origin < window.end):
        raise ValidationError(
            "need window cover of sites %d and %d around the origin" % (origin - 1, origin)
        )
    e = float(energy)
    vals = window.values()
    base = window.start
    # off-spectrum tails may overflow to inf far from the origin, and past
    # an inf the recurrence gives NaN (inf - inf): read a NaN as overflow
    ahead, behind = [], []
    transfer_run((e - vals[origin - base : window.end - 1 - base]).tolist(), p0, pm1, ahead)
    transfer_run((e - vals[1 : origin - base])[::-1].tolist(), pm1, p0, behind)
    return np.array(behind[::-1] + [pm1, p0] + ahead)


# ---------------------------------------------------------------------------
# Case classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseLabel:
    """Outcome of the classifier: which certificate applies, and where.

    ``case_id`` names the terminal node of the decision tree: "1.1",
    "1.2", "1.2.1.1", "1.2.1.2.1", "1.2.1.2.2", "2" or "4".  An s hat
    enters through "1.1", "1.2" or "2", a t hat through "4", which first
    climbs one level to the s-block the t-block closes; ``path`` starts
    with the entry and records each step.  ``scale`` is the block level
    of the certificate, so the propagation distance is
    m = block_length(scale).  Square certificates carry the trace level
    whose |h| <= 2 they rely on.
    """

    case_id: str
    scale: int
    kind: str  # "cube" | "square"
    reflected: bool
    m: int
    trace_level: Optional[int]
    path: tuple

    def __post_init__(self):
        if self.kind not in ("cube", "square"):
            raise ValidationError("certificate kind must be 'cube' or 'square'")


class _Partitions:
    """Per-window cache of k-partitions across levels.

    Higher levels are aligned by refining the level below, so deep
    levels cost a handful of candidate alignments instead of a scan
    over the full block length.
    """

    def __init__(self, window: Window, spec: ToeplitzSpec, store: Optional[dict] = None):
        self.window = window
        self.spec = spec
        self.store = store if store is not None else {}

    def at(self, level: int) -> PartitionView:
        if level not in self.store:
            below = self.store.get(level - 1)
            self.store[level] = k_partition(
                self.window, self.spec, level, refine_from=below
            )
        return self.store[level]


def _neighbors(part: PartitionView, sites: np.ndarray):
    """The level's blocks around each site, as arrays over the sites.

    Returns the start of the block holding each site and the labels of
    the blocks two before it, one before it, holding it and after it:
    0 for s, 1 for t, -1 where the window has no full block.  Each block
    index is looked up once however many sites it holds.
    """
    index, at = np.unique((sites - int(part.starts[0])) // part.block_len,
                          return_inverse=True)
    near = index[:, None] + np.arange(-2, 2)
    inside = (near >= 0) & (near < len(part.labels))
    labels = np.full(near.shape, -1, dtype=np.int8)
    labels[inside] = [part.labels[i] == "t" for i in near[inside].tolist()]
    start = int(part.starts[0]) + index[at] * part.block_len
    leftleft, left, hat, right = labels[at.reshape(-1)].T
    return start.reshape(-1), leftleft, left, hat, right


# walk outcomes (see _classify): the labels, then the errors of _outcome
_CUBE, _SQUARE, _SQUARE_LEFT, _RUN_CUBE, _RUN_CUBE_LEFT = range(5)
(_PARTITION, _UNCOVERED, _EDGE, _NOT_CLOSED, _BETWEEN_T, _SHALLOW, _ESCAPED,
 _MISALIGNED, _RIGHTMOST_UP, _NOT_S_BEFORE, _NOT_S_RUN, _RIGHTMOST, _LEFT_EDGE,
 _NO_CUBE) = range(5, 19)
#: walk stages: the entry, a t hat's climb, a trace split's escalation, an s-run
_ENTRY, _CLOSE, _ESCALATE, _RUN = range(4)


def _classify(parts: _Partitions, k: int, htab, origins, max_climb: int):
    """Classify every (energy, origin) pair: one array pass over all origins.

    ``htab[j, e]`` is h_j at energy e.  The decision tree reads energy
    only at a trace split, as |h_j| <= 2, |h_j| > 2 or neither (NaN) at
    the split level j and at j + 1, so an origin has at most three
    outcomes: the square (slot 0), the error of both traces escaping
    (slot 1) and the escalation, which walks on (slot 2).  All origins
    walk at once, one level per step: a step reads the level's partition
    around every origin (``_neighbors``) and applies the tree's tests as
    masks, in the order ``classify_case`` states them, so each origin
    ends with the first error its walk meets.  An escalation no energy
    reaches is not walked.  Outcomes are rows of integer codes, and each
    distinct row some pair reaches is built once by ``_outcome``.

    Returns the distinct outcomes, each a ``CaseLabel`` or an unraised
    ``ValidationError``, an (origins, 3) array of the index of each slot's
    outcome (-1 where no energy reaches the slot) and an (origins,
    energies) array of the slot each pair reaches: pair (e, o) has outcome
    ``outcomes[slot_id[o, choice[o, e]]]``.
    """
    o = np.asarray(origins, dtype=np.int64)
    absh = np.abs(np.asarray(htab, dtype=np.float64))
    answer = np.where(absh <= 2.0, 0, np.where(absh > 2.0, 1, 2))
    up = np.full_like(answer, 2)
    up[:-1] = answer[1:]
    # branch[j, e]: the slot a split at level j gives energy e; the last row
    # serves the origins that never split, whose walk ends in slot 2
    branch = np.vstack([np.where(answer == 0, 0, np.where(up == 1, 1, 2)),
                        np.full((1, answer.shape[1]), 2)])
    n = len(o)
    # per origin and slot: code, level, run start, route, origin; the route's
    # bit 0 marks a t hat, bit 1 an escalated trace split
    key = np.zeros((n, 3, 5), dtype=np.int64)
    split = np.full(n, -1)
    stage = np.full(n, _ENTRY, dtype=np.int8)
    route = np.zeros(n, dtype=np.int64)
    run_from = np.zeros(n, dtype=np.int64)
    hat_start = np.zeros(n, dtype=np.int64)
    walking = np.ones(n, dtype=bool)
    failed = {}

    def put(rows, slot, *cols):
        for c, value in enumerate(cols):
            key[rows, slot, c] = value[rows] if isinstance(value, np.ndarray) else value

    def end(mask, code, level, run=0, how=0, at=-1):
        mask = mask & walking
        if mask.any():
            rows = np.flatnonzero(mask)
            put(rows, 2, code, level, run, how, at)
            walking[rows] = False

    j = k
    while walking.any():
        # a run that has climbed max_climb levels ends before reading this one
        end((stage == _RUN) & (j - run_from >= max_climb), _NO_CUBE, 0)
        if not walking.any():
            break
        try:
            part = parts.at(j)
        except ValidationError as exc:
            failed[j] = exc.with_traceback(None)
            end(walking, _PARTITION, j)
            break
        start, leftleft, left, hat, right = _neighbors(part, o)
        rightmost = o == start + part.block_len - 1
        end(hat < 0, _UNCOVERED, j, at=o)
        end((left < 0) | (right < 0), _EDGE, j, at=o)
        close = walking & (stage == _CLOSE)
        escalate = walking & (stage == _ESCALATE)
        entry = walking & (stage == _ENTRY)
        # entry switch: a t hat climbs to the s-block it closes
        t_hat = entry & (hat == 1)
        stage[t_hat], route[t_hat] = _CLOSE, 1
        end(close & (hat != 0), _NOT_CLOSED, j)
        s_hat = (entry & (hat == 0)) | (close & walking)
        end(s_hat & (left == 1) & (right == 1), _BETWEEN_T, j, at=o)
        end(s_hat & (left == 0) & (right == 0), _CUBE, j, how=route)
        s_hat &= walking
        # hat s-block preceded by t: square now, or escalate one level
        at_split = s_hat & (right == 0)
        if j >= len(answer):
            end(at_split, _SHALLOW, j)
        else:
            rows = np.flatnonzero(at_split)
            split[rows] = j
            put(rows, 0, _SQUARE, j, 0, route, -1)
            put(rows, 1, _ESCAPED, j, 0, 0, -1)
            if j + 1 >= len(answer):
                end(at_split, _SHALLOW, j + 1)
            elif not (branch[j] == 2).any():
                walking[rows] = False
            else:
                stage[rows], hat_start[rows] = _ESCALATE, start[rows]
        end(escalate & (start != hat_start), _MISALIGNED, j)
        end(escalate & rightmost, _RIGHTMOST_UP, j)
        end(escalate & (left != 0), _NOT_S_BEFORE, j)
        end(escalate & (hat == 1), _SQUARE_LEFT, j, how=route)
        escalate &= walking
        route[escalate] |= 2
        # hat s-block preceded by s: climb until a cube fits
        to_run = (s_hat & (right == 1)) | escalate
        stage[to_run], run_from[to_run] = _RUN, j
        run = stage == _RUN
        end(run & (j - run_from >= max_climb), _NO_CUBE, 0)  # a cap below 1
        end(run & ((hat != 0) | (left != 0)), _NOT_S_RUN, j)
        end(run & (j > run_from) & rightmost, _RIGHTMOST, j)
        end(run & (right == 0), _RUN_CUBE, j, run=run_from, how=route)
        end(run & (leftleft < 0), _LEFT_EDGE, j)
        end(run & (leftleft == 0), _RUN_CUBE_LEFT, j, run=run_from, how=route)
        j += 1

    choice = branch[split]
    reached = np.zeros((n, 3), dtype=bool)
    reached[np.arange(n)[:, None], choice] = True
    index: dict = {}
    slot_id = np.full((n, 3), -1, dtype=np.int64)
    slot_id[reached] = [index.setdefault(tuple(row), len(index))
                        for row in key[reached].tolist()]
    outcomes = [_outcome(parts, failed, max_climb, *row) for row in index]
    return outcomes, slot_id, choice


def _outcome(parts: _Partitions, failed: dict, max_climb: int,
             code: int, level: int, run: int, how: int, origin: int):
    """The label, or the unraised error, that a ``_classify`` code row stands for."""
    if code == _PARTITION:
        return failed[level]
    if code > _PARTITION:
        cls, text = (
            (PartitionError, "site %(origin)d not covered by a full level-%(level)d block"),
            (WindowTooShortError,
             "origin %(origin)d too close to the window edge for level-%(level)d neighbors"),
            (GordonStructureError, "a t-block must close an s-block one level up"),
            (GordonStructureError,
             "s-block between two t-blocks at level %(level)d around origin %(origin)d"),
            (ValidationError, "trace table too shallow: classification needs |h_%(level)d|"),
            (ValidationError, "|h_%(level)d| and |h_%(up)d| both exceed 2: energy escaped "
                              "the approximant at the levels the classifier needs"),
            (GordonStructureError, "level-%(level)d block should open where the hat block does"),
            (GordonStructureError, "origin sits at the rightmost site of the escalated hat "
                                   "block at level %(level)d"),
            (GordonStructureError, "block before the escalated hat must be an s-block"),
            (GordonStructureError, "expected s-block preceded by s at level %(level)d"),
            (GordonStructureError,
             "origin sits at the rightmost site of the hat block at level %(level)d"),
            (WindowTooShortError, "origin too close to the left edge at level %(level)d"),
            (ValidationError, "no cube found within %(cap)d climb levels; enlarge the window "
                              "and trace table"),
        )[code - _UNCOVERED]
        return cls(text % {"level": level, "up": level + 1, "origin": origin, "cap": max_climb})
    split = ("4",) if how & 1 else ("1.2",)  # a trace split's path so far
    if code == _CUBE:
        case, path = ("4", ("4", "cube@%d" % level)) if how & 1 else ("1.1", ("1.1",))
    elif code == _SQUARE:
        case, path = split[0], split + ("square@%d" % level,)
    elif code == _SQUARE_LEFT:
        case, path = "1.2.1.1", split + ("square-left@%d" % level,)
    else:
        left = code == _RUN_CUBE_LEFT
        case = "1.2.1.2.2" if not left else "2" if how == 0 and run == level else "1.2.1.2.1"
        path = ((split + ("1.2.2",) if how & 2 else ("4",) if how & 1 else ("2",))
                + tuple("climb@%d" % x for x in range(run, level))
                + ("%s@%d" % ("cube-left" if left else "cube", level),))
    kind = "square" if code in (_SQUARE, _SQUARE_LEFT) else "cube"
    return CaseLabel(
        case_id=case, scale=level, kind=kind, reflected=code in (_SQUARE_LEFT, _RUN_CUBE_LEFT),
        m=parts.at(level).block_len, trace_level=level if kind == "square" else None,
        path=path,
    )


def classify_case(
    window: Window,
    spec: ToeplitzSpec,
    k: int,
    trace_table: Sequence[float],
    origin: int = 0,
    partitions: Optional[dict] = None,
    max_climb: int = 8,
) -> CaseLabel:
    """Walk the repetition decision tree around the origin.

    The walk starts in the level-k partition at the block containing the
    origin and escalates one level at a time where the tree prescribes
    it, always reading the block that contains the origin; trace
    conditions |h_j| <= 2 are read from ``trace_table``, h_0, h_1, ...
    as floats.

    The tree, with s and t the labels of the hat (the block holding the
    origin) and of its left and right neighbours:

    - entry: a t hat climbs one level to the s-block it closes (path
      "4"); that block must be an s-block.
    - an s hat between two t-blocks raises :class:`GordonStructureError`:
      with every tail period n >= 3 the s-runs between t-blocks have
      length n - 1 or 2n - 1.  Between two s-blocks it is a cube.
    - s hat, t before, s after: the trace split.  |h_j| <= 2 gives a
      square at j; otherwise |h_(j+1)| must not exceed 2, and the
      level-(j+1) block must open where the hat does, not end at the
      origin and follow an s-block: a t there gives a left square
      ("1.2.1.1"), an s the s-run below ("1.2.2").
    - s hat, s before, t after: the s-run.  A right s gives the centered
      cube, a second s on the left the left cube (reflected, "2" when
      reached straight from the entry); otherwise the enclosing level
      repeats the situation one level up, at most ``max_climb`` levels,
      and from the first climbed level on the origin must not end the
      hat block.

    This is the one-origin, one-table call of the sweep's array pass
    (``_classify``).  ``k``, ``origin`` and ``max_climb`` must be integers.
    """
    outcomes, slot_id, choice = _classify(
        _Partitions(window, spec, partitions), _integer(k, "k"),
        np.asarray(trace_table, dtype=np.float64).reshape(-1, 1),
        np.array([_integer(origin, "origin")]), _integer(max_climb, "max_climb"),
    )
    outcome = outcomes[slot_id[0, choice[0, 0]]]
    if isinstance(outcome, ValidationError):
        raise outcome
    return outcome


# ---------------------------------------------------------------------------
# Certificate checks and bounds
# ---------------------------------------------------------------------------


#: (kind, reflected) -> certificate geometry, as in the module docstring
_Certificate = namedtuple("_Certificate", "periodic rotation offsets")
_CERTIFICATES = {
    ("cube", False): _Certificate((-1, 1), None, (-1, 1, 2)),
    ("cube", True): _Certificate((-2, 0), None, (1, -1, -2)),
    ("square", False): _Certificate((0, 1), 0, (1, 2)),
    ("square", True): _Certificate((-2, -1), -1, (-1, -2)),
}


def _recheck(parts: _Partitions, origins, labels):
    """Literal symbol re-check of each (origin, label) pair's hypothesis
    (no norms), and the class of the word the pair's norms step.

    A pair's word is the codes of its periodic range [a*m, b*m) and of that
    range shifted by m, [a*m, (b+1)*m) around its origin: the sites its
    norm runs step.  The pairs of one geometry (kind, reflected, m, trace
    level) gather their words once and number the distinct ones
    (``_distinct_rows``); omega_i == omega_{i+m} is tested once per
    distinct word, and a square's rotation of s_n, n the trace level, once
    per distinct (word, phase), phase = (anchor - residue) mod |s_n|.  A
    relabelled square whose s_n outruns its word (|s_n| != m, which the
    classifier never gives) gathers that far past it.

    Returns per pair None where the hypothesis holds, else the unraised
    ``ValidationError``; per pair the id of its class of equal (geometry,
    word), and the number of classes.  A pair whose word leaves the
    window is a class of its own.
    """
    codes, start = parts.window.codes, parts.window.start
    o = np.asarray(origins, dtype=np.int64)
    errors, word_class, n_classes = [None] * len(o), np.empty(len(o), dtype=np.int64), 0
    geometry: dict = {}
    group = np.fromiter((geometry.setdefault((x.kind, x.reflected, x.m, x.trace_level),
                                             len(geometry)) for x in labels),
                        dtype=np.int64, count=len(o))
    for (kind, reflected, m, level), g in geometry.items():
        rows = np.flatnonzero(group == g)
        (a, b), rot, _ = _CERTIFICATES[kind, reflected]
        width = (b + 1 - a) * m
        lo = o[rows] + a * m - start
        fits = (lo >= 0) & (lo + width <= len(codes))
        for r in rows[~fits].tolist():
            errors[r] = WindowTooShortError(
                "window too short to re-check the repetition hypothesis")
        word_class[rows[~fits]] = n_classes + np.arange((~fits).sum())
        n_classes += int((~fits).sum())
        rows, lo = rows[fits], lo[fits]
        reach, padded = width, codes
        if rot is not None:
            s = blocks(parts.spec, level)[0]
            reach = max(width, (rot - a) * m + len(s))
            if reach > width:
                padded = np.append(codes, np.full(reach - width, -1, dtype=codes.dtype))
        words, word = _distinct_rows(np.lib.stride_tricks.sliding_window_view(padded, reach)[lo])
        word_class[rows] = n_classes + word
        n_classes += len(words)
        differ = words[:, : width - m] != words[:, m:width]
        first = np.where(differ.any(axis=1), differ.argmax(axis=1), -1)[word]
        for r, i in zip(rows[first >= 0].tolist(), (lo + start + first)[first >= 0].tolist()):
            errors[r] = GordonStructureError(
                "repetition hypothesis fails at site %d (period %d)" % (i, m))
        if rot is None:
            continue
        holds, at, n = first < 0, (rot - a) * m, len(s)
        rows, word, anchor = rows[holds], word[holds], lo[holds] + at
        phase = (anchor + start - int(parts.at(level).residue)) % n
        _, rep, back = np.unique(word * n + phase, return_index=True, return_inverse=True)
        turns = np.lib.stride_tricks.sliding_window_view(np.concatenate([s, s[:-1]]), n)
        wrong = (words[word[rep], at : at + n] != turns[phase[rep]]).any(axis=1)[back.reshape(-1)]
        for r, x, p in zip(rows[wrong].tolist(), (anchor + start)[wrong].tolist(),
                           phase[wrong].tolist()):
            errors[r] = GordonStructureError(
                "segment at %d is not the expected rotation (by %d) of the s-block" % (x, p))
        # only a relabelled square's s_n can outrun the window past its word
        for r in rows[anchor + n > len(codes)].tolist():
            errors[r] = WindowTooShortError("window too short for the rotation check")
    return errors, word_class, n_classes


def _offsets(label: CaseLabel) -> tuple:
    """The label's norm offsets, in the order its bound reads them."""
    return tuple(t * label.m for t in _CERTIFICATES[label.kind, label.reflected].offsets)


def _bound_value(norms, scale):
    """max(scale * N1, N2, ...) over the norms on the last axis, one pair
    or an array of lanes alike (``scale`` broadcasts against the leading
    axes); a NaN norm in any slot makes the value NaN."""
    value = np.array(norms, dtype=np.float64)
    value[..., 0] *= scale
    return value.max(axis=-1)


# ---------------------------------------------------------------------------
# Non-decay scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NondecayReport:
    energy: float
    n_target: int
    witnesses: tuple  # (n, m_plusminus, norm) per probe and basis solution
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def nondecay_scan(spec: ToeplitzSpec, energy: float, n_target: int) -> NondecayReport:
    """Exhibit |m| >= n with ||Phi(m)|| >= 1/4 for each probed n.

    The probes are n = 1, the powers of two below ``n_target``, and
    ``n_target`` itself.  Both elements of a normalized solution basis
    are propagated outward from the origin, first 64 sites past
    ``n_target`` on each side, then twice as far each time until every
    basis has a witness at |m| >= ``n_target``, and at most four times
    the certificate scale for ``n_target`` (the reach).  A run is
    sequential, so a shorter one is an exact prefix of a longer one and
    the first witness it shows is the first within the reach.  A probe
    fails only if no witness exists within the reach, and failures are
    reported with diagnostics rather than passed over.  A probe's
    witness is the first |m| >= n at which either side reaches 1/4, the
    + side first; a norm that overflowed to NaN counts as +inf.
    ``energy`` must be a finite real number (a bool is not one), and
    ``n_target`` an integer >= 1.
    """
    n_target = _integer(n_target, "n_target")
    if n_target < 1:
        raise ValidationError("n_target must be >= 1, got %r" % n_target)
    if (not isinstance(energy, (int, float, np.integer, np.floating))
            or isinstance(energy, bool) or not math.isfinite(energy)):
        raise ValidationError("energy must be finite, got %r" % (energy,))
    probes = sorted({1, n_target, *(2**j for j in range(1, n_target.bit_length()))})
    level = 0
    while spec.block_length(level) < n_target:
        level += 1
    reach = 4 * 2 * spec.block_length(level)
    origin = reach + 2
    thr = 0.25 - NONDECAY_SLACK
    depth = min(reach, n_target + 64)
    while True:
        window = spec.window(origin - depth - 1, 2 * depth + 2)
        sides = []  # per basis: ||Phi(m)||, ||Phi(-m)|| for m = 0..depth, and the hits
        for init in _BASES:
            phi = propagate(window, energy, phi_init=init, origin=origin)
            # norms[i] = ||Phi|| at site origin - depth + i
            with np.errstate(over="ignore"):
                norms = np.hypot(phi[1:], phi[:-1])
            # with a finite energy a NaN only follows an inf in the same run
            norms[np.isnan(norms)] = np.inf
            right, left = norms[depth:], norms[depth::-1]
            sides.append((right, left, np.flatnonzero((right >= thr) | (left >= thr))))
        if depth == reach or all(len(h) and h[-1] >= n_target for _, _, h in sides):
            break
        depth = min(reach, 2 * depth)
    witnesses, failures = [], []
    for n in probes:
        for which, (right, left, hits) in enumerate(sides):
            i = int(np.searchsorted(hits, n))
            if i < len(hits):
                m = int(hits[i])
                sgn, side = (1, right) if right[m] >= thr else (-1, left)
                witnesses.append((n, which, sgn * m, float(side[m])))
            else:  # only once depth == reach
                best = max(right[n:].max(), left[n:].max())  # over [n, reach]
                failures.append({"n": n, "basis": which, "searched_up_to": reach,
                                 "best_norm_found": float(best)})
    return NondecayReport(float(energy), n_target, tuple(witnesses), tuple(failures))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    case_counts: dict
    margins: tuple
    min_margin: float
    falsifications: tuple
    energies: tuple
    origins: tuple

    @property
    def passed(self) -> bool:
        return not self.falsifications and self.min_margin >= -BOUND_SLACK

    def margin_histogram(self) -> dict:
        """Twelve equal bins over the finite margins, since a NaN or an
        infinity has no bin; a NaN margin is listed among the falsifications."""
        margins = np.asarray(self.margins)
        counts, edges = np.histogram(margins[np.isfinite(margins)], bins=12)
        return {"edges": [float(x) for x in edges], "counts": [int(c) for c in counts]}

    def as_dict(self):
        return {
            "cases": dict(sorted(self.case_counts.items())),
            "min_margin": self.min_margin,
            "margins_histogram": self.margin_histogram(),
            "falsifications": list(self.falsifications),
            "n_energies": len(self.energies),
            "n_origins": len(self.origins),
        }


def _norm_slabs(window: Window, energies, origins, offsets) -> np.ndarray:
    """||Phi(t)|| of both bases for every lane, at the lane's own offsets.

    Lane j is the pair (energies[j], origins[j]), normalized at its own
    origin, and offsets[j] is the sequence of offsets it reads (possibly
    empty).  Each side of a lane that reads an offset there is a run: the
    forward run steps the sites origin, origin + 1, ... and reads offset
    d after d steps, the backward run steps origin - 1, origin - 2, ...
    and reads offset -d after d steps.  A run's reach is its deepest
    offset, and it steps no further.  A run that reaches fewer than
    ``WORD_REACH`` sites steps sites (``_site_norms``); a longer one
    steps words (``_word_norms``): its state after d steps is the product
    of its d // RESCALE_EVERY whole word matrices, held in
    ``np.longdouble``, then d % RESCALE_EVERY site steps.  Either way a
    lane's norms depend only on its own energy, origin and offsets, never
    on the other lanes of the call.

    Returns an array of shape (2, lanes, max offsets per lane) whose
    entry [b, j, i] is the norm for basis ``_BASES[b]`` at offsets[j][i];
    slots past a lane's offsets hold -1, which no norm takes, so they
    leave a max over the slots, such as ``_bound_value``'s, unchanged: a
    square's unused third slot gives max(N2, -1) = N2.  Off the spectrum
    a norm may outgrow float64.  A site run then overflows to inf, and
    past an inf steps to NaN (inf - inf); a word run reads NaN for a norm
    that does not fit in float64, and for every norm past a word matrix
    with an entry that does not.  A NaN norm falsifies its pair.
    """
    e = np.asarray(energies, dtype=np.float64)
    o = np.asarray(origins, dtype=np.int64)
    n = len(o)
    n_read = np.fromiter(map(len, offsets), dtype=np.int64, count=n)
    used = np.arange(n_read.max(initial=0)) < n_read[:, None]
    depth = np.zeros(used.shape, dtype=np.int64)
    depth[used] = np.fromiter(chain.from_iterable(offsets), dtype=np.int64,
                              count=int(n_read.sum()))
    out = np.full((2,) + used.shape, -1.0)

    # run j is lane j forward, run n + j lane j backward
    back = depth < 0
    np.abs(depth, out=depth)
    reach = np.stack([np.where(used & (back == side), depth, -1).max(axis=1, initial=-1)
                      for side in (False, True)])
    # forward runs need phi(origin + reach), backward ones phi(origin - reach - 1)
    site = np.stack([o + reach[0], o - reach[1] - 1])
    bad = np.argwhere((reach >= 0) & ((site < window.start) | (site >= window.end)))
    if len(bad):
        side, j = bad[0]  # the first in row-major order: forward lanes come first
        raise WindowTooShortError(
            "window [%d, %d) too short for %s propagation: origin %d at energy %r "
            "needs site %d" % (window.start, window.end, ("forward", "backward")[side],
                               o[j], float(e[j]), site[side, j])
        )
    # the runs, longest reach first, and each read as (flat slot, depth, run position)
    reach = reach.ravel()
    order = np.flatnonzero(reach >= 0)
    order = order[np.argsort(-reach[order])]
    rank = np.empty(2 * n, dtype=np.int64)
    rank[order] = np.arange(len(order))
    slot = np.flatnonzero(used)
    depth = depth.flat[slot]
    run = rank[back.flat[slot] * n + slot // used.shape[1]]
    # the per-slot tables go before stepping starts: they would set the peak
    del used, back, rank

    reach = reach[order]
    backward = order >= n
    lane = order - n * backward
    # each run's energy, the window index of its first site, and its step
    runs = e[lane], o[lane] - window.start - backward, 1 - 2 * backward
    del order, lane, backward
    n_word = int(np.count_nonzero(reach >= WORD_REACH))  # a prefix of the runs
    by_word = run < n_word
    flat = out.reshape(2, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        if n_word:
            flat[:, slot[by_word]] = _word_norms(
                window, *(x[:n_word] for x in runs), reach[:n_word],
                run[by_word], depth[by_word])
        by_site = ~by_word
        flat[:, slot[by_site]] = _site_norms(
            window, *(x[n_word:] for x in runs), reach[n_word:],
            run[by_site] - n_word, depth[by_site])
    return out


def _site_norms(window: Window, e_r, first, stride, reach, run, depth) -> np.ndarray:
    """(2, reads) norms of both bases at the reads (run[i], depth[i]).

    Run r steps from window index first[r] by stride[r] (+1 forward, -1
    backward) at energy e_r[r], and the runs come longest reach first, so
    the runs still moving are a prefix.  They step together, the two
    bases along a leading axis of 2, through ``transfer_run`` on chunks of
    at most ``NORM_CHUNK`` coefficients gathered from the window codes.
    """
    backward = stride < 0
    # the reads grouped by depth, then side
    key = 2 * depth + backward[run]
    by_key = np.argsort(key)
    key, run = key[by_key], run[by_key]
    start = np.flatnonzero(np.diff(key, prepend=-1))
    groups = key[start]
    moving = np.searchsorted(-reach, -(groups // 2), side="right")
    bounds = np.append(start, len(key)).tolist()
    del key, start
    # forward runs hold (phi(d), phi(d-1)), backward ones (phi(-d-1), phi(-d))
    phi_m1, phi_0 = (np.array(col)[:, None] for col in zip(*_BASES))
    cur = np.where(backward, phi_m1, phi_0)
    prev = np.where(backward, phi_0, phi_m1)
    codes, values = window.codes, window.alphabet.value_table()
    norms = np.empty((2, len(run)))
    done = 0
    for g, p, lo, hi in zip(groups.tolist(), moving.tolist(), bounds, bounds[1:]):
        d, side = divmod(g, 2)
        cur, prev = cur[:, :p], prev[:, :p]
        rows = max(NORM_CHUNK // p, 1)
        for k in range(done, d, rows):
            ks = np.arange(k, min(k + rows, d))[:, None]
            coeffs = e_r[:p] - values.take(codes.take(first[:p] + stride[:p] * ks))
            cur, prev = transfer_run(coeffs, cur, prev)
        done = d
        # the norm at offset d is |(phi(d), phi(d-1))|, at -d |(phi(-d), phi(-d-1))|
        at = cur.take(run[lo:hi], axis=1), prev.take(run[lo:hi], axis=1)
        norms[:, by_key[lo:hi]] = np.hypot(*at[::-1] if side else at)
    return norms


def _word_norms(window: Window, e_r, first, stride, reach, run, depth) -> np.ndarray:
    """(2, reads) norms of both bases at the reads (run[i], depth[i]).

    The runs are given as for ``_site_norms``.  Each run is cut into
    RESCALE_EVERY-site words in stepping order, so a backward run reads
    its words in reverse site order.  The words are keyed once per
    distinct code run (first site and direction: the lanes of many
    energies share an origin), and each distinct word's matrix is stepped
    once per distinct energy by ``_word_matrices``, in ``np.longdouble``;
    a matrix with an entry past float64 becomes NaN.  Each run multiplies
    its word matrices in order, divided by a power of two every
    FOLD_RESCALE products with the exponents summed apart, as
    ``lyapunov_scan`` does (long double's range holds FOLD_RESCALE word
    matrices below 2**1024 unscaled).  A read at depth d copies the
    product after d // RESCALE_EVERY words and steps it d % RESCALE_EVERY
    sites on through ``transfer_run``.  A norm past float64 reads NaN.
    """
    w = RESCALE_EVERY
    codes = window.codes
    values = window.alphabet.value_table().astype(np.longdouble)
    n_words = reach // w
    # one word sequence per distinct code run, as long as its longest run
    keys, code_run = np.unique(2 * first + (stride < 0), return_inverse=True)
    longest = np.zeros(len(keys), dtype=np.int64)
    np.maximum.at(longest, code_run, n_words)
    starts, bwds = np.divmod(keys, 2)
    pieces = [codes[s + 1 - w * q : s + 1][::-1] if bwd else codes[s : s + w * q]
              for s, bwd, q in zip(starts.tolist(), bwds.tolist(), longest.tolist())]
    words, word_id = _distinct_rows(np.concatenate(pieces).reshape(-1, w))
    seq = np.zeros((longest.max(), len(keys)), dtype=np.int64)  # word j of code run u
    seq[np.arange(len(word_id)) - np.repeat(np.cumsum(longest) - longest, longest),
        np.repeat(np.arange(len(keys)), longest)] = word_id
    # distinct energies by their bits, so that 0.0 and -0.0 stay apart
    e_bits, e_id = np.unique(np.ascontiguousarray(e_r).view(np.uint64), return_inverse=True)
    e_long = e_bits.view(np.float64).astype(np.longdouble)
    table = _word_matrices(words, values, e_long)
    table[~(np.abs(table).max(axis=(2, 3)) <= np.finfo(np.float64).max)] = np.nan
    table = table.reshape(-1, 2, 2)
    # step j of run r multiplies table[step_ix[j, r]]
    step_ix = seq[:, code_run]
    step_ix *= len(e_long)
    step_ix += e_id
    del seq, code_run

    # the runs still multiplying are a prefix; each read copies its run's
    # product and exponent once d // w words are in
    q, tail = np.divmod(depth, w)
    by_q = np.argsort(q, kind="stable")
    taken = np.searchsorted(q[by_q], np.arange(len(step_ix) + 1), side="right").tolist()
    moving = np.searchsorted(-n_words, -np.arange(1, len(step_ix) + 1), side="right").tolist()
    prod = np.tile(np.eye(2, dtype=np.longdouble), (len(reach), 1, 1))
    spare = np.empty_like(prod)
    acc = np.zeros(len(reach), dtype=np.int64)
    snap, snap_x = np.empty((len(run), 2, 2), dtype=np.longdouble), np.empty_like(run)
    lo = 0
    for j, hi in enumerate(taken):
        reads = by_q[lo:hi]
        snap[reads], snap_x[reads] = prod[run[reads]], acc[run[reads]]
        lo = hi
        if j == len(moving):
            break
        p = moving[j]
        np.matmul(table[step_ix[j, :p]], prod[:p], out=spare[:p])
        prod, spare = spare, prod
        if (j + 1) % FOLD_RESCALE == 0:
            prod[:p], x = _rescaled(prod[:p])
            acc[:p] += x
    del step_ix, table, prod, spare

    # the tails, longest first, so the reads still stepping are a prefix:
    # basis b starts as column b of the product on a forward run, as
    # column 1 - b on a backward one (see _BASES)
    order = np.argsort(-tail, kind="stable")
    run, q, tail = run[order], q[order], tail[order]
    col = np.arange(2)[:, None] ^ (stride[run] < 0)
    cur, prev = snap[order, 0, col], snap[order, 1, col]
    # the coefficients of the reads with a tail, each read's last one
    # repeated past its tail (a read never steps those)
    k = int(np.count_nonzero(tail))
    ks = np.minimum(np.arange(tail.max(initial=0))[:, None], tail[:k] - 1)
    coeffs = e_long[e_id[run[:k]]] - values.take(
        codes.take(first[run[:k]] + stride[run[:k]] * (w * q[:k] + ks)))
    norms = np.empty((2, len(run)), dtype=np.longdouble)
    done = 0
    for d in np.flatnonzero(np.bincount(tail)).tolist():
        lo, hi = (int(np.searchsorted(-tail, -d, side=x)) for x in ("left", "right"))
        cur, prev = transfer_run(coeffs[done:d, :hi], cur[:, :hi], prev[:, :hi])
        norms[:, order[lo:hi]] = np.ldexp(np.hypot(cur[:, lo:hi], prev[:, lo:hi]),
                                          snap_x[order[lo:hi]])
        done = d
    norms = norms.astype(np.float64)
    norms[~np.isfinite(norms)] = np.nan
    return norms


def certify_pairs(spec: ToeplitzSpec, window: Window, entry_k: int, energies: Sequence[float],
                  origins: Sequence[int], climb_cap: int) -> SweepReport:
    """Classify and verify every (energy, origin) pair on ``window``.

    Walks enter at level ``entry_k`` (an integer >= 0) and climb at most
    ``climb_cap`` levels (an integer >= 2, see ``gordon_sweep``); the rare
    origin whose climb would pass level entry_k + climb_cap surfaces as a
    reported candidate, never silently.  Every origin must be an integer
    at least 2 * block_length(entry_k + climb_cap) + 2 sites from both
    window edges, so its re-check and norms fit.  ``energies`` must be a
    1-D sequence of finite real numbers.  Anything else raises a
    ``ValidationError`` naming the argument (a ``WindowTooShortError`` for
    an origin) before any work is done.

    Every (energy, origin) pair must classify and its bound must hold; a
    pair that raises ``ValidationError`` is reported as a falsification,
    and any other exception is a defect and propagates.  The classifier
    walks all origins in one array pass and spreads each origin's at most
    three outcomes over the energies by their trace answers into one
    table of distinct (origin, outcome) rows, and each classified pair is
    a lane.  ``_recheck`` gathers each row's word once: each distinct word
    is re-checked once, and it numbers the words, since a lane's norms
    read only its energy, its certificate offsets and its word.  So
    ``_norm_slabs`` steps the first lane of each distinct (energy, word
    class), only out to its offsets, the bound is evaluated on those
    lanes, and the other lanes of a class take their margins; energies
    are told apart by their index, so repeated energies are stepped
    apart.  A side of a lane that reaches ``WORD_REACH`` sites or more
    multiplies 32-site word matrices in long double instead of stepping
    sites, and a norm there that does not fit in float64 reads NaN; a
    NaN margin falsifies its pair, as the site path's overflow to
    inf - inf does.  A norm the bound needs that was never computed
    raises ``RuntimeError``.  Lanes, margins and falsifications come in
    energy-major pair order.
    """
    entry_k, climb_cap = _integer(entry_k, "entry_k"), _integer(climb_cap, "climb_cap")
    for name, value, least in (("entry_k", entry_k, 0), ("climb_cap", climb_cap, 2)):
        if value < least:
            raise ValidationError("%s must be >= %d, got %r" % (name, least, value))
    origins = np.asarray(origins)
    if origins.ndim != 1 or origins.size and origins.dtype.kind not in "iu":
        raise ValidationError("origins must be a sequence of integers")
    e_arr = np.asarray(energies)
    if e_arr.ndim != 1 or e_arr.size and e_arr.dtype.kind not in "iuf":
        raise ValidationError("energies must be a 1-D sequence of real numbers")
    e_arr = e_arr.astype(np.float64)
    nonfinite = e_arr[~np.isfinite(e_arr)]
    if len(nonfinite):
        raise ValidationError("energies must be finite, got %r" % float(nonfinite[0]))
    margin_room = 2 * spec.block_length(entry_k + climb_cap) + 2
    near = (origins < window.start + margin_room) | (origins > window.end - 1 - margin_room)
    if near.any():
        raise WindowTooShortError("origin %d is within %d sites of an edge of the window [%d, %d)"
                                  % (origins[near][0], margin_room, window.start, window.end))

    htab = trace_recursion_f64(spec, entry_k + climb_cap + 1, e_arr)
    parts = _Partitions(window, spec)
    found, slot_id, choice = _classify(parts, entry_k, htab, origins, climb_cap)
    # the table: one row per distinct (origin, outcome) some energy reaches,
    # with the row of each (energy, origin) pair
    n, reached = len(origins), slot_id >= 0
    rows, row_id = np.unique((np.arange(n)[:, None] * len(found) + slot_id)[reached],
                             return_inverse=True)
    at, which = np.divmod(rows, len(found))
    row = np.full_like(slot_id, -1)
    row[reached] = row_id.reshape(-1)
    row = row[np.arange(n)[:, None], choice].T
    is_label = np.array([isinstance(x, CaseLabel) for x in found], dtype=bool)
    labelled = np.flatnonzero(is_label[which])
    errors, word, n_classes = _recheck(parts, origins[at[labelled]],
                                       [found[i] for i in which[labelled].tolist()])
    # each row's error, the classifier's or the re-check's, and its word class
    error_of = {r: found[which[r]] for r in np.flatnonzero(~is_label[which]).tolist()}
    error_of.update((r, x) for r, x in zip(labelled.tolist(), errors) if x is not None)
    row_class = np.full(len(rows), -1, dtype=np.int64)
    row_class[labelled] = word

    classified = row_class[row] >= 0
    falsifications = [
        {"energy": float(e_arr[ie]), "origin": int(origins[io]),
         "stage": "classify", "error": repr(error_of[row[ie, io]])}
        for ie, io in np.argwhere(~classified).tolist()
    ]
    # one lane per classified pair, energy-major; the lanes of one energy
    # (by index) and one word class step the same floats with one bound
    # scale, so the first of each is stepped, only out to its offsets, and
    # its margins go back to every lane; a pair whose re-check failed stays
    # a lane but gets no margin
    lane_e, lane_o = np.nonzero(classified)
    lane_row = row[lane_e, lane_o]
    lane_lab = which[lane_row]
    del row, classified
    sound = ~np.isin(lane_row, list(error_of))
    _, first, back = np.unique(lane_e * n_classes + row_class[lane_row], return_index=True,
                               return_inverse=True)
    offsets_of = [_offsets(x) if isinstance(x, CaseLabel) else () for x in found]
    rep_e, rep_lab = lane_e[first], lane_lab[first]
    norms = _norm_slabs(window, e_arr[rep_e], origins[lane_o[first]],
                        [offsets_of[i] for i in rep_lab.tolist()])
    n_read = np.array([len(t) for t in offsets_of], dtype=np.int64)[rep_lab]
    unfilled = (norms < 0) & (np.arange(norms.shape[2]) < n_read[:, None])
    if unfilled.any():
        _, rep, slot = np.argwhere(unfilled)[0]
        raise RuntimeError(
            "norm at offset %d of the pair (energy %r, origin %d) was never computed"
            % (offsets_of[rep_lab[rep]][slot], float(e_arr[rep_e[rep]]),
               origins[lane_o[first[rep]]])
        )

    # a class's bound scale: 1 for a cube (level -1), |h_n| at its energy for a square
    level = np.array([x.trace_level if isinstance(x, CaseLabel) and x.kind == "square" else -1
                      for x in found], dtype=np.int64)[rep_lab]
    scale = np.where(level < 0, 1.0, np.abs(htab[level, rep_e]))
    # with no lanes the norms have no slot to take a max over
    margins = (_bound_value(norms, scale) if len(first) else np.empty((2, 0))) - 0.5
    margins = margins[:, back.reshape(-1)]
    bad = ~(margins >= -BOUND_SLACK)  # a NaN margin fails
    for lane in np.flatnonzero(~sound | bad.any(axis=0)).tolist():
        e, o = float(e_arr[lane_e[lane]]), int(origins[lane_o[lane]])
        if not sound[lane]:
            falsifications.append({"energy": e, "origin": o, "stage": "structure",
                                   "error": repr(error_of[lane_row[lane]])})
            continue
        for b in np.flatnonzero(bad[:, lane]).tolist():
            falsifications.append(
                {"energy": e, "origin": o, "stage": "bound", "basis": _BASES[b],
                 "margin": float(margins[b, lane]), "label": found[lane_lab[lane]].case_id}
            )

    # in order of first appearance among the lanes
    case_counts = {}
    used, first, count = np.unique(lane_lab, return_index=True, return_counts=True)
    for i in np.argsort(first).tolist():
        case = found[used[i]].case_id
        case_counts[case] = case_counts.get(case, 0) + int(count[i])
    kept = margins[:, sound].T.ravel()
    return SweepReport(
        case_counts=case_counts,
        margins=tuple(kept.tolist()),
        min_margin=float(kept.min()) if kept.size else math.nan,
        falsifications=tuple(falsifications),
        energies=tuple(float(x) for x in energies),
        origins=tuple(int(x) for x in origins),
    )


def gordon_sweep(
    spec: ToeplitzSpec,
    entry_k: int,
    n_energies: int,
    n_origins: int,
    energy_level: Optional[int] = None,
    max_scale: Optional[int] = None,
    seed: int = 0,
    grid: int = 20_000,
) -> SweepReport:
    """Classify and verify across a grid of band energies and origins.

    Energies are band midpoints (plus interior samples) of the
    approximant at ``energy_level`` (default entry_k + 5, deep enough
    that every trace condition the classifier can reach is guaranteed);
    origins are random sites away from the window edges.  One generator
    seeded by ``seed`` draws the energies first, then the origins.  The
    window is sized so partitions and norms exist up to ``max_scale``
    (default energy_level + 2), and the origins are drawn far enough
    from its edges for ``certify_pairs``.

    Every count, level and the seed must be an integer; ``entry_k``,
    ``energy_level`` and ``seed`` must be >= 0 and ``max_scale`` >=
    entry_k + 2, the deepest level a walk reads before its first climb:
    a t hat climbs to entry_k + 1, where a trace split reads h at
    entry_k + 1 and entry_k + 2 and the level-(entry_k + 2) partition.
    Anything else raises a ``ValidationError`` naming the argument before
    any work is done.

    The pairs are certified by ``certify_pairs`` on that window, with
    climb_cap = max_scale - entry_k.
    """
    from .spectrum import band_approximant

    entry_k = _integer(entry_k, "entry_k")
    energy_level = entry_k + 5 if energy_level is None else _integer(energy_level, "energy_level")
    max_scale = energy_level + 2 if max_scale is None else _integer(max_scale, "max_scale")
    for name, value, least in (
        ("n_energies", n_energies, 1), ("n_origins", n_origins, 1),
        ("entry_k", entry_k, 0), ("energy_level", energy_level, 0),
        ("max_scale (default energy_level + 2)", max_scale, entry_k + 2), ("seed", seed, 0),
    ):
        if _integer(value, name) < least:
            raise ValidationError("%s must be >= %d, got %r" % (name, least, value))
    rng = np.random.default_rng(seed)
    approx = band_approximant(spec, energy_level, grid=grid)
    energies = approx.sample_energies(per_band=3)
    rng.shuffle(energies)
    energies = sorted(energies[:n_energies])
    if len(energies) < n_energies:
        raise ValidationError(
            "approximant at level %d offers only %d sample energies"
            % (energy_level, len(energies))
        )

    ell_top = spec.block_length(max_scale)
    margin_room = 2 * ell_top + 2
    need = (4 * spec.tail_period(max_scale + 1) + 3) * ell_top + 2 * margin_room
    window = spec.window(1, need)
    origins = np.sort(
        rng.integers(window.start + margin_room + 1, window.end - margin_room - 1,
                     size=n_origins)
    )
    return certify_pairs(spec, window, entry_k, energies, origins, max_scale - entry_k)
