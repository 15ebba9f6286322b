"""Repetition certificates: square/cube detection through the block
partition, the case classifier, and solution-norm lower bounds.

For a normalized solution of the eigenvalue equation, three aligned
copies of a block (a cube) or a cyclic square of a building block force
max norms >= 1/2 at predictable offsets.  The classifier walks the block
partitions around a chosen origin, escalating levels when traces escape,
and returns which certificate applies at which scale; the verifier
re-checks the structural hypothesis symbol by symbol before evaluating
the bound, so a classifier defect surfaces as an error rather than a
wrong margin.

The four certificates are the rows of ``_CERTIFICATES``, keyed by
(kind, reflected), in units of m = ``label.m`` around the origin:

    key                periodic [a*m, b*m)   rotation at   norm offsets
    cube, direct       [-1, 1)               -             -1, 1, 2
    cube, reflected    [-2, 0)               -             1, -1, -2
    square, direct     [0, 1)                0             1, 2
    square, reflected  [-2, -1)              -1            -1, -2

omega_i == omega_{i+m} must hold on the periodic range, and for a square
the m sites from the rotation anchor must be a cyclic rotation of s_n,
n = ``trace_level``.  A cube bounds the max of ||Phi|| at its offsets; a
square bounds max(|h_n| N1, N2), with N1, N2 the norms at its offsets.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .sequences import (
    PartitionView,
    ToeplitzSpec,
    ValidationError,
    Window,
    WindowTooShortError,
    blocks,
    k_partition,
)
from .cocycle import trace_recursion_f64, transfer_run

__all__ = [
    "GordonStructureError",
    "SolutionTrack",
    "propagate",
    "CaseLabel",
    "classify_case",
    "BoundReport",
    "verify_bound",
    "NondecayReport",
    "nondecay_scan",
    "SweepReport",
    "gordon_sweep",
    "reflect_about",
]

#: absolute slack absorbing float propagation error over <= 1e5 steps
BOUND_SLACK = 1e-9
NONDECAY_SLACK = 1e-6
#: cap on the coefficients (steps x runs) _norm_slabs gathers at once
NORM_CHUNK = 1 << 16


class GordonStructureError(ValidationError):
    """A certificate's structural hypothesis failed its literal re-check."""


#: the solution basis, (phi(-1), phi(0)) at each origin
_BASES = ((0.0, 1.0), (1.0, 0.0))


# ---------------------------------------------------------------------------
# Solution propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolutionTrack:
    """A solution of the eigenvalue equation over a window.

    ``phi[i]`` is the solution value at site ``lo + i``; the defining
    data (phi(-1), phi(0)) sits at sites origin-1, origin and satisfies
    |phi(-1)|^2 + |phi(0)|^2 = 1.
    """

    window: Window
    energy: float
    origin: int
    lo: int
    phi: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.phi, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "phi", arr)

    @property
    def hi(self) -> int:
        return self.lo + len(self.phi) - 1

    def value(self, site: int) -> float:
        if not (self.lo <= site <= self.hi):
            raise ValidationError("site %d outside the propagated range" % site)
        return float(self.phi[site - self.lo])

    def norm_at(self, rel: int) -> float:
        """||Phi(rel)|| = ||(phi(origin+rel), phi(origin+rel-1))||."""
        a = self.value(self.origin + rel)
        b = self.value(self.origin + rel - 1)
        return math.hypot(a, b)


def propagate(
    window: Window,
    energy: float,
    phi_init=(0.0, 1.0),
    origin: int = 0,
    lo: Optional[int] = None,
    hi: Optional[int] = None,
) -> SolutionTrack:
    """Run the exact two-term recurrence out from the origin.

    ``phi_init`` is (phi(-1), phi(0)) relative to the origin and must be
    normalized.  The recurrence phi(n+1) = (E - V(n)) phi(n) - phi(n-1)
    is applied forward and backward; the propagated range defaults to
    the whole window.
    """
    pm1, p0 = float(phi_init[0]), float(phi_init[1])
    if abs(pm1 * pm1 + p0 * p0 - 1.0) > 1e-12:
        raise ValidationError("phi_init must satisfy |phi(-1)|^2 + |phi(0)|^2 = 1")
    lo = window.start if lo is None else lo
    hi = window.end - 1 if hi is None else hi
    if not (window.start <= lo <= origin - 1 and origin <= hi < window.end):
        raise ValidationError(
            "need window cover of [lo, hi] around the origin with lo <= origin-1"
        )
    e = float(energy)
    vals = window.values()
    base = window.start
    # off-spectrum tails may overflow to inf far from the origin, and past
    # an inf the recurrence gives NaN (inf - inf): read a NaN as overflow
    ahead, behind = [], []
    transfer_run((e - vals[origin - base : hi - base]).tolist(), p0, pm1, ahead)
    transfer_run((e - vals[lo + 1 - base : origin - base])[::-1].tolist(), pm1, p0, behind)
    phi = np.array(behind[::-1] + [pm1, p0] + ahead)
    return SolutionTrack(window=window, energy=e, origin=origin, lo=lo, phi=phi)


def reflect_about(window: Window, origin: int) -> Window:
    """Reflection through origin - 1/2: entry n becomes entry 2*origin-1-n.

    This is the reflection under which the one-sided certificates map
    onto their mirrored variants exactly.
    """
    new_start = 2 * origin - window.end
    return Window(new_start, window.codes[::-1], window.alphabet)


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


def _neighbors(part: PartitionView, site: int):
    start, lab, idx = part.block_containing(site)
    left = part.label(idx - 1)
    right = part.label(idx + 1)
    if left is None or right is None:
        raise WindowTooShortError(
            "origin %d too close to the window edge for level-%d neighbors"
            % (site, part.level),
            required=(len(part.labels) + 2) * part.block_len,
        )
    return start, lab, left, right, idx


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
    as floats.  An s hat between two t-blocks raises
    :class:`GordonStructureError`: with every tail period n >= 3 the
    s-runs between t-blocks have length n - 1 or 2n - 1.
    """
    parts = _Partitions(window, spec, partitions)
    path = []

    def need_h(level: int) -> float:
        if level >= len(trace_table):
            raise ValidationError(
                "trace table too shallow: classification needs |h_%d|" % level
            )
        return abs(trace_table[level])

    def not_rightmost(start: int, level: int, what: str):
        if origin == start + parts.at(level).block_len - 1:
            raise GordonStructureError(
                "origin sits at the rightmost site of %s at level %d" % (what, level)
            )

    def make_label(case_id: str, level: int, kind: str, reflected: bool) -> CaseLabel:
        return CaseLabel(
            case_id=case_id, scale=level, kind=kind, reflected=reflected,
            m=parts.at(level).block_len,
            trace_level=level if kind == "square" else None, path=tuple(path),
        )

    def resolve_s_run(level: int, entry: bool) -> CaseLabel:
        """Hat is an s-block preceded by an s-block; climb until a cube fits.

        Terminals: right neighbor s gives the centered cube, a second
        s on the left gives the left cube (reflected, "2" when reached
        straight from the entry); otherwise the enclosing level repeats
        the same situation one level up.  The rightmost-site exclusion
        applies from the first climbed level on, where the climb
        construction guarantees it structurally.
        """
        for climb in range(max_climb):
            part = parts.at(level)
            start, lab, left, right, idx = _neighbors(part, origin)
            if lab != "s" or left != "s":
                raise GordonStructureError(
                    "expected s-block preceded by s at level %d" % level
                )
            if climb > 0:
                not_rightmost(start, level, "the hat block")
            if right == "s":
                path.append("cube@%d" % level)
                return make_label("1.2.1.2.2", level, "cube", False)
            leftleft = part.label(idx - 2)
            if leftleft is None:
                raise WindowTooShortError(
                    "origin too close to the left edge at level %d" % level,
                    required=(len(part.labels) + 2) * part.block_len,
                )
            if leftleft == "s":
                path.append("cube-left@%d" % level)
                return make_label(
                    "2" if entry and climb == 0 else "1.2.1.2.1", level, "cube", True
                )
            path.append("climb@%d" % level)
            level += 1
        raise ValidationError(
            "no cube found within %d climb levels; enlarge the window "
            "and trace table" % max_climb
        )

    def trace_split(level: int, entry_id: str) -> CaseLabel:
        """Hat s-block preceded by t: square now, or escalate one level."""
        if need_h(level) <= 2.0:
            path.append("square@%d" % level)
            return make_label(entry_id, level, "square", False)
        if need_h(level + 1) > 2.0:
            raise ValidationError(
                "|h_%d| and |h_%d| both exceed 2: energy escaped the "
                "approximant at the levels the classifier needs" % (level, level + 1)
            )
        start = _neighbors(parts.at(level), origin)[0]
        up_start, up_lab, up_left, _, _ = _neighbors(parts.at(level + 1), origin)
        if up_start != start:
            raise GordonStructureError(
                "level-%d block should open where the hat block does" % (level + 1)
            )
        not_rightmost(up_start, level + 1, "the escalated hat block")
        if up_left != "s":
            raise GordonStructureError(
                "block before the escalated hat must be an s-block"
            )
        if up_lab == "t":
            path.append("square-left@%d" % (level + 1))
            return make_label("1.2.1.1", level + 1, "square", True)
        path.append("1.2.2")
        return resolve_s_run(level + 1, entry=False)

    # --- entry switch: a t hat climbs to the s-block it closes ---------------
    level = k
    _, lab, left, right, _ = _neighbors(parts.at(level), origin)
    climbed = lab == "t"
    if climbed:
        path.append("4")
        level += 1
        _, lab, left, right, _ = _neighbors(parts.at(level), origin)
        if lab != "s":
            raise GordonStructureError(
                "a t-block must close an s-block one level up"
            )
    if left == "t" and right == "t":
        raise GordonStructureError(
            "s-block between two t-blocks at level %d around origin %d"
            % (level, origin)
        )
    if left == "s" and right == "s":
        path.append("cube@%d" % level if climbed else "1.1")
        return make_label("4" if climbed else "1.1", level, "cube", False)
    if not climbed:
        path.append("1.2" if right == "s" else "2")
    if right == "s":
        return trace_split(level, "4" if climbed else "1.2")
    return resolve_s_run(level, entry=not climbed)


# ---------------------------------------------------------------------------
# Bound verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    label: CaseLabel
    energy: float
    value: float
    threshold: float
    components: dict

    @property
    def margin(self) -> float:
        return self.value - self.threshold

    @property
    def holds(self) -> bool:
        return self.margin >= -BOUND_SLACK


#: (kind, reflected) -> certificate geometry, as in the module docstring
_Certificate = namedtuple("_Certificate", "periodic rotation offsets")
_CERTIFICATES = {
    ("cube", False): _Certificate((-1, 1), None, (-1, 1, 2)),
    ("cube", True): _Certificate((-2, 0), None, (1, -1, -2)),
    ("square", False): _Certificate((0, 1), 0, (1, 2)),
    ("square", True): _Certificate((-2, -1), -1, (-1, -2)),
}


def _check_periodic(window: Window, lo: int, hi: int, m: int):
    """omega_i == omega_{i+m} for every i in [lo, hi)."""
    a = window.codes[lo - window.start : hi - window.start]
    b = window.codes[lo + m - window.start : hi + m - window.start]
    if len(a) != hi - lo or len(b) != hi - lo:
        raise WindowTooShortError(
            "window too short to re-check the repetition hypothesis",
            required=hi + m - window.start,
        )
    if not np.array_equal(a, b):
        bad = int(np.flatnonzero(a != b)[0]) + lo
        raise GordonStructureError(
            "repetition hypothesis fails at site %d (period %d)" % (bad, m)
        )


def _check_rotation(window: Window, lo: int, parts: _Partitions, level: int):
    """The m symbols from lo must be a cyclic rotation of the spec's s_level."""
    s = blocks(parts.spec, level)[0]
    part = parts.at(level)
    m = len(s)
    seg = window.codes[lo - window.start : lo + m - window.start]
    if len(seg) != m:
        raise WindowTooShortError("window too short for the rotation check", required=lo + m)
    r = (lo - int(part.residue)) % m
    expected = np.concatenate([s[r:], s[:r]])
    if not np.array_equal(seg, expected):
        raise GordonStructureError(
            "segment at %d is not the expected rotation (by %d) of the s-block"
            % (lo, r)
        )


def _offsets(label: CaseLabel) -> tuple:
    """The label's norm offsets, in the order its bound reads them."""
    return tuple(t * label.m for t in _CERTIFICATES[label.kind, label.reflected].offsets)


def _bound_value(kind: str, norms, hn=None):
    """Cubes: the max of the norms; squares: max(hn * N1, N2).

    The norms run along the last axis, so this serves one pair or an
    array of lanes alike; a NaN norm in any slot makes the value NaN.
    """
    norms = np.asarray(norms)
    if kind == "cube":
        return np.max(norms, axis=-1)
    return np.maximum(hn * norms[..., 0], norms[..., 1])


def verify_bound(track: SolutionTrack, label: CaseLabel, trace_table: Sequence[float],
                 spec: Optional[ToeplitzSpec] = None,
                 partition: Optional[PartitionView] = None) -> BoundReport:
    """Re-check the certificate hypothesis and evaluate its norm bound.

    Hypothesis, offsets and bound are the label's ``_CERTIFICATES`` row;
    squares also report ``weak_value``, the bound with |h_n| set to 2.
    A failed structural re-check raises :class:`GordonStructureError`
    (classifier bug surfaced).
    """
    hn = None
    if label.kind == "square":
        n = label.trace_level
        if n is None or n >= len(trace_table):
            raise ValidationError("square certificate needs h at level %r" % n)
        hn = abs(float(trace_table[n]))
        if spec is None or partition is None:
            raise ValidationError(
                "square verification needs the spec and the level-%d partition" % n
            )
    w = track.window
    _verify_structural(w, label, track.origin,
                       _Partitions(w, spec, {label.trace_level: partition}))
    offs = _offsets(label)
    norms = [track.norm_at(r) for r in offs]
    comps = dict(zip(offs, norms))
    value = float(_bound_value(label.kind, norms, hn))
    if label.kind == "square":
        # with |h_n| <= 2 the weakened bound follows from the sharp one
        comps["weak_value"] = float(_bound_value("square", norms, 2.0))
    return BoundReport(label, track.energy, value, 0.5, comps)


def _verify_structural(window, lab: CaseLabel, origin: int, parts: _Partitions):
    """Literal symbol re-check of a label's hypothesis (no norms)."""
    cert = _CERTIFICATES[lab.kind, lab.reflected]
    m = lab.m
    a, b = cert.periodic
    _check_periodic(window, origin + a * m, origin + b * m, m)
    if cert.rotation is not None:
        _check_rotation(window, origin + cert.rotation * m, parts, lab.trace_level)


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
    """
    try:
        n_target = operator.index(n_target)
    except TypeError:
        raise ValidationError("n_target must be an integer, got %r" % (n_target,)) from None
    if n_target < 1:
        raise ValidationError("n_target must be >= 1, got %r" % n_target)
    if not math.isfinite(energy):
        raise ValidationError("energy must be finite, got %r" % energy)
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
            phi = propagate(window, energy, phi_init=init, origin=origin).phi
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
    and reads offset -d after d steps.  Each run steps only as far as its
    own deepest offset: the runs of both sides are ordered by that reach,
    longest first, so the runs still moving are a prefix, and they step
    together, the two bases along a leading axis of 2, through
    ``transfer_run`` on chunks of at most ``NORM_CHUNK`` gathered
    coefficients.  Returns an array of shape (2, lanes, max offsets per
    lane) whose entry [b, j, i] is the norm for basis ``_BASES[b]`` at
    offsets[j][i]; slots past a lane's offsets hold -1, which no norm
    takes.
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
    _check_reach(window, e, o, reach[0], True)
    _check_reach(window, e, o, reach[1], False)
    reach = reach.ravel()
    order = np.flatnonzero(reach >= 0)
    order = order[np.argsort(-reach[order])]
    # the reads as (flat slot, run position), grouped by depth, then side
    rank = np.empty(2 * n, dtype=np.int64)
    rank[order] = np.arange(len(order))
    slot = np.flatnonzero(used)
    key = 2 * depth.flat[slot] + back.flat[slot]
    by_key = np.argsort(key)
    slot, key = slot[by_key], key[by_key]
    run = rank[(key & 1) * n + slot // used.shape[1]]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    groups = key[first]
    moving = np.searchsorted(-reach[order], -(groups // 2), side="right")
    bounds = np.append(first, len(slot)).tolist()
    # the per-slot tables go before stepping starts: they would set the peak
    del used, depth, back, reach, rank, key

    backward = order >= n
    lane = order - n * backward
    e_r = e[lane]
    # the window index of each run's first site, and its step
    site = o[lane] - window.start - backward
    stride = 1 - 2 * backward
    # forward runs hold (phi(d), phi(d-1)), backward ones (phi(-d-1), phi(-d))
    phi_m1, phi_0 = (np.array(col)[:, None] for col in zip(*_BASES))
    cur = np.where(backward, phi_m1, phi_0)
    prev = np.where(backward, phi_0, phi_m1)
    del order, lane, backward
    codes, values = window.codes, window.alphabet.value_table()
    flat = out.reshape(2, -1)
    done = 0
    for g, p, lo, hi in zip(groups.tolist(), moving.tolist(), bounds, bounds[1:]):
        d, side = divmod(g, 2)
        cur, prev = cur[:, :p], prev[:, :p]
        rows = max(NORM_CHUNK // p, 1)
        for k in range(done, d, rows):
            ks = np.arange(k, min(k + rows, d))[:, None]
            coeffs = e_r[:p] - values.take(codes.take(site[:p] + stride[:p] * ks))
            cur, prev = transfer_run(coeffs, cur, prev)
        done = d
        # the norm at offset d is |(phi(d), phi(d-1))|, at -d |(phi(-d), phi(-d-1))|
        at = cur.take(run[lo:hi], axis=1), prev.take(run[lo:hi], axis=1)
        flat[:, slot[lo:hi]] = np.hypot(*at[::-1] if side else at)
    return out


def _check_reach(window: Window, energies, origins, reach, forward: bool):
    """Every lane's solution must stay in the window out to its own reach."""
    if forward:
        site = origins + reach  # phi(origin + reach)
        bad = (reach >= 0) & (site >= window.end)
    else:
        site = origins - reach - 1  # phi(origin - reach - 1)
        bad = (reach >= 0) & (site < window.start)
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise WindowTooShortError(
            "window [%d, %d) too short for %s propagation: origin %d at "
            "energy %r needs site %d"
            % (window.start, window.end, "forward" if forward else "backward",
               origins[j], float(energies[j]), site[j]),
            required=int(site[j]),
        )


class _ReadLog(list):
    """A trace list that records the levels read from it by index."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, level):
        self.read.add(level)
        return super().__getitem__(level)


def _classify_by_answer(window, spec, entry_k, htab, origins, parts, climb_cap):
    """Classify and re-check every (energy, origin) pair, walking once per trace answer.

    The classifier reads a trace only as |h_j| <= 2, |h_j| > 2 or neither
    (NaN), so two energies whose answers agree at every level one walk
    read get that walk's outcome.  Per origin, the walk runs for the
    first energy still unassigned and its outcome goes to every energy
    that answers alike, until none is left.  A walk that returns a label
    re-checks it structurally right away, on ``parts``; the re-check reads
    no energy.  An outcome is (label or None, error or None), the error
    being the ``repr`` of the ``ValidationError`` the walk or the re-check
    raised (the text only: the exception's traceback would hold this
    frame in a cycle); anything else propagates.  Returns the distinct
    outcomes and an (energies, origins) array of their indices.
    """
    absh = np.abs(htab)
    answers = np.where(absh <= 2.0, 0, np.where(absh > 2.0, 1, 2))
    n_e = htab.shape[1]
    index: dict = {}
    outcome_id = np.empty((n_e, len(origins)), dtype=np.int64)
    for io, o in enumerate(origins.tolist()):
        todo = np.ones(n_e, dtype=bool)
        while todo.any():
            ie = int(np.argmax(todo))
            h = _ReadLog(htab[:, ie])
            label = None
            try:
                label = classify_case(window, spec, entry_k, h, origin=o,
                                      partitions=parts.store, max_climb=climb_cap)
                _verify_structural(window, label, o, parts)
                outcome = (label, None)
            except ValidationError as exc:
                outcome = (label, repr(exc))
            key = answers[list(h.read)]
            alike = todo & (key == key[:, [ie]]).all(axis=0)
            outcome_id[alike, io] = index.setdefault(outcome, len(index))
            todo &= ~alike
    return list(index), outcome_id


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
    (default energy_level + 2) and traces up to max_scale + 1; the rare
    origin whose climb would pass that scale surfaces as a reported
    candidate, never silently.

    ``entry_k`` and ``energy_level`` must be >= 0 and ``max_scale`` >=
    entry_k + 2, the deepest level a walk reads before its first climb:
    a t hat climbs to entry_k + 1, where a trace split reads h at
    entry_k + 1 and entry_k + 2 and the level-(entry_k + 2) partition.
    Anything less raises ``ValidationError`` before any work is done.

    Every (energy, origin) pair must classify and its bound must hold; a
    pair that raises ``ValidationError`` is reported as a falsification,
    and any other exception is a defect and propagates.  The classifier
    walks once per origin and trace answer (``_classify_by_answer``),
    each walk's label is re-checked structurally inside the walk, and
    each classified pair is a lane: norms are stepped per lane by
    ``_norm_slabs``, each only out to its own label's certificate
    offsets, and the bounds are evaluated on all lanes as arrays.  A
    norm the bound needs that was never computed raises
    ``RuntimeError``.  Lanes, margins and falsifications come in
    energy-major pair order.
    """
    from .spectrum import band_approximant

    if energy_level is None:
        energy_level = entry_k + 5
    if max_scale is None:
        max_scale = energy_level + 2
    for name, value, least in (
        ("n_energies", n_energies, 1), ("n_origins", n_origins, 1),
        ("entry_k", entry_k, 0), ("energy_level", energy_level, 0),
        ("max_scale (default energy_level + 2)", max_scale, entry_k + 2),
    ):
        if value < least:
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

    e_arr = np.asarray(energies)
    htab = trace_recursion_f64(spec, max_scale + 1, e_arr)
    outcomes, outcome_id = _classify_by_answer(
        window, spec, entry_k, htab, origins, _Partitions(window, spec),
        max_scale - entry_k,
    )

    labels = [label for label, _ in outcomes]
    failed = np.array([x is None for x in labels])
    falsifications = [
        {"energy": float(e_arr[ie]), "origin": int(origins[io]),
         "stage": "classify", "error": outcomes[outcome_id[ie, io]][1]}
        for ie, io in np.argwhere(failed[outcome_id]).tolist()
    ]
    # one lane per classified pair, energy-major, stepped only to its own
    # offsets; a pair whose re-check failed stays a lane but gets no margin
    lane_e, lane_o = np.nonzero(~failed[outcome_id])
    lane_lab = outcome_id[lane_e, lane_o]
    sound = np.array([err is None for _, err in outcomes], dtype=bool)[lane_lab]
    offsets_of = [() if x is None else _offsets(x) for x in labels]
    offsets = list(map(offsets_of.__getitem__, lane_lab.tolist()))
    norms = _norm_slabs(window, e_arr[lane_e], origins[lane_o], offsets)
    n_read = np.array([len(t) for t in offsets_of], dtype=np.int64)[lane_lab]
    unfilled = (norms < 0) & (np.arange(norms.shape[2]) < n_read[:, None])
    if unfilled.any():
        _, lane, slot = np.argwhere(unfilled)[0]
        raise RuntimeError(
            "norm at offset %d of the pair (energy %r, origin %d) was never computed"
            % (offsets[lane][slot], float(e_arr[lane_e[lane]]), origins[lane_o[lane]])
        )

    cube = np.array([x is not None and x.kind == "cube" for x in labels])[lane_lab]
    trace_level = np.array([0 if x is None or x.kind == "cube" else x.trace_level
                            for x in labels], dtype=np.int64)
    hn = np.abs(htab[trace_level[lane_lab], lane_e])
    values = np.empty((2, len(lane_lab)))
    if len(lane_lab):
        values[:, cube] = _bound_value("cube", norms[:, cube])
        values[:, ~cube] = _bound_value("square", norms[:, ~cube], hn[~cube])
    margins = values - 0.5
    bad = ~(margins >= -BOUND_SLACK)  # as BoundReport.holds: NaN fails
    for lane in np.flatnonzero(~sound | bad.any(axis=0)).tolist():
        e, o = float(e_arr[lane_e[lane]]), int(origins[lane_o[lane]])
        if not sound[lane]:
            falsifications.append({"energy": e, "origin": o, "stage": "structure",
                                   "error": outcomes[lane_lab[lane]][1]})
            continue
        for b in np.flatnonzero(bad[:, lane]).tolist():
            falsifications.append(
                {"energy": e, "origin": o, "stage": "bound", "basis": _BASES[b],
                 "margin": float(margins[b, lane]),
                 "label": labels[lane_lab[lane]].case_id}
            )

    # in order of first appearance among the lanes
    case_counts = {}
    used, first, count = np.unique(lane_lab, return_index=True, return_counts=True)
    for i in np.argsort(first).tolist():
        case = labels[used[i]].case_id
        case_counts[case] = case_counts.get(case, 0) + int(count[i])
    kept = margins[:, sound].T.ravel().tolist()
    return SweepReport(
        case_counts=case_counts,
        margins=tuple(kept),
        min_margin=float(np.min(kept)) if kept else math.nan,
        falsifications=tuple(falsifications),
        energies=tuple(float(x) for x in energies),
        origins=tuple(int(x) for x in origins),
    )
