"""Solution propagation, case classification, norm bounds."""

import gc
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from sturmspec import cocycle as cc
from sturmspec import gordon as gd
from sturmspec import sequences as sq
from sturmspec import spectrum as sp

AB = sq.Alphabet(("a", "b"), (0.0, 1.0))


def simple_spec(periods=(3, 3), **kw):
    n = len(periods)
    return sq.ToeplitzSpec(
        AB, sq.CodingTriple((), 1, 0),
        tuple("ab"[i % 2] for i in range(n)), tuple(periods), (0,) * n, **kw
    )


def zero_window(length, start=1):
    return sq.SparseSpec(v=1.0, positions=(10**9,)).window(start, length)


SPEC = simple_spec()
WINDOW = SPEC.window(1, 120_000)
BAND5 = sp.band_approximant(SPEC, 5, grid=20_000)
E_IN = BAND5.sample_energies()[3]
HVALS = list(cc.trace_recursion_f64(SPEC, 10, np.array([E_IN]))[:, 0])


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------


def test_propagate_rotation_norms_stay_unit():
    tr = gd.propagate(zero_window(4000), 0.0, origin=2000)
    for rel in (-1500, -37, 0, 41, 1500):
        assert abs(tr.norm_at(rel) - 1.0) <= 1e-12


def test_propagate_requires_normalized_data():
    with pytest.raises(sq.ValidationError):
        gd.propagate(zero_window(100), 0.0, phi_init=(1.0, 1.0), origin=50)


def test_propagate_never_vanishes_simultaneously():
    tr = gd.propagate(WINDOW.slice(1, 20_001), E_IN, origin=10_000)
    norms = [tr.norm_at(r) for r in range(-9000, 9000, 7)]
    assert min(norms) > 0


def test_propagate_growth_matches_lyapunov_off_spectrum():
    e = 4.0
    tr = gd.propagate(WINDOW.slice(1, 1200), e, origin=2)
    n = 500
    slope = math.log(tr.norm_at(n)) / n
    gamma, _ = cc.lyapunov(SPEC, e, n_steps=10_000)
    assert abs(slope - gamma) <= 0.1 * gamma


def matmul_word_matrix(values, energy):
    # an oracle that does not share the transfer_run kernel
    m = np.eye(2)
    for v in values:
        m = np.array([[energy - v, -1.0], [1.0, 0.0]]) @ m
    return m


def test_propagate_matches_word_matrix():
    e = E_IN
    tr = gd.propagate(WINDOW.slice(1, 400), e, origin=100, phi_init=(0.0, 1.0))
    for n in (7, 60, 150):
        m = matmul_word_matrix(WINDOW.slice(100, 100 + n).values(), e)
        phi = m @ np.array([1.0, 0.0])
        assert abs(phi[0] - tr.value(100 + n)) <= 1e-9 * max(1, abs(phi[0]))
        assert abs(phi[1] - tr.value(100 + n - 1)) <= 1e-9 * max(1, abs(phi[1]))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_classifier_labels_are_wellformed():
    store = {}
    seen = set()
    for o in range(5000, 5400):
        lab = gd.classify_case(WINDOW, SPEC, 2, HVALS, origin=o, partitions=store)
        seen.add(lab.case_id)
        assert lab.kind in ("cube", "square")
        assert lab.m == SPEC.block_length(lab.scale)
        assert lab.scale >= 2
        if lab.kind == "square":
            assert abs(HVALS[lab.trace_level]) <= 2.0
    assert "1.1" in seen or "1.2.1.2.2" in seen


def test_classifier_case4_on_t_block_origin():
    store = {}
    pv = sq.k_partition(WINDOW.slice(1, 40_000), SPEC, 2)
    t_starts = [int(s) for s, lab in zip(pv.starts, pv.labels) if lab == "t"]
    o = t_starts[5] + 3
    lab = gd.classify_case(WINDOW, SPEC, 2, HVALS, origin=o, partitions=store)
    assert lab.path[0] == "4"
    assert lab.scale >= 3


def test_classifier_rejects_s_hat_between_t_blocks(monkeypatch):
    # tail periods >= 3 keep every s-run between t-blocks at least 2 long
    real = gd._neighbors

    def isolated_s(part, site):
        start, _, _, _, idx = real(part, site)
        return start, "s", "t", "t", idx

    monkeypatch.setattr(gd, "_neighbors", isolated_s)
    with pytest.raises(gd.GordonStructureError,
                       match="s-block between two t-blocks at level 2 around origin 5000"):
        gd.classify_case(WINDOW, SPEC, 2, HVALS, origin=5000)


def test_classifier_needs_trace_depth():
    with pytest.raises(sq.ValidationError):
        gd.classify_case(WINDOW, SPEC, 2, HVALS[:2], origin=5000)


def test_classifier_rejects_foreign_window():
    codes = np.zeros(3000, dtype=np.int16)
    codes[::2] = 1
    bad = sq.Window(0, codes, AB)
    with pytest.raises(sq.PartitionError):
        gd.classify_case(bad, SPEC, 1, HVALS, origin=1500)


# ---------------------------------------------------------------------------
# Bound verification
# ---------------------------------------------------------------------------


def _label_instances():
    """One (origin, label) per certificate family found near the middle."""
    store = {}
    parts = gd._Partitions(WINDOW, SPEC, store)
    found = {}
    for o in range(20_000, 26_000):
        lab = gd.classify_case(WINDOW, SPEC, 2, HVALS, origin=o, partitions=store)
        key = (lab.kind, lab.reflected)
        if key not in found and lab.m <= 2187:
            found[key] = (o, lab)
        if len(found) == 4:
            break
    return found, parts


def test_verify_bound_holds_per_family():
    found, parts = _label_instances()
    assert len(found) >= 3
    for (kind, refl), (o, lab) in found.items():
        tr = gd.propagate(
            WINDOW, E_IN, origin=o, lo=o - 2 * lab.m - 2, hi=o + 2 * lab.m + 2
        )
        part = parts.at(lab.trace_level) if lab.trace_level is not None else None
        rep = gd.verify_bound(tr, lab, HVALS, spec=SPEC, partition=part)
        assert rep.holds, (kind, refl, rep.margin)
        assert rep.margin >= -1e-9
        if kind == "square":
            # the weakened, trace-free form must hold a fortiori
            assert rep.components["weak_value"] >= 0.5 - 1e-9


def test_verify_bound_rejects_wrong_scale():
    found, parts = _label_instances()
    (o, lab) = found[("cube", False)]
    wrong = gd.CaseLabel(
        case_id=lab.case_id, scale=lab.scale, kind=lab.kind,
        reflected=lab.reflected, m=lab.m - 1, trace_level=None, path=lab.path,
    )
    tr = gd.propagate(WINDOW, E_IN, origin=o, lo=o - 2 * lab.m - 2, hi=o + 2 * lab.m + 2)
    with pytest.raises(gd.GordonStructureError):
        gd.verify_bound(tr, wrong, HVALS)


def test_wrong_scale_bound_can_numerically_fail():
    # negative control: with a misaligned m (24 instead of the block
    # length 27) the unprotected square bound drops below 1/2 somewhere
    e = BAND5.sample_energies()[7]
    h = cc.trace_recursion_f64(SPEC, 10, np.array([e]))[:, 0]
    hn = abs(float(h[3]))
    assert hn <= 2.0
    m_wrong = 24
    fell_below = False
    for o in range(20_000, 36_000, 7):
        tr = gd.propagate(
            WINDOW, e, origin=o, lo=o - 2 * m_wrong - 2, hi=o + 2 * m_wrong + 2
        )
        value = max(hn * tr.norm_at(m_wrong), tr.norm_at(2 * m_wrong))
        if value < 0.5 - 1e-6:
            fell_below = True
            break
    assert fell_below


# The certificate geometry written out case by case, as it stood before
# the table in gordon; kept as the reference the table must reproduce.


def ref_verify_bound(track, label, trace_table, spec=None, partition=None):
    w = track.window
    o = track.origin
    m = label.m
    h = [float(x) for x in trace_table]
    if label.kind == "cube":
        if not label.reflected:
            gd._check_periodic(w, o - m, o + m, m)
            comps = {r: track.norm_at(r) for r in (-m, m, 2 * m)}
        else:
            gd._check_periodic(w, o - 2 * m, o, m)
            comps = {r: track.norm_at(r) for r in (m, -m, -2 * m)}
        value = max(comps.values())
        return gd.BoundReport(label, track.energy, value, 0.5, comps)
    n = label.trace_level
    if n is None or n >= len(h):
        raise sq.ValidationError("square certificate needs h at level %r" % n)
    hn = abs(h[n])
    if spec is None or partition is None:
        raise sq.ValidationError(
            "square verification needs the spec and the level-%d partition" % n
        )
    if not label.reflected:
        gd._check_periodic(w, o, o + m, m)
        gd._check_rotation(w, o, gd._Partitions(w, spec, {n: partition}), n)
        comps = {m: track.norm_at(m), 2 * m: track.norm_at(2 * m)}
        value = max(hn * comps[m], comps[2 * m])
        weak = max(2.0 * comps[m], comps[2 * m])
    else:
        gd._check_periodic(w, o - 2 * m, o - m, m)
        gd._check_rotation(w, o - m, gd._Partitions(w, spec, {n: partition}), n)
        comps = {-m: track.norm_at(-m), -2 * m: track.norm_at(-2 * m)}
        value = max(hn * comps[-m], comps[-2 * m])
        weak = max(2.0 * comps[-m], comps[-2 * m])
    comps["weak_value"] = weak
    return gd.BoundReport(label, track.energy, value, 0.5, comps)


def ref_verify_structural(window, lab, origin, parts):
    m = lab.m
    if lab.kind == "cube":
        if not lab.reflected:
            gd._check_periodic(window, origin - m, origin + m, m)
        else:
            gd._check_periodic(window, origin - 2 * m, origin, m)
    else:
        if not lab.reflected:
            gd._check_periodic(window, origin, origin + m, m)
            gd._check_rotation(window, origin, parts, lab.trace_level)
        else:
            gd._check_periodic(window, origin - 2 * m, origin - m, m)
            gd._check_rotation(window, origin - m, parts, lab.trace_level)


def _outcome(fn, *args, **kwargs):
    """A call's result, or the class and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except sq.ValidationError as exc:
        return type(exc), str(exc)


def _table_cases(h):
    """Classifier labels of every family, plus relabelled variants.

    Each origin's own label is kept, together with the other three
    families at the same scale and the label's m shifted by -1, +1 and
    one level up, so hypotheses that fail are compared too.
    """
    store = {}
    per_family = {}
    for o in range(20_000, 60_000, 7):
        try:
            lab = gd.classify_case(WINDOW, SPEC, 2, h, origin=o, partitions=store)
        except sq.ValidationError:
            continue  # the climb left the window
        key = (lab.kind, lab.reflected)
        if lab.m <= 243 and len(per_family.setdefault(key, [])) < 6:
            per_family[key].append((o, lab))
    cases = []
    for found in per_family.values():
        for o, lab in found:
            for kind in ("cube", "square"):
                for refl in (False, True):
                    for m in (lab.m, lab.m - 1, lab.m + 1, 3 * lab.m):
                        cases.append((o, gd.CaseLabel(
                            case_id=lab.case_id, scale=lab.scale, kind=kind,
                            reflected=refl, m=m,
                            trace_level=lab.scale if kind == "square" else None,
                            path=lab.path,
                        )))
    return per_family, cases


def test_certificate_table_reproduces_written_out_checks():
    parts = gd._Partitions(WINDOW, SPEC, {})
    families = set()
    reports = failures = 0
    # the first energy has reflected squares near the origins, E_IN has none
    for e in (BAND5.sample_energies()[2], E_IN):
        h = list(cc.trace_recursion_f64(SPEC, 10, np.array([e]))[:, 0])
        per_family, cases = _table_cases(h)
        families.update(per_family)
        for o, lab in cases:
            part = parts.at(lab.trace_level) if lab.trace_level is not None else None
            reach = 2 * lab.m + 2
            for basis in ((0.0, 1.0), (1.0, 0.0)):
                tr = gd.propagate(WINDOW, e, phi_init=basis, origin=o,
                                  lo=o - reach, hi=o + reach)
                got = _outcome(gd.verify_bound, tr, lab, h, spec=SPEC, partition=part)
                want = _outcome(ref_verify_bound, tr, lab, h, spec=SPEC, partition=part)
                assert got == want, (o, lab)
                if isinstance(got, gd.BoundReport):
                    assert list(got.components) == list(want.components)
                    reports += 1
                else:
                    failures += 1
            assert (_outcome(gd._verify_structural, WINDOW, lab, o, parts)
                    == _outcome(ref_verify_structural, WINDOW, lab, o, parts))
    assert families == {("cube", False), ("cube", True),
                        ("square", False), ("square", True)}
    # both outcomes occur often: the comparison is not one-sided
    assert reports >= 96 and failures >= 96
    # a square without a usable trace level, spec or partition
    o, lab = per_family[("square", False)][0]
    tr = gd.propagate(WINDOW, E_IN, origin=o, lo=o - 3 * lab.m, hi=o + 3 * lab.m)
    for kwargs in ({}, {"spec": SPEC}, {"spec": SPEC, "partition": parts.at(lab.scale)}):
        for h in (HVALS[: lab.scale], HVALS):
            assert (_outcome(gd.verify_bound, tr, lab, h, **kwargs)
                    == _outcome(ref_verify_bound, tr, lab, h, **kwargs))


def test_reflection_symmetry_of_norms():
    o = 30_011
    refl = gd.reflect_about(WINDOW, o)
    tr = gd.propagate(WINDOW, E_IN, origin=o, lo=o - 3000, hi=o + 3000)
    # phi(-1) and phi(0) swap roles under the half-integer reflection
    tr_r = gd.propagate(refl, E_IN, origin=o, phi_init=(1.0, 0.0),
                        lo=o - 3000, hi=o + 3000)
    for rel in (-2100, -700, -3, 9, 800, 2999):
        assert abs(tr.norm_at(rel) - tr_r.norm_at(-rel)) <= 1e-9 * max(
            1.0, tr.norm_at(rel)
        )


def test_reflection_maps_left_squares_to_right_squares():
    # the reflected hypothesis on the original window is the direct
    # hypothesis on the reflected window, origin by origin
    m = 9
    for o in range(40_000, 40_160):
        refl = gd.reflect_about(WINDOW, o)
        try:
            gd._check_periodic(WINDOW, o - 2 * m, o, m)
            left_ok = True
        except gd.GordonStructureError:
            left_ok = False
        try:
            gd._check_periodic(refl, o - m, o + m, m)
            right_ok = True
        except gd.GordonStructureError:
            right_ok = False
        assert left_ok == right_ok


# ---------------------------------------------------------------------------
# Non-decay scan and sweeps
# ---------------------------------------------------------------------------


def test_nondecay_scan_finds_witnesses():
    rep = gd.nondecay_scan(SPEC, E_IN, 300)
    assert rep.passed
    assert len(rep.witnesses) == 2 * len({1, 2, 4, 8, 16, 32, 64, 128, 256, 300})
    for n, basis, m, norm in rep.witnesses:
        assert abs(m) >= n
        assert norm >= 0.25 - 1e-6


def test_nondecay_trivial_off_spectrum():
    rep = gd.nondecay_scan(SPEC, 4.5, 100)
    assert rep.passed


def test_nondecay_saturated_tails_raise_no_warning():
    # at 1.05 the propagated tails overflow to inf, and their norms with them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = gd.nondecay_scan(SPEC, 1.05, 2000)
    assert rep.passed


def ref_nondecay_scan(spec, energy, n_target):
    """The scan as a nested search over m, then the sign, per probe and basis."""
    probes = sorted({1, n_target, *(2**j for j in range(1, n_target.bit_length()))})
    level = 0
    while spec.block_length(level) < n_target:
        level += 1
    reach = 4 * 2 * spec.block_length(level)
    origin = reach + 2
    window = spec.window(1, 2 * reach + 4)
    tracks = [gd.propagate(window, energy, phi_init=init, origin=origin)
              for init in ((0.0, 1.0), (1.0, 0.0))]
    norms = []
    for tr in tracks:
        a = tr.phi
        prev = np.roll(a, 1)
        with np.errstate(over="ignore"):
            nn = np.hypot(a, prev)
        nn[0] = nn[1]
        norms.append(nn)
    witnesses, failures = [], []
    for n in probes:
        for which, tr in enumerate(tracks):
            nn = norms[which]
            found = None
            for m in range(n, reach + 1):
                for sgn in (1, -1):
                    val = nn[origin + sgn * m - tr.lo]
                    if val >= 0.25 - gd.NONDECAY_SLACK:
                        found = (sgn * m, float(val))
                        break
                if found:
                    break
            if found:
                witnesses.append((n, which, found[0], found[1]))
            else:
                failures.append({"n": n, "basis": which, "searched_up_to": reach,
                                 "best_norm_found": float(nn[origin + n - tr.lo:].max())})
    return tuple(witnesses), tuple(failures)


def test_nondecay_scan_matches_nested_reference():
    # the certify workload's energies: the seed-1 sweep's own 40
    energies = gd.gordon_sweep(SPEC, 2, 40, 1, seed=1, grid=2000).energies
    assert len(energies) == 40
    for e in energies:
        for n_target in (1, 2, 5, 100, 300, 2000):
            rep = gd.nondecay_scan(SPEC, e, n_target)
            assert (rep.witnesses, rep.failures) == ref_nondecay_scan(SPEC, e, n_target)
            assert rep.passed


@pytest.mark.parametrize("energy", [4.5, -3.0, 6.0])
def test_nondecay_survives_tails_that_overflow_to_nan(energy):
    # the solution overflows inside the searched range; past the inf,
    # c * inf - inf is NaN, which must count as a large norm
    rep = gd.nondecay_scan(SPEC, energy, 2000)
    assert rep.passed, rep.failures
    ref_witnesses, ref_failures = ref_nondecay_scan(SPEC, energy, 2000)
    assert ref_failures  # the NaN-blind search fails here
    assert set(ref_witnesses) <= set(rep.witnesses)
    for n, _, m, norm in rep.witnesses:
        assert abs(m) >= n and norm >= 0.25 - gd.NONDECAY_SLACK


@pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
def test_nondecay_rejects_a_non_finite_energy(energy):
    with pytest.raises(sq.ValidationError, match="energy must be finite, got %r" % energy):
        gd.nondecay_scan(SPEC, energy, 100)


def test_nondecay_best_norm_reads_both_sides(monkeypatch):
    def flat(window, energy, phi_init=(0.0, 1.0), origin=0, lo=None, hi=None):
        # every norm below 1/4, the left side's larger than the right side's
        phi = np.where(np.arange(window.start, window.end) < origin, 0.15, 0.1)
        return gd.SolutionTrack(window, float(energy), origin, window.start, phi)

    monkeypatch.setattr(gd, "propagate", flat)
    rep = gd.nondecay_scan(SPEC, 0.3, 100)
    assert not rep.witnesses
    assert len(rep.failures) == 2 * len({1, 2, 4, 8, 16, 32, 64, 100})
    assert {f["best_norm_found"] for f in rep.failures} == {float(np.hypot(0.15, 0.15))}


def ref_full_window_nondecay_scan(spec, energy, n_target):
    """The scan as it was before it stopped at its witnesses: both bases
    across the whole window of twice the reach, in one run each."""
    probes = sorted({1, n_target, *(2**j for j in range(1, n_target.bit_length()))})
    level = 0
    while spec.block_length(level) < n_target:
        level += 1
    reach = 4 * 2 * spec.block_length(level)
    origin = reach + 2
    window = spec.window(1, 2 * reach + 4)
    thr = 0.25 - gd.NONDECAY_SLACK
    sides = []
    for init in gd._BASES:
        phi = gd.propagate(window, energy, phi_init=init, origin=origin).phi
        with np.errstate(over="ignore"):
            norms = np.hypot(phi[1:], phi[:-1])
        norms[np.isnan(norms)] = np.inf
        right, left = norms[reach : 2 * reach + 1], norms[reach::-1]
        sides.append((right, left, np.flatnonzero((right >= thr) | (left >= thr))))
    witnesses, failures = [], []
    for n in probes:
        for which, (right, left, hits) in enumerate(sides):
            i = int(np.searchsorted(hits, n))
            if i < len(hits):
                m = int(hits[i])
                sgn, side = (1, right) if right[m] >= thr else (-1, left)
                witnesses.append((n, which, sgn * m, float(side[m])))
            else:
                best = max(right[n:].max(), left[n:].max())
                failures.append({"n": n, "basis": which, "searched_up_to": reach,
                                 "best_norm_found": float(best)})
    return gd.NondecayReport(float(energy), int(n_target), tuple(witnesses), tuple(failures))


@pytest.fixture(scope="module")
def certify_energies():
    """The certify workload's energies: the seed-1 sweep's own 40."""
    energies = gd.gordon_sweep(SPEC, 2, 40, 1, seed=1, grid=2000).energies
    assert len(energies) == 40
    return energies


def propagated_sites(monkeypatch):
    """Record len(track.phi) of every propagate call the scan makes."""
    sites, propagate = [], gd.propagate

    def counted(*args, **kwargs):
        track = propagate(*args, **kwargs)
        sites.append(len(track.phi))
        return track

    monkeypatch.setattr(gd, "propagate", counted)
    return sites


NONDECAY_TARGETS = (1, 2, 5, 100, 300, 2000, 3000)
OVERFLOW_ENERGIES = (1.05, 4.5, -3.0, 6.0, 20.0, -40.0)


def test_nondecay_scan_equals_the_full_window_scan(certify_energies):
    for e in tuple(certify_energies) + OVERFLOW_ENERGIES:
        for n_target in NONDECAY_TARGETS:
            assert gd.nondecay_scan(SPEC, e, n_target) == \
                ref_full_window_nondecay_scan(SPEC, e, n_target)


@pytest.mark.parametrize("n_target", [100, 2000])
def test_nondecay_scan_doubles_until_every_basis_has_a_witness(
        monkeypatch, certify_energies, n_target):
    # at a threshold of 10 some witnesses lie past the first window and
    # some probes have none within the reach
    monkeypatch.setattr(gd, "NONDECAY_SLACK", -9.75)
    sites = propagated_sites(monkeypatch)
    first = 2 * (n_target + 64) + 2
    doubled = failed = 0
    for e in certify_energies[:10]:
        want = ref_full_window_nondecay_scan(SPEC, e, n_target)
        reach = (sites[-1] - 4) // 2  # the oracle's window has 2 * reach + 4 sites
        del sites[:]
        got = gd.nondecay_scan(SPEC, e, n_target)
        assert got == want
        assert sites[:2] == [first, first]
        assert all(b == 2 * a - 2 for a, b in zip(sites[::2], sites[2::2]) if b < 2 * reach + 2)
        doubled += len(sites) > 2
        if got.failures:
            failed += 1
            assert sites[-1] == 2 * reach + 2
            assert {f["searched_up_to"] for f in got.failures} == {reach}
    assert doubled > failed > 0


def test_nondecay_failures_equal_the_full_window_scan(monkeypatch):
    def flat(window, energy, phi_init=(0.0, 1.0), origin=0, lo=None, hi=None):
        phi = np.where(np.arange(window.start, window.end) < origin, 0.15, 0.1)
        return gd.SolutionTrack(window, float(energy), origin, window.start, phi)

    monkeypatch.setattr(gd, "propagate", flat)
    for n_target in NONDECAY_TARGETS:
        rep = gd.nondecay_scan(SPEC, 0.3, n_target)
        assert rep.failures and not rep.witnesses
        assert rep == ref_full_window_nondecay_scan(SPEC, 0.3, n_target)


def test_nondecay_scan_propagates_only_to_its_witnesses(monkeypatch, certify_energies):
    # the full window would be 2 x 34_994 sites at n_target = 2000
    n_target = 2000
    sites = propagated_sites(monkeypatch)
    for e in certify_energies:
        del sites[:]
        assert gd.nondecay_scan(SPEC, e, n_target).passed
        assert sum(sites) <= 2 * (2 * (n_target + 64) + 2)


@pytest.mark.parametrize("n_target", [2.5, 100.0, "5", None, 1j])
def test_nondecay_rejects_a_non_integer_target(n_target):
    with pytest.raises(sq.ValidationError, match="n_target must be an integer"):
        gd.nondecay_scan(SPEC, E_IN, n_target)


@pytest.mark.parametrize("n_target", [np.int64(300), np.int32(300), np.uint16(300)])
def test_nondecay_takes_numpy_integer_targets(n_target):
    rep = gd.nondecay_scan(SPEC, E_IN, n_target)
    assert rep == gd.nondecay_scan(SPEC, E_IN, 300)
    assert type(rep.n_target) is int


def test_sweep_rechecks_each_label_once_in_its_walk(monkeypatch):
    events = []
    classify, structural = gd.classify_case, gd._verify_structural

    def walk(window, spec, k, h, origin, **kw):
        events.append(("walk", origin, None))
        lab = classify(window, spec, k, h, origin=origin, **kw)
        events[-1] = ("walk", origin, lab)
        return lab

    def recheck(window, lab, origin, parts):
        events.append(("recheck", origin, lab))
        return structural(window, lab, origin, parts)

    monkeypatch.setattr(gd, "classify_case", walk)
    monkeypatch.setattr(gd, "_verify_structural", recheck)
    rep = gd.gordon_sweep(SPEC, 2, 40, 500, seed=1, grid=2000)
    assert len(rep.falsifications) == 44
    # every labelled walk is followed by the re-check of its own label,
    # and every re-check directly follows the walk that found the label
    for i, (what, origin, lab) in enumerate(events):
        if what == "recheck":
            assert events[i - 1] == ("walk", origin, lab)
        elif lab is not None:
            assert events[i + 1] == ("recheck", origin, lab)
    walks = [(origin, lab) for what, origin, lab in events if what == "walk"]
    assert len(events) - len(walks) == len(walks) - 2
    assert sorted(o for o, lab in walks if lab is None) == [88552, 324770]


@pytest.mark.parametrize("stage,target", [("classify", "classify_case"),
                                          ("structure", "_verify_structural")])
def test_sweep_reports_only_validation_errors_as_falsifications(monkeypatch, stage, target):
    def invalid(*args, **kwargs):
        raise sq.ValidationError("no certificate")

    def defect(*args, **kwargs):
        raise RuntimeError("defect")

    sweep = dict(entry_k=2, n_energies=2, n_origins=3, energy_level=3, grid=2000)
    monkeypatch.setattr(gd, target, invalid)
    rep = gd.gordon_sweep(SPEC, **sweep)
    assert not rep.passed
    assert [f["stage"] for f in rep.falsifications] == [stage] * 6
    monkeypatch.setattr(gd, target, defect)
    with pytest.raises(RuntimeError, match="defect"):
        gd.gordon_sweep(SPEC, **sweep)


def test_sweep_raises_on_a_norm_never_computed(monkeypatch):
    real = gd._norm_slabs

    def drops_one(window, energies, origins, offsets):
        norms = real(window, energies, origins, offsets)
        norms[1, 2, len(offsets[2]) - 1] = -1.0  # as if the lane stopped short
        return norms

    sweep = dict(entry_k=2, n_energies=2, n_origins=3, energy_level=3, grid=2000)
    assert gd.gordon_sweep(SPEC, **sweep).passed
    monkeypatch.setattr(gd, "_norm_slabs", drops_one)
    with pytest.raises(RuntimeError, match="never computed"):
        gd.gordon_sweep(SPEC, **sweep)


def test_sweep_falsifies_a_nan_margin(monkeypatch):
    real = gd._norm_slabs
    poisoned = []

    def nan_lane(window, energies, origins, offsets):
        norms = real(window, energies, origins, offsets)
        norms[0, 2, : len(offsets[2])] = math.nan  # as if the lane overflowed
        poisoned.append((float(energies[2]), int(origins[2])))
        return norms

    monkeypatch.setattr(gd, "_norm_slabs", nan_lane)
    report = gd.gordon_sweep(
        SPEC, entry_k=2, n_energies=2, n_origins=3, energy_level=3, grid=2000
    )
    assert not report.passed
    bound = [f for f in report.falsifications if f["stage"] == "bound"]
    assert len(bound) == 1
    assert (bound[0]["energy"], bound[0]["origin"]) == poisoned[0]
    assert math.isnan(bound[0]["margin"])
    assert math.isnan(report.min_margin)
    # the histogram bins the finite margins; the NaN is a listed falsification
    hist = report.as_dict()["margins_histogram"]
    assert sum(hist["counts"]) == sum(map(math.isfinite, report.margins))


def test_sweep_margins_match_verify_bound(monkeypatch):
    """Each sweep margin, basis by basis, against a classified, propagated pair.

    The sweep walks the classifier once per origin and trace answer, so
    every (energy, origin) pair is classified here on its own.
    """
    windows = []
    real = gd.classify_case

    def recorded(window, spec, k, h, origin, partitions, max_climb):
        windows.append(window)
        return real(window, spec, k, h, origin=origin, partitions=partitions,
                    max_climb=max_climb)

    monkeypatch.setattr(gd, "classify_case", recorded)
    n_o = 25
    rep = gd.gordon_sweep(SPEC, entry_k=2, n_energies=5, n_origins=n_o,
                          energy_level=5, max_scale=8, seed=3, grid=20_000)
    assert rep.passed and len(rep.origins) == n_o
    window, store = windows[0], {}
    htab = cc.trace_recursion_f64(SPEC, 9, np.array(rep.energies))
    labels, want = [], []
    for ie, e in enumerate(rep.energies):
        h = list(htab[:, ie])
        for o in rep.origins:
            lab = real(window, SPEC, 2, h, origin=o, partitions=store, max_climb=6)
            labels.append(lab)
            for basis in gd._BASES:
                tr = gd.propagate(window, e, phi_init=basis, origin=o,
                                  lo=o - 2 * lab.m - 2, hi=o + 2 * lab.m + 2)
                part = store[lab.trace_level] if lab.trace_level is not None else None
                want.append(gd.verify_bound(tr, lab, h, spec=SPEC, partition=part).margin)
    assert {lab.kind for lab in labels} == {"cube", "square"}
    assert rep.case_counts == dict(Counter(lab.case_id for lab in labels))
    # math.hypot and np.hypot may round apart in the last place
    assert rep.margins == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_verify_bound_fails_on_a_nan_norm_in_any_slot():
    store = {}
    for o in range(20_000, 60_000, 7):
        lab = gd.classify_case(WINDOW, SPEC, 2, HVALS, origin=o, partitions=store)
        if lab.kind == "cube":
            break
    reach = 2 * lab.m + 2
    tr = gd.propagate(WINDOW, E_IN, origin=o, lo=o - reach, hi=o + reach)
    assert gd.verify_bound(tr, lab, HVALS, spec=SPEC).holds
    for rel in gd._offsets(lab):
        phi = tr.phi.copy()
        phi[o + rel - tr.lo] = math.nan  # ||Phi(rel)|| reads phi(o + rel)
        bad = gd.SolutionTrack(tr.window, tr.energy, tr.origin, tr.lo, phi)
        rep = gd.verify_bound(bad, lab, HVALS, spec=SPEC)
        assert math.isnan(rep.value) and not rep.holds, rel
    # the sweep's lane form: norms along the last axis
    nan = math.nan
    lanes = np.array([[[1.0, nan, 2.0], [3.0, 1.0, 2.0]]])
    assert np.array_equal(gd._bound_value("cube", lanes), [[nan, 3.0]], equal_nan=True)
    assert np.array_equal(gd._bound_value("square", lanes[..., :2], np.array([2.0, 1.0])),
                          [[nan, 3.0]], equal_nan=True)
    for norms in ([nan, 1.0], [1.0, nan]):
        assert math.isnan(gd._bound_value("square", norms, 1.5))


def test_sweep_falsifies_a_nan_norm_past_the_first_slot(monkeypatch):
    real = gd._norm_slabs

    def nan_slot(window, energies, origins, offsets):
        norms = real(window, energies, origins, offsets)
        norms[1, 2, 1] = math.nan
        return norms

    monkeypatch.setattr(gd, "_norm_slabs", nan_slot)
    report = gd.gordon_sweep(
        SPEC, entry_k=2, n_energies=2, n_origins=3, energy_level=3, grid=2000
    )
    bound = [f for f in report.falsifications if f["stage"] == "bound"]
    assert len(bound) == 1 and bound[0]["basis"] == gd._BASES[1]
    assert math.isnan(bound[0]["margin"]) and math.isnan(report.min_margin)


def ref_gordon_sweep(spec, entry_k, n_energies, n_origins, energy_level=None,
                     max_scale=None, seed=0, grid=20_000):
    """The sweep as one classify_case call per (energy, origin) pair,
    then one structural re-check and one bound per classified pair."""
    if energy_level is None:
        energy_level = entry_k + 5
    if max_scale is None:
        max_scale = energy_level + 2
    rng = np.random.default_rng(seed)
    approx = sp.band_approximant(spec, energy_level, grid=grid)
    energies = approx.sample_energies(per_band=3)
    rng.shuffle(energies)
    energies = sorted(energies[:n_energies])
    ell_top = spec.block_length(max_scale)
    margin_room = 2 * ell_top + 2
    need = (4 * spec.tail_period(max_scale + 1) + 3) * ell_top + 2 * margin_room
    window = spec.window(1, need)
    origins = np.sort(
        rng.integers(window.start + margin_room + 1, window.end - margin_room - 1,
                     size=n_origins)
    )
    htab = gd.trace_recursion_f64(spec, max(max_scale + 1, entry_k + 2),
                                  np.asarray(energies))
    parts_store = {}
    parts = gd._Partitions(window, spec, parts_store)
    labels = {}
    falsifications = []
    for ie, e in enumerate(energies):
        h = list(htab[:, ie])
        for io, o in enumerate(origins):
            try:
                labels[(ie, io)] = gd.classify_case(
                    window, spec, entry_k, h, origin=int(o),
                    partitions=parts_store, max_climb=max(max_scale - entry_k, 1),
                )
            except sq.ValidationError as exc:
                falsifications.append({"energy": float(e), "origin": int(o),
                                       "stage": "classify", "error": repr(exc)})
    offsets = [gd._offsets(lab) for lab in labels.values()]
    pairs = np.array(list(labels), dtype=np.int64).reshape(-1, 2)
    norms = gd._norm_slabs(window, np.asarray(energies)[pairs[:, 0]],
                           origins[pairs[:, 1]], offsets)
    case_counts = {}
    margins = []
    for lane, ((ie, io), lab) in enumerate(labels.items()):
        case_counts[lab.case_id] = case_counts.get(lab.case_id, 0) + 1
        e = energies[ie]
        o = int(origins[io])
        try:
            gd._verify_structural(window, lab, o, parts)
        except sq.ValidationError as exc:
            falsifications.append({"energy": float(e), "origin": o,
                                   "stage": "structure", "error": repr(exc)})
            continue
        hn = abs(htab[lab.trace_level, ie]) if lab.trace_level is not None else None
        for basis, nb in zip(gd._BASES, norms[:, lane, : len(offsets[lane])]):
            margin = float(gd._bound_value(lab.kind, nb, hn) - 0.5)
            margins.append(margin)
            if not margin >= -gd.BOUND_SLACK:
                falsifications.append({"energy": float(e), "origin": o, "stage": "bound",
                                       "basis": basis, "margin": margin,
                                       "label": lab.case_id})
    return gd.SweepReport(
        case_counts=case_counts, margins=tuple(margins),
        min_margin=float(np.min(margins)) if margins else math.nan,
        falsifications=tuple(falsifications),
        energies=tuple(float(x) for x in energies),
        origins=tuple(int(x) for x in origins),
    )


def assert_same_sweep(got, want):
    """Field by field; NaN equals NaN, and repr keeps float types apart."""
    assert got.case_counts == want.case_counts
    assert list(got.case_counts) == list(want.case_counts)
    assert np.array_equal(got.margins, want.margins, equal_nan=True)
    assert repr(got.margins) == repr(want.margins)
    assert repr(got.min_margin) == repr(want.min_margin)
    assert repr(got.falsifications) == repr(want.falsifications)
    assert (got.energies, got.origins) == (want.energies, want.origins)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_matches_per_pair_reference(monkeypatch, seed):
    simple3 = simple_spec()
    want = ref_gordon_sweep(simple3, 2, 40, 500, seed=seed, grid=2000)
    walks, rechecks = [], []
    classify, structural = gd.classify_case, gd._verify_structural

    def walk(window, spec, k, h, origin, **kw):
        try:
            return classify(window, spec, k, h, origin=origin, **kw)
        finally:
            walks.append((origin, list(h), sorted(h.read)))

    def recheck(window, lab, origin, parts):
        rechecks.append((origin, lab))
        return structural(window, lab, origin, parts)

    monkeypatch.setattr(gd, "classify_case", walk)
    monkeypatch.setattr(gd, "_verify_structural", recheck)
    got = gd.gordon_sweep(simple3, 2, 40, 500, seed=seed, grid=2000)
    assert_same_sweep(got, want)
    assert len(got.falsifications) == (44 if seed == 1 else 0)
    # no origin is walked twice for one answer at the levels a walk read
    answer = lambda h, read: tuple(  # noqa: E731
        (abs(h[j]) <= 2.0, abs(h[j]) > 2.0) for j in read)
    seen = set()
    for origin, h, read in walks:
        for o, prior in seen:
            assert not (o == origin and answer(h, prior[1]) == prior[0])
        seen.add((origin, (answer(h, read), tuple(read))))
    assert len(walks) < 40 * 500 // 10
    assert len(rechecks) == len(set(rechecks)) < 40 * 500 // 10


def test_sweep_matches_reference_on_edge_traces(monkeypatch):
    """NaN, exactly +-2 and +-inf at the levels the classifier reads.

    An s hat's trace split reads h_2 and h_3, a t hat's h_3 and h_4.
    Energies j and j + 8 get row j of the table at levels 2-4, so walks
    can be shared across energies; the outputs must still equal one
    walk per pair.
    """
    nan, inf = math.nan, math.inf
    table = np.array([
        [nan, nan, nan], [2.0, -2.0, inf], [-2.0, nan, -inf], [inf, -inf, nan],
        [inf, nan, 2.0], [-inf, 2.0, inf], [nan, inf, -2.0], [nan, -2.0, nan],
    ])
    real = gd.trace_recursion_f64

    def poisoned(spec, K, e_grid):
        htab = real(spec, K, e_grid).copy()
        htab[2:5, :8] = htab[2:5, 8:16] = table.T
        return htab

    monkeypatch.setattr(gd, "trace_recursion_f64", poisoned)
    sweep = dict(entry_k=2, n_energies=20, n_origins=60, energy_level=3, grid=2000)
    got = gd.gordon_sweep(SPEC, **sweep)
    assert_same_sweep(got, ref_gordon_sweep(SPEC, **sweep))
    assert {f["stage"] for f in got.falsifications} == {"classify", "bound"}
    # a NaN |h_3| passes as "not > 2" into a square whose bound is then NaN
    assert any(math.isnan(f.get("margin", 0.0)) for f in got.falsifications)


def test_sweep_leaves_no_reference_cycles(monkeypatch):
    real = gd.classify_case

    def odd_origins_fail(window, spec, k, h, origin, **kw):
        if origin % 2:
            raise sq.ValidationError("no certificate at %d" % origin)
        return real(window, spec, k, h, origin=origin, **kw)

    sweep = dict(entry_k=2, n_energies=4, n_origins=10, energy_level=3, grid=2000)
    gd.gordon_sweep(SPEC, **sweep)  # warm caches
    monkeypatch.setattr(gd, "classify_case", odd_origins_fail)
    gc.collect()
    gc.disable()
    try:
        rep = gd.gordon_sweep(SPEC, **sweep)
        assert rep.falsifications and rep.margins
        del rep
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sweep_rejects_levels_a_walk_cannot_reach():
    small = dict(n_energies=2, n_origins=3, grid=2000)
    for kwargs, name in (
        (dict(entry_k=-1), "entry_k"),
        (dict(entry_k=2, energy_level=-1, max_scale=6), "energy_level"),
        (dict(entry_k=2, energy_level=0), "max_scale"),
        (dict(entry_k=2, energy_level=3, max_scale=3), "max_scale"),
    ):
        with pytest.raises(sq.ValidationError, match=name):
            gd.gordon_sweep(SPEC, **small, **kwargs)
    # the shallowest accepted sweep: max_scale = entry_k + 2
    assert gd.gordon_sweep(SPEC, entry_k=2, energy_level=2, **small).energies


def test_classifier_names_the_origin_without_neighbors():
    part = sq.k_partition(WINDOW, SPEC, 2)
    for origin in (int(part.starts[0]) + 4, int(part.starts[-1]) + 1):
        with pytest.raises(sq.WindowTooShortError,
                           match=r"^origin %d too close to the window edge for "
                                 r"level-2 neighbors$" % origin) as err:
            gd.classify_case(WINDOW, SPEC, 2, HVALS, origin=origin)
        assert err.value.required == (len(part.labels) + 2) * part.block_len


def test_norm_slabs_step_both_sides_in_one_pass(monkeypatch):
    """The seed-1 certify sweep reads offsets from -2187 to 4374: forward and
    backward runs step together, 4374 coefficient rows in all, where one
    pass per side took 4374 + 2187 = 6561.  The call's traced peak stays
    below 7.6 MB; the pass per side peaked at 7.7 to 8.8 MB on this sweep
    (about 5.7 MB with coefficients gathered in chunks from the codes)."""
    rows, peaks = [0], []
    real_run, real_slabs = gd.transfer_run, gd._norm_slabs

    def counting(coeffs, cur, prev, trail=None):
        def counted():
            for c in coeffs:
                rows[0] += 1
                yield c
        return real_run(counted(), cur, prev, trail)

    def traced(*args):
        tracemalloc.start()
        try:
            return real_slabs(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(gd, "transfer_run", counting)
    monkeypatch.setattr(gd, "_norm_slabs", traced)
    report = gd.gordon_sweep(SPEC, 2, 40, 500, seed=1, grid=2000)
    assert len(report.falsifications) == 44
    assert rows == [4374]
    assert len(peaks) == 1 and peaks[0] < 7_600_000


def test_norm_slabs_name_the_lane_that_leaves_the_window():
    w = SPEC.window(1, 400)  # sites 1 .. 400
    # each lane is checked against its own reach, the first offender named
    lanes = dict(energies=[0.3, 0.7, 0.9, 0.9], origins=[200, 300, 390, 100],
                 offsets=[(-1, 150), (60, 101), (10,), (1000,)])
    with pytest.raises(sq.WindowTooShortError,
                       match=r"forward propagation: origin 300 at energy 0\.7 "
                             r"needs site 401") as err:
        gd._norm_slabs(w, **lanes)
    assert err.value.required == 401
    lanes["offsets"][3] = (-1,)
    lanes["offsets"][1] = (60, 100)  # phi(400), the window's last site
    gd._norm_slabs(w, **lanes)
    # backward phi(origin + t - 1) must exist: origin 40 at t = -38 reads
    # phi(1), the first site; origin 50 at t = -49 needs site 0
    with pytest.raises(sq.WindowTooShortError,
                       match=r"backward propagation: origin 50 at energy 0\.3 "
                             r"needs site 0") as err:
        gd._norm_slabs(w, [0.1, 0.3, 0.3], [40, 50, 60], [(-38, 5), (-49,), (-70,)])
    assert err.value.required == 0


def test_rotation_check_reads_the_cached_spec_block():
    sq.blocks.cache_clear()
    parts = gd._Partitions(WINDOW, SPEC, {})
    for level in (3, 3, 4, 3):
        part = parts.at(level)
        s_lo, t_lo = (int(part.starts[part.labels.index(b)]) + 5 for b in "st")
        gd._check_rotation(WINDOW, s_lo, parts, level)
        with pytest.raises(gd.GordonStructureError):  # a t-block's last letter
            gd._check_rotation(WINDOW, t_lo, parts, level)
    # the partition and the rotation check share one build per level
    assert sq.blocks.cache_info().misses == 2
    assert sq.blocks(SPEC, 3) is sq.blocks(SPEC, 3)


def test_small_sweep_has_no_falsifications():
    rep = gd.gordon_sweep(
        SPEC, entry_k=2, n_energies=5, n_origins=25,
        energy_level=5, max_scale=8, seed=3, grid=20_000,
    )
    assert rep.passed
    assert rep.min_margin >= -1e-9
    assert sum(rep.case_counts.values()) == 5 * 25
    assert "3" not in rep.case_counts  # dead under the period normalization
    d = rep.as_dict()
    assert d["min_margin"] == rep.min_margin
