"""Solution propagation, case classification, norm bounds."""

import math

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


def test_propagate_matches_word_matrix():
    e = E_IN
    tr = gd.propagate(WINDOW.slice(1, 400), e, origin=100, phi_init=(0.0, 1.0))
    for n in (7, 60, 150):
        m = cc.word_matrix(WINDOW.slice(100, 100 + n), e)
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


def test_classifier_needs_trace_depth():
    with pytest.raises(sq.ValidationError):
        gd.classify_case(WINDOW, SPEC, 2, HVALS[:2], origin=5000)


def test_classifier_rejects_foreign_window():
    codes = np.zeros(3000, dtype=np.int16)
    codes[::2] = 1
    bad = sq.Window(0, codes, AB)
    with pytest.raises(sq.PartitionError):
        gd.classify_case(bad, SPEC, 1, HVALS, origin=1500)


def test_classifier_reentry_flag_accepts_both_modes():
    store = {}
    for mode in ("same-origin", "block-start"):
        lab = gd.classify_case(
            WINDOW, SPEC, 2, HVALS, origin=7777, partitions={}, reentry=mode
        )
        assert lab.kind in ("cube", "square")
    with pytest.raises(sq.ValidationError):
        gd.classify_case(WINDOW, SPEC, 2, HVALS, origin=7777, reentry="elsewhere")


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


def test_nondecay_probe_validation():
    with pytest.raises(sq.ValidationError):
        gd.nondecay_scan(SPEC, E_IN, 100, probes=[200])


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
