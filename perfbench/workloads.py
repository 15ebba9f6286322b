"""The benchmark workloads: their seeded inputs, operations and output checks.

An operation is one in-process ``sturmspec.cli.run(argv)`` call writing to
a temporary ``--out``, or one public library call.  Only ``call`` is
timed; ``check`` reads the output afterwards and returns
(failed units, problems).  A problem is a wrong output and makes the run
incorrect; a failed unit without a problem is a pair the program reports
it could not certify.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

GOLDEN = "tests/golden/spectrum_simple3_level4.json"
GOLDEN_ARGS = (4, 20001)  # the (level, grid) the golden file was written at

SIZES = {
    "full": {
        "golden": GOLDEN_ARGS,
        "lower_grid": 100_000,
        "gordon": {"energies": 40, "origins": 500, "grid": 2000, "energy_level": None},
        "nondecay": (10, 2000),
        "lyapunov": (20, 100_000),
        "sparse": (4096, 16),
        "beam": (12, 200),
        "exhaustive": (4, 40),
        "trace_table": (5, 9),
        "generate": 5000,
    },
    "tiny": {
        "golden": (3, 2000),
        "lower_grid": 2000,
        "gordon": {"energies": 2, "origins": 6, "grid": 2000, "energy_level": 3},
        "nondecay": (2, 100),
        "lyapunov": (3, 2000),
        "sparse": (128, 3),
        "beam": (6, 40),
        "exhaustive": (3, 20),
        "trace_table": (1, 5),
        "generate": 200,
    },
}


@dataclass
class Op:
    metric: str  # per-operation time metric the call's time is added to
    name: str  # span and summary name
    units: int  # operations this call counts for in `attempted`
    call: Callable[[], object]
    check: Callable[[object], tuple]


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path):
    """Data rows of a CLI CSV file: provenance comments and header dropped."""
    with open(path, encoding="utf-8") as fh:
        lines = [l for l in fh.read().splitlines() if l and not l.startswith("#")]
    return list(csv.reader(lines[1:]))


def _exit_ok(code):
    return 0 if code == 0 else 1, [] if code == 0 else ["exit code %r" % code]


# ---------------------------------------------------------------------------
# bands: spectrum approximants and a nesting check on simple3
# ---------------------------------------------------------------------------


def bands_inputs(env, rng):
    return {}  # fixed inputs: the seed does not change them


def bands_ops(env, inputs):
    """Spectrum at the golden level g and at g - 1, then the test-05 nesting
    sigma_(g+1) inside sigma_(g-1) u sigma_g on the level-(g-1) grid."""
    ss, size = env.ss, env.size
    spec = env.spec("simple3")
    g, g_grid = size["golden"]
    lower_grid = size["lower_grid"]
    sets = {}

    def spectrum_op(level, grid, out, check_bytes):
        def call():
            return env.cli(["spectrum", "--spec", env.config("simple3"), "--level",
                            str(level), "--grid", str(grid), "--tol", "1e-10",
                            "--format", "json", "--out", out])

        def check(code):
            if code != 0:
                return _exit_ok(code)
            result = _json(out)["result"]
            for key, lev in (("sigma_k", level), ("sigma_k_plus_1", level + 1)):
                sets[lev] = ss.spectrum.BandSet(
                    intervals=tuple(tuple(iv) for iv in result[key]["intervals"]),
                    level=lev, refinement_tol=result[key]["tol"])
                env.stats["bands_found.k%d.grid%d" % (lev, grid)] = len(sets[lev])
                env.stats["bands_expected.k%d" % lev] = spec.block_length(lev)
            union = [list(iv) for iv in sets[level].union(sets[level + 1]).intervals]
            if union != result["approximant"]["intervals"]:
                return 1, ["level-%d approximant is not the union of its band sets" % level]
            if check_bytes:
                with open(env.root / GOLDEN, "rb") as fh, open(out, "rb") as got:
                    if fh.read() != got.read():
                        return 1, ["spectrum level %d bytes differ from %s" % (level, GOLDEN)]
            return 0, []

        return Op("spectrum_s", "spectrum.level%d.grid%d" % (level, grid), 1, call, check)

    def nesting():
        outer = sets[g - 1].union(sets[g])
        return ss.spectrum.grid_containment(sets[g + 1], outer, (-2.5, 3.5), lower_grid)

    def check_nesting(res):
        violations, checked = res
        if violations or checked <= lower_grid // 100:
            return 1, ["sigma_%d not inside sigma_%d u sigma_%d: %d violations, %d checked"
                       % (g + 1, g - 1, g, len(violations), checked)]
        return 0, []

    return [
        spectrum_op(g, g_grid, env.out("spectrum_golden.json"),
                    check_bytes=(g, g_grid) == GOLDEN_ARGS),
        spectrum_op(g - 1, lower_grid, env.out("spectrum_lower.json"), check_bytes=False),
        Op("containment_s", "grid_containment", 1, nesting, check_nesting),
    ]


# ---------------------------------------------------------------------------
# certify: a Gordon repetition sweep and non-decay scans on simple3
# ---------------------------------------------------------------------------


#: The sweep's cost is set by the deepest certificate scale any of its pairs
#: needs, which jumps between sweep seeds (seed 5 does 1.5x the work of
#: seed 1), so the sweep keeps one seed; the run's seed picks the non-decay
#: energies.  Seed 1 shows the known falsifications: 44 of the 20000 pairs.
SWEEP_SEED = 1


def _gordon_argv(env, out):
    g = env.size["gordon"]
    argv = ["gordon-scan", "--spec", env.config("simple3"), "--level", "2",
            "--energies", str(g["energies"]), "--origins", str(g["origins"]),
            "--grid", str(g["grid"]), "--seed", str(SWEEP_SEED), "--out", out]
    if g["energy_level"] is not None:
        argv += ["--energy-level", str(g["energy_level"])]
    return argv


def certify_inputs(env, rng):
    """The sweep's own energies, from the same public call with one origin.

    gordon_sweep draws energies before origins from one seeded generator,
    so the energy list does not depend on the origin count.
    """
    g = env.size["gordon"]
    report = env.ss.gordon.gordon_sweep(
        env.spec("simple3"), entry_k=2, n_energies=g["energies"], n_origins=1,
        energy_level=g["energy_level"], seed=SWEEP_SEED, grid=g["grid"],
    )
    count, _ = env.size["nondecay"]
    picks = rng.choice(len(report.energies), size=count, replace=False)
    return {"nondecay_energies": [report.energies[i] for i in sorted(picks)]}


def certify_ops(env, inputs):
    ss, g = env.ss, env.size["gordon"]
    spec = env.spec("simple3")
    out = env.out("gordon.json")
    pairs = g["energies"] * g["origins"]

    def check_sweep(code):
        if code not in (0, 2):
            return pairs, ["gordon-scan exit code %r" % code]
        res = _json(out)["result"]
        fals = res["falsifications"]
        problems = []
        if (code == 0) != (not fals):
            problems.append("exit code %d with %d falsifications" % (code, len(fals)))
        if (res["n_energies"], res["n_origins"]) != (g["energies"], g["origins"]):
            problems.append("sweep size %r x %r" % (res["n_energies"], res["n_origins"]))
        unclassified = sum(1 for f in fals if f["stage"] == "classify")
        if sum(res["cases"].values()) + unclassified != pairs:
            problems.append("classified + unclassified pairs != %d" % pairs)
        failed = len({(f["energy"], f["origin"]) for f in fals})
        env.stats["falsifications"] = env.stats.get("falsifications", 0) + failed
        return (pairs if problems else failed), problems

    def nondecay_op(e):
        _, n_target = env.size["nondecay"]
        return Op("nondecay_s", "nondecay_scan", 1,
                  lambda: ss.gordon.nondecay_scan(spec, e, n_target),
                  lambda rep: (0 if rep.passed else 1, []))

    return [Op("gordon_scan_s", "gordon-scan", pairs,
               lambda: env.cli(_gordon_argv(env, out)), check_sweep)] + [
        nondecay_op(e) for e in inputs["nondecay_energies"]
    ]


# ---------------------------------------------------------------------------
# walk: per-site work on a few lanes, complexity, rendering
# ---------------------------------------------------------------------------


def walk_inputs(env, rng):
    n_e, _ = env.size["lyapunov"]
    n_tt, _ = env.size["trace_table"]
    return {
        "lyapunov": {name: [float(x) for x in rng.uniform(-2.5, 3.5, n_e)]
                     for name in ("fib", "simple3", "sparse3")},
        "sparse_energy": float(rng.uniform(-1.9, 1.9)),
        "beam_start": int(rng.integers(0, 100_000)),
        "exhaustive_start": int(rng.integers(0, 100_000)),
        "trace_energies": [float(x) for x in rng.uniform(-3.0, 4.0, n_tt)],
        "generate_start": int(rng.integers(0, 1_000_000)),
    }


def walk_ops(env, inputs):
    ss, size = env.ss, env.size
    ops = []

    for name, energies in inputs["lyapunov"].items():
        out = env.out("lyapunov_%s.csv" % name)

        def check_lyap(code, out=out, n=len(energies)):
            if code != 0:
                return _exit_ok(code)
            rows = _csv_rows(out)
            if len(rows) != n or not all(math.isfinite(float(x)) for r in rows for x in r):
                return 1, ["lyapunov output is not %d finite rows" % n]
            return 0, []

        # "=" keeps a leading minus sign from reading as an option
        argv = ["lyapunov", "--spec", env.config(name),
                "--energies=" + ",".join(repr(e) for e in energies),
                "--n-steps", str(size["lyapunov"][1]), "--out", out]
        ops.append(Op("lyapunov_s", "lyapunov." + name, 1,
                      lambda argv=argv: env.cli(argv), check_lyap))

    n, eigs = size["sparse"]
    sparse_out = env.out("sparse.json")

    def check_sparse(code):
        from scipy.linalg import eigh_tridiagonal

        if code != 0:
            return _exit_ok(code)
        res = _json(sparse_out)["result"]
        spec = env.spec("sparse3")
        d = ss.spectrum.HalfLineOperator(n, spec.window(1, n + 64)).diagonal()
        ref = eigh_tridiagonal(d, np.ones(n - 1), eigvals_only=True,
                               select="i", select_range=(n - eigs, n - 1))
        got = np.asarray(res["top_eigenvalues"])
        problems = []
        if got.shape != ref.shape or np.max(np.abs(got - ref)) > 1e-9:
            problems.append("halfline_eigs disagrees with eigh_tridiagonal")
        if not all(math.isfinite(t) for t in res["certificate"]["terms"]):
            problems.append("non-finite certificate terms")
        return (1 if problems else 0), problems

    ops.append(Op("sparse_check_s", "sparse-check", 1, lambda: env.cli(
        ["sparse-check", "--spec", env.config("sparse3"),
         "--energy=" + repr(inputs["sparse_energy"]), "--n", str(n), "--eigs", str(eigs),
         "--out", sparse_out]), check_sparse))

    for mode, start in (("beam", inputs["beam_start"]),
                        ("exhaustive", inputs["exhaustive_start"])):
        n_max, t_max = size[mode]
        out = env.out("complexity_%s.json" % mode)

        def check_cx(code, out=out):
            if code != 0:
                return _exit_ok(code)
            res = _json(out)["result"]
            bad = [m for m, p, ps in zip(res["n"], res["p"], res["pstar"])
                   if not p <= ps <= 2 * m]
            if bad:
                return 1, ["p(n) <= p*(n) <= 2n fails on fib at n = %s" % bad]
            return 0, []

        argv = ["complexity", "--spec", env.config("fib"), "--n-max", str(n_max),
                "--t-max", str(t_max), "--start", str(start), "--format", "json",
                "--out", out]
        ops.append(Op("complexity_s", "complexity." + mode, 1,
                      lambda argv=argv: env.cli(argv), check_cx))

    _, k = size["trace_table"]
    for i, e in enumerate(inputs["trace_energies"]):
        out = env.out("trace_table_%d.json" % i)

        def check_tt(code, out=out):
            if code != 0:
                return _exit_ok(code)
            diff = _json(out)["result"]["max_rel_diff"]
            if not diff <= 1e-8:  # TraceTable.check_equivalence(1e-8)
                return 1, ["trace routes disagree: rel diff %r" % diff]
            return 0, []

        argv = ["trace-table", "--spec", env.config("simple3"), "--energy=" + repr(e),
                "--k", str(k), "--format", "json", "--out", out]
        ops.append(Op("trace_table_s", "trace-table", 1,
                      lambda argv=argv: env.cli(argv), check_tt))

    length, start = size["generate"], inputs["generate_start"]
    gen_out = env.out("generate.csv")

    def check_generate(code):
        if code != 0:
            return _exit_ok(code)
        window = env.spec("fib").window(start, length, allow_periodic=True)
        expected = [[str(start + i), s, repr(float(v))] for i, (s, v)
                    in enumerate(zip(window.symbols, window.values()))]
        got = [[r[0], r[1], repr(float(r[2]))] for r in _csv_rows(gen_out)]
        if got != expected:
            return 1, ["generate rows differ from the library window"]
        return 0, []

    ops.append(Op("generate_s", "generate", 1, lambda: env.cli(
        ["generate", "--spec", env.config("fib"), "--start", str(start),
         "--len", str(length), "--out", gen_out]), check_generate))
    return ops


WORKLOADS = {
    "bands": (bands_inputs, bands_ops),
    "certify": (certify_inputs, certify_ops),
    "walk": (walk_inputs, walk_ops),
}

#: every per-operation time metric, in summary order
OP_METRICS = ("spectrum_s", "containment_s", "gordon_scan_s", "nondecay_s",
              "lyapunov_s", "sparse_check_s", "complexity_s", "trace_table_s",
              "generate_s")
