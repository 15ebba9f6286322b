"""Per-layer unit costs, each measured alone on fixed inputs.

Every traced run measures all of them, whatever the workload, so each
per-layer time is a real measurement on every workload.  Each probe runs
inside a tracer span named after its metric.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

PROBE_SIZES = {
    "full": {
        "window_sites": 1_000_000,
        "partition": (400_000, 9),
        "classify": (4, 250),
        "exhaustive": (3, 60),
        "beam": (8, 100),
        "trace_lanes": 100_000,
        "lyapunov_steps": 20_000,
        "trace_table_k": 9,
        "sigma_grid": 100_000,
        "sturm": (1024, 16),
        "power_steps": 10_000,
        "propagate_sites": 200_000,
        "generate_len": 2000,
    },
    "tiny": {
        "window_sites": 10_000,
        "partition": (20_000, 5),
        "classify": (2, 20),
        "exhaustive": (3, 20),
        "beam": (5, 30),
        "trace_lanes": 1000,
        "lyapunov_steps": 2000,
        "trace_table_k": 5,
        "sigma_grid": 2000,
        "sturm": (128, 4),
        "power_steps": 1000,
        "propagate_sites": 2000,
        "generate_len": 200,
    },
}

SIGMA_LEVELS = (4, 5, 6)

#: library calls each subcommand wraps: (module name, attribute) pairs;
#: a class name before the dot patches a method
CLI_LIBRARY = {
    "generate": [("sequences", "CircleMapSpec.window")],
    "complexity": [("complexity", "complexity_report")],
    "spectrum": [("spectrum", "sigma_n")],
    "lyapunov": [("cocycle", "lyapunov_scan")],
    "trace-table": [("cocycle", "trace_table")],
    "gordon-scan": [("gordon", "gordon_sweep")],
    "sparse-check": [("spectrum", "sparse_essential_spectrum"),
                     ("spectrum", "sparse_no_eigenvalue_certificate"),
                     ("spectrum", "halfline_eigs")],
}


def _timed(fn, repeat=1):
    """(median seconds, last result) over `repeat` calls."""
    times, result = [], None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _cli_argv(env, sub, size):
    n = size["generate_len"]
    return {
        "generate": ["--spec", env.config("fib"), "--len", str(n)],
        "complexity": ["--spec", env.config("fib"), "--n-max", "6", "--t-max", "40",
                       "--window", "2000"],
        "spectrum": ["--spec", env.config("simple3"), "--level", "2", "--grid", "20001"],
        "lyapunov": ["--spec", env.config("simple3"), "--energies", "0.1,0.2",
                     "--n-steps", "10000"],
        "trace-table": ["--spec", env.config("simple3"), "--energy", "0.3", "--k", "6"],
        "gordon-scan": ["--spec", env.config("simple3"), "--level", "2", "--energies", "2",
                        "--origins", "6", "--energy-level", "3", "--grid", "2000"],
        "sparse-check": ["--spec", env.config("sparse3"), "--energy", "0.0",
                         "--n", "512", "--eigs", "4"],
    }[sub]


def run_probes(env, tracer) -> dict:
    """{metric: (value, unit)} for every probe-based per-layer metric."""
    ss = env.ss
    size = PROBE_SIZES[env.size_name]
    simple3, fib, sparse3 = env.spec("simple3"), env.spec("fib"), env.spec("sparse3")
    out = {}

    def probe(name, unit, fn):
        with tracer.span(name):
            out[name] = (fn(), unit)

    # sequences ---------------------------------------------------------------
    n = size["window_sites"]
    for kind, make in (
        ("circle_map", lambda: fib.window(0, n, allow_periodic=True)),
        ("toeplitz", lambda: simple3.window(1, n)),
        ("sparse", lambda: sparse3.window(1, n)),
    ):
        probe("sequences.window_ns_per_site." + kind, "ns",
              lambda make=make: _timed(make, 3)[0] / n * 1e9)

    length, top = size["partition"]
    window = simple3.window(1, length)
    parts = {}

    def partitions():
        for level in range(1, top + 1):
            parts[level] = ss.sequences.k_partition(
                window, simple3, level, refine_from=parts.get(level - 1))

    probe("sequences.k_partition_s", "s", lambda: _timed(partitions)[0])

    # complexity --------------------------------------------------------------
    cx_window = fib.window(0, 5000, allow_periodic=True)
    n_max, t_max = size["exhaustive"]
    templates = 1 + sum(math.comb(t_max, m - 1) for m in range(2, n_max + 1))
    probe("complexity.template_us", "us", lambda: _timed(
        lambda: ss.complexity.pstar_profile(cx_window, n_max, t_max, mode="exhaustive")
    )[0] / templates * 1e6)
    b_n, b_t = size["beam"]
    probe("complexity.beam_s", "s", lambda: _timed(
        lambda: ss.complexity.pstar_profile(cx_window, b_n, b_t, mode="beam"))[0])

    # cocycle -----------------------------------------------------------------
    lanes = size["trace_lanes"]
    grid = np.linspace(-2.5, 3.5, lanes)
    probe("cocycle.trace_ns_per_lane_level", "ns", lambda: _timed(
        lambda: ss.cocycle.trace_recursion_f64(simple3, 8, grid), 5)[0] / (lanes * 9) * 1e9)
    steps = size["lyapunov_steps"]
    energies = list(np.linspace(-2.0, 3.0, 20))
    probe("cocycle.lyapunov_ns_per_site_lane", "ns", lambda: _timed(
        lambda: ss.cocycle.lyapunov_scan(simple3, energies, n_steps=steps, samples=4)
    )[0] / (steps * 80) * 1e9)
    probe("cocycle.trace_table_s", "s", lambda: _timed(
        lambda: ss.cocycle.trace_table(simple3, 0.3, size["trace_table_k"]))[0])

    # spectrum ----------------------------------------------------------------
    sig_grid = size["sigma_grid"]
    sigmas = {}
    calls_before = tracer.counts["trace.calls"]
    for k in SIGMA_LEVELS:
        def sigma(k=k):
            seconds, sigmas[k] = _timed(
                lambda: ss.spectrum.sigma_n(simple3, k, grid=sig_grid, tol=1e-10))
            return seconds

        probe("spectrum.sigma_n_s.k%d" % k, "s", sigma)
        out["spectrum.bands_found.k%d" % k] = (len(sigmas[k]), "count")
        out["spectrum.band_recall.k%d" % k] = (
            len(sigmas[k]) / simple3.block_length(k), "ratio")
    edges = 2 * sum(len(s) for s in sigmas.values())
    out["spectrum.trace_calls_per_edge"] = (
        (tracer.counts["trace.calls"] - calls_before) / max(edges, 1), "ratio")
    k4, k5, k6 = (sigmas[k] for k in SIGMA_LEVELS)
    probe("spectrum.containment_s", "s", lambda: _timed(
        lambda: ss.spectrum.grid_containment(k6, k4.union(k5), (-2.5, 3.5), sig_grid))[0])
    s_n, s_count = size["sturm"]
    op = ss.spectrum.HalfLineOperator(s_n, sparse3.window(1, s_n + 64))
    probe("spectrum.sturm_ns_per_site_eig", "ns", lambda: _timed(
        lambda: ss.spectrum.halfline_eigs(op, count=s_count))[0] / (s_n * s_count) * 1e9)
    probe("spectrum.sampled_power_sup_s", "s", lambda: _timed(
        lambda: ss.spectrum.sampled_power_sup(0.3, size["power_steps"]), 3)[0])

    # gordon ------------------------------------------------------------------
    n_e, n_o = size["classify"]
    class_energies = k6.sample_energies()[:: max(len(k6) // n_e, 1)][:n_e]
    htab = ss.cocycle.trace_recursion_f64(simple3, top + 1, np.asarray(class_energies))
    margin = 2 * simple3.block_length(top) + 2
    origins = np.random.default_rng(0).integers(
        window.start + margin, window.end - margin, size=n_o)

    def classify_all():
        for ie in range(len(class_energies)):
            h = list(htab[:, ie])
            for o in origins:
                try:
                    ss.gordon.classify_case(window, simple3, 2, h, origin=int(o),
                                            partitions=parts, max_climb=top - 2)  # as the sweep
                except ss.sequences.ValidationError:
                    pass  # an unclassified pair still costs a classification

    probe("gordon.classify_us_per_pair", "us", lambda: _timed(classify_all)[0]
          / (len(class_energies) * n_o) * 1e6)
    sites = size["propagate_sites"]
    prop_window = simple3.window(1, sites)
    probe("gordon.propagate_ns_per_site", "ns", lambda: _timed(
        lambda: ss.gordon.propagate(prop_window, 0.3, origin=1 + sites // 2))[0] / sites * 1e9)

    # config ------------------------------------------------------------------
    def load_all():
        for name in ("fib", "simple3", "sparse3"):
            ss.config.build_spec(ss.config.parse_config(env.config(name)))

    probe("config.load_s", "s", lambda: _timed(load_all, 5)[0])

    # cli ---------------------------------------------------------------------
    for sub, targets in CLI_LIBRARY.items():
        def overhead(sub=sub, targets=targets):
            key = "library." + sub
            for module, attr in targets:
                owner = getattr(ss, module)
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                tracer.timed(owner, attr, key)
            argv = [sub] + _cli_argv(env, sub, size) + ["--out", env.out("probe.out")]
            try:
                seconds, code = _timed(lambda: env.cli(argv))
            finally:
                tracer.restore_last(len(targets))
            if code != 0 and not (sub == "gordon-scan" and code == 2):
                raise RuntimeError("probe %s exited %r" % (sub, code))
            return seconds - tracer.busy[key]

        probe("cli.overhead_s." + sub, "s", overhead)
    return out
