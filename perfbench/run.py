#!/usr/bin/env python3
"""sturmspec benchmark: one process, one thread, one caller in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload bands|certify|walk --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Untraced (--trace 0): whole passes of the workload run back to back until
S seconds have passed; the end-to-end metrics are medians over passes.
A pass's time is reported in seconds in the summary and, as the gated
wall_cal metric, in units of a reference kernel timed alongside it
(see speed.py).  Traced (--trace 1): an untraced pass, a pass with
counting wrappers and spans, another untraced pass, then the per-layer
unit-cost probes; the per-layer metrics are reported.  Every operation's output is checked.  The last
line of stdout is the JSON result; the lines before it give the
provenance and each timing's median, tail percentile and sample count.
Full records, and the spans of a traced run, go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ("fib", "simple3", "sparse3")
THREADS_ENV = "STURMSPEC_THREADS"

# one thread: keep numerical libraries from starting pools at import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import probes  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sturmspec.cli
from sturmspec import config
for path in sys.argv[2:]:
    config.build_spec(config.parse_config(path))
print(time.perf_counter() - t0)
"""


class Env:
    """What the operations see: the package, configs, sizes and a scratch dir."""

    def __init__(self, ss, size_name, seed, tmp):
        self.root = ROOT
        self.ss = ss
        self.size_name = size_name
        self.size = workloads.SIZES[size_name]
        self.seed = seed
        self.tmp = tmp
        self.stats = {}
        self._specs = {}

    def config(self, name):
        return str(ROOT / "configs" / (name + ".cfg"))

    def spec(self, name):
        if name not in self._specs:
            cfg = self.ss.config.parse_config(self.config(name))
            self._specs[name] = self.ss.config.build_spec(cfg)
        return self._specs[name]

    def out(self, name):
        return os.path.join(self.tmp, name)

    def cli(self, argv):
        return self.ss.cli.run(argv)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def check_checkout():
    missing = [p for p in [SRC / "sturmspec" / "__init__.py"]
               + [ROOT / "configs" / (c + ".cfg") for c in CONFIGS] if not p.is_file()]
    if missing:
        fail("not a sturmspec checkout, missing: %s" % ", ".join(map(str, missing)))
    if THREADS_ENV in os.environ:
        fail("%s is set; it is written into the output bytes, unset it" % THREADS_ENV)


def import_sturmspec():
    sys.path.insert(0, str(SRC))
    import sturmspec
    from sturmspec import cli, cocycle, complexity, config, gordon, sequences, spectrum

    if Path(sturmspec.__file__).resolve().parent != SRC / "sturmspec":
        fail("imported sturmspec from %s, not from this checkout" % sturmspec.__file__)
    return argparse.Namespace(cli=cli, cocycle=cocycle, complexity=complexity,
                              config=config, gordon=gordon, sequences=sequences,
                              spectrum=spectrum)


def measure_setup(repeats):
    """Median seconds to import sturmspec and load every config, fresh process each."""
    configs = [str(ROOT / "configs" / (c + ".cfg")) for c in CONFIGS]
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)] + configs,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def provenance(seed):
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted((ROOT / "configs").glob("*.cfg")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    import mpmath
    import scipy

    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        THREADS_ENV: "unset",
    }


def run_pass(env, ops, tracer=None):
    """One pass over the workload's operations, each op timed alone.

    The pass's wall time is the sum of its calls; checks are outside it.
    Untraced passes also record the pass's work in kernel units; traced
    passes record spans instead.
    """
    records = []
    sampler = speed.SpeedSampler() if tracer is None else None
    with sampler or contextlib.nullcontext():
        for op in ops:
            spent = sampler.spent if sampler else 0.0
            start = time.perf_counter()
            try:
                with sampler.call() if sampler else tracer.span(op.name):
                    result = op.call()
            except Exception as exc:  # noqa: BLE001 - a raising call is a failed op
                outcome = (op.units, ["%s raised %r" % (op.name, exc)])
            else:
                outcome = None
            seconds = time.perf_counter() - start - ((sampler.spent - spent) if sampler else 0.0)
            if outcome is None:
                try:
                    outcome = op.check(result)
                except Exception as exc:  # noqa: BLE001 - an unreadable output fails
                    outcome = (op.units, ["%s output check raised %r" % (op.name, exc)])
            records.append({"metric": op.metric, "name": op.name, "seconds": seconds,
                            "units": op.units, "failed": outcome[0], "problems": outcome[1]})
    return {"wall": sum(r["seconds"] for r in records),
            "cal": sampler.work if sampler else None, "ops": records}


def tail(samples):
    """(p, value) for the highest percentile with >= 10 samples beyond it."""
    xs = sorted(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(p * len(xs) / 100)
        if rank >= 1 and len(xs) - rank >= 10:
            return p, xs[rank - 1]
    return None, None


def timing_line(name, samples, unit="s"):
    p, value = tail(samples)
    tail_text = ("p%g %.6g %s" % (p, value, unit) if p is not None
                 else "no percentile has 10 samples beyond it")
    return "%-28s median %.6g %s, %s, n=%d" % (
        name, statistics.median(samples), unit, tail_text, len(samples))


def summarize(passes):
    """Summary lines: pass wall time, and per-op sums per pass and per call."""
    lines = [timing_line("wall_s (per pass)", [p["wall"] for p in passes])]
    if passes[0]["cal"] is not None:
        lines.append(timing_line("wall_cal (per pass)", [p["cal"] for p in passes], "cal"))
    for metric in workloads.OP_METRICS:
        calls = [r["seconds"] for p in passes for r in p["ops"] if r["metric"] == metric]
        if calls:
            sums = [sum(r["seconds"] for r in p["ops"] if r["metric"] == metric)
                    for p in passes]
            lines.append(timing_line(metric + " (per pass)", sums))
            lines.append(timing_line(metric + " (per call)", calls))
    return lines


def counts(passes):
    attempted = sum(r["units"] for p in passes for r in p["ops"])
    failed = sum(r["failed"] for p in passes for r in p["ops"])
    problems = [x for p in passes for r in p["ops"] for x in r["problems"]]
    return attempted, failed, problems


def end_to_end(passes, setup_samples):
    attempted, failed, _ = counts(passes)
    return {
        "wall_cal": (statistics.median(p["cal"] for p in passes), "cal"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }


def traced_run(env, workload, ops_for):
    """An untraced, a traced and an untraced pass, then the unit-cost probes.

    Returns (traced pass, all passes, per-layer metrics, tracer).  The
    tracing overhead is the traced pass's wall time minus the mean of the
    untraced passes around it.
    """
    tracer = tracing.Tracer()
    before = run_pass(env, ops_for())
    tracing.install_counters(tracer, env.ss)
    try:
        with tracer.span("pass." + workload):
            traced = run_pass(env, ops_for(), tracer)
    finally:
        tracer.restore()
    pass_counts = dict(tracer.counts)
    after = run_pass(env, ops_for())
    tracing.install_counters(tracer, env.ss)
    try:
        with tracer.span("probes"):
            probe_metrics = probes.run_probes(env, tracer)
    finally:
        tracer.restore()

    ops = [r for r in traced["ops"] if r["metric"] == "gordon_scan_s"]
    sweep_s = sum(r["seconds"] for r in ops)
    metrics = {
        "sequences.blocks_calls": (pass_counts.get("blocks.calls", 0), "count"),
        "complexity.templates": (pass_counts.get("templates.calls", 0), "count"),
        "cocycle.trace_calls": (pass_counts.get("trace.calls", 0), "count"),
        "cocycle.trace_lanes": (pass_counts.get("trace.lanes", 0), "count"),
        "gordon.band_approximant_share": (
            tracer.busy["band_approximant"] / sweep_s if sweep_s else 0.0, "ratio"),
        "gordon.pairs": (sum(r["units"] for r in ops), "count"),
        "gordon.falsifications": (sum(r["failed"] for r in ops), "count"),
        "trace.wall_s": (traced["wall"], "s"),
        "trace.overhead_s": (traced["wall"] - (before["wall"] + after["wall"]) / 2, "s"),
    }
    metrics.update(probe_metrics)
    return traced, [before, traced, after], metrics, tracer


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="tiny is for the self-check")
    args = parser.parse_args()
    check_checkout()

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=out_dir, prefix="tmp-")
    try:
        prov = provenance(args.seed)
        setup_samples = measure_setup(7 if args.size == "full" else 2) if not args.trace else []
        ss = import_sturmspec()
        env = Env(ss, args.size, args.seed, tmp)
        make_inputs, make_ops = workloads.WORKLOADS[args.workload]
        inputs = make_inputs(env, np.random.default_rng(args.seed))

        tracer = None
        ops_for = functools.partial(make_ops, env, inputs)
        if args.trace:
            traced, checked, metrics, tracer = traced_run(env, args.workload, ops_for)
            passes = [traced]
        else:
            passes, t0 = [], time.perf_counter()
            while not passes or time.perf_counter() - t0 < args.seconds:
                passes.append(run_pass(env, ops_for()))
            checked = passes
            metrics = end_to_end(passes, setup_samples)

        attempted, failed, _ = counts(passes)
        problems = counts(checked)[2]
        lines = summarize(passes)
        if setup_samples:
            lines.append(timing_line("setup_s", setup_samples))
        lines += ["%-28s %s" % (k, v) for k, v in sorted(env.stats.items())]
        record = {
            "workload": args.workload, "trace": args.trace, "size": args.size,
            "provenance": prov, "inputs": inputs, "passes": passes,
            "setup_samples": setup_samples, "stats": env.stats,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "spans": tracer.dump() if tracer else [],
        }
        name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("provenance " + json.dumps(prov, sort_keys=True))
    for line in lines:
        print(line)
    for problem in problems:
        print("problem: " + problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
