#!/usr/bin/env python3
"""Self-check of the benchmark: a minimal-size pass of every workload.

    python3 perfbench/selfcheck.py

Checks that each untraced run emits every end-to-end metric and each
traced run every per-layer metric, with the units BENCHMARK.json names;
that the traced and untraced runs report the same operation counts; and
that in a directory holding only the benchmark's own files the command
fails without printing a result.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(bench, cwd, workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1", "--seconds", "0",
                              "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check(ok, message):
    print("%s %s" % ("ok  " if ok else "FAIL", message), flush=True)
    if not ok:
        sys.exit(1)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in bench["workloads"]:
        attempted = {}
        for trace in (0, 1):
            done = run(bench, ROOT, w["name"], trace)
            check(done.returncode == 0, "%s trace=%d exits 0%s" % (
                w["name"], trace, "" if done.returncode == 0 else "\n" + done.stderr[-2000:]))
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(result) == RESULT_KEYS, "%s trace=%d result keys" % (w["name"], trace))
            check(result["correct"], "%s trace=%d outputs correct" % (w["name"], trace))
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace], "%s trace=%d metric names and units: %s" % (
                w["name"], trace, set(units.items()) ^ set(expected[trace].items()) or "match"))
            attempted[trace] = (result["attempted"], result["failed"])
        check(attempted[0] == attempted[1], "%s traced and untraced op counts %s" % (
            w["name"], attempted))

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=out_dir, prefix="bare-"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bench, bare, bench["workloads"][0]["name"], 0)
        check(done.returncode != 0 and not done.stdout.strip(),
              "without the program: exit %d, no result" % done.returncode)
    finally:
        shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
