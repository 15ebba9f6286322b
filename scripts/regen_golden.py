#!/usr/bin/env python3
"""Regenerate the committed golden outputs from the shipped configs.

Run from the repository root:

    python scripts/regen_golden.py

Golden files pin byte-level CLI output (version, config echo, 17-digit
floats); regenerate them only when an intentional output change lands,
and commit the diff together with the change that caused it.

After regenerating, every golden file whose bytes changed is listed with
the largest absolute and relative change over its numeric JSON leaves
(each with its path in the document) and every structural difference:
a key, a list length or a leaf type that differs, or a non-numeric leaf
that changed.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (argv, expected exit code); the gordon sweep at seed 1 reports
# falsified pairs, so it exits 2 by design
RUNS = [
    (
        ["spectrum", "--spec", "configs/simple3.cfg", "--level", "4",
         "--grid", "20001", "--tol", "1e-10", "--format", "json",
         "--out", "tests/golden/spectrum_simple3_level4.json"],
        0,
    ),
    (
        ["gordon-scan", "--spec", "configs/simple3.cfg", "--level", "2",
         "--energies", "40", "--origins", "500", "--grid", "2000",
         "--seed", "1", "--out", "tests/golden/gordon_simple3_level2.json"],
        2,
    ),
    (
        ["lyapunov", "--spec", "configs/simple3.cfg", "--energies=-1.9,0.3,2.9",
         "--n-steps", "20000", "--format", "json",
         "--out", "tests/golden/lyapunov_simple3.json"],
        0,
    ),
    (
        ["lyapunov", "--spec", "configs/fib.cfg", "--energies=-1.9,0.3,2.9",
         "--n-steps", "20000", "--format", "json",
         "--out", "tests/golden/lyapunov_fib.json"],
        0,
    ),
    (
        ["trace-table", "--spec", "configs/simple3.cfg", "--energy", "0.3",
         "--k", "9", "--format", "json",
         "--out", "tests/golden/trace_simple3_k9.json"],
        0,
    ),
    (
        ["sparse-check", "--spec", "configs/sparse3.cfg", "--energy=0.3",
         "--n", "2048", "--eigs", "8", "--out", "tests/golden/sparse3_n2048.json"],
        0,
    ),
    (
        ["complexity", "--spec", "configs/fib.cfg", "--n-max", "12",
         "--t-max", "200", "--format", "json",
         "--out", "tests/golden/complexity_fib.json"],
        0,
    ),
]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def json_changes(old, new, path="$"):
    """(numeric, structural) differences between two JSON documents.

    ``numeric`` lists (path, old, new) for every numeric leaf whose value
    changed; ``structural`` lists a message for every other difference.
    """
    numeric, structural = [], []
    if _is_number(old) and _is_number(new):
        if math.isnan(old) != math.isnan(new):
            structural.append("%s: %r -> %r" % (path, old, new))
        elif old != new and not math.isnan(old):
            numeric.append((path, old, new))
    elif type(old) is not type(new):
        structural.append("%s: %s -> %s" % (path, type(old).__name__, type(new).__name__))
    elif isinstance(old, dict):
        structural += ["%s: key %r removed" % (path, k) for k in old if k not in new]
        structural += ["%s: key %r added" % (path, k) for k in new if k not in old]
        if old.keys() == new.keys() and list(old) != list(new):
            structural.append("%s: keys reordered" % path)
        for key in (k for k in old if k in new):
            n, s = json_changes(old[key], new[key], "%s.%s" % (path, key))
            numeric += n
            structural += s
    elif isinstance(old, list):
        if len(old) != len(new):
            structural.append("%s: length %d -> %d" % (path, len(old), len(new)))
        for i, (a, b) in enumerate(zip(old, new)):
            n, s = json_changes(a, b, "%s[%d]" % (path, i))
            numeric += n
            structural += s
    elif old != new:
        structural.append("%s: %r -> %r" % (path, old, new))
    return numeric, structural


def report_change(name: str, old: bytes, new: bytes) -> None:
    """Print what moved in one golden file whose bytes changed."""
    print("changed:", name)
    try:
        numeric, structural = json_changes(json.loads(old), json.loads(new))
    except ValueError:
        print("  not JSON on both sides; the bytes differ")
        return
    if numeric:
        path, a, b = max(numeric, key=lambda c: abs(c[2] - c[1]))
        print("  %d numeric values changed; max abs change %.3g at %s (%r -> %r)"
              % (len(numeric), abs(b - a), path, a, b))

        def rel(c):
            return abs(c[2] - c[1]) / abs(c[1]) if c[1] else math.inf

        path, a, b = max(numeric, key=rel)
        print("  max rel change %.3g at %s (%r -> %r)" % (rel((path, a, b)), path, a, b))
    for line in structural:
        print("  structural:", line)
    if not numeric and not structural:
        print("  same JSON values; only the formatting differs")


def main() -> int:
    # run the checkout's own package, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    before = {}
    for argv, expected in RUNS:
        out = ROOT / argv[argv.index("--out") + 1]
        before[out] = out.read_bytes() if out.exists() else None
        cmd = [sys.executable, "-m", "sturmspec.cli"] + argv
        print("+", " ".join(argv))
        code = subprocess.run(cmd, cwd=ROOT, env=env).returncode
        if code != expected:
            raise subprocess.CalledProcessError(code, cmd)
    changed = 0
    for out, old in before.items():
        new = out.read_bytes()
        name = str(out.relative_to(ROOT))
        if old is None:
            print("new:", name)
        elif new != old:
            report_change(name, old, new)
        changed += new != old
    print("%d of %d golden files changed" % (changed, len(before)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
