#!/usr/bin/env python3
"""Regenerate the committed golden outputs from the shipped configs.

Run from the repository root:

    python scripts/regen_golden.py

Golden files pin byte-level CLI output (version, config echo, 17-digit
floats); regenerate them only when an intentional output change lands,
and commit the diff together with the change that caused it.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

RUNS = [
    (
        ["spectrum", "--spec", "configs/simple3.cfg", "--level", "4",
         "--grid", "20001", "--tol", "1e-10", "--format", "json",
         "--out", "tests/golden/spectrum_simple3_level4.json"],
    ),
]


def main() -> int:
    # run the checkout's own package, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for (argv,) in RUNS:
        cmd = [sys.executable, "-m", "sturmspec.cli"] + argv
        print("+", " ".join(argv))
        subprocess.run(cmd, check=True, cwd=ROOT, env=env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
