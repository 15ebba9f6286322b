"""The benchmark harness runs every workload traced on the current sources.

The traced run wraps sturmspec functions at their module attributes
(``blocks``, ``_distinct_count``, ``band_approximant``) and its probes
pass keyword arguments (``mode=``, ``refine_from=``, ``partitions=``,
``max_climb=``), so a rename in the package shows up here as a failed run.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["bands", "certify", "walk"])
def test_tiny_traced_benchmark_run_is_correct(workload):
    env = {k: v for k, v in os.environ.items() if k != "STURMSPEC_THREADS"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1", "--size", "tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is True
