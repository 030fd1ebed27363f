"""The benchmark's traced correctness gate, run on this checkout.

``perfbench/spans.py`` wraps the detectors, ``run_trial`` and
``build_problem`` by their names in ``spheredec.sim`` and ``spheredec.lattice``,
so a change to those names or to what they return breaks this run first.
Its spans go to the ignored ``perfbench/out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

from conftest import subprocess_env

ROOT = Path(__file__).resolve().parents[1]


def test_traced_harness_2x2_gate_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "harness-2x2", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=subprocess_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
