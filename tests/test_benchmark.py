"""The benchmark's traced correctness gate, run on this checkout.

``perfbench/spans.py`` replaces these names with span recorders:
in ``spheredec.sim`` the three detectors, ``run_trial``, ``trial_rng``,
``draw_instance``, ``build_problem`` and ``symbols_to_bits``, and in
``spheredec.lattice`` ``gram_schmidt_qr``.  It reads a detector result's
``nodes_visited``, ``flops`` and ``restarts``, and takes the trial id from
``trial_rng``'s SNR and trial indices as the positional ``args[1]`` and
``args[2]``, so the sweep must pass them positionally.  Each trial id must
have one ``sim.rng`` span and one ``sim.run_trial`` span, because a trial's
time runs from the start of the one to the end of the other.  A change to
any of these breaks this run first.
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
