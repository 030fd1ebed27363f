"""Smoke test of the runnable demos: each runs to completion in a child
interpreter against this spheredec, so an API change that breaks a demo
fails here."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name):
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", ["zero_structure_demo.py", "ber_sweep_demo.py"])
def test_demo_runs(name):
    assert run_demo(name)


def test_detector_agreement_demo_agrees_everywhere():
    out = run_demo("detector_agreement_demo.py")
    for order in (16, 64):
        assert f"{order}-QAM 2x2: all three detectors agree on 1200/1200 trials" in out


def test_complexity_comparison_demo_prints_6x6_rows():
    out = run_demo("complexity_comparison_demo.py")
    rows = [line.split() for line in out.splitlines() if line.startswith("6x6")]
    assert [row[1] for row in rows] == ["12", "20"]
