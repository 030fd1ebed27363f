"""Golden gate: small seeded sweeps must render byte-identical CSVs.

The files under ``tests/golden/`` pin the exact records of a few cheap
sweeps covering every detector, N in {2, 4, 6} and both modulations, and
``perfbench/reference/dfs-6x6-64-par.csv`` pins the benchmark's depth-first
workload, which this module reads and never writes.  A change that moves
any RNG stream, detection or count breaks them; such a change regenerates
the files under ``tests/golden/`` on purpose with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from spheredec.cli import render_csv
from spheredec.sim import SimConfig, run_sweep

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DFS_REFERENCE = GOLDEN_DIR.parents[1] / "perfbench" / "reference" / "dfs-6x6-64-par.csv"

CASES = {
    "2x2-16qam": SimConfig(n_antennas=2, mod_order=16,
                           detectors=("ml", "sd-conv", "sd-new"),
                           snr_start_db=0.0, snr_stop_db=20.0, snr_step_db=10.0,
                           trials_per_point=40, seed=7),
    "2x2-64qam": SimConfig(n_antennas=2, mod_order=64,
                           detectors=("ml", "sd-conv", "sd-new"),
                           snr_start_db=10.0, snr_stop_db=30.0, snr_step_db=10.0,
                           trials_per_point=12, seed=8),
    "4x4-16qam": SimConfig(n_antennas=4, mod_order=16, detectors=("sd-conv", "sd-new"),
                           snr_start_db=10.0, snr_stop_db=20.0, snr_step_db=5.0,
                           trials_per_point=30, seed=9),
    "4x4-64qam": SimConfig(n_antennas=4, mod_order=64, detectors=("sd-conv", "sd-new"),
                           snr_start_db=15.0, snr_stop_db=25.0, snr_step_db=10.0,
                           trials_per_point=10, seed=11, radius_dimension="n"),
    "6x6-16qam": SimConfig(n_antennas=6, mod_order=16, detectors=("sd-conv", "sd-new"),
                           snr_start_db=16.0, snr_stop_db=20.0, snr_step_db=2.0,
                           trials_per_point=10, seed=12),
    "6x6-64qam": SimConfig(n_antennas=6, mod_order=64, detectors=("sd-new", "sd-conv"),
                           snr_start_db=22.0, snr_stop_db=26.0, snr_step_db=4.0,
                           trials_per_point=8, seed=10),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_csv(name, workers):
    expected = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="ascii")
    assert render_csv(run_sweep(CASES[name], workers=workers)) == expected


def test_dfs_6x6_64_par_reference_csv():
    # the benchmark's depth-first workload, in-process and on one worker: 1,500
    # sd-conv detections at a 6x6 64-QAM size that the cases above barely reach
    cfg = SimConfig(n_antennas=6, mod_order=64, detectors=("sd-conv", "sd-new"),
                    snr_start_db=20.0, snr_stop_db=22.0, snr_step_db=1.0,
                    trials_per_point=500, seed=42)
    expected = DFS_REFERENCE.read_text(encoding="ascii")
    assert render_csv(run_sweep(cfg, workers=1)) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, cfg in CASES.items():
        path = GOLDEN_DIR / f"{name}.csv"
        path.write_text(render_csv(run_sweep(cfg, workers=1)), encoding="ascii")
        print(f"wrote {path}")
