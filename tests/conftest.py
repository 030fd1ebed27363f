"""Shared fixtures and helpers: the heavy SNR sweeps used by several
acceptance tests, the environment for tests that run spheredec in a child
interpreter, and test-side helpers that the package itself does not need."""

import os
from pathlib import Path

import numpy as np
import pytest

import spheredec
from spheredec.lattice import Representation
from spheredec.sim import SimConfig, run_sweep

WORKERS = max(1, min(4, os.cpu_count() or 1))

SRC = Path(spheredec.__file__).resolve().parents[1]


def subprocess_env(**overrides):
    """Environment of a child interpreter that imports this spheredec and
    inherits no LATTICE_SD_THREADS."""
    env = {k: v for k, v in os.environ.items() if k != "LATTICE_SD_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(overrides)
    return env


def binomial_ci(errors, total, z=1.96):
    """Wilson score interval for an error ratio (95% by default)."""
    if total <= 0:
        raise ValueError("total must be positive")
    p = errors / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * np.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def to_representation_order(x_pair, representation):
    """Pair-ordered rail vector -> the representation's symbol order,
    written out per representation as an oracle for ``to_pair_order``."""
    x_pair = np.asarray(x_pair)
    if representation is Representation.STACKED:
        return np.concatenate([x_pair[0::2], x_pair[1::2]])
    return x_pair.copy()


def reorder_received(y, representation):
    """Complex receive vector -> real vector in the representation's order,
    written out per representation as an oracle for ``build_problem``."""
    y = np.asarray(y, dtype=complex)
    if y.ndim != 1:
        raise ValueError(f"expected a vector, got shape {y.shape}")
    if representation is Representation.STACKED:
        return np.concatenate([y.real, y.imag])
    out = np.empty(2 * len(y))
    out[0::2] = y.real
    out[1::2] = y.imag
    return out


def _sweep(n, mod, start, stop, step, trials, seed):
    cfg = SimConfig(
        n_antennas=n,
        mod_order=mod,
        detectors=("sd-conv", "sd-new"),
        snr_start_db=start,
        snr_stop_db=stop,
        snr_step_db=step,
        trials_per_point=trials,
        seed=seed,
    )
    return cfg, run_sweep(cfg, workers=WORKERS)


@pytest.fixture(scope="session")
def sweep_2x2_16():
    """2x2 16-QAM, SNR 0..20 dB, 2e4 trials/point (BER agreement sweep)."""
    return _sweep(2, 16, 0.0, 20.0, 2.0, 20000, seed=42)


@pytest.fixture(scope="session")
def sweep_2x2_16_high():
    """2x2 16-QAM around its BER 1e-3 operating point."""
    return _sweep(2, 16, 20.0, 28.0, 2.0, 10000, seed=43)


@pytest.fixture(scope="session")
def sweep_4x4_16():
    """4x4 16-QAM bracketing BER 1e-3 for both detectors."""
    return _sweep(4, 16, 17.0, 23.0, 1.0, 20000, seed=44)


@pytest.fixture(scope="session")
def sweep_6x6_16():
    """6x6 16-QAM bracketing BER 1e-3 for both detectors."""
    return _sweep(6, 16, 17.0, 22.0, 1.0, 20000, seed=45)
