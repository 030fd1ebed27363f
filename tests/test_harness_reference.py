"""Per-trial bitwise gate: the package's draw, build, QR and scoring against
the verbatim copies in ``tests/reference_harness.py``.

Every float array must match bit for bit (sign of zero included), and
every detector's one-trial tally must be equal."""

import numpy as np
import pytest

import reference_harness as ref
from spheredec import lattice, sim
from spheredec.lattice import Representation, real_form
from spheredec.modem import make_constellation
from spheredec.sim import SimConfig, sigma_for_snr, trial_rng

# (N, QAM order, detectors, SNR points in dB)
CASES = [
    (2, 16, ("ml", "sd-conv", "sd-new"), (10.0, 25.0)),
    (2, 64, ("sd-new", "sd-conv"), (15.0, 30.0)),
    (4, 16, ("sd-conv", "sd-new"), (14.0, 22.0)),
    (4, 64, ("sd-new",), (18.0, 26.0)),
    (6, 16, ("sd-conv", "sd-new"), (16.0, 22.0)),
    (6, 64, ("sd-conv",), (22.0, 28.0)),
]
IDS = [f"{n}x{n}-{mod}qam" for n, mod, _, _ in CASES]

DRAWS = 100
TRIALS = 15


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1, 2**64, 2**100 + 12345, 2**128 - 1])
def test_trial_rng_same_stream(seed):
    for snr_index, trial_index in ((0, 0), (3, 17), (999, 2**40)):
        got = trial_rng(seed, snr_index, trial_index)
        want = ref.trial_rng(seed, snr_index, trial_index)
        assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
        assert_same_bits(got.standard_normal(9), want.standard_normal(9))
        assert_same_bits(got.integers(0, 2, size=7), want.integers(0, 2, size=7))


@pytest.mark.parametrize("n, mod, detectors, snrs", CASES, ids=IDS)
def test_draws_bitwise(n, mod, detectors, snrs):
    cfg = SimConfig(n_antennas=n, mod_order=mod, detectors=detectors)
    c = make_constellation(mod)
    for i, snr_db in enumerate(snrs):
        sigma_sq = sigma_for_snr(snr_db, c, n)
        for t in range(DRAWS):
            got = sim.draw_instance(trial_rng(5, i, t), cfg, sigma_sq)
            want = ref.draw_instance(ref.trial_rng(5, i, t), cfg, sigma_sq)
            for field in ("bits", "x_pair", "h", "y"):
                assert_same_bits(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("n, mod, detectors, snrs", CASES, ids=IDS)
def test_qr_and_build_bitwise(n, mod, detectors, snrs):
    cfg = SimConfig(n_antennas=n, mod_order=mod, detectors=detectors)
    c = make_constellation(mod)
    sigma_sq = sigma_for_snr(snrs[0], c, n)
    for t in range(DRAWS):
        inst = ref.draw_instance(ref.trial_rng(8, 0, t), cfg, sigma_sq)
        for rep in Representation:
            order = ref.symbol_order(n, rep)
            h_real = ref.interleave(inst.h)[np.ix_(order, order)]
            assert_same_bits(real_form(inst.h, rep), h_real)
            pair = rep is Representation.INTERLEAVED
            got = lattice.gram_schmidt_qr(h_real, pair_zeros=pair)
            want = ref.gram_schmidt_qr(h_real, pair_zeros=pair)
            assert_same_bits(got.q, want.q)
            assert_same_bits(got.r, want.r)
            assert got.zero_structure_max == want.zero_structure_max
            if pair:
                assert got.zero_structure_max is not None

            p = lattice.build_problem(inst.h, inst.y, rep)
            p_ref = ref.build_problem(inst.h, inst.y, rep)
            assert_same_bits(p.r, p_ref.r)
            assert_same_bits(p.y_hat, p_ref.y_hat)
            assert (p.representation, p.n) == (p_ref.representation, p_ref.n)


@pytest.mark.parametrize("n, mod, detectors, snrs", CASES, ids=IDS)
def test_run_trial_tallies_equal(n, mod, detectors, snrs):
    cfg = SimConfig(n_antennas=n, mod_order=mod, detectors=detectors)
    errors = 0
    for i, snr_db in enumerate(snrs):
        for t in range(TRIALS):
            got = sim.run_trial(trial_rng(9, i, t), cfg, sim._point(cfg, snr_db))
            want = ref.run_trial(ref.trial_rng(9, i, t), cfg, snr_db)
            assert got == want
            assert all(type(v) is int for tally in got for v in tally)
            errors += sum(tally.symbol_errors for tally in got)
    if n == 2 and mod == 16:
        assert errors  # the low SNR point exercises the error counts
