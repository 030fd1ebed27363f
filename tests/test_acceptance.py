"""Acceptance suite: one test per top-level criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
then asserts.  The heavy SNR sweeps live in session fixtures (conftest) and
are shared across criteria.  Criterion 5's FLOP-reduction windows are
asserted at the 16-QAM operating points; the measured values are printed
regardless of the verdict.
"""

import math

import numpy as np

from spheredec.detectors import ml_exhaustive, sd_conventional, sd_proposed
from spheredec.lattice import (
    RadiusPolicy,
    Representation,
    build_problem,
    gram_schmidt_qr,
    real_form,
)
from spheredec.modem import bits_to_symbols, make_constellation, quantize_rail, symbols_to_bits
from spheredec.sim import SimConfig, draw_instance, run_sweep, sigma_for_snr, trial_rng

from conftest import WORKERS, binomial_ci, reorder_received, to_representation_order


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _by_point(records, detector):
    return {r.snr_db: r for r in records if r.detector == detector}


def _snr_at_ber(points, target=1e-3):
    """Log-linear interpolation of the SNR where BER crosses ``target``."""
    grid = sorted(points)
    for a, b in zip(grid, grid[1:]):
        pa, pb = points[a].ber, points[b].ber
        if pa >= target >= pb and pb > 0:
            la, lb = math.log10(pa), math.log10(pb)
            return a + (b - a) * (la - math.log10(target)) / (la - lb)
    raise AssertionError(f"BER does not cross {target} inside the grid {grid}")


def _flops_at(points, snr):
    """Log-linear interpolation of mean FLOPs at a fractional grid SNR."""
    grid = sorted(points)
    for a, b in zip(grid, grid[1:]):
        if a <= snr <= b:
            fa, fb = points[a].mean_flops, points[b].mean_flops
            t = (snr - a) / (b - a)
            return math.exp((1 - t) * math.log(fa) + t * math.log(fb))
    raise AssertionError(f"{snr} outside the swept grid {grid}")


def test_criterion_1_zero_structure():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for n in (2, 4, 6):
        for _ in range(1000):
            h = np.sqrt(0.5) * (rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n)))
            f = gram_schmidt_qr(real_form(h, Representation.INTERLEAVED), pair_zeros=True)
            worst = max(worst, f.zero_structure_max)
    _report("criterion 1 (interleaved QR zero structure)", worst < 1e-9,
            f"max |r[k,k+1]| pre-forcing = {worst:.3e} over 3000 draws (bound 1e-9)")


def test_criterion_2_conventional_sd_exactness():
    c = make_constellation(16)
    trials = 1000
    checked = mismatches = 0
    for n in (2, 3):
        cfg = SimConfig(n_antennas=n, mod_order=16, detectors=("ml",),
                        trials_per_point=1, seed=1002)
        for snr_idx, snr_db in enumerate((0.0, 10.0, 20.0)):
            sigma_sq = sigma_for_snr(snr_db, c, n)
            for t in range(trials):
                rng = trial_rng(1002 + n, snr_idx, t)
                inst = draw_instance(rng, cfg, sigma_sq)
                pol = RadiusPolicy.for_noise(sigma_sq, n)
                p = build_problem(inst.h, inst.y, Representation.STACKED)
                a = ml_exhaustive(p, c)
                b = sd_conventional(p, c, pol)
                checked += 1
                if a.weight != b.weight or not np.array_equal(a.x_hat, b.x_hat):
                    mismatches += 1
    _report("criterion 2 (conventional SD exactness)", mismatches == 0,
            f"{mismatches} mismatches in {checked} trials "
            "(N in {2,3}, SNR in {0,10,20} dB, 16-QAM)")


def test_criterion_3_proposed_sd_optimal_n2():
    trials = 1000
    checked = mismatches = 0
    for order in (16, 64):
        c = make_constellation(order)
        cfg = SimConfig(n_antennas=2, mod_order=order, detectors=("ml",),
                        trials_per_point=1, seed=1003)
        for snr_idx, snr_db in enumerate((0.0, 10.0, 20.0)):
            sigma_sq = sigma_for_snr(snr_db, c, 2)
            for t in range(trials):
                rng = trial_rng(1003 + order, snr_idx, t)
                inst = draw_instance(rng, cfg, sigma_sq)
                pol = RadiusPolicy.for_noise(sigma_sq, 2)
                p = build_problem(inst.h, inst.y, Representation.INTERLEAVED)
                a = ml_exhaustive(p, c)
                b = sd_proposed(p, c, pol)
                checked += 1
                if a.weight != b.weight or not np.array_equal(a.x_hat, b.x_hat):
                    mismatches += 1
    _report("criterion 3 (proposed SD optimal at N=2)", mismatches == 0,
            f"{mismatches} mismatches in {checked} trials (16- and 64-QAM)")


def test_criterion_4_ber_agreement_2x2(sweep_2x2_16):
    cfg, records = sweep_2x2_16
    conv = _by_point(records, "sd-conv")
    new = _by_point(records, "sd-new")
    bits = cfg.trials_per_point * 2 * cfg.n_antennas * 2
    disjoint = []
    for snr in sorted(conv):
        lo_c, hi_c = binomial_ci(conv[snr].bit_errors, bits)
        lo_n, hi_n = binomial_ci(new[snr].bit_errors, bits)
        if not (lo_c <= hi_n and lo_n <= hi_c):
            disjoint.append(snr)
    _report("criterion 4 (2x2 BER agreement)", not disjoint,
            f"95% CIs overlap at all {len(conv)} points" if not disjoint
            else f"disjoint CIs at SNR {disjoint}")


def test_criterion_5_flop_reduction_ratios(sweep_2x2_16_high, sweep_4x4_16,
                                           sweep_6x6_16):
    # operating point = the interpolated SNR where the conventional SD's
    # BER crosses 1e-3 (the same crossing rule criterion 6 uses); mean
    # FLOPs of both detectors are interpolated at that SNR
    results = {}
    for label, (cfg, records), window in (
        ("2x2", sweep_2x2_16_high, (65.0, 95.0)),
        ("4x4", sweep_4x4_16, (35.0, 65.0)),
        ("6x6", sweep_6x6_16, (35.0, 65.0)),
    ):
        conv = _by_point(records, "sd-conv")
        new = _by_point(records, "sd-new")
        snr = _snr_at_ber(conv)
        reduction = 100.0 * (1.0 - _flops_at(new, snr) / _flops_at(conv, snr))
        results[label] = (snr, reduction, window)

    detail = "; ".join(
        f"{label}: {red:.1f}% at {snr:.2f} dB (window {w})"
        for label, (snr, red, w) in results.items())
    ok = all(w[0] <= red <= w[1] for _, red, w in results.values())
    _report("criterion 5 (FLOP reduction at BER 1e-3, 16-QAM)", ok, detail)


def test_criterion_6_near_optimality_4x4_6x6(sweep_4x4_16, sweep_6x6_16):
    gaps = {}
    for label, (cfg, records) in (("4x4", sweep_4x4_16), ("6x6", sweep_6x6_16)):
        conv = _snr_at_ber(_by_point(records, "sd-conv"))
        new = _snr_at_ber(_by_point(records, "sd-new"))
        gaps[label] = new - conv
    detail = "; ".join(f"{k}: {v:+.2f} dB" for k, v in gaps.items())
    _report("criterion 6 (SNR gap at BER 1e-3 <= 1.5 dB)",
            all(g <= 1.5 for g in gaps.values()), detail)


def test_criterion_7_property_suite():
    rng = np.random.default_rng(1007)
    c16 = make_constellation(16)

    # objective equivalence pre/post rotation (both representations)
    for rep in Representation:
        for _ in range(20):
            n = 3
            h = np.sqrt(0.5) * (rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n)))
            bits = rng.integers(0, 2, size=4 * n)
            x = to_representation_order(bits_to_symbols(bits, c16, n), rep).astype(float)
            y = h @ (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            p = build_problem(h, y, rep)
            h_re = real_form(h, rep)
            direct = float(np.sum((reorder_received(y, rep) - h_re @ x) ** 2))
            rotated = float(np.sum((p.y_hat - p.r @ x) ** 2))
            assert abs(rotated - direct) <= 1e-6 * (1.0 + direct)

    # quantizer argmin property
    for v in rng.uniform(-10, 10, size=10_000):
        q = quantize_rail(v, c16)
        assert abs(v - q) == min(abs(v - w) for w in c16.rail)

    # Gray round trip
    for _ in range(1000):
        bits = rng.integers(0, 2, size=16)
        assert np.array_equal(symbols_to_bits(bits_to_symbols(bits, c16, 4), c16), bits)

    # byte-identical reruns, sequential and parallel
    cfg = SimConfig(n_antennas=2, mod_order=16, detectors=("sd-conv", "sd-new"),
                    snr_start_db=0.0, snr_stop_db=10.0, snr_step_db=5.0,
                    trials_per_point=60, seed=1007)
    first = run_sweep(cfg, workers=1)
    assert run_sweep(cfg, workers=1) == first
    assert run_sweep(cfg, workers=WORKERS) == first

    # monotone partial metrics are asserted inline inside every search this
    # suite executed (plain asserts, enabled under pytest); exercise a few
    # detections here so the property runs even in isolation
    sigma_sq = sigma_for_snr(10.0, c16, 2)
    for t in range(20):
        inst = draw_instance(trial_rng(1007, 0, t), cfg, sigma_sq)
        pol = RadiusPolicy.for_noise(sigma_sq, 2)
        ps = build_problem(inst.h, inst.y, Representation.STACKED)
        pi = build_problem(inst.h, inst.y, Representation.INTERLEAVED)
        sd_conventional(ps, c16, pol)
        sd_proposed(pi, c16, pol)

    _report("criterion 7 (property suite)", True,
            "objective equivalence, quantizer argmin, Gray round trip, "
            "deterministic reruns (sequential == parallel), monotone metrics")
