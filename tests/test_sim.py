"""Tests for the Monte Carlo harness: channels, SNR, trials, sweeps."""

from dataclasses import replace

import numpy as np
import pytest

from spheredec.modem import make_constellation, rails_to_complex
from spheredec.sim import (
    ChannelInstance,
    SimConfig,
    SweepRecord,
    Tally,
    draw_channel,
    draw_instance,
    run_sweep,
    run_trial,
    sigma_for_snr,
    trial_rng,
)

from conftest import binomial_ci


class TestDrawChannel:
    def test_unit_mean_power(self):
        rng = np.random.default_rng(90)
        h = draw_channel(rng, 100)  # 10^4 entries
        samples = [np.mean(np.abs(draw_channel(rng, 100)) ** 2) for _ in range(10)]
        power = np.mean([np.mean(np.abs(h) ** 2)] + samples)
        assert abs(power - 1.0) < 0.02

    def test_deterministic_under_seed(self):
        a = draw_channel(trial_rng(5, 1, 2), 4)
        b = draw_channel(trial_rng(5, 1, 2), 4)
        assert np.array_equal(a, b)

    def test_entries_finite(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            h = draw_channel(rng, 300)  # ~10^6 scalars total across loop
            assert np.all(np.isfinite(h.real)) and np.all(np.isfinite(h.imag))


class TestSigmaForSnr:
    def test_formula_instance(self):
        c = make_constellation(16)
        assert sigma_for_snr(0.0, c, 2) == 20.0

    def test_ten_db_is_factor_ten(self):
        c = make_constellation(64)
        assert np.isclose(sigma_for_snr(10.0, c, 4), sigma_for_snr(0.0, c, 4) / 10.0)

    def test_measured_snr_matches(self):
        # E||Hs||^2 / E||v||^2 should equal the nominal linear SNR
        rng = np.random.default_rng(92)
        c = make_constellation(16)
        n, snr_db = 2, 6.0
        sigma_sq = sigma_for_snr(snr_db, c, n)
        cfg = SimConfig(n_antennas=n, mod_order=16, detectors=("sd-conv",),
                        trials_per_point=1)
        sig = noise = 0.0
        for _ in range(100_000):
            inst = draw_instance(rng, cfg, sigma_sq)
            hs = inst.h @ rails_to_complex(inst.x_pair)
            sig += float(np.sum(np.abs(hs) ** 2))
            noise += float(np.sum(np.abs(inst.y - hs) ** 2))
        assert abs(sig / noise - 10 ** (snr_db / 10.0)) < 0.03 * 10 ** (snr_db / 10.0)


class TestRunTrial:
    def test_noiseless_zero_errors(self):
        cfg = SimConfig(n_antennas=2, mod_order=16,
                        detectors=("ml", "sd-conv", "sd-new"), trials_per_point=1)
        for t in range(20):
            recs = run_trial(trial_rng(1, 0, t), cfg, snr_db=120.0)
            assert len(recs) == len(cfg.detectors)
            for rec in recs:
                assert rec.bit_errors == 0
                assert rec.symbol_errors == 0

    def test_detectors_see_identical_trials(self):
        cfg = SimConfig(n_antennas=2, mod_order=16, detectors=("ml", "sd-conv"),
                        trials_per_point=1)
        solo_cfg = replace(cfg, detectors=("sd-conv",))
        for t in range(50):
            a, b = run_trial(trial_rng(2, 0, t), cfg, snr_db=10.0)
            # ml and sd-conv decide alike, so they make the same errors
            assert (a.bit_errors, a.symbol_errors) == (b.bit_errors, b.symbol_errors)
            assert a.preproc_flops == b.preproc_flops
            # the same stream shows the same trial whatever else runs
            (solo,) = run_trial(trial_rng(2, 0, t), solo_cfg, snr_db=10.0)
            assert solo == b

    def test_fields_finite(self):
        cfg = SimConfig(n_antennas=2, mod_order=64, detectors=("sd-new",),
                        trials_per_point=1)
        (rec,) = run_trial(trial_rng(3, 0, 0), cfg, snr_db=5.0)
        assert rec.trials == 1
        assert rec.flops > 0 and rec.nodes > 0 and rec.preproc_flops > 0

    def test_instance_consistency(self):
        rng = np.random.default_rng(93)
        cfg = SimConfig(n_antennas=3, mod_order=16, detectors=("sd-conv",),
                        trials_per_point=1)
        inst = draw_instance(rng, cfg, 0.0)  # noiseless
        assert isinstance(inst, ChannelInstance)
        assert np.array_equal(inst.y, inst.h @ rails_to_complex(inst.x_pair))


class TestRunSweep:
    def _tiny_cfg(self, **kw):
        base = dict(n_antennas=2, mod_order=16, detectors=("sd-conv", "sd-new"),
                    snr_start_db=0.0, snr_stop_db=10.0, snr_step_db=10.0,
                    trials_per_point=40, seed=9)
        base.update(kw)
        return SimConfig(**base)

    def test_one_record_per_point_and_detector(self):
        cfg = self._tiny_cfg(trials_per_point=1)
        recs = run_sweep(cfg)
        assert len(recs) == 2 * 2
        assert {(r.snr_db, r.detector) for r in recs} == \
            {(0.0, "sd-conv"), (0.0, "sd-new"), (10.0, "sd-conv"), (10.0, "sd-new")}

    def test_reproducible(self):
        cfg = self._tiny_cfg()
        assert run_sweep(cfg) == run_sweep(cfg)

    def test_parallel_equals_sequential(self):
        cfg = self._tiny_cfg(trials_per_point=30)
        assert run_sweep(cfg, workers=1) == run_sweep(cfg, workers=2)

    def test_records_are_summed_trial_tallies(self):
        cfg = self._tiny_cfg(trials_per_point=6)
        bits_per_trial = 2 * cfg.n_antennas * make_constellation(cfg.mod_order).bits_per_rail
        expected = []
        for i, snr_db in enumerate(cfg.snr_points()):
            per_trial = [run_trial(trial_rng(cfg.seed, i, t), cfg, snr_db)
                         for t in range(cfg.trials_per_point)]
            for d, name in enumerate(cfg.detectors):
                cell = sum((tallies[d] for tallies in per_trial), Tally())
                expected.append(SweepRecord(
                    snr_db=snr_db, detector=name, n=cfg.n_antennas, mod=cfg.mod_order,
                    ber=cell.bit_errors / (cell.trials * bits_per_trial),
                    ser=cell.symbol_errors / (cell.trials * cfg.n_antennas),
                    mean_flops=cell.flops / cell.trials,
                    mean_preproc_flops=cell.preproc_flops / cell.trials,
                    mean_nodes=cell.nodes / cell.trials,
                    trials=cell.trials, bit_errors=cell.bit_errors, seed=cfg.seed))
        assert [c.trials for c in expected] == [6] * 4
        assert run_sweep(cfg, workers=1) == expected
        assert run_sweep(cfg, workers=2) == expected

    def test_detector_list_does_not_perturb_draws(self):
        full = run_sweep(self._tiny_cfg(detectors=("sd-conv", "sd-new")))
        solo = run_sweep(self._tiny_cfg(detectors=("sd-conv",)))
        conv_full = [r for r in full if r.detector == "sd-conv"]
        assert conv_full == solo

    def test_record_ranges(self):
        for r in run_sweep(self._tiny_cfg()):
            assert 0.0 <= r.ber <= 1.0
            assert 0.0 <= r.ser <= 1.0
            assert r.mean_flops > 0
            assert r.mean_preproc_flops > 0
            assert r.trials == 40

    def test_ber_non_increasing_within_noise(self):
        cfg = SimConfig(n_antennas=2, mod_order=16, detectors=("sd-new",),
                        snr_start_db=0.0, snr_stop_db=20.0, snr_step_db=10.0,
                        trials_per_point=1500, seed=17)
        recs = run_sweep(cfg, workers=2)
        bits = 1500 * 8
        for a, b in zip(recs, recs[1:]):
            slack = 2.0 * np.sqrt(max(a.ber * (1 - a.ber), 1e-9) / bits)
            assert b.ber <= a.ber + slack

    def test_matched_ber_n2(self):
        # at N=2 both sphere decoders are exact, so BERs agree trial by trial
        cfg = self._tiny_cfg(trials_per_point=400, snr_start_db=10.0,
                             snr_stop_db=10.0)
        recs = run_sweep(cfg, workers=2)
        conv = next(r for r in recs if r.detector == "sd-conv")
        new = next(r for r in recs if r.detector == "sd-new")
        assert conv.bit_errors == new.bit_errors
        lo_c, hi_c = binomial_ci(conv.bit_errors, conv.trials * 8)
        lo_n, hi_n = binomial_ci(new.bit_errors, new.trials * 8)
        assert lo_c <= hi_n and lo_n <= hi_c

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SimConfig(detectors=())
        with pytest.raises(ValueError):
            SimConfig(detectors=("zf",))
        with pytest.raises(ValueError):
            SimConfig(snr_step_db=0.0)
        with pytest.raises(ValueError):
            SimConfig(trials_per_point=0)
        with pytest.raises(ValueError, match="once"):
            SimConfig(detectors=("sd-conv", "sd-conv"))
        for snr in ({"snr_stop_db": float("inf")}, {"snr_start_db": float("nan")},
                    {"snr_step_db": float("nan")}):
            with pytest.raises(ValueError, match="finite"):
                SimConfig(**snr)
        with pytest.raises(ValueError, match="precede"):
            SimConfig(snr_start_db=10.0, snr_stop_db=0.0)
        with pytest.raises(ValueError, match="points"):
            SimConfig(snr_start_db=0.0, snr_stop_db=20.0, snr_step_db=0.01)
        with pytest.raises(ValueError, match="points"):
            SimConfig(snr_start_db=1e20, snr_stop_db=1e20, snr_step_db=1.0)
        # 10**400 overflows and 10**-400 underflows to zero
        for snr in (4000.0, -4000.0):
            with pytest.raises(ValueError, match="noise variance"):
                SimConfig(snr_start_db=snr, snr_stop_db=snr, snr_step_db=1.0)
        for seed in (-1, 2**128):
            with pytest.raises(ValueError, match="seed"):
                SimConfig(seed=seed)
        SimConfig(seed=2**128 - 1)
        with pytest.raises(ValueError, match="guard"):
            SimConfig(n_antennas=6, mod_order=64, detectors=("ml",))
        # sd-new needs a K-best caps entry above N=2; the sweep would
        # otherwise fail inside its first trial
        for n in (3, 5):
            with pytest.raises(ValueError, match=f"no K-best caps defined for N={n}"):
                SimConfig(n_antennas=n, detectors=("sd-new",))
            SimConfig(n_antennas=n, detectors=("sd-conv",))
        SimConfig(n_antennas=6, mod_order=16, detectors=("ml",))
        with pytest.raises(ValueError, match="QAM order"):
            SimConfig(mod_order=32, detectors=("sd-new",))
        with pytest.raises(ValueError, match="n_antennas"):
            SimConfig(n_antennas=0, detectors=("sd-conv",))
        with pytest.raises(ValueError, match="radius_dimension"):
            SimConfig(radius_dimension="3n", detectors=("sd-new",))
        with pytest.raises(ValueError, match="workers"):
            run_sweep(self._tiny_cfg(trials_per_point=1), workers=0)


class TestBinomialCi:
    def test_contains_point_estimate(self):
        lo, hi = binomial_ci(30, 1000)
        assert lo < 0.03 < hi

    def test_zero_errors(self):
        lo, hi = binomial_ci(0, 1000)
        assert lo == 0.0 and 0.0 < hi < 0.01

    def test_bad_total(self):
        with pytest.raises(ValueError):
            binomial_ci(1, 0)
