"""Tests for the Monte Carlo harness: channels, SNR, trials, sweeps."""

import concurrent.futures
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from spheredec import sim
from spheredec.cli import render_csv, render_json
from spheredec.detectors import ml_exhaustive, sd_proposed
from spheredec.lattice import (
    DegenerateChannelError,
    RadiusPolicy,
    Representation,
    build_problem,
    preprocessing_flops,
)
from spheredec.modem import make_constellation, rails_to_complex
from spheredec.sim import (
    ChannelInstance,
    SimConfig,
    SweepRecord,
    Tally,
    _point,
    draw_instance,
    run_sweep,
    run_trial,
    sigma_for_snr,
    trial_rng,
)

from conftest import binomial_ci, subprocess_env


def drawn_channel(rng, n):
    """The channel of one :func:`draw_instance` at N = n."""
    cfg = SimConfig(n_antennas=n, detectors=("sd-conv",), trials_per_point=1)
    return draw_instance(rng, cfg, 1.0).h


class TestDrawChannel:
    def test_unit_mean_power(self):
        rng = np.random.default_rng(90)
        h = drawn_channel(rng, 100)  # 10^4 entries
        samples = [np.mean(np.abs(drawn_channel(rng, 100)) ** 2) for _ in range(10)]
        power = np.mean([np.mean(np.abs(h) ** 2)] + samples)
        assert abs(power - 1.0) < 0.02

    def test_deterministic_under_seed(self):
        a = drawn_channel(trial_rng(5, 1, 2), 4)
        b = drawn_channel(trial_rng(5, 1, 2), 4)
        assert np.array_equal(a, b)

    def test_stream_key_range(self):
        # a 128-bit key and 64-bit counter words: outside them numpy would
        # raise OverflowError, and an index of 2**63 or more must not be rounded
        for args in ((-1, 0, 0), (2**128, 0, 0)):
            with pytest.raises(ValueError, match=re.escape(
                    f"seed must be in [0, 2**128), got {args[0]}")):
                trial_rng(*args)
        for index in (-1, 2**64):
            for name, args in (("snr_index", (0, index, 0)), ("trial_index", (0, 0, index))):
                with pytest.raises(ValueError, match=re.escape(
                        f"{name} must be in [0, 2**64), got {index}")):
                    trial_rng(*args)
        state = trial_rng(2**128 - 1, 2**64 - 1, 2**63 + 1).bit_generator.state["state"]
        assert state["key"].tolist() == [2**64 - 1, 2**64 - 1]
        assert state["counter"].tolist() == [0, 0, 2**64 - 1, 2**63 + 1]

    def test_entries_finite(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            h = drawn_channel(rng, 300)  # ~10^6 scalars total across loop
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
            recs = run_trial(trial_rng(1, 0, t), cfg, _point(cfg, 120.0))
            assert len(recs) == len(cfg.detectors)
            for rec in recs:
                assert rec.bit_errors == 0
                assert rec.symbol_errors == 0

    def test_detectors_see_identical_trials(self):
        cfg = SimConfig(n_antennas=2, mod_order=16, detectors=("ml", "sd-conv"),
                        trials_per_point=1)
        solo_cfg = replace(cfg, detectors=("sd-conv",))
        for t in range(50):
            a, b = run_trial(trial_rng(2, 0, t), cfg, _point(cfg, 10.0))
            # ml and sd-conv decide alike, so they make the same errors
            assert (a.bit_errors, a.symbol_errors) == (b.bit_errors, b.symbol_errors)
            # the same stream shows the same trial whatever else runs
            (solo,) = run_trial(trial_rng(2, 0, t), solo_cfg, _point(solo_cfg, 10.0))
            assert solo == b

    def test_fields_finite(self):
        cfg = SimConfig(n_antennas=2, mod_order=64, detectors=("sd-new",),
                        trials_per_point=1)
        (rec,) = run_trial(trial_rng(3, 0, 0), cfg, _point(cfg, 5.0))
        assert rec.trials == 1
        assert rec.flops > 0 and rec.nodes > 0

    def test_degenerate_draw_is_redrawn_from_the_same_stream(self, monkeypatch):
        cfg = SimConfig(n_antennas=2, mod_order=16, detectors=("ml", "sd-conv", "sd-new"),
                        trials_per_point=1)
        point = _point(cfg, 10.0)
        # the next draw of a stream that has already made one
        rng = trial_rng(4, 0, 0)
        draw_instance(rng, cfg, point.sigma_sq)
        expected = run_trial(rng, cfg, point)

        calls = []

        def degenerate_once(h, y, rep):
            calls.append(rep)
            if len(calls) == 1:
                raise DegenerateChannelError("rank deficient")
            return build_problem(h, y, rep)

        monkeypatch.setattr(sim, "build_problem", degenerate_once)
        assert run_trial(trial_rng(4, 0, 0), cfg, point) == expected
        assert calls == [point.reps[0], *point.reps]

    def test_redraws_are_capped(self, monkeypatch):
        cfg = SimConfig(n_antennas=2, detectors=("sd-conv",), trials_per_point=1)
        draws = []

        def counted_draw(*args):
            draws.append(1)
            return draw_instance(*args)

        def always_degenerate(h, y, rep):
            raise DegenerateChannelError("rank deficient")

        monkeypatch.setattr(sim, "draw_instance", counted_draw)
        monkeypatch.setattr(sim, "build_problem", always_degenerate)
        with pytest.raises(RuntimeError, match="^exceeded the degenerate-channel redraw cap$"):
            run_trial(trial_rng(4, 0, 0), cfg, _point(cfg, 10.0))
        assert len(draws) == 100

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
            per_trial = [run_trial(trial_rng(cfg.seed, i, t), cfg, _point(cfg, snr_db))
                         for t in range(cfg.trials_per_point)]
            for d, name in enumerate(cfg.detectors):
                cell = sum((tallies[d] for tallies in per_trial), Tally())
                expected.append(SweepRecord(
                    snr_db=snr_db, detector=name, n=cfg.n_antennas, mod=cfg.mod_order,
                    ber=cell.bit_errors / (cell.trials * bits_per_trial),
                    ser=cell.symbol_errors / (cell.trials * cfg.n_antennas),
                    mean_flops=cell.flops / cell.trials,
                    mean_preproc_flops=float(preprocessing_flops(2 * cfg.n_antennas)),
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
        # an int or Fraction too large for a float is not finite either
        for snr in ({"snr_stop_db": float("inf")}, {"snr_start_db": float("nan")},
                    {"snr_step_db": float("nan")}, {"snr_start_db": 10**400},
                    {"snr_stop_db": Fraction(10**400)}, {"snr_step_db": -10**400}):
            with pytest.raises(ValueError, match="^SNR start, stop and step must be finite$"):
                SimConfig(**snr)
        with pytest.raises(ValueError, match="precede"):
            SimConfig(snr_start_db=10.0, snr_stop_db=0.0)
        with pytest.raises(ValueError, match="points"):
            SimConfig(snr_start_db=0.0, snr_stop_db=20.0, snr_step_db=0.01)
        with pytest.raises(ValueError, match="points"):
            SimConfig(snr_start_db=1e20, snr_stop_db=1e20, snr_step_db=1.0)
        # points are rounded to 1e-9 dB; a repeat would label two rows alike
        for start, step, stop in ((0.0, 1e-10, 0.0), (0.0, 4e-10, 1e-9),
                                  (5.0, 6e-10, 5.000000002)):
            with pytest.raises(ValueError, match="^the SNR grid repeats a point once "
                                                 r"rounded to 1e-9 dB$"):
                SimConfig(snr_start_db=start, snr_step_db=step, snr_stop_db=stop)
            points = SimConfig(snr_start_db=start, snr_step_db=2e-9,
                               snr_stop_db=start + 4e-9).snr_points()
            assert len(points) == 3 and points == tuple(sorted(set(points)))
        # 10**400 overflows and 10**-400 underflows to zero
        for snr in (4000.0, -4000.0):
            with pytest.raises(ValueError, match="noise variance"):
                SimConfig(snr_start_db=snr, snr_stop_db=snr, snr_step_db=1.0)
        for seed in (-1, 2**128):
            with pytest.raises(ValueError, match="seed"):
                SimConfig(seed=seed)
        SimConfig(seed=2**128 - 1)
        # the last trial index must fit a 64-bit Philox counter word; the
        # accepted counts are only constructed, never run
        for trials in (2**64 + 1, 10**20):
            with pytest.raises(ValueError, match=re.escape(
                    f"trial_index must be in [0, 2**64), got {trials - 1}")):
                SimConfig(trials_per_point=trials)
        for trials in (2**53, 2**64):
            assert SimConfig(trials_per_point=trials).trials_per_point == trials
        # the ML oracle scans at most 4^8 candidates: 4x4 16-QAM
        for n, order in ((6, 64), (3, 64), (4, 64), (5, 16), (6, 16)):
            with pytest.raises(ValueError, match="above the 65536 guard"):
                SimConfig(n_antennas=n, mod_order=order, detectors=("ml",))
        for n, order in ((4, 16), (3, 16), (2, 64)):
            SimConfig(n_antennas=n, mod_order=order, detectors=("ml",))
        # sd-new needs a K-best caps entry above N=2; the sweep would
        # otherwise fail inside its first trial
        for n in (3, 5):
            with pytest.raises(ValueError, match=f"no K-best caps defined for N={n}"):
                SimConfig(n_antennas=n, detectors=("sd-new",))
            SimConfig(n_antennas=n, detectors=("sd-conv",))
        with pytest.raises(ValueError, match="QAM order"):
            SimConfig(mod_order=32, detectors=("sd-new",))
        with pytest.raises(ValueError, match="n_antennas"):
            SimConfig(n_antennas=0, detectors=("sd-conv",))
        with pytest.raises(ValueError, match="radius_dimension"):
            SimConfig(radius_dimension="3n", detectors=("sd-new",))
        for workers in (0, 2.5, "2", True):
            with pytest.raises(ValueError, match="^workers must be an integer >= 1, got "):
                run_sweep(self._tiny_cfg(trials_per_point=1), workers=workers)
        # a float, bool or str integer input, or a non-number SNR input,
        # fails when the config is built, not by truncation or in a trial
        for kw in _NON_INTEGER_INPUTS:
            (name,) = kw
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                SimConfig(detectors=("sd-conv",), **kw)
        for kw in _NON_NUMBER_INPUTS:
            (name,) = kw
            with pytest.raises(ValueError, match=f"^{name} must be a number, got "):
                SimConfig(detectors=("sd-conv",), **kw)
        with pytest.raises(ValueError, match="'sd-new'"):
            SimConfig(detectors="sd-new")
        # a list or tuple only: a set would order the records by PYTHONHASHSEED
        for detectors in ({"sd-new", "sd-conv"}, {"sd-new": 1}, (d for d in ["sd-new"]),
                          iter(["sd-new"])):
            with pytest.raises(ValueError, match="^detectors must be a non-empty "
                                                 "sequence of names, got "):
                SimConfig(detectors=detectors)

    def test_numpy_integers_accepted(self):
        cfg = self._tiny_cfg(n_antennas=np.int64(2), mod_order=np.int16(16),
                             trials_per_point=np.int32(3), seed=np.uint64(9))
        assert cfg == self._tiny_cfg(trials_per_point=3)
        assert all(type(v) is int for v in (cfg.n_antennas, cfg.mod_order,
                                            cfg.trials_per_point, cfg.seed))
        assert run_sweep(cfg) == run_sweep(self._tiny_cfg(trials_per_point=3))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_preproc_flops_is_the_closed_form(self, n, workers):
        cfg = self._tiny_cfg(n_antennas=n, snr_start_db=30.0, snr_stop_db=30.0,
                             trials_per_point=4)
        recs = run_sweep(cfg, workers=workers)
        assert len(recs) == 2
        for r in recs:
            assert r.mean_preproc_flops == float(preprocessing_flops(2 * n))

    def test_the_environment_does_not_set_workers(self, monkeypatch):
        monkeypatch.setenv("LATTICE_SD_THREADS", "abc")
        cfg = self._tiny_cfg(trials_per_point=2)
        assert [r.trials for r in run_sweep(cfg)] == [2] * 4

    def test_pool_has_at_most_one_process_per_cpu(self, fake_pool):
        sizes, _ = fake_pool
        cfg = self._tiny_cfg(detectors=("sd-conv",), snr_stop_db=0.0,
                             trials_per_point=128)
        assert run_sweep(cfg, workers=64) == run_sweep(cfg, workers=1)
        assert sizes == [min(64, os.cpu_count() or 1)]

    @pytest.mark.parametrize("workers", [2, 3, 5, 7, np.int64(3)])
    def test_trials_split_into_exact_integer_blocks(self, fake_pool, workers):
        _, jobs = fake_pool
        cfg = self._tiny_cfg(detectors=("sd-conv",), trials_per_point=37)
        assert run_sweep(cfg, workers=workers) == run_sweep(cfg, workers=1)
        assert all(type(bound) is int for job in jobs for bound in job[3:])
        # each point's trials, in trial order, cut at the exact 37 * b // workers
        for i in range(len(cfg.snr_points())):
            assert [job[3:] for job in jobs if job[1] == i] == [
                (37 * b // workers, 37 * (b + 1) // workers) for b in range(workers)]


@pytest.fixture
def fake_pool(monkeypatch):
    """An in-process stand-in for ProcessPoolExecutor, so no process is
    started.  Returns the lists it fills: each pool's size and the argument
    tuple of each job it maps ``_trial_block`` over."""
    sizes, jobs = [], []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *columns):
            jobs.extend(zip(*columns))
            return map(fn, *columns)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return sizes, jobs


# Non-integer values of integer inputs.  Unchecked, 2.5 trials would run 2,
# and an n of 2.5 or True or a seed of 1.5 would fail inside the first trial.
_NON_INTEGER_INPUTS = ({"trials_per_point": 2.5}, {"n_antennas": 2.5}, {"seed": 1.5},
                       {"n_antennas": True}, {"trials_per_point": "3"}, {"seed": True},
                       {"mod_order": 16.0})

# Non-numbers and bools as SNR inputs.  Unchecked, a str or None failed in
# math.isfinite, a Decimal inside the grid loop, and True ran a 1 dB grid.
_NON_NUMBER_INPUTS = ({"snr_start_db": "0"}, {"snr_stop_db": None},
                      {"snr_step_db": Decimal("1")}, {"snr_step_db": True})


def _message(fn, *args, **kwargs):
    with pytest.raises(ValueError) as exc:
        fn(*args, **kwargs)
    return str(exc.value)


class TestConfigRules:
    """SimConfig rejects a bad sweep by asking the code that uses each value,
    so it raises that code's own message."""

    def test_one_message_per_rule(self):
        c16, c64 = make_constellation(16), make_constellation(64)
        ml_problem = build_problem(np.eye(6), np.zeros(6), Representation.STACKED)
        assert (_message(SimConfig, n_antennas=6, mod_order=64, detectors=("ml",))
                == _message(ml_exhaustive, ml_problem, c64))
        ml_problem = build_problem(np.eye(3), np.zeros(3), Representation.STACKED)
        assert (_message(SimConfig, n_antennas=3, mod_order=64, detectors=("ml",))
                == _message(ml_exhaustive, ml_problem, c64))
        kbest_problem = build_problem(np.eye(3), np.zeros(3), Representation.INTERLEAVED)
        assert (_message(SimConfig, n_antennas=3, detectors=("sd-new",))
                == _message(sd_proposed, kbest_problem, c16,
                            RadiusPolicy.for_noise(1.0, 3)))
        assert (_message(SimConfig, snr_start_db=4000.0, snr_stop_db=4000.0)
                == _message(sigma_for_snr, 4000.0, c16, 2))
        assert (_message(SimConfig, radius_dimension="3n")
                == _message(RadiusPolicy.for_noise, 1.0, 2, dimension="3n"))
        for seed in (-1, 2**128, True):
            assert _message(SimConfig, seed=seed) == _message(trial_rng, seed, 0, 0)
        assert (_message(SimConfig, trials_per_point=2**64 + 1)
                == _message(trial_rng, 42, 0, 2**64))

    def test_detectors_are_stored_as_a_tuple(self):
        cfg = SimConfig(detectors=["sd-new", "sd-conv"], trials_per_point=1)
        assert cfg.detectors == ("sd-new", "sd-conv")
        assert cfg == SimConfig(detectors=("sd-new", "sd-conv"), trials_per_point=1)
        hash(cfg)
        with pytest.raises(AttributeError):
            cfg.detectors.append("zf")

    @pytest.mark.filterwarnings("error")
    def test_noise_variance_stays_inside_the_received_vector_bound(self):
        # a sweep the config accepts never draws a y that build_problem rejects
        kw = dict(detectors=("ml", "sd-conv", "sd-new"), trials_per_point=20)
        with pytest.raises(ValueError, match="noise variance"):
            SimConfig(snr_start_db=-3000.0, snr_stop_db=-3000.0, **kw)
        cfg = SimConfig(snr_start_db=-2900.0, snr_stop_db=-2900.0, **kw)
        assert [r.trials for r in run_sweep(cfg, workers=1)] == [20] * 3

    @pytest.mark.parametrize("value", [0, Fraction(1, 3), np.float32(1), np.int64(2)])
    def test_snr_inputs_are_stored_as_floats(self, value):
        cfg = SimConfig(detectors=("sd-conv",), snr_start_db=value, snr_stop_db=4,
                        snr_step_db=Fraction(2))
        for name in ("snr_start_db", "snr_stop_db", "snr_step_db"):
            assert type(getattr(cfg, name)) is float
        assert all(type(s) is float for s in cfg.snr_points())
        assert cfg.snr_points()[:2] == (round(float(value), 9),
                                        round(float(value) + 2.0, 9))

    @pytest.mark.parametrize("start, step, stop, points", [
        (0.0, 2e-9, 1e-9, (0.0,)),
        (0.0, 1e-9, 3e-9, (0.0, 1e-9, 2e-9, 3e-9)),
        (0.0, 0.1, 0.3, (0.0, 0.1, 0.2, 0.3)),
        (0.0, 0.1, 1.0, tuple(i / 10 for i in range(11))),
        (22.0, 2.0, 28.0, (22.0, 24.0, 26.0, 28.0)),
    ])
    def test_snr_grid_ends_at_or_below_its_stop(self, start, step, stop, points):
        # a point counts once rounded to 1e-9 dB, so the grid never passes its stop
        cfg = SimConfig(detectors=("sd-new",), snr_start_db=start, snr_step_db=step,
                        snr_stop_db=stop)
        assert cfg.snr_points() == points

    def test_fractional_snr_renders(self):
        cfg = SimConfig(detectors=("sd-new",), snr_start_db=Fraction(1, 3),
                        snr_stop_db=Fraction(1, 3), trials_per_point=1)
        recs = run_sweep(cfg)
        assert render_csv(recs).splitlines()[1].startswith("0.333333333,sd-new,")
        assert json.loads(render_json(recs))[0]["snr_db"] == 0.333333333

    @pytest.mark.parametrize("start", [-0.0, -4e-10])
    def test_zero_snr_renders_unsigned(self, start):
        # -0.0 == 0.0, so only the rendered row shows a sign
        cfg = SimConfig(detectors=("sd-new",), snr_start_db=start, snr_stop_db=1.0,
                        snr_step_db=2.0, trials_per_point=1)
        assert render_csv(run_sweep(cfg)).splitlines()[1].startswith("0,sd-new,")

    def test_rules_hold_under_optimize(self):
        # the checks are raises, not asserts, so -O keeps them
        cases = ({"radius_dimension": "3n"}, {"n_antennas": 3, "detectors": ("sd-new",)},
                 *_NON_INTEGER_INPUTS, *_NON_NUMBER_INPUTS, {"detectors": "sd-new"},
                 {"detectors": {"sd-new"}}, {"snr_step_db": 1e-10, "snr_stop_db": 0.0},
                 {"seed": -1}, {"seed": 2**128}, {"trials_per_point": 2**64 + 1})
        code = ("from decimal import Decimal\n"
                "from spheredec.sim import SimConfig\n"
                f"for kw in {cases!r}:\n"
                "    try:\n"
                "        SimConfig(**kw)\n"
                "    except ValueError as exc:\n"
                "        print(exc)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=subprocess_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [_message(SimConfig, **kw) for kw in cases]


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
