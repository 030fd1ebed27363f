"""Detectors against their oracles, on seeded trials and on generated
tie-heavy problems.

``sd_proposed`` must equal the exhaustive-enumeration reference in
``reference_sd_proposed`` exactly: same decision, same weight, same
restarts and same tallies.  ``sd_conventional`` must equal the ML oracle.
The generated problems have dyadic entries, so every weight is computed
exactly and equal weights are real ties; that exercises the
``(weight, prefix)`` tie-break at the K-best cap boundary, under cap
schedules substituted into ``KBEST_CAPS``, on valid problems no channel
draw produces.

``sd_conventional`` must also equal the full-evaluation reference in
``reference_sd_conventional`` exactly.  The reference evaluates every rail
and recomputes each candidate's interference sum from r_{l,l} * omega
onwards, while the detector sums once per node and scores each rail as
b - r_{l,l} * omega.  Their partial weights may differ in the last bits,
but decisions, reported weights, restarts and tallies must match
exactly.  Its dyadic problems are general upper-triangular ones, where
weights tie exactly with the radius and node centers fall exactly on a
rail or midway between two, which are the cases the widened Fincke–Pohst
interval must get right; there both expressions are computed exactly.
"""

import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheredec.detectors import KBEST_CAPS, ml_exhaustive, sd_conventional, sd_proposed
from spheredec.lattice import LatticeProblem, RadiusPolicy, Representation, build_problem
from spheredec.modem import make_constellation
from spheredec.sim import SimConfig, draw_instance, sigma_for_snr, trial_rng

import reference_sd_conventional
import reference_sd_proposed
from conftest import subprocess_env

# Reproducible, offline and bounded: no example database, a fixed seed.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

_SNR_DB = {16: (8.0, 24.0), 64: (14.0, 32.0)}  # low and high per order

# Initial squared radius of the restart tests: after the schedule's 20
# doublings the last finite radius is 1e-3 * 4**6 (radius_sq * 4**3 for the
# dyadic problems), small enough that some detections reach the
# unconstrained pass.
_TINY_SQ = 1e-3 * 4**6 / 2**20


def assert_same_result(a, b):
    assert np.array_equal(a.x_hat, b.x_hat)
    assert a.weight == b.weight
    assert a.restarts == b.restarts
    assert a.nodes_visited == b.nodes_visited
    assert a.flops == b.flops


def seeded_problems(n, order, snr_db, dimension, trials, policy=None,
                    representation=Representation.INTERLEAVED):
    cfg = SimConfig(n_antennas=n, mod_order=order, detectors=("sd-new",),
                    radius_dimension=dimension)
    c = make_constellation(order)
    sigma_sq = sigma_for_snr(snr_db, c, n)
    if policy is None:
        policy = RadiusPolicy.for_noise(sigma_sq, n, dimension=dimension)
    for t in range(trials):
        inst = draw_instance(trial_rng(7, n * 1000 + order, t), cfg, sigma_sq)
        yield build_problem(inst.h, inst.y, representation), policy


@st.composite
def dyadic_problems(draw, max_n, representation, pair_zeros=True):
    """(problem, constellation, policy) with quarter-integer upper-triangular
    R, positive diagonal and half-integer y_hat; r[k, k+1] = 0 for even k
    when ``pair_zeros``."""
    n = draw(st.integers(1, max_n))
    m = 2 * n
    r = np.zeros((m, m))
    for i in range(m):
        r[i, i] = draw(st.integers(1, 8)) / 4
        for k in range(i + 1, m):
            if not (pair_zeros and i % 2 == 0 and k == i + 1):
                r[i, k] = draw(st.integers(-8, 8)) / 4
    y_hat = np.array(draw(st.lists(st.integers(-30, 30), min_size=m, max_size=m))) / 2
    radius_sq = draw(st.sampled_from([0.25, 1.0, 4.0, 16.0, 1e9]))
    c = make_constellation(draw(st.sampled_from([16, 64])))
    p = LatticeProblem(r=r, y_hat=y_hat, representation=representation)
    return p, c, RadiusPolicy(initial_sq=radius_sq * 4**3 / 2**20)


class TestProposedMatchesReference:
    @pytest.mark.parametrize("dimension", ["2n", "n"])
    @pytest.mark.parametrize("order", [16, 64])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_seeded_trials(self, n, order, dimension):
        c = make_constellation(order)
        for snr_db in _SNR_DB[order]:
            for p, policy in seeded_problems(n, order, snr_db, dimension, trials=15):
                assert_same_result(sd_proposed(p, c, policy),
                                   reference_sd_proposed.sd_proposed(p, c, policy))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_tiny_radius_restarts(self, n):
        c = make_constellation(16)
        policy = RadiusPolicy(initial_sq=_TINY_SQ)
        restarts = 0
        for p, _ in seeded_problems(n, 16, 20.0, "2n", trials=10, policy=policy):
            res = sd_proposed(p, c, policy)
            assert_same_result(res, reference_sd_proposed.sd_proposed(p, c, policy))
            restarts += res.restarts
        assert restarts > 0

    @PROPERTY
    @given(case=dyadic_problems(max_n=5, representation=Representation.INTERLEAVED),
           data=st.data())
    def test_dyadic_ties(self, case, data):
        p, c, policy = case
        caps = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=p.n - 2)
                         if p.n >= 3 else st.just([]))
        # both decoders read the schedule from the one table
        with mock.patch.dict(KBEST_CAPS, {(p.n, c.order): tuple(caps)}):
            assert_same_result(sd_proposed(p, c, policy),
                               reference_sd_proposed.sd_proposed(p, c, policy))


class TestConventionalMatchesMl:
    @PROPERTY
    @given(case=dyadic_problems(max_n=2, representation=Representation.STACKED))
    def test_dyadic_ties(self, case):
        p, c, policy = case
        res = sd_conventional(p, c, policy)
        ml = ml_exhaustive(p, c)
        assert np.array_equal(res.x_hat, ml.x_hat)
        assert res.weight == ml.weight


class TestConventionalMatchesReference:
    @pytest.mark.parametrize("dimension", ["2n", "n"])
    @pytest.mark.parametrize("order", [16, 64])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_seeded_trials(self, n, order, dimension):
        c = make_constellation(order)
        for snr_db in _SNR_DB[order]:
            for p, policy in seeded_problems(n, order, snr_db, dimension, trials=15,
                                             representation=Representation.STACKED):
                assert_same_result(sd_conventional(p, c, policy),
                                   reference_sd_conventional.sd_conventional(p, c, policy))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_tiny_radius_restarts(self, n):
        c = make_constellation(16)
        policy = RadiusPolicy(initial_sq=_TINY_SQ)
        restarts = 0
        for p, _ in seeded_problems(n, 16, 20.0, "2n", trials=10, policy=policy,
                                    representation=Representation.STACKED):
            res = sd_conventional(p, c, policy)
            assert_same_result(res, reference_sd_conventional.sd_conventional(p, c, policy))
            restarts += res.restarts
        assert restarts > 0

    @PROPERTY
    @given(case=dyadic_problems(max_n=3, representation=Representation.STACKED,
                                pair_zeros=False))
    def test_dyadic_ties(self, case):
        p, c, policy = case
        assert_same_result(sd_conventional(p, c, policy),
                           reference_sd_conventional.sd_conventional(p, c, policy))


def test_a_failing_property_test_leaves_the_run_going(tmp_path):
    # pytest turns warnings into errors; one raised by the hypothesis plugin
    # while it reports a failure would end the run with an INTERNALERROR
    test_file = tmp_path / "test_two.py"
    test_file.write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "-p", "no:cacheprovider",
         "-q", str(test_file)],
        cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), proc.stdout
