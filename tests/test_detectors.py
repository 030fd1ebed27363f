"""Tests for the three detectors: oracle equivalence, counting, properties."""

import gc
import itertools
import re
import subprocess
import sys

import numpy as np
import pytest

from spheredec.detectors import (
    DetectionResult,
    KBEST_CAPS,
    _check_weight,
    ml_exhaustive,
    recompute_weight,
    sd_conventional,
    sd_proposed,
)
from spheredec.lattice import (
    MAX_RESTARTS,
    LatticeProblem,
    RadiusPolicy,
    Representation,
    build_problem,
    real_form,
    to_pair_order,
)
from spheredec.modem import bits_to_symbols, make_constellation, rails_to_complex

from conftest import (
    random_channel,
    reorder_received,
    subprocess_env,
    to_representation_order,
)


def random_instance(rng, n, c, sigma_sq):
    """One (h, y, x_pair) draw with rail symbols and complex AWGN."""
    h = random_channel(rng, n)
    bits = rng.integers(0, 2, size=2 * n * c.bits_per_rail)
    x_pair = bits_to_symbols(bits, c, n)
    s = rails_to_complex(x_pair)
    v = np.sqrt(sigma_sq / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return h, h @ s + v, x_pair


def brute_force_pre_rotation(h, y, c, n, representation):
    """Independent oracle: nested-loop minimization of ||y_re - H_re x||^2."""
    h_re = real_form(h, representation)
    y_re = reorder_received(y, representation)
    best_w, best_x = np.inf, None
    for combo in itertools.product(c.rail, repeat=2 * n):
        x = np.array(combo, dtype=float)
        w = float(np.sum((y_re - h_re @ x) ** 2))
        if w < best_w:
            best_w, best_x = w, np.array(combo, dtype=int)
    return best_w, best_x


class TestMlExhaustive:
    def test_noiseless_recovers_truth(self):
        rng = np.random.default_rng(50)
        c = make_constellation(16)
        for rep in Representation:
            h, _, x_pair = random_instance(rng, 2, c, 1.0)
            y = h @ rails_to_complex(x_pair)
            p = build_problem(h, y, rep)
            res = ml_exhaustive(p, c)
            assert np.array_equal(res.x_hat, to_representation_order(x_pair, rep))
            assert res.weight < 1e-12

    def test_matches_independent_enumerator(self):
        rng = np.random.default_rng(51)
        c = make_constellation(16)
        for _ in range(25):
            h, y, _ = random_instance(rng, 2, c, 2.0)
            p = build_problem(h, y, Representation.STACKED)
            res = ml_exhaustive(p, c)
            w_oracle, x_oracle = brute_force_pre_rotation(h, y, c, 2, Representation.STACKED)
            assert np.array_equal(res.x_hat, x_oracle)
            assert abs(res.weight - w_oracle) <= 1e-6 * (1.0 + w_oracle)

    def test_stacked_and_interleaved_same_decision(self):
        # the two representations permute coordinates, so the ML complex
        # symbol decision must coincide
        rng = np.random.default_rng(52)
        c = make_constellation(16)
        for _ in range(20):
            h, y, _ = random_instance(rng, 2, c, 5.0)
            xs = ml_exhaustive(build_problem(h, y, Representation.STACKED), c).x_hat
            xi = ml_exhaustive(build_problem(h, y, Representation.INTERLEAVED), c).x_hat
            assert np.array_equal(to_pair_order(xs, Representation.STACKED),
                                  to_pair_order(xi, Representation.INTERLEAVED))

    def test_total_under_huge_noise(self):
        rng = np.random.default_rng(53)
        c = make_constellation(16)
        h, y, _ = random_instance(rng, 2, c, 1e6)
        p = build_problem(h, y, Representation.STACKED)
        res = ml_exhaustive(p, c)
        assert np.all(np.isin(res.x_hat, c.rail))
        assert np.isfinite(res.weight)

    def test_node_count_is_candidate_count(self):
        rng = np.random.default_rng(54)
        c = make_constellation(16)
        h, y, _ = random_instance(rng, 2, c, 1.0)
        p = build_problem(h, y, Representation.STACKED)
        res = ml_exhaustive(p, c)
        assert res.nodes_visited == 4 ** 4 == 256
        # (terms + 1) adds and as many mults per row, summed over 4 rows
        assert res.flops == 256 * 2 * (4 * 5 // 2 + 4) == 7168

    def test_capacity_guard(self):
        rng = np.random.default_rng(55)
        c = make_constellation(64)
        h, y, _ = random_instance(rng, 6, c, 1.0)
        p = build_problem(h, y, Representation.STACKED)
        with pytest.raises(ValueError, match="guard"):
            ml_exhaustive(p, c)


@pytest.mark.filterwarnings("error")
class TestReceivedVectorBound:
    """build_problem bounds y as the QR bounds H, so no detector's squared
    distance can overflow."""

    @pytest.mark.parametrize("y", [[1e200, 0], [1e308, 1e308]])
    @pytest.mark.parametrize("rep", list(Representation))
    def test_oversized_entry_rejected(self, y, rep):
        with pytest.raises(ValueError, match=r"received vector .* below 1e\+150"):
            build_problem(np.eye(2), np.array(y, dtype=complex), rep)

    def test_largest_accepted_entry_detects(self):
        c = make_constellation(16)
        y = np.array([1e149, 0], dtype=complex)
        policy = RadiusPolicy.for_noise(1.0, 2)
        stacked = build_problem(np.eye(2), y, Representation.STACKED)
        interleaved = build_problem(np.eye(2), y, Representation.INTERLEAVED)
        weights = {ml_exhaustive(stacked, c).weight,
                   sd_conventional(stacked, c, policy).weight,
                   sd_proposed(interleaved, c, policy).weight}
        assert len(weights) == 1 and np.isfinite(weights.pop())


class TestSdConventional:
    def test_noiseless(self):
        rng = np.random.default_rng(60)
        c = make_constellation(16)
        h, _, x_pair = random_instance(rng, 2, c, 1.0)
        y = h @ rails_to_complex(x_pair)
        p = build_problem(h, y, Representation.STACKED)
        res = sd_conventional(p, c, RadiusPolicy.for_noise(1e-9, 2))
        assert np.array_equal(res.x_hat,
                              to_representation_order(x_pair, Representation.STACKED))
        assert res.weight < 1e-12

    @pytest.mark.parametrize("sigma_sq", [20.0, 2.0, 0.2])
    def test_matches_ml(self, sigma_sq):
        rng = np.random.default_rng(61)
        c = make_constellation(16)
        for _ in range(120):
            h, y, _ = random_instance(rng, 2, c, sigma_sq)
            pol = RadiusPolicy.for_noise(sigma_sq, 2)
            p = build_problem(h, y, Representation.STACKED)
            a = ml_exhaustive(p, c)
            b = sd_conventional(p, c, pol)
            assert b.weight == a.weight
            assert np.array_equal(b.x_hat, a.x_hat)

    def test_tiny_radius_restarts_and_recovers(self):
        rng = np.random.default_rng(62)
        c = make_constellation(16)
        h, y, _ = random_instance(rng, 2, c, 1.0)
        pol = RadiusPolicy(initial_sq=1e-12)
        p = build_problem(h, y, Representation.STACKED)
        res = sd_conventional(p, c, pol)
        ml = ml_exhaustive(p, c)
        assert res.restarts >= 1
        assert res.restarts == MAX_RESTARTS + 1  # 1e-12 * 2**20 is still empty
        assert res.weight == ml.weight

    def test_representation_guard(self):
        rng = np.random.default_rng(63)
        c = make_constellation(16)
        h, y, _ = random_instance(rng, 2, c, 1.0)
        p = build_problem(h, y, Representation.INTERLEAVED)
        with pytest.raises(ValueError, match="stacked"):
            sd_conventional(p, c, RadiusPolicy.for_noise(1.0, 2))

    def test_counter_regression_hand_derived(self):
        # R = I2, y_hat = [0.125, 0.25] (exact binary), rail (-3,-1,1,3),
        # huge radius.  Hand trace: all 4 top-level nodes evaluated; the
        # first three survive the shrinking radius and expand (4 bottom
        # nodes each), x=3 at the top is pruned after the radius shrank to
        # 1.328125.  Nodes: 4 + 12.  Per-node cost (m-j+1) adds and mults:
        # top 2, bottom 3 -> 4*2 + 12*3 = 44 each, 88 FLOPs.  One exact
        # weight tie (1.5625 + 9.765625 == 11.328125) is pruned by the
        # strict test.
        p = LatticeProblem(r=np.eye(2), y_hat=np.array([0.125, 0.25]),
                           representation=Representation.STACKED)
        c = make_constellation(16)
        res = sd_conventional(p, c, RadiusPolicy(initial_sq=1e9))
        assert np.array_equal(res.x_hat, np.array([1, 1]))
        assert res.weight == 1.328125
        assert res.nodes_visited == 16
        assert res.flops == 88
        assert res.restarts == 0

    def test_interval_end_on_rail_tie_is_pruned(self):
        # R = I2, y_hat = 0, d^2 = 4, rail (-3,-1,1,3).  Every node center is
        # 0.  Top: x=-1 and x=1 weigh 1, x=+-3 weigh 9.  Below x_top=-1 the
        # half-width is sqrt(3): x=-1 is a leaf at weight 2, which shrinks
        # d^2 to 2, and x=1, the first failing rail past the center, weighs
        # 2 == d^2, is pruned by the strict test and stops the scan.  Below
        # x_top=1 the scan starts at the lower end, x=-1, which weighs 2 and
        # fails left of the center, so the scan goes on; x=1 fails the same
        # way past the center and stops it.  Three expanded nodes, each
        # charged all 4 rails: 4 top + 8 bottom nodes, adds and mults
        # 4*2 + 8*3 = 32 each, 64 FLOPs.
        p = LatticeProblem(r=np.eye(2), y_hat=np.zeros(2),
                           representation=Representation.STACKED)
        c = make_constellation(16)
        res = sd_conventional(p, c, RadiusPolicy(initial_sq=4.0))
        assert np.array_equal(res.x_hat, np.array([-1, -1]))
        assert res.weight == 2.0
        assert res.restarts == 0
        assert res.nodes_visited == 12
        assert res.flops == 64


class TestSdProposed:
    @pytest.mark.parametrize("order", [16, 64])
    def test_matches_ml_n2(self, order):
        rng = np.random.default_rng(70)
        c = make_constellation(order)
        for sigma_sq in (order / 2.0, order / 20.0, order / 200.0):
            for _ in range(60):
                h, y, _ = random_instance(rng, 2, c, sigma_sq)
                pol = RadiusPolicy.for_noise(sigma_sq, 2)
                p = build_problem(h, y, Representation.INTERLEAVED)
                a = ml_exhaustive(p, c)
                b = sd_proposed(p, c, pol)
                assert b.weight == a.weight
                assert np.array_equal(b.x_hat, a.x_hat)

    def test_tiny_radius_restarts_and_recovers(self):
        rng = np.random.default_rng(71)
        c = make_constellation(16)
        h, y, _ = random_instance(rng, 2, c, 1.0)
        pol = RadiusPolicy(initial_sq=1e-12)
        p = build_problem(h, y, Representation.INTERLEAVED)
        res = sd_proposed(p, c, pol)
        ml = ml_exhaustive(p, c)
        assert res.restarts >= 1
        assert res.restarts == MAX_RESTARTS + 1  # 1e-12 * 2**20 is still empty
        assert res.weight == ml.weight

    def test_representation_guard(self):
        rng = np.random.default_rng(72)
        c = make_constellation(16)
        h, y, _ = random_instance(rng, 2, c, 1.0)
        p = build_problem(h, y, Representation.STACKED)
        with pytest.raises(ValueError, match="interleaved"):
            sd_proposed(p, c, RadiusPolicy.for_noise(1.0, 2))

    def test_n4_valid_and_near_ml(self):
        rng = np.random.default_rng(73)
        c = make_constellation(16)
        sigma_sq = 1.6
        worse = 0
        for _ in range(60):
            h, y, _ = random_instance(rng, 4, c, sigma_sq)
            pol = RadiusPolicy.for_noise(sigma_sq, 4)
            ps = build_problem(h, y, Representation.STACKED)
            pi = build_problem(h, y, Representation.INTERLEAVED)
            ml = ml_exhaustive(ps, c)
            res = sd_proposed(pi, c, pol)
            assert np.all(np.isin(res.x_hat, c.rail))
            assert res.weight >= ml.weight - 1e-9
            if res.weight > ml.weight + 1e-9:
                worse += 1
        # k-best pruning is lossy but rarely at moderate noise
        assert worse < 20

    def test_fewer_nodes_than_conventional_high_snr(self):
        rng = np.random.default_rng(74)
        c = make_constellation(16)
        sigma_sq = 0.4  # SNR 17 dB at N=2
        total_conv = total_new = 0
        for _ in range(200):
            h, y, _ = random_instance(rng, 2, c, sigma_sq)
            pol = RadiusPolicy.for_noise(sigma_sq, 2)
            ps = build_problem(h, y, Representation.STACKED)
            pi = build_problem(h, y, Representation.INTERLEAVED)
            total_conv += sd_conventional(ps, c, pol).nodes_visited
            total_new += sd_proposed(pi, c, pol).nodes_visited
        assert total_new < total_conv

    def test_counter_regression_hand_derived(self):
        # Interleaved N=1, R = I2, y_hat = [0.125, 0.25], huge radius.
        # Step 1 evaluates 2*mu = 8 one-dimensional metrics (2 mults +
        # 1 add each), all survive, all 16 pairs are summed (1 add each)
        # and kept, and with no low symbols left each pair is a leaf.
        # Totals: adds 8+16, mults 16, no divs (40 FLOPs), nodes 8.
        p = LatticeProblem(r=np.eye(2), y_hat=np.array([0.125, 0.25]),
                           representation=Representation.INTERLEAVED)
        c = make_constellation(16)
        res = sd_proposed(p, c, RadiusPolicy(initial_sq=1e9))
        assert np.array_equal(res.x_hat, np.array([1, 1]))
        assert res.weight == 1.328125
        assert res.nodes_visited == 8
        assert res.flops == 40

    def test_counter_regression_middle_layer(self, monkeypatch):
        # Interleaved N=3, R = I6, one middle layer capped at 2, huge radius,
        # mu = 4.  Everything survives the radius, so the counts follow from
        # the survivor count entering each step.
        # Top levels: 8 metrics (2 mults + 1 add each), then 16 pair sums
        # (1 add each) -> S = 16 survivors.
        # Middle layer (symbol 2, rows 3 and 2, t = 2 assigned columns):
        # per survivor two interference sums (t-1 = 1 add, t = 2 mults
        # each), 2 centering adds, 2*mu = 8 metrics (4*mu = 16 mults,
        # 3*mu = 12 adds) and mu^2 = 16 pair sums (16 adds): 32 adds,
        # 20 mults, 8 nodes; x16.
        # Leaf step (symbol 1, rows 1 and 0, 4 assigned columns): per
        # surviving prefix and rail 4 mults + 3 adds of interference,
        # 1 centering add, 1 div (quantizer), 2 mults + 2 adds of metric,
        # 1 node; x2.  Totals: adds 8+16+512+24 = 560, mults 16+320+24 =
        # 360, divs 4 (924 FLOPs), nodes 8+128+4 = 140.
        p = LatticeProblem(r=np.eye(6),
                           y_hat=np.array([0.125, -0.25, 2.5, -2.25, 0.75, -1.5]),
                           representation=Representation.INTERLEAVED)
        c = make_constellation(16)
        monkeypatch.setitem(KBEST_CAPS, (3, 16), (2,))
        res = sd_proposed(p, c, RadiusPolicy(initial_sq=1e9))
        assert np.array_equal(res.x_hat, np.array([1, -1, 3, -3, 1, -1]))
        assert res.weight == 2.453125
        assert res.nodes_visited == 140
        assert res.flops == 924
        assert res.restarts == 0

    def test_leaf_tie_goes_to_first_in_detection_order(self):
        # Interleaved N=2, R = I4 plus r[1,3] = r[0,3] = -1.5, all exact.
        # Prefix (x3, x2) = (1, 1) weighs 0.25 and quantizes to (3, 3) with
        # increments 1 + 1; prefix (-1, 1) weighs 2.25 and fits (1, 1)
        # exactly.  Both leaves weigh 2.25, and every other prefix weighs
        # at least 4.25.  The leaf of the heavier prefix comes first in
        # detection order, so the leaf step must still visit a prefix tied
        # with the best leaf.
        r = np.eye(4)
        r[1, 3] = r[0, 3] = -1.5
        p = LatticeProblem(r=r, y_hat=np.array([2.5, 2.5, 1.0, 0.5]),
                           representation=Representation.INTERLEAVED)
        c = make_constellation(16)
        res = sd_proposed(p, c, RadiusPolicy(initial_sq=1e9))
        assert np.array_equal(res.x_hat, np.array([1, 1, 1, -1]))
        assert res.weight == 2.25
        assert np.array_equal(res.x_hat, ml_exhaustive(p, c).x_hat)

    def test_level_independence(self):
        # with the forced zeros, the 1-D metric at an odd level l is
        # unaffected by the symbol chosen at level l+1 and vice versa
        rng = np.random.default_rng(75)
        c = make_constellation(16)
        h, y, _ = random_instance(rng, 3, c, 1.0)
        p = build_problem(h, y, Representation.INTERLEAVED)
        m = 6
        for l_odd in (1, 3, 5):  # 1-indexed odd levels
            j_re, j_im = l_odd - 1, l_odd  # 0-based row of level l, l+1
            for x_hi in itertools.product(c.rail, repeat=m - 1 - j_im):
                # interference on row j_re from levels above l+1 only
                def metric_re(omega_at_im, prefix=x_hi):
                    e = sum(p.r[j_re, k] * prefix[m - 1 - k]
                            for k in range(j_im + 1, m))
                    e += p.r[j_re, j_im] * omega_at_im
                    return e
                vals = {metric_re(w) for w in c.rail}
                assert len(vals) == 1  # r[j_re, j_im] == 0 exactly
                break  # one prefix per level suffices


class TestKBestSchedule:
    def _problem(self, n):
        h, y, _ = random_instance(np.random.default_rng(76), n, make_constellation(16), 1.0)
        return build_problem(h, y, Representation.INTERLEAVED)

    def test_default_lookups(self):
        assert KBEST_CAPS == {
            (4, 16): (8, 8),
            (4, 64): (8, 8),
            (6, 16): (16, 8, 4),
            (6, 64): (32, 32, 16),
        }

    def test_undefined_combination(self):
        with pytest.raises(ValueError, match="no K-best caps defined for N=3, 16-QAM"):
            sd_proposed(self._problem(3), make_constellation(16), RadiusPolicy.for_noise(1.0, 3))


class TestRecomputeWeight:
    def test_noiseless_zero(self):
        rng = np.random.default_rng(80)
        c = make_constellation(16)
        h, _, x_pair = random_instance(rng, 2, c, 1.0)
        y = h @ rails_to_complex(x_pair)
        p = build_problem(h, y, Representation.STACKED)
        x = to_representation_order(x_pair, Representation.STACKED)
        assert recompute_weight(p, x) < 1e-12

    def test_matches_pre_rotation_objective(self):
        rng = np.random.default_rng(81)
        c = make_constellation(16)
        for _ in range(30):
            h, y, _ = random_instance(rng, 3, c, 2.0)
            p = build_problem(h, y, Representation.INTERLEAVED)
            bits = rng.integers(0, 2, size=12)
            x = to_representation_order(bits_to_symbols(bits, c, 3),
                                        Representation.INTERLEAVED).astype(float)
            direct = float(np.sum(
                (reorder_received(y, Representation.INTERLEAVED)
                 - real_form(h, Representation.INTERLEAVED) @ x) ** 2))
            assert abs(recompute_weight(p, x) - direct) <= 1e-6 * (1.0 + direct)

    def test_detector_weights_are_canonical(self):
        rng = np.random.default_rng(82)
        c = make_constellation(16)
        h, y, _ = random_instance(rng, 2, c, 1.0)
        p = build_problem(h, y, Representation.INTERLEAVED)
        res = sd_proposed(p, c, RadiusPolicy.for_noise(1.0, 2))
        assert res.weight == recompute_weight(p, res.x_hat)
        assert isinstance(res, DetectionResult)

    def test_inconsistent_weight_raises_under_optimize(self):
        # python -O strips asserts; the once-per-detection check must not be one
        code = ("import numpy as np\n"
                "from spheredec.detectors import _check_weight\n"
                "from spheredec.lattice import LatticeProblem, Representation\n"
                "p = LatticeProblem(np.eye(2), np.zeros(2), Representation.STACKED)\n"
                "_check_weight(p, np.zeros(2), 1.0, 2.0)")
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=subprocess_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "disagrees with canonical" in proc.stderr

    def test_weight_check_allows_for_the_rounding_of_the_terms(self):
        # terms of 2e149 per row: a canonical weight of 1e270 is their rounding
        # near an exact fit, 1e290 is not
        p = LatticeProblem(1e149 * np.eye(2), np.full(2, 1e149), Representation.STACKED)
        _check_weight(p, np.ones(2), 0.0, 1e270)
        with pytest.raises(RuntimeError, match="disagrees with canonical"):
            _check_weight(p, np.ones(2), 0.0, 1e290)

    @pytest.mark.parametrize("rep, entry", [(Representation.STACKED, (1, 0)),
                                            (Representation.INTERLEAVED, (0, 1))])
    def test_weight_disagreement_names_the_structure_of_r(self, rep, entry):
        # each detector reads only the entries its structure allows, so R = I
        # with r[1, 0] = 5 (stacked) or r[0, 1] = 5 (interleaved) and y_hat =
        # [1, 1] gives the leaf [1, 1] at accumulated weight 0, canonical 25
        r = np.eye(2)
        r[entry] = 5.0
        p = LatticeProblem(r=r, y_hat=np.ones(2), representation=rep)
        detector = sd_conventional if rep is Representation.STACKED else sd_proposed
        with pytest.raises(RuntimeError, match=re.escape(
                "accumulated weight 0.0 disagrees with canonical 25.0; R must be "
                "upper triangular, with r[k, k+1] = 0 at even k in the interleaved "
                "form")):
            detector(p, make_constellation(16), RadiusPolicy(initial_sq=1e9))


# Raises of the layout, QR, problem-type, -shape and -value, radius,
# constellation and stream-key input checks, each run under python -O by
# test_input_checks_hold_under_optimize.
_CHECK_SETUP = (
    "import numpy as np\n"
    "from spheredec.detectors import ml_exhaustive, sd_conventional, sd_proposed\n"
    "from spheredec.lattice import (LatticeProblem, RadiusPolicy, Representation,\n"
    "                               build_problem, gram_schmidt_qr, real_form,\n"
    "                               to_pair_order)\n"
    "from spheredec.modem import make_constellation\n"
    "from spheredec.sim import trial_rng\n"
    "c = make_constellation(16)\n"
    "policy = RadiusPolicy.for_noise(1.0, 4)\n"
    "problem = build_problem(np.eye(4, dtype=complex), np.ones(4, dtype=complex),\n"
    "                        Representation.INTERLEAVED)\n"
    "nan_y = np.array([0.5, np.nan])\n"
    "half = np.full(4, 0.5)\n"
    "inf_r = np.eye(4)\n"
    "inf_r[0, 3] = np.inf\n"
)
# (r, y_hat) arguments that break LatticeProblem's value rule: NaN, +-inf,
# magnitudes at or above 1e150, and a diagonal entry at or below 1e-12
_BAD_VALUES = (
    "np.eye(2), nan_y",
    "np.eye(4), np.array([0.5, np.inf, 0.5, 0.5])",
    "np.eye(4), np.array([0.5, 0.5, 0.5, -np.inf])",
    "inf_r, half",
    "np.eye(4), np.array([0.5, 0.5, 1e200, 0.5])",
    "1e160 * np.eye(4), half",
    "-np.eye(4), half",
    "np.diag([1.0, 1.0, 0.0, 1.0]), half",
    "np.diag([1.0, 1.0, 1.0, 1e-300]), half",
)
_DETECTOR_CALLS = (
    "ml_exhaustive(LatticeProblem({}, Representation.STACKED), c)",
    "sd_conventional(LatticeProblem({}, Representation.STACKED), c, policy)",
    "sd_proposed(LatticeProblem({}, Representation.INTERLEAVED), c, policy)",
)
_VALUE_RULE_CALLS = tuple(call.format(args) for args in _BAD_VALUES
                          for call in _DETECTOR_CALLS)
_CHECKED_CALLS = (
    "gram_schmidt_qr(np.array([[1.0, 1.0], [0.0, 1.0]]), pair_zeros=True)",
    "gram_schmidt_qr(np.array([[1 + 5j, 0], [0, 1]]))",
    "to_pair_order(np.zeros((2, 2)), Representation.STACKED)",
    "to_pair_order(np.arange(3), Representation.INTERLEAVED)",
    "real_form(np.zeros((0, 0)), Representation.STACKED)",
    "gram_schmidt_qr(np.zeros((0, 0)), pair_zeros=True)",
    "build_problem(np.zeros((0, 0)), np.zeros(0), Representation.INTERLEAVED)",
    "LatticeProblem(np.eye(3), np.ones(4), Representation.STACKED)",
    "LatticeProblem(np.eye(4), np.ones((2, 2)), Representation.STACKED)",
    "LatticeProblem(np.eye(3), np.ones(3), Representation.INTERLEAVED)",
    "LatticeProblem([[1.0, 0.0], [0.0, 1.0]], np.ones(2), Representation.STACKED)",
    "LatticeProblem(np.eye(2), [0.5, 0.5], Representation.STACKED)",
    "LatticeProblem(np.eye(2), np.ones(2, dtype=complex), Representation.STACKED)",
    "LatticeProblem(np.eye(2), np.ones(2), 'interleaved')",
    *_VALUE_RULE_CALLS,
    "RadiusPolicy(initial_sq='a')",
    "RadiusPolicy(initial_sq=None)",
    "RadiusPolicy(initial_sq=10**400)",
    "RadiusPolicy.for_noise(1.0, 10**400)",
    "make_constellation([16])",
    "trial_rng(-1, 0, 0)",
    "trial_rng(2**128, 0, 0)",
    "trial_rng(0, -1, 0)",
    "trial_rng(0, 0, 2**64)",
    "trial_rng(5.0, 0, 0)",
    "trial_rng(True, 0, 0)",
    "trial_rng('5', 0, 0)",
    "trial_rng(0, 3.0, 0)",
    "trial_rng(0, 0, False)",
)


def test_input_checks_hold_under_optimize():
    # the checks are raises, not asserts, so -O keeps them
    code = (_CHECK_SETUP
            + f"for call in {_CHECKED_CALLS!r}:\n"
              "    try:\n"
              "        eval(call)\n"
              "    except ValueError as exc:\n"
              "        print(exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    namespace = {}
    exec(_CHECK_SETUP, namespace)
    expected = []
    for call in _CHECKED_CALLS:
        with pytest.raises(ValueError) as exc:
            eval(call, namespace)
        expected.append(str(exc.value))
    assert proc.stdout.splitlines() == expected
    # every break of the value rule reads the same in every detector
    assert {msg for call, msg in zip(_CHECKED_CALLS, expected)
            if call in _VALUE_RULE_CALLS} == {
        "expected r and y_hat finite and below 1e+150 in magnitude, and r's "
        "diagonal above 1e-12"}


@pytest.mark.parametrize("initial_sq, restarts", [(1.0, 0), (1e-9, 21)])
def test_detection_leaves_no_garbage(initial_sq, restarts):
    # a reference cycle left by a call would be collected here, so each call
    # would cost the sweep a share of gc passes
    rng = np.random.default_rng(83)
    c = make_constellation(16)
    h, y, _ = random_instance(rng, 2, c, 1.0)
    stacked = build_problem(h, y, Representation.STACKED)
    interleaved = build_problem(h, y, Representation.INTERLEAVED)
    pol = RadiusPolicy(initial_sq=initial_sq)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        results = [ml_exhaustive(stacked, c), sd_conventional(stacked, c, pol),
                   sd_proposed(interleaved, c, pol)]
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert [r.restarts for r in results] == [0, restarts, restarts]
