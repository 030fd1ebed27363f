"""Tests for the stacked/interleaved lattice forms and problem assembly."""

import math
import re

import numpy as np
import pytest

from spheredec.detectors import ml_exhaustive, sd_conventional, sd_proposed
from spheredec.lattice import (
    MAX_ENTRY,
    MAX_RESTARTS,
    RANK_TOL,
    DegenerateChannelError,
    LatticeProblem,
    RadiusPolicy,
    Representation,
    build_problem,
    real_form,
    to_pair_order,
)
from spheredec.modem import bits_to_symbols, make_constellation, rails_to_complex

from conftest import random_channel, reorder_received, to_representation_order


class TestStackReal:
    def test_1x1_pattern(self):
        out = real_form(np.array([[1 + 2j]]), Representation.STACKED)
        assert np.array_equal(out, np.array([[1.0, -2.0], [2.0, 1.0]]))

    def test_real_channel_block_diagonal(self):
        h = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        out = real_form(h, Representation.STACKED)
        assert np.array_equal(out[:2, :2], h.real)
        assert np.array_equal(out[2:, 2:], h.real)
        assert np.array_equal(out[:2, 2:], np.zeros((2, 2)))

    def test_index_map_oracle(self):
        rng = np.random.default_rng(41)
        h = random_channel(rng, 2)
        out = real_form(h, Representation.STACKED)
        for i in range(2):
            for j in range(2):
                assert out[i, j] == h[i, j].real
                assert out[i, j + 2] == -h[i, j].imag
                assert out[i + 2, j] == h[i, j].imag
                assert out[i + 2, j + 2] == h[i, j].real

    def test_non_square_rejected(self):
        for shape in ((2, 3), (0, 0)):
            with pytest.raises(ValueError, match=re.escape(
                    f"expected a non-empty square channel matrix, got {shape}")):
                real_form(np.ones(shape, dtype=complex), Representation.STACKED)
        # an empty channel stops in real_form, before a detector sees n = 0
        for rep in Representation:
            with pytest.raises(ValueError, match="non-empty square"):
                build_problem(np.zeros((0, 0)), np.zeros(0), rep)


class TestInterleave:
    def test_1x1_matches_stacked(self):
        h = np.array([[1 + 2j]])
        assert np.array_equal(real_form(h, Representation.INTERLEAVED),
                              real_form(h, Representation.STACKED))

    def test_index_map_oracle(self):
        rng = np.random.default_rng(42)
        h = random_channel(rng, 2)
        out = real_form(h, Representation.INTERLEAVED)
        for i in range(2):
            for j in range(2):
                assert out[2 * i, 2 * j] == h[i, j].real
                assert out[2 * i, 2 * j + 1] == -h[i, j].imag
                assert out[2 * i + 1, 2 * j] == h[i, j].imag
                assert out[2 * i + 1, 2 * j + 1] == h[i, j].real

    def test_is_row_column_permutation_of_stacked(self):
        rng = np.random.default_rng(43)
        n = 3
        h = random_channel(rng, n)
        # stacked index i<n holds Re row/col i -> interleaved 2i;
        # index n+i holds Im -> interleaved 2i+1
        perm = np.empty(2 * n, dtype=int)
        perm[0::2] = np.arange(n)
        perm[1::2] = np.arange(n) + n
        st = real_form(h, Representation.STACKED)
        assert np.array_equal(real_form(h, Representation.INTERLEAVED),
                              st[np.ix_(perm, perm)])


class TestReorderReceived:
    def test_interleaved_order(self):
        y = np.array([1 + 2j, 3 + 4j])
        assert np.array_equal(reorder_received(y, Representation.INTERLEAVED),
                              np.array([1.0, 2.0, 3.0, 4.0]))

    def test_stacked_order(self):
        y = np.array([1 + 2j, 3 + 4j])
        assert np.array_equal(reorder_received(y, Representation.STACKED),
                              np.array([1.0, 3.0, 2.0, 4.0]))

    def test_same_multiset(self):
        rng = np.random.default_rng(44)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = np.sort(reorder_received(y, Representation.STACKED))
        b = np.sort(reorder_received(y, Representation.INTERLEAVED))
        assert np.array_equal(a, b)


class TestSymbolOrdering:
    def test_round_trip(self):
        x = np.arange(12)
        for rep in Representation:
            back = to_pair_order(to_representation_order(x, rep), rep)
            assert np.array_equal(back, x)

    def test_stacked_layout(self):
        x = np.array([10, 11, 20, 21])  # Re1, Im1, Re2, Im2
        assert np.array_equal(to_representation_order(x, Representation.STACKED),
                              np.array([10, 20, 11, 21]))
        assert np.array_equal(to_pair_order([10, 20, 11, 21], Representation.STACKED), x)

    @pytest.mark.parametrize("rep", list(Representation))
    def test_non_vector_rejected(self, rep):
        for x in (np.arange(4).reshape(2, 2), np.arange(3), 7):
            shape = np.shape(x)
            with pytest.raises(ValueError, match=re.escape(
                    f"expected an even-length rail vector, got shape {shape}")):
                to_pair_order(x, rep)


class TestRadiusPolicy:
    def test_noise_formula_2n(self):
        pol = RadiusPolicy.for_noise(0.5, 2)
        assert pol.initial_sq == 4.0  # 2 * 0.5 * (2*2)

    def test_noise_formula_n(self):
        pol = RadiusPolicy.for_noise(0.5, 2, dimension="n")
        assert pol.initial_sq == 2.0

    def test_invariants(self):
        # 10**400 and 2**1030 are beyond the float range of every pass's d^2
        for bad in (0.0, -1.0, float("nan"), "a", None, True, 10**400, 2**1030):
            with pytest.raises(ValueError, match=re.escape(
                    f"initial_sq must be a positive number, got {bad!r}")):
                RadiusPolicy(initial_sq=bad)
        for sigma_sq, n in ((1.0, 10**400), (10**400, 1)):
            with pytest.raises(ValueError, match="^initial_sq must be a positive number"):
                RadiusPolicy.for_noise(sigma_sq, n)
        with pytest.raises(ValueError):
            RadiusPolicy.for_noise(1.0, 2, dimension="3n")
        # accepted values are stored as floats; an infinite radius is valid
        assert type(RadiusPolicy(initial_sq=3).initial_sq) is float
        assert RadiusPolicy.for_noise(1e308, 10**300).initial_sq == math.inf

    def test_radii_grow_then_unconstrained(self):
        # the fixed schedule of the counting convention: 21 doublings, then inf
        radii = list(RadiusPolicy(initial_sq=0.75).radii())
        assert MAX_RESTARTS == 20
        assert radii == [(a, 0.75 * 2**a) for a in range(21)] + [(21, float("inf"))]
        assert radii[20] == (20, 786432.0)

    def test_first_leaf_counts_the_passes_before_it(self):
        pol = RadiusPolicy(initial_sq=0.75)
        seen = []

        def search(d2):
            seen.append(d2)
            return "leaf" if d2 > 2.0 else None

        assert pol.first_leaf(search) == (2, "leaf")
        assert seen == [0.75, 1.5, 3.0]

    def test_first_leaf_raises_when_even_the_unconstrained_pass_is_empty(self):
        pol = RadiusPolicy(initial_sq=0.75)
        with pytest.raises(RuntimeError, match="unconstrained"):
            pol.first_leaf(lambda d2: None)


class TestBuildProblem:
    def setup_method(self):
        self.rng = np.random.default_rng(45)
        self.c = make_constellation(16)

    def _instance(self, n):
        h = random_channel(self.rng, n)
        bits = self.rng.integers(0, 2, size=2 * n * self.c.bits_per_rail)
        x_pair = bits_to_symbols(bits, self.c, n)
        s = rails_to_complex(x_pair)
        return h, s, x_pair

    def test_interleaved_invariant(self):
        h, s, _ = self._instance(3)
        p = build_problem(h, h @ s, Representation.INTERLEAVED)
        assert isinstance(p, LatticeProblem)
        for k in range(0, 6, 2):
            assert p.r[k, k + 1] == 0.0

    def test_noiseless_residual(self):
        for rep in Representation:
            h, s, x_pair = self._instance(2)
            p = build_problem(h, h @ s, rep)
            x = to_representation_order(x_pair, rep).astype(float)
            assert np.linalg.norm(p.y_hat - p.r @ x) < 1e-9

    def test_rotation_preserves_norm(self):
        h, s, _ = self._instance(3)
        y = h @ s + 0.3 * (self.rng.standard_normal(3) + 1j * self.rng.standard_normal(3))
        for rep in Representation:
            p = build_problem(h, y, rep)
            assert abs(np.linalg.norm(p.y_hat) - np.linalg.norm(y)) < 1e-9

    def test_objective_equivalence(self):
        # || y_hat - R x ||^2 equals the pre-rotation || y_re - H_re x ||^2
        for rep in Representation:
            for _ in range(50):
                n = int(self.rng.integers(2, 5))
                h, s, _ = self._instance(n)
                y = h @ s + (self.rng.standard_normal(n) + 1j * self.rng.standard_normal(n))
                p = build_problem(h, y, rep)
                bits = self.rng.integers(0, 2, size=2 * n * self.c.bits_per_rail)
                x = to_representation_order(
                    bits_to_symbols(bits, self.c, n), rep).astype(float)
                rotated = float(np.sum((p.y_hat - p.r @ x) ** 2))
                direct = float(np.sum(
                    (reorder_received(y, rep) - real_form(h, rep) @ x) ** 2))
                assert abs(rotated - direct) <= 1e-6 * (1.0 + direct)

    def test_length_mismatch_rejected(self):
        h, s, _ = self._instance(2)
        y = h @ s
        for y in (np.append(y, 0.0), y[:1], y.reshape(1, 2), y.reshape(2, 1),
                  np.ones((2, 2), dtype=complex), 1 + 2j):
            for rep in Representation:
                with pytest.raises(ValueError, match="^received vector length does not "
                                                     "match the channel$"):
                    build_problem(h, y, rep)

    @pytest.mark.parametrize("rep", ["stacked", "interleaved", None, ["x"]])
    def test_unknown_representation_rejected(self, rep):
        # the enum's values name it but are not it: nothing falls back to a
        # layout, and an unhashable value reaches the same one-line check
        h, s, x_pair = self._instance(2)
        message = f"^{re.escape(f'unknown representation {rep!r}')}$"
        for call in (lambda: real_form(h, rep), lambda: build_problem(h, h @ s, rep),
                     lambda: to_pair_order(x_pair, rep)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_n_is_read_from_y_hat(self):
        # N has no field of its own, so it cannot disagree with the arrays
        p = LatticeProblem(np.eye(4), np.ones(4), Representation.STACKED)
        assert p.n == 2
        with pytest.raises(AttributeError):
            p.n = 3
        with pytest.raises(TypeError):
            LatticeProblem(np.eye(4), np.ones(4), Representation.STACKED, n=3)

    @pytest.mark.parametrize("r_shape, y_shape", [
        ((4, 4), (3,)), ((0, 0), (0,)), ((2, 2), (2, 1)), ((4, 4), (2,)), ((4,), (2,))])
    def test_shape_rule(self, r_shape, y_shape):
        message = (f"expected y_hat of even length 2N > 0 and r of shape (2N, 2N), "
                   f"got shapes {y_shape} and {r_shape}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LatticeProblem(np.ones(r_shape), np.ones(y_shape), Representation.INTERLEAVED)

    def test_degenerate_channel_propagates(self):
        h = np.ones((2, 2), dtype=complex)
        with pytest.raises(DegenerateChannelError):
            build_problem(h, np.ones(2, dtype=complex), Representation.STACKED)

    @pytest.mark.parametrize("rep", list(Representation))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, rep, bad):
        h, s, _ = self._instance(2)
        y = h @ s
        for part in (complex(bad, 0.0), complex(0.0, bad)):
            y_bad = y.copy()
            y_bad[0] = part
            with pytest.raises(ValueError, match="received vector is not finite"):
                build_problem(h, y_bad, rep)
            h_bad = h.copy()
            h_bad[1, 0] = part
            with pytest.raises(ValueError, match="not finite"):
                build_problem(h_bad, y, rep)

    def test_input_whose_reduction_is_too_large_rejected(self):
        # every entry passes the input checks, but R's diagonal is sqrt(2) * 9e149
        h = 9e149 * np.array([[1, -1], [1, 1]], dtype=complex)
        message = ("channel or received vector too large: its QR reduction has an "
                   "entry not below 1e+150")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            build_problem(h, np.ones(2), Representation.STACKED)
        assert info.value.__cause__ is None and info.value.__suppress_context__

    def test_bad_sigma(self):
        with pytest.raises(ValueError, match="initial_sq"):
            RadiusPolicy.for_noise(0.0, 2)


class TestProblemRule:
    MESSAGE = ("expected r and y_hat finite and below 1e+150 in magnitude, and r's "
               "diagonal above 1e-12")

    @pytest.mark.parametrize("rep", list(Representation))
    def test_values_just_inside_the_bounds_construct(self, rep):
        big = np.nextafter(MAX_ENTRY, 0)
        r = np.diag([1.0, big, 1.0, np.nextafter(RANK_TOL, 1)])
        r[0, 3] = -big
        LatticeProblem(r, np.array([big, -big, 0.0, 1.0]), rep)

    @pytest.mark.parametrize("entry, value", [
        ((0, 3), MAX_ENTRY), ((0, 3), -MAX_ENTRY), ((1, 1), MAX_ENTRY),
        ((3, 3), RANK_TOL), ((3, 3), -RANK_TOL), ((0, 2), np.nan)])
    def test_r_at_a_bound_rejected(self, entry, value):
        r = np.eye(4)
        r[entry] = value
        with pytest.raises(ValueError, match=f"^{re.escape(self.MESSAGE)}$"):
            LatticeProblem(r, np.ones(4), Representation.STACKED)

    @pytest.mark.parametrize("value", [MAX_ENTRY, -MAX_ENTRY, np.nan])
    def test_y_hat_at_a_bound_rejected(self, value):
        y = np.ones(4)
        y[2] = value
        with pytest.raises(ValueError, match=f"^{re.escape(self.MESSAGE)}$"):
            LatticeProblem(np.eye(4), y, Representation.INTERLEAVED)

    def test_weights_stay_finite_near_max_entry(self):
        # R's upper triangle is 1e149 and y_hat is -1e149, the worst signs for
        # the weights: the all -7 dive of sd_conventional's unconstrained pass
        # and ml's all +7 candidate are near the 2N (1 + 7 * 2N)^2 * 1e298
        # bound.  Any overflow would be a numpy warning (an error here), a
        # weight that is not finite, or a failed weight check.  sd_proposed's
        # leaf fits y_hat exactly, so its canonical weight is the rounding of
        # terms near 1e150, which the weight check must allow for.
        c = make_constellation(64)

        def problem(m, rep):
            r = np.triu(np.full((m, m), 1e149))
            if rep is Representation.INTERLEAVED:
                r[range(0, m, 2), range(1, m, 2)] = 0.0
            return LatticeProblem(r, np.full(m, -1e149), rep)

        policy = RadiusPolicy(initial_sq=1.0)
        results = [sd_conventional(problem(12, Representation.STACKED), c, policy),
                   sd_proposed(problem(12, Representation.INTERLEAVED), c, policy),
                   ml_exhaustive(problem(4, Representation.STACKED), c)]
        assert all(math.isfinite(res.weight) for res in results)
        assert results[0].restarts == MAX_RESTARTS + 1  # the unconstrained pass ran
        assert 0.0 < results[1].weight < 1e-20 * 1e298
