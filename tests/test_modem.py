"""Tests for constellations, Gray mapping, and the rail quantizer."""

import re

import numpy as np
import pytest

from spheredec.modem import (
    bits_to_symbols,
    make_constellation,
    quantize_rail,
    rails_to_complex,
    symbols_to_bits,
)


class TestMakeConstellation:
    def test_16qam(self):
        c = make_constellation(16)
        assert c.rail == (-3, -1, 1, 3)
        assert c.mu == 4
        assert c.bits_per_rail == 2
        assert c.avg_symbol_energy == 10.0

    def test_64qam(self):
        c = make_constellation(64)
        assert c.rail == (-7, -5, -3, -1, 1, 3, 5, 7)
        assert c.mu == 8
        assert c.bits_per_rail == 3
        assert c.avg_symbol_energy == 42.0

    def test_unsupported_order(self):
        for order in (4, "16", [16]):
            with pytest.raises(ValueError, match=re.escape(
                    f"unsupported QAM order {order!r}; choose 16 or 64")):
                make_constellation(order)


class TestGrayMapping:
    def test_16qam_rail_codewords(self):
        c = make_constellation(16)
        for bits, level in (((0, 0), -3), ((0, 1), -1), ((1, 1), 1), ((1, 0), 3)):
            assert bits_to_symbols(np.array(bits * 2), c, 1)[0] == level
        assert list(symbols_to_bits(np.array([-3]), c)) == [0, 0]
        assert list(symbols_to_bits(np.array([3]), c)) == [1, 0]

    def test_all_zero_bits(self):
        c = make_constellation(16)
        out = bits_to_symbols(np.zeros(8, dtype=int), c, 2)
        assert np.array_equal(out, np.full(4, -3))

    def test_gray_adjacency(self):
        # adjacent rail levels must differ in exactly one bit
        for order in (16, 64):
            c = make_constellation(order)
            words = [symbols_to_bits(np.array([lv]), c) for lv in c.rail]
            for a, b in zip(words, words[1:]):
                assert int(np.sum(a != b)) == 1

    def test_round_trip_random(self):
        rng = np.random.default_rng(31)
        for order in (16, 64):
            c = make_constellation(order)
            for n in (2, 4, 6):
                for _ in range(400):
                    bits = rng.integers(0, 2, size=2 * n * c.bits_per_rail)
                    back = symbols_to_bits(bits_to_symbols(bits, c, n), c)
                    assert np.array_equal(back, bits)

    def test_bijective_on_full_space_n2_16qam(self):
        c = make_constellation(16)
        seen = set()
        for v in range(2 ** 8):
            bits = np.array([(v >> i) & 1 for i in range(8)])
            seen.add(tuple(bits_to_symbols(bits, c, 2)))
        assert len(seen) == 256

    def test_wrong_bit_count(self):
        c = make_constellation(16)
        with pytest.raises(ValueError, match="bits"):
            bits_to_symbols(np.zeros(7, dtype=int), c, 2)

    def test_non_rail_level_rejected(self):
        c = make_constellation(16)
        with pytest.raises(ValueError, match="rail"):
            symbols_to_bits(np.array([2]), c)
        # a fractional level is not truncated onto the rail
        with pytest.raises(ValueError, match="^1.5 is not a rail level of 16-QAM$"):
            symbols_to_bits([1.5, 1], c)
        assert list(symbols_to_bits([3.0, -1.0], c)) == [1, 0, 0, 1]

    def test_non_vector_levels_rejected(self):
        c = make_constellation(16)
        for symbols, shape in (([[1, -1], [3, -3]], (2, 2)), (3, ())):
            with pytest.raises(ValueError, match=re.escape(
                    f"expected a vector of rail levels, got shape {shape}")):
                symbols_to_bits(symbols, c)

    @pytest.mark.parametrize("bits", [[0, 2, 0, 3], [0.9, 0, 0, 1], [0, -1, 1, 1],
                                      [float("nan"), 0, 0, 1], ["0", "1", "0", "1"]])
    def test_non_binary_bits_rejected(self, bits):
        with pytest.raises(ValueError, match="^bits must each be 0 or 1$"):
            bits_to_symbols(bits, make_constellation(16), 1)

    def test_float_and_bool_bits_accepted(self):
        c = make_constellation(16)
        for bits in ([1.0, 0.0, 0.0, 1.0], [True, False, False, True]):
            assert list(bits_to_symbols(bits, c, 1)) == [3, -1]


class TestQuantizeRail:
    def test_nearest(self):
        c = make_constellation(16)
        assert quantize_rail(0.2, c) == 1
        assert quantize_rail(-0.2, c) == -1
        assert quantize_rail(2.9, c) == 3

    def test_clamps_to_extremes(self):
        c = make_constellation(16)
        assert quantize_rail(5.7, c) == 3
        assert quantize_rail(-100.0, c) == -3
        c64 = make_constellation(64)
        assert quantize_rail(9.0, c64) == 7

    def test_midpoint_toward_smaller_magnitude(self):
        c = make_constellation(16)
        assert quantize_rail(-2.0, c) == -1
        assert quantize_rail(2.0, c) == 1
        assert quantize_rail(0.0, c) == -1  # dead-center rule: negative level

    def test_non_finite_rejected(self):
        c = make_constellation(16)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-finite"):
                quantize_rail(bad, c)

    def test_argmin_property(self):
        # the quantizer must achieve the minimum distance over the rail
        rng = np.random.default_rng(33)
        for order in (16, 64):
            c = make_constellation(order)
            span = c.rail[-1] + 3
            for v in rng.uniform(-span, span, size=50_000):
                q = quantize_rail(v, c)
                assert abs(v - q) == min(abs(v - w) for w in c.rail)


class TestRailComplexConversions:
    def test_pair_order(self):
        s = rails_to_complex(np.array([1, 2, 3, 4]))
        assert np.array_equal(s, np.array([1 + 2j, 3 + 4j]))

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="even"):
            rails_to_complex(np.array([1.0, 2.0, 3.0]))
