"""Square-QAM constellations, per-rail Gray mapping, and the rail quantizer.

A square constellation is described entirely by its one-dimensional rail
alphabet (e.g. [-3, -1, 1, 3] for 16-QAM): the complex symbol set is the
Cartesian product of the rail with itself.  Levels are kept as unnormalized
odd integers so lattice arithmetic stays integer-exact; energy normalization
is handled by the SNR definition in :mod:`spheredec.sim`.

Bit mapping is binary-reflected Gray code per rail, applied independently to
the in-phase and quadrature components.  Rail vectors produced and consumed
here use *pair order*: [Re s_1, Im s_1, Re s_2, Im s_2, ...].
"""

import math
from dataclasses import dataclass, field

import numpy as np

_RAILS = {
    16: (-3, -1, 1, 3),
    64: (-7, -5, -3, -1, 1, 3, 5, 7),
}


@dataclass(frozen=True)
class Constellation:
    """One square-QAM constellation.

    ``rail`` is the ascending one-dimensional alphabet, ``mu`` its size,
    ``bits_per_rail`` = log2(mu), and ``avg_symbol_energy`` the mean |s|^2
    over the full complex constellation (= 2 * mean(rail^2)).
    ``level_of_codeword`` maps each Gray codeword, read as an integer, to
    its rail level, and ``bits_of_level`` maps each rail level to its
    codeword bits, MSB first.
    """

    order: int
    rail: tuple[int, ...]
    mu: int
    bits_per_rail: int
    avg_symbol_energy: float
    level_of_codeword: np.ndarray = field(repr=False, compare=False)
    bits_of_level: dict = field(repr=False, compare=False)


def _build_constellation(order):
    rail = _RAILS[order]
    mu = len(rail)
    bpr = mu.bit_length() - 1
    codewords = [i ^ (i >> 1) for i in range(mu)]  # binary-reflected Gray code
    level_of_codeword = np.empty(mu, dtype=int)
    level_of_codeword[codewords] = rail
    level_of_codeword.setflags(write=False)
    bits_of_level = {level: tuple((g >> (bpr - 1 - j)) & 1 for j in range(bpr))
                     for level, g in zip(rail, codewords)}
    return Constellation(
        order=order,
        rail=rail,
        mu=mu,
        bits_per_rail=bpr,
        avg_symbol_energy=2.0 * sum(v * v for v in rail) / mu,
        level_of_codeword=level_of_codeword,
        bits_of_level=bits_of_level,
    )


_CONSTELLATIONS = {order: _build_constellation(order) for order in _RAILS}


def make_constellation(order):
    """The 16-QAM or 64-QAM constellation."""
    try:
        return _CONSTELLATIONS[order]
    except (KeyError, TypeError):  # TypeError: an unhashable order
        raise ValueError(f"unsupported QAM order {order!r}; choose 16 or 64") from None


def bits_to_symbols(bits, c, n_antennas):
    """Map a bit vector onto 2N rail levels in pair order.

    Consecutive groups of ``bits_per_rail`` bits (MSB first) are read as a
    Gray codeword and mapped to its rail level, filling
    [Re s_1, Im s_1, ..., Re s_N, Im s_N] in order.
    """
    bits = np.asarray(bits)
    expected = 2 * n_antennas * c.bits_per_rail
    if bits.ndim != 1 or len(bits) != expected:
        raise ValueError(f"expected {expected} bits, got {bits.shape}")
    if np.count_nonzero((bits == 0) | (bits == 1)) != len(bits):
        raise ValueError("bits must each be 0 or 1")
    weights = 1 << np.arange(c.bits_per_rail - 1, -1, -1)
    return c.level_of_codeword[bits.astype(int).reshape(-1, c.bits_per_rail) @ weights]


def symbols_to_bits(symbols, c):
    """Exact inverse of :func:`bits_to_symbols`."""
    symbols = np.asarray(symbols)
    if symbols.ndim != 1:
        raise ValueError(f"expected a vector of rail levels, got shape {symbols.shape}")
    out = []
    for level in symbols.tolist():
        try:
            out.extend(c.bits_of_level[level])
        except KeyError:
            raise ValueError(f"{level} is not a rail level of {c.order}-QAM") from None
    return np.array(out, dtype=int)


def quantize_rail(v, c):
    """Nearest rail level to a real value.

    Values beyond the extreme levels clamp to that extreme.  An exact
    midpoint between two levels rounds toward the level of smaller
    magnitude; the dead-center midpoint 0.0 (equal magnitudes) rounds to
    the negative level.  Midpoints occur with probability zero under
    continuous noise, the rule exists only for reproducibility.
    """
    if not math.isfinite(v):
        raise ValueError(f"cannot quantize non-finite value {v!r}")
    rail = c.rail
    if v <= rail[0]:
        return rail[0]
    if v >= rail[-1]:
        return rail[-1]
    i = int((v - rail[0]) // 2)
    lo, hi = rail[i], rail[i + 1]
    mid = lo + 1
    if v < mid:
        return lo
    if v > mid:
        return hi
    return lo if abs(lo) <= abs(hi) else hi


def rails_to_complex(x):
    """Pair-ordered rail vector -> complex symbol vector of length N."""
    x = np.array(x, dtype=float)  # a contiguous copy, viewed as complex
    if x.ndim != 1 or len(x) % 2:
        raise ValueError(f"expected an even-length rail vector, got shape {x.shape}")
    return x.view(complex)

