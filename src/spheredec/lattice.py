"""Real-valued lattice representations of the complex MIMO channel.

Two equivalent 2N-dimensional real formulations of y = H s + v are
supported:

* ``INTERLEAVED`` -- each transmit symbol contributes an adjacent (Re, Im)
  column pair and each receive sample an adjacent (Re, Im) row pair.
  Adjacent columns of a pair are exactly orthogonal with equal norm, which
  puts exact zeros at r[k, k+1] (even 0-based k) after Gram-Schmidt QR; the
  reduced-complexity detector relies on those zeros to decode each symbol's
  real and imaginary rails independently.
* ``STACKED``   -- the block form [[Re H, -Im H], [Im H, Re H]] with the
  real parts of all symbols stacked above all imaginary parts.  It is the
  interleaved form with rows and columns permuted by :func:`symbol_order`,
  and its receive vector the pair-ordered one permuted the same way.

Levels follow the 1-indexed convention l = 2N, ..., 1 used throughout the
tree-search code: level l corresponds to row/column l-1 of R.
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import gram_schmidt_qr, preprocessing_flops
from .modem import complex_to_rails


class Representation(enum.Enum):
    STACKED = "stacked"
    INTERLEAVED = "interleaved"


@dataclass(frozen=True)
class RadiusPolicy:
    """Initial squared sphere radius plus the empty-sphere restart rule.

    ``initial_sq`` should normally come from :meth:`for_noise`, which uses
    d^2 = 2 * sigma^2 * dim with dim the real search dimension 2N (the
    ``dimension="n"`` variant uses the complex dimension N instead; the
    restart rule makes detection correct under either choice).  When a
    search pass finds no lattice point inside the sphere the radius is
    multiplied by ``growth`` and the pass rerun, at most ``max_restarts``
    times, after which an unconstrained (infinite-radius) pass runs.
    """

    initial_sq: float
    growth: float = 2.0
    max_restarts: int = 20

    def __post_init__(self):
        if not self.initial_sq > 0:
            raise ValueError("initial_sq must be positive")
        if not self.growth > 1:
            raise ValueError("growth must exceed 1")
        if self.max_restarts < 1:
            raise ValueError("max_restarts must be at least 1")

    @classmethod
    def for_noise(cls, sigma_sq, n, dimension="2n"):
        if dimension not in ("n", "2n"):
            raise ValueError(f"dimension must be 'n' or '2n', got {dimension!r}")
        dim = 2 * n if dimension == "2n" else n
        return cls(initial_sq=2.0 * sigma_sq * dim)

    def radii(self):
        """Yield ``(attempt, d2)`` for each search pass: the initial squared
        radius grown ``attempt`` times for attempt 0..max_restarts, then one
        unconstrained pass at ``math.inf``."""
        for attempt in range(self.max_restarts + 1):
            yield attempt, self.initial_sq * self.growth ** attempt
        yield self.max_restarts + 1, math.inf

    def first_leaf(self, search):
        """Run the pass ``search(d2)`` at each radius of :meth:`radii` until
        one returns a leaf (not ``None``); return ``(attempt, leaf)``."""
        for attempt, d2 in self.radii():
            leaf = search(d2)
            if leaf is not None:
                return attempt, leaf
        raise RuntimeError("no leaf found even by the unconstrained search pass")


@dataclass(frozen=True)
class LatticeProblem:
    """QR-reduced detection problem min ||y_hat - R x||^2 over the rail set.

    ``r`` is 2N x 2N upper triangular with positive diagonal and ``y_hat``
    the rotated receive vector.  For the interleaved representation
    r[k, k+1] == 0.0 exactly for even 0-based k.  ``preproc_flops`` records
    the QR + rotation cost.  The search radius is not part of the problem:
    each tree detector takes its :class:`RadiusPolicy`.
    """

    r: np.ndarray
    y_hat: np.ndarray
    representation: Representation
    n: int
    preproc_flops: int = 0


def stack_real(h):
    """Complex N x N channel -> stacked 2N x 2N real form: the interleaved
    form with rows and columns permuted into the stacked symbol order."""
    h = _square_complex(h)
    return _interleave(h)[_stacked_grid(len(h))]


def interleave(h):
    """Complex N x N channel -> interleaved 2N x 2N real form.

    Entry pattern per complex coefficient H[m, n] (0-based):
    out[2m, 2n] = Re, out[2m, 2n+1] = -Im, out[2m+1, 2n] = Im,
    out[2m+1, 2n+1] = Re.
    """
    return _interleave(_square_complex(h))


def _interleave(h):
    n = h.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[0::2, 0::2] = h.real
    out[0::2, 1::2] = -h.imag
    out[1::2, 0::2] = h.imag
    out[1::2, 1::2] = h.real
    return out


@functools.cache
def symbol_order(n, representation):
    """Index permutation taking a pair-ordered rail vector into the
    representation's symbol order: x_rep = x_pair[symbol_order(n, rep)].

    Built once per (n, representation) and returned read-only."""
    if representation is Representation.INTERLEAVED:
        order = np.arange(2 * n)
    else:
        order = np.concatenate([np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)])
    order.flags.writeable = False
    return order


@functools.cache
def _stacked_grid(n):
    """``np.ix_`` grid permuting a 2N x 2N interleaved matrix into the
    stacked symbol order, built once per n."""
    order = symbol_order(n, Representation.STACKED)
    return np.ix_(order, order)


def to_pair_order(x_rep, representation):
    x_rep = np.asarray(x_rep)
    n = len(x_rep) // 2
    out = np.empty_like(x_rep)
    out[symbol_order(n, representation)] = x_rep
    return out


def build_problem(h, y, representation):
    """Assemble the QR-reduced problem for one channel use.

    Permutes the interleaved real form and the pair-ordered receive vector
    into the representation's symbol order (the interleaved form needs no
    permutation), then applies Gram-Schmidt QR
    (with structural zero forcing for the interleaved form) and the q^T
    rotation of the receive vector.  Propagates
    :class:`~spheredec.linalg.DegenerateChannelError` for rank-deficient
    draws so the caller can redraw the channel, and raises ``ValueError``
    for a channel or received vector that is not finite.
    """
    h = _square_complex(h)
    n = h.shape[0]
    if len(np.asarray(y)) != n:
        raise ValueError("received vector length does not match the channel")
    h_real = _interleave(h)
    y_real = complex_to_rails(y)
    if not all(map(math.isfinite, y_real.tolist())):
        raise ValueError("received vector is not finite")
    pair_zeros = representation is Representation.INTERLEAVED
    if not pair_zeros:
        h_real = h_real[_stacked_grid(n)]
        y_real = y_real[symbol_order(n, representation)]
    factors = gram_schmidt_qr(h_real, pair_zeros=pair_zeros)
    y_hat = factors.q.T @ y_real
    return LatticeProblem(
        r=factors.r,
        y_hat=y_hat,
        representation=representation,
        n=n,
        preproc_flops=preprocessing_flops(2 * n),
    )


def _square_complex(h):
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square channel matrix, got {h.shape}")
    return h
