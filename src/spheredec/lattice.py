"""Real-valued lattice representations of the complex MIMO channel and
their QR reduction.

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

The QR factorization is written out as the classical (project-onto-the-
original-column) Gram-Schmidt procedure instead of calling LAPACK: the
interleaved form relies on the exact zero pattern that Gram-Schmidt
produces in R for pair-structured matrices, and recording the pre-forcing
magnitude of those entries doubles as a numerical health check.  Problem
sizes are tiny (at most 12 x 12), so conditioning of classical vs.
modified Gram-Schmidt is not a concern.

Levels follow the 1-indexed convention l = 2N, ..., 1 used throughout the
tree-search code: level l corresponds to row/column l-1 of R.
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .modem import complex_to_rails

# Columns whose residual norm falls at or below this are treated as a rank
# deficiency; continuous channel draws make this a measure-zero event.
RANK_TOL = 1e-12

# Structural zeros of a pair-structured matrix must already be this small
# before they are snapped to exact 0.0.
PAIR_ZERO_TOL = 1e-9

# Largest entry magnitude of a channel or received vector: below it, the squared
# column norm of an m x m matrix stays under m * 1e300, finite for any m < 1e8.
MAX_ENTRY = 1e150


class DegenerateChannelError(Exception):
    """Input matrix is numerically rank deficient; caller should redraw."""


class Representation(enum.Enum):
    STACKED = "stacked"
    INTERLEAVED = "interleaved"


# Empty-sphere restart schedule (Hassibi & Vikalo): d^2 doubles after each
# empty pass, at most MAX_RESTARTS times, then one unconstrained pass runs.
# Every pass adds to a detection's tallies, so this fixed schedule is part of
# the counting convention.
RADIUS_GROWTH = 2.0
MAX_RESTARTS = 20


@dataclass(frozen=True)
class RadiusPolicy:
    """Initial squared sphere radius of the empty-sphere restart rule.

    ``initial_sq`` should normally come from :meth:`for_noise`, which uses
    d^2 = 2 * sigma^2 * dim with dim the real search dimension 2N (the
    ``dimension="n"`` variant uses the complex dimension N instead; the
    restart rule makes detection correct under either choice).  A pass that
    finds no lattice point inside the sphere reruns on the schedule above.
    """

    initial_sq: float

    def __post_init__(self):
        if not self.initial_sq > 0:
            raise ValueError("initial_sq must be positive")

    @classmethod
    def for_noise(cls, sigma_sq, n, dimension="2n"):
        if dimension not in ("n", "2n"):
            raise ValueError(f"radius_dimension {dimension!r} is not 'n' or '2n'")
        dim = 2 * n if dimension == "2n" else n
        return cls(initial_sq=2.0 * sigma_sq * dim)

    def radii(self):
        """Yield ``(attempt, d2)`` for each search pass: the initial squared
        radius grown ``attempt`` times for attempt 0..MAX_RESTARTS, then one
        unconstrained pass at ``math.inf``."""
        for attempt in range(MAX_RESTARTS + 1):
            yield attempt, self.initial_sq * RADIUS_GROWTH ** attempt
        yield MAX_RESTARTS + 1, math.inf

    def first_leaf(self, search):
        """Run the pass ``search(d2)`` at each radius of :meth:`radii` until
        one returns a leaf (not ``None``); return ``(attempt, leaf)``."""
        for attempt, d2 in self.radii():
            leaf = search(d2)
            if leaf is not None:
                return attempt, leaf
        raise RuntimeError("no leaf found even by the unconstrained search pass")


@dataclass(frozen=True)
class QrFactors:
    """Factorization h = q @ r with orthonormal q and upper-triangular r.

    The diagonal of ``r`` is strictly positive, which makes the
    factorization unique.  ``zero_structure_max`` is the largest
    ``|r[k, k+1]|`` over even 0-based ``k`` observed *before* those entries
    were forced to exact zero; it is ``None`` when the input was not
    declared pair-structured.
    """

    q: np.ndarray
    r: np.ndarray
    zero_structure_max: float | None = None


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


def real_form(h, representation):
    """Complex N x N channel -> 2N x 2N real form in the representation's
    symbol order.

    The interleaved entry pattern per complex coefficient H[m, n] (0-based)
    is out[2m, 2n] = Re, out[2m, 2n+1] = -Im, out[2m+1, 2n] = Im,
    out[2m+1, 2n+1] = Re; the stacked form is that matrix with rows and
    columns permuted by :func:`symbol_order`.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square channel matrix, got {h.shape}")
    n = h.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[0::2, 0::2] = h.real
    out[0::2, 1::2] = -h.imag
    out[1::2, 0::2] = h.imag
    out[1::2, 1::2] = h.real
    if representation is Representation.INTERLEAVED:
        return out
    return out[_stacked_grid(n)]


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


def gram_schmidt_qr(h, pair_zeros=False):
    """Classical Gram-Schmidt QR of a square real matrix.

    Each column is projected onto the already-orthonormalized columns
    e_1..e_{k-1}; the projection coefficients fill column k of R and the
    normalized residual becomes e_k.  The diagonal of R holds the residual
    norms and is therefore positive.

    Parameters
    ----------
    h : (m, m) array of floats with linearly independent columns.
    pair_zeros : when True the input is declared pair-structured (columns
        2j and 2j+1 orthogonal with equal norm, 0-based).  The entries
        r[k, k+1] for even k are then asserted to be below ``PAIR_ZERO_TOL``
        and forced to exact 0.0, with the pre-forcing maximum reported in
        ``QrFactors.zero_structure_max``.

    Raises
    ------
    DegenerateChannelError : a column residual norm fell below ``RANK_TOL``.
    ValueError : non-square input, input that is not finite or has an entry
        of magnitude ``MAX_ENTRY`` or more, or the declared pair structure
        does not hold numerically.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    largest = np.abs(h).max(initial=0.0)  # NaN if any entry is NaN
    if not largest < MAX_ENTRY:
        if not math.isfinite(largest):
            raise ValueError("matrix is not finite")
        raise ValueError(f"matrix entry magnitude {largest:.3e} is not below "
                         f"{MAX_ENTRY:g}; the squared column norms could overflow")
    m = h.shape[0]
    if pair_zeros and m % 2:
        raise ValueError("pair-structured matrices must have even size")
    q = np.empty((m, m))
    r = np.zeros((m, m))
    for k in range(m):
        hk = h[:, k]
        if k:
            qk = q[:, :k]
            coeff = qk.T @ hk
            r[:k, k] = coeff
            u = hk - qk @ coeff
        else:
            u = hk.copy()  # contiguous, so u @ u takes the same BLAS path
        norm = math.sqrt(u @ u)
        if norm <= RANK_TOL:
            raise DegenerateChannelError(f"column {k} is numerically dependent")
        r[k, k] = norm
        np.divide(u, norm, out=q[:, k])

    zmax = None
    if pair_zeros:
        pairs = _pair_entries(m)
        zmax = max(map(abs, r[pairs].tolist()))
        if not zmax < PAIR_ZERO_TOL:
            raise ValueError(
                f"pair zero structure violated: max |r[k,k+1]| = {zmax:.3e}"
            )
        r[pairs] = 0.0
    return QrFactors(q=q, r=r, zero_structure_max=zmax)


@functools.cache
def _pair_entries(m):
    """Index arrays of the entries r[k, k+1], even 0-based k, of an m x m R."""
    rows = np.arange(0, m, 2)
    rows.flags.writeable = False
    cols = rows + 1
    cols.flags.writeable = False
    return rows, cols


def preprocessing_flops(m):
    """Real add/mul/div count of one Gram-Schmidt QR plus the q^T y rotation.

    Counts the operations of the classical procedure above at size m x m:
    per column k, the k inner products (m mults + m-1 adds each), the
    residual update (k*m mults + k*m adds), the norm (m mults + m-1 adds;
    the square root itself is not an add/mul/div), and the normalization
    (m divisions).  The rotation costs m*m mults + m*(m-1) adds.  Summed
    over k = 0..m-1 that is (4m-1) * m(m-1)/2 + m(3m-1), plus the rotation.
    """
    return (4 * m - 1) * (m * (m - 1) // 2) + m * (3 * m - 1) + m * m + m * (m - 1)


def build_problem(h, y, representation):
    """Assemble the QR-reduced problem for one channel use.

    Takes the :func:`real_form` of the channel and permutes the pair-ordered
    receive vector into the same symbol order (the interleaved form needs
    no permutation), then applies Gram-Schmidt QR (with structural zero
    forcing for the interleaved form) and the q^T rotation of the receive
    vector.  Propagates :class:`DegenerateChannelError` for rank-deficient
    draws so the caller can redraw the channel, and raises ``ValueError``
    for a channel or received vector that is not finite or not below ``MAX_ENTRY``.
    """
    h_real = real_form(h, representation)
    n = len(h_real) // 2
    if len(np.asarray(y)) != n:
        raise ValueError("received vector length does not match the channel")
    y_real = complex_to_rails(y)
    if not all(map(MAX_ENTRY.__gt__, map(abs, y_real.tolist()))):  # also NaN
        raise ValueError(f"received vector is not finite or not below {MAX_ENTRY:g}")
    pair_zeros = representation is Representation.INTERLEAVED
    if not pair_zeros:
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
