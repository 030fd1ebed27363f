"""Classical Gram-Schmidt QR and its operation count.

All routines operate on plain float64 / complex128 numpy arrays.  The QR
factorization is written out as the classical (project-onto-the-original-
column) Gram-Schmidt procedure instead of calling LAPACK: the interleaved
lattice construction relies on the exact zero pattern that Gram-Schmidt
produces in R for pair-structured matrices, and recording the pre-forcing
magnitude of those entries doubles as a numerical health check.

Problem sizes here are tiny (at most 12 x 12), so conditioning of classical
vs. modified Gram-Schmidt is not a concern.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

# Columns whose residual norm falls at or below this are treated as a rank
# deficiency; continuous channel draws make this a measure-zero event.
RANK_TOL = 1e-12

# Structural zeros of a pair-structured matrix must already be this small
# before they are snapped to exact 0.0.
PAIR_ZERO_TOL = 1e-9


class DegenerateChannelError(Exception):
    """Input matrix is numerically rank deficient; caller should redraw."""


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
    ValueError : non-square or non-finite input, or the declared pair
        structure does not hold numerically.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("matrix is not finite")
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
