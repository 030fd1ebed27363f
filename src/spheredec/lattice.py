"""Real-valued lattice representations of the complex MIMO channel and
their QR reduction.

Two equivalent 2N-dimensional real formulations of y = H s + v are
supported.  They differ only in where the real (Re) and imaginary (Im)
rails of each symbol and receive sample sit among the 2N rows and
columns, and :func:`_rails` is the one place that says so:

* ``INTERLEAVED`` -- the rails alternate, Re at even and Im at odd 0-based
  indices, so each symbol owns an adjacent (Re, Im) column pair.  Adjacent
  columns of a pair are exactly orthogonal with equal norm, which puts
  exact zeros at r[k, k+1] (even 0-based k) after Gram-Schmidt QR; the
  reduced-complexity detector relies on those zeros to decode each symbol's
  real and imaginary rails independently.
* ``STACKED``   -- the Re rails fill the first half and the Im rails the
  second, giving the block form [[Re H, -Im H], [Im H, Re H]].

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
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Columns whose residual norm falls at or below this are treated as a rank
# deficiency; continuous channel draws make this a measure-zero event.
RANK_TOL = 1e-12

# Structural zeros of a pair-structured matrix must already be this small
# before they are snapped to exact 0.0.
PAIR_ZERO_TOL = 1e-9

# Largest entry magnitude of a channel or received vector: below it, the squared
# column norm of an m x m matrix stays under m * 1e300, finite for any m < 1e8.
MAX_ENTRY = 1e150


def _shown(value):
    """``repr(value)`` for a check's message, or a stand-in where Python
    refuses to convert an int of more than ``sys.get_int_max_str_digits()``
    digits, which would replace the message with its own."""
    try:
        return repr(value)
    except ValueError:
        return "a number too long to print"


class DegenerateChannelError(Exception):
    """Input matrix is numerically rank deficient; caller should redraw."""


class Representation(enum.Enum):
    STACKED = "stacked"
    INTERLEAVED = "interleaved"


# Empty-sphere restart schedule (Hassibi & Vikalo): d^2 doubles after each
# empty pass, at most MAX_RESTARTS times, then one unconstrained pass runs.
# Every pass counts toward a detection's tallies, so this fixed schedule is
# part of the counting convention.
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
        v = self.initial_sq
        real = isinstance(v, numbers.Real) and not isinstance(v, bool)
        try:  # stored as a float, so that every pass's d^2 is one
            f = float(v) if real else math.nan
        except OverflowError:  # an int or a fraction beyond the float range
            f = math.nan
        if not f > 0:
            raise ValueError(f"initial_sq must be a positive number, got {_shown(v)}")
        object.__setattr__(self, "initial_sq", f)

    @classmethod
    def for_noise(cls, sigma_sq, n, dimension="2n"):
        if dimension not in ("n", "2n"):
            raise ValueError(f"radius_dimension {dimension!r} is not 'n' or '2n'")
        dim = 2 * n if dimension == "2n" else n
        try:
            initial_sq = 2.0 * sigma_sq * dim
        except OverflowError:  # a product beyond the float range
            raise ValueError(f"initial_sq must be a positive number, got "
                             f"2.0 * {_shown(sigma_sq)} * {_shown(dim)}") from None
        return cls(initial_sq=initial_sq)

    def radii(self):
        """Yield ``(attempt, d2)`` for each search pass: the initial squared
        radius grown ``attempt`` times for attempt 0..MAX_RESTARTS, then one
        unconstrained pass at ``math.inf``."""
        for attempt in range(MAX_RESTARTS + 1):
            yield attempt, self.initial_sq * RADIUS_GROWTH ** attempt
        yield MAX_RESTARTS + 1, math.inf

    def first_leaf(self, search):
        """Run the pass ``search(d2)`` at each radius of :meth:`radii` until
        one returns a leaf (not ``None``); return ``(attempt, leaf)``.  The
        raise cannot occur for a valid :class:`LatticeProblem` at 2N <= 154."""
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

    ``r`` is 2N x 2N upper triangular and ``y_hat`` the rotated receive
    vector.  Construction raises one ``ValueError`` unless, as in every QR
    output, each entry of both is finite and below ``MAX_ENTRY`` in magnitude
    and each diagonal entry of ``r`` is above ``RANK_TOL``; search weights then
    stay below 2N (1 + 7 * 2N)^2 * 1e300, finite at 2N <= 154.  In the
    interleaved representation r[k, k+1] == 0.0 for even 0-based k.  The QR +
    rotation cost is :func:`preprocessing_flops` of 2N.  Each tree detector
    takes its own :class:`RadiusPolicy`.  ``n`` is N, read from ``y_hat``.
    """

    r: np.ndarray
    y_hat: np.ndarray
    representation: Representation

    def __post_init__(self):
        r, y, rep = self.r, self.y_hat, self.representation
        if not (isinstance(r, np.ndarray) and isinstance(y, np.ndarray)
                and r.dtype.kind in "iuf" and y.dtype.kind in "iuf"
                and isinstance(rep, Representation)):
            got = ", ".join(str(getattr(a, "dtype", type(a).__name__)) for a in (r, y))
            raise ValueError(f"expected r and y_hat as integer or float numpy arrays "
                             f"and a Representation, got {got} and {rep!r}")
        if y.ndim != 1 or not y.size or y.size % 2 or r.shape != 2 * y.shape:
            raise ValueError(f"expected y_hat of even length 2N > 0 and r of shape "
                             f"(2N, 2N), got shapes {y.shape} and {r.shape}")
        if not (np.abs(r).max() < MAX_ENTRY and np.abs(y).max() < MAX_ENTRY
                and r.diagonal().min() > RANK_TOL):  # each test is False at NaN
            raise ValueError(f"expected r and y_hat finite and below {MAX_ENTRY:g} in "
                             f"magnitude, and r's diagonal above {RANK_TOL:g}")

    @property
    def n(self):
        return len(self.y_hat) // 2


def _rails(n, representation):
    """The ``(re, im)`` slices locating the real and imaginary rails among
    the 2N rows or columns of the representation."""
    if representation is Representation.INTERLEAVED:
        return slice(0, None, 2), slice(1, None, 2)
    if representation is Representation.STACKED:
        return slice(None, n), slice(n, None)
    raise ValueError(f"unknown representation {representation!r}")


def real_form(h, representation):
    """Complex N x N channel -> 2N x 2N real form in the representation's
    symbol order.

    With ``(re, im)`` the rail positions from :func:`_rails`, the blocks
    are out[re, re] = Re H, out[re, im] = -Im H, out[im, re] = Im H and
    out[im, im] = Re H.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or not h.size:
        raise ValueError(f"expected a non-empty square channel matrix, got {h.shape}")
    n = h.shape[0]
    re, im = _rails(n, representation)
    out = np.empty((2 * n, 2 * n))
    out[re, re] = h.real
    out[re, im] = -h.imag
    out[im, re] = h.imag
    out[im, im] = h.real
    return out


def to_pair_order(x_rep, representation):
    """Rail vector in the representation's symbol order -> pair order
    [Re s_1, Im s_1, ..., Re s_N, Im s_N], reading each symbol's rails
    from where :func:`_rails` places them."""
    x_rep = np.asarray(x_rep)
    if x_rep.ndim != 1 or len(x_rep) % 2:
        raise ValueError(
            f"expected an even-length rail vector, got shape {x_rep.shape}")
    re, im = _rails(len(x_rep) // 2, representation)
    out = np.empty_like(x_rep)
    out[0::2] = x_rep[re]
    out[1::2] = x_rep[im]
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
    pair_zeros : when True the input is declared pair-structured: its
        columns are the interleaved rail pairs of :func:`_rails`, the Re
        column 2j and the Im column 2j+1 (0-based) orthogonal with equal
        norm.  The entries r[k, k+1] for even k are then checked to be
        below ``PAIR_ZERO_TOL`` and forced to exact 0.0, with the
        pre-forcing maximum reported in ``QrFactors.zero_structure_max``.

    Raises
    ------
    DegenerateChannelError : a column residual norm fell below ``RANK_TOL``.
    ValueError : complex, empty or non-square input, input that is not finite or
        has an entry of magnitude ``MAX_ENTRY`` or more, or the declared
        pair structure does not hold numerically.
    """
    h = np.asarray(h)
    if np.iscomplexobj(h):
        raise ValueError("expected a real matrix, got a complex one; "
                         "take its real_form first")
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or not h.size:
        raise ValueError(f"expected a non-empty square matrix, got shape {h.shape}")
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
        re, im = _rails(m // 2, Representation.INTERLEAVED)
        pairs = r[re, im]  # a view: r[k, k+1] for even k on its diagonal
        zmax = max(map(abs, pairs.diagonal().tolist()))
        if not zmax < PAIR_ZERO_TOL:
            raise ValueError(
                f"pair zero structure violated: max |r[k,k+1]| = {zmax:.3e}"
            )
        np.fill_diagonal(pairs, 0.0)
    return QrFactors(q=q, r=r, zero_structure_max=zmax)


def preprocessing_flops(m):
    """Real add/mul/div count of one Gram-Schmidt QR plus the q^T y rotation.

    Counts the operations of the classical procedure above at size m x m:
    per column k, the k inner products (m multiplications + m-1 additions
    each), the residual update (k*m of each), the norm (m multiplications +
    m-1 additions; the square root itself is not counted), and the
    normalization (m divisions).  The rotation costs m*m multiplications +
    m*(m-1) additions.  Summed over k = 0..m-1 that is
    (4m-1) * m(m-1)/2 + m(3m-1), plus the rotation.
    """
    return (4 * m - 1) * (m * (m - 1) // 2) + m * (3 * m - 1) + m * m + m * (m - 1)


def build_problem(h, y, representation):
    """Assemble the QR-reduced problem for one channel use.

    Takes the :func:`real_form` of the channel and places the complex
    receive vector's real and imaginary parts on the same rails, then
    applies Gram-Schmidt QR (with structural zero forcing for the
    interleaved form) and the q^T rotation of the receive vector.
    Propagates :class:`DegenerateChannelError` for rank-deficient draws so
    the caller can redraw the channel, and raises ``ValueError`` for a
    received vector that is not a length-N vector, or a channel or
    received vector that is not finite or not below ``MAX_ENTRY``, or whose
    QR reduction is not (up to sqrt(2N) times the largest input entry).
    """
    h_real = real_form(h, representation)
    n = len(h_real) // 2
    y = np.asarray(y, dtype=complex)
    if y.shape != (n,):
        raise ValueError("received vector length does not match the channel")
    re, im = _rails(n, representation)
    y_real = np.empty(2 * n)
    y_real[re] = y.real
    y_real[im] = y.imag
    if not all(map(MAX_ENTRY.__gt__, map(abs, y_real.tolist()))):  # also NaN
        raise ValueError(f"received vector is not finite or not below {MAX_ENTRY:g}")
    pair_zeros = representation is Representation.INTERLEAVED
    factors = gram_schmidt_qr(h_real, pair_zeros=pair_zeros)
    y_hat = factors.q.T @ y_real
    try:
        return LatticeProblem(r=factors.r, y_hat=y_hat, representation=representation)
    except ValueError:  # a QR output breaks only LatticeProblem's magnitude rule
        raise ValueError(f"channel or received vector too large: its QR reduction has "
                         f"an entry not below {MAX_ENTRY:g}") from None
