"""Test-only oracle: the per-trial harness as it stood before its lean-out,
kept verbatim.

Holds copies of functions as they were then, several of which the package
has since merged or renamed: ``trial_rng``, ``draw_channel`` and
``draw_instance`` of ``spheredec.sim`` (the channel draw is now part of
``draw_instance``, which takes all its Gaussians in one call);
``interleave``, ``symbol_order``, ``to_pair_order`` and ``build_problem``
of ``spheredec.lattice`` (``interleave`` is now ``real_form``, and
``symbol_order`` is gone: the package reads each layout from
``spheredec.lattice._rails``);
``rails_to_complex`` and ``complex_to_rails`` of ``spheredec.modem``;
``gram_schmidt_qr`` of the former ``spheredec.linalg``, now in
``spheredec.lattice``; and the scoring loop of ``spheredec.sim.run_trial``.
``tests/test_harness_reference.py`` requires the package's versions to give
array-equal draws, R, y_hat and ``zero_structure_max``, and equal
per-detector tallies.
"""

import functools

import numpy as np

from spheredec.detectors import ml_exhaustive, sd_conventional, sd_proposed
from spheredec.lattice import (
    PAIR_ZERO_TOL,
    RANK_TOL,
    DegenerateChannelError,
    LatticeProblem,
    QrFactors,
    Representation,
)
from spheredec.modem import bits_to_symbols, make_constellation, symbols_to_bits
from spheredec.sim import (
    _DETECTOR_REPRESENTATION,
    _MAX_REDRAWS,
    ChannelInstance,
    Tally,
    _point,
)


def rails_to_complex(x):
    """Pair-ordered rail vector -> complex symbol vector of length N."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) % 2:
        raise ValueError(f"expected an even-length rail vector, got {x.shape}")
    return x[0::2] + 1j * x[1::2]


def complex_to_rails(s):
    """Complex symbol vector -> pair-ordered rail vector of length 2N."""
    s = np.asarray(s, dtype=complex)
    out = np.empty(2 * len(s))
    out[0::2] = s.real
    out[1::2] = s.imag
    return out


def trial_rng(seed, snr_index, trial_index):
    """Independent Philox stream for one (seed, SNR point, trial) cell."""
    bg = np.random.Philox(key=seed, counter=[0, 0, snr_index, trial_index])
    return np.random.Generator(bg)


def draw_channel(rng, n):
    """N x N channel with i.i.d. unit-variance circular complex Gaussian
    entries (variance 0.5 per real dimension)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    scale = np.sqrt(0.5)
    return scale * rng.standard_normal((n, n)) + 1j * scale * rng.standard_normal((n, n))


def draw_instance(rng, cfg, sigma_sq):
    """Draw bits, symbols, channel, and noise for one trial (in that order)."""
    c = make_constellation(cfg.mod_order)
    n = cfg.n_antennas
    bits = rng.integers(0, 2, size=2 * n * c.bits_per_rail)
    x_pair = bits_to_symbols(bits, c, n)
    s = rails_to_complex(x_pair)
    h = draw_channel(rng, n)
    v = np.sqrt(sigma_sq / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return ChannelInstance(bits=bits, x_pair=x_pair, h=h, y=h @ s + v)


def gram_schmidt_qr(h, pair_zeros=False):
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    m = h.shape[0]
    q = np.empty((m, m))
    r = np.zeros((m, m))
    for k in range(m):
        u = h[:, k].copy()
        if k:
            coeff = q[:, :k].T @ h[:, k]
            r[:k, k] = coeff
            u -= q[:, :k] @ coeff
        norm = float(np.sqrt(u @ u))
        if norm <= RANK_TOL:
            raise DegenerateChannelError(f"column {k} is numerically dependent")
        r[k, k] = norm
        q[:, k] = u / norm

    zmax = None
    if pair_zeros:
        if m % 2:
            raise ValueError("pair-structured matrices must have even size")
        zmax = float(max(abs(r[k, k + 1]) for k in range(0, m, 2)))
        if zmax >= PAIR_ZERO_TOL:
            raise ValueError(
                f"pair zero structure violated: max |r[k,k+1]| = {zmax:.3e}"
            )
        for k in range(0, m, 2):
            r[k, k + 1] = 0.0
    return QrFactors(q=q, r=r, zero_structure_max=zmax)


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


def interleave(h):
    h = _square_complex(h)
    n = h.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[0::2, 0::2] = h.real
    out[0::2, 1::2] = -h.imag
    out[1::2, 0::2] = h.imag
    out[1::2, 1::2] = h.real
    return out


def to_pair_order(x_rep, representation):
    x_rep = np.asarray(x_rep)
    n = len(x_rep) // 2
    out = np.empty_like(x_rep)
    out[symbol_order(n, representation)] = x_rep
    return out


def build_problem(h, y, representation):
    h = _square_complex(h)
    n = h.shape[0]
    if len(np.asarray(y)) != n:
        raise ValueError("received vector length does not match the channel")
    order = symbol_order(n, representation)
    factors = gram_schmidt_qr(interleave(h)[np.ix_(order, order)],
                              pair_zeros=representation is Representation.INTERLEAVED)
    y_hat = factors.q.T @ complex_to_rails(y)[order]
    return LatticeProblem(
        r=factors.r,
        y_hat=y_hat,
        representation=representation,
    )


def _square_complex(h):
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square channel matrix, got {h.shape}")
    return h


def run_trial(rng, cfg, snr_db):
    """One trial through every detector on the reference draw and build,
    scored as before; one :class:`~spheredec.sim.Tally` per detector."""
    point = _point(cfg, snr_db)
    c = point.c
    needed = {_DETECTOR_REPRESENTATION[name] for name in cfg.detectors}
    reps = [rep for rep in Representation if rep in needed]
    for _ in range(_MAX_REDRAWS):
        inst = draw_instance(rng, cfg, point.sigma_sq)
        try:
            problems = {rep: build_problem(inst.h, inst.y, rep) for rep in reps}
        except DegenerateChannelError:
            continue
        break
    else:
        raise RuntimeError("exceeded the degenerate-channel redraw cap")

    tallies = []
    for name in cfg.detectors:
        problem = problems[_DETECTOR_REPRESENTATION[name]]
        if name == "ml":
            result = ml_exhaustive(problem, c)
        elif name == "sd-conv":
            result = sd_conventional(problem, c, point.policy)
        else:
            result = sd_proposed(problem, c, point.policy)
        x_hat_pair = to_pair_order(result.x_hat, problem.representation)
        bits_hat = symbols_to_bits(x_hat_pair, c)
        true_pair = inst.x_pair
        tallies.append(Tally(
            trials=1,
            bit_errors=int(np.sum(bits_hat != inst.bits)),
            symbol_errors=int(np.sum((x_hat_pair[0::2] != true_pair[0::2])
                                     | (x_hat_pair[1::2] != true_pair[1::2]))),
            flops=result.flops,
            nodes=result.nodes_visited,
        ))
    return tuple(tallies)
