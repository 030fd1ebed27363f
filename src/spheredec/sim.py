"""Monte Carlo link-level harness: SNR sweeps of BER/SER and counted cost.

Per trial: draw bits, Gray-map them onto rail levels, push the complex
symbol vector through an i.i.d. Rayleigh flat-fading channel with AWGN,
build the lattice problem of each representation the detectors need (once
each), run every detector, and score bit and symbol errors against the
ground truth.

SNR convention (the constellation is unnormalized): SNR = N * E_s / sigma^2,
i.e. average received signal energy per receive antenna over total complex
noise energy per receive antenna.  Curves under a different convention are
a horizontal shift of these.

Reproducibility: every trial uses its own counter-based Philox stream keyed
by (seed, snr_index, trial_index), so results are byte-identical across
reruns, independent of which detectors run, and identical under parallel
and sequential execution.
"""

import functools
import math
import numbers
import operator
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .detectors import (
    kbest_caps,
    ml_candidate_count,
    ml_exhaustive,
    sd_conventional,
    sd_proposed,
)
from .lattice import (
    MAX_ENTRY,
    DegenerateChannelError,
    RadiusPolicy,
    Representation,
    build_problem,
    preprocessing_flops,
    to_pair_order,
)
from .modem import (
    Constellation,
    bits_to_symbols,
    make_constellation,
    rails_to_complex,
    symbols_to_bits,
)

_DETECTOR_REPRESENTATION = {
    "ml": Representation.STACKED,
    "sd-conv": Representation.STACKED,
    "sd-new": Representation.INTERLEAVED,
}

DETECTOR_NAMES = tuple(_DETECTOR_REPRESENTATION)

# Per-real-dimension standard deviation of a unit-variance complex Gaussian.
_HALF_SQRT = math.sqrt(0.5)

# Redraw cap for numerically rank-deficient channel draws (measure zero).
_MAX_REDRAWS = 100

# Longest SNR grid a sweep accepts; bounds the grid loop, which a step too
# small to move the start value would otherwise never leave.
MAX_SNR_POINTS = 1000

# Noise variance limit: its deviation stays 1000x below the bound on y, MAX_ENTRY.
_MAX_NOISE_VAR = (MAX_ENTRY / 1e3) ** 2

# Ends of the Philox key (128 bits) and of each 64-bit counter word.
_KEY_END, _WORD_END = 2**128, 2**64


@dataclass(frozen=True)
class SimConfig:
    """One sweep: N x N system, modulation, detectors, SNR grid, trials."""

    n_antennas: int = 2
    mod_order: int = 16
    detectors: tuple = DETECTOR_NAMES
    snr_start_db: float = 0.0
    snr_stop_db: float = 20.0
    snr_step_db: float = 2.0
    trials_per_point: int = 20000
    seed: int = 42
    radius_dimension: str = "2n"

    def __post_init__(self):
        # make_constellation, below, rejects an unsupported mod_order
        for name, low in (("n_antennas", 1), ("mod_order", None),
                          ("trials_per_point", 1), ("seed", None)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if low is not None and value < low:
                raise ValueError(f"{name} must be at least {low}")
            object.__setattr__(self, name, int(value))  # a numpy integer too
        trial_rng(self.seed, 0, 0)  # rejects a seed the Philox key cannot hold
        if self.trials_per_point >= 2**53:  # run_sweep splits trials in floats
            raise ValueError("trials_per_point must be below 2**53")
        for name in ("snr_start_db", "snr_stop_db", "snr_step_db"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise ValueError("SNR start, stop and step must be finite")
            object.__setattr__(self, name, value)
        if self.snr_step_db <= 0:
            raise ValueError("snr_step_db must be positive")
        points = self.snr_points()
        if not points:
            raise ValueError("snr_stop_db must not precede snr_start_db")
        if len(points) > MAX_SNR_POINTS:
            raise ValueError(f"the SNR grid has more than {MAX_SNR_POINTS} points")
        if any(a >= b for a, b in zip(points, points[1:])):
            raise ValueError("the SNR grid repeats a point once rounded to 1e-9 dB")
        # a list or tuple only: a set would order the records by string hash
        if not isinstance(self.detectors, (list, tuple)) or not self.detectors:
            raise ValueError(f"detectors must be a non-empty sequence of names, "
                             f"got {self.detectors!r}")
        object.__setattr__(self, "detectors", tuple(self.detectors))
        for name in self.detectors:
            if name not in DETECTOR_NAMES:
                raise ValueError(f"unknown detector {name!r}; choose from "
                                 f"{', '.join(DETECTOR_NAMES)}")
        if len(set(self.detectors)) != len(self.detectors):
            raise ValueError("each detector may be listed only once")
        c = make_constellation(self.mod_order)  # rejects unsupported orders
        for snr_db in points:
            _point(self, snr_db)  # rejects a bad noise variance or radius_dimension
        if "ml" in self.detectors:
            ml_candidate_count(self.n_antennas, c)
        if "sd-new" in self.detectors:
            kbest_caps(self.n_antennas, c)

    def snr_points(self):
        pts = []
        s = self.snr_start_db
        while (point := round(s, 9)) <= self.snr_stop_db and len(pts) <= MAX_SNR_POINTS:
            pts.append(point)
            s += self.snr_step_db
        return tuple(pts)


@dataclass(frozen=True)
class ChannelInstance:
    """Ground truth for one channel use, exactly as drawn: the bits, their
    pair-ordered rail levels ``x_pair``, the channel ``h`` and the receive
    vector ``y = h @ s + v`` with ``s = rails_to_complex(x_pair)``."""

    bits: np.ndarray
    x_pair: np.ndarray
    h: np.ndarray
    y: np.ndarray


class Tally(NamedTuple):
    """Integer sums for one (SNR point, detector) cell; tallies merge by
    ``+``, so any grouping of trials gives the same totals."""

    trials: int = 0
    bit_errors: int = 0
    symbol_errors: int = 0
    flops: int = 0
    nodes: int = 0

    def __add__(self, other):
        return Tally._make(map(operator.add, self, other))


@dataclass(frozen=True)
class SweepRecord:
    """Aggregate for one (SNR point, detector) cell of a sweep."""

    snr_db: float
    detector: str
    n: int
    mod: int
    ber: float
    ser: float
    mean_flops: float
    mean_preproc_flops: float
    mean_nodes: float
    trials: int
    bit_errors: int
    seed: int


def trial_rng(seed, snr_index, trial_index):
    """Independent Philox stream for one (seed, SNR point, trial) cell:
    key ``seed``, counter ``[0, 0, snr_index, trial_index]``.  Raises a
    one-line ValueError for a seed outside [0, 2**128) or an index outside
    [0, 2**64)."""
    if not 0 <= seed < _KEY_END:
        raise ValueError(f"seed must be in [0, 2**128), got {seed!r}")
    if not (0 <= snr_index < _WORD_END and 0 <= trial_index < _WORD_END):
        raise ValueError("SNR and trial indices must be in [0, 2**64), got "
                         f"{snr_index!r} and {trial_index!r}")
    key = _philox_key_type()(seed)
    # a uint64 array: from a list, numpy rounds an index of 2**63 or more
    # through a float
    counter = np.array([0, 0, snr_index, trial_index], dtype=np.uint64)
    bg = np.random.Philox(key, counter=counter)
    return np.random.Generator(bg)


@functools.cache
def _philox_key_type():
    """A seed sequence that hands Philox a 128-bit key as the two
    little-endian 64-bit words ``Philox(key=seed)`` would make of it.  It
    gives the same bit generator without the OS-entropy ``SeedSequence``
    that ``Philox(key=...)`` builds and then discards.  Defined on first
    use because numpy imports ``numpy.random`` lazily."""
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        def __init__(self, seed):
            self._words = np.array([seed % 2**64, seed >> 64], dtype=np.uint64)

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("a Philox key is two 64-bit words")
            return self._words.copy()

    return PhiloxKey


def sigma_for_snr(snr_db, c, n):
    """Total complex noise variance for a per-receive-antenna SNR in dB."""
    try:
        sigma_sq = n * c.avg_symbol_energy / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        sigma_sq = math.nan
    if not 0.0 < sigma_sq < _MAX_NOISE_VAR:
        raise ValueError(f"SNR {snr_db:g} dB gives a noise variance outside "
                         f"(0, {_MAX_NOISE_VAR:g})")
    return sigma_sq


def draw_instance(rng, cfg, sigma_sq):
    """Draw bits, symbols, channel, and noise for one trial (in that order).

    The channel's i.i.d. unit-variance circular complex Gaussian entries and
    the noise come from one standard-normal call: Re h, Im h, Re v, Im v."""
    c = make_constellation(cfg.mod_order)
    n = cfg.n_antennas
    bits = rng.integers(0, 2, size=2 * n * c.bits_per_rail)
    x_pair = bits_to_symbols(bits, c, n)
    s = rails_to_complex(x_pair)
    g = rng.standard_normal(2 * n * n + 2 * n)
    h = np.empty((n, n), dtype=complex)
    h.real, h.imag = g[:2 * n * n].reshape(2, n, n)
    h *= _HALF_SQRT
    v = np.empty(n, dtype=complex)
    v.real, v.imag = g[2 * n * n:].reshape(2, n)
    v *= math.sqrt(sigma_sq / 2.0)
    return ChannelInstance(bits=bits, x_pair=x_pair, h=h, y=h @ s + v)


@dataclass(frozen=True)
class _Point:
    """The objects that every trial at one SNR point shares; ``reps`` lists
    the representations the detectors need, in ``Representation`` order."""

    c: Constellation
    sigma_sq: float
    policy: RadiusPolicy
    reps: tuple


def _point(cfg, snr_db):
    c = make_constellation(cfg.mod_order)
    sigma_sq = sigma_for_snr(snr_db, c, cfg.n_antennas)
    policy = RadiusPolicy.for_noise(sigma_sq, cfg.n_antennas,
                                    dimension=cfg.radius_dimension)
    needed = {_DETECTOR_REPRESENTATION[name] for name in cfg.detectors}
    reps = tuple(rep for rep in Representation if rep in needed)
    return _Point(c=c, sigma_sq=sigma_sq, policy=policy, reps=reps)


def run_trial(rng, cfg, point):
    """One end-to-end trial: one channel use through every detector.

    The instance is drawn once and the lattice problem of each
    representation the detectors need is built once, so every detector sees
    the same trial.  A draw that is rank deficient in a needed
    representation is redrawn (the stream simply continues), capped at 100
    per trial.  ``point`` holds the objects shared by all trials at one SNR
    point (see :func:`_point`).  Returns a one-trial :class:`Tally` per
    detector, in ``cfg.detectors`` order.
    """
    c = point.c
    for _ in range(_MAX_REDRAWS):
        inst = draw_instance(rng, cfg, point.sigma_sq)
        try:
            problems = {rep: build_problem(inst.h, inst.y, rep) for rep in point.reps}
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
        wrong_rails = (x_hat_pair != inst.x_pair).reshape(-1, 2)
        tallies.append(Tally(
            trials=1,
            bit_errors=int(np.count_nonzero(bits_hat != inst.bits)),
            symbol_errors=int(np.count_nonzero(wrong_rails.any(axis=1))),
            flops=result.flops,
            nodes=result.nodes_visited,
        ))
    return tuple(tallies)


def _trial_block(cfg, snr_index, snr_db, lo, hi):
    """Tallies over trials [lo, hi) of one SNR point, one per detector."""
    point = _point(cfg, snr_db)
    sums = [Tally()] * len(cfg.detectors)
    for t in range(lo, hi):
        tallies = run_trial(trial_rng(cfg.seed, snr_index, t), cfg, point)
        sums = [a + b for a, b in zip(sums, tallies)]
    return sums


def check_workers(workers):
    """Raise a one-line ValueError unless ``workers`` is an integer >= 1."""
    if (isinstance(workers, bool) or not isinstance(workers, numbers.Integral)
            or workers < 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")


def run_sweep(cfg, workers=1):
    """Run the full sweep and aggregate one SweepRecord per (SNR, detector).

    Each SNR point's trials are split into ``workers`` blocks, and all
    blocks of the sweep share one process pool of at most one process per
    CPU; the derived per-trial streams and integer partial sums make the
    result identical for every ``workers``.  No pool is started when
    ``workers`` is 1 or a point has fewer than two trials per worker.
    """
    check_workers(workers)
    c = make_constellation(cfg.mod_order)
    bits_per_trial = 2 * cfg.n_antennas * c.bits_per_rail
    trials = cfg.trials_per_point
    points = cfg.snr_points()

    blocks = workers if trials >= 2 * workers else 1
    bounds = np.linspace(0, trials, blocks + 1).astype(int)
    jobs = [(cfg, i, snr_db, int(lo), int(hi))
            for i, snr_db in enumerate(points)
            for lo, hi in zip(bounds[:-1], bounds[1:])]
    if blocks == 1:
        parts = map(_trial_block, *zip(*jobs))
    else:
        # imported here, so a sweep that starts no pool skips its import time
        from concurrent.futures import ProcessPoolExecutor

        processes = min(workers, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=processes) as pool:
            parts = list(pool.map(_trial_block, *zip(*jobs)))

    cells = [[Tally()] * len(cfg.detectors) for _ in points]
    for job, part in zip(jobs, parts):
        cells[job[1]] = [a + b for a, b in zip(cells[job[1]], part)]

    records = []
    for snr_db, per_detector in zip(points, cells):
        for name, cell in zip(cfg.detectors, per_detector):
            records.append(SweepRecord(
                snr_db=snr_db,
                detector=name,
                n=cfg.n_antennas,
                mod=cfg.mod_order,
                ber=cell.bit_errors / (cell.trials * bits_per_trial),
                ser=cell.symbol_errors / (cell.trials * cfg.n_antennas),
                mean_flops=cell.flops / cell.trials,
                mean_preproc_flops=float(preprocessing_flops(2 * cfg.n_antennas)),
                mean_nodes=cell.nodes / cell.trials,
                trials=cell.trials,
                bit_errors=cell.bit_errors,
                seed=cfg.seed,
            ))
    return records

