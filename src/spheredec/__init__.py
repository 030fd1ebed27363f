"""MIMO maximum-likelihood detection over real lattice representations.

Three detectors over the QR-reduced integer least-squares problem
min ||y_hat - R x||^2: an exhaustive ML oracle, a depth-first sphere
decoder on the stacked real form, and a reduced-complexity decoder on the
interleaved form whose structural R zeros decouple each symbol's real and
imaginary rails.  A seeded Monte Carlo harness sweeps BER/SER and counted
floating-point cost against SNR.
"""

from .detectors import ml_exhaustive, sd_conventional, sd_proposed
from .lattice import (
    RadiusPolicy,
    Representation,
    build_problem,
    gram_schmidt_qr,
    real_form,
    to_pair_order,
)
from .modem import make_constellation
from .sim import SimConfig, run_sweep

__version__ = "0.1.0"

__all__ = [
    "RadiusPolicy",
    "Representation",
    "SimConfig",
    "build_problem",
    "gram_schmidt_qr",
    "make_constellation",
    "ml_exhaustive",
    "real_form",
    "run_sweep",
    "sd_conventional",
    "sd_proposed",
    "to_pair_order",
]
