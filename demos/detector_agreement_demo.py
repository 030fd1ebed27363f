"""Check all three detectors against each other on random 2x2 trials.

At N = 2 the reduced decoder's quantization step is exact, so both sphere
decoders must return the maximum-likelihood solution on every single trial
(identical symbol decisions, bit-identical weights).

Run:  python demos/detector_agreement_demo.py
"""

import numpy as np

from spheredec import (
    RadiusPolicy,
    Representation,
    build_problem,
    make_constellation,
    ml_exhaustive,
    sd_conventional,
    sd_proposed,
    to_pair_order,
)
from spheredec.sim import SimConfig, draw_instance, sigma_for_snr, trial_rng

TRIALS = 400

for order in (16, 64):
    c = make_constellation(order)
    cfg = SimConfig(n_antennas=2, mod_order=order, detectors=("ml",), trials_per_point=1)
    agree = 0
    for snr_idx, snr_db in enumerate((5.0, 15.0, 25.0)):
        sigma_sq = sigma_for_snr(snr_db, c, 2)
        pol = RadiusPolicy.for_noise(sigma_sq, 2)
        for t in range(TRIALS):
            inst = draw_instance(trial_rng(7, snr_idx, t), cfg, sigma_sq)
            p_st = build_problem(inst.h, inst.y, Representation.STACKED)
            p_in = build_problem(inst.h, inst.y, Representation.INTERLEAVED)

            ml = ml_exhaustive(p_st, c)
            conv = sd_conventional(p_st, c, pol)
            new = sd_proposed(p_in, c, pol)

            same_decision = np.array_equal(
                to_pair_order(conv.x_hat, Representation.STACKED),
                to_pair_order(new.x_hat, Representation.INTERLEAVED),
            )
            if conv.weight == ml.weight and same_decision:
                agree += 1
    total = 3 * TRIALS
    print(f"{order:>2}-QAM 2x2: all three detectors agree on {agree}/{total} trials")
