"""Test-only oracle: ``sd_conventional`` as it stood before the
Fincke–Pohst interval enumeration, kept verbatim.

This copy evaluates every rail value at every expanded node and recomputes
the full interference sum for each one, adding each tally as the candidate
is evaluated.  ``tests/test_equivalence.py`` requires the detector in
``spheredec.detectors`` to return the same ``x_hat``, ``weight``,
``restarts`` and tallies on every input.
"""

import math

import numpy as np

from spheredec.detectors import DetectionResult, _check_weight, recompute_weight
from spheredec.lattice import LatticeProblem, RadiusPolicy, Representation
from spheredec.modem import Constellation


def sd_conventional(p: LatticeProblem, c: Constellation, policy: RadiusPolicy):
    """Depth-first sphere decoder on the stacked representation.

    Classic depth-first tree search: starting at level 2N, each node's
    weight adds |y_hat_l - sum_{k=l..2N} r_{l,k} x_k|^2 to its parent's,
    branches at or above the squared radius are pruned, and every accepted
    leaf shrinks the squared radius to its weight.  The per-node metric is
    evaluated in full (the interference sum is recomputed at every node),
    which is what the FLOP tally measures.  Returns the same weight as
    :func:`ml_exhaustive` on every input.
    """
    if p.representation is not Representation.STACKED:
        raise ValueError("sd_conventional requires the stacked representation")

    m = 2 * p.n
    rows = [[float(v) for v in p.r[i]] for i in range(m)]
    yh = [float(v) for v in p.y_hat]
    rail = c.rail
    xv = [0.0] * m
    nodes_at = [0] * m  # node visits per level index, for the flop tally

    for restarts, d2 in policy.radii():
        best_w = math.inf
        best_x = None

        def dfs(j, w_prefix):
            nonlocal d2, best_w, best_x
            row = rows[j]
            yj = yh[j]
            cnt = 0
            for omega in rail:
                s = row[j] * omega
                for k in range(j + 1, m):
                    s += row[k] * xv[k]
                d = yj - s
                w = w_prefix + d * d
                cnt += 1
                assert w >= w_prefix  # partial metrics never decrease
                if w < d2:
                    xv[j] = omega
                    if j:
                        dfs(j - 1, w)
                    else:
                        d2 = w
                        best_w = w
                        best_x = xv.copy()
            nodes_at[j] += cnt

        dfs(m - 1, 0.0)
        if best_x is not None:
            break

    visited = sum(nodes_at)
    add_total = sum(cnt * (m - j + 1) for j, cnt in enumerate(nodes_at))

    x_hat = np.array([int(v) for v in best_x], dtype=int)
    weight = recompute_weight(p, x_hat)
    _check_weight(p, x_hat, best_w, weight)
    return DetectionResult(
        x_hat=x_hat,
        weight=weight,
        nodes_visited=visited,
        restarts=restarts,
        flops=add_total + add_total,  # adds + mults; no divs
    )
