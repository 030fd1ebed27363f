"""Test-only oracle: ``sd_proposed`` and ``_interference`` as they stood
before the best-first K-best rewrite, kept verbatim.

This copy enumerates and sorts every rail pair of every middle layer and
quantizes every surviving prefix, adding each tally as the operation
executes.  ``tests/test_equivalence.py`` requires the detector in
``spheredec.detectors`` to return the same ``x_hat``, ``weight``,
``restarts`` and tallies on every input.
"""

import numpy as np

from spheredec.detectors import KBEST_CAPS, DetectionResult, _check_weight, recompute_weight
from spheredec.lattice import LatticeProblem, RadiusPolicy, Representation
from spheredec.modem import Constellation, quantize_rail


def sd_proposed(p: LatticeProblem, c: Constellation, policy: RadiusPolicy,
                caps=None):
    """Reduced-complexity decoder for the interleaved representation.

    Relies on the exact zeros r[l-1, l] (even l) of the interleaved R, which
    decouple the real and imaginary rails of each symbol:

    1. The two top levels are scanned independently with one-dimensional
       metrics; every (x_{2N}, x_{2N-1}) pair whose summed weight respects
       the radius survives.
    2. For N >= 3, each middle symbol is expanded into its mu^2 rail pairs
       (two decoupled one-dimensional metrics per prefix), pruned by the
       cumulative radius test, and capped with the schedule's best-k rule.
    3. The remaining low symbols are estimated per surviving prefix by rail
       quantization of the interference-cancelled values, accumulating the
       exact leaf weight; leaves inside the sphere compete and the lowest
       weight wins.

    For N <= 2 the quantization step is exact, so the returned weight equals
    :func:`ml_exhaustive`'s on every input.  Empty survivor sets trigger the
    radius policy's restarts, ending in an unconstrained pass.
    """
    if p.representation is not Representation.INTERLEAVED:
        raise ValueError("sd_proposed requires the interleaved representation")
    if caps is None:
        caps = KBEST_CAPS[(p.n, c.order)] if p.n >= 3 else ()

    n = p.n
    m = 2 * n
    rows = [[float(v) for v in p.r[i]] for i in range(m)]
    yh = [float(v) for v in p.y_hat]
    rail = c.rail
    mu = c.mu

    adds = mults = divs = cmps = nodes = 0
    best = None

    for restarts, d2 in policy.radii():
        # Step 1: the two top levels are independent (r[m-2, m-1] == 0).
        top = []
        for j in (m - 1, m - 2):
            yj = yh[j]
            rjj = rows[j][j]
            kept = []
            for omega in rail:
                d = yj - rjj * omega
                t = d * d
                nodes += 1
                mults += 2
                adds += 1
                cmps += 1
                if t < d2:
                    kept.append((t, omega))
            top.append(kept)

        survivors = []
        for t1, w1 in top[0]:
            for t2, w2 in top[1]:
                w = t1 + t2
                adds += 1
                cmps += 1
                if w < d2:
                    survivors.append((w, (w1, w2)))
        if not survivors:
            continue

        # Middle symbol layers (N >= 3): enumerate mu^2 rail pairs per
        # surviving prefix, keep the best-k per layer.
        empty = False
        for layer, cap in enumerate(caps):
            sym = n - 1 - layer        # symbol index, 1-based
            j_im, j_re = 2 * sym - 1, 2 * sym - 2
            nxt = []
            for w_pre, prefix in survivors:
                e_im, a, ml = _interference(rows[j_im], prefix, j_im, m)
                adds += a
                mults += ml
                e_re, a, ml = _interference(rows[j_re], prefix, j_im, m)
                adds += a
                mults += ml
                c_im = yh[j_im] - e_im
                c_re = yh[j_re] - e_re
                adds += 2
                r_im = rows[j_im][j_im]
                r_re = rows[j_re][j_re]
                part_im = []  # w_pre + 1-D imag-rail term, hoisted out of the pair loop
                t_re = []
                for omega in rail:
                    d = c_im - r_im * omega
                    part_im.append((w_pre + d * d, omega))
                    d = c_re - r_re * omega
                    t_re.append((d * d, omega))
                nodes += 2 * mu
                mults += 4 * mu
                adds += 3 * mu
                for si, wi in part_im:
                    for tr, wr in t_re:
                        w = si + tr
                        adds += 1
                        cmps += 1
                        assert w >= w_pre
                        if w < d2:
                            nxt.append((w, prefix + (wi, wr)))
            if not nxt:
                empty = True
                break
            nxt.sort()
            survivors = nxt[:cap]
        if empty:
            continue

        # Step 2: quantize the remaining low symbols per surviving prefix.
        leaves = []
        for w, prefix in survivors:
            values = list(prefix)
            for sym in range(n - 1 - len(caps), 0, -1):
                j_im, j_re = 2 * sym - 1, 2 * sym - 2
                for j in (j_im, j_re):
                    row = rows[j]
                    # the structural zero r[j_re, j_im] keeps both sums
                    # starting at the same column
                    e = row[j_im + 1] * values[m - 2 - j_im]
                    for k in range(j_im + 2, m):
                        e += row[k] * values[m - 1 - k]
                    terms = m - 1 - j_im
                    mults += terms
                    adds += terms - 1
                    cv = yh[j] - e
                    adds += 1
                    rjj = row[j]
                    x_q = quantize_rail(cv / rjj, c)
                    divs += 1
                    cmps += 1
                    d = cv - rjj * x_q
                    t = d * d
                    w_new = w + t
                    mults += 2
                    adds += 2
                    nodes += 1
                    assert w_new >= w
                    w = w_new
                    values.append(x_q)
            cmps += 1
            if w < d2:
                leaves.append((w, tuple(values)))
        if leaves:
            best = min(leaves)
            break

    w_acc, values = best
    # detection-order tuple -> symbol index order
    x_hat = np.array([int(values[m - 1 - j]) for j in range(m)], dtype=int)
    weight = recompute_weight(p, x_hat)
    _check_weight(p, x_hat, w_acc, weight)
    return DetectionResult(
        x_hat=x_hat,
        weight=weight,
        nodes_visited=nodes,
        restarts=restarts,
        flops=adds + mults + divs,
    )


def _interference(row, prefix, j_top, m):
    """Sum of r[row, k] * x_k over the assigned columns k > j_top.

    ``prefix`` holds the assigned values in detection order (x at column
    m-1 first).  Returns (sum, adds, mults) with the executed-op tally.
    """
    e = row[j_top + 1] * prefix[m - 2 - j_top]
    for k in range(j_top + 2, m):
        e += row[k] * prefix[m - 1 - k]
    terms = m - 1 - j_top
    return e, terms - 1, terms
