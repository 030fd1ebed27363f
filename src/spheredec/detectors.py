"""The three detectors: exhaustive ML, depth-first sphere decoder, and the
reduced-complexity decoder for the interleaved lattice representation.

All detectors minimize ||y_hat - R x||^2 over rail-valued vectors x and
return the minimizer together with two deterministic tallies on the
:class:`DetectionResult`: nodes visited and counted FLOPs.

Counting conventions: the FLOP count is the operation count of each
algorithm as specified, where one FLOP is one real addition/subtraction,
multiplication or division of the detection phase; radius tests, the rail
quantizer's rounding and best-leaf updates are not counted.
:func:`sd_proposed` counts one addition per middle-layer rail pair and one
quantization per low rail of every surviving prefix; its counts depend only
on how many prefixes survive into each layer, while its code skips the
pairs and prefixes that provably cannot change the result.
:func:`sd_conventional` charges all mu candidates of every expanded node,
each with its interference sum recomputed in full, while its search
computes one interference sum per node and scores from it only the rails
inside the node's widened Fincke-Pohst interval.
QR preprocessing is not counted here: its cost is the closed form
:func:`~spheredec.lattice.preprocessing_flops`, the same for every trial of
a configuration.  Each detection call keeps its own tallies, so identical
(seed, config) pairs reproduce identical counts on any platform.

Search conventions shared by the tree detectors:

* levels run l = 2N, ..., 1 (top to bottom); candidate rail values are
  enumerated in natural ascending order;
* a partial weight is pruned as soon as it reaches the squared radius
  (survive iff w < d^2);
* each tree detector supplies one search pass, which
  :meth:`~spheredec.lattice.RadiusPolicy.first_leaf` reruns at a growing
  radius while the sphere is empty, ending in one unconstrained pass, so a
  result is always produced;
* ties in weight are broken lexicographically in detection order
  (x_{2N}, x_{2N-1}, ..., x_1), which makes outputs bit-reproducible;
* the reported weight is always recomputed canonically from the returned
  x via :func:`recompute_weight`, so detectors that agree on x agree on
  the weight bit-for-bit.
"""

import bisect
import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeProblem, RadiusPolicy, Representation
from .modem import Constellation, quantize_rail

# Exhaustive enumeration refuses search spaces larger than this: 4^8, the
# 4x4 16-QAM space, so one call is a single vectorized pass of a few ms and
# the cached candidate lists stay small.
ML_CANDIDATE_GUARD = 4**8

# Relative agreement required between a search's accumulated weight and the
# canonical recomputation of the same leaf.
_WEIGHT_CONSISTENCY = 1e-6

# Relative widening of sd_conventional's Fincke-Pohst interval.  The
# radicand d^2 - w_prefix becomes d^2 * (1 + _FP_WIDEN) - w_prefix, which
# covers the rounding of the float radius test w_prefix + d*d < d^2, and
# each end moves out by _FP_WIDEN times the level's scale
# (|y_hat_l| + max|rail| * sum_k |r_{l,k}|) / r_{l,l}, which bounds the
# rounding of a node's b = y_hat_l - sum_{k>l} r_{l,k} x_k, of its center
# b / r_{l,l} and of a candidate's b - r_{l,l} * omega (about 1e-15 of that
# scale at 2N <= 12).  Rails are 2 apart, so the widening costs nothing.
_FP_WIDEN = 1e-6


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one detection call.

    ``x_hat`` holds 2N rail levels in the problem representation's symbol
    order; ``weight`` is the canonical ||y_hat - R x_hat||^2; ``restarts``
    counts radius-growth reruns (the final unconstrained fallback pass
    included).  ``nodes_visited`` and ``flops`` are the tallies of the
    module's counting convention.
    """

    x_hat: np.ndarray
    weight: float
    nodes_visited: int
    restarts: int
    flops: int


# Survivor caps of sd_proposed's middle symbol layers, keyed by (N,
# constellation order), top layer first: a list of L caps enumerates symbols
# s_{N-1} down to s_{N-L} and quantizes the rest (s_2 and s_1 at 6x6).  N <= 2
# needs no entry.  This is the only schedule sd_proposed reads: tests and
# experiments change it by substituting an entry.
KBEST_CAPS = {
    (4, 16): (8, 8),
    (4, 64): (8, 8),
    (6, 16): (16, 8, 4),
    (6, 64): (32, 32, 16),
}


def kbest_caps(n, c):
    """:func:`sd_proposed`'s caps: the ``KBEST_CAPS`` entry, () at N <= 2."""
    caps = KBEST_CAPS.get((n, c.order), ())
    if n > 2 and not caps:
        raise ValueError(f"no K-best caps defined for N={n}, {c.order}-QAM")
    return caps


def recompute_weight(p: LatticeProblem, x) -> float:
    """Canonical objective value ||y_hat - R x||^2 for a symbol vector."""
    x = np.asarray(x, dtype=float)
    res = p.y_hat - p.r @ x
    return float(res @ res)


def _check_weight(p, x, accumulated, canonical):
    # An explicit raise, not an assert, so the check also runs under -O.  Near an
    # exact fit the residuals' rounding, at most about 1e-15 of the magnitudes of
    # their terms, can outweigh the weight itself; 1e-22 of their squares covers it.
    excess = abs(accumulated - canonical) - _WEIGHT_CONSISTENCY * (1.0 + canonical)
    if excess > 0.0:
        terms = np.abs(p.r) @ np.abs(x) + np.abs(p.y_hat)
        if excess > 1e-22 * (terms @ terms):
            raise RuntimeError(
                f"accumulated weight {accumulated!r} disagrees with canonical "
                f"{canonical!r}; R must be upper triangular, with r[k, k+1] = 0 "
                "at even k in the interleaved form")


def _result(p, leaf, *, restarts, nodes, flops):
    """The :class:`DetectionResult` of a search's leaf ``(weight, x)``: its
    accumulated weight and its 2N rail levels in symbol index order."""
    w_acc, x = leaf
    x_hat = np.array(x, dtype=int)
    weight = recompute_weight(p, x_hat)
    _check_weight(p, x_hat, w_acc, weight)
    return DetectionResult(x_hat, weight, nodes, restarts, flops)


def ml_candidate_count(n, c):
    """Candidates :func:`ml_exhaustive` scans at N = ``n``; raises above the guard."""
    total = c.mu ** (2 * n)
    if total > ML_CANDIDATE_GUARD:
        raise ValueError(f"detector 'ml' needs {c.mu}^{2 * n} = {total} candidates, "
                         f"above the {ML_CANDIDATE_GUARD} guard; drop detector 'ml' "
                         "or reduce the antennas or QAM order")
    return total


def ml_exhaustive(p: LatticeProblem, c: Constellation):
    """Globally minimal weight by exhaustive enumeration of the rail set.

    Candidates are scanned in lexicographic detection order
    (x_{2N} slowest), keeping the first strict minimum, which matches the
    tie behaviour of the tree searches.  The FLOP tally is the cost of
    evaluating every candidate's weight row by row, the node tally the
    number of candidates.  Rejects search spaces above ``ML_CANDIDATE_GUARD``.
    """
    m = 2 * p.n
    total = ml_candidate_count(p.n, c)
    x = _ml_candidates(c.rail, m)
    res = p.y_hat[None, :] - x @ p.r.T.copy()
    w = np.einsum("ij,ij->i", res, res)
    k = int(np.argmin(w))
    # per row, (terms + 1) additions and as many multiplications
    flops = 2 * total * (m * (m + 1) // 2 + m)
    return _result(p, (float(w[k]), x[k]), restarts=0, nodes=total, flops=flops)


@functools.cache  # the guard admits at most 6 lists, all under 5 MB together
def _ml_candidates(rail, m):
    """The exhaustive candidate list, read-only: candidate i holds the rail
    levels of the base-mu digits of i, the most significant digit at the
    top level 2N (column m-1)."""
    total = len(rail) ** m
    digits = np.unravel_index(np.arange(total), (len(rail),) * m)
    levels = np.asarray(rail, dtype=float)
    x = np.empty((total, m))
    for j in range(m):
        x[:, j] = levels[digits[m - 1 - j]]
    x.flags.writeable = False
    return x


def sd_conventional(p: LatticeProblem, c: Constellation, policy: RadiusPolicy):
    """Depth-first sphere decoder on the stacked representation.

    Classic depth-first tree search: starting at level 2N, each node's
    weight is its parent's plus |y_hat_l - sum_{k=l..2N} r_{l,k} x_k|^2,
    branches at or above the squared radius are pruned, and every accepted
    leaf shrinks the squared radius to its weight.  The tallies charge all
    mu candidates of every expanded node, each with its interference sum
    recomputed in full, as the algorithm is specified.  The search itself
    computes one interference sum per node, b = y_hat_l - sum_{k>l} r_{l,k}
    x_k, and scores |b - r_{l,l} omega|^2, in the same ascending order, for
    only the rails omega inside the node's Fincke-Pohst interval: center
    b / r_{l,l}, half-width sqrt(d^2 - w_prefix) / r_{l,l}, widened to cover
    rounding (see ``_FP_WIDEN``), its upper end following the shrinking
    radius.  The rails left out all fail the radius test, so the leaves,
    radii, result and tallies are those of evaluating every rail.  Returns
    the same weight as :func:`ml_exhaustive` on every input.
    """
    if p.representation is not Representation.STACKED:
        raise ValueError("sd_conventional requires the stacked representation")

    m = 2 * p.n
    rows = p.r.tolist()
    yh = p.y_hat.tolist()
    rail = c.rail
    mu = c.mu
    top = mu - 1  # rail value v has index (v + top) / 2
    # Per level: 1 / r_jj, and how far each end of the interval moves out,
    # in rail units, to cover rounding (see _FP_WIDEN).
    inv = [1.0 / row[j] for j, row in enumerate(rows)]
    slack = [_FP_WIDEN * (abs(y) + top * sum(map(abs, row))) * v
             for y, row, v in zip(yh, rows, inv)]
    widen = 1.0 + _FP_WIDEN
    sqrt, ceil, floor = math.sqrt, math.ceil, math.floor
    xv = [0.0] * m
    nodes_at = [0] * m  # node visits per level index, for the flop tally
    d2 = best_x = None  # the pass's squared radius, its best leaf so far

    def dfs(j, w_prefix):
        nonlocal d2, best_x
        row = rows[j]
        nodes_at[j] += mu  # every rail, as specified
        b = yh[j]  # the node's one interference sum
        for k in range(j + 1, m):
            b -= row[k] * xv[k]
        rjj = row[j]
        # center and ends in rail-index units; d2 = inf keeps every rail
        center = b * inv[j] + top
        half = sqrt(d2 * widen - w_prefix) * inv[j] + slack[j]
        lo = 0.5 * (center - half)
        i = ceil(lo) if lo > 0.0 else 0
        hi = 0.5 * (center + half)
        hi = floor(hi) if hi < top else top
        while i <= hi:
            omega = rail[i]
            i += 1
            d = b - rjj * omega
            w = w_prefix + d * d
            if w < d2:
                xv[j] = omega
                radius = d2
                if j:
                    dfs(j - 1, w)
                else:
                    d2 = w
                    best_x = xv.copy()
                if d2 < radius:  # the radius shrank: pull in the upper end
                    half = sqrt(d2 * widen - w_prefix) * inv[j] + slack[j]
                    hi = min(hi, floor(0.5 * (center + half)))

    def search(radius_sq):
        nonlocal d2, best_x
        d2, best_x = radius_sq, None
        dfs(m - 1, 0.0)
        return None if best_x is None else (d2, best_x)  # d2 = its weight

    restarts, leaf = policy.first_leaf(search)
    del dfs  # dfs refers to itself; dropping it leaves no garbage cycle
    # (m - j + 1) additions and as many multiplications per candidate at j
    flops = 2 * sum(cnt * (m - j + 1) for j, cnt in enumerate(nodes_at))
    return _result(p, leaf, restarts=restarts, nodes=sum(nodes_at), flops=flops)


def sd_proposed(p: LatticeProblem, c: Constellation, policy: RadiusPolicy):
    """Reduced-complexity decoder for the interleaved representation.

    Relies on the exact zeros r[l-1, l] (even l) of the interleaved R, which
    decouple the real and imaginary rails of each symbol.  Steps 1 and 2
    share one per-symbol layer scan: it expands each surviving prefix into
    the mu^2 rail pairs of the next symbol (two decoupled one-dimensional
    metrics per prefix), pruned by the cumulative radius test and capped.

    1. The top symbol, from the empty prefix and uncapped: every
       (x_{2N}, x_{2N-1}) pair whose summed weight respects the radius survives.
    2. For N >= 3, each middle symbol, capped at its entry of
       ``KBEST_CAPS``, the best-weight survivors kept.
    3. The remaining low symbols are estimated per surviving prefix by rail
       quantization of the interference-cancelled values, accumulating the
       exact leaf weight; leaves inside the sphere compete and the lowest
       weight wins.

    The tallies count every pair of step 2 and every quantization of step 3
    as the algorithm specifies them.  The search itself visits prefixes in
    (weight, prefix) order and each prefix's pairs best-first, and stops as
    soon as no further pair can make the cap or no further prefix can beat
    the best leaf; survivors, leaf, weight and tallies are those of the full
    enumeration.

    For N <= 2 the quantization step is exact, so the returned weight equals
    :func:`ml_exhaustive`'s on every input.  Empty survivor sets trigger the
    radius policy's restarts, ending in an unconstrained pass.
    """
    if p.representation is not Representation.INTERLEAVED:
        raise ValueError("sd_proposed requires the interleaved representation")
    n = p.n
    caps = kbest_caps(n, c)
    m = 2 * n
    rows = p.r.tolist()
    yh = p.y_hat.tolist()
    rail = c.rail
    mu = c.mu
    low_syms = range(n - 1 - len(caps), 0, -1)
    # Per-prefix charge of the quantization step: two rails per low symbol,
    # each with t = m - 2*sym assigned columns (t multiplications and t-1
    # additions of interference, 1 addition to center, 1 division to
    # quantize, 2 multiplications and 2 additions of metric: 2t + 5 FLOPs).
    quantized = 2 * len(low_syms)
    leaf_flops = sum(2 * (2 * (m - 2 * sym) + 5) for sym in low_syms)

    flops = nodes = 0

    def search(d2):
        nonlocal flops, nodes
        # Steps 1 and 2, one symbol layer at a time.  Layer 0 is the top
        # symbol: one empty prefix, no interference, and a cap of mu^2 that
        # cannot bind.  Each later layer keeps the best `cap` of the mu^2
        # rail pairs of every surviving prefix.  A pair weight is
        # (w_pre + t_im) + t_re with both terms sorted ascending, so each
        # scan below stops at the first pair that cannot make the cap:
        # one at or above the radius, or above the cap-th smallest weight
        # found so far.  A pair tied with that weight is still kept, and
        # the final (weight, prefix) sort decides among ties.
        survivors = [(0.0, ())]
        for layer, cap in enumerate((mu * mu, *caps)):
            sym = n - layer            # symbol index, 1-based
            j_im, j_re = 2 * sym - 1, 2 * sym - 2
            s = len(survivors)
            nodes += s * 2 * mu
            r_im = rows[j_im][j_im]
            r_re = rows[j_re][j_re]
            # Keep pairs with w <= bound: below the radius while fewer than
            # `cap` pairs are kept, then the cap-th smallest kept weight.
            bound = math.nextafter(d2, -math.inf)
            heap = []  # negated weights of the `cap` smallest kept pairs
            nxt = []
            for w_pre, prefix in survivors:
                if w_pre > bound:
                    break  # survivors are sorted and no pair weighs less
                c_im = yh[j_im] - _interference(rows[j_im], prefix, j_im, m)
                c_re = yh[j_re] - _interference(rows[j_re], prefix, j_im, m)
                part_im = []  # w_pre + 1-D imag-rail term
                t_re = []
                for omega in rail:
                    d = c_im - r_im * omega
                    part_im.append((w_pre + d * d, omega))
                    d = c_re - r_re * omega
                    t_re.append((d * d, omega))
                part_im.sort()
                t_re.sort()
                t_min = t_re[0][0]
                for si, wi in part_im:
                    if si + t_min > bound:
                        break  # so do all pairs of this and every later si
                    for tr, wr in t_re:
                        w = si + tr
                        if w > bound:
                            break
                        nxt.append((w, prefix + (wi, wr)))
                        if len(heap) < cap:
                            heapq.heappush(heap, -w)
                            if len(heap) == cap:
                                bound = -heap[0]
                        elif w < bound:
                            heapq.heapreplace(heap, -w)
                            bound = -heap[0]
            if layer:
                # per prefix: 2 centered interference sums over the m-1-j_im
                # assigned columns (4 FLOPs a column), mu imag and mu real
                # metrics (4 and 3 FLOPs), mu^2 pair sums
                flops += s * (4 * (m - 1 - j_im) + 7 * mu + mu * mu)
            else:
                # 2*mu metrics of 2 multiplications and 1 addition, then the
                # sums of the pairs whose rails are each inside the radius
                # (w_pre is 0.0 and both lists are sorted: bisect counts them)
                flops += (6 * mu + bisect.bisect_left(part_im, (d2,))
                          * bisect.bisect_left(t_re, (d2,)))
            if not nxt:
                return None
            nxt.sort()
            survivors = nxt[:cap]

        # Step 3: quantize the remaining low symbols per surviving prefix.
        # Leaf weights never fall below their prefix weight, so once a
        # prefix is heavier than the best leaf no later prefix can win.
        nodes += len(survivors) * quantized
        flops += len(survivors) * leaf_flops
        leaves = []
        best_w = d2
        for w, prefix in survivors:
            if w > best_w:
                break
            values = list(prefix)
            for sym in low_syms:
                j_im, j_re = 2 * sym - 1, 2 * sym - 2
                for j in (j_im, j_re):
                    row = rows[j]
                    # the structural zero r[j_re, j_im] keeps both sums
                    # starting at the same column
                    cv = yh[j] - _interference(row, values, j_im, m)
                    rjj = row[j]
                    x_q = quantize_rail(cv / rjj, c)
                    d = cv - rjj * x_q
                    w += d * d
                    values.append(x_q)
            if w < d2:
                leaves.append((w, tuple(values)))
                best_w = min(best_w, w)
        if not leaves:
            return None
        w, values = min(leaves)
        return w, values[::-1]  # detection order -> symbol index order

    restarts, leaf = policy.first_leaf(search)
    return _result(p, leaf, restarts=restarts, nodes=nodes, flops=flops)


def _interference(row, prefix, j_top, m):
    """Sum of r[row, k] * x_k over the assigned columns k > j_top.

    ``prefix`` holds the assigned values in detection order (x at column
    m-1 first); the empty prefix of the top symbol gives 0.0.
    """
    if not prefix:
        return 0.0
    e = row[j_top + 1] * prefix[m - 2 - j_top]
    for k in range(j_top + 2, m):
        e += row[k] * prefix[m - 1 - k]
    return e
