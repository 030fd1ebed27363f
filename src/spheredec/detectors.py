"""The three detectors: exhaustive ML, depth-first sphere decoder, and the
reduced-complexity decoder for the interleaved lattice representation.

All detectors minimize ||y_hat - R x||^2 over rail-valued vectors x and
return the minimizer together with deterministic operation tallies on the
:class:`DetectionResult`.

Counting conventions: the tallies are the operation counts of each
algorithm as specified, where one FLOP is one real addition/subtraction,
multiplication or division of the detection phase.  Comparisons (radius
tests, the rail quantizer, best-leaf updates) are tallied separately and
excluded from ``flops``.  :func:`sd_proposed` counts one add and one
comparison per middle-layer rail pair and one quantization per low rail of
every surviving prefix; its counts depend only on how many prefixes
survive into each layer, while its code skips the pairs and prefixes that
provably cannot change the result.  :func:`sd_conventional` charges all mu
candidates of every expanded node, each with its interference sum
recomputed in full, while its search evaluates only the rails inside the
node's widened Fincke-Pohst interval.  QR preprocessing is not
counted here; it is reported in the separate ``preproc_flops`` field of the
lattice problem, so the two cost brackets can be merged or kept split
downstream.  Each detection call keeps its own tallies, so identical
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

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeProblem, RadiusPolicy, Representation
from .modem import Constellation, quantize_rail

# Exhaustive enumeration refuses search spaces larger than this.
ML_CANDIDATE_GUARD = 10**8

_ML_CHUNK = 1 << 16

# Relative agreement required between a search's accumulated weight and the
# canonical recomputation of the same leaf.
_WEIGHT_CONSISTENCY = 1e-6

# Relative widening of sd_conventional's Fincke-Pohst interval.  The
# radicand d^2 - w_prefix becomes d^2 * (1 + _FP_WIDEN) - w_prefix, which
# covers the rounding of the float radius test w_prefix + d*d < d^2, and
# each end moves out by _FP_WIDEN times the level's scale
# (|y_hat_l| + max|rail| * sum_k |r_{l,k}|) / r_{l,l}, which bounds the
# rounding of the center and of a candidate's sum (about 1e-15 of that
# scale at 2N <= 12).  Rails are 2 apart, so the widening costs nothing.
_FP_WIDEN = 1e-6


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one detection call.

    ``x_hat`` holds 2N rail levels in the problem representation's symbol
    order; ``weight`` is the canonical ||y_hat - R x_hat||^2; ``restarts``
    counts radius-growth reruns (the final unconstrained fallback pass
    included).  ``adds``, ``mults``, ``divs`` and ``comparisons`` are the
    operation tallies of the module's counting convention.
    """

    x_hat: np.ndarray
    weight: float
    nodes_visited: int
    restarts: int
    adds: int
    mults: int
    divs: int
    comparisons: int

    @property
    def flops(self):
        """Counted FLOPs: adds + mults + divs (comparisons excluded)."""
        return self.adds + self.mults + self.divs


# Survivor caps of the reduced decoder's middle symbol layers, keyed by
# (N, constellation order).  With a cap list of length L, symbols s_{N-1}
# down to s_{N-L} are enumerated with the per-layer caps applied (best-weight
# survivors kept, ties broken lexicographically) and the remaining low
# symbols are estimated by rail quantization.  4x4 keeps the best 8
# survivors at each of its two middle layers for either modulation; 6x6
# keeps 16/8/4 (16-QAM) or 32/32/16 (64-QAM) at its three.  N <= 2 has no
# middle layers and needs no entry.
KBEST_CAPS = {
    (4, 16): (8, 8),
    (4, 64): (8, 8),
    (6, 16): (16, 8, 4),
    (6, 64): (32, 32, 16),
}


def kbest_caps(n, c):
    """:func:`sd_proposed`'s default caps: the ``KBEST_CAPS`` entry, () at N <= 2."""
    caps = KBEST_CAPS.get((n, c.order), ())
    if n > 2 and not caps:
        raise ValueError(f"no K-best caps defined for N={n}, {c.order}-QAM")
    return caps


def recompute_weight(p: LatticeProblem, x) -> float:
    """Canonical objective value ||y_hat - R x||^2 for a symbol vector."""
    x = np.asarray(x, dtype=float)
    res = p.y_hat - p.r @ x
    return float(res @ res)


def _check_weight(accumulated, canonical):
    # An explicit raise, not an assert, so the check also runs under -O.
    if not abs(accumulated - canonical) <= _WEIGHT_CONSISTENCY * (1.0 + canonical):
        raise RuntimeError(
            f"accumulated weight {accumulated!r} disagrees with canonical "
            f"{canonical!r}"
        )


def _result(p, leaf, *, restarts, nodes, adds, mults, divs, comparisons):
    """The :class:`DetectionResult` of a search's leaf ``(weight, x)``: its
    accumulated weight and its 2N rail levels in symbol index order."""
    w_acc, x = leaf
    x_hat = np.array(x, dtype=int)
    weight = recompute_weight(p, x_hat)
    _check_weight(w_acc, weight)
    return DetectionResult(x_hat, weight, nodes, restarts, adds, mults, divs,
                           comparisons)


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
    rt = p.r.T.copy()
    y_hat = p.y_hat

    best_w = math.inf
    best_x = None
    for lo in range(0, total, _ML_CHUNK):
        x_chunk = _ml_candidates(c.rail, m, lo, min(lo + _ML_CHUNK, total))
        res = y_hat[None, :] - x_chunk @ rt
        w = np.einsum("ij,ij->i", res, res)
        k = int(np.argmin(w))
        if w[k] < best_w:
            best_w = float(w[k])
            best_x = x_chunk[k].copy()

    ops = total * (m * (m + 1) // 2 + m)  # sum of (terms + 1) over all rows
    return _result(p, (best_w, best_x), restarts=0, nodes=total, adds=ops,
                   mults=ops, divs=0, comparisons=total)


@functools.lru_cache(maxsize=2)
def _ml_candidates(rail, m, lo, hi):
    """Rows lo..hi-1 of the exhaustive candidate list, read-only: candidate
    i holds the rail levels of the base-mu digits of i, the most
    significant digit at the top level 2N (column m-1)."""
    digits = np.unravel_index(np.arange(lo, hi), (len(rail),) * m)
    levels = np.asarray(rail, dtype=float)
    x = np.empty((hi - lo, m))
    for j in range(m):
        x[:, j] = levels[digits[m - 1 - j]]
    x.flags.writeable = False
    return x


def sd_conventional(p: LatticeProblem, c: Constellation, policy: RadiusPolicy):
    """Depth-first sphere decoder on the stacked representation.

    Classic depth-first tree search: starting at level 2N, each node's
    weight adds |y_hat_l - sum_{k=l..2N} r_{l,k} x_k|^2 to its parent's,
    branches at or above the squared radius are pruned, and every accepted
    leaf shrinks the squared radius to its weight.  The tallies charge all
    mu candidates of every expanded node, each with its interference sum
    recomputed in full, as the algorithm is specified.  The search itself
    evaluates, in the same ascending order, only the rails inside the
    node's Fincke-Pohst interval, center (y_hat_l - sum_{k>l} r_{l,k} x_k)
    / r_{l,l} and half-width sqrt(d^2 - w_prefix) / r_{l,l}, widened to
    cover rounding (see ``_FP_WIDEN``); the upper end follows the shrinking
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
    # in rail units, to cover the rounding of the center and of the
    # candidates' own sums.
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
        yj = yh[j]
        nodes_at[j] += mu  # every rail, as specified
        e = 0.0
        for k in range(j + 1, m):
            e += row[k] * xv[k]
        # center and ends in rail-index units; d2 = inf keeps every rail
        center = (yj - e) * inv[j] + top
        half = sqrt(d2 * widen - w_prefix) * inv[j] + slack[j]
        lo = 0.5 * (center - half)
        i = ceil(lo) if lo > 0.0 else 0
        hi = 0.5 * (center + half)
        hi = floor(hi) if hi < top else top
        while i <= hi:
            omega = rail[i]
            i += 1
            s = row[j] * omega
            for k in range(j + 1, m):
                s += row[k] * xv[k]
            d = yj - s
            w = w_prefix + d * d
            assert w >= w_prefix  # partial metrics never decrease
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
    visited = sum(nodes_at)
    add_total = sum(cnt * (m - j + 1) for j, cnt in enumerate(nodes_at))
    return _result(p, leaf, restarts=restarts, nodes=visited, adds=add_total,
                   mults=add_total, divs=0,
                   comparisons=visited)  # one radius test per node


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
       cumulative radius test, and capped at the layer's entry of
       ``caps``, the best-weight survivors kept.
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

    ``caps`` lists one survivor cap per middle symbol layer, top layer
    first, for 1 to N - 2 layers; it defaults to :func:`kbest_caps`.
    """
    if p.representation is not Representation.INTERLEAVED:
        raise ValueError("sd_proposed requires the interleaved representation")
    n = p.n
    layers = max(n - 2, 0)  # middle symbol layers
    caps = kbest_caps(n, c) if caps is None else caps
    if any(cap < 1 for cap in caps):
        raise ValueError(f"K-best caps {tuple(caps)} must all be >= 1")
    if len(caps) > layers or layers and not caps:
        raise ValueError(f"N={n} has {layers} middle symbol layers, "
                         f"got {len(caps)} K-best caps")

    m = 2 * n
    rows = p.r.tolist()
    yh = p.y_hat.tolist()
    rail = c.rail
    mu = c.mu
    low_syms = range(n - 1 - len(caps), 0, -1)
    # Per-prefix tallies of the quantization step: two rails per low symbol,
    # each with t = m - 2*sym assigned columns (t mults and t-1 adds of
    # interference, 1 add to center, 1 div and 1 comparison to quantize,
    # 2 mults and 2 adds of metric), plus one leaf comparison per prefix.
    quantized = 2 * len(low_syms)
    leaf_ops = sum(2 * (m - 2 * sym + 2) for sym in low_syms)

    adds = mults = divs = cmps = nodes = 0

    def search(d2):
        nonlocal adds, mults, divs, cmps, nodes
        # Step 1: the two top levels are independent (r[m-2, m-1] == 0).
        top = []
        for j in (m - 1, m - 2):
            yj = yh[j]
            rjj = rows[j][j]
            kept = []
            for omega in rail:
                d = yj - rjj * omega
                t = d * d
                if t < d2:
                    kept.append((t, omega))
            top.append(kept)
        nodes += 2 * mu
        mults += 4 * mu
        adds += 2 * mu
        cmps += 2 * mu

        survivors = []
        for t1, w1 in top[0]:
            for t2, w2 in top[1]:
                w = t1 + t2
                if w < d2:
                    survivors.append((w, (w1, w2)))
        pairs = len(top[0]) * len(top[1])
        adds += pairs
        cmps += pairs
        if not survivors:
            return None
        survivors.sort()

        # Middle symbol layers (N >= 3): the best `cap` of the mu^2 rail
        # pairs of every surviving prefix.  A pair weight is
        # (w_pre + t_im) + t_re with both terms sorted ascending, so each
        # scan below stops at the first pair that cannot make the cap:
        # one at or above the radius, or above the cap-th smallest weight
        # found so far.  A pair tied with that weight is still kept, and
        # the final (weight, prefix) sort decides among ties.
        for layer, cap in enumerate(caps):
            sym = n - 1 - layer        # symbol index, 1-based
            j_im, j_re = 2 * sym - 1, 2 * sym - 2
            terms = m - 1 - j_im       # assigned columns per interference sum
            s = len(survivors)
            adds += s * (2 * (terms - 1) + 2 + 3 * mu + mu * mu)
            mults += s * (2 * terms + 4 * mu)
            nodes += s * 2 * mu
            cmps += s * mu * mu
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
                        assert w >= w_pre
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
            if not nxt:
                return None
            nxt.sort()
            survivors = nxt[:cap]

        # Step 2: quantize the remaining low symbols per surviving prefix.
        # Leaf weights never fall below their prefix weight, so once a
        # prefix is heavier than the best leaf no later prefix can win.
        s = len(survivors)
        adds += s * leaf_ops
        mults += s * leaf_ops
        divs += s * quantized
        nodes += s * quantized
        cmps += s * (quantized + 1)
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
                    e = row[j_im + 1] * values[m - 2 - j_im]
                    for k in range(j_im + 2, m):
                        e += row[k] * values[m - 1 - k]
                    cv = yh[j] - e
                    rjj = row[j]
                    x_q = quantize_rail(cv / rjj, c)
                    d = cv - rjj * x_q
                    w_new = w + d * d
                    assert w_new >= w
                    w = w_new
                    values.append(x_q)
            if w < d2:
                leaves.append((w, tuple(values)))
                best_w = min(best_w, w)
        if not leaves:
            return None
        w, values = min(leaves)
        return w, values[::-1]  # detection order -> symbol index order

    restarts, leaf = policy.first_leaf(search)
    return _result(p, leaf, restarts=restarts, nodes=nodes, adds=adds,
                   mults=mults, divs=divs, comparisons=cmps)


def _interference(row, prefix, j_top, m):
    """Sum of r[row, k] * x_k over the assigned columns k > j_top.

    ``prefix`` holds the assigned values in detection order (x at column
    m-1 first).
    """
    e = row[j_top + 1] * prefix[m - 2 - j_top]
    for k in range(j_top + 2, m):
        e += row[k] * prefix[m - 1 - k]
    return e
