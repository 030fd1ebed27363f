"""Span recording around the public names that ``spheredec.sim`` calls, and
the per-layer metrics computed from the recorded spans.

A span is ``[name, start_ns, end_ns, parent, trial, counts]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``trial`` the
``(snr_index, trial_index)`` pair taken from the last ``trial_rng`` call,
and ``counts`` the ``(nodes, flops, restarts)`` of a detector result.
Spans stay in memory; :func:`write_spans` writes them out when the run ends.
"""

import gzip
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Span name for each detector, keyed by the function sim calls.
DETECTOR_SPANS = {
    "ml_exhaustive": "detectors.ml",
    "sd_conventional": "detectors.sd-conv",
    "sd_proposed": "detectors.sd-new",
}

# Span name for each harness function, keyed by the name sim calls it by.
HARNESS_SPANS = {
    "trial_rng": "sim.rng",
    "draw_instance": "sim.draw",
    "build_problem": "lattice.build",
    "symbols_to_bits": "modem.demap",
    "run_trial": "sim.run_trial",
}


class Tracer:
    """Collects spans for one sweep; patch sim's names with :meth:`patched`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._trial = None

    def _wrap(self, name, fn, *, sets_trial=False, has_counts=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if sets_trial:
                self._trial = (args[1], args[2])
            span = [name, 0, 0, stack[-1] if stack else -1, self._trial, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if has_counts:
                span[5] = (out.nodes_visited, out.flops, out.restarts)
            return out

        return traced

    @contextmanager
    def patched(self, sim, lattice):
        """Replace sim's callees (and lattice's QR) with span recorders."""
        targets = [(sim, attr, name, {"sets_trial": attr == "trial_rng"})
                   for attr, name in HARNESS_SPANS.items()]
        targets += [(sim, attr, name, {"has_counts": True})
                    for attr, name in DETECTOR_SPANS.items()]
        targets.append((lattice, "gram_schmidt_qr", "linalg.qr", {}))
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
        try:
            for mod, attr, name, opts in targets:
                setattr(mod, attr, self._wrap(name, getattr(mod, attr), **opts))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def trial_durations(spans):
    """Wall time in ns per trial id: first ``sim.rng`` start to last
    ``sim.run_trial`` end, i.e. the trial run through every detector."""
    first, last = {}, {}
    for name, start, end, _, trial, _ in spans:
        if name == "sim.rng":
            first.setdefault(trial, start)
        elif name == "sim.run_trial":
            last[trial] = end
    return {trial: last[trial] - first[trial] for trial in first}


def sweep_counts(spans):
    """Exact per-(span name, SNR index) tallies: calls, and for detectors the
    summed nodes, FLOPs and restarts.  Two sweeps of one config must agree."""
    counts = {}
    for name, _, _, _, trial, det in spans:
        agg = counts.setdefault((name, trial[0]), [0, 0, 0, 0])
        agg[0] += 1
        if det is not None:
            agg[1] += det[0]
            agg[2] += det[1]
            agg[3] += det[2]
    return counts


def _quantile(values, q):
    return float(np.quantile(np.asarray(values, dtype=float), q))


def layer_metrics(sweeps):
    """Per-layer metrics pooled over traced sweeps (lists of spans)."""
    trial_ns = []
    total = {}
    calls = {}
    qr_in_build = 0
    covered = 0
    per_call = {name: [] for name in DETECTOR_SPANS.values()}
    det_counts = {name: [0, 0, 0] for name in DETECTOR_SPANS.values()}
    for spans in sweeps:
        trial_ns.extend(trial_durations(spans).values())
        for name, start, end, parent, _, det in spans:
            dur = end - start
            total[name] = total.get(name, 0) + dur
            calls[name] = calls.get(name, 0) + 1
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "linalg.qr" and parent_name == "lattice.build":
                qr_in_build += dur
            if parent_name == "sim.run_trial" or name == "sim.rng":
                covered += dur
            if det is not None:
                per_call[name].append(dur)
                for k in range(3):
                    det_counts[name][k] += det[k]

    trials = len(trial_ns)
    trial_total = sum(trial_ns)
    us = 1e-3

    def per_trial(name):
        return total.get(name, 0) * us / trials

    draw = per_trial("sim.rng") + per_trial("sim.draw")
    build_self = (total.get("lattice.build", 0) - qr_in_build) * us / trials
    qr = per_trial("linalg.qr")
    demap = per_trial("modem.demap")
    other = (trial_total - covered) * us / trials
    m = {
        "sim.trial.samples": trials,
        "sim.trial.p50_us": _quantile(trial_ns, 0.5) * us,
        "sim.trial.p99_us": _quantile(trial_ns, 0.99) * us,
        "sim.trial.max_us": max(trial_ns) * us,
        "sim.draw.us_per_trial": draw,
        "sim.draw.calls_per_trial": calls.get("sim.draw", 0) / trials,
        "lattice.build.us_per_trial": build_self,
        "lattice.build.calls_per_trial": calls.get("lattice.build", 0) / trials,
        "linalg.qr.us_per_call": total.get("linalg.qr", 0) * us / max(1, calls.get("linalg.qr", 0)),
        "modem.demap.us_per_trial": demap,
        "sim.other.us_per_trial": other,
        "sim.harness_share": (draw + build_self + qr + demap + other) / (trial_total * us / trials),
    }
    for name in DETECTOR_SPANS.values():
        durs = per_call[name]
        nodes, flops, restarts = det_counts[name]
        busy_s = sum(durs) * 1e-9
        m[f"{name}.us_per_trial"] = sum(durs) * us / trials
        m[f"{name}.p50_us"] = _quantile(durs, 0.5) * us if durs else 0.0
        m[f"{name}.p99_us"] = _quantile(durs, 0.99) * us if durs else 0.0
        m[f"{name}.max_us"] = max(durs) * us if durs else 0.0
        m[f"{name}.nodes_per_trial"] = nodes / trials
        m[f"{name}.flops_per_trial"] = flops / trials
        m[f"{name}.restarts_per_trial"] = restarts / trials
        m[f"{name}.nodes_per_s"] = nodes / busy_s if busy_s else 0.0
    return m


def pool_metrics(sweeps, trials_per_point, workers, parallel_wall_s):
    """Pool efficiency, imbalance and overhead for a ``workers``-way split.

    Busy time per block comes from the traced one-worker sweeps, with the
    blocks cut by the same ``linspace`` split as ``run_sweep``; the wall
    time is the median of the untraced parallel sweeps.
    """
    bounds = np.linspace(0, trials_per_point, workers + 1).astype(int)
    busy, slowest, mean_block = [], [], []
    for spans in sweeps:
        per_point = {}
        for (snr_index, t), ns in trial_durations(spans).items():
            block = int(np.searchsorted(bounds, t, side="right")) - 1
            per_point.setdefault(snr_index, [0] * workers)[block] += ns * 1e-9
        busy.append(sum(sum(b) for b in per_point.values()))
        slowest.append(sum(max(b) for b in per_point.values()))
        mean_block.append(sum(statistics.fmean(b) for b in per_point.values()))
    busy_s = statistics.fmean(busy)
    slowest_s = statistics.fmean(slowest)
    return {
        "sim.pool.efficiency": busy_s / (workers * parallel_wall_s),
        "sim.pool.imbalance": slowest_s / statistics.fmean(mean_block),
        "sim.pool.overhead_s": parallel_wall_s - slowest_s,
    }


def write_spans(path, sweeps):
    """Gzipped, tab-separated, one line per span: sweep, name, start_ns,
    end_ns, parent, snr_index, trial_index, after a header line."""
    with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
        fh.write("sweep\tname\tstart_ns\tend_ns\tparent\tsnr_index\ttrial_index\n")
        for k, spans in enumerate(sweeps):
            for name, start, end, parent, trial, _ in spans:
                fh.write(f"{k}\t{name}\t{start}\t{end}\t{parent}\t{trial[0]}\t{trial[1]}\n")
