"""Seeded sweep benchmark for spheredec.

Times ``spheredec.sim.run_sweep`` end to end on one fixed workload, or,
with ``--trace 1``, records spans around the calls sim makes into each
layer and reports per-layer metrics.  Run from the root of a checkout:

    python3 perfbench/run.py --workload harness-2x2 --seed 42 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count sweep records, one per (SNR point, detector) cell.  The
lines before it give the machine and run block and each metric by name
with its unit.  The exit code is non-zero when a correctness check fails.
"""

import os
import sys

if not __debug__:
    sys.exit("perfbench: refusing to run under python -O, which strips "
             "the assert in sim._detect that checks each detection's weight")

# Pin BLAS threads before numpy loads, so that the benchmark process and its
# pool workers never keep more than two CPUs busy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 42
SETUP_REPEATS = 7
# Sweep k of an untraced run uses seed + k * SUBSEED_STRIDE, so a run times
# many distinct trials while sweep 0 is the workload at the given seed.
SUBSEED_STRIDE = 2**64


@dataclass(frozen=True)
class Workload:
    cli: tuple          # spheredec CLI arguments, without --trials and --seed
    trials: int         # trials per SNR point
    workers: int        # passed to run_sweep explicitly


# Why these three: each one makes a different layer dominate trial time.
# 4x4 and 6x6 16-QAM at their BER 1e-3 points are not taken: their trial
# time splits about evenly between harness and detectors (6x6 at 20 dB:
# ~0.8 ms vs ~1.0 ms), so they stress no layer that these stress more.
# kbest-6x6-64 and dfs-6x6-64-par share trials per point, so that the
# sd-new records of the two can be compared.
WORKLOADS = {
    # Every detector redraws the instance and redoes the QR, so draw, build
    # and demap dominate; the only workload that runs ml.
    "harness-2x2": Workload(
        cli=("--n", "2", "--mod", "16qam", "--snr", "22:2:28"),
        trials=250, workers=1),
    # The K-best 32/32/16 layers of sd_proposed take ~80% of each trial.
    "kbest-6x6-64": Workload(
        cli=("--n", "6", "--mod", "64qam", "--detector", "sd-new",
             "--snr", "20:1:22"),
        trials=500, workers=1),
    # sd_conventional's depth-first tail sets how uneven the two worker
    # blocks are; the only workload that uses the process pool.
    "dfs-6x6-64-par": Workload(
        cli=("--n", "6", "--mod", "64qam", "--detector", "sd-conv",
             "--detector", "sd-new", "--snr", "20:1:22"),
        trials=500, workers=2),
}


def fail(message):
    sys.exit(f"perfbench: {message}")


def import_spheredec():
    """Import spheredec from this checkout's src/, never from elsewhere."""
    if not (SRC / "spheredec" / "__init__.py").is_file():
        fail(f"no spheredec package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import spheredec
    from spheredec import cli, lattice, sim
    if Path(spheredec.__file__).resolve().parent != SRC / "spheredec":
        fail(f"imported spheredec from {spheredec.__file__}, not from {SRC}")
    return spheredec, cli, lattice, sim


class Tally:
    """Records attempted and failed, and the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted, failed=0, problem=None):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} record(s): {problem}")


def diff_rows(expected, actual):
    """Number of CSV data rows of ``expected`` that ``actual`` does not
    reproduce at the same position (headers must match too)."""
    exp, act = expected.splitlines(), actual.splitlines()
    if not exp or not act or exp[0] != act[0]:
        return max(len(exp) - 1, 1)
    exp, act = exp[1:], act[1:]
    bad = sum(1 for i, row in enumerate(exp) if i >= len(act) or act[i] != row)
    return bad + max(0, len(act) - len(exp))


def select_rows(text, detector):
    lines = text.splitlines()
    keep = [lines[0]] + [ln for ln in lines[1:] if ln.split(",")[1] == detector]
    return "\n".join(keep) + "\n"


def check_sweep(tally, cli, name, seed, records, first_text=None):
    """Run the checks every sweep must pass; returns the rendered CSV."""
    text = cli.render_csv(records)
    tally.add(len(records))
    if first_text is not None:
        tally.add(0, diff_rows(first_text, text), "records differ from the first sweep of the run")
    if seed == DEFAULT_SEED:
        reference = (REFERENCE_DIR / f"{name}.csv").read_text(encoding="ascii")
        tally.add(0, diff_rows(reference, text), "records differ from the reference CSV")
    if name == "harness-2x2":
        by_snr = {}
        for rec in records:
            by_snr.setdefault(rec.snr_db, []).append(rec.bit_errors)
        bad = sum(len(v) for v in by_snr.values() if len(set(v)) > 1)
        tally.add(0, bad, "ml, sd-conv and sd-new bit errors differ at N=2")
    return text


def run_guarded(tally, expected_records, fn, *args, **kwargs):
    """Run one sweep; a sweep that raises fails all the records it owed."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # noqa: BLE001 - the benchmark reports and continues
        traceback.print_exc()
        tally.add(expected_records, expected_records, "the sweep raised")
        return None


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure_setup(workload, seed):
    """Median wall time of fresh interpreters that import spheredec, parse
    the workload's CLI arguments and finish a one-trial sweep."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(workload.workers),
           *workload.cli, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def peak_rss_mb():
    """Peak resident set of this process plus the largest child so far
    (getrusage reports the largest waited-for child, not a sum)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def machine_block(np, spheredec, seed, name, workload, cfg, trace, seconds):
    def read(path):
        try:
            return Path(path).read_text(encoding="ascii").strip()
        except OSError:
            return None

    cpu_model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if level in ("2", "3") and kind == "Unified":
            caches[f"l{level}"] = read(index / "size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "machine": {
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model,
            "cache": caches,
            "loadavg_at_start": read("/proc/loadavg"),
            "kernel": " ".join(os.uname()[2:4]),
        },
        "software": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "spheredec": spheredec.__version__,
        },
        "threads": {
            **{var: os.environ[var] for var in THREAD_VARS},
            "LATTICE_SD_THREADS": os.environ.get("LATTICE_SD_THREADS"),
            "workers_passed_to_run_sweep": workload.workers,
        },
        "run": {
            "workload": name,
            "seed": seed,
            "default_seed": DEFAULT_SEED,
            "seconds": seconds,
            "trace": trace,
            "cli": list(workload.cli),
            "trials_per_point": workload.trials,
            "snr_points_db": list(cfg.snr_points()),
            "detectors": list(cfg.detectors),
        },
    }


def measure_untraced(sim, cli, name, workload, cfg, seconds, tally):
    """Sweeps at seeds seed, seed + stride, ... for ``seconds``; returns
    the trials/s of each and the records of the first as CSV."""
    n_records = len(cfg.snr_points()) * len(cfg.detectors)
    trials = cfg.trials_per_point * len(cfg.snr_points())
    rates, durations, first_text = [], [], None
    start = time.perf_counter()
    for k in itertools.count():
        sweep_cfg = replace(cfg, seed=cfg.seed + k * SUBSEED_STRIDE)
        out = run_guarded(tally, n_records, timed, sim.run_sweep, sweep_cfg,
                          workers=workload.workers)
        if out is None:
            break
        records, dt = out
        text = check_sweep(tally, cli, name, sweep_cfg.seed, records)
        first_text = first_text or text
        rates.append(trials / dt)
        durations.append(dt)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    return rates, first_text


def cross_check_kbest(sim, cli, seed, dfs_text, tally):
    """The sd-new records of kbest-6x6-64 equal those of dfs-6x6-64-par."""
    workload = WORKLOADS["kbest-6x6-64"]
    cfg = cli.parse_args([*workload.cli, "--trials", str(workload.trials),
                          "--seed", str(seed)]).config
    records = run_guarded(tally, len(cfg.snr_points()), sim.run_sweep, cfg,
                          workers=workload.workers)
    if records is None:
        return
    text = check_sweep(tally, cli, "kbest-6x6-64", seed, records)
    tally.add(0, diff_rows(text, select_rows(dfs_text, "sd-new")),
              "sd-new records depend on the detector list")


def run_untraced(cli, lattice, sim, name, workload, cfg, args, tally):
    """End-to-end metrics: trials/s, then peak RSS, then set-up time."""
    rates, text = measure_untraced(sim, cli, name, workload, cfg, args.seconds, tally)
    rss = peak_rss_mb()
    setup_s, setup_all = measure_setup(workload, args.seed)
    if name == "dfs-6x6-64-par" and text is not None:
        cross_check_kbest(sim, cli, args.seed, text, tally)
    metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB")}
    if rates:
        metrics["trials_per_s"] = (statistics.median(rates), "1/s")
        q1, q3 = quartiles(rates)
        print(f"{name} trials_per_s {statistics.median(rates):.2f} 1/s "
              f"(q1 {q1:.2f}, q3 {q3:.2f}, {len(rates)} sweeps of "
              f"{cfg.trials_per_point * len(cfg.snr_points())} trials)")
    print(f"{name} setup_s {setup_s:.4f} s (median of "
          f"{', '.join(f'{t:.4f}' for t in setup_all)})")
    print(f"{name} peak_rss_mb {rss:.1f} MB")
    return metrics


def run_traced(cli, lattice, sim, name, workload, cfg, args, tally):
    """Traced one-worker sweeps alternating with untraced ones (and, on a
    pool workload, untraced parallel ones) until ``--seconds`` is used."""
    import spans as spanlib

    n_records = len(cfg.snr_points()) * len(cfg.detectors)
    trials = cfg.trials_per_point * len(cfg.snr_points())
    modes = ["traced", "untraced"] + (["parallel"] if workload.workers > 1 else [])
    rates = {mode: [] for mode in modes}
    sweeps, first_records, first_text = [], None, None
    start = time.perf_counter()
    for mode in itertools.cycle(modes):
        if mode == "traced":
            tracer = spanlib.Tracer()
            with tracer.patched(sim, lattice):
                out = run_guarded(tally, n_records, timed, sim.run_sweep, cfg, workers=1)
        else:
            workers = workload.workers if mode == "parallel" else 1
            out = run_guarded(tally, n_records, timed, sim.run_sweep, cfg, workers=workers)
        if out is None:
            break
        records, dt = out
        # Every sweep must give the records of the first, which is traced.
        text = check_sweep(tally, cli, name, args.seed, records, first_text)
        first_text, first_records = first_text or text, first_records or records
        rates[mode].append(trials / dt)
        if mode == "traced":
            sweeps.append(tracer.spans)
        done = all(len(v) >= (2 if m == "traced" else 1) for m, v in rates.items())
        if done and time.perf_counter() - start > args.seconds:
            break
    if len(sweeps) < 2:
        tally.add(0, n_records, "fewer than two traced sweeps completed")
        return {}

    # Counts repeat exactly across traced sweeps and match the records.
    counts = [spanlib.sweep_counts(s) for s in sweeps]
    bad = {key for c in counts[1:] for key in set(c) | set(counts[0])
           if c.get(key) != counts[0].get(key)}
    tally.add(0, len(bad), "counts differ between two traced sweeps")
    snr_index = {snr: i for i, snr in enumerate(cfg.snr_points())}
    for rec in first_records:
        _, nodes, flops, _ = counts[0].get(
            (f"detectors.{rec.detector}", snr_index[rec.snr_db]), (0, 0, 0, 0))
        ok = flops / rec.trials == rec.mean_flops and nodes / rec.trials == rec.mean_nodes
        tally.add(0, 0 if ok else 1, "traced FLOP or node counts differ from the records")

    metrics = spanlib.layer_metrics(sweeps)
    untraced = statistics.median(rates["untraced"])
    metrics["trace.overhead_frac"] = 1.0 - statistics.median(rates["traced"]) / untraced
    if "parallel" in rates:
        wall = trials / statistics.median(rates["parallel"])
        metrics.update(spanlib.pool_metrics(sweeps, cfg.trials_per_point,
                                            workload.workers, wall))
    else:
        metrics.update({"sim.pool.efficiency": 0.0, "sim.pool.imbalance": 0.0,
                        "sim.pool.overhead_s": 0.0})

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{args.seed}.tsv.gz"
    spanlib.write_spans(path, sweeps)
    print(f"{name} spans written to {path.relative_to(ROOT)}")
    print(f"{name} traced {statistics.median(rates['traced']):.2f} trials/s, "
          f"untraced {untraced:.2f} trials/s (1 worker)")
    return {key: (value, unit_of(key)) for key, value in metrics.items()}


def unit_of(metric):
    if metric.endswith("_us"):
        return "us"
    if metric.endswith(".us_per_trial"):
        return "us/trial"
    if metric.endswith(".us_per_call"):
        return "us/call"
    if metric.endswith("_per_trial"):
        return "count/trial"
    if metric.endswith(".nodes_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".samples"):
        return "count"
    return "ratio"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2**64)")

    spheredec, cli, lattice, sim = import_spheredec()
    import numpy as np

    name = args.workload
    workload = WORKLOADS[name]
    cfg = cli.parse_args([*workload.cli, "--trials", str(workload.trials),
                          "--seed", str(args.seed)]).config
    block = machine_block(np, spheredec, args.seed, name, workload, cfg,
                          args.trace, args.seconds)
    print("run " + json.dumps(block, sort_keys=True))

    # Let lazy set-up finish before timing: one small sweep, untimed.
    sim.run_sweep(replace(cfg, trials_per_point=2), workers=1)

    tally = Tally()
    run = run_traced if args.trace else run_untraced
    metrics = run(cli, lattice, sim, name, workload, cfg, args, tally)

    failed_frac = tally.failed / max(1, tally.attempted)
    print(f"{name} failed_frac {failed_frac:.6g} ratio "
          f"({tally.failed} of {tally.attempted} records)")
    if args.trace:
        for key, (value, unit) in sorted(metrics.items()):
            print(f"{name} {key} {value:.6g} {unit}")
    for problem in tally.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    correct = tally.failed == 0 and tally.attempted > 0
    result = {
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
