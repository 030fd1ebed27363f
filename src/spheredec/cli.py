"""Command-line front end: run an SNR sweep and emit CSV or JSON records.

Example::

    spheredec --n 2 --mod 16qam --detector sd-conv --detector sd-new \
              --snr 0:2:20 --trials 20000 --seed 42 --out results.csv

CSV columns: snr_db, detector, n, mod, ber, ser, mean_flops,
mean_preproc_flops, mean_nodes, trials, bit_errors, seed.  Floats are
printed with 10 significant digits; fixed (seed, config) pairs produce
byte-identical files.  ``LATTICE_SD_THREADS`` (default 1, read here only)
sets how many blocks each SNR point's trials are split into; the records
do not depend on it, and at most one process per CPU is forked.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

from .sim import DETECTOR_NAMES, SimConfig, SweepRecord, check_workers, run_sweep

_MOD_FLAGS = {"16qam": 16, "64qam": 64}

_CSV_FIELDS = tuple(f.name for f in fields(SweepRecord))


@dataclass(frozen=True)
class CliArgs:
    config: SimConfig
    out_path: str
    format: str
    verbosity: int
    workers: int


def _parse_snr(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("expected start:step:stop")
    return tuple(float(p) for p in parts)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="spheredec",
        description="Monte Carlo BER/complexity sweeps for MIMO ML detectors",
    )
    parser.add_argument("--n", type=int, choices=(2, 4, 6), default=2,
                        help="number of antennas on each side (default 2)")
    parser.add_argument("--mod", choices=sorted(_MOD_FLAGS), default="16qam",
                        help="QAM order (default 16qam)")
    parser.add_argument("--detector", action="append", dest="detectors", metavar="NAME",
                        help="detector to run; repeatable (default: all of "
                             f"{', '.join(DETECTOR_NAMES)})")
    parser.add_argument("--snr", default="0:2:20", metavar="START:STEP:STOP",
                        help="SNR grid in dB (default 0:2:20); give a negative "
                             "start with '=', as in --snr=-4:2:0")
    parser.add_argument("--trials", type=int, default=20000,
                        help="Monte Carlo trials per SNR point (default 20000)")
    parser.add_argument("--seed", type=int, default=42,
                        help="base RNG seed (default 42)")
    parser.add_argument("--radius-dim", default="2n", metavar="DIM",
                        help="dimension used in the initial radius "
                             "d^2 = 2*sigma^2*dim, 'n' or '2n' (default 2n)")
    parser.add_argument("--out", default="-", metavar="PATH",
                        help="output path, '-' for stdout (default)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        dest="verbosity")
    ns = parser.parse_args(argv)

    try:
        start, step, stop = _parse_snr(ns.snr)
    except ValueError as exc:
        parser.error(f"invalid --snr {ns.snr!r}: {exc}")

    threads = os.environ.get("LATTICE_SD_THREADS", "1")
    try:
        workers = int(threads)
        check_workers(workers)
    except ValueError:
        parser.error(f"LATTICE_SD_THREADS must be an integer >= 1, got {threads!r}")
    try:
        cfg = SimConfig(
            n_antennas=ns.n,
            mod_order=_MOD_FLAGS[ns.mod],
            detectors=ns.detectors or DETECTOR_NAMES,
            snr_start_db=start,
            snr_stop_db=stop,
            snr_step_db=step,
            trials_per_point=ns.trials,
            seed=ns.seed,
            radius_dimension=ns.radius_dim,
        )
    except ValueError as exc:
        parser.error(str(exc))
    if ns.out != "-":
        try:
            _probe_writable(ns.out)
        except OSError as exc:
            parser.error(f"cannot write --out {ns.out!r}: {exc.strerror}")
    return CliArgs(config=cfg, out_path=ns.out, format=ns.format,
                   verbosity=ns.verbosity, workers=workers)


def _probe_writable(path):
    """Raise OSError unless ``path`` opens for writing.  A file the probe
    creates is removed again, so the sweep's output is the first write."""
    existed = os.path.exists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def render_csv(records):
    lines = [",".join(_CSV_FIELDS)]
    for rec in records:
        lines.append(",".join(_fmt(getattr(rec, f)) for f in _CSV_FIELDS))
    return "\n".join(lines) + "\n"


def render_json(records):
    rows = []
    for rec in records:
        row = {}
        for f in _CSV_FIELDS:
            v = getattr(rec, f)
            row[f] = float(_fmt(v)) if isinstance(v, float) else v
        rows.append(row)
    return json.dumps(rows, indent=2) + "\n"


def emit_results(records, fmt, out_path):
    """Write records as CSV or JSON to a path ('-' for stdout)."""
    if not records:
        raise ValueError("no records to emit")
    text = render_csv(records) if fmt == "csv" else render_json(records)
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def main(argv=None):
    args = parse_args(argv)
    cfg = args.config
    if args.verbosity:
        pts = cfg.snr_points()
        print(f"sweep: {cfg.n_antennas}x{cfg.n_antennas} {cfg.mod_order}-QAM, "
              f"{len(pts)} SNR points x {cfg.trials_per_point} trials, "
              f"detectors {', '.join(cfg.detectors)}", file=sys.stderr)
    records = run_sweep(cfg, workers=args.workers)
    try:
        emit_results(records, args.format, args.out_path)
    except OSError as exc:
        print(f"spheredec: cannot write {args.out_path!r}: {exc}", file=sys.stderr)
        return 1
    if args.verbosity:
        print(f"wrote {len(records)} records to {args.out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
