"""Set-up probe, run in a fresh interpreter by run.py and timed from outside.

Usage: python3 setup_probe.py WORKERS [spheredec CLI arguments...]

Imports spheredec, parses the workload's CLI arguments with
``cli.parse_args`` and finishes a one-trial sweep of the same config.
"""

import sys

from spheredec import cli, sim

args = cli.parse_args(sys.argv[2:] + ["--trials", "1"])
sim.run_sweep(args.config, workers=int(sys.argv[1]))
