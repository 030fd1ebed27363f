"""Render each workload's reference CSV at the default seed.

Usage, from the root of a checkout: python3 perfbench/make_reference.py

The correctness gate of run.py compares every sweep at the default seed
with these files byte for byte, so render them only from code whose
records are known to be right.
"""

import run

_, cli, _, sim = run.import_spheredec()
run.REFERENCE_DIR.mkdir(exist_ok=True)
for name, workload in run.WORKLOADS.items():
    args = cli.parse_args([*workload.cli, "--trials", str(workload.trials),
                           "--seed", str(run.DEFAULT_SEED)])
    records = sim.run_sweep(args.config, workers=workload.workers)
    path = run.REFERENCE_DIR / f"{name}.csv"
    path.write_text(cli.render_csv(records), encoding="ascii")
    print(f"wrote {path.relative_to(run.ROOT)}")
