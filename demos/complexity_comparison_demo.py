"""Counted-cost comparison of the two sphere decoders across system sizes.

Mean detection-phase FLOPs and tree-node visits per trial, at a moderate
and a high SNR for each antenna count.  The reduced decoder's advantage
grows with the system size and shrinks with SNR as the conventional
decoder's tree collapses toward a single dive.

Run:  python demos/complexity_comparison_demo.py  (a few seconds on 2 CPUs)
"""

from spheredec import SimConfig, run_sweep

TRIALS = 1000

print(f"{'system':>7} {'snr':>5} {'flops conv':>11} {'flops new':>10} "
      f"{'nodes conv':>11} {'nodes new':>10} {'reduction':>10}")

for n, snrs in ((2, (10.0, 20.0)), (4, (12.0, 20.0)), (6, (12.0, 20.0))):
    cfg = SimConfig(
        n_antennas=n,
        mod_order=16,
        detectors=("sd-conv", "sd-new"),
        snr_start_db=snrs[0],
        snr_stop_db=snrs[1],
        snr_step_db=snrs[1] - snrs[0],
        trials_per_point=TRIALS,
        seed=3,
    )
    records = run_sweep(cfg, workers=2)
    by_point = {}
    for r in records:
        by_point.setdefault(r.snr_db, {})[r.detector] = r
    for snr in sorted(by_point):
        conv, new = by_point[snr]["sd-conv"], by_point[snr]["sd-new"]
        red = 100.0 * (1.0 - new.mean_flops / conv.mean_flops)
        print(f"{n}x{n:<5} {snr:>5.0f} {conv.mean_flops:>11.0f} {new.mean_flops:>10.0f} "
              f"{conv.mean_nodes:>11.0f} {new.mean_nodes:>10.0f} {red:>9.1f}%")

print()
print("QR preprocessing is reported separately by the harness "
      "(mean_preproc_flops) and is identical for both decoders.")
