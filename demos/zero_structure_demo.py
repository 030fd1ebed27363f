"""Show the structural zeros that make rail-decoupled detection possible.

The interleaved real form of a complex channel puts each transmit symbol
into an adjacent (Re, Im) column pair.  Those two columns are exactly
orthogonal with equal norm, and after Gram-Schmidt QR every entry
r[k, k+1] above a pair's diagonal block comes out as an exact zero, so
the two rails of a symbol can be detected independently.

Run:  python demos/zero_structure_demo.py
"""

import numpy as np

from spheredec import Representation, gram_schmidt_qr, real_form

rng = np.random.default_rng(2024)

print("pre-forcing magnitude of the structural entries r[k, k+1], odd level k")
print(f"{'N':>3} {'interleaved (max over 500 draws)':>34} {'stacked (one draw)':>20}")
for n in (2, 4, 6):
    worst = 0.0
    for _ in range(500):
        h = np.sqrt(0.5) * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        f = gram_schmidt_qr(real_form(h, Representation.INTERLEAVED), pair_zeros=True)
        worst = max(worst, f.zero_structure_max)
    # same positions in the stacked form are ordinary nonzeros
    f_stacked = gram_schmidt_qr(real_form(h, Representation.STACKED))
    stacked_mag = max(abs(f_stacked.r[k, k + 1]) for k in range(0, 2 * n, 2))
    print(f"{n:>3} {worst:>34.3e} {stacked_mag:>20.3f}")

print()
h = np.sqrt(0.5) * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
f = gram_schmidt_qr(real_form(h, Representation.INTERLEAVED), pair_zeros=True)
print("R of a 2x2 interleaved channel (note the exact zeros at (1,2) and (3,4)):")
with np.printoptions(precision=4, suppress=True):
    print(f.r)
print()
print("adjacent diagonal entries are equal in pairs (equal residual norms):")
print(np.diag(f.r))
