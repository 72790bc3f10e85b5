"""Tour of the number-basis primitives.

Shows the stable oscillator-eigenfunction recurrence, the log-domain
coherent weights, and how the Poisson-tail truncation picks the photon
cutoff for a given field amplitude.
"""

import numpy as np

from cavmotion import (
    coherent_coefficient,
    coherent_in_fock,
    coherent_overlap,
    oscillator_wavefunctions,
    truncation_order,
)

# --- position eigenfunctions stay bounded at high order -------------------

x = np.linspace(-4, 4, 9)
print("psi_n(x) via the normalized recurrence:")
for n in (0, 1, 5, 50, 200):
    vals = oscillator_wavefunctions(n, x)[n]
    print(f"  n={n:3d}  max|psi| = {np.max(np.abs(vals)):.6f}")

# --- coherent weights for amplitudes the naive formula cannot reach -------

print("\ncoherent weights |<n|zeta>| at the Poisson peak:")
for zeta in (0.8, 2.0, 6.0, 10.0):
    n_peak = round(abs(zeta) ** 2)
    w = abs(coherent_coefficient(zeta, n_peak))
    print(f"  zeta={zeta:4.1f}  n={n_peak:3d}  weight={w:.6f}")

# --- truncation orders follow the amplitude -------------------------------

print("\nPoisson-tail truncation (tail < 1e-12):")
for zeta in (0.0, 0.8, 2.0, 4.0, 6.0):
    print(f"  zeta={zeta:4.1f}  N_max={truncation_order(zeta):3d}")

# --- overlaps agree with the truncated number-basis expansion -------------

mu, nu = 1.2 + 0.3j, -0.4 + 0.9j
dim = truncation_order(2.0) + 8
direct = coherent_overlap(mu, nu)
expanded = np.vdot(coherent_in_fock(mu, dim), coherent_in_fock(nu, dim))
print(f"\n<mu|nu> closed form  = {direct:.12f}")
print(f"<mu|nu> via Fock sum = {expanded:.12f}")
print(f"difference           = {abs(direct - expanded):.3e}")
