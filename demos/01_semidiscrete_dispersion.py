"""Semi-discrete dispersion and damping of the CG families.

Reduces the periodic advection problem to its p x p Fourier symbol and
plots (as CSV) the phase velocity omega/(a k) and damping eps of the
principal mode versus the reduced wavenumber theta = k dx.  Without
stabilization the scheme carries no damping at all; LPS adds a strictly
negative eps that grows toward the grid limit while barely touching the
resolved phase.

Run:  python demos/01_semidiscrete_dispersion.py
"""

import numpy as np

from cgstab import semidiscrete_modes
from cgstab.stabilization import StabilizationSpec

thetas = np.pi * np.arange(1, 201) / 200

print("P1 without stabilization reproduces the classical closed form:")
probe = np.array([0.5, np.pi / 2, 2.5])
ma = semidiscrete_modes("basic", 1, StabilizationSpec(), probe)   # one mode per theta
closed = np.sin(probe) / probe * 3 / (2 + np.cos(probe))
for theta, w, cf, eps in zip(probe, ma.omega_over_k[:, 0], closed, ma.epsilon[:, 0]):
    print(f"  theta={theta:5.3f}  omega/k = {w:+.12f}  closed form {cf:+.12f}  eps = {eps:+.1e}")

rows = ["family,degree,stab,theta,omega_over_k,epsilon"]
for family in ("basic", "cubature", "bernstein"):
    for degree in (1, 2, 3):
        for stab in (StabilizationSpec(), StabilizationSpec("lps", 0.05)):
            ma = semidiscrete_modes(family, degree, stab, thetas)
            pick = ma.principal[:, None]
            w = np.take_along_axis(ma.omega_over_k, pick, axis=-1)[:, 0]
            eps = np.take_along_axis(ma.epsilon, pick, axis=-1)[:, 0]
            rows.extend(f"{family},{degree},{stab.kind},{t:.10g},{wi:.10g},{ei:.10g}"
                        for t, wi, ei in zip(thetas, w, eps))

out = "demo_out_semidiscrete_dispersion.csv"
with open(out, "w") as fh:
    fh.write("\n".join(rows) + "\n")
print(f"\nwrote {len(rows) - 1} curve samples to {out}")
print("higher degree -> flatter omega/k near 1 (less dispersion); the")
print("LPS curves add eps < 0 concentrated at the poorly resolved modes.")
