"""The fully discrete propagator against a real time step.

The p x p amplification matrix G claims to encode exactly one step of the
periodic solver acting on a single Fourier mode.  This script builds an
actual 8-cell mesh, steps a mode with the production SSPRK and deferred
correction loops, and compares against G applied to the reduced dofs.
Agreement is at round-off for every family / stabilization pairing, which
is what licenses reading CFL limits off the eigenvalues of G.

Run:  python demos/02_amplification_vs_solver.py
"""

import numpy as np

from cgstab import build_reference_element
from cgstab.fluxes import LinearAdvection
from cgstab.fourier import amplification_matrix, eigvals_batched, phase_damping, principal_mode
from cgstab.stabilization import DiscreteSystem, Mesh1D, StabilizationSpec
from cgstab.timeint import make_scheme

rng = np.random.default_rng(1)
n_cells, a, dx = 8, 1.3, 0.7

print(f"{'family':10s} {'p':>2s} {'stab':5s} {'scheme':6s} {'rel err':>10s}")
for family in ("basic", "cubature", "bernstein"):
    for p in (1, 2, 3):
        for kind, delta in (("none", 0.0), ("supg", 0.3), ("cip", 0.1), ("lps", 0.2)):
            for scheme_kind in ("rk", "ssprk", "dec"):
                mesh = Mesh1D(0.0, n_cells * dx, n_cells, "periodic")
                system = DiscreteSystem(mesh, build_reference_element(family, p),
                                         StabilizationSpec(kind, delta), LinearAdvection(a))
                m = int(rng.integers(1, 8))
                theta = 2 * np.pi * m / n_cells
                u_red = rng.normal(size=p) + 1j * rng.normal(size=p)
                U = np.zeros(system.n_nodes, dtype=complex)
                for c in range(n_cells):
                    U[c * p:(c + 1) * p] = np.exp(1j * theta * c) * u_red

                cfl = 0.21
                dt = cfl * mesh.dx / a
                scheme = make_scheme(scheme_kind, p + 1)
                stepped = (scheme.step(system, U.real.copy(), 0.0, dt)
                           + 1j * scheme.step(system, U.imag.copy(), 0.0, dt))[:p]

                G = amplification_matrix(family, p, StabilizationSpec(kind, delta),
                                         scheme_kind, theta, cfl)
                rel = np.linalg.norm(G @ u_red - stepped) / np.linalg.norm(stepped)
                if scheme_kind == "dec" and kind == "lps":
                    print(f"{family:10s} {p:2d} {kind:5s} {scheme_kind:6s} {rel:10.2e}")

# what the eigenvalues of G mean: phase and damping of the step
G = amplification_matrix("cubature", 2, StabilizationSpec("cip", 0.014), "ssprk", 1.1, 0.8)
k, dt = 1.1 / 0.5, 0.8 * 0.5
omega, eps = phase_damping(eigvals_batched(G), dt)
print("\ncubature p=2 CIP SSPRK at theta=1.1, cfl=0.8:")
for i in range(2):
    tag = "principal" if i == principal_mode(omega, k) else "parasite"
    print(f"  mode {i} ({tag}): omega/k = {omega[i] / k:+.4f}, eps = {eps[i]:+.4f}")
