import numpy as np

from cgstab import build_reference_element
from cgstab.fluxes import LinearAdvection
from cgstab.fourier import amplification_matrix
from cgstab.stabilization import Mesh1D, StabilizationSpec, assemble_system
from cgstab.timeint import SCHEME_KINDS, make_scheme

ALL_FAMILIES = ("basic", "cubature", "bernstein")
ALL_DEGREES = (1, 2, 3)
ALL_STABS = (("none", 0.0), ("supg", 0.31), ("cip", 0.11), ("lps", 0.23))
ALL_SCHEMES = SCHEME_KINDS


def fourier_mode_state(system, theta, u_red):
    """Global dof vector carrying one reduced Fourier mode."""
    p = system.ref.degree
    n = system.mesh.n_cells
    U = np.zeros(system.n_nodes, dtype=complex)
    for c in range(n):
        U[c * p:(c + 1) * p] = np.exp(1j * theta * c) * u_red
    return U


def one_step_reduced(family, p, stab_kind, delta, scheme_kind, mode_index,
                     u_red, cfl, n_cells=8, a=1.3, dx=0.7,
                     convention="cell"):
    """One real periodic solver step applied to a Fourier mode, reduced back.

    This is the time-domain oracle for the amplification matrix: linearity
    of the advection system lets the complex mode be stepped as real and
    imaginary parts separately.
    """
    mesh = Mesh1D(0.0, n_cells * dx, n_cells, "periodic")
    ref = build_reference_element(family, p)
    stab = StabilizationSpec(stab_kind, delta)
    system = assemble_system(mesh, ref, stab, LinearAdvection(a))
    theta = 2.0 * np.pi * mode_index / n_cells
    U = fourier_mode_state(system, theta, u_red)
    scale = mesh.dx if convention == "cell" else mesh.dx / p
    dt = cfl * scale / abs(a)
    scheme = make_scheme(scheme_kind, p + 1)
    Ur = scheme.step(system, U.real.copy(), 0.0, dt)
    Ui = scheme.step(system, U.imag.copy(), 0.0, dt)
    return (Ur + 1j * Ui)[:p], theta


def predicted_step(family, p, stab_kind, delta, scheme_kind, theta, u_red,
                   cfl, convention="cell"):
    """G applied to the reduced mode; dx and the speed cancel in the symbol."""
    ref = build_reference_element(family, p)
    stab = StabilizationSpec(stab_kind, delta)
    amp = amplification_matrix(ref, stab, scheme_kind, theta, cfl, delta,
                               convention=convention)
    return amp.G @ u_red
