"""Time-domain verification harness: runs, error norms, convergence fits."""

from dataclasses import dataclass, field

import numpy as np

from .elements import build_reference_element
from .stabilization import DIRICHLET, Mesh1D, assemble_system
from .timeint import BlowUp, make_scheme
from .fourier import DEFAULT_CONVENTION, dt_scale


@dataclass
class RunResult:
    problem: str
    n_cells: int
    dx: float
    n_dofs: int
    l2_error: float
    n_steps: int
    U: np.ndarray
    system: object

    def config_dict(self):
        return {
            "problem": self.problem,
            "n_cells": self.n_cells,
            "dx": self.dx,
            "n_dofs": self.n_dofs,
            "l2_error": self.l2_error,
            "n_steps": self.n_steps,
        }


@dataclass
class ConvergenceReport:
    """Per-level errors plus the least-squares order fit."""

    problem: str
    levels: list = field(default_factory=list)  # dicts: dx, dofs, dof_steps, l2_error
    failed_levels: list = field(default_factory=list)

    @property
    def order(self):
        ok = [lv for lv in self.levels if np.isfinite(lv["l2_error"]) and lv["l2_error"] > 0]
        if len(ok) < 2:
            return float("nan")
        logh = np.log([lv["dx"] for lv in ok])
        loge = np.log([lv["l2_error"] for lv in ok])
        return float(np.polyfit(logh, loge, 1)[0])

    def csv(self):
        lines = ["dx,dofs,l2_error"]
        for lv in self.levels:
            lines.append(f"{lv['dx']:.12g},{lv['dofs']},{lv['l2_error']:.12g}")
        return "\n".join(lines) + "\n"


def build_problem_system(problem, family, degree, stab, n_cells):
    """Mesh + assembled system for one problem configuration."""
    mesh = Mesh1D(problem.x_left, problem.x_right, n_cells, problem.boundary)
    ref = build_reference_element(family, degree)
    bc = problem.bc if problem.boundary == DIRICHLET else None
    return assemble_system(mesh, ref, stab, problem.flux, bc=bc)


def l2_error(system, U, exact, t):
    """Discrete L2 error via the element quadrature.

    Systems are measured on their first component (the height h); the
    exact callable may return either that component directly or the full
    component-stacked array.
    """
    vals = system.eval_at_quads(U)[..., 0]
    ex = np.asarray(exact(system.quad_x, t))
    if ex.ndim == vals.ndim + 1:
        ex = ex[..., 0]
    w = system.ref.quad_weights
    return float(np.sqrt(system.mesh.dx * np.sum(w[None, :] * (vals - ex) ** 2)))


def run_simulation(problem, family, degree, stab, scheme, cfl, n_cells,
                   convention=DEFAULT_CONVENTION, monitor=None):
    """Advance one configuration to t_final and report the L2 error.

    ``stab`` is a StabilizationSpec and ``scheme`` a time-scheme kind
    ("rk", "ssprk" or "dec"), run at order degree + 1.  dt follows the
    calibrated CFL convention with the instantaneous global maximum wave
    speed (refreshed every step for nonlinear fluxes); the last step is
    clipped to land on t_final exactly.  With a zero wave speed every dt
    is stable, so the run takes one step to t_final.  A step that no
    longer advances t (dt vanishing under a growing, infinite or NaN wave
    speed) raises BlowUp.  A CFL that is not positive and finite raises
    ValueError.
    """
    if not 0 < cfl < np.inf:
        raise ValueError(f"cfl must be positive and finite, got {cfl}")
    scheme = make_scheme(scheme, degree + 1)
    system = build_problem_system(problem, family, degree, stab, n_cells)
    U = system.interpolate(problem.exact, 0.0)
    t = 0.0
    n_steps = 0
    scale = dt_scale(convention, system.mesh.dx, degree)
    while t < problem.t_final - 1e-13:
        speed = problem.flux.max_speed(U.reshape(system.n_nodes, system.n_comp))
        dt = min(cfl * scale / speed if speed else np.inf, problem.t_final - t)
        if not t + dt > t:
            raise BlowUp(f"time step {n_steps + 1} does not advance t = {t:.6g} (dt = {dt:.3g})")
        U = scheme.step(system, U, t, dt)   # raises BlowUp on NaN/Inf
        if np.linalg.norm(U) > 1e10:
            raise BlowUp("solution left the trust region")
        t += dt
        n_steps += 1
        if monitor is not None:
            monitor(t, U, system)
    err = l2_error(system, U, problem.exact, problem.t_final)
    return RunResult(problem.name, n_cells, system.mesh.dx, system.n_nodes,
                     err, n_steps, U, system)


# Mesh sequence used by the reference convergence studies: dx for p = 1,
# coarsened by p for higher degrees so dof counts match across p.
DX1_DEFAULT = (0.05, 0.025, 0.0125, 0.00625)


def cells_for_level(problem, degree, dx1):
    """Cell count for one level under the equal-dof mesh parity."""
    length = problem.x_right - problem.x_left
    n = length / (degree * dx1)
    n_round = int(round(n))
    if abs(n - n_round) > 1e-9:
        n_round = max(int(np.ceil(n)), 2)
    return n_round


def convergence_study(problem, family, degree, stab, scheme, cfl,
                      dx1_values=DX1_DEFAULT, convention=DEFAULT_CONVENTION):
    """Run a mesh sequence and fit the convergence order.

    Levels that blow up are recorded and excluded from the fit; at least
    three surviving levels are required for a meaningful order.
    """
    if len(dx1_values) < 3:
        raise ValueError("need at least 3 levels")
    report = ConvergenceReport(problem.name)
    for dx1 in dx1_values:
        n_cells = cells_for_level(problem, degree, dx1)
        try:
            run = run_simulation(problem, family, degree, stab, scheme, cfl,
                                 n_cells, convention=convention)
        except BlowUp:
            report.failed_levels.append({"dx": degree * dx1, "n_cells": n_cells})
            continue
        report.levels.append({
            "dx": run.dx,
            "dofs": run.n_dofs,
            "dof_steps": run.n_dofs * run.n_steps,
            "l2_error": run.l2_error,
        })
    if len(report.levels) < 3:
        raise BlowUp(f"{problem.name}: fewer than 3 levels survived")
    return report
