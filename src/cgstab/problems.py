"""Benchmark problems with exact solutions.

Three configurations exercise the solver: periodic linear advection of a
low sine wave, a pre-shock Burgers problem solved exactly by characteristic
inversion, and a manufactured shallow-water solitary wave driven by a
momentum source.
"""

from dataclasses import dataclass

import numpy as np

from .fluxes import Burgers, LinearAdvection, ShallowWater


class NoConvergence(RuntimeError):
    """Characteristic inversion failed to converge."""


@dataclass(frozen=True)
class ProblemSpec:
    """Domain, horizon, flux and exact solution of one test case."""

    name: str
    flux: object
    x_left: float
    x_right: float
    t_final: float
    boundary: str
    exact: object          # exact(x, t) -> values (n_comp trailing axis if > 1)

    def bc(self, t):
        left, right = self.exact(np.array([self.x_left, self.x_right]), t)
        return np.atleast_1d(left), np.atleast_1d(right)


def linear_advection_problem(t_final=5.0):
    """u_t + u_x = 0 on [0, 2], u0 = 0.1 sin(pi x), periodic."""

    def exact(x, t):
        return 0.1 * np.sin(np.pi * (np.asarray(x) - t))

    return ProblemSpec("advection", LinearAdvection(), 0.0, 2.0, t_final,
                       "periodic", exact)


def _burgers_u0(x):
    return -np.tanh(4.0 * (x - 1.0))


def exact_burgers(x, t):
    """Characteristic solution of Burgers with u0 = -tanh(4(x-1)).

    Solves chi + u0(chi) t = x to |residual| < 1e-12 by at most 100
    safeguarded Newton steps (bisection fallback); u0' <= 0 keeps
    g(chi) = chi + u0(chi) t - x monotone for t < 1/4, so the root in
    [x - t, x + t] is unique.
    """
    x = np.asarray(x, dtype=float)
    t = float(t)
    if t == 0.0:
        return _burgers_u0(x)
    if t >= 0.25:
        raise ValueError("characteristic solution valid only before t_s = 1/4")
    lo = x - abs(t) - 1e-12
    hi = x + abs(t) + 1e-12
    chi = x.copy()
    for _ in range(100):
        u0 = -np.tanh(4.0 * (chi - 1.0))
        g = chi + u0 * t - x
        if np.all(np.abs(g) < 1e-12):
            break
        dg = 1.0 - 4.0 * t / np.cosh(4.0 * (chi - 1.0)) ** 2
        lo = np.where(g < 0, chi, lo)
        hi = np.where(g > 0, chi, hi)
        step = np.where(np.abs(dg) > 1e-14, g / np.where(dg == 0, 1.0, dg), 0.0)
        cand = chi - step
        outside = (cand <= lo) | (cand >= hi)
        chi = np.where(outside, 0.5 * (lo + hi), cand)
    else:
        raise NoConvergence("Burgers characteristic iteration stalled")
    return _burgers_u0(chi)


def burgers_problem(t_final=0.125):
    """Burgers on [0, 2], u0 = -tanh(4(x-1)), Dirichlet, stops before t_s."""
    return ProblemSpec("burgers", Burgers(), 0.0, 2.0, t_final, "dirichlet", exact_burgers)


# The solitary wave: crest height EPS over a unit depth, starting at x = CREST_X0
EPS = 1.2
CREST_X0 = 50.0
KAPPA = np.sqrt(3.0 * EPS / (4.0 * (1.0 + EPS)))
C = np.sqrt(ShallowWater.g * (1.0 + EPS))


def exact_shallow_water(x, t):
    """Solitary-wave profile (h, u) used for the manufactured solution.

    h = 1 + EPS sech^2(KAPPA (x - C t)), u = C (1 - 1 / h) with
    KAPPA = sqrt(3 EPS / (4 (1 + EPS))), C = sqrt(g (1 + EPS)).
    """
    x = np.asarray(x, dtype=float)
    s = 1.0 / np.cosh(KAPPA * (x - C * t)) ** 2
    h = 1.0 + EPS * s
    u = C * (1.0 - 1.0 / h)
    return h, u


def shallow_water_source(x, t):
    """Momentum source Phi = -[h (u_t + u u_x + g h_x)] for the wave above.

    The pair (h, hu) then satisfies mass conservation identically and the
    momentum equation with "+ Phi" on the left-hand side.
    """
    x = np.asarray(x, dtype=float)
    xi = KAPPA * (x - C * t)
    sech2 = 1.0 / np.cosh(xi) ** 2
    h = 1.0 + EPS * sech2
    hx = -2.0 * KAPPA * EPS * sech2 * np.tanh(xi)
    u = C * (1.0 - 1.0 / h)
    ux = C * hx / h**2
    ut = -C * ux            # traveling wave: d/dt = -C d/dx
    return -(h * (ut + u * ux + ShallowWater.g * hx))


def shallow_water_problem(t_final=5.0):
    """Manufactured solitary wave on [0, 200] with Dirichlet ends.

    The crest starts at CREST_X0 so the pulse travels well inside the
    domain over the whole horizon (it moves by C t ~ 23 length units).
    """

    def exact(x, t):
        h, u = exact_shallow_water(np.asarray(x) - CREST_X0, t)
        return np.stack([h, h * u], axis=-1)

    def source(x, t):
        return shallow_water_source(np.asarray(x) - CREST_X0, t)

    return ProblemSpec("sw", ShallowWater(source), 0.0, 200.0, t_final, "dirichlet", exact)


PROBLEMS = {
    "advection": linear_advection_problem,
    "burgers": burgers_problem,
    "sw": shallow_water_problem,
}
