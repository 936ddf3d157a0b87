"""Flux descriptors for the conservation laws handled by the solver.

Each flux exposes the pieces the assembly needs in strong form:
``flux_x(u, ux)`` returns d/dx f(u) given pointwise values and gradients
(both carrying a trailing component axis); ``jacobian(u)``, the scalar
df/du SUPG weights with, and ``speed(u)``, the reference |df/du| of tau
and the CFL condition, consume the component axis.  ``is_linear`` marks a
residual that is one fixed matrix.  Scalar fluxes have ``n_comp == 1``;
shallow water carries two interleaved components (h, hu).
"""

import numpy as np

from .timeint import BlowUp


class _Flux:
    is_linear = False

    def speed(self, u):
        return np.abs(self.jacobian(u))

    def max_speed(self, u):
        return float(np.max(self.speed(u)))


class LinearAdvection(_Flux):
    """f(u) = a u."""

    n_comp = 1
    is_linear = True

    def __init__(self, a=1.0):
        self.a = float(a)

    def flux_x(self, u, ux):
        return self.a * ux

    def jacobian(self, u):
        return np.full(np.asarray(u).shape[:-1], self.a)


class Burgers(_Flux):
    """f(u) = u^2 / 2."""

    n_comp = 1

    def flux_x(self, u, ux):
        return u * ux

    def jacobian(self, u):
        return np.asarray(u)[..., 0]


class ShallowWater(_Flux):
    """1D shallow water in conservative variables (h, q = h u).

    The momentum flux gradient is expanded with the analytic Jacobian,
    d/dx f = [q_x, (g h - u^2) h_x + 2 u q_x], and the system wave speed
    |u| + sqrt(g h) feeds the componentwise stabilization (SUPG uses it in
    place of the 2x2 Jacobian).  An optional source enters the momentum
    equation only.
    """

    n_comp = 2
    g = 9.81

    def __init__(self, source=None):
        self.source = source  # callable (x, t) -> momentum source, or None

    def _velocity(self, u):
        """(h, q / h); raises BlowUp if the smallest depth is <= 0.

        ``h.min()`` is cheaper than ``np.any(h <= 0)`` on every residual's
        quadrature points; a NaN depth is left to the steppers' finite check.
        """
        h = u[..., 0]
        if h.min() <= 0.0:
            raise BlowUp(f"non-positive depth: min h = {np.nanmin(h):.6g}")
        return h, u[..., 1] / h

    def flux_x(self, u, ux):
        h, vel = self._velocity(u)
        hx, qx = ux[..., 0], ux[..., 1]
        out = np.empty_like(u)
        out[..., 0] = qx
        out[..., 1] = (self.g * h - vel**2) * hx + 2.0 * vel * qx
        return out

    def speed(self, u):
        """|u| + sqrt(g h); raises BlowUp if any depth h <= 0."""
        h, vel = self._velocity(u)
        return np.abs(vel) + np.sqrt(self.g * h)

    jacobian = speed
