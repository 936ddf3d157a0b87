"""Explicit time integrators: Runge-Kutta in Shu-Osher form, deferred correction.

Every explicit RK method (classical, SSPRK, and DeC on a diagonal mass)
is stored and stepped in Shu-Osher form

    U^(s) = sum_j gamma_j^s U^(j) + dt mu_j^s M^{-1} r(U^(j));

a classical tableau with stage rows alpha^s and final weights beta is the
one with mu rows alpha^1, ..., alpha^{S-1}, beta and gamma rows
(1, 0, ..., 0) (Shu & Osher 1988).  Deferred correction iterates the
explicit update

    U^{n,m,(k+1)} = U^{n,m,(k)} - D^{-1} M (U^{n,m,(k)} - U^n)
                    + dt sum_j rho_j^m D^{-1} r(U^{n,j,(k)}),

where D is the row-sum lumping of M; only the diagonal D is ever
inverted, which is what makes the scheme attractive for non-diagonal
mass matrices.  With K = M+1 iterations the scheme is K-th order, and
for a diagonal mass it collapses to an ordinary RK method whose tableau
is built from the quadrature weights (``dec_equivalent_butcher``).
"""

from dataclasses import dataclass

import numpy as np


class BlowUp(RuntimeError):
    """The run produced NaN/Inf, left the trust region ||U|| <= 1e10 or
    stopped advancing in time."""


@dataclass(frozen=True)
class ShuOsherTableau:
    gamma: tuple          # combination coefficients, rows sum to 1
    mu: tuple             # stage step coefficients, all >= 0 for SSPRK
    name: str = ""

    @property
    def n_stages(self):
        return len(self.gamma)


@dataclass(frozen=True)
class DeCConfig:
    n_sub: int            # M equispaced subtimesteps
    rho: tuple            # M x (M+1) quadrature weights, row m sums to beta^m

    @property
    def n_iter(self):
        """K = M + 1 correction iterations."""
        return self.n_sub + 1

    @property
    def beta(self):
        """Subtimestep fractions beta^m = m / M."""
        return tuple(m / self.n_sub for m in range(1, self.n_sub + 1))


def _butcher(alpha, beta, name):
    """Shu-Osher form of the explicit Butcher tableau (alpha rows, beta)."""
    mu = tuple(alpha) + (tuple(beta),)
    gamma = tuple((1.0,) + (0.0,) * (len(row) - 1) for row in mu)
    return ShuOsherTableau(gamma, mu, name)


RK_TABLEAUX = {
    2: _butcher(((1.0,),), (0.5, 0.5), "RK2"),
    3: _butcher(((0.5,), (-1.0, 2.0)), (1 / 6, 2 / 3, 1 / 6), "RK3"),
    4: _butcher(((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)), (1 / 6, 1 / 3, 1 / 3, 1 / 6), "RK4"),
}

SSPRK_TABLEAUX = {
    2: ShuOsherTableau(
        gamma=((1.0,), (0.0, 1.0), (1 / 3, 0.0, 2 / 3)),
        mu=((0.5,), (0.0, 0.5), (0.0, 0.0, 1 / 3)),
        name="SSPRK(3,2)",
    ),
    3: ShuOsherTableau(
        gamma=((1.0,), (0.0, 1.0), (2 / 3, 0.0, 1 / 3), (0.0, 0.0, 0.0, 1.0)),
        mu=((0.5,), (0.0, 0.5), (0.0, 0.0, 1 / 6), (0.0, 0.0, 0.0, 0.5)),
        name="SSPRK(4,3)",
    ),
    4: ShuOsherTableau(
        gamma=(
            (1.0,),
            (0.444370493651235, 0.555629506348765),
            (0.620101851488403, 0.0, 0.379898148511597),
            (0.178079954393132, 0.0, 0.0, 0.821920045606868),
            (0.0, 0.0, 0.517231671970585, 0.096059710526147, 0.386708617503269),
        ),
        mu=(
            (0.391752226571890,),
            (0.0, 0.368410593050371),
            (0.0, 0.0, 0.251891774271694),
            (0.0, 0.0, 0.0, 0.544974750228521),
            (0.0, 0.0, 0.0, 0.063692468666290, 0.226007483236906),
        ),
        name="SSPRK(5,4)",
    ),
}

# Equispaced-subtimestep quadrature weights.  The order-3 m=2 row is the
# Simpson rule (1/6, 2/3, 1/6); every row must sum to beta^m.
DEC_CONFIGS = {
    2: DeCConfig(1, ((0.5, 0.5),)),
    3: DeCConfig(2, ((5 / 24, 1 / 3, -1 / 24), (1 / 6, 2 / 3, 1 / 6))),
    4: DeCConfig(
        3,
        (
            (1 / 8, 19 / 72, -5 / 72, 1 / 72),
            (1 / 9, 4 / 9, 1 / 9, 0.0),
            (1 / 8, 3 / 8, 3 / 8, 1 / 8),
        ),
    ),
}


def _check_finite(U):
    if not np.all(np.isfinite(U)):
        raise BlowUp("time step produced NaN/Inf")
    return U


def rk_step(system, U, t, dt, tableau):
    """One explicit Runge-Kutta step in Shu-Osher form; mass solves use the
    full operator.  The last row's boundary values are imposed at t + dt."""
    system.refresh_mass(U)
    values = [U]
    cs = [0.0]
    ks = [system.solve_mass(system.residual(U, t))]
    n = tableau.n_stages
    for s, (grow, mrow) in enumerate(zip(tableau.gamma, tableau.mu), start=1):
        V = sum(g * values[j] for j, g in enumerate(grow) if g != 0.0)
        V = V + dt * sum(m * ks[j] for j, m in enumerate(mrow) if m != 0.0)
        if s == n:
            break
        c = sum(g * cs[j] + mrow[j] for j, g in enumerate(grow))
        system.apply_bc(V, t + c * dt)
        values.append(V)
        cs.append(c)
        ks.append(system.solve_mass(system.residual(V, t + c * dt)))
    system.apply_bc(V, t + dt)
    return _check_finite(V)


def dec_step(system, U, t, dt, config):
    """One deferred-correction step; only the lumped diagonal is inverted."""
    system.refresh_mass(U)
    Dinv = 1.0 / system.lumped[:, None]
    M = system.mass_matrix
    shape2 = (system.n_nodes, system.n_comp)

    nsub = config.n_sub
    sub = [U.copy() for _ in range(nsub + 1)]
    r0 = system.residual(U, t)
    for _ in range(config.n_iter):
        rs = [r0] + [
            system.residual(sub[m], t + config.beta[m - 1] * dt)
            for m in range(1, nsub + 1)
        ]
        new = [U]
        for m in range(1, nsub + 1):
            quad = sum(
                rho * rs[z] for z, rho in enumerate(config.rho[m - 1]) if rho != 0.0
            )
            diff = M @ (sub[m] - U).reshape(shape2)
            upd = sub[m] + (
                (dt * quad.reshape(shape2) - diff) * Dinv
            ).reshape(U.shape)
            system.apply_bc(upd, t + config.beta[m - 1] * dt)
            new.append(upd)
        sub = new
    return _check_finite(sub[nsub])


def expand_ssprk_coefficients(tableau):
    """Stability-polynomial coefficients nu_1..nu_S for a linear operator.

    For a linear autonomous right-hand side the full step collapses to
    U^{n+1} = (I + sum_j nu_j (dt A)^j) U^n.  Consistency forces nu_1 = 1.
    """
    n = tableau.n_stages
    coeffs = [np.zeros(n + 1)]
    coeffs[0][0] = 1.0
    for grow, mrow in zip(tableau.gamma, tableau.mu):
        c = np.zeros(n + 1)
        for j, g in enumerate(grow):
            c += g * coeffs[j]
            c[1:] += mrow[j] * coeffs[j][:-1]
        coeffs.append(c)
    final = coeffs[-1]
    if abs(final[0] - 1.0) > 1e-12:
        raise ValueError("inconsistent tableau: nu_0 != 1")
    return final[1 : n + 1]


def dec_equivalent_butcher(config):
    """Tableau of the RK scheme DeC reduces to when M = D.

    Stages are the subtimestep values of each correction sweep; sweep k
    reads only sweep k-1, so the tableau is explicit.
    """
    M, K = config.n_sub, config.n_iter
    index = lambda k, m: 1 + (k - 1) * M + (m - 1)
    n_stages = 1 + (K - 1) * M
    alpha = []
    for k in range(1, K):
        for m in range(1, M + 1):
            row = np.zeros(index(k, m))
            row[0] += config.rho[m - 1][0]
            for z in range(1, M + 1):
                j = 0 if k == 1 else index(k - 1, z)
                row[j] += config.rho[m - 1][z]
            alpha.append(tuple(row))
    beta = np.zeros(n_stages)
    beta[0] += config.rho[M - 1][0]
    for z in range(1, M + 1):
        j = 0 if K == 1 else index(K - 1, z)
        beta[j] += config.rho[M - 1][z]
    return _butcher(alpha, beta, f"DeC{K}-as-RK")


@dataclass(frozen=True)
class TimeScheme:
    """A time marching method bound to its coefficients."""

    kind: str             # "rk" | "ssprk" | "dec"
    tableau: object

    def step(self, system, U, t, dt):
        if self.kind == "dec":
            return dec_step(system, U, t, dt, self.tableau)
        return rk_step(system, U, t, dt, self.tableau)


SCHEME_KINDS = ("rk", "ssprk", "dec")


def make_scheme(kind, order):
    """Scheme factory; order q pairs with degree p = q - 1 elements."""
    tables = dict(zip(SCHEME_KINDS, (RK_TABLEAUX, SSPRK_TABLEAUX, DEC_CONFIGS)))
    if kind not in tables:
        raise ValueError(f"unknown time scheme kind {kind!r}")
    if order not in tables[kind]:
        raise ValueError(f"{kind} has no order-{order} coefficients")
    return TimeScheme(kind, tables[kind][order])
