import math
from types import SimpleNamespace

import numpy as np
import pytest

from cgstab import build_reference_element
from cgstab.fluxes import LinearAdvection
from cgstab.problems import burgers_problem, shallow_water_problem
from cgstab.solver import build_problem_system
from cgstab.stabilization import DiscreteSystem, Mesh1D, StabilizationSpec
from cgstab.timeint import (
    BlowUp,
    DEC_CONFIGS,
    RK_TABLEAUX,
    SSPRK_TABLEAUX,
    ShuOsherTableau,
    dec_equivalent_butcher,
    dec_step,
    expand_ssprk_coefficients,
    make_scheme,
    rk_step,
)

from conftest import ALL_DEGREES


class ScalarODE:
    """Minimal system wrapper so the steppers can drive u' = f(u, t)."""

    n_comp = 1
    autonomous = False   # f may read t

    def __init__(self, f, n=1):
        self.f = f
        self.n_nodes = n
        self.lumped = np.ones(n)
        self.mass_matrix = np.eye(n)
        self.n_mass_solves = 0

    def residual(self, U, t=0.0):
        return np.asarray(self.f(U, t))

    def solve_mass(self, b):
        self.n_mass_solves += 1
        return b

    def refresh_mass(self, U=None):
        pass

    def apply_bc(self, U, t):
        return U


def test_tableau_values():
    assert RK_TABLEAUX[2].mu == ((1.0,), (0.5, 0.5))
    assert RK_TABLEAUX[2].gamma == ((1.0,), (1.0, 0.0))
    assert SSPRK_TABLEAUX[2].gamma[-1] == (1 / 3, 0.0, 2 / 3)
    assert SSPRK_TABLEAUX[2].mu[-1][-1] == pytest.approx(1 / 3)
    assert SSPRK_TABLEAUX[4].mu[0][0] == pytest.approx(0.391752226571890, abs=1e-15)
    for tab in RK_TABLEAUX.values():
        assert sum(tab.mu[-1]) == pytest.approx(1.0, abs=1e-14)
    for tab in SSPRK_TABLEAUX.values():
        for grow in tab.gamma:
            assert sum(grow) == pytest.approx(1.0, abs=1e-14)
        assert all(g >= 0 for row in tab.gamma for g in row)
        assert all(m >= 0 for row in tab.mu for m in row)


def test_dec_coefficient_tables():
    assert DEC_CONFIGS[2].beta == (1.0,)
    assert DEC_CONFIGS[2].rho == ((0.5, 0.5),)
    assert DEC_CONFIGS[4].rho[1] == (1 / 9, 4 / 9, 1 / 9, 0.0)
    for order, cfg in DEC_CONFIGS.items():
        assert cfg.n_iter == cfg.n_sub + 1 == order
        for m, row in enumerate(cfg.rho, start=1):
            assert sum(row) == pytest.approx(cfg.beta[m - 1], abs=1e-14)
            assert cfg.beta[m - 1] == pytest.approx(m / cfg.n_sub, abs=1e-14)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_dec_rho_matches_lagrange_quadrature(order):
    """rho^m_z = integral over [0, beta^m] of the z-th time Lagrange basis."""
    cfg = DEC_CONFIGS[order]
    nodes = np.arange(cfg.n_sub + 1) / cfg.n_sub
    xq, wq = np.polynomial.legendre.leggauss(8)
    for m in range(1, cfg.n_sub + 1):
        a, b = 0.0, nodes[m]
        t = 0.5 * (b - a) * (xq + 1) + a
        w = 0.5 * (b - a) * wq
        for z in range(cfg.n_sub + 1):
            psi = np.ones_like(t)
            for j in range(cfg.n_sub + 1):
                if j != z:
                    psi *= (t - nodes[j]) / (nodes[z] - nodes[j])
            assert np.dot(w, psi) == pytest.approx(cfg.rho[m - 1][z], abs=1e-13)


def test_expand_rk4():
    nu = expand_ssprk_coefficients(RK_TABLEAUX[4])
    assert np.allclose(nu, [1.0, 0.5, 1 / 6, 1 / 24], atol=1e-14)


def test_expand_ssprk32():
    # algebraic expansion of the 3-stage second-order tableau gives
    # nu_3 = 1/12 (the scheme is second order, nothing forces 1/6)
    nu = expand_ssprk_coefficients(SSPRK_TABLEAUX[2])
    assert np.allclose(nu, [1.0, 0.5, 1 / 12], atol=1e-14)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_expand_consistency(order):
    for table in (RK_TABLEAUX[order], SSPRK_TABLEAUX[order]):
        nu = expand_ssprk_coefficients(table)
        assert nu[0] == pytest.approx(1.0, abs=1e-14)
        # design order forces the first q Taylor weights
        for j in range(min(order, len(nu))):
            assert nu[j] == pytest.approx(1.0 / math.factorial(j + 1), abs=1e-13)


def test_rk4_scalar_exponential():
    lam = -0.7 + 0.2j
    ode = ScalarODE(lambda U, t: lam * U)
    dt = 0.3
    out = rk_step(ode, np.array([1.0 + 0j]), 0.0, dt, RK_TABLEAUX[4])
    z = lam * dt
    taylor = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    assert abs(out[0] - taylor) < 1e-14


def test_zero_residual_identity():
    ode = ScalarODE(lambda U, t: 0.0 * U, n=3)
    U = np.array([1.0, -2.0, 0.5])
    for scheme in ("rk", "ssprk", "dec"):
        out = make_scheme(scheme, 3).step(ode, U.copy(), 0.0, 0.4)
        assert np.allclose(out, U, atol=1e-15)


def test_ssprk_equals_expanded_polynomial():
    """Every explicit tableau: classical RK, SSPRK and DeC on a diagonal mass."""
    rng = np.random.default_rng(0)
    A = rng.normal(size=(5, 5)) * 0.4
    ode = ScalarODE(lambda U, t: A @ U, n=5)
    U = rng.normal(size=5)
    dt = 0.37
    dec_tableaux = [dec_equivalent_butcher(cfg) for cfg in DEC_CONFIGS.values()]
    for tableau in [*RK_TABLEAUX.values(), *SSPRK_TABLEAUX.values(), *dec_tableaux]:
        out = rk_step(ode, U.copy(), 0.0, dt, tableau)
        nu = expand_ssprk_coefficients(tableau)
        expected = U.copy()
        P = U.copy()
        for nj in nu:
            P = dt * (A @ P)
            expected = expected + nj * P
        assert np.max(np.abs(out - expected)) < 1e-12, tableau.name


# -- the Butcher-form stepper and expansion the Shu-Osher ones replaced -------

BUTCHER_RK = {  # (alpha rows, beta) of the classical tableaux
    2: (((1.0,),), (0.5, 0.5)),
    3: (((0.5,), (-1.0, 2.0)), (1 / 6, 2 / 3, 1 / 6)),
    4: (((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)), (1 / 6, 1 / 3, 1 / 3, 1 / 6)),
}


def _butcher_form(tableau):
    """(alpha, beta) of a Shu-Osher tableau whose gamma rows are (1, 0, ...)."""
    for row in tableau.gamma:
        assert row == (1.0,) + (0.0,) * (len(row) - 1)
    return tableau.mu[:-1], tableau.mu[-1]


def reference_butcher_step(system, U, t, dt, alpha, beta):
    """One explicit RK step written on the Butcher tableau."""
    system.refresh_mass(U)
    ks = [system.solve_mass(system.residual(U, t))]
    for row in alpha:
        c = sum(row)
        V = U + dt * sum(a * k for a, k in zip(row, ks) if a != 0.0)
        system.apply_bc(V, t + c * dt)
        ks.append(system.solve_mass(system.residual(V, t + c * dt)))
    U_next = U + dt * sum(b * k for b, k in zip(beta, ks) if b != 0.0)
    system.apply_bc(U_next, t + dt)
    return U_next


def reference_butcher_expansion(alpha, beta):
    """Stability-polynomial coefficients nu_1..nu_S from the Butcher tableau."""
    n = len(beta)
    e0 = np.zeros(n + 1)
    e0[0] = 1.0
    coeffs = [e0]
    for row in alpha:
        c = e0.copy()
        for j, a in enumerate(row):
            c[1:] += a * coeffs[j][:-1]
        coeffs.append(c)
    final = e0.copy()
    for b, cj in zip(beta, coeffs):
        final[1:] += b * cj[:-1]
    return final[1 : n + 1]


@pytest.mark.parametrize("order", [2, 3, 4])
def test_rk_tableaux_are_the_butcher_tableaux(order):
    assert _butcher_form(RK_TABLEAUX[order]) == BUTCHER_RK[order]


@pytest.mark.parametrize("tableau", list(RK_TABLEAUX.values())
                         + [dec_equivalent_butcher(cfg) for cfg in DEC_CONFIGS.values()],
                         ids=lambda tab: tab.name)
def test_shu_osher_step_matches_butcher_form(tableau):
    """Bit for bit on Burgers with Dirichlet data, so the stage times at
    which the boundary values are imposed are exercised too."""
    alpha, beta = _butcher_form(tableau)
    assert np.array_equal(expand_ssprk_coefficients(tableau),
                          reference_butcher_expansion(alpha, beta))
    problem = burgers_problem()
    system = build_problem_system(problem, "basic", 2, StabilizationSpec("supg", 0.1), 12)
    U = system.interpolate(problem.exact, 0.0)
    t, dt = 0.0, 0.01
    for _ in range(3):
        new = rk_step(system, U.copy(), t, dt, tableau)
        ref = reference_butcher_step(system, U.copy(), t, dt, alpha, beta)
        assert np.array_equal(new, ref)
        U, t = new, t + dt


@pytest.mark.parametrize("kind", ["rk", "ssprk", "dec"])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_ode_convergence_order(kind, order):
    """u' = -u over [0, 1]: measured order within 0.2 of the design order."""
    ode = ScalarODE(lambda U, t: -U)
    scheme = make_scheme(kind, order)
    errs = []
    dts = [0.1, 0.05, 0.025]
    for dt in dts:
        U = np.array([1.0])
        t = 0.0
        while t < 1.0 - 1e-12:
            U = scheme.step(ode, U, t, dt)
            t += dt
        errs.append(abs(U[0] - np.exp(-1.0)))
    fit = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(fit - order) < 0.2


def test_dec_iterate_gain_order():
    """Iterate K vs K-1 differ at O(dt^K) on a smooth linear problem."""
    cfg = DEC_CONFIGS[3]
    # DeCConfig derives K = M + 1, so the K - 1 sweep stepper is a stand-in
    short = SimpleNamespace(n_sub=cfg.n_sub, n_iter=cfg.n_iter - 1, beta=cfg.beta, rho=cfg.rho)
    ode = ScalarODE(lambda U, t: -U)
    diffs = []
    for dt in (0.1, 0.05):
        a = dec_step(ode, np.array([1.0]), 0.0, dt, cfg)
        b = dec_step(ode, np.array([1.0]), 0.0, dt, short)
        diffs.append(abs(a[0] - b[0]))
    ratio = diffs[0] / diffs[1]
    assert abs(np.log2(ratio) - cfg.n_iter) < 1.0


def _advection_system(family, p, kind, delta, n=8):
    mesh = Mesh1D(0.0, 2.0, n, "periodic")
    ref = build_reference_element(family, p)
    return DiscreteSystem(mesh, ref, StabilizationSpec(kind, delta), LinearAdvection(1.0))


@pytest.mark.parametrize("kind,delta", [("none", 0.0), ("cip", 0.11), ("lps", 0.2)])
@pytest.mark.parametrize("degree", ALL_DEGREES)
def test_dec_equals_rk_for_diagonal_mass(kind, delta, degree):
    """Cubature keeps M = D, collapsing DeC onto its equivalent RK tableau."""
    system = _advection_system("cubature", degree, kind, delta)
    cfg = DEC_CONFIGS[degree + 1]
    tableau = dec_equivalent_butcher(cfg)
    rng = np.random.default_rng(degree)
    for _ in range(10):
        U = rng.normal(size=system.n_nodes)
        dt = 0.04
        a = dec_step(system, U.copy(), 0.0, dt, cfg)
        b = rk_step(system, U.copy(), 0.0, dt, tableau)
        denom = np.linalg.norm(b)
        assert np.linalg.norm(a - b) <= 1e-13 * denom


def test_dec_never_solves_full_mass():
    system = _advection_system("basic", 2, "cip", 0.1)
    rng = np.random.default_rng(1)
    U = rng.normal(size=system.n_nodes)
    before = system.n_mass_solves
    dec_step(system, U, 0.0, 0.01, DEC_CONFIGS[3])
    assert system.n_mass_solves == before
    assert system.n_mass_factorizations == 0


# -- the deferred-correction loop before it skipped its dead work -------------

def reference_dec_step(system, U, t, dt, config):
    """Every sweep evaluates every subtimestep's residual, forms its
    M (sub - U) product and updates every subtimestep."""
    system.refresh_mass(U)
    Dinv = 1.0 / system.lumped[:, None]
    M = system.mass_matrix
    shape2 = (system.n_nodes, system.n_comp)
    nsub = config.n_sub
    sub = [U.copy() for _ in range(nsub + 1)]
    r0 = system.residual(U, t)
    for _ in range(config.n_iter):
        rs = [r0] + [system.residual(sub[m], t + config.beta[m - 1] * dt)
                     for m in range(1, nsub + 1)]
        new = [U]
        for m in range(1, nsub + 1):
            quad = sum(rho * rs[z] for z, rho in enumerate(config.rho[m - 1]) if rho != 0.0)
            diff = M @ (sub[m] - U).reshape(shape2)
            upd = sub[m] + ((dt * quad.reshape(shape2) - diff) * Dinv).reshape(U.shape)
            system.apply_bc(upd, t + config.beta[m - 1] * dt)
            new.append(upd)
        sub = new
    return sub[nsub]


def _dec_cases():
    """(id, system, U0, dt, configs): periodic advection with basic LPS and
    cubature CIP, Dirichlet Burgers with basic SUPG, the sourced shallow-water
    wave and the non-autonomous scalar ODE u' = cos(t) u."""
    burgers, sw = burgers_problem(), shallow_water_problem()
    cases = []
    for family, kind, delta in (("basic", "lps", 0.2), ("cubature", "cip", 0.11)):
        for p in ALL_DEGREES:
            system = _advection_system(family, p, kind, delta)
            U0 = system.interpolate(lambda x, t: np.sin(np.pi * x) + 0.3 * np.cos(3 * x))
            cases.append((f"advection-{family}-{kind}-p{p}", system, U0, 0.04,
                          (DEC_CONFIGS[p + 1],)))
    for problem, n_cells, dt in ((burgers, 12, 0.01), (sw, 40, 0.05)):
        for p in ALL_DEGREES:
            system = build_problem_system(problem, "basic", p, StabilizationSpec("supg", 0.1),
                                          n_cells)
            cases.append((f"{problem.name}-basic-supg-p{p}", system,
                          system.interpolate(problem.exact, 0.0), dt, (DEC_CONFIGS[p + 1],)))
    ode = ScalarODE(lambda U, t: np.cos(t) * U, n=2)
    cases.append(("ode-cos", ode, np.array([1.0, -0.4]), 0.3, tuple(DEC_CONFIGS.values())))
    return cases


DEC_CASES = _dec_cases()


@pytest.mark.parametrize("case", DEC_CASES, ids=[case[0] for case in DEC_CASES])
def test_dec_step_matches_the_every_subtimestep_loop_bitwise(case):
    """Reusing r(U) in sweep 1, dropping its exact-zero M (sub - U) and
    forming only subtimestep M in the last sweep change no bit."""
    _, system, U0, dt, configs = case
    for config in configs:
        U, t = U0.copy(), 0.1
        for _ in range(3):
            new = dec_step(system, U.copy(), t, dt, config)
            assert new.tobytes() == reference_dec_step(system, U.copy(), t, dt, config).tobytes()
            U, t = new, t + dt


@pytest.mark.parametrize("case", DEC_CASES, ids=[case[0] for case in DEC_CASES])
def test_dec_step_residual_count(case):
    """1 + (K - 1) M residuals a step for an autonomous system, whose sweep 1
    reuses r(U); 1 + K M when the residual reads t (the shallow-water source,
    the scalar ODE)."""
    name, system, U0, dt, configs = case
    assert system.autonomous == (not name.startswith(("sw", "ode")))
    residual, times = system.residual, []
    system.residual = lambda U, t=0.0: times.append(t) or residual(U, t)
    try:
        for config in configs:
            K, M = config.n_iter, config.n_sub
            del times[:]
            dec_step(system, U0.copy(), 0.1, dt, config)
            assert len(times) == (1 + (K - 1) * M if system.autonomous else 1 + K * M)
    finally:
        del system.residual


def test_non_finite_state_detected():
    ode = ScalarODE(lambda U, t: U * np.inf)
    with pytest.raises(BlowUp):
        rk_step(ode, np.array([1.0]), 0.0, 0.1, RK_TABLEAUX[2])


def test_make_scheme_validation():
    with pytest.raises(ValueError):
        make_scheme("leapfrog", 2)
    with pytest.raises(ValueError):
        make_scheme("rk", 7)
    with pytest.raises(ValueError, match="inconsistent tableau"):   # gamma's row sums to 0.5
        expand_ssprk_coefficients(ShuOsherTableau(((0.5,),), ((1.0,),)))
