"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are fixed here, not tuned at runtime.  Reference values quoted
from the published stability/convergence tables are marked in comments as
(table).  Criterion 3 follows a two-stage contract: a time-step
convention calibration against the unstabilized cubature p=2 anchors is
attempted first under both candidate conventions, per cell (the one the
toolkit uses) and per dof (a per-dof CFL c is the per-cell CFL c/p).
Those anchors are not attainable by either convention: the tabled values imply a reduced-symbol
spectral radius near 3.43, while the exact p = 2 collocated symbol has
radius exactly 3 (provable from its characteristic polynomial), so the
suite falls back to the property form: every tabled point stable, the
1.15x point unstable for max-CFL (boundary-type, non-stripe) rows, plus a
stronger quantitative check that the computed stability boundary lands
within two geometric grid steps of at least eight tabled pairs.
"""

import time

import numpy as np

from cgstab import build_reference_element
from cgstab.fourier import semidiscrete_modes
from cgstab.problems import burgers_problem, linear_advection_problem, shallow_water_problem
from cgstab.scan import Combination, ScanGrid, scan_combination
from cgstab.solver import convergence_study, run_simulation
from cgstab.stabilization import StabilizationSpec
from cgstab.timeint import DEC_CONFIGS, dec_equivalent_butcher, dec_step, rk_step

from conftest import (
    ALL_DEGREES,
    ALL_FAMILIES,
    ALL_SCHEMES,
    ALL_STABS,
    one_step_reduced,
    predicted_step,
)

GRID_RATIO = 1.03
NOSTAB = StabilizationSpec("none", 0.0)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail}")
    assert ok, detail


# -------------------------------------------------------------- criterion 1

def test_criterion_1_closed_form_dispersion():
    started = time.perf_counter()
    thetas = np.pi * np.arange(1, 51) / 50
    worst = 0.0
    for theta in thetas:
        ma = semidiscrete_modes("basic", 1, NOSTAB, theta)
        exact = np.sin(theta) / theta * 3.0 / (2.0 + np.cos(theta))
        worst = max(worst, abs(ma.omega_over_k[ma.principal] - exact))
        worst = max(worst, abs(ma.epsilon[ma.principal]))
        ma2 = semidiscrete_modes("basic", 2, NOSTAB, theta)
        root = np.sqrt(40 * np.sin(theta / 2) ** 2 - np.sin(theta) ** 2)
        exact2 = np.sort([
            (4 * np.sin(theta) + s * 2 * root) / (theta * (np.cos(theta) - 3))
            for s in (1, -1)
        ])
        worst = max(worst, np.max(np.abs(np.sort(ma2.omega_over_k) - exact2)))
    elapsed = time.perf_counter() - started
    report(1, worst < 1e-10 and elapsed < 1.0,
           f"max deviation {worst:.2e} over 50 samples, {elapsed:.2f}s")


# -------------------------------------------------------------- criterion 2

def test_criterion_2_amplification_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20240815)
    worst = 0.0
    combos = 0
    for family in ALL_FAMILIES:
        for degree in ALL_DEGREES:
            for kind, base_delta in ALL_STABS:
                for scheme in ALL_SCHEMES:
                    combos += 1
                    for _ in range(20):
                        delta = 0.0 if kind == "none" else base_delta * rng.uniform(0.3, 1.8)
                        cfl = rng.uniform(0.05, 0.7)
                        m = int(rng.integers(1, 8))
                        u_red = rng.normal(size=degree) + 1j * rng.normal(size=degree)
                        got, theta = one_step_reduced(family, degree, kind, delta,
                                                      scheme, m, u_red, cfl)
                        want = predicted_step(family, degree, kind, delta, scheme,
                                              theta, u_red, cfl)
                        rel = np.linalg.norm(got - want) / max(np.linalg.norm(got), 1e-30)
                        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    report(2, worst < 1e-9 and elapsed < 60.0,
           f"{combos} combinations x 20 triples, worst rel error {worst:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 3

def _point_stable(family, p, kind, scheme, cfl, delta):
    comb = Combination(family, p, kind, scheme)
    grid = ScanGrid(np.array([cfl]), np.array([max(delta, 1e-300)]), 100)
    return bool(scan_combination(comb, grid).stable[0, 0])


def _boundary_cfl(family, p, kind, scheme, delta, per_dof=False):
    """The stability boundary by bisection; per dof, a CFL c is the per-cell c / p."""
    lo, hi = 1e-3, 8.0
    f = lambda c: _point_stable(family, p, kind, scheme, c / p if per_dof else c, delta)
    if not f(lo):
        return 0.0
    if f(hi):
        return np.inf
    for _ in range(40):
        mid = np.sqrt(lo * hi)
        if f(mid):
            lo = mid
        else:
            hi = mid
    return np.sqrt(lo * hi)


# tabled max-CFL optima (boundary points): (family, scheme, stab, p, cfl, delta)
BEST_TABLE_POINTS = [
    ("cubature", "ssprk", "cip", 1, 1.512, 0.242),   # named in the criterion
    ("cubature", "ssprk", "lps", 1, 1.557, 1.0),
    ("cubature", "ssprk", "supg", 1, 1.512, 0.642),
    ("basic", "ssprk", "supg", 1, 0.889, 0.464),
    ("basic", "ssprk", "lps", 1, 1.093, 0.767),
    ("cubature", "rk", "supg", 1, 0.971, 0.767),
    ("basic", "rk", "supg", 2, 0.492, 0.07),
    ("basic", "rk", "supg", 3, 0.389, 0.027),
    ("cubature", "rk", "supg", 3, 0.464, 0.064),
    ("basic", "ssprk", "lps", 2, 0.605, 0.109),
    ("basic", "ssprk", "lps", 3, 0.425, 0.038),
    ("cubature", "ssprk", "lps", 3, 0.605, 0.049),
    ("cubature", "ssprk", "cip", 3, 0.538, 3.93e-3),
    ("cubature", "rk", "cip", 3, 0.538, 1.84e-3),
    ("basic", "ssprk", "cip", 2, 0.624, 7.02e-3),
]
# eta_u-constrained optima (interior points): stability check only
RES_TABLE_POINTS = [
    ("cubature", "ssprk", "cip", 2, 0.723, 3.46e-3),  # named in the criterion
    ("cubature", "ssprk", "lps", 2, 0.767, 0.041),
    ("cubature", "ssprk", "lps", 1, 1.23, 0.412),
    ("cubature", "ssprk", "cip", 1, 1.304, 0.094),
]


def test_criterion_3_cfl_calibration_and_table_points():
    started = time.perf_counter()
    lines = []

    # stage A: convention calibration against the unstabilized cubature
    # p = 2 anchors: SSPRK -> 0.624, RK -> 0.492 (table)
    anchors = {"ssprk": 0.624, "rk": 0.492}
    calibrated = None
    for convention in ("cell", "dof"):
        steps = []
        for scheme, ref in anchors.items():
            bd = _boundary_cfl("cubature", 2, "none", scheme, 0.0, per_dof=convention == "dof")
            steps.append(abs(np.log(bd / ref) / np.log(GRID_RATIO)))
            lines.append(f"  anchor {scheme} ({convention}): boundary {bd:.4f} vs {ref} "
                         f"({steps[-1]:.1f} grid steps)")
        if max(steps) <= 1.0:
            calibrated = convention
    lines.append(f"  calibration outcome: {calibrated or 'failed for both conventions'}")

    # stage B (fallback property form): stable at every tabled point,
    # unstable at 1.15x CFL for the boundary-type non-stripe rows
    stable_ok = []
    unstable_ok = []
    boundary_steps = []
    for fam, scheme, kind, p, cfl, delta in BEST_TABLE_POINTS:
        s = _point_stable(fam, p, kind, scheme, cfl, delta)
        u = not _point_stable(fam, p, kind, scheme, 1.15 * cfl, delta)
        bd = _boundary_cfl(fam, p, kind, scheme, delta)
        n_steps = abs(np.log(bd / cfl) / np.log(GRID_RATIO))
        stable_ok.append(s)
        unstable_ok.append(u)
        boundary_steps.append(n_steps)
        lines.append(f"  best {fam:9s} {scheme:5s} {kind:4s} p={p} ({cfl}, {delta}): "
                     f"stable={s} 1.15x-unstable={u} boundary={bd:.3f} ({n_steps:.1f} steps)")
    for fam, scheme, kind, p, cfl, delta in RES_TABLE_POINTS:
        s = _point_stable(fam, p, kind, scheme, cfl, delta)
        stable_ok.append(s)
        lines.append(f"  res  {fam:9s} {scheme:5s} {kind:4s} p={p} ({cfl}, {delta}): stable={s}")

    within_two_steps = sum(1 for d in boundary_steps if d <= 2.0)
    elapsed = time.perf_counter() - started
    print("\n".join(lines))
    ok = (all(stable_ok) and all(unstable_ok) and within_two_steps >= 8
          and elapsed < 600.0)
    report(3, ok,
           f"{len(stable_ok)} tabled points stable, "
           f"{sum(unstable_ok)}/{len(unstable_ok)} boundary points unstable at 1.15x, "
           f"{within_two_steps} boundaries within 2 grid steps, {elapsed:.0f}s")


# -------------------------------------------------------------- criterion 4

def test_criterion_4_dec_equals_rk_for_diagonal_mass():
    started = time.perf_counter()
    from cgstab.fluxes import LinearAdvection
    from cgstab.stabilization import DiscreteSystem, Mesh1D

    worst = 0.0
    rng = np.random.default_rng(4)
    for degree in ALL_DEGREES:
        for kind, delta in (("none", 0.0), ("cip", 0.11), ("lps", 0.23)):
            mesh = Mesh1D(0.0, 2.0, 9, "periodic")
            ref = build_reference_element("cubature", degree)
            system = DiscreteSystem(mesh, ref, StabilizationSpec(kind, delta),
                                     LinearAdvection(1.0))
            cfg = DEC_CONFIGS[degree + 1]
            tableau = dec_equivalent_butcher(cfg)
            for _ in range(50):
                U = rng.normal(size=system.n_nodes)
                dt = rng.uniform(0.005, 0.05)
                a = dec_step(system, U.copy(), 0.0, dt, cfg)
                b = rk_step(system, U.copy(), 0.0, dt, tableau)
                worst = max(worst, np.linalg.norm(a - b) / np.linalg.norm(b))
    elapsed = time.perf_counter() - started
    report(4, worst <= 1e-13 and elapsed < 10.0,
           f"worst relative difference {worst:.2e} over 450 states, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 5

ADV_TABLE = {  # cubature SSPRK rows of the advection order table
    "lps": {1: (1.23, 0.412, 2.03), 2: (0.767, 0.041, 2.95), 3: (0.298, 4.12e-3, 3.98)},
    "cip": {1: (1.304, 0.094, 2.05), 2: (0.723, 3.46e-3, 2.94), 3: (0.298, 1.45e-4, 3.98)},
}


def test_criterion_5_advection_convergence_orders():
    started = time.perf_counter()
    problem = linear_advection_problem()
    lines = []
    ok = True
    for kind, rows in ADV_TABLE.items():
        for p, (cfl, delta, ref) in rows.items():
            rep = convergence_study(problem, "cubature", p,
                                    StabilizationSpec(kind, delta), "ssprk", cfl)
            good = abs(rep.order - ref) <= 0.25
            ok &= good
            lines.append(f"  {kind} p={p}: order {rep.order:.3f} vs {ref} (+-0.25)")
    elapsed = time.perf_counter() - started
    print("\n".join(lines))
    report(5, ok and elapsed < 600.0, f"all rows within 0.25, {elapsed:.0f}s")


# -------------------------------------------------------------- criterion 6

def test_criterion_6_burgers_convergence_orders():
    started = time.perf_counter()
    problem = burgers_problem()
    table = {1: (1.23, 0.412, 2.05), 2: (0.767, 0.041, 2.85), 3: (0.298, 4.12e-3, 3.67)}
    seq = (0.025, 0.0125, 0.00625, 0.003125)
    lines = []
    ok = True
    for p, (cfl, delta, ref) in table.items():
        rep = convergence_study(problem, "cubature", p, StabilizationSpec("lps", delta),
                                "ssprk", cfl, dx1_values=seq)
        good = abs(rep.order - ref) <= 0.3
        ok &= good
        lines.append(f"  lps p={p}: order {rep.order:.3f} vs {ref} (+-0.3)")
    elapsed = time.perf_counter() - started
    print("\n".join(lines))
    report(6, ok and elapsed < 600.0, f"all rows within 0.3, {elapsed:.0f}s")


# -------------------------------------------------------------- criterion 7

def test_criterion_7_shallow_water():
    started = time.perf_counter()

    # manufactured source balance, verified by centered differences
    d = 1e-5
    x = np.linspace(46.0, 54.0, 41)
    t = 0.33
    problem = shallow_water_problem()

    def state(xx, tt):
        vals = problem.exact(xx, tt)
        return vals[..., 0], vals[..., 1]

    h, q = state(x, t)
    dhdt = (state(x, t + d)[0] - state(x, t - d)[0]) / (2 * d)
    dqdx = (state(x + d, t)[1] - state(x - d, t)[1]) / (2 * d)
    cont = np.max(np.abs(dhdt + dqdx))

    dqdt = (state(x, t + d)[1] - state(x, t - d)[1]) / (2 * d)

    def mom_flux(xx):
        hh, qq = state(xx, t)
        return qq**2 / hh + 0.5 * 9.81 * hh**2

    dfdx = (mom_flux(x + d) - mom_flux(x - d)) / (2 * d)
    phi = problem.flux.source(x, t)
    mom = np.max(np.abs(dqdt + dfdx + phi))
    source_ok = cont < 1e-6 and mom < 1e-6

    table = {1: (1.304, 0.094, 2.0), 2: (0.723, 3.46e-3, 2.5), 3: (0.298, 1.45e-4, 4.0)}
    lines = [f"  source residuals: continuity {cont:.1e}, momentum {mom:.1e}"]
    ok = source_ok
    for p, (cfl, delta, bound) in table.items():
        rep = convergence_study(problem, "cubature", p, StabilizationSpec("cip", delta),
                                "ssprk", cfl, dx1_values=(1.0, 0.5, 0.25, 0.125))
        good = rep.order >= bound
        ok &= good
        lines.append(f"  cip p={p}: order {rep.order:.3f} >= {bound} (tabled superconvergent)")
    elapsed = time.perf_counter() - started
    print("\n".join(lines))
    report(7, ok and elapsed < 900.0, f"orders above lower bounds, {elapsed:.0f}s")


# -------------------------------------------------------------- criterion 8

def test_criterion_8_property_suites():
    started = time.perf_counter()
    rng = np.random.default_rng(8)
    from cgstab.elements import local_matrices
    from cgstab.fluxes import LinearAdvection
    from cgstab.fourier import eigvals_batched, _char_residual
    from cgstab.stabilization import DiscreteSystem, Mesh1D

    # partition of unity + mass structure across the element matrix
    for family in ALL_FAMILIES:
        for degree in ALL_DEGREES:
            ref = build_reference_element(family, degree)
            x = rng.uniform(0, 1, 64)
            assert np.max(np.abs(ref.eval_basis(x).sum(axis=-1) - 1)) < 1e-12
            lm = local_matrices(ref)
            np.linalg.cholesky(lm.mass)
            if family == "cubature":
                off = lm.mass - np.diag(np.diag(lm.mass))
                assert np.max(np.abs(off)) <= 1e-14

    # conservation and energy-rate sign across the full combination matrix
    for family in ALL_FAMILIES:
        for degree in ALL_DEGREES:
            for kind, delta in ALL_STABS:
                mesh = Mesh1D(0.0, 2.0, 8, "periodic")
                system = DiscreteSystem(mesh, build_reference_element(family, degree),
                                         StabilizationSpec(kind, delta), LinearAdvection(1.0))
                U = rng.normal(size=system.n_nodes)
                r = system.residual(U)
                assert abs(r.sum()) < 1e-12 * max(np.linalg.norm(r), 1.0)
                if kind in ("cip", "lps"):
                    assert U @ r <= 1e-12 * (U @ U)

    # fully discrete L2 decay at tabled optima (stable, non-marginal rows)
    decay_cases = [
        ("cubature", 2, "cip", 0.838, 0.014), ("cubature", 2, "lps", 0.863, 0.17),
        ("cubature", 3, "cip", 0.538, 3.93e-3), ("cubature", 3, "lps", 0.605, 0.049),
        ("basic", 2, "lps", 0.605, 0.109), ("basic", 2, "cip", 0.624, 7.02e-3),
    ]
    problem = linear_advection_problem(t_final=0.4)
    for family, p, kind, cfl, delta in decay_cases:
        norms = []

        def monitor(t, U, sys_):
            norms.append(float(U @ (sys_.M_galerkin @ U)))

        run_simulation(problem, family, p, StabilizationSpec(kind, delta),
                       "ssprk", cfl, 24, monitor=monitor)
        norms = np.array(norms)
        assert np.all(np.diff(norms) <= 1e-12 * norms[:-1]), (family, p, kind)

    # eigenvalue residuals
    for n in (2, 3):
        A = rng.normal(size=(50, n, n)) + 1j * rng.normal(size=(50, n, n))
        for Ai in A:
            lam = eigvals_batched(Ai)
            res = _char_residual(Ai[None], lam[None])[0]
            assert np.max(res) <= 1e-9 * np.linalg.norm(Ai) ** n

    elapsed = time.perf_counter() - started
    report(8, elapsed < 120.0, f"property matrix green, {elapsed:.0f}s")
