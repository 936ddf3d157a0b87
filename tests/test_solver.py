import dataclasses

import numpy as np
import pytest

from cgstab.fluxes import LinearAdvection
from cgstab.problems import burgers_problem, linear_advection_problem
from cgstab.solver import (
    BlowUp,
    build_problem_system,
    cells_for_level,
    convergence_study,
    l2_error,
    run_simulation,
)
from cgstab.stabilization import StabilizationSpec

ADV = linear_advection_problem()


def test_cells_for_level_parity():
    # dx(p) = p * dx1 keeps the dof count matched across p (up to rounding
    # when the domain length is not a multiple of p * dx1)
    for p in (1, 2, 3):
        n = cells_for_level(ADV, p, 0.05)
        assert abs(n * p - 40) <= 2


@pytest.mark.parametrize("family", ["basic", "bernstein"])
@pytest.mark.parametrize("degree", (1, 2, 3))
def test_interpolation_error_order(family, degree):
    """Initial data only: the error reduces at order p+1 (projection limit)."""
    errs = []
    meshes = (8, 16, 32)
    for n in meshes:
        system = build_problem_system(ADV, family, degree, StabilizationSpec(), n)
        U = system.interpolate(ADV.exact, 0.0)
        errs.append(l2_error(system, U, ADV.exact, 0.0))
    order = np.polyfit(np.log([2.0 / n for n in meshes]), np.log(errs), 1)[0]
    assert order > degree + 0.7


def test_cubature_interpolant_collocates():
    """The paired quadrature sits on the nodes, so the t = 0 error vanishes."""
    system = build_problem_system(ADV, "cubature", 3, StabilizationSpec(), 16)
    U = system.interpolate(ADV.exact, 0.0)
    assert l2_error(system, U, ADV.exact, 0.0) < 1e-14


def test_advection_error_decreases_with_refinement():
    errs = []
    for n in (20, 40, 80):
        run = run_simulation(linear_advection_problem(t_final=2.0), "cubature", 2,
                             StabilizationSpec("lps", 0.041), "ssprk", 0.7, n)
        errs.append(run.l2_error)
    assert errs[0] > errs[1] > errs[2]


def test_lumped_integral_conserved():
    """sum_i D_ii u_i is constant in time for periodic advection."""
    from cgstab.timeint import make_scheme

    for kind, delta in (("cip", 7.02e-3), ("lps", 0.109), ("supg", 0.07)):
        system = build_problem_system(ADV, "basic", 2, StabilizationSpec(kind, delta), 24)
        U = system.interpolate(ADV.exact, 0.0)
        scheme = make_scheme("ssprk", 3)
        total0 = system.lumped @ U
        t = 0.0
        for _ in range(20):
            U = scheme.step(system, U, t, 0.01)
            t += 0.01
        scale = np.sum(np.abs(system.lumped * U)) + 1.0
        assert abs(system.lumped @ U - total0) < 1e-10 * scale


@pytest.mark.parametrize("kind,cfl,delta", [("cip", 0.838, 0.014), ("lps", 0.863, 0.17)])
def test_discrete_l2_norm_decays_at_optima(kind, cfl, delta):
    """Fully discrete M-norm of u_h never grows at the tabled optima."""
    problem = linear_advection_problem(t_final=0.5)
    system = build_problem_system(problem, "cubature", 2,
                                  StabilizationSpec(kind, delta), 24)
    norms = []

    def monitor(t, U, sys_):
        norms.append(float(U @ (sys_.M_galerkin @ U)))

    run_simulation(problem, "cubature", 2, StabilizationSpec(kind, delta),
                   "ssprk", cfl, 24, monitor=monitor)
    norms = np.array(norms)
    assert np.all(np.diff(norms) <= 1e-12 * norms[:-1])


def test_burgers_boundary_values_tracked():
    problem = burgers_problem(t_final=0.05)
    run = run_simulation(problem, "basic", 2, StabilizationSpec("cip", 3.46e-3),
                         "ssprk", 0.3, 30)
    U2 = run.U.reshape(run.system.n_nodes, 1)
    left, right = problem.bc(problem.t_final)
    assert U2[0, 0] == pytest.approx(left[0], abs=1e-12)
    assert U2[-1, 0] == pytest.approx(right[0], abs=1e-12)


def test_blowup_detection_and_level_skipping():
    problem = linear_advection_problem(t_final=5.0)
    with pytest.raises(BlowUp):
        # basic P1 without stabilization is unconditionally unstable
        run_simulation(problem, "basic", 1, StabilizationSpec(), "ssprk", 2.5, 64)
    with pytest.raises(BlowUp):
        convergence_study(problem, "basic", 1, StabilizationSpec(), "ssprk", 2.5)


def test_supg_nonlinear_mass_refresh():
    """SUPG + Burgers rebuilds the mass operator once per step."""
    problem = burgers_problem(t_final=0.02)
    run = run_simulation(problem, "basic", 2, StabilizationSpec("supg", 0.05),
                         "rk", 0.2, 24)
    assert run.l2_error < 0.05
    assert run.system.mass_is_state_dependent
    assert run.system.n_mass_factorizations >= run.n_steps


def test_supg_shallow_water_smoke():
    from cgstab.problems import shallow_water_problem

    problem = shallow_water_problem(t_final=0.05)
    run = run_simulation(problem, "cubature", 1, StabilizationSpec("supg", 0.1),
                         "rk", 0.3, 400)
    assert run.l2_error < 0.05


def test_convergence_needs_three_levels():
    with pytest.raises(ValueError):
        convergence_study(ADV, "cubature", 1, StabilizationSpec("cip", 0.1),
                          "ssprk", 0.5, dx1_values=(0.05, 0.025))


@pytest.mark.parametrize("dx1", [(0.1, 0.1, 0.1), (0.1, 0.05, 0.1), (0.1, 0.1005, 0.05)])
def test_convergence_levels_must_give_distinct_meshes(dx1):
    """A repeated dx1, or two that round to one cell count (20 cells for
    0.1 and 0.1005 on [0, 2]), would fit an order through repeated points."""
    with pytest.raises(ValueError, match="distinct meshes"):
        convergence_study(linear_advection_problem(t_final=0.2), "cubature", 1,
                          StabilizationSpec("cip", 0.094), "ssprk", 1.0, dx1_values=dx1)


def test_convergence_report_csv():
    problem = linear_advection_problem(t_final=0.2)
    rep = convergence_study(problem, "cubature", 1, StabilizationSpec("cip", 0.094),
                            "ssprk", 1.0, dx1_values=(0.1, 0.05, 0.025))
    text = rep.csv()
    assert text.startswith("dx,dofs,l2_error\n")
    assert len(text.strip().splitlines()) == 4
    assert 1.5 < rep.order < 2.6


def test_nan_step_lands_in_failed_levels():
    """A step that drives the depth negative (before it turns NaN) is a
    BlowUp, so convergence_study records the level."""
    from cgstab.problems import shallow_water_problem

    args = (shallow_water_problem(), "basic", 2, StabilizationSpec("supg", 0.05), "dec", 0.3)
    with pytest.raises(BlowUp, match="non-positive depth"):
        run_simulation(*args, cells_for_level(args[0], 2, 0.5))
    with pytest.raises(BlowUp, match="fewer than 3 levels survived"):
        convergence_study(*args, dx1_values=(1.0, 0.5, 0.25))


def test_stalled_time_is_a_blowup():
    """A shallow-water depth decaying to zero drives dt to 0; the run stops
    with BlowUp instead of looping at a fixed t."""
    from cgstab.problems import shallow_water_problem

    steps = []

    def monitor(t, U, system):
        steps.append(t)
        if len(steps) >= 100:
            raise AssertionError(f"still stepping at t = {t}")

    with pytest.raises(BlowUp, match="does not advance t"):
        run_simulation(shallow_water_problem(t_final=2.0), "bernstein", 2,
                       StabilizationSpec(), "rk", 0.2, 24, monitor=monitor)
    assert 0.0 < steps[-1] < 2.0


def test_zero_wave_speed_steps_to_t_final():
    problem = dataclasses.replace(linear_advection_problem(t_final=0.8), flux=LinearAdvection(0.0),
                                  exact=lambda x, t: 0.1 * np.sin(np.pi * np.asarray(x)))
    run = run_simulation(problem, "basic", 2, StabilizationSpec("cip", 0.1), "rk", 0.5, 10)
    U0 = run.system.interpolate(problem.exact, 0.0)
    assert run.n_steps == 1
    assert np.array_equal(run.U, U0)


@pytest.mark.parametrize("problem, cfl, cells", [
    (burgers_problem(), 1e-300, 4),          # about 10^299 steps
    (linear_advection_problem(), 1e-6, 40),  # 10^8 steps
])
def test_a_run_that_projects_too_many_steps_raises_before_stepping(problem, cfl, cells):
    steps = []

    def monitor(t, U, system):
        steps.append(t)
        if len(steps) >= 100:
            raise AssertionError(f"still stepping at t = {t}")

    with pytest.raises(ValueError, match="projects more than"):
        run_simulation(problem, "cubature", 1, StabilizationSpec(), "rk", cfl, cells,
                       monitor=monitor)
    assert steps == []


def test_an_oversized_mesh_raises_before_it_is_built(monkeypatch):
    import cgstab.solver as solver

    def unreached(*args):
        raise AssertionError("the system was built")

    monkeypatch.setattr(solver, "build_problem_system", unreached)
    with pytest.raises(ValueError, match="at most 100000 cells"):
        run_simulation(ADV, "cubature", 1, StabilizationSpec(), "rk", 0.5, 10**8)


def test_an_oversized_level_is_refused_before_any_level_runs(monkeypatch):
    """At most 50 cells: the 80-cell level of dx1 (0.1, 0.05, 0.025) on
    [0, 2] is refused before the 20- and 40-cell levels run, and a subnormal
    dx1, whose cell count is infinite, before any level."""
    import cgstab.solver as solver

    runs = []
    monkeypatch.setattr(solver, "MAX_CELLS", 50)
    monkeypatch.setattr(solver, "run_simulation", lambda *args: runs.append(args))
    with pytest.raises(ValueError, match="at most 50 cells, got 80 at dx1 = 0.025"):
        convergence_study(linear_advection_problem(t_final=0.2), "cubature", 1,
                          StabilizationSpec("cip", 0.094), "ssprk", 1.0,
                          dx1_values=(0.1, 0.05, 0.025))
    with pytest.raises(ValueError, match="at most 50 cells, got inf at dx1 = 5e-324"):
        convergence_study(linear_advection_problem(t_final=0.2), "cubature", 1,
                          StabilizationSpec("cip", 0.094), "ssprk", 1.0,
                          dx1_values=(5e-324, 1e-3, 1e-4))
    assert runs == []
