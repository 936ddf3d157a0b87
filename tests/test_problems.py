import numpy as np
import pytest

from cgstab.problems import (
    burgers_problem,
    exact_burgers,
    exact_shallow_water,
    linear_advection_problem,
    shallow_water_problem,
    shallow_water_source,
)


def test_burgers_symmetry_point():
    for t in (0.01, 0.06, 0.12):
        assert exact_burgers(np.array([1.0]), t)[0] == pytest.approx(0.0, abs=1e-12)


def test_burgers_initial_condition():
    x = np.linspace(0, 2, 11)
    assert np.allclose(exact_burgers(x, 0.0), -np.tanh(4 * (x - 1)), atol=1e-14)


def test_burgers_characteristic_residual():
    rng = np.random.default_rng(0)
    xs = rng.uniform(0.0, 2.0, 1000)
    ts = rng.uniform(0.0, 0.125, 1000)
    for x, t in zip(xs, ts):
        u = exact_burgers(np.array([x]), float(t))[0]
        chi = x - u * t
        assert abs(chi + (-np.tanh(4 * (chi - 1))) * t - x) < 1e-10


def test_burgers_rejects_post_shock_times():
    with pytest.raises(ValueError):
        exact_burgers(np.array([1.0]), 0.3)


def test_shallow_water_far_field():
    h, u = exact_shallow_water(np.array([500.0]), 0.0)
    assert h[0] == pytest.approx(1.0, abs=1e-12)
    assert u[0] == pytest.approx(0.0, abs=1e-12)


def test_shallow_water_crest_height():
    h, _ = exact_shallow_water(np.array([0.0]), 0.0)
    assert h[0] == pytest.approx(2.2, abs=1e-14)


def test_shallow_water_kappa_value():
    # kappa = sqrt(3 eps / (4 h0^2 (1+eps))) evaluated for eps = 1.2, h0 = 1
    kappa = np.sqrt(3 * 1.2 / (4 * 2.2))
    assert kappa == pytest.approx(0.63960, abs=5e-6)
    # the profile decays on that scale
    h, _ = exact_shallow_water(np.array([1.0 / kappa]), 0.0)
    assert 1.0 < h[0] < 2.2


def test_source_far_field_zero():
    assert abs(shallow_water_source(np.array([300.0]), 0.0)[0]) < 1e-12


def test_source_antisymmetric_about_crest():
    c = np.sqrt(9.81 * 2.2)
    t = 0.7
    for s in (0.5, 1.3, 2.9):
        plus = shallow_water_source(np.array([c * t + s]), t)[0]
        minus = shallow_water_source(np.array([c * t - s]), t)[0]
        assert plus == pytest.approx(-minus, rel=1e-12)


def test_manufactured_solution_residuals_by_finite_differences():
    """Continuity holds identically; momentum balances the source at 1e-6."""
    g = 9.81
    d = 1e-5
    x = np.linspace(-4.0, 4.0, 41)
    t = 0.33

    def state(xx, tt):
        h, u = exact_shallow_water(xx, tt)
        return h, h * u

    h, q = state(x, t)
    dhdt = (state(x, t + d)[0] - state(x, t - d)[0]) / (2 * d)
    dqdx = (state(x + d, t)[1] - state(x - d, t)[1]) / (2 * d)
    assert np.max(np.abs(dhdt + dqdx)) < 1e-6

    dqdt = (state(x, t + d)[1] - state(x, t - d)[1]) / (2 * d)
    def mom_flux(xx):
        h_, q_ = state(xx, t)
        return q_**2 / h_ + 0.5 * g * h_**2
    dfdx = (mom_flux(x + d) - mom_flux(x - d)) / (2 * d)
    phi = shallow_water_source(x, t)
    assert np.max(np.abs(dqdt + dfdx + phi)) < 1e-6


def test_problem_specs():
    adv = linear_advection_problem()
    assert adv.boundary == "periodic" and adv.t_final == 5.0
    assert np.allclose(adv.exact(np.array([0.5]), 0.0), 0.1 * np.sin(np.pi * 0.5))
    bur = burgers_problem()
    assert bur.t_final == 0.125 < 0.25
    left, right = bur.bc(0.05)
    assert left[0] == pytest.approx(exact_burgers(np.array([0.0]), 0.05)[0])
    sw = shallow_water_problem()
    assert sw.flux.n_comp == 2
    vals = sw.exact(np.array([50.0]), 0.0)
    assert vals[0, 0] == pytest.approx(2.2)
    # one exact call on both ends gives the two single-point evaluations
    for spec in (bur, sw):
        for t in (0.0, 0.0123, 0.1, 0.124):
            pair = spec.bc(t)
            for got, x in zip(pair, (spec.x_left, spec.x_right)):
                assert np.array_equal(got, np.atleast_1d(spec.exact(np.array(x), t)))
