import numpy as np
import pytest

from cgstab.elements import (
    build_reference_element,
    gauss_legendre,
    gauss_lobatto,
    local_matrices,
)

from conftest import ALL_DEGREES, ALL_FAMILIES


def lobatto3_from_moments():
    """Independent oracle: solve the 3-point Lobatto moment conditions.

    Nodes {0, x, 1} and weights (w0, w1, w2) integrating 1, t, t^2, t^3
    exactly; symmetry forces x = 1/2 and w2 = w0.
    """
    # symmetry leaves (w0, w1); moments of 1 and t^2:
    #   2 w0 + w1 = 1,  w0 (0 + 1) + w1 / 4 = 1/3
    M = np.array([[2.0, 1.0], [1.0, 0.25]])
    b = np.array([1.0, 1.0 / 3.0])
    w0, w1 = np.linalg.solve(M, b)
    return np.array([w0, w1, w0])


def test_lobatto3_matches_moment_conditions():
    pts, wts = gauss_lobatto(3)
    assert np.allclose(pts, [0.0, 0.5, 1.0], atol=1e-14)
    assert np.allclose(wts, lobatto3_from_moments(), atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lobatto_rule_exactness(n):
    pts, wts = gauss_lobatto(n)
    assert wts.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(wts > 0)
    for deg in range(2 * n - 2):  # exact through degree 2n-3
        exact = 1.0 / (deg + 1)
        assert np.dot(wts, pts**deg) == pytest.approx(exact, abs=1e-13), deg


@pytest.mark.parametrize("n", [1, 5])
def test_lobatto_rejects_sizes_beyond_degrees_1_to_3(n):
    with pytest.raises(ValueError):
        gauss_lobatto(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gauss_legendre_exactness(n):
    pts, wts = gauss_legendre(n)
    for deg in range(2 * n):
        assert np.dot(wts, pts**deg) == pytest.approx(1.0 / (deg + 1), abs=1e-13)


def test_basic_p1_nodes_are_endpoints():
    ref = build_reference_element("basic", 1)
    assert np.allclose(ref.nodes, [0.0, 1.0])


def test_cubature_quadrature_collocated():
    ref = build_reference_element("cubature", 2)
    assert np.allclose(ref.nodes, ref.quad_points)
    assert np.allclose(ref.nodes, [0.0, 0.5, 1.0], atol=1e-14)
    assert np.allclose(ref.quad_weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-14)


def test_bernstein_greville_nodes():
    ref = build_reference_element("bernstein", 2)
    assert np.allclose(ref.nodes, [0.0, 0.5, 1.0])


@pytest.mark.parametrize("degree", [0, 4, -1])
def test_unsupported_degree(degree):
    with pytest.raises(ValueError, match="degree must be in"):
        build_reference_element("basic", degree)


def test_unknown_family():
    with pytest.raises(ValueError):
        build_reference_element("fekete", 2)


def test_basic_p1_hat_values():
    ref = build_reference_element("basic", 1)
    assert np.allclose(ref.eval_basis(0.25), [0.75, 0.25], atol=1e-14)
    assert np.allclose(ref.eval_basis_deriv(0.6), [-1.0, 1.0], atol=1e-14)


def test_bernstein_p2_values():
    ref = build_reference_element("bernstein", 2)
    # binomial formula evaluated by hand at x = 1/2
    assert np.allclose(ref.eval_basis(0.5), [0.25, 0.5, 0.25], atol=1e-14)
    assert np.allclose(ref.eval_basis_deriv(0.0), [-2.0, 2.0, 0.0], atol=1e-13)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("degree", ALL_DEGREES)
def test_partition_of_unity_and_deriv_sum(family, degree):
    ref = build_reference_element(family, degree)
    rng = np.random.default_rng(7 * degree + hash(family) % 100)
    x = rng.uniform(0.0, 1.0, 64)
    assert np.max(np.abs(ref.eval_basis(x).sum(axis=-1) - 1.0)) < 1e-12
    assert np.max(np.abs(ref.eval_basis_deriv(x).sum(axis=-1))) < 1e-12


@pytest.mark.parametrize("family", ["basic", "cubature"])
@pytest.mark.parametrize("degree", ALL_DEGREES)
def test_lagrange_interpolation_property(family, degree):
    ref = build_reference_element(family, degree)
    vals = ref.eval_basis(ref.nodes)
    assert np.max(np.abs(vals - np.eye(degree + 1))) < 1e-12


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("degree", ALL_DEGREES)
def test_mass_spd_and_lumped_positive(family, degree):
    lm = local_matrices(build_reference_element(family, degree))
    assert np.allclose(lm.mass, lm.mass.T, atol=1e-14)
    np.linalg.cholesky(lm.mass)  # raises if not positive definite
    assert np.all(lm.mass.sum(axis=1) > 0)


def test_cubature_mass_diagonal():
    for degree in ALL_DEGREES:
        lm = local_matrices(build_reference_element("cubature", degree))
        off = lm.mass - np.diag(np.diag(lm.mass))
        assert np.max(np.abs(off)) <= 1e-14


def test_basic_p1_mass_exact():
    lm = local_matrices(build_reference_element("basic", 1))
    assert np.allclose(lm.mass, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-14)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("degree", ALL_DEGREES)
def test_deriv_row_sums_vanish(family, degree):
    lm = local_matrices(build_reference_element(family, degree))
    assert np.max(np.abs(lm.deriv.sum(axis=1))) < 1e-12
