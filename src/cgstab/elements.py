"""Reference elements on the unit cell [0, 1].

Three nodal families are supported:

* ``basic``     -- Lagrange polynomials on equispaced nodes, paired with a
  (p+1)-point Gauss-Legendre quadrature,
* ``cubature``  -- Lagrange polynomials on Gauss-Lobatto nodes, paired with
  the Gauss-Lobatto rule on the same nodes (collocation makes the local
  mass matrix diagonal),
* ``bernstein`` -- Bernstein polynomials, paired with Gauss-Legendre
  quadrature.  Their coefficients are not nodal values; the node list holds
  the Greville abscissae j/p as geometric metadata only.

All elemental integrals are evaluated with the family's paired quadrature.
Physical scalings (mass ~ dx, grad_grad ~ 1/dx, ...) are applied by the
assembly layer, never here.
"""

from dataclasses import dataclass, field
from math import comb

import numpy as np

BASIC = "basic"
CUBATURE = "cubature"
BERNSTEIN = "bernstein"
FAMILIES = (BASIC, CUBATURE, BERNSTEIN)

MAX_DEGREE = 3


def gauss_legendre(n):
    """n-point Gauss-Legendre rule mapped to [0, 1]; weights sum to 1."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def gauss_lobatto(n):
    """n-point Gauss-Lobatto rule on [0, 1], n = 2..4 (degrees 1 to 3); weights sum to 1."""
    r = 0.5 / np.sqrt(5.0)
    rules = {
        2: ([0.0, 1.0], [0.5, 0.5]),
        3: ([0.0, 0.5, 1.0], [1 / 6, 2 / 3, 1 / 6]),
        4: ([0.0, 0.5 - r, 0.5 + r, 1.0], [1 / 12, 5 / 12, 5 / 12, 1 / 12]),
    }
    if n not in rules:
        raise ValueError(f"Gauss-Lobatto rules are tabulated for 2 to 4 points, got {n}")
    nodes, weights = rules[n]
    return np.array(nodes), np.array(weights)


@dataclass(frozen=True)
class ReferenceElement:
    """Immutable degree-p basis plus quadrature on [0, 1].

    ``coeffs[j]`` holds the monomial coefficients of basis function j, so
    evaluation works identically for Lagrange and Bernstein bases.
    """

    family: str
    degree: int
    nodes: np.ndarray
    quad_points: np.ndarray
    quad_weights: np.ndarray
    coeffs: np.ndarray = field(repr=False)

    def eval_basis(self, x):
        """Values of all p+1 basis functions at x (scalar or array).

        Returns shape ``x.shape + (p+1,)``; rows sum to 1 (partition of
        unity holds for every family).
        """
        x = np.asarray(x, dtype=float)
        powers = x[..., None] ** np.arange(self.degree + 1)
        return powers @ self.coeffs.T

    def eval_basis_deriv(self, x):
        """First derivatives of the basis at x; rows sum to 0."""
        x = np.asarray(x, dtype=float)
        p = self.degree
        dcoeffs = self.coeffs[:, 1:] * np.arange(1, p + 1)
        powers = x[..., None] ** np.arange(p)
        return powers @ dcoeffs.T


def build_reference_element(family, degree):
    """Construct the reference element for a family / degree pair.

    Raises
    ------
    ValueError
        For a degree outside [1, 3] or an unknown family tag.
    """
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in [1, {MAX_DEGREE}], got {degree}")
    if family not in FAMILIES:
        raise ValueError(f"unknown element family {family!r}")

    p = degree
    if family == BASIC:
        nodes = np.linspace(0.0, 1.0, p + 1)
        qp, qw = gauss_legendre(p + 1)
        coeffs = _lagrange_coeffs(nodes)
    elif family == CUBATURE:
        nodes, qw = gauss_lobatto(p + 1)
        qp = nodes.copy()
        coeffs = _lagrange_coeffs(nodes)
    else:
        nodes = np.arange(p + 1) / p  # Greville points j/p
        qp, qw = gauss_legendre(p + 1)
        coeffs = _bernstein_coeffs(p)
    return ReferenceElement(family, p, nodes, qp, qw, coeffs)


def _lagrange_coeffs(nodes):
    """Monomial coefficients of the Lagrange basis: phi_j(nodes_k) = delta_jk."""
    vander = np.vander(nodes, increasing=True)
    return np.linalg.inv(vander).T


def _bernstein_coeffs(p):
    """Monomial coefficients of b_j(x) = C(p,j) x^j (1-x)^(p-j), j = 0..p."""
    coeffs = np.zeros((p + 1, p + 1))
    for j in range(p + 1):
        for m in range(p - j + 1):  # expand (1-x)^(p-j)
            coeffs[j, j + m] += comb(p, j) * comb(p - j, m) * (-1.0) ** m
    return coeffs


@dataclass(frozen=True)
class LocalMatrices:
    """Elemental integrals on [0, 1] under the paired quadrature.

    mass      : int phi_i phi_j
    deriv     : int phi_i phi_j'
    grad_grad : int phi_i' phi_j'
    jump      : [-phi'(1), phi'(0)], the gradient jump [dx_u] across a face
                on the dofs of the left cell, then the right cell (CIP)
    """

    mass: np.ndarray
    deriv: np.ndarray
    grad_grad: np.ndarray
    jump: np.ndarray


def local_matrices(ref):
    """Mass, convection and stiffness integrals plus the face jump row."""
    v = ref.eval_basis(ref.quad_points)
    dv = ref.eval_basis_deriv(ref.quad_points)
    w = ref.quad_weights
    mass = (v * w[:, None]).T @ v
    deriv = (v * w[:, None]).T @ dv
    grad_grad = (dv * w[:, None]).T @ dv
    jump = np.concatenate([-ref.eval_basis_deriv(1.0), ref.eval_basis_deriv(0.0)])
    return LocalMatrices(mass, deriv, grad_grad, jump)
