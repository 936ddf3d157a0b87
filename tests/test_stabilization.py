import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import cgstab
from cgstab import build_reference_element
from cgstab.fluxes import Burgers, LinearAdvection, ShallowWater
from cgstab.problems import PROBLEMS, shallow_water_problem
from cgstab.solver import build_problem_system
from cgstab.timeint import BlowUp
from cgstab.stabilization import (
    _SPLU_OPTIONS,
    DiscreteSystem,
    Mesh1D,
    Operators,
    StabilizationSpec,
    _Inverse,
    tau_cell,
)

from conftest import ALL_DEGREES, ALL_FAMILIES, ALL_STABS


def make_system(family="basic", p=1, kind="none", delta=0.0, n=8,
                boundary="periodic", flux=None, bc=None):
    mesh = Mesh1D(0.0, 2.0, n, boundary)
    ref = build_reference_element(family, p)
    return DiscreteSystem(mesh, ref, StabilizationSpec(kind, delta),
                           flux or LinearAdvection(1.0), bc=bc)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("kind", [kind for kind, _ in ALL_STABS])
def test_nonlinear_operators_hold_only_what_their_residual_reads(family, kind):
    """A nonlinear flux integrates at the quadrature points: its operators
    keep C only for the LPS projection and have no SUPG T and S, while the
    linear ones always have C."""
    mesh, ref = Mesh1D(0.0, 2.0, 6), build_reference_element(family, 2)
    nonlinear, linear = (Operators(mesh, ref, kind, linear=flag) for flag in (False, True))
    assert (nonlinear.C is not None) == (kind == "lps")
    assert linear.C is not None
    if kind == "supg":
        assert nonlinear.T is None and nonlinear.S is None
        assert linear.T is not None and linear.S is not None


def test_tau_formulas():
    assert tau_cell(StabilizationSpec("supg", 0.5), 0.1, 2.0) == pytest.approx(0.025)
    assert tau_cell(StabilizationSpec("cip", 0.1), 0.1, 1.0) == pytest.approx(1e-3)
    assert tau_cell(StabilizationSpec("lps", 0.3), 0.2, 2.0) == pytest.approx(0.12)
    assert tau_cell(StabilizationSpec("none", 0.0), 0.1, 1.0) == 0.0


def test_tau_supg_zero_speed_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tau = tau_cell(StabilizationSpec("supg", 0.5), 0.1, 0.0)
    assert tau == 0.0
    assert any("zero speed" in str(w.message) for w in caught)


def test_mesh_dof_counts():
    assert Mesh1D(0, 1, 10, "periodic").n_nodes(3) == 30
    assert Mesh1D(0, 1, 10, "dirichlet").n_nodes(3) == 31
    with pytest.raises(ValueError):
        Mesh1D(0, 1, 10, "neumann")


def test_an_inconsistent_setup_raises():
    with pytest.raises(ValueError, match="unknown stabilization 'upwind'"):
        StabilizationSpec("upwind", 0.1)
    with pytest.raises(ValueError, match="Dirichlet mesh needs boundary data"):
        make_system(boundary="dirichlet")
    with pytest.raises(ValueError, match="only defined for LPS"):
        make_system(kind="cip", delta=0.1).project_gradient(np.zeros(8))


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("kind,delta", ALL_STABS)
def test_constant_state_annihilated(family, kind, delta):
    system = make_system(family, 2, kind, delta)
    U = np.full(system.n_nodes, 3.7)
    r = system.residual(U)
    assert np.max(np.abs(r)) < 1e-13


def test_pure_galerkin_convection_skew():
    system = make_system("basic", 2, "none", 0.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        U = rng.normal(size=system.n_nodes)
        assert abs(U @ system.residual(U)) < 1e-12 * (U @ U)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("degree", ALL_DEGREES)
@pytest.mark.parametrize("kind,delta", ALL_STABS)
def test_conservation_periodic(family, degree, kind, delta):
    system = make_system(family, degree, kind, delta)
    rng = np.random.default_rng(degree)
    U = rng.normal(size=system.n_nodes)
    r = system.residual(U)
    assert abs(r.sum()) < 1e-12 * max(np.linalg.norm(r), 1.0)


def test_conservation_burgers():
    system = make_system("cubature", 2, "cip", 0.2, flux=Burgers())
    rng = np.random.default_rng(5)
    U = rng.normal(size=system.n_nodes)
    r = system.residual(U)
    assert abs(r.sum()) < 1e-12 * max(np.linalg.norm(r), 1.0)


SPEEDS = st.one_of(st.floats(-2.0, -0.1), st.floats(0.1, 2.0))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(family=st.sampled_from(ALL_FAMILIES), degree=st.sampled_from(ALL_DEGREES),
       kind=st.sampled_from([kind for kind, _ in ALL_STABS]), delta=st.floats(0.0, 1.0),
       burgers=st.booleans(), a=SPEEDS, n=st.integers(3, 9), seed=st.integers(0, 2**32 - 1))
def test_conservation_periodic_property(family, degree, kind, delta, burgers, a, n, seed):
    """On a periodic mesh the residual sums to zero up to round-off."""
    flux = Burgers() if burgers else LinearAdvection(a)
    system = make_system(family, degree, kind, delta, n=n, flux=flux)
    r = system.residual(np.random.default_rng(seed).normal(size=system.n_nodes))
    assert abs(r.sum()) <= 1e-12 * np.abs(r).sum()


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(family=st.sampled_from(ALL_FAMILIES), degree=st.sampled_from(ALL_DEGREES),
       kind=st.sampled_from(["none", "cip", "lps"]), delta=st.floats(0.0, 1.0),
       a=SPEEDS, n=st.integers(3, 9), seed=st.integers(0, 2**32 - 1))
def test_energy_rate_sign_property(family, degree, kind, delta, a, n, seed):
    """Galerkin conserves the discrete energy; CIP and LPS only dissipate it."""
    system = make_system(family, degree, kind, delta, n=n, flux=LinearAdvection(a))
    U = np.random.default_rng(seed).normal(size=system.n_nodes)
    rate = U @ system.residual(U)
    if kind == "none":
        assert abs(rate) <= 1e-10 * (U @ U)
    else:
        assert rate <= 1e-12 * (U @ U)


def test_residual_linear_in_state():
    system = make_system("bernstein", 2, "lps", 0.4)
    rng = np.random.default_rng(11)
    U, V = rng.normal(size=(2, system.n_nodes))
    lhs = system.residual(2.5 * U - 1.25 * V)
    rhs = 2.5 * system.residual(U) - 1.25 * system.residual(V)
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_cip_matches_hand_assembled_matrix():
    """Four-cell periodic P1 mesh against an independent jump assembly."""
    n, dx = 4, 0.5
    system = make_system("basic", 1, "cip", 0.37, n=n)
    delta, a = 0.37, 1.0
    tau = delta * dx**2 * a
    S = np.zeros((n, n))
    for f in range(n):  # face at node f: cells f-1 (left), f (right)
        jump = np.zeros(n)
        left, right = (f - 1) % n, f
        # d/dx u in cell c = (U[c+1] - U[c]) / dx
        jump[(right + 1) % n] += 1.0 / dx
        jump[right] -= 1.0 / dx
        jump[(left + 1) % n] += -1.0 / dx
        jump[left] -= -1.0 / dx
        S += tau * np.outer(jump, jump)
    rng = np.random.default_rng(2)
    U = rng.normal(size=n)
    r_conv = make_system("basic", 1, "none", 0.0, n=n).residual(U)
    r_full = system.residual(U)
    assert np.max(np.abs((r_conv - S @ U) - r_full)) < 1e-13


def test_lps_projection_constant_and_linear():
    system = make_system("basic", 2, "lps", 0.3, boundary="dirichlet",
                         bc=lambda t: (np.array([0.0]), np.array([2.0])))
    W = system.project_gradient(np.full(system.n_nodes, 4.0))
    assert np.max(np.abs(W)) < 1e-12
    U = system.node_x.copy()
    W = system.project_gradient(U)[:, 0]
    inner = slice(2, -2)
    assert np.max(np.abs(W[inner] - 1.0)) < 1e-10


def test_lps_projection_cubature_needs_no_factorization():
    system = make_system("cubature", 2, "lps", 0.3)
    assert system._proj_inverse.lu is None and system._proj_inverse.diag is not None
    rng = np.random.default_rng(8)
    U = rng.normal(size=system.n_nodes)
    W = system.project_gradient(U)
    # diagonal projection solves the lumped system, not the consistent one
    lumped = np.asarray(system.M_galerkin.sum(axis=1)).ravel()
    assert np.max(np.abs(lumped[:, None] * W - system.C @ U[:, None])) < 1e-12


SCALES = [1e-3, 1.0, 20.0, 1e3]


@pytest.mark.parametrize("dx", SCALES)
@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
def test_cubature_p3_mass_is_divided_at_every_scale(dx, boundary):
    """The diagonal test is relative to the diagonal, so no dx factorizes
    the collocated mass (off-diagonals of about 1.8e-16 dx)."""
    system = DiscreteSystem(Mesh1D(0.0, 10 * dx, 10, boundary),
                             build_reference_element("cubature", 3),
                             StabilizationSpec("cip", 0.01), ShallowWater(),
                             bc=lambda t: (np.array([1.0, 0.0]), np.array([1.0, 0.0])))
    b = np.random.default_rng(31).normal(size=2 * system.n_nodes)
    out = system.solve_mass(b)
    assert system.n_mass_factorizations == 0
    expected = b.reshape(-1, 2) / system.mass_matrix.diagonal()[:, None]
    assert np.array_equal(out, expected.ravel())


@pytest.mark.parametrize("dx", SCALES)
def test_basic_p1_mass_factorizes_once_at_every_scale(dx):
    system = DiscreteSystem(Mesh1D(0.0, 10 * dx, 10), build_reference_element("basic", 1),
                             StabilizationSpec("none"), LinearAdvection(1.0))
    b = np.random.default_rng(32).normal(size=system.n_nodes)
    for _ in range(2):
        out = system.solve_mass(b)
    assert system.n_mass_factorizations == 1
    assert np.max(np.abs(system.mass_matrix @ out - b)) < 1e-12 * np.max(np.abs(b))


def test_cubature_p3_projection_divides_by_the_mass_diagonal():
    system = make_system("cubature", 3, "lps", 0.3)
    rng = np.random.default_rng(33)
    U = rng.normal(size=system.n_nodes)
    diag = system.mass_matrix.diagonal()
    W = system.project_gradient(U)
    assert np.array_equal(W, (system.C @ U[:, None]) / diag[:, None])
    assert np.array_equal(system.solve_mass(U), U / diag)


def test_two_component_solves_match_per_column_lu():
    system = build_problem_system(shallow_water_problem(), "basic", 2,
                                  StabilizationSpec("lps", 0.1), 10)
    rng = np.random.default_rng(34)
    U = rng.normal(size=(system.n_nodes, 2))

    def per_column(matrix, rhs):
        lu = spla.splu(matrix.tocsc(), **_SPLU_OPTIONS)
        return np.column_stack([lu.solve(np.ascontiguousarray(c)) for c in rhs.T])

    assert np.array_equal(system.solve_mass(U.ravel()),
                          per_column(system.mass_matrix, U).ravel())
    assert np.array_equal(system.project_gradient(U.ravel()),
                          per_column(system.M_galerkin, system.C @ U))
    assert system.n_mass_factorizations == 1


# Every matrix _Inverse factorizes: the SUPG masses (linear advection
# periodic, Burgers and shallow water at t = 0 with Dirichlet ends) and the
# LPS projection, whose cubature mass is diagonal.
FACTORIZED = [(source, family, p)
              for source in ("advection", "burgers", "sw", "projection")
              for family in ALL_FAMILIES for p in ALL_DEGREES
              if not (source == "projection" and family == "cubature")]


@pytest.mark.parametrize("source,family,p", FACTORIZED)
def test_factorization_has_bounded_fill_and_solves_to_rounding(source, family, p):
    """The symmetric-pattern order keeps nnz(L) + nnz(U) within 2.5 nnz(A)
    on 200 cells; a Bernstein p = 3 mass pivoted off the diagonal fills
    far more, and the more so the finer the mesh."""
    if source == "projection":
        system = build_problem_system(PROBLEMS["advection"](), family, p,
                                      StabilizationSpec("lps", 0.1), 200)
        matrix = system.M_galerkin
    else:
        problem = PROBLEMS[source]()
        system = build_problem_system(problem, family, p, StabilizationSpec("supg", 0.1), 200)
        system.refresh_mass(system.interpolate(problem.exact))
        matrix = system.mass_matrix
    inverse = _Inverse(matrix, system._diag_pos)
    assert inverse.lu.L.nnz + inverse.lu.U.nnz <= 2.5 * matrix.nnz
    b = np.random.default_rng(35).normal(size=(system.n_nodes, 1))
    x = inverse.solve(b)
    assert np.max(np.abs(matrix @ x - b)) <= 1e-13 * np.max(np.abs(b))


def test_singular_factorization_raises_singular_mass():
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        _Inverse(sp.csc_matrix(np.ones((3, 3))), np.array([0, 4, 8]))


def test_energy_rate_none_zero():
    system = make_system("basic", 3, "none", 0.0)
    rng = np.random.default_rng(4)
    U = rng.normal(size=system.n_nodes)
    assert abs(U @ system.residual(U)) < 1e-12 * (U @ U)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("degree", ALL_DEGREES)
@pytest.mark.parametrize("kind", ["cip", "lps"])
def test_energy_rate_nonpositive(family, degree, kind):
    system = make_system(family, degree, kind, 0.5)
    rng = np.random.default_rng(degree + len(kind))
    for _ in range(100):
        U = rng.normal(size=system.n_nodes)
        assert U @ system.residual(U) <= 1e-12 * (U @ U)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("degree", ALL_DEGREES)
@pytest.mark.parametrize("boundary", ("periodic", "dirichlet"))
def test_jump_operator_matches_basis_derivatives(family, degree, boundary):
    """The CIP S, summed face by face from the shared jump row, equals J^T J
    for the face-jump operator J written from the basis derivatives, the
    left cell's columns first, the order the sums run in (the right cell's
    first changes the last bits of basic p = 3 entries)."""
    bc = (lambda t: (np.zeros(1), np.zeros(1))) if boundary == "dirichlet" else None
    system = make_system(family, degree, "cip", 0.1, n=5, boundary=boundary,
                         flux=Burgers(), bc=bc)
    nc = system.mesh.n_cells
    right = np.arange(nc) if boundary == "periodic" else np.arange(1, nc)
    cols = np.hstack([system.cell_dofs[right - 1], system.cell_dofs[right]])
    row = np.concatenate([-system.ref.eval_basis_deriv(1.0),
                          system.ref.eval_basis_deriv(0.0)]) / system.mesh.dx
    want = sp.csr_matrix((np.tile(row, len(right)), cols.ravel(),
                          np.arange(0, cols.size + 1, cols.shape[1])),
                         shape=(len(right), system.n_nodes))
    assert np.array_equal(system.S.toarray(), (want.T @ want).toarray())


def _sparse_product_oracle(ops, kind):
    """The scipy matrices an ``Operators`` S replaces, as CSR: J^T J for CIP
    (J the face-jump operator), S - T diag(1/d) C for a diagonal LPS mass,
    and S itself for any other LPS mass, whose P must be T."""
    n, mesh = ops.n_nodes, ops.mesh

    def csc(A):
        return sp.csc_matrix(A, shape=(n, n))

    if kind == "cip":
        nc = mesh.n_cells
        right = np.arange(nc) if mesh.boundary == "periodic" else np.arange(1, nc)
        cols = np.hstack([ops.cell_dofs[right - 1], ops.cell_dofs[right]])
        J = sp.csr_matrix((np.tile(ops.local.jump / mesh.dx, len(right)), cols.ravel(),
                           np.arange(0, cols.size + 1, cols.shape[1])), shape=(len(right), n))
        return (J.T @ J).tocsr()
    S = csc(ops._assemble_pairwise(ops.local.grad_grad / mesh.dx))
    T = csc(ops._assemble_pairwise(ops.local.deriv.T))
    if ops.P is not None:
        assert np.array_equal(csc(ops.P).toarray(), T.toarray())
        return S.tocsr()
    return (S - T @ sp.diags(1.0 / csc(ops.M_galerkin).diagonal()) @ csc(ops.C)).tocsr()


_MESHES = {"ring": Mesh1D(0.0, 5.0, 5), "periodic": Mesh1D(0.0, 2.0, 37),
           "dirichlet": Mesh1D(0.0, 2.0, 37, "dirichlet")}


def _assert_bits_of_the_sparse_product(ops, kind):
    got = sp.csc_matrix(ops.S, shape=(ops.n_nodes,) * 2).tocsr()
    want = _sparse_product_oracle(ops, kind)
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                 (got.data.view(np.int64), want.data.view(np.int64))):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("degree", ALL_DEGREES)
@pytest.mark.parametrize("mesh", _MESHES.values(), ids=_MESHES.keys())
@pytest.mark.parametrize("kind", ["cip", "lps"])
def test_folded_operators_keep_the_bits_of_the_sparse_products(family, degree, mesh, kind):
    """The numpy CIP S and diagonal-LPS S equal, value, pattern and bit, the
    scipy products they replace; only the cubature mass is diagonal."""
    ops = Operators(mesh, build_reference_element(family, degree), kind)
    assert (ops.P is None) == (kind == "cip" or family == "cubature")
    _assert_bits_of_the_sparse_product(ops, kind)


@pytest.mark.parametrize("kind", ["cip", "lps"])
def test_a_mesh_whose_keys_pass_int32_keeps_the_bits(kind):
    """Past 46,341 dofs a key col * n + row no longer fits in int32 (the
    type of the CSC indices): the folds still equal the scipy products."""
    ops = Operators(Mesh1D(0.0, 1.0, 46_400), build_reference_element("cubature", 1), kind)
    assert ops.n_nodes**2 > np.iinfo(np.int32).max
    _assert_bits_of_the_sparse_product(ops, kind)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("degree", ALL_DEGREES)
@pytest.mark.parametrize("kind", ["cip", "lps"])
def test_a_ring_of_few_cells_stores_each_entry_once(family, degree, kind):
    """On 1 to 4 periodic cells a dof recurs in a face patch or within 2p
    dofs of a column, so the slot (row - col + 2p) mod n gathers terms of
    several offsets: S still holds each entry once, in order, with scipy's
    bits from two cells on, and to rounding on one, where both ends of the
    cell are one dof."""
    for cells in range(1, 5):
        ops = Operators(Mesh1D(0.0, 1.0, cells), build_reference_element(family, degree), kind)
        if cells > 1:
            _assert_bits_of_the_sparse_product(ops, kind)
            continue
        got = sp.csc_matrix(ops.S, shape=(ops.n_nodes,) * 2)
        assert got.has_canonical_format
        want = _sparse_product_oracle(ops, kind).toarray()
        assert np.allclose(got.toarray(), want, rtol=0.0, atol=1e-14 * np.abs(want).max())


def test_energy_rate_cip_matches_jump_sum():
    system = make_system("basic", 2, "cip", 0.41, n=6)
    rng = np.random.default_rng(12)
    U = rng.normal(size=system.n_nodes)
    rate = U @ system.residual(U)
    # independent evaluation of -sum_f tau [u_x]^2
    dx = system.mesh.dx
    tau = 0.41 * dx**2
    cells = U[system.cell_dofs]
    gl = cells @ system.ref.eval_basis_deriv(1.0) / dx
    gr = cells @ system.ref.eval_basis_deriv(0.0) / dx
    jumps = gr - np.roll(gl, 1)
    assert rate == pytest.approx(-tau * np.sum(jumps**2), rel=1e-10, abs=1e-12)


def test_energy_rate_lps_matches_projection_defect():
    system = make_system("cubature", 3, "lps", 0.27, n=6)
    rng = np.random.default_rng(13)
    U = rng.normal(size=system.n_nodes)
    rate = U @ system.residual(U)
    dx = system.mesh.dx
    tau = 0.27 * dx
    W = system.project_gradient(U)[:, 0]
    cells_u = U[system.cell_dofs]
    cells_w = W[system.cell_dofs]
    ux = cells_u @ system.Vd.T / dx
    wq = cells_w @ system.V.T
    w = system.ref.quad_weights
    defect = dx * np.sum(w[None, :] * (ux - wq) ** 2)
    assert rate == pytest.approx(-tau * defect, rel=1e-10, abs=1e-12)


def test_supg_mass_block_included():
    plain = make_system("basic", 2, "none", 0.0)
    supg = make_system("basic", 2, "supg", 0.4)
    diff = (supg.mass_matrix - plain.mass_matrix).toarray()
    assert np.max(np.abs(diff)) > 1e-3
    # the SUPG block has zero row sums, so the lumped masses coincide
    assert np.allclose(supg.lumped, plain.lumped, atol=1e-13)


def test_dirichlet_residual_rows_zeroed():
    system = make_system("basic", 2, "cip", 0.1, boundary="dirichlet",
                         bc=lambda t: (np.array([1.0]), np.array([-1.0])))
    rng = np.random.default_rng(6)
    U = rng.normal(size=system.n_nodes)
    r = system.residual(U)
    assert r[0] == 0.0 and r[-1] == 0.0


# -- the element-loop residual the sparse operators replaced ----------------


def reference_residual(system, U, t=0.0):
    """Cell einsums scattered with ``np.add.at`` plus the face loop for CIP.

    This is the residual as it was written before the sparse operators
    (``Q``, ``Qd``, ``J``, the linear CSR matrix); it reads only the basis
    tables and connectivity of ``system`` and is the reference they are
    checked against.
    """
    mesh, stab, flux = system.mesh, system.stab, system.flux
    dx, w = mesh.dx, system.ref.quad_weights
    nc = mesh.n_cells
    U2 = U.reshape(system.n_nodes, system.n_comp)
    cells = U2[system.cell_dofs]
    u_q = np.einsum("qi,cik->cqk", system.V, cells)
    uxi_q = np.einsum("qi,cik->cqk", system.Vd, cells)
    if stab.kind != "none":
        speed = abs(flux.a) if isinstance(flux, LinearAdvection) else flux.speed(u_q).max()
        tau = tau_cell(stab, dx, float(speed))

    strong = flux.flux_x(u_q, uxi_q) / dx
    if getattr(flux, "source", None) is not None:
        src = np.zeros_like(u_q)
        src[..., 1] = flux.source(system.quad_x, t)
        strong = strong + src
    r_cells = -dx * np.einsum("q,qi,cqk->cik", w, system.V, strong)

    if stab.kind == "supg" and stab.delta > 0:
        if isinstance(flux, LinearAdvection):
            jac = np.full((nc, len(w)), flux.a)
        elif isinstance(flux, Burgers):
            jac = u_q[..., 0]
        else:
            jac = flux.speed(u_q)
        r_cells -= tau * np.einsum("q,cq,qi,cqk->cik", w, jac, system.Vd, strong)
    elif stab.kind == "lps" and stab.delta > 0:
        W = system.project_gradient(U)
        w_q = np.einsum("qi,cik->cqk", system.V, W[system.cell_dofs])
        r_cells -= tau * np.einsum("q,qi,cqk->cik", w, system.Vd, uxi_q / dx - w_q)

    r = np.zeros_like(U2)
    np.add.at(r, system.cell_dofs, r_cells)

    if stab.kind == "cip" and stab.delta > 0:
        if mesh.boundary == "periodic":
            right = np.arange(nc)
            left = (right - 1) % nc
        else:
            right = np.arange(1, nc)
            left = right - 1
        d_left = system.ref.eval_basis_deriv(0.0)
        d_right = system.ref.eval_basis_deriv(1.0)
        grad_l = np.einsum("i,cik->ck", d_right, cells[left]) / dx
        grad_r = np.einsum("i,cik->ck", d_left, cells[right]) / dx
        jump_u = grad_r - grad_l
        np.add.at(r, system.cell_dofs[right], -tau * np.einsum("i,fk->fik", d_left / dx, jump_u))
        np.add.at(r, system.cell_dofs[left], tau * np.einsum("i,fk->fik", d_right / dx, jump_u))

    if mesh.boundary == "dirichlet":
        r[0] = 0.0
        r[-1] = 0.0
    return r.reshape(U.shape)


def _momentum_source(x, t):
    return 0.3 * np.sin(2.0 * x) * np.cos(t)


def _flux_cases(rng, n_nodes):
    """(flux, state, Dirichlet data) for linear, Burgers, shallow water."""
    h = 1.0 + 0.2 * rng.random(n_nodes)
    sw_state = np.column_stack([h, 0.3 * rng.normal(size=n_nodes)]).ravel()
    sw_bc = lambda t: (np.array([1.0, 0.0]), np.array([1.1, 0.2]))
    scalar_bc = lambda t: (np.array([0.5]), np.array([-0.5]))
    burgers_state = rng.normal(size=n_nodes)
    return (
        (LinearAdvection(1.3), rng.normal(size=n_nodes), scalar_bc),
        (Burgers(), burgers_state, scalar_bc),
        (ShallowWater(source=_momentum_source), sw_state, sw_bc),
    )


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("degree", ALL_DEGREES)
@pytest.mark.parametrize("kind,delta", ALL_STABS)
def test_residual_matches_element_loop_reference(family, degree, kind, delta):
    rng = np.random.default_rng(degree + 10 * len(kind))
    n = 7
    for boundary in ("periodic", "dirichlet"):
        n_nodes = Mesh1D(0.0, 2.0, n, boundary).n_nodes(degree)
        # at 0.31 a linear SUPG end row sums to a nonpositive weight (basic
        # p2) until its identity row is imposed; 0.05 stays below that
        deltas = (0.05, delta) if kind == "supg" and boundary == "dirichlet" else (delta,)
        for delta_b in deltas:
            for flux, U, bc in _flux_cases(rng, n_nodes):
                mesh = Mesh1D(0.0, 2.0, n, boundary)
                stab = StabilizationSpec(kind, delta_b)
                system = DiscreteSystem(mesh, build_reference_element(family, degree), stab,
                                         flux, bc=bc if boundary == "dirichlet" else None)
                new = system.residual(U, 0.37)
                ref = reference_residual(system, U, 0.37)
                assert new.shape == ref.shape
                assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))
                if system.mass_matrix is not None:
                    rowsum = np.asarray(system.mass_matrix.sum(axis=1)).ravel()
                    assert np.array_equal(system.lumped, rowsum)


@pytest.mark.parametrize("family,kind,delta", [
    ("basic", "supg", 0.31), ("cubature", "lps", 0.23), ("bernstein", "lps", 0.23),
    ("bernstein", "cip", 0.11),
])
def test_linear_residual_is_one_csr_matrix(family, kind, delta):
    system = make_system(family, 3, kind, delta, n=6)
    rng = np.random.default_rng(21)
    U = rng.normal(size=system.n_nodes)
    if system.ref.family == "cubature" or kind != "lps":
        # the lumped LPS projection is folded into the matrix
        assert np.array_equal(system.residual(U), system._R @ U)
    dense = np.column_stack([reference_residual(system, e) for e in np.eye(system.n_nodes)])
    full = system._R.toarray()
    if system._R_proj is not None:
        full = full + system._R_proj @ np.column_stack(
            [system.project_gradient(e)[:, 0] for e in np.eye(system.n_nodes)])
    assert np.max(np.abs(full - dense)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("degree", ALL_DEGREES)
@pytest.mark.parametrize("kind", ["cip", "lps"])
@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
def test_burgers_stabilization_is_the_linear_operator(family, degree, kind, boundary):
    """CIP and LPS are tau times one matrix: on a Burgers state the term
    r(U) - r_{delta=0}(U) equals that of LinearAdvection(s), s = max |u_q|."""
    bc = (lambda t: (np.array([0.5]), np.array([-0.5]))) if boundary == "dirichlet" else None

    def stab_term(flux, U):
        on, off = (make_system(family, degree, kind, delta, n=7, boundary=boundary,
                               flux=flux, bc=bc) for delta in (0.4, 0.0))
        return on.residual(U) - off.residual(U), on

    n_nodes = Mesh1D(0.0, 2.0, 7, boundary).n_nodes(degree)
    U = np.random.default_rng(degree + 3 * len(family)).normal(size=n_nodes)
    burgers, system = stab_term(Burgers(), U)
    linear, _ = stab_term(LinearAdvection(np.abs(system.eval_at_quads(U)).max()), U)
    assert np.max(np.abs(burgers - linear)) <= 1e-13 * np.max(np.abs(linear))


def reference_mass(system, U):
    """The SUPG mass and its row sums as assembled before the block pattern:
    COO blocks added to the Galerkin mass, identity rows through LIL, then
    the row sums of that operator."""
    mesh, ref = system.mesh, system.ref
    nb = ref.degree + 1
    rows = system.cell_dofs[:, :, None]
    cols = system.cell_dofs[:, None, :]
    shape = (mesh.n_cells, nb, nb)

    def scatter(blocks):
        return sp.coo_matrix((blocks.ravel(), (np.broadcast_to(rows, shape).ravel(),
                                               np.broadcast_to(cols, shape).ravel())),
                             shape=(system.n_nodes,) * 2).tocsc()

    M = scatter(np.broadcast_to(system.local.mass, shape)) * mesh.dx
    u_q = np.einsum("qi,cik->cqk", system.V, U.reshape(-1, 1)[system.cell_dofs])
    jac = u_q[..., 0]
    tau = np.full(mesh.n_cells, tau_cell(system.stab, mesh.dx, np.abs(jac).max()))
    w = ref.quad_weights
    M = M + scatter(np.einsum("c,q,cq,qi,qj->cij", tau, w, jac, system.Vd, system.V))
    M = M.tolil()
    for node in (0, system.n_nodes - 1):
        M.rows[node] = [node]
        M.data[node] = [1.0]
    M = M.tocsc()
    return M, np.asarray(M.sum(axis=1)).ravel()


def test_supg_mass_matches_coo_assembly_dirichlet_burgers():
    system = make_system("basic", 2, "supg", 0.1, n=9, boundary="dirichlet",
                         flux=Burgers(), bc=lambda t: (np.array([1.0]), np.array([-1.0])))
    U = -np.tanh(4.0 * (system.node_x - 1.0))
    system.refresh_mass(U)
    M_ref, lumped_ref = reference_mass(system, U)
    diff = (system.mass_matrix - M_ref).toarray()
    assert np.max(np.abs(diff)) <= 1e-15 * np.max(np.abs(M_ref.toarray()))
    assert np.max(np.abs(system.lumped - lumped_ref)) <= 1e-15 * np.max(lumped_ref)
    system.solve_mass(U)
    assert system._mass_inverse.diag is None and system.n_mass_factorizations == 1


def test_shallow_water_dry_node_is_a_blowup():
    """One node at zero depth: speed, max_speed and the SUPG tau scaling
    raise BlowUp naming the depth, and sqrt never sees it."""
    u = np.array([[1.0, 0.1], [0.0, 0.0], [1.2, -0.1]])
    flux = ShallowWater()
    system = make_system("cubature", 1, "supg", 0.1, n=4, flux=flux)   # nodal quadrature
    U = np.tile([1.0, 0.0], (system.n_nodes, 1))
    U[2, 0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (flux.speed, flux.max_speed, flux.jacobian):
            with pytest.raises(BlowUp, match="non-positive depth: min h = 0"):
                call(u)
        with pytest.raises(BlowUp, match="non-positive depth"):
            system.refresh_mass(U)


def test_shallow_water_dry_node_residual_is_a_blowup():
    """Without stabilization no tau is formed: the momentum flux's q / h
    raises BlowUp before it divides by the dry node's zero depth."""
    system = make_system("cubature", 1, "none", 0.0, n=4, flux=ShallowWater())
    U = np.tile([1.0, 0.1], (system.n_nodes, 1))
    U[2, 0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUp, match="non-positive depth: min h = 0"):
            system.residual(U.ravel())


@pytest.mark.parametrize("flux", [LinearAdvection(-0.7), Burgers(), ShallowWater()])
def test_flux_jacobian_and_linearity(flux):
    rng = np.random.default_rng(9)
    u = np.concatenate([1.0 + rng.random((4, 3, 1)), rng.normal(size=(4, 3, 1))],
                       axis=-1)[..., :flux.n_comp]
    jac = flux.jacobian(u)
    assert jac.shape == u.shape[:-1]
    assert flux.is_linear == isinstance(flux, LinearAdvection)
    if isinstance(flux, Burgers):
        assert np.array_equal(jac, u[..., 0])
    elif isinstance(flux, LinearAdvection):
        assert np.all(jac == -0.7)
    else:
        assert np.array_equal(jac, flux.speed(u))


_LAZY_LU_SCRIPT = textwrap.dedent("""
    import json, sys
    import numpy as np
    from cgstab import build_reference_element
    from cgstab.cli import main
    from cgstab.fluxes import LinearAdvection
    from cgstab.problems import PROBLEMS
    from cgstab.solver import run_simulation
    from cgstab.stabilization import DiscreteSystem, Mesh1D, StabilizationSpec

    def loaded():
        return [name in sys.modules for name in ("scipy.sparse", "scipy.sparse.linalg")]

    out_dir, config = sys.argv[1:]
    seen = {"import": loaded()}
    codes = [main(["scan", "--family", family, "--degree", degree, "--stab", "lps",
                   "--time", time, "--config", config, "--out", out_dir])
             for family, degree, time in (("cubature", "3", "dec"), ("bernstein", "2", "rk"))]
    seen["scan"] = loaded()
    codes.append(main(["modes", "--family", "bernstein", "--degree", "3", "--stab", "cip",
                       "--time", "dec", "--delta", "0.1", "--theta-samples", "8",
                       "--out", out_dir]))
    seen["modes"] = loaded()
    run_simulation(PROBLEMS["advection"](), "cubature", 2, StabilizationSpec("lps", 0.04),
                   "ssprk", 0.5, 20)
    seen["run"] = loaded()
    system = DiscreteSystem(Mesh1D(0.0, 1.0, 12), build_reference_element("basic", 2),
                             StabilizationSpec("lps", 0.1), LinearAdvection(1.0))
    U = np.sin(2 * np.pi * np.arange(system.n_nodes) / system.n_nodes)
    W = system.project_gradient(U)[:, 0]
    dense = np.linalg.solve(system.M_galerkin.toarray(), system.C @ U)
    seen["project"] = loaded()
    print(json.dumps({"code": max(codes), "seen": seen, "error": float(np.max(np.abs(W - dense))),
                      "scale": float(np.max(np.abs(dense)))}))
""")


def test_sparse_lu_is_loaded_only_by_a_factorization(tmp_path):
    """Importing the package and the CLI, scans (whose symbols fold even a
    non-diagonal LPS mass without factorizing it) and a ``modes`` call
    never import scipy.sparse: the symbols fold numpy values.  A run
    assembles scipy matrices, but one whose matrices are all diagonal never
    imports scipy.sparse.linalg; the first non-diagonal projection loads
    it, and its solve matches a dense one.  A fresh interpreter, since this
    test module imports both itself."""
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"cfl_min": 0.1, "cfl_max": 1.0, "delta_min": 0.01,
                                  "delta_max": 1.0, "grid_ratio": 1.8, "theta_samples": 12}))
    src = str(Path(cgstab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", _LAZY_LU_SCRIPT, str(tmp_path), str(config)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0
    assert report["seen"] == {"import": [False, False], "scan": [False, False],
                              "modes": [False, False], "run": [True, False],
                              "project": [True, True]}
    assert report["error"] <= 1e-12 * report["scale"]
