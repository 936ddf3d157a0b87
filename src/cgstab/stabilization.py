"""Global semi-discrete systems: mass operator, residual, stabilization.

The weak form is used in its strong-residual shape: for every test
function phi_i,

    r_i(U, t) = -int phi_i d/dx f(u_h) dx - S_i(u_h) - int phi_i source dx,

with S one of

    SUPG : tau sum_K int_K (df/du dx_phi_i) (dt_u + dx_f + source),
           the dt part entering the mass operator,
    CIP  : tau sum over interior faces of [dx_phi_i] [dx_u],
    LPS  : tau sum_K int_K dx_phi_i (dx_u - w),  w the global L2
           projection of dx_u,

and the dimensionless coefficient delta entering through one tau

    SUPG : tau = delta dx / speed
    LPS  : tau = delta dx  speed
    CIP  : tau = delta dx^2 speed.

The speed is the largest |df/du| over all quadrature points, refreshed on
every residual evaluation, so CIP and LPS are tau times one fixed sparse
matrix.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .elements import local_matrices

NONE = "none"
SUPG = "supg"
CIP = "cip"
LPS = "lps"
STAB_KINDS = (NONE, SUPG, CIP, LPS)

PERIODIC = "periodic"
DIRICHLET = "dirichlet"


class SingularMass(RuntimeError):
    """Mass (or projection) factorization failed."""


class _Inverse:
    """Inverse of a CSC matrix on the block pattern, decided once.

    The matrix counts as diagonal when every off-diagonal magnitude is
    below 1e-12 times the smallest |diagonal| entry (so a zero diagonal
    never does); it is then inverted by a division by ``diag``, otherwise
    factorized once into ``lu``.  ``solve`` takes an (n_nodes, n_comp)
    right-hand side.
    """

    def __init__(self, matrix, diag_pos):
        self.diag, self.lu = matrix.data[diag_pos], None
        offdiag = np.abs(matrix.data)
        offdiag[diag_pos] = 0.0
        if np.max(offdiag) >= 1e-12 * np.min(np.abs(self.diag)):
            self.diag = None
            try:
                self.lu = spla.splu(matrix)
            except RuntimeError as exc:
                raise SingularMass(str(exc)) from exc

    def solve(self, b):
        return b / self.diag[:, None] if self.lu is None else self.lu.solve(b)


@dataclass(frozen=True)
class StabilizationSpec:
    """Stabilization kind plus the dimensionless coefficient delta."""

    kind: str = NONE
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in STAB_KINDS:
            raise ValueError(f"unknown stabilization {self.kind!r}")
        if not 0 <= self.delta < np.inf:
            raise ValueError(f"delta must be nonnegative and finite, got {self.delta}")


@dataclass(frozen=True)
class Mesh1D:
    """Uniform 1D mesh with periodic or Dirichlet ends."""

    x_left: float
    x_right: float
    n_cells: int
    boundary: str = PERIODIC

    def __post_init__(self):
        if self.boundary not in (PERIODIC, DIRICHLET):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.n_cells < 1 or self.x_right <= self.x_left:
            raise ValueError("empty mesh")

    @property
    def dx(self):
        return (self.x_right - self.x_left) / self.n_cells

    def n_nodes(self, degree):
        n = degree * self.n_cells
        return n if self.boundary == PERIODIC else n + 1


def tau_cell(stab, dx, speed):
    """Stabilization time scale for mesh size dx and reference speed.

    SUPG divides by the speed; a vanishing speed there returns tau = 0
    with a warning instead of raising.
    """
    if stab.kind == NONE or stab.delta == 0.0:
        return 0.0
    speed = abs(speed)
    if stab.kind == SUPG:
        if speed == 0.0:
            warnings.warn("SUPG tau with zero speed; returning tau = 0", stacklevel=2)
            return 0.0
        return stab.delta * dx / speed
    if stab.kind == LPS:
        return stab.delta * dx * speed
    return stab.delta * dx**2 * speed  # CIP


class DiscreteSystem:
    """Assembled periodic/Dirichlet system: mass operator plus residual.

    The residual goes through sparse operators built once: ``Q`` and
    ``Qd`` (values and reference derivatives at the quadrature points, their
    transposes the test integrals) and the tau-free matrices of the scheme:
    the Galerkin ``M_galerkin`` and ``C`` = int phi_i dxi phi_j, and the
    stabilization's ``T``, ``S`` and ``P`` (see _stabilization_operators).
    For a linear flux the residual is one CSR matrix and the mass is fixed;
    the Fourier symbols of ``fourier.SymbolBuilder`` are the Bloch folds of
    these same matrices.

    Mass solves and factorizations are counted so tests can assert that
    the deferred-correction stepper never touches the consistent mass.
    """

    def __init__(self, mesh, ref, stab, flux, bc=None):
        self.mesh = mesh
        self.ref = ref
        self.stab = stab
        self.flux = flux
        self.bc = bc
        if mesh.boundary == DIRICHLET and bc is None:
            raise ValueError("Dirichlet mesh needs boundary data")

        p = ref.degree
        self.n_comp = flux.n_comp
        self.n_nodes = mesh.n_nodes(p)
        self.n_mass_solves = 0
        self.n_mass_factorizations = 0

        # connectivity: cell c owns nodes c*p .. c*p+p, last one wrapping
        cells = np.arange(mesh.n_cells)[:, None] * p + np.arange(p + 1)[None, :]
        if mesh.boundary == PERIODIC:
            cells %= self.n_nodes
        self.cell_dofs = cells

        self.node_x = mesh.x_left + mesh.dx * (
            np.repeat(np.arange(mesh.n_cells), p) + np.tile(ref.nodes[:p], mesh.n_cells)
        )
        if mesh.boundary == DIRICHLET:
            self.node_x = np.append(self.node_x, mesh.x_right)

        self.local = local_matrices(ref)
        self.V = ref.eval_basis(ref.quad_points)          # (nq, p+1)
        self.Vd = ref.eval_basis_deriv(ref.quad_points)   # (nq, p+1)
        self.quad_x = mesh.x_left + mesh.dx * (
            np.arange(mesh.n_cells)[:, None] + ref.quad_points[None, :]
        )

        self._setup_block_pattern()
        self.M_galerkin = self._assemble_pairwise(self.local.mass * mesh.dx)
        self.C = self._assemble_pairwise(self.local.deriv)
        # the mass and its row sums (positive for p <= 3), set by _set_mass;
        # None until a state-dependent mass is first built
        self.mass_matrix = self.lumped = self._mass_inverse = None
        if stab.kind == LPS:
            self._proj_inverse = _Inverse(self.M_galerkin, self._diag_pos)

        self.Q = self._quad_operator(self.V)
        self.J = self._setup_jumps() if stab.kind == CIP else None
        self.T, self.S, self.P = self._stabilization_operators()
        mass = self.M_galerkin.data.copy()
        if flux.is_linear:
            # r = R U + R_proj W and the SUPG dt term tau a T for the one Jacobian a
            a = float(flux.jacobian(np.zeros((1, self.n_comp)))[0])
            tau = tau_cell(stab, mesh.dx, a)
            R = -a * self.C
            if self.S is not None:
                R = R - (tau * a * a if stab.kind == SUPG else tau) * self.S
            if self.T is not None:
                mass += tau * a * self.T.data
            self._R, self._R_proj = R.tocsr(), None if self.P is None else tau * self.P
            self.Qd = None
        else:
            # transposes are views on the same arrays, kept because forming
            # one costs more than the matvec it serves
            self.Qd = self._quad_operator(self.Vd)
            self._QT, self._QdT = self.Q.T, self.Qd.T
            self._R = self._R_proj = None
        if not self.mass_is_state_dependent:
            self._set_mass(mass)

    # -- assembly helpers -------------------------------------------------

    def _setup_block_pattern(self):
        """CSC pattern of all cell blocks (shared by every pairwise matrix)
        and the slot ``_block_pos`` of every block entry in it."""
        n, nb = self.n_nodes, self.ref.degree + 1
        shape = (self.mesh.n_cells, nb, nb)
        rows = np.broadcast_to(self.cell_dofs[:, :, None], shape)
        cols = np.broadcast_to(self.cell_dofs[:, None, :], shape)
        keys, self._block_pos = np.unique((cols * n + rows).ravel(), return_inverse=True)
        # keys sort by column, then row: the canonical CSC order
        self._pattern = ((keys % n).astype(np.int32),
                         np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32))
        self._diag_pos = np.searchsorted(keys, np.arange(n) * (n + 1))

    def _assemble_pairwise(self, blocks):
        """Scatter (p+1)x(p+1) blocks, shared or one per cell, into a global matrix."""
        nb = self.ref.degree + 1
        data = np.broadcast_to(blocks, (self.mesh.n_cells, nb, nb)).ravel()
        data = np.bincount(self._block_pos, data, minlength=len(self._pattern[0]))
        return sp.csc_matrix((data,) + self._pattern, shape=(self.n_nodes,) * 2)

    def _quad_operator(self, table):
        """CSR map from the dofs to ``table`` (nq, p+1) applied in every cell."""
        shape = (self.mesh.n_cells,) + table.shape
        data = np.broadcast_to(table, shape).ravel()
        cols = np.broadcast_to(self.cell_dofs[:, None, :], shape).ravel()
        indptr = np.arange(0, data.size + 1, table.shape[1])
        return sp.csr_matrix((data, cols, indptr),
                             shape=(shape[0] * shape[1], self.n_nodes))

    def _setup_jumps(self):
        """Face-jump operator J: (J U)_f = [dx_u] across interior face f."""
        nc = self.mesh.n_cells
        right = np.arange(nc) if self.mesh.boundary == PERIODIC else np.arange(1, nc)
        cols = np.hstack([self.cell_dofs[right - 1], self.cell_dofs[right]])
        row = self.local.jump / self.mesh.dx
        return sp.csr_matrix((np.tile(row, len(right)), cols.ravel(),
                              np.arange(0, cols.size + 1, cols.shape[1])),
                             shape=(len(right), self.n_nodes))

    def _stabilization_operators(self):
        """The tau-free (T, S, P) of the stabilization, None where it has none.

        SUPG: the mass term tau a T, T = int dx_phi_i phi_j, and the linear
        convection term -tau a^2 S, S = int dx_phi_i dx_phi_j.  CIP: -tau S,
        S = J^T J.  LPS: -tau (S U - P W) with S as for SUPG and P = T; a
        diagonal projection W = diag^-1 C U is folded into S."""
        kind = self.stab.kind
        if kind == CIP:
            return None, (self.J.T @ self.J).tocsr(), None
        if kind == NONE:
            return None, None, None
        S = self._assemble_pairwise(self.local.grad_grad / self.mesh.dx)
        T = self._assemble_pairwise(self.local.deriv.T)
        if kind == SUPG:
            return T, S.tocsr(), None
        diag = self._proj_inverse.diag
        if diag is not None:
            return None, (S - T @ sp.diags(1.0 / diag) @ self.C).tocsr(), None
        return None, S.tocsr(), T.tocsr()

    @property
    def mass_is_state_dependent(self):
        return self.stab.kind == SUPG and not self.flux.is_linear

    def _build_mass(self, U):
        """State-dependent mass values on the block pattern: Galerkin plus
        the SUPG dt block of a nonlinear flux."""
        u_q = self.eval_at_quads(U)
        # per cell: tau * sum_q w phi_i' jac phi_j  (dx-free scaling)
        coef = self._tau(u_q) * self.ref.quad_weights * self.flux.jacobian(u_q)
        kernel = self.Vd[:, :, None] * self.V[:, None, :]
        blocks = (coef @ kernel.reshape(len(self.V), -1)).reshape((-1,) + kernel.shape[1:])
        return self.M_galerkin.data + self._assemble_pairwise(blocks).data

    def _tau(self, u_q):
        """tau from the largest |df/du| over the quadrature points."""
        return tau_cell(self.stab, self.mesh.dx, float(self.flux.speed(u_q).max()))

    def _set_mass(self, data):
        """Install mass values given on the block pattern."""
        rows = self._pattern[0]
        if self.mesh.boundary == DIRICHLET:
            data[(rows == 0) | (rows == self.n_nodes - 1)] = 0.0
            data[self._diag_pos[[0, -1]]] = 1.0
        self.lumped = np.bincount(rows, data, minlength=self.n_nodes)
        if np.any(self.lumped <= 0):
            raise SingularMass("lumped mass has nonpositive entries")
        self.mass_matrix = sp.csc_matrix((data,) + self._pattern, shape=(self.n_nodes,) * 2)
        self._mass_inverse = None

    def refresh_mass(self, U=None):
        """Reassemble the SUPG-augmented mass for the current state.

        No-op unless the mass actually depends on the state (nonlinear
        flux with SUPG); steppers call this once per time step so stages
        see a frozen operator.
        """
        if self.mass_is_state_dependent:
            self._set_mass(self._build_mass(U))

    def solve_mass(self, b):
        """M^{-1} b for every component at once; the inverse is built on the
        first solve after each mass update."""
        self.n_mass_solves += 1
        if self._mass_inverse is None:
            self._mass_inverse = _Inverse(self.mass_matrix, self._diag_pos)
            self.n_mass_factorizations += self._mass_inverse.lu is not None
        return self._mass_inverse.solve(b.reshape(self.n_nodes, self.n_comp)).reshape(b.shape)

    def project_gradient(self, U):
        """Global L2 projection w of dx_u."""
        if self.stab.kind != LPS:
            raise ValueError("gradient projection is only defined for LPS systems")
        return self._proj_inverse.solve(self.C @ U.reshape(self.n_nodes, self.n_comp))

    # -- residual ----------------------------------------------------------

    def eval_at_quads(self, U):
        """Solution values at all quadrature points, shape (n_cells, nq, n_comp)."""
        u_q = self.Q @ U.reshape(self.n_nodes, self.n_comp)
        return u_q.reshape(self.mesh.n_cells, -1, self.n_comp)

    def residual(self, U, t=0.0):
        """Spatial right-hand side r(U, t) of M dU/dt = r."""
        U2 = U.reshape(self.n_nodes, self.n_comp)
        if self._R is not None:
            r = self._R @ U2
            if self._R_proj is not None:
                r += self._R_proj @ self.project_gradient(U)
        else:
            dx, w = self.mesh.dx, self.ref.quad_weights[:, None]
            shape = (self.mesh.n_cells, len(w), self.n_comp)
            u_q = (self.Q @ U2).reshape(shape)
            uxi_q = (self.Qd @ U2).reshape(shape)                 # reference gradient
            strong = self.flux.flux_x(u_q, uxi_q) / dx           # dx_f
            if getattr(self.flux, "source", None) is not None:
                strong[..., 1] += self.flux.source(self.quad_x, t)
            # - int phi_i (dx_f + source)
            r = -(self._QT @ (dx * w * strong).reshape(-1, self.n_comp))
            if self.stab.delta > 0 and self.stab.kind == SUPG:
                # a quadrature field tested against dx_phi_i
                test = self._tau(u_q) * w * self.flux.jacobian(u_q)[..., None] * strong
                r -= self._QdT @ test.reshape(-1, self.n_comp)
            elif self.stab.delta > 0 and self.S is not None:
                s_u = self.S @ U2
                if self.P is not None:
                    s_u -= self.P @ self.project_gradient(U)
                r -= self._tau(u_q) * s_u
        if self.mesh.boundary == DIRICHLET:
            r[0] = 0.0
            r[-1] = 0.0
        return r.reshape(U.shape)

    # -- boundary + initialization -----------------------------------------

    def apply_bc(self, U, t):
        """Impose the Dirichlet values strongly at both ends (in place)."""
        if self.mesh.boundary == DIRICHLET and self.bc is not None:
            U2 = U.reshape(self.n_nodes, self.n_comp)
            left, right = self.bc(t)
            U2[0] = left
            U2[-1] = right
        return U

    def interpolate(self, func, t=0.0):
        """Dof vector interpolating ``func(x, t)`` at the element nodes.

        For Lagrange families the dofs are the nodal values; Bernstein
        coefficients come from the cell-local interpolation problem at
        the Greville points, which keeps the p+1 approximation order.
        """
        vals = np.asarray(func(self.node_x, t), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if self.ref.family == "bernstein":
            node_vander = self.ref.eval_basis(self.ref.nodes)
            cells = np.linalg.solve(node_vander, vals[self.cell_dofs])
            out = np.zeros((self.n_nodes, self.n_comp))
            out[self.cell_dofs.ravel()] = cells.reshape(-1, self.n_comp)
            vals = out
        return vals.ravel() if self.n_comp > 1 else vals[:, 0]


def assemble_system(mesh, ref, stab, flux, bc=None):
    """Build the DiscreteSystem for a mesh / element / stabilization / flux."""
    return DiscreteSystem(mesh, ref, stab, flux, bc=bc)


def semi_discrete_energy_rate(system, U):
    """d/dt ||u_h||^2 / 2 = U . r(U) for the linear periodic system.

    Nonpositive for CIP and LPS, zero for the plain Galerkin scheme.  The
    SUPG energy balance lives in a different norm, so it is rejected here.
    """
    if system.stab.kind == SUPG:
        raise ValueError("energy rate in the L2 norm is not meaningful for SUPG")
    if system.mesh.boundary != PERIODIC or not system.flux.is_linear:
        raise ValueError("energy rate contract requires a periodic linear system")
    return float(U @ system.residual(U))
