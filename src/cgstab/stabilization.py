"""Global semi-discrete systems: mass operator, residual, stabilization.

The weak form is used in its strong-residual shape: for every test
function phi_i,

    r_i(U, t) = -int phi_i d/dx f(u_h) dx - S_i(u_h) - int phi_i source dx,

with S one of

    SUPG : sum_K int_K (df/du dx_phi_i) tau_K (dt_u + dx_f + source),
           the dt part entering the mass operator,
    CIP  : sum over interior faces of tau_f [dx_phi_i] [dx_u],
    LPS  : sum_K tau_K int_K dx_phi_i (dx_u - w),  w the global L2
           projection of dx_u,

and the dimensionless coefficient delta entering through

    SUPG : tau_K = delta dx / speed
    LPS  : tau_K = delta dx  speed
    CIP  : tau_f = delta dx^2 speed.

Cell speeds are the per-cell maximum of |df/du| over quadrature points,
refreshed on every residual evaluation; for faces the larger of the two
adjacent cell values is used.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .elements import CUBATURE, local_matrices

NONE = "none"
SUPG = "supg"
CIP = "cip"
LPS = "lps"
STAB_KINDS = (NONE, SUPG, CIP, LPS)

PERIODIC = "periodic"
DIRICHLET = "dirichlet"


class SingularMass(RuntimeError):
    """Mass (or projection) factorization failed."""


@dataclass(frozen=True)
class StabilizationSpec:
    """Stabilization kind plus the dimensionless coefficient delta.

    ``speed_ref`` picks the reference |df/du| entering tau for nonlinear
    fluxes: "global" (default) uses the instantaneous maximum over the
    whole mesh, "cell" the per-cell quadrature maximum.  The global choice
    keeps the stabilization active where the local wave speed vanishes
    (e.g. at the center of the Burgers tanh profile) and reproduces the
    reference convergence orders; both coincide for linear fluxes.
    """

    kind: str = NONE
    delta: float = 0.0
    speed_ref: str = "global"

    def __post_init__(self):
        if self.kind not in STAB_KINDS:
            raise ValueError(f"unknown stabilization {self.kind!r}")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.speed_ref not in ("global", "cell"):
            raise ValueError(f"unknown speed reference {self.speed_ref!r}")


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
    """Stabilization time scale for one cell (or face, for CIP).

    SUPG divides by the speed; a vanishing speed there returns tau = 0
    with a warning instead of raising.
    """
    if stab.kind == NONE or stab.delta == 0.0:
        return np.zeros_like(np.asarray(speed, dtype=float)) if np.ndim(speed) else 0.0
    if stab.kind == SUPG:
        speed_arr = np.asarray(speed, dtype=float)
        if np.any(speed_arr == 0.0):
            warnings.warn("SUPG tau with zero speed; returning tau = 0", stacklevel=2)
        with np.errstate(divide="ignore"):
            tau = np.where(speed_arr == 0.0, 0.0, stab.delta * dx / np.abs(speed_arr))
        return tau if np.ndim(speed) else float(tau)
    if stab.kind == LPS:
        return stab.delta * dx * np.abs(speed)
    return stab.delta * dx**2 * np.abs(speed)  # CIP


class DiscreteSystem:
    """Assembled periodic/Dirichlet system: mass operator plus residual.

    The residual goes through sparse operators built once: ``Q`` and
    ``Qd`` (values and reference derivatives at the quadrature points, their
    transposes the test integrals) and ``J`` (face gradient jumps, CIP); for
    a linear flux it is one CSR matrix.

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
        self._mass_matrix = None
        self._lumped = None
        self._setup_lps()

        self.Q = self._quad_operator(self.V)
        self.J = self._setup_jumps() if stab.kind == CIP else None
        if flux.is_linear:
            self._R, self._R_proj = self._linear_residual_operators()
            self.Qd = self.J = None
        else:
            # transposes are views on the same arrays, kept because forming
            # one costs more than the matvec it serves
            self.Qd = self._quad_operator(self.Vd)
            self._QT, self._QdT = self.Q.T, self.Qd.T
            self._JT = None if self.J is None else self.J.T
            self._R = self._R_proj = None
        if not self.mass_is_state_dependent:
            self._set_mass(self._build_mass(np.zeros(self.n_nodes * self.n_comp)))

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
        self._face_cells = (right - 1) % nc, right        # (left, right) cell of face
        cols = np.hstack([self.cell_dofs[right - 1], self.cell_dofs[right]])
        row = self.local.jump / self.mesh.dx
        return sp.csr_matrix((np.tile(row, len(right)), cols.ravel(),
                              np.arange(0, cols.size + 1, cols.shape[1])),
                             shape=(len(right), self.n_nodes))

    def _linear_residual_operators(self):
        """R and (consistent LPS projection) R_proj with r = R U + R_proj W.

        With one Jacobian a and one tau every term is a multiple of a local
        matrix or of J^T J; a lumped LPS projection is folded into R."""
        dx, stab, local = self.mesh.dx, self.stab, self.local
        a = float(self.flux.jacobian(np.zeros((1, self.n_comp)))[0])
        tau = tau_cell(stab, dx, abs(a))
        block, R_proj = -a * local.deriv, None                   # -int phi (a dx_u)
        if stab.kind == SUPG:
            block = block - tau * a * a / dx * local.grad_grad
        elif stab.kind == LPS:
            block = block - tau / dx * local.grad_grad
            R_proj = tau * self._assemble_pairwise(local.deriv.T)
        R = self._assemble_pairwise(block)
        if stab.kind == CIP:
            R = R - tau * (self.J.T @ self.J)
        if R_proj is not None and self._proj_diag is not None:
            R, R_proj = R + R_proj @ sp.diags(1.0 / self._proj_diag) @ self._lps_weak_grad, None
        return R.tocsr(), R_proj

    @property
    def mass_is_state_dependent(self):
        return self.stab.kind == SUPG and not self.flux.is_linear

    def _build_mass(self, U):
        """Mass values on the block pattern: Galerkin plus the SUPG dt block."""
        if self.stab.kind != SUPG:
            return self.M_galerkin.data.copy()
        u_q = self.eval_at_quads(U)
        # per cell: tau_c * sum_q w phi_i' jac phi_j  (dx-free scaling)
        coef = self._tau(u_q)[:, None] * self.ref.quad_weights * self.flux.jacobian(u_q)
        kernel = self.Vd[:, :, None] * self.V[:, None, :]
        blocks = (coef @ kernel.reshape(len(self.V), -1)).reshape((-1,) + kernel.shape[1:])
        return self.M_galerkin.data + self._assemble_pairwise(blocks).data

    def _tau(self, u_q):
        """tau per cell, or per interior face for CIP (larger adjacent cell
        speed); cell speeds honor stab.speed_ref."""
        s = self.flux.speed(u_q)
        if self.stab.speed_ref == "global":
            speed = np.full(self.mesh.n_cells, float(s.max()))
        else:
            speed = s.max(axis=1)
        if self.stab.kind == CIP:
            left, right = self._face_cells
            speed = np.maximum(speed[left], speed[right])
        return np.asarray(tau_cell(self.stab, self.mesh.dx, speed))

    def _set_mass(self, data):
        """Install mass values given on the block pattern."""
        rows = self._pattern[0]
        if self.mesh.boundary == DIRICHLET:
            data[(rows == 0) | (rows == self.n_nodes - 1)] = 0.0
            data[self._diag_pos[[0, -1]]] = 1.0
        self._lumped = np.bincount(rows, data, minlength=self.n_nodes)
        if np.any(self._lumped <= 0):
            raise SingularMass("lumped mass has nonpositive entries")
        self._mass_matrix = sp.csc_matrix((data,) + self._pattern, shape=(self.n_nodes,) * 2)
        offdiag = np.abs(data)
        offdiag[self._diag_pos] = 0.0
        self._mass_is_diagonal = np.max(offdiag) < 1e-15
        self._mass_diag = data[self._diag_pos] if self._mass_is_diagonal else None
        self._mass_solver = None

    def refresh_mass(self, U=None):
        """Reassemble the SUPG-augmented mass for the current state.

        No-op unless the mass actually depends on the state (nonlinear
        flux with SUPG); steppers call this once per time step so stages
        see a frozen operator.
        """
        if self.mass_is_state_dependent:
            self._set_mass(self._build_mass(U))

    @property
    def mass_matrix(self):
        return self._mass_matrix

    @property
    def lumped(self):
        """Row sums of the full mass operator (positive for p <= 3)."""
        return self._lumped

    def solve_mass(self, b):
        """M^{-1} b, one solve per component; the factorization is reused."""
        self.n_mass_solves += 1
        b2 = b.reshape(self.n_nodes, self.n_comp)
        if self._mass_is_diagonal:
            return (b2 / self._mass_diag[:, None]).reshape(b.shape)
        if self._mass_solver is None:
            self.n_mass_factorizations += 1
            try:
                self._mass_solver = spla.splu(self._mass_matrix.tocsc())
            except RuntimeError as exc:  # pragma: no cover - defensive
                raise SingularMass(str(exc)) from exc
        out = np.column_stack(
            [self._mass_solver.solve(np.ascontiguousarray(b2[:, c])) for c in range(self.n_comp)]
        )
        return out.reshape(b.shape)

    # -- LPS projection ----------------------------------------------------

    def _setup_lps(self):
        self._proj_solver = None
        if self.stab.kind != LPS:
            self._lps_weak_grad = None
            return
        self._lps_weak_grad = self._assemble_pairwise(self.local.deriv)
        if self.ref.family == CUBATURE:
            self._proj_diag = np.asarray(self.M_galerkin.sum(axis=1)).ravel()
        else:
            self._proj_diag = None
            try:
                self._proj_solver = spla.splu(self.M_galerkin.tocsc())
            except RuntimeError as exc:  # pragma: no cover - defensive
                raise SingularMass(str(exc)) from exc

    def project_gradient(self, U):
        """Global L2 projection w of dx_u, one solve per component."""
        if self.stab.kind != LPS:
            raise ValueError("gradient projection is only defined for LPS systems")
        U2 = U.reshape(self.n_nodes, self.n_comp)
        rhs = self._lps_weak_grad @ U2
        if self._proj_diag is not None:
            return rhs / self._proj_diag[:, None]
        return np.column_stack(
            [self._proj_solver.solve(np.ascontiguousarray(rhs[:, c])) for c in range(self.n_comp)]
        )

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
            if self.stab.delta > 0 and self.stab.kind == CIP:
                r -= self._JT @ (self._tau(u_q)[:, None] * (self.J @ U2))
            elif self.stab.delta > 0 and self.stab.kind != NONE:
                # SUPG / LPS: a quadrature field tested against dx_phi_i
                tau_w = self._tau(u_q)[:, None, None] * w
                if self.stab.kind == SUPG:
                    test = tau_w * self.flux.jacobian(u_q)[..., None] * strong
                else:
                    w_q = (self.Q @ self.project_gradient(U)).reshape(shape)
                    test = tau_w * (uxi_q / dx - w_q)
                r -= self._QdT @ test.reshape(-1, self.n_comp)
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
