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


# SuperLU's setting for structurally symmetric patterns, which every block
# pattern is: minimum degree on A^T + A, and a diagonal pivot whenever it is
# at least 0.1 of the column's largest entry.  Without the threshold the
# Bernstein p = 3 nonlinear SUPG mass pivots off the diagonal and its fill
# grows with the mesh.
_SPLU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.1}


def _diagonal(data, diag_pos):
    """The diagonal of CSC values on the block pattern, or None unless
    every off-diagonal magnitude is below 1e-12 times the smallest
    |diagonal| entry (so a zero diagonal never counts)."""
    diag, offdiag = data[diag_pos], np.abs(data)
    offdiag[diag_pos] = 0.0
    return None if np.max(offdiag) >= 1e-12 * np.min(np.abs(diag)) else diag


def _outer_sum(n, dofs, u, v, reach, plus=None):
    """The CSC triple of the nonzero entries of sum_q u_q v_q^T, u_q and v_q
    on the dofs of row q of (Q, m) tables, no two of a row more than
    ``reach`` apart, then ``plus`` (cols, rows, values) added.  Entry (row,
    col) sums in slot (row - col + reach) mod n of column col of a band;
    np.add.at adds each term in turn, in chunks that bound the temporaries,
    so every entry is summed in ascending q: the bits and, with no zero
    kept, the pattern of scipy's sparse products."""
    width = 2 * reach + 1
    band = np.zeros((n, width))
    for q in range(0, len(dofs), 4096):
        row, col = dofs[q:q + 4096, :, None], dofs[q:q + 4096, None, :]
        np.add.at(band.reshape(-1), (col * width + (row - col + reach) % n).ravel(),
                  (u[q:q + 4096, :, None] * v[q:q + 4096, None, :]).ravel())
    if plus is not None:
        col, row, values = plus
        band[col, (row - col + reach) % n] += values
    col, off = np.divmod(np.flatnonzero(band), width)
    row = (col + off - reach) % n
    order = np.argsort(col * n + row, kind="stable")   # moves only the rows a seam wraps
    return (band[col, off][order], row[order].astype(np.int32),
            np.searchsorted(col, np.arange(n + 1)).astype(np.int32))


class _Inverse:
    """Inverse of a scipy CSC matrix on the block pattern, decided once.

    A ``_diagonal`` matrix is inverted by a division by ``diag``, any other
    factorized once into ``lu`` with ``_SPLU_OPTIONS``.  ``solve`` takes an
    (n_nodes, n_comp) right-hand side.  The first factorization loads
    ``scipy.sparse.linalg`` (10 MB and 0.2 s beyond ``scipy.sparse``), so a
    run whose matrices are all diagonal never loads it.
    """

    def __init__(self, matrix, diag_pos):
        self.diag, self.lu = _diagonal(matrix.data, diag_pos), None
        if self.diag is None:
            from scipy.sparse.linalg import splu
            try:
                self.lu = splu(matrix, **_SPLU_OPTIONS)
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


class Operators:
    """The tau-free operators of one mesh, element and stabilization kind.

    ``cell_dofs[c]`` are the dofs c*p .. c*p+p of cell c, wrapping on a
    periodic mesh, and every pairwise matrix is a CSC triple (data,
    indices, indptr) of numpy arrays: ``M_galerkin`` = int phi_i phi_j and
    ``C`` = int phi_i dxi phi_j on the pattern of all cell blocks, and the
    stabilization's ``T``, ``S``, ``P`` (see _stabilization_operators).  One
    the kind lacks is None.  A nonlinear flux (``linear=False``) integrates
    at the quadrature points: it has no SUPG ``T`` and ``S``, nor ``C``
    without LPS.  The Fourier symbols are their Bloch folds.
    """

    def __init__(self, mesh, ref, kind, linear=True):
        self.mesh = mesh
        self.ref = ref
        p = ref.degree
        self.n_nodes = n = mesh.n_nodes(p)   # the modulus below wraps a periodic mesh only
        self.cell_dofs = cells = (np.arange(mesh.n_cells)[:, None] * p + np.arange(p + 1)) % n
        self.local = local_matrices(ref)
        # the CSC pattern of all cell blocks, shared by every pairwise matrix,
        # its sorted keys and the slot of every block entry in it
        self._keys, self._block_pos = np.unique((cells[:, None, :] * n + cells[:, :, None]).ravel(),
                                                return_inverse=True)
        # keys sort by column, then row: the canonical CSC order
        self._pattern = ((self._keys % n).astype(np.int32),
                         np.searchsorted(self._keys, np.arange(n + 1) * n).astype(np.int32))
        self._diag_pos = np.searchsorted(self._keys, np.arange(n) * (n + 1))
        self.M_galerkin = self._assemble_pairwise(self.local.mass * mesh.dx)
        # read by the linear residual and the LPS projection only
        self.C = self._assemble_pairwise(self.local.deriv) if linear or kind == LPS else None
        self.T, self.S, self.P = self._stabilization_operators(kind, linear)

    def _assemble_pairwise(self, blocks):
        """The CSC triple of (p+1)x(p+1) blocks, shared or one per cell,
        summed on the block pattern."""
        nb = self.ref.degree + 1
        data = np.broadcast_to(blocks, (self.mesh.n_cells, nb, nb)).ravel()
        return (np.bincount(self._block_pos, data, minlength=len(self._keys)),) + self._pattern

    def _stabilization_operators(self, kind, linear):
        """The tau-free (T, S, P) of the stabilization, None where it has none.

        SUPG: the mass term tau a T, T = int dx_phi_i phi_j, and the linear
        convection term -tau a^2 S, S = int dx_phi_i dx_phi_j.  CIP: -tau S,
        S = J^T J.  LPS: -tau (S U - P W) with S as for SUPG and P = T; a
        diagonal projection W = diag^-1 C U is folded into S.  Both products
        keep scipy's bits: J^T J is summed face by face on the dofs of the
        face's two cells, T diag^-1 C over k ascending."""
        n, dx, p = self.n_nodes, self.mesh.dx, self.ref.degree
        if kind == CIP:   # a face left of each cell, but the first on a Dirichlet mesh
            right = np.arange(self.mesh.boundary == DIRICHLET, self.mesh.n_cells)
            patch = np.hstack([self.cell_dofs[right - 1], self.cell_dofs[right]])
            jump = np.broadcast_to(self.local.jump / dx, patch.shape)
            return None, _outer_sum(n, patch, jump, jump, 2 * p), None
        if kind == NONE or (kind == SUPG and not linear):
            return None, None, None
        S = self._assemble_pairwise(self.local.grad_grad / dx)
        T = self._assemble_pairwise(self.local.deriv.T)
        if kind == SUPG:
            return T, S, None
        diag = _diagonal(self.M_galerkin[0], self._diag_pos)
        if diag is None:
            return None, S, T
        # S + sum_k (T[:, k] / -diag[k]) T[:, k]^T is S - T diag^-1 C (C = T^T, negation
        # is exact); row k of the tables: the dofs k-p .. k+p and T[k-p .. k+p, k]
        col, rows = np.divmod(self._keys, n)
        dofs = (np.arange(n)[:, None] + np.arange(-p, p + 1)) % n
        t = np.zeros(dofs.shape)
        t[col, (rows - col + p) % n] = T[0]
        return None, _outer_sum(n, dofs, t * (-1.0 / diag)[:, None], t, 2 * p,
                                (col, rows, S[0])), None


class DiscreteSystem(Operators):
    """Assembled periodic/Dirichlet system: mass operator plus residual.

    ``Operators`` with a flux, tau, mass and boundary data, and the
    quadrature operators ``Q`` and ``Qd`` (values and reference derivatives
    at the quadrature points), whose operators are scipy matrices (``S`` and
    ``P`` CSR, the others CSC).  A linear flux's residual is one CSR matrix
    and its mass is fixed.  Mass solves and factorizations are counted so
    tests can assert that DeC never touches the consistent mass.
    """

    def __init__(self, mesh, ref, stab, flux, bc=None):
        if mesh.boundary == DIRICHLET and bc is None:
            raise ValueError("Dirichlet mesh needs boundary data")
        super().__init__(mesh, ref, stab.kind, flux.is_linear)
        import scipy.sparse as sp   # here, not at module level: a scan never loads it
        csc = [None if A is None else sp.csc_matrix(A, shape=(self.n_nodes,) * 2)
               for A in (self.M_galerkin, self.C, self.T, self.S, self.P)]
        self.M_galerkin, self.C, self.T = csc[:3]
        self.S, self.P = (None if A is None else A.tocsr() for A in csc[3:])
        self.stab = stab
        self.flux = flux
        self.bc = bc
        p = ref.degree
        self.n_comp = flux.n_comp
        self.n_mass_solves = 0
        self.n_mass_factorizations = 0

        self.node_x = mesh.x_left + mesh.dx * (
            np.repeat(np.arange(mesh.n_cells), p) + np.tile(ref.nodes[:p], mesh.n_cells)
        )
        if mesh.boundary == DIRICHLET:
            self.node_x = np.append(self.node_x, mesh.x_right)
        self.V = ref.eval_basis(ref.quad_points)          # (nq, p+1)
        self.Vd = ref.eval_basis_deriv(ref.quad_points)   # (nq, p+1)
        self.quad_x = mesh.x_left + mesh.dx * (
            np.arange(mesh.n_cells)[:, None] + ref.quad_points[None, :]
        )

        # the mass and its row sums (positive for p <= 3), set by _set_mass;
        # None until a state-dependent mass is first built
        self.mass_matrix = self.lumped = self._mass_inverse = None
        if stab.kind == LPS:
            self._proj_inverse = _Inverse(self.M_galerkin, self._diag_pos)

        self.Q = self._quad_operator(self.V)
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

    def _quad_operator(self, table):
        """CSR map from the dofs to ``table`` (nq, p+1) applied in every cell."""
        import scipy.sparse as sp
        shape = (self.mesh.n_cells,) + table.shape
        data = np.broadcast_to(table, shape).ravel()
        cols = np.broadcast_to(self.cell_dofs[:, None, :], shape).ravel()
        indptr = np.arange(0, data.size + 1, table.shape[1])
        return sp.csr_matrix((data, cols, indptr),
                             shape=(shape[0] * shape[1], self.n_nodes))

    @property
    def autonomous(self):
        """True iff r(U, t) does not read t: the flux has no source, the only
        term of ``residual`` that does (``apply_bc`` imposes the boundary data)."""
        return getattr(self.flux, "source", None) is None

    @property
    def mass_is_state_dependent(self):
        return self.stab.kind == SUPG and not self.flux.is_linear

    def _build_mass(self, U):
        """State-dependent mass values on the block pattern: Galerkin plus
        the SUPG dt block of a nonlinear flux."""
        u_q = self.eval_at_quads(U)
        # per cell: tau * sum_q w phi_i' jac phi_j  (dx-free scaling)
        tau = tau_cell(self.stab, self.mesh.dx, self.flux.max_speed(u_q))
        coef = tau * self.ref.quad_weights * self.flux.jacobian(u_q)
        kernel = self.Vd[:, :, None] * self.V[:, None, :]
        blocks = (coef @ kernel.reshape(len(self.V), -1)).reshape((-1,) + kernel.shape[1:])
        return self.M_galerkin.data + self._assemble_pairwise(blocks)[0]

    def _set_mass(self, data):
        """Install mass values given on the block pattern."""
        import scipy.sparse as sp
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
            if not self.autonomous:
                strong[..., 1] += self.flux.source(self.quad_x, t)
            # - int phi_i (dx_f + source)
            r = -(self._QT @ (dx * w * strong).reshape(-1, self.n_comp))
            if self.stab.delta > 0 and self.stab.kind == SUPG:
                # a quadrature field tested against dx_phi_i
                tau = tau_cell(self.stab, dx, self.flux.max_speed(u_q))
                test = tau * w * self.flux.jacobian(u_q)[..., None] * strong
                r -= self._QdT @ test.reshape(-1, self.n_comp)
            elif self.stab.delta > 0 and self.S is not None:
                s_u = self.S @ U2
                if self.P is not None:
                    s_u -= self.P @ self.project_gradient(U)
                r -= tau_cell(self.stab, dx, self.flux.max_speed(u_q)) * s_u
        if self.mesh.boundary == DIRICHLET:
            r[0] = 0.0
            r[-1] = 0.0
        return r.reshape(U.shape)

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
    """The DiscreteSystem; kept as the name bench/spans.py wraps to time assembly."""
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
