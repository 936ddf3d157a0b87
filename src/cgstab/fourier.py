"""Fourier symbols, amplification matrices, and mode extraction.

The periodic problem is reduced to the p dofs of one representative cell
(the left boundary node plus the interior ones); the Bloch coupling
U_{K+s} = exp(i s theta) U_K folds every operator of
``stabilization.Operators`` into a p x p complex symbol

    M~(theta) u' = -speed K~(theta) u,

with theta = k dx the reduced wavenumber.  The symbols are folded from the
operators of one small periodic system at unit dx and unit speed (every
stabilization term is exactly linear in the speed by construction of the
delta scalings), so dx and the speed enter only through k and the time
step.

Eigenvalues lambda of M~^{-1} K~ give the semi-discrete phase and damping,
omega = Im(lambda), eps = -Re(lambda).  Fully discrete, the one step
propagator G has eigenvalues mu with

    omega = atan2(-Im mu, Re mu) / dt,   eps = log|mu| / dt.

Every entry point takes theta as a scalar or an array.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elements import build_reference_element
from .stabilization import Mesh1D, Operators
from .timeint import expand_ssprk_coefficients, make_scheme


# ---------------------------------------------------------------------------
# small dense eigenvalue solver (closed forms up to 3x3, LAPACK fallback)
# ---------------------------------------------------------------------------

_OMEGA3 = np.exp(2j * np.pi / 3)

# NumPy computes an operation on a temporary of 256 KiB or more (16,384
# complex values) in place, through a complex multiply loop that rounds
# differently.  Batched work keeps its temporaries below that size, so a
# matrix gets the same bits in a batch of any size.
_ELIDE_VALUES = 16384
# Matrices per closed-form call: every per-matrix temporary stays below it.
_EIG_CHUNK = 4096
# A closed-form eigenvalue set is accepted when its characteristic residual
# is at most this times |A|^n.
_RESIDUAL_TOL = 1e-9


def _eig1(A):
    return A[..., 0, 0][..., None].astype(complex)


def _eig2(A):
    a, b = A[..., 0, 0], A[..., 0, 1]
    c, d = A[..., 1, 0], A[..., 1, 1]
    tr = a + d
    det = a * d - b * c
    s = np.sqrt((tr * tr - 4.0 * det).astype(complex))
    s = np.where(np.real(np.conj(tr) * s) < 0.0, -s, s)
    q = 0.5 * (tr + s)
    lam1 = q
    lam2 = np.where(np.abs(q) > 0.0, det / np.where(q == 0, 1.0, q), tr - q)
    return np.stack([lam1, lam2], axis=-1)


def _eig3(A):
    a00, a01, a02 = A[..., 0, 0], A[..., 0, 1], A[..., 0, 2]
    a10, a11, a12 = A[..., 1, 0], A[..., 1, 1], A[..., 1, 2]
    a20, a21, a22 = A[..., 2, 0], A[..., 2, 1], A[..., 2, 2]
    c2 = a00 + a11 + a22
    c1 = (a00 * a11 - a01 * a10) + (a00 * a22 - a02 * a20) + (a11 * a22 - a12 * a21)
    c0 = (
        a00 * (a11 * a22 - a12 * a21)
        - a01 * (a10 * a22 - a12 * a20)
        + a02 * (a10 * a21 - a11 * a20)
    )
    # lambda^3 + a lambda^2 + b lambda + c, then depressed t^3 + p t + q
    a = -c2
    b = c1
    c = -c0
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    s = np.sqrt((0.25 * q * q + p**3 / 27.0).astype(complex))
    u1 = -0.5 * q + s
    u2 = -0.5 * q - s
    u = np.where(np.abs(u1) >= np.abs(u2), u1, u2)
    C = u.astype(complex) ** (1.0 / 3.0)
    safe = np.abs(C) > 0.0
    Cs = np.where(safe, C, 1.0)
    roots = []
    for k in range(3):
        ck = Cs * _OMEGA3**k
        t = np.where(safe, ck - p / (3.0 * ck), 0.0)
        roots.append(t - a / 3.0)
    return np.stack(roots, axis=-1)


def _char_residual(A, lam):
    """|det(A - lam I)| for each eigenvalue, batched, n <= 3.

    The cofactor expansion reads A's entries directly and shifts only the
    diagonal, so no shifted copy of A is formed.
    """
    n = A.shape[-1]
    a = [[A[..., r, c] for c in range(n)] for r in range(n)]
    out = np.empty(lam.shape)
    for i in range(lam.shape[-1]):
        b = [[a[r][c] - lam[..., i] if r == c else a[r][c] for c in range(n)] for r in range(n)]
        if n == 1:
            det = b[0][0]
        elif n == 2:
            det = b[0][0] * b[1][1] - b[0][1] * b[1][0]
        else:
            det = (
                b[0][0] * (b[1][1] * b[2][2] - b[1][2] * b[2][1])
                - b[0][1] * (b[1][0] * b[2][2] - b[1][2] * b[2][0])
                + b[0][2] * (b[1][0] * b[2][1] - b[1][1] * b[2][0])
            )
        out[..., i] = np.abs(det)
    return out


def eigvals_batched(A):
    """Eigenvalues of complex n x n matrices, 1 <= n <= 3: (..., n, n) -> (..., n).

    Closed forms (quadratic formula, Cardano) solve every matrix; one whose
    characteristic residual exceeds _RESIDUAL_TOL * |A|^n is re-solved by
    LAPACK, and one still above it, or with a NaN or infinite entry, raises
    numpy.linalg.LinAlgError.  The closed forms always run on a batch axis:
    on a lone matrix NumPy's scalar paths would change the last bits.  They
    run in chunks of _EIG_CHUNK matrices, so a matrix gets the same bits in
    a batch of any size.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[-1]
    if A.ndim < 2 or A.shape[-2] != n or not 1 <= n <= 3:
        raise ValueError(f"expected square matrices of size 1 to 3, got shape {A.shape}")
    shape = A.shape[:-1]
    A = A.reshape(-1, n, n)
    lam = np.empty(A.shape[:-1], dtype=complex)
    for i in range(0, len(A), _EIG_CHUNK):
        lam[i:i + _EIG_CHUNK] = _eig_checked(A[i:i + _EIG_CHUNK])
    return lam.reshape(shape)


def _eig_checked(A):
    """Closed-form eigenvalues of a (m, n, n) batch, residual-checked.  A NaN
    residual fails the check, and so does an infinite |A|^n, under which any
    residual would pass."""
    n = A.shape[-1]
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.maximum(np.linalg.norm(A, axis=(-2, -1)) ** n, 1e-300)
        lam = (_eig1, _eig2, _eig3)[n - 1](A)
        limit = _RESIDUAL_TOL * scale[:, None]
        bad = ~np.all(_char_residual(A, lam) <= limit, axis=-1) | (scale == np.inf)
        if np.any(bad):
            if not np.all(np.isfinite(A[bad])):
                raise np.linalg.LinAlgError("non-finite matrix")
            lam[bad] = np.linalg.eigvals(A[bad])
            if np.any(_char_residual(A[bad], lam[bad]) > limit[bad]):
                raise np.linalg.LinAlgError("characteristic residual above tolerance")
    return lam


def phase_damping(lam, dt):
    """Phase and damping of propagator eigenvalues mu over one step dt.

    omega = atan2(-Im mu, Re mu) / dt, so omega dt lies in (-pi, pi], and
    eps = log|mu| / dt, with eps = -inf where mu = 0 (total damping).
    """
    mod = np.abs(lam)
    with np.errstate(divide="ignore"):
        eps = np.where(mod > 0.0, np.log(np.where(mod > 0.0, mod, 1.0)), -np.inf) / dt
    return np.arctan2(-np.imag(lam), np.real(lam)) / dt, eps


def principal_mode(omega, target):
    """Index over the last axis of the mode whose omega is nearest target."""
    return np.argmin(np.abs(omega - target), axis=-1)


# ---------------------------------------------------------------------------
# symbols: Bloch folds of the assembled operators
# ---------------------------------------------------------------------------

# Cells of the periodic system the symbols are folded from.  A row of cell 0
# reaches at most two cells either way (a face-jump product, a diagonal
# projection folded into S), so five cells hold each shift once.
_RING = 5


def _row_blocks(A, p):
    """{s: A[cell 0, cell s]} of a periodic CSC triple with p dofs a cell, in
    ascending s; the zero blocks are left out."""
    data, indices, indptr = A
    dense = np.zeros((len(indptr) - 1,) * 2)
    dense[indices, np.repeat(np.arange(len(dense)), np.diff(indptr))] = data
    cells = len(dense) // p
    rows = dense[:p].reshape(p, cells, p)
    shifts = range(-(cells // 2), cells // 2 + 1)
    return {s: rows[:, s % cells] for s in shifts if rows[:, s % cells].any()}


def _fold(blocks, theta):
    """sum_s B_s exp(i theta s); theta may be an array."""
    theta = np.asarray(theta, dtype=float)
    return sum(np.exp(1j * theta * s)[..., None, None] * block for s, block in blocks.items())


def _affine(base, delta, slope=None):
    """base + delta * slope; delta is a scalar or a 1-D array, whose axis then
    leads the result's.  No slope, or a scalar delta of 0, adds nothing."""
    if np.ndim(delta) == 0:
        return base if slope is None or delta == 0.0 else base + delta * slope
    delta = np.asarray(delta, dtype=float).reshape((-1,) + (1,) * base.ndim)
    if slope is None:
        return np.broadcast_to(base, delta.shape[:1] + base.shape)
    return base + delta * slope


class SymbolBuilder:
    """Per (family, degree, stabilization kind) symbol factory.

    Each symbol is the Bloch fold sum_s A[cell 0, cell s] exp(i theta s) of
    the ``Operators`` of the ring; writing each fold as its matrix, both are
    affine in delta:

        mass(theta, delta) = M_galerkin + delta T
        conv(theta, delta) = C + delta (S - P M_galerkin^-1 C)

    where an operator the stabilization lacks adds nothing.  delta may be a
    1-D array: each operator is then folded once for all of its values, and
    the delta axis leads.
    """

    def __init__(self, family, degree, stab_kind):
        self.ref = build_reference_element(family, degree)
        ring = Operators(Mesh1D(0.0, float(_RING), _RING), self.ref, stab_kind)
        self._mass, self._conv, self._T, self._S, self._P = (
            None if A is None else _row_blocks(A, degree)
            for A in (ring.M_galerkin, ring.C, ring.T, ring.S, ring.P))

    def mass(self, theta, delta):
        slope = None if self._T is None else _fold(self._T, theta)
        return _affine(_fold(self._mass, theta), delta, slope)

    def conv(self, theta, delta):
        c = _fold(self._conv, theta)
        s = None if self._S is None else _fold(self._S, theta)
        if self._P is not None:
            s = s - _fold(self._P, theta) @ np.linalg.solve(_fold(self._mass, theta), c)
        return _affine(c, delta, s)

    def lumped_diag(self, delta):
        """Row sums of the global mass operator (the theta = 0 fold)."""
        m0 = self.mass(np.array(0.0), delta)
        return np.real(m0 @ np.ones(self.ref.degree))


@lru_cache(maxsize=None)
def symbol_builder(family, degree, stab_kind):
    """The SymbolBuilder of one (family, degree, stabilization kind), built once."""
    return SymbolBuilder(family, degree, stab_kind)


@dataclass(frozen=True)
class ModeAnalysis:
    """Per-mode dispersion and damping; the modes run over the last axis."""

    omega_over_k: np.ndarray
    epsilon: np.ndarray
    eigenvalues: np.ndarray
    principal: np.ndarray   # index of the mode whose omega is nearest k


def semidiscrete_modes(family, degree, stab, theta):
    """Semi-discrete modes at unit dx and unit speed: eigenvalues of M~^{-1} K~.

    omega = Im(lambda), eps = -Re(lambda), k = theta; theta may be an array.
    """
    b = symbol_builder(family, degree, stab.kind)
    theta = np.asarray(theta, dtype=float)
    lam = eigvals_batched(np.linalg.solve(b.mass(theta, stab.delta), b.conv(theta, stab.delta)))
    omega, k = np.imag(lam), theta[..., None]
    return ModeAnalysis(omega / k, -np.real(lam), lam, principal_mode(omega, k))


def _dec_cfl_polynomial(M, K, Dvec, config):
    """Coefficient matrices H_q of the DeC propagator G(cfl) = sum_q cfl^q H_q.

    M, K are the symbols at unit dx and unit speed (possibly batched
    ...xpxp), where dt = cfl, and Dvec the real lumped diagonal.  The
    deferred-correction update is iterated with the time step kept
    symbolic, inverting only D as the solver does.  Each sweep raises the
    degree by one, so after sweep s block q > s is zero and is not formed;
    the final degree equals the iteration count.  Block 0 stays exactly I
    (I - P (I - I) is I wherever P is finite), so it is kept as I and its
    product W I is formed once.  The last sweep forms only subtimestep M.
    """
    eye = np.broadcast_to(np.eye(M.shape[-1], dtype=complex), M.shape).copy()
    Dinv = 1.0 / Dvec
    P = Dinv[..., :, None] * M            # D^{-1} M
    W = -(Dinv[..., :, None] * K)          # dt D^{-1} r-symbol per unit cfl
    w_eye = W @ eye
    zeros = np.zeros_like(eye)
    subs = [[eye] for _ in range(config.n_sub + 1)]  # subs[m][q], q <= sweep
    for sweep in range(1, config.n_iter + 1):
        quad = [[w_eye] + [W @ S for S in Sz[1:]] for Sz in subs]  # W @ S_z[q-1]
        new = [subs[0]]                               # the step's start: identity only
        for m in range(1, config.n_sub + 1) if sweep < config.n_iter else (config.n_sub,):
            Sm = subs[m]
            out = [eye]
            for q in range(1, sweep + 1):
                acc = Sm[q] - P @ Sm[q] if q < sweep else zeros
                for z, rho in enumerate(config.rho[m - 1]):
                    if rho != 0.0 and q <= len(quad[z]):
                        acc = acc + rho * quad[z][q - 1]
                out.append(acc)
            new.append(out)
        subs = new
    return np.stack(subs[-1], axis=0)  # (n_iter + 1, ..., p, p)


def amplification_matrix(family, degree, stab, scheme_kind, theta, cfl):
    """Fully discrete one-step propagator G at unit dx and unit speed, so dt = cfl.

    theta may be an array, G then has shape theta.shape + (p, p).  RK and
    SSPRK use the expanded stability-polynomial form; deferred correction
    evaluates the cfl polynomial of the iterated matrix update (the one
    the scans use), with the lumped diagonal taken from the row sums of
    the (possibly stabilized) mass symbol.
    """
    b = symbol_builder(family, degree, stab.kind)
    scheme = make_scheme(scheme_kind, degree + 1)
    theta = np.asarray(theta, dtype=float)
    M, K = b.mass(theta, stab.delta), b.conv(theta, stab.delta)
    if scheme.kind == "dec":
        H = _dec_cfl_polynomial(M, K, b.lumped_diag(stab.delta), scheme.tableau)
        return np.tensordot(cfl ** np.arange(len(H)), H, axes=1)
    Z = -cfl * np.linalg.solve(M, K)   # dt times the ODE operator
    G = Zp = np.eye(degree, dtype=complex)
    for nu_j in expand_ssprk_coefficients(scheme.tableau):
        Zp = Zp @ Z
        G = G + nu_j * Zp
    return G

