"""(CFL, delta) parameter scans: stability masks, error functionals, optima.

A scan sweeps a geometric (CFL, delta) grid for one combination of element
family, degree, stabilization and time scheme.  Wavenumbers are sampled on
the resolvable range k dx_p in (0, 2pi/3] with dx_p = 1 (at least three
dofs per wavelength); the same samples feed both the stability mask
(unstable iff any mode has eps = log|lambda|/dt > 1e-12) and the two error
functionals

    eta_u^2 = 3/(2pi) [ int (e^eps - 1)^2 dk + int e^eps (w - w_ex)^2 dk ]
    eta_w^2 = int ((w - w_ex)/w_ex)^2 dk,

evaluated on the principal mode with w_ex = k.  The reduced angles
theta = p k reach 2pi p/3, so for p >= 2 samples pair up across the half
turn: the symbols and the propagator at 2pi - theta are the conjugates of
those at theta.  A scan solves one sample of each pair and mirrors the
other (omega -> -omega, eps as is).  Three selection strategies
are offered: plain CFL maximization over the stable cells, and CFL
maximization subject to eta <= mu * min(eta) for either functional
(mu = 1.3 by default).  Ties prefer the largest delta, matching how the
reference tables mark ambiguous optima.

Results are speed invariant: the scan runs at unit advection speed and
unit dof spacing, and the per-cell CFL convention makes dt = cfl * dx.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .fourier import (_EIG_CHUNK, _ELIDE_VALUES, DEFAULT_CONVENTION, EigenSolveFailure,
                      _dec_cfl_polynomial, dt_scale, eigvals_batched, phase_damping,
                      principal_mode, symbol_builder)
from .timeint import expand_ssprk_coefficients, make_scheme

K_MAX = 2.0 * np.pi / 3.0
EPS_TOL = 1e-12
_PROBE_STRIDE = 10


class NoStableRegion(RuntimeError):
    """The stability mask is empty for this combination."""


def geometric_grid(lo, hi, ratio=1.03):
    """Geometric grid ratio^n covering [lo, hi], anchored at 1."""
    if not (np.isfinite([lo, hi, ratio]).all() and ratio > 1.0 and hi > lo > 0.0):
        raise ValueError(f"need finite ratio > 1 and 0 < lo < hi, got {lo}, {hi}, {ratio}")
    n_lo = int(np.ceil(np.log(lo) / np.log(ratio) - 1e-12))
    n_hi = int(np.floor(np.log(hi) / np.log(ratio) + 1e-12))
    return ratio ** np.arange(n_lo, n_hi + 1, dtype=float)


@dataclass(frozen=True)
class ScanGrid:
    """Grids for the (CFL, delta) sweep plus the wavenumber sample count."""

    cfl_values: np.ndarray
    delta_values: np.ndarray
    theta_samples: int = 100

    def __post_init__(self):
        for vals in (self.cfl_values, self.delta_values):
            v = np.asarray(vals, dtype=float)
            if v.ndim != 1 or len(v) == 0 or np.any(np.diff(v) <= 0) or v[0] <= 0:
                raise ValueError("grids must be strictly increasing and positive")
        if self.theta_samples < 2:
            raise ValueError(f"need at least 2 wavenumber samples, got {self.theta_samples}")

    @classmethod
    def default(cls, cfl_min=0.01, cfl_max=4.0, delta_min=1e-4, delta_max=4.0,
                grid_ratio=1.03, theta_samples=100):
        """Grids matching the reference tables (ratio 1.03, anchored at 1)."""
        return cls(geometric_grid(cfl_min, cfl_max, grid_ratio),
                   geometric_grid(delta_min, delta_max, grid_ratio), theta_samples)


@dataclass
class Combination:
    """One (family, degree, stabilization, time scheme) configuration."""

    family: str
    degree: int
    stab_kind: str
    scheme_kind: str

    def label(self):
        return f"{self.family}-p{self.degree}-{self.stab_kind}-{self.scheme_kind}"


@dataclass
class ScanResult:
    combination: Combination
    grid: ScanGrid
    stable: np.ndarray        # (n_cfl, n_delta) bool
    eta_u: np.ndarray         # NaN where unstable
    eta_w: np.ndarray
    optima: dict              # strategy -> dict(cfl, delta, objective, monotone_safe)
    convention: str = DEFAULT_CONVENTION
    mu: float = 1.3
    eig_failures: int = 0

    def to_json(self, fh):
        """Write the scan as indented JSON to the text stream ``fh``, one CFL
        row of the (n_cfl, n_delta) arrays at a time, so the text held in
        memory is one row whatever the grid.  The bytes are those of
        ``json.dumps(..., indent=1)`` with non-finite array values written
        as null, and no newline ends them; the arrays skip the pure-Python
        encoder of ``json``.  The ``max_cfl`` objective is written as a bare
        NaN, which Python's ``json`` reads and a strict parser rejects."""
        rows = {"stable": (row.astype(int) for row in self.stable),
                "eta_u": self.eta_u, "eta_w": self.eta_w}
        payload = {
            "combination": vars(self.combination),
            "convention": self.convention,
            "mu": self.mu,
            "cfl_values": self.cfl_values.tolist(),
            "delta_values": self.delta_values.tolist(),
            "theta_samples": self.grid.theta_samples,
            **{key: "@" + key for key in rows},
            "optima": self.optima,
            "eig_failures": self.eig_failures,
        }
        text = json.dumps(payload, indent=1)
        for key, values in rows.items():
            head, text = text.split(f'"{key}": "@{key}"', 1)
            fh.write(f'{head}"{key}": ')
            sep = "[\n  [\n   "
            for row in values:
                fh.write(sep + _json_row(row))
                sep = "\n  ],\n  [\n   "
            fh.write("\n  ]\n ]")
        fh.write(text)

    @property
    def cfl_values(self):
        return self.grid.cfl_values

    @property
    def delta_values(self):
        return self.grid.delta_values

    def mask_csv(self, fh):
        """Write the mask CSV, one line per cell, to the text stream ``fh``,
        one CFL row at a time, so the text held in memory is one row
        whatever the grid."""
        fh.write(f"# {self.combination.label()}\n# convention={self.convention}\n"
                 "cfl,delta,stable,eta_u,eta_w\n")
        deltas = [f"{d:.12g}" for d in self.delta_values.tolist()]
        for cfl, st, eu, ew in zip(self.cfl_values.tolist(), self.stable, self.eta_u, self.eta_w):
            fh.write(_csv_row(cfl, deltas, st, eu, ew))


def _json_row(row):
    """One row of a 2-D array as ``json.dumps(..., indent=1)`` writes it in
    a value of the top-level object.  ``json`` writes floats by ``repr``,
    and no finite repr holds "nan" or "inf", so only those become null."""
    text = ",\n   ".join(map(repr, row.tolist()))
    return text.replace("-inf", "null").replace("inf", "null").replace("nan", "null")


def _csv_row(cfl, deltas, stable, eta_u, eta_w):
    """The mask CSV lines of one CFL row, each ending in a newline."""
    c = f"{cfl:.12g}"
    return "".join(f"{c},{d},{int(s)},{u:.12g},{w:.12g}\n"
                   for d, s, u, w in zip(deltas, stable.tolist(), eta_u.tolist(), eta_w.tolist()))


def _wavenumbers(n):
    return K_MAX * np.arange(1, n + 1) / n


def _half_turn(n, p):
    """Which of the n wavenumber samples to solve, and how to fill the rest.

    Sample j = 1..n sits at theta_j = p k_j = 2 pi p j / (3n).  When 3n is
    divisible by p, sample 3n/p - j sits at 2 pi - theta_j, where every
    symbol and propagator is the conjugate; of such a pair the one with
    the smaller j is solved.  Returns (kept, src, mirrored): the 0-based
    samples solved, each sample's position among them and whether it is
    its source's conjugate.
    """
    j = np.arange(1, n + 1)
    partner = 3 * n // p - j if (3 * n) % p == 0 else np.zeros_like(j)
    mirrored = (partner >= 1) & (partner < j)
    kept = np.flatnonzero(~mirrored)
    src = np.searchsorted(kept, np.where(mirrored, partner, j) - 1)
    return kept, src, mirrored


def _mode_fields(comb, theta, cfls, scale, deltas, bound):
    """Stable rows and lambda(G) on them for a block of delta values of the
    combination ``comb``: an iterator of (rows, lam[rows]), one per delta,
    in order.

    The one producer of propagator eigenvalues: the scans and ``cgstab
    modes`` (one cfl, an infinite bound, a block of one delta) both call
    it.  lam holds every (cfl, theta, mode), shape (n_cfl, n_theta, p); a
    row is stable iff every |lambda| <= bound[row].

    The call folds the symbols of the whole block.  For an RK scheme it
    solves the eigenvalues of M^-1 K there, and the stability polynomial
    is evaluated one delta at a time as the iterator advances.  Deferred
    correction evaluates the cfl polynomial of its iterated update at
    every _PROBE_STRIDE-th wavenumber of the block and solves it there on
    the call.  As the iterator advances, a delta with a row stable there
    evaluates it at the other wavenumbers (one delta at a time, which
    bounds the polynomial's temporaries), and only its stable rows solve
    them; a delta with none forms nothing more.
    """
    b = symbol_builder(comb.family, comb.degree, comb.stab_kind)
    scheme = make_scheme(comb.scheme_kind, comb.degree + 1)
    M = b.mass(theta, deltas)
    Kt = b.conv(theta, deltas)
    if scheme.kind != "dec":
        nu = expand_ssprk_coefficients(scheme.tableau)
        lamA = eigvals_batched(np.linalg.solve(M, Kt))    # (n_delta, n_theta, p)
        return (_rk_fields(nu, -scale * np.multiply.outer(cfls, a), bound) for a in lamA)
    probe = np.zeros(len(theta), dtype=bool)
    probe[_PROBE_STRIDE - 1::_PROBE_STRIDE] = True
    D = b.lumped_diag(deltas)[:, None]
    Hp = _dec_cfl_polynomial(M[:, probe], Kt[:, probe], D, scale, scheme.tableau)
    powers = cfls[:, None] ** np.arange(len(Hp))[None, :]
    # G is formed on every cfl row: a tensordot over fewer rows rounds differently
    step = max(1, _EIG_CHUNK // max(1, len(cfls) * probe.sum()))   # columns per probe solve
    lam_probe = np.concatenate([
        eigvals_batched(np.tensordot(powers, Hp[:, i:i + step], axes=(1, 0)))
        for i in range(0, len(deltas), step)], axis=1)             # (n_cfl, n_delta, n_probe, p)
    alive = np.all(np.abs(lam_probe) <= bound[:, None, None, None], axis=(2, 3))

    def columns():
        for j, rows in enumerate(alive.T):
            lam = np.empty((rows.sum(), len(theta), lam_probe.shape[-1]), dtype=complex)
            if len(lam):
                Hr = _dec_cfl_polynomial(M[j, ~probe], Kt[j, ~probe], D[j], scale, scheme.tableau)
                G = np.tensordot(powers, Hr, axes=(1, 0))
                lam[:, probe] = lam_probe[rows, j]
                lam[:, ~probe] = eigvals_batched(G[rows])
                rest = _bounded(lam[:, ~probe], bound[rows])
                rows = rows.copy()
                rows[rows] = rest
                lam = lam[rest]
            yield rows, lam

    return columns()


def _rk_fields(nu, z, bound):
    """Stable rows and lambda on them of the stability polynomial sum nu_j z^j."""
    lam, zp = 1.0 + nu[0] * z, z
    for nu_j in nu[1:]:
        zp = zp * z
        lam = lam + nu_j * zp
    rows = _bounded(lam, bound)
    return rows, lam[rows]


def _bounded(lam, bound):
    """Rows of a (n_rows, n_k, p) block whose every |lambda| <= bound[row]."""
    return np.all(np.abs(lam) <= bound[:, None, None], axis=(1, 2))


def _block_width(n_theta, p):
    """Delta columns a block solves at once: as many as keep every (block,
    n_theta, p, p) temporary below _ELIDE_VALUES, so that each column gets
    the bits it gets alone; at least one."""
    return max(1, (_ELIDE_VALUES - 1) // (n_theta * p * p))


def _scan_fields(comb, grid, convention):
    """Mask and error fields on the (n_cfl, n_delta) grid, in blocks of delta columns.

    Only the samples ``_half_turn`` keeps are solved; a row is stable iff
    they all are, since |conj lambda| = |lambda|.  Each column's stable rows
    are reduced as ``_mode_fields`` yields them: phase and damping on the
    kept samples, mirrored to the others (omega -> -omega, eps as is), then
    the principal mode and the two functionals on every sample (NaN
    elsewhere).  A block whose solve fails is solved again one column at a
    time, and a column that fails alone stays unstable.  Returns (stable,
    eta_u, eta_w, failed delta columns).
    """
    p = comb.degree
    k = _wavenumbers(grid.theta_samples)
    kept, src, mirrored = _half_turn(grid.theta_samples, p)
    theta = p * k[kept]               # dx = p when dx_p = 1
    sign = np.where(mirrored, -1.0, 1.0)[:, None]
    cfls = grid.cfl_values
    scale = dt_scale(convention, 1.0, p)   # dt = cfl*scale*dx/speed, dx folded out
    dt_row = cfls * scale * p          # dx = p, speed = 1
    bound = np.exp(EPS_TOL * dt_row)
    deltas = grid.delta_values
    shape = (len(cfls), len(deltas))
    stable = np.zeros(shape, dtype=bool)
    eu = np.full(shape, np.nan)
    ew = np.full(shape, np.nan)

    def solve(cols):
        for j, (rows, lam) in zip(cols, _mode_fields(comb, theta, cfls, scale, deltas[cols],
                                                     bound)):
            stable[:, j] = rows
            if not rows.any():
                continue
            omega, eps = phase_damping(lam, dt_row[rows, None, None])
            omega, eps = omega[:, src] * sign, eps[:, src]
            pick = principal_mode(omega, k[:, None])[..., None]
            omega_p = np.take_along_axis(omega, pick, axis=-1)[..., 0]
            eu[rows, j] = eta_u(k, omega_p, np.take_along_axis(eps, pick, axis=-1)[..., 0])
            ew[rows, j] = eta_w(k, omega_p)

    failures = 0
    width = _block_width(len(theta), p)
    for start in range(0, len(deltas), width):
        block = range(start, min(start + width, len(deltas)))
        try:
            solve(block)
        except (EigenSolveFailure, np.linalg.LinAlgError):
            for j in block:
                try:
                    solve(range(j, j + 1))
                except (EigenSolveFailure, np.linalg.LinAlgError):
                    failures += 1
    return stable, eu, ew, failures


def eta_u(k, omega, epsilon):
    """Combined damping + dispersion error of the principal mode.

    Trapezoid integration over the k samples; omega and epsilon are the
    principal-mode curves, the exact phase is k itself (unit speed).
    """
    k = np.asarray(k, dtype=float)
    growth = np.exp(epsilon)
    damp = np.trapezoid((growth - 1.0) ** 2, k, axis=-1)
    disp = np.trapezoid(growth * (omega - k) ** 2, k, axis=-1)
    return np.sqrt(3.0 / (2.0 * np.pi) * (damp + disp))


def eta_w(k, omega):
    """Relative dispersion error of the principal mode."""
    k = np.asarray(k, dtype=float)
    return np.sqrt(np.trapezoid(((omega - k) / k) ** 2, k, axis=-1))


def scan_combination(comb, grid=None, convention=DEFAULT_CONVENTION, mu=1.3):
    """Full sweep: mask, error fields, and the three optima."""
    if not 1 <= mu < np.inf:
        raise ValueError(f"mu must be finite and at least 1, got {mu}")
    grid = grid or ScanGrid.default()
    stable, eu, ew, failures = _scan_fields(comb, grid, convention)
    result = ScanResult(comb, grid, stable, eu, ew, {}, convention, mu, failures)
    for strategy in ("max_cfl", "min_eta_u", "min_eta_w"):
        try:
            cfl, delta, obj = optimize(result, strategy, mu=mu)
        except NoStableRegion:
            result.optima[strategy] = None
            continue
        result.optima[strategy] = {
            "cfl": cfl,
            "delta": delta,
            "objective": obj,
            "monotone_safe": monotone_safety_check(result, cfl, delta),
        }
    return result


def optimize(result, strategy, mu=1.3):
    """Pick (CFL*, delta*) for one strategy from a completed ScanResult.

    max_cfl: largest stable CFL, ties broken by the largest delta.
    min_eta_u / min_eta_w: among stable cells whose objective stays below
    mu times the global stable minimum, the largest CFL; ties prefer the
    smaller objective, then the larger delta.  Below mu = 1 not even the
    minimum is feasible, so mu must be finite and at least 1.
    """
    if not 1 <= mu < np.inf:
        raise ValueError(f"mu must be finite and at least 1, got {mu}")
    stable = result.stable
    if not stable.any():
        raise NoStableRegion(result.combination.label())
    cfls, deltas = result.cfl_values, result.delta_values
    if strategy == "max_cfl":
        i = int(np.max(np.nonzero(stable.any(axis=1))[0]))
        j = int(np.max(np.nonzero(stable[i])[0]))
        return float(cfls[i]), float(deltas[j]), float("nan")
    field = {"min_eta_u": result.eta_u, "min_eta_w": result.eta_w}[strategy]
    finite = stable & np.isfinite(field)
    if not finite.any():
        raise NoStableRegion(f"{result.combination.label()}: no finite objective")
    best = np.nanmin(field[finite])
    feasible = finite & (field <= mu * best + 1e-12)
    i = int(np.max(np.nonzero(feasible.any(axis=1))[0]))
    js = np.nonzero(feasible[i])[0]
    row = field[i, js]
    j_best = js[row <= row.min() + 1e-15]
    j = int(j_best.max())
    return float(cfls[i]), float(deltas[j]), float(field[i, j])


def monotone_safety_check(result, cfl, delta):
    """True iff every grid CFL below the optimum is stable at delta.

    False flags stripe or box shaped stable regions whose optimum cannot
    be reached by lowering the CFL.
    """
    j = int(np.argmin(np.abs(result.delta_values - delta)))
    rows = result.cfl_values <= cfl * (1 + 1e-12)
    return bool(result.stable[rows, j].all())
