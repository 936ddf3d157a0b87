"""(CFL, delta) parameter scans: stability masks, error functionals, optima.

A scan sweeps a geometric (CFL, delta) grid for one combination of element
family, degree, stabilization and time scheme.  Wavenumbers are sampled on
the resolvable range k dx_p in (0, 2pi/3] with dx_p = 1 (at least three
dofs per wavelength); the same samples feed both the stability mask
(unstable iff any mode has eps = log|lambda|/dt > 1e-12) and the two error
functionals

    eta_u^2 = 3/(2pi) [ int (e^eps - 1)^2 dk + int e^eps (w - w_ex)^2 dk ]
    eta_w^2 = int ((w - w_ex)/w_ex)^2 dk,

evaluated on the principal mode with w_ex = k.  Three selection strategies
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

from .fourier import (DEFAULT_CONVENTION, EigenSolveFailure, _dec_cfl_polynomial, dt_scale,
                      eigvals_batched, phase_damping, principal_mode, symbol_builder)
from .timeint import expand_ssprk_coefficients, make_scheme

K_MAX = 2.0 * np.pi / 3.0
EPS_TOL = 1e-12
_PROBE_STRIDE = 10


class NoStableRegion(RuntimeError):
    """The stability mask is empty for this combination."""


def geometric_grid(lo, hi, ratio=1.03, anchor=1.0):
    """Geometric grid anchor * ratio^n covering [lo, hi]."""
    if not (ratio > 1.0 and hi > lo > 0.0):
        raise ValueError("need ratio > 1 and 0 < lo < hi")
    n_lo = int(np.ceil(np.log(lo / anchor) / np.log(ratio) - 1e-12))
    n_hi = int(np.floor(np.log(hi / anchor) / np.log(ratio) + 1e-12))
    return anchor * ratio ** np.arange(n_lo, n_hi + 1)


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

    @classmethod
    def default(cls, cfl_range=(0.01, 4.0), delta_range=(1e-4, 4.0),
                ratio_cfl=1.03, ratio_delta=1.03, theta_samples=100):
        """Grids matching the reference tables (ratio 1.03, anchored at 1)."""
        return cls(
            geometric_grid(*cfl_range, ratio=ratio_cfl),
            geometric_grid(*delta_range, ratio=ratio_delta),
            theta_samples,
        )


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

    def to_json(self):
        """Indented JSON of the scan, non-finite values as null; the (n_cfl,
        n_delta) arrays skip the pure-Python encoder of ``json.dumps``."""
        arrays = {"stable": self.stable.astype(int), "eta_u": self.eta_u, "eta_w": self.eta_w}
        payload = {
            "combination": vars(self.combination),
            "convention": self.convention,
            "mu": self.mu,
            "cfl_values": self.cfl_values.tolist(),
            "delta_values": self.delta_values.tolist(),
            "theta_samples": self.grid.theta_samples,
            **{key: "@" + key for key in arrays},
            "optima": self.optima,
            "eig_failures": self.eig_failures,
        }
        text = json.dumps(payload, indent=1)
        for key, values in arrays.items():
            text = text.replace(f'"{key}": "@{key}"', f'"{key}": {_json_rows(values)}', 1)
        return text

    @property
    def cfl_values(self):
        return self.grid.cfl_values

    @property
    def delta_values(self):
        return self.grid.delta_values

    def mask_csv(self):
        lines = ["# " + self.combination.label(), "# convention=" + self.convention,
                 "cfl,delta,stable,eta_u,eta_w"]
        deltas = [f"{d:.12g}" for d in self.delta_values.tolist()]
        for cfl, st, eu, ew in zip(self.cfl_values.tolist(), self.stable.tolist(),
                                   self.eta_u.tolist(), self.eta_w.tolist()):
            c = f"{cfl:.12g}"
            lines.extend(f"{c},{d},{int(s)},{u:.12g},{w:.12g}"
                         for d, s, u, w in zip(deltas, st, eu, ew))
        return "\n".join(lines) + "\n"


def _json_rows(values):
    """A 2-D array as ``json.dumps(..., indent=1)`` writes a value of the
    top-level object.  ``json`` writes floats by ``repr``, and no finite
    repr holds "nan" or "inf", so only those become null."""
    rows = (",\n   ".join(map(repr, row)) for row in values.tolist())
    text = "[\n  [\n   " + "\n  ],\n  [\n   ".join(rows) + "\n  ]\n ]"
    return text.replace("-inf", "null").replace("inf", "null").replace("nan", "null")


def _wavenumbers(n):
    return K_MAX * np.arange(1, n + 1) / n


def _mode_fields(b, scheme, nu, theta, cfls, scale, delta, bound):
    """Stable rows at one delta and lambda(G) on them: (rows, lam[rows]).

    lam holds every (cfl, k, mode), shape (n_cfl, n_k, p); a row is stable
    iff every |lambda| <= bound[row].  ``nu`` holds the stability-polynomial
    coefficients of an RK scheme; deferred correction evaluates the cfl
    polynomial of its iterated update and solves every _PROBE_STRIDE-th
    wavenumber first, so a row unstable there never solves the others.
    """
    M = b.mass(theta, delta)
    Kt = b.conv(theta, delta)
    if scheme.kind == "dec":
        H = _dec_cfl_polynomial(M, Kt, b.lumped_diag(delta), scale, scheme.tableau)
        powers = cfls[:, None] ** np.arange(H.shape[0])[None, :]
        G = np.tensordot(powers, H, axes=(1, 0))      # (ncfl, nk, p, p)
        probe = np.zeros(G.shape[1], dtype=bool)
        probe[_PROBE_STRIDE - 1::_PROBE_STRIDE] = True
        lam_probe = eigvals_batched(G[:, probe])
        rows = _bounded(lam_probe, bound)
        lam = np.empty((rows.sum(),) + G.shape[1:-1], dtype=complex)
        lam[:, probe] = lam_probe[rows]
        lam[:, ~probe] = eigvals_batched(G[np.ix_(rows, ~probe)])
        rest = _bounded(lam[:, ~probe], bound[rows])
        rows[rows] = rest
        return rows, lam[rest]
    lamA = eigvals_batched(np.linalg.solve(M, Kt))
    z = -scale * np.multiply.outer(cfls, lamA)        # (ncfl, nk, p)
    lam = np.ones_like(z)
    zp = np.ones_like(z)
    for nu_j in nu:
        zp = zp * z
        lam = lam + nu_j * zp
    rows = _bounded(lam, bound)
    return rows, lam[rows]


def _bounded(lam, bound):
    """Rows of a (n_rows, n_k, p) block whose every |lambda| <= bound[row]."""
    return np.all(np.abs(lam) <= bound[:, None, None], axis=(1, 2))


def _scan_fields(comb, grid, convention):
    """Mask and error fields on the (n_cfl, n_delta) grid, one delta column at a time.

    Each column's stable rows are reduced right away: the principal-mode
    phase and damping and the two functionals (NaN elsewhere).  A column
    whose eigen solve fails stays unstable.  Returns (stable, eta_u, eta_w,
    failed delta columns).
    """
    p = comb.degree
    b = symbol_builder(comb.family, p, comb.stab_kind)
    scheme = make_scheme(comb.scheme_kind, p + 1)
    nu = None if scheme.kind == "dec" else expand_ssprk_coefficients(scheme.tableau)
    k = _wavenumbers(grid.theta_samples)
    theta = p * k                     # dx = p when dx_p = 1
    cfls = grid.cfl_values
    scale = dt_scale(convention, 1.0, p)   # dt = cfl*scale*dx/speed, dx folded out
    dt_row = cfls * scale * p          # dx = p, speed = 1
    bound = np.exp(EPS_TOL * dt_row)
    shape = (len(cfls), len(grid.delta_values))
    stable = np.zeros(shape, dtype=bool)
    eu = np.full(shape, np.nan)
    ew = np.full(shape, np.nan)
    failures = 0
    for j, d in enumerate(grid.delta_values):
        try:
            rows, lam = _mode_fields(b, scheme, nu, theta, cfls, scale, d, bound)
        except (EigenSolveFailure, np.linalg.LinAlgError):
            failures += 1
            continue
        stable[:, j] = rows
        if not rows.any():
            continue
        omega, eps = phase_damping(lam, dt_row[rows, None, None])
        pick = principal_mode(omega, k[:, None])[..., None]
        omega_p = np.take_along_axis(omega, pick, axis=-1)[..., 0]
        eu[rows, j] = eta_u(k, omega_p, np.take_along_axis(eps, pick, axis=-1)[..., 0])
        ew[rows, j] = eta_w(k, omega_p)
    return stable, eu, ew, failures


def eta_u(k, omega, epsilon):
    """Combined damping + dispersion error of the principal mode.

    Trapezoid integration over the k samples; omega and epsilon are the
    principal-mode curves, the exact phase is k itself (unit speed).
    """
    k = np.asarray(k, dtype=float)
    damp = np.trapezoid((np.exp(epsilon) - 1.0) ** 2, k, axis=-1)
    disp = np.trapezoid(np.exp(epsilon) * (omega - k) ** 2, k, axis=-1)
    return np.sqrt(3.0 / (2.0 * np.pi) * (damp + disp))


def eta_w(k, omega):
    """Relative dispersion error of the principal mode."""
    k = np.asarray(k, dtype=float)
    return np.sqrt(np.trapezoid(((omega - k) / k) ** 2, k, axis=-1))


def scan_combination(comb, grid=None, convention=DEFAULT_CONVENTION, mu=1.3):
    """Full sweep: mask, error fields, and the three optima."""
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
    smaller objective, then the larger delta.
    """
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
