import json

import numpy as np
import pytest

from cgstab.scan import (
    Combination,
    NoStableRegion,
    ScanGrid,
    eta_u,
    eta_w,
    geometric_grid,
    monotone_safety_check,
    optimize,
    scan_combination,
    stability_mask,
)

SMALL = ScanGrid(geometric_grid(0.05, 1.8, ratio=1.06), geometric_grid(0.02, 0.8, ratio=1.1), 48)


def test_geometric_grid_properties():
    g = geometric_grid(0.01, 4.0)
    assert np.all(np.diff(g) > 0)
    assert g[0] >= 0.01 / 1.03 and g[-1] <= 4.0 * 1.03
    assert np.any(np.isclose(g, 1.0))  # anchored at one
    with pytest.raises(ValueError):
        geometric_grid(1.0, 0.1)


def test_scan_grid_validation():
    with pytest.raises(ValueError):
        ScanGrid(np.array([0.5, 0.4]), np.array([0.1]))


def test_eta_u_exact_curve_is_zero():
    k = np.linspace(0.01, 2 * np.pi / 3, 80)
    assert eta_u(k, k.copy(), np.zeros_like(k)) == pytest.approx(0.0, abs=1e-14)
    assert eta_w(k, k.copy()) == pytest.approx(0.0, abs=1e-14)


def test_eta_u_constant_offset():
    # omega - omega_ex = c, eps = 0: eta_u^2 = 3/(2 pi) c^2 (2 pi / 3) = c^2
    k = np.linspace(1e-4, 2 * np.pi / 3, 2000)
    c = 0.37
    assert eta_u(k, k + c, np.zeros_like(k)) == pytest.approx(c, rel=1e-4)


def test_eta_w_double_phase():
    # omega = 2 omega_ex: integrand is 1, eta_w^2 = 2 pi / 3
    k = np.linspace(1e-6, 2 * np.pi / 3, 4000)
    assert eta_w(k, 2 * k) == pytest.approx(np.sqrt(2 * np.pi / 3), rel=1e-4)


def test_eta_u_exact_advection_propagator():
    """G = exp(-i a k dt) I reproduces the exact phase: eta_u ~ 0."""
    from cgstab.fourier import extract_modes

    k = np.linspace(0.05, 2 * np.pi / 3, 60)
    dt = 0.31
    omega, eps = [], []
    for kk in k:
        ma = extract_modes(np.array([[np.exp(-1j * kk * dt)]]), k=kk, dt=dt)
        omega.append(ma.omega_over_k[0] * kk)
        eps.append(ma.epsilon[0])
    assert eta_u(k, np.array(omega), np.array(eps)) < 1e-12


def test_p1_nostab_semidiscrete_eta_w_positive_finite():
    from cgstab.fourier import assemble_symbol, semidiscrete_modes
    from cgstab.stabilization import StabilizationSpec

    k = np.linspace(0.01, 2 * np.pi / 3, 100)
    omega = []
    for kk in k:
        ma = semidiscrete_modes(assemble_symbol(("basic", 1), StabilizationSpec(), kk), k=kk)
        omega.append(ma.omega_over_k[ma.principal] * kk)
    val = eta_w(k, np.array(omega))
    assert np.isfinite(val) and val > 0


def test_mask_nostab_p1_all_unstable():
    comb = Combination("basic", 1, "none", "rk")
    mask = stability_mask(comb, SMALL)
    assert not mask.any()


def test_mask_small_delta_small_cfl_stable():
    for kind in ("cip", "lps"):
        comb = Combination("cubature", 1, kind, "ssprk")
        grid = ScanGrid(np.array([0.01]), np.array([0.05]), 48)
        assert stability_mask(comb, grid)[0, 0]


def test_mask_paper_point_stable():
    comb = Combination("cubature", 1, "cip", "ssprk")
    grid = ScanGrid(np.array([1.512]), np.array([0.242]), 100)
    assert stability_mask(comb, grid)[0, 0]


def test_mask_deterministic():
    comb = Combination("bernstein", 2, "lps", "dec")
    a = stability_mask(comb, SMALL)
    b = stability_mask(comb, SMALL)
    assert np.array_equal(a, b)


def test_scan_optima_strategies():
    comb = Combination("cubature", 1, "cip", "ssprk")
    res = scan_combination(comb, SMALL)
    opt = res.optima
    assert opt["max_cfl"]["cfl"] >= opt["min_eta_u"]["cfl"]
    assert opt["max_cfl"]["cfl"] >= opt["min_eta_w"]["cfl"]
    # objective feasibility with the quadrature slack
    best = np.nanmin(res.eta_u[res.stable & np.isfinite(res.eta_u)])
    assert opt["min_eta_u"]["objective"] <= 1.3 * best + 1e-12


def test_single_stable_cell_is_every_optimum():
    comb = Combination("cubature", 1, "lps", "ssprk")
    grid = ScanGrid(np.array([0.2]), np.array([0.3]), 32)
    res = scan_combination(comb, grid)
    for strat in ("max_cfl", "min_eta_u", "min_eta_w"):
        assert res.optima[strat]["cfl"] == pytest.approx(0.2)
        assert res.optima[strat]["delta"] == pytest.approx(0.3)


def test_optimize_no_stable_region():
    comb = Combination("basic", 1, "none", "rk")
    res = scan_combination(comb, ScanGrid(np.array([0.5]), np.array([0.1]), 24))
    assert res.optima["max_cfl"] is None
    with pytest.raises(NoStableRegion):
        optimize(res, "max_cfl")


def test_monotone_safety_flags_stripe():
    """Cubature DeC SUPG p=2 near the footnoted entry (1.0, 0.081)."""
    comb = Combination("cubature", 2, "supg", "dec")
    grid = ScanGrid(geometric_grid(0.01, 1.2, ratio=1.05), np.array([0.081]), 48)
    res = scan_combination(comb, grid)
    i = int(np.argmin(np.abs(res.cfl_values - 1.0)))
    assert res.stable[i, 0]
    assert not monotone_safety_check(res, res.cfl_values[i], 0.081)


def test_monotone_safety_truncated_grid():
    comb = Combination("cubature", 1, "cip", "ssprk")
    grid = ScanGrid(np.array([0.3]), np.array([0.2]), 32)
    res = scan_combination(comb, grid)
    assert monotone_safety_check(res, 0.3, 0.2)


def test_optimize_accepts_combination():
    comb = Combination("cubature", 1, "lps", "ssprk")
    grid = ScanGrid(np.array([0.2, 0.4]), np.array([0.3]), 24)
    cfl, delta, _ = optimize(comb, "max_cfl", grid=grid)
    assert cfl == pytest.approx(0.4)
    assert delta == pytest.approx(0.3)


def test_dec_basic_p3_has_no_practical_stable_region():
    """DeC + basic p=3 CIP/LPS keeps only thin slivers at tiny CFL.

    The reference tables mark these combinations with a slash; everything
    above CFL = 0.2 (where every tabled optimum lives) must be unstable.
    """
    for kind in ("cip", "lps"):
        comb = Combination("basic", 3, kind, "dec")
        grid = ScanGrid(geometric_grid(0.2, 2.0, ratio=1.25),
                        geometric_grid(5e-4, 1.0, ratio=1.5), 40)
        assert not stability_mask(comb, grid).any(), kind


def test_bernstein_matches_basic_spectrum_without_lumping():
    """Bernstein and equispaced Lagrange differ by a change of basis, so
    RK/SSPRK amplification spectra coincide; DeC breaks this via lumping."""
    from cgstab.fourier import amplification_matrix, small_complex_eigenvalues
    from cgstab.stabilization import StabilizationSpec

    stab = StabilizationSpec("cip", 0.01)
    for theta, cfl in ((0.9, 0.3), (2.0, 0.5)):
        a = amplification_matrix(("basic", 2), stab, "ssprk", theta, cfl, 0.01)
        b = amplification_matrix(("bernstein", 2), stab, "ssprk", theta, cfl, 0.01)
        la = small_complex_eigenvalues(a.G)
        lb = small_complex_eigenvalues(b.G)
        for mu in la:
            assert np.min(np.abs(lb - mu)) < 1e-10


def test_eta_refinement_stability():
    comb = Combination("cubature", 2, "lps", "ssprk")
    grid1 = ScanGrid(np.array([0.4, 0.5]), np.array([0.05, 0.1]), 50)
    grid2 = ScanGrid(np.array([0.4, 0.5]), np.array([0.05, 0.1]), 100)
    r1 = scan_combination(comb, grid1)
    r2 = scan_combination(comb, grid2)
    rel = np.abs(r1.eta_u - r2.eta_u) / r2.eta_u
    assert np.nanmax(rel) < 0.02


def test_scan_json_and_csv_roundtrip():
    comb = Combination("cubature", 1, "cip", "ssprk")
    res = scan_combination(comb, ScanGrid(np.array([0.2, 0.4]), np.array([0.1]), 24))
    payload = json.loads(res.to_json())
    assert payload["combination"]["family"] == "cubature"
    assert len(payload["cfl_values"]) == 2
    csv = res.mask_csv()
    assert csv.count("\n") == 2 + 2 * 1 + 1  # headers + cells
    a = scan_combination(comb, ScanGrid(np.array([0.2, 0.4]), np.array([0.1]), 24))
    assert a.to_json() == res.to_json()  # byte-for-byte determinism


# ------------------------------------------------------------ streaming scan

STREAM = ScanGrid(geometric_grid(0.05, 1.8, ratio=1.15), geometric_grid(0.02, 0.8, ratio=1.25), 24)
STREAM_COMBOS = [Combination(fam, p, stab, scheme)
                 for fam, stab in (("basic", "supg"), ("cubature", "lps"))
                 for p in (1, 2, 3)
                 for scheme in ("rk", "ssprk", "dec")]


@pytest.mark.parametrize("comb", STREAM_COMBOS, ids=Combination.label)
def test_scan_equals_concatenated_delta_subgrids(comb):
    """A scan's fields do not depend on which other delta columns it holds."""
    full = scan_combination(comb, STREAM)
    cut = len(STREAM.delta_values) // 3
    parts = [scan_combination(comb, ScanGrid(STREAM.cfl_values, deltas, STREAM.theta_samples))
             for deltas in (STREAM.delta_values[:cut], STREAM.delta_values[cut:])]
    for name in ("stable", "eta_u", "eta_w"):
        joined = np.concatenate([getattr(r, name) for r in parts], axis=1)
        assert joined.tobytes() == getattr(full, name).tobytes(), name
    assert full.stable.any()


@pytest.mark.parametrize("comb", STREAM_COMBOS, ids=Combination.label)
def test_stability_mask_equals_scan_mask(comb):
    assert np.array_equal(stability_mask(comb, STREAM), scan_combination(comb, STREAM).stable)


@pytest.mark.xfail(strict=True, reason="Cardano's error in max|lambda| - 1 on near-identity "
                   "DeC propagators (5e-14 to 3e-13) exceeds the 1e-12 dt threshold (3e-14)")
def test_low_cfl_cubature_dec_is_stable():
    """Diagonal-mass DeC equals an RK scheme; at the lowest default-grid CFLs
    and delta = 1e-4 both LAPACK and the RK polynomial give |lambda| - 1
    <= 1e-15, so every one of these cells is stable."""
    default = ScanGrid.default()
    grid = ScanGrid(default.cfl_values[:14], default.delta_values[:1])
    assert stability_mask(Combination("cubature", 3, "lps", "dec"), grid).all()


def test_to_json_matches_indented_json_dumps():
    """The row formatter reproduces ``json.dumps(indent=1)`` byte for byte."""
    res = scan_combination(Combination("basic", 1, "supg", "rk"), SMALL)
    assert np.isnan(res.eta_u).any() and res.stable.any()
    res.eta_u[0, :2] = np.inf, -np.inf
    res.eta_w[-1, -1] = -0.0

    def clean(x):
        return np.where(np.isfinite(x), x, None).tolist()

    payload = {
        "combination": vars(res.combination),
        "convention": res.convention,
        "mu": res.mu,
        "cfl_values": res.cfl_values.tolist(),
        "delta_values": res.delta_values.tolist(),
        "theta_samples": res.grid.theta_samples,
        "stable": res.stable.astype(int).tolist(),
        "eta_u": clean(res.eta_u),
        "eta_w": clean(res.eta_w),
        "optima": res.optima,
        "eig_failures": res.eig_failures,
    }
    assert res.to_json() == json.dumps(payload, indent=1)
