import io
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from cgstab.fourier import (_dec_cfl_polynomial, eigvals_batched, phase_damping, principal_mode,
                            symbol_builder)
from cgstab.scan import (
    EPS_TOL,
    MU,
    Combination,
    ScanGrid,
    ScanResult,
    eta_u,
    eta_w,
    geometric_grid,
    monotone_safety_check,
    optimize,
    scan_combination,
    _dec_eigenvalues,
    _half_turn,
    _wavenumbers,
)
from cgstab.timeint import make_scheme
from conftest import ALL_DEGREES, ALL_FAMILIES, ALL_STABS

SMALL = ScanGrid(geometric_grid(0.05, 1.8, ratio=1.06), geometric_grid(0.02, 0.8, ratio=1.1), 48)


def test_geometric_grid_properties():
    g = geometric_grid(0.01, 4.0, 1.03)
    assert np.all(np.diff(g) > 0)
    assert g[0] >= 0.01 / 1.03 and g[-1] <= 4.0 * 1.03
    assert np.any(np.isclose(g, 1.0))  # anchored at one
    with pytest.raises(ValueError):
        geometric_grid(1.0, 0.1, 1.03)


def test_scan_grid_validation():
    with pytest.raises(ValueError):
        ScanGrid(np.array([0.5, 0.4]), np.array([0.1]), 100)
    with pytest.raises(ValueError, match="cfl grid values must be at most 1e"):
        ScanGrid(np.array([1.0, 1e150, 1e300]), np.array([0.01]), 12)
    with pytest.raises(ValueError, match="delta grid values must be at most 1e"):
        ScanGrid(np.array([1.0]), np.array([0.01, 1e150]), 12)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_scan_grid_needs_two_wavenumbers(n):
    with pytest.raises(ValueError, match="wavenumber"):
        ScanGrid(np.array([0.5]), np.array([0.1]), n)


def test_an_oversized_scan_grid_raises_before_it_is_built(monkeypatch):
    """Ratio 1.0001 asks for 59,918 x 105,972 = 6.3e9 cells, and 2001
    samples are one too many; an axis of more values than a scan may have
    cells raises before its arange."""
    import cgstab.scan as scan

    with pytest.raises(ValueError, match="at most 10000000 cells"):
        ScanGrid.default(grid_ratio=1.0001)
    with pytest.raises(ValueError, match="need 2 to 2000 wavenumber samples"):
        ScanGrid(np.array([0.5]), np.array([0.1]), 2001)
    monkeypatch.setattr(scan, "MAX_SCAN_CELLS", 201)
    with pytest.raises(ValueError, match="202 grid values exceed the 201 scan cells"):
        geometric_grid(0.01, 4.0, 1.03)


@pytest.mark.parametrize("p,n,mirrors", [(1, 100, 0), (2, 100, 25), (3, 100, 49),
                                         (3, 7, 3), (2, 7, 0), (1, 2, 0)])
def test_half_turn_pairs_each_sample_with_its_mirror(p, n, mirrors):
    """Sample j mirrors sample 3n/p - j (theta -> 2 pi - theta) when 3n is
    divisible by p; the smaller j of a pair is solved."""
    kept, src, mirrored = _half_turn(n, p)
    j = np.arange(1, n + 1)
    assert mirrored.sum() == mirrors
    assert np.array_equal(kept, np.flatnonzero(~mirrored))
    assert np.array_equal(kept[src[~mirrored]], np.flatnonzero(~mirrored))
    partner = kept[src[mirrored]] + 1
    assert np.array_equal(partner, 3 * n // p - j[mirrored]) and np.all(partner < j[mirrored])
    theta = p * _wavenumbers(n)
    assert np.allclose(theta[mirrored] + theta[partner - 1], 2 * np.pi, rtol=0, atol=1e-14)


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
    k = np.linspace(0.05, 2 * np.pi / 3, 60)
    dt = 0.31
    omega, eps = phase_damping(eigvals_batched(np.exp(-1j * k * dt)[:, None, None]), dt)
    assert eta_u(k, omega[:, 0], eps[:, 0]) < 1e-12


def test_p1_nostab_semidiscrete_eta_w_positive_finite():
    from cgstab.fourier import semidiscrete_modes
    from cgstab.stabilization import StabilizationSpec

    k = np.linspace(0.01, 2 * np.pi / 3, 100)
    omega = []
    for kk in k:
        ma = semidiscrete_modes("basic", 1, StabilizationSpec(), kk)
        omega.append(ma.omega_over_k[ma.principal] * kk)
    val = eta_w(k, np.array(omega))
    assert np.isfinite(val) and val > 0


def test_mask_nostab_p1_all_unstable():
    comb = Combination("basic", 1, "none", "rk")
    mask = scan_combination(comb, SMALL).stable
    assert not mask.any()


def test_mask_small_delta_small_cfl_stable():
    for kind in ("cip", "lps"):
        comb = Combination("cubature", 1, kind, "ssprk")
        grid = ScanGrid(np.array([0.01]), np.array([0.05]), 48)
        assert scan_combination(comb, grid).stable[0, 0]


def test_mask_paper_point_stable():
    comb = Combination("cubature", 1, "cip", "ssprk")
    grid = ScanGrid(np.array([1.512]), np.array([0.242]), 100)
    assert scan_combination(comb, grid).stable[0, 0]


def test_mask_deterministic():
    comb = Combination("bernstein", 2, "lps", "dec")
    a = scan_combination(comb, SMALL).stable
    b = scan_combination(comb, SMALL).stable
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
    assert optimize(res, "max_cfl") is None


def test_monotone_safety_flags_stripe():
    """Cubature DeC SUPG p=2 near the footnoted entry (1.0, 0.081)."""
    comb = Combination("cubature", 2, "supg", "dec")
    grid = ScanGrid(geometric_grid(0.01, 1.2, ratio=1.05), np.array([0.081]), 48)
    res = scan_combination(comb, grid)
    i = int(np.argmin(np.abs(res.grid.cfl_values - 1.0)))
    assert res.stable[i, 0]
    assert not monotone_safety_check(res, res.grid.cfl_values[i], 0.081)


def test_monotone_safety_truncated_grid():
    comb = Combination("cubature", 1, "cip", "ssprk")
    grid = ScanGrid(np.array([0.3]), np.array([0.2]), 32)
    res = scan_combination(comb, grid)
    assert monotone_safety_check(res, 0.3, 0.2)


def test_optimize_max_cfl_takes_the_largest_stable_row():
    comb = Combination("cubature", 1, "lps", "ssprk")
    grid = ScanGrid(np.array([0.2, 0.4]), np.array([0.3]), 24)
    pick = optimize(scan_combination(comb, grid), "max_cfl")
    assert pick["cfl"] == pytest.approx(0.4)
    assert pick["delta"] == pytest.approx(0.3)
    assert math.isnan(pick["objective"])


def test_dec_basic_p3_has_no_practical_stable_region():
    """DeC + basic p=3 CIP/LPS keeps only thin slivers at tiny CFL.

    The reference tables mark these combinations with a slash; everything
    above CFL = 0.2 (where every tabled optimum lives) must be unstable.
    """
    for kind in ("cip", "lps"):
        comb = Combination("basic", 3, kind, "dec")
        grid = ScanGrid(geometric_grid(0.2, 2.0, ratio=1.25),
                        geometric_grid(5e-4, 1.0, ratio=1.5), 40)
        assert not scan_combination(comb, grid).stable.any(), kind


def test_bernstein_matches_basic_spectrum_without_lumping():
    """Bernstein and equispaced Lagrange differ by a change of basis, so
    RK/SSPRK amplification spectra coincide; DeC breaks this via lumping."""
    from cgstab.fourier import amplification_matrix, eigvals_batched
    from cgstab.stabilization import StabilizationSpec

    stab = StabilizationSpec("cip", 0.01)
    for theta, cfl in ((0.9, 0.3), (2.0, 0.5)):
        la = eigvals_batched(amplification_matrix("basic", 2, stab, "ssprk", theta, cfl))
        lb = eigvals_batched(amplification_matrix("bernstein", 2, stab, "ssprk", theta, cfl))
        for mu in la:
            assert np.min(np.abs(lb - mu)) < 1e-10


def _fail_batches_holding(monkeypatch, markers):
    """The scan's eigen solves raise on every batch that holds one of the
    marker matrices, whatever else the batch holds."""
    import cgstab.scan as scan

    solve = scan.eigvals_batched

    def failing(A):
        flat = np.reshape(A, (-1, A.shape[-1] ** 2))
        if any(np.all(flat == m.reshape(-1), axis=1).any() for m in markers):
            raise np.linalg.LinAlgError("injected")
        return solve(A)

    monkeypatch.setattr(scan, "eigvals_batched", failing)


def _scan_theta(comb, grid):
    """The reduced wavenumbers a scan solves."""
    kept, _, _ = _half_turn(grid.theta_samples, comb.degree)
    return comb.degree * _wavenumbers(grid.theta_samples)[kept]


def _assert_only_failed_columns_change(got, want, failed):
    assert got.eig_failures == failed.sum()
    assert want.stable[:, failed].any(axis=0).all() and not got.stable[:, failed].any()
    assert np.isnan(got.eta_u[:, failed]).all() and np.isnan(got.eta_w[:, failed]).all()
    for name in ("stable", "eta_u", "eta_w"):
        assert getattr(got, name)[:, ~failed].tobytes() == getattr(want, name)[:, ~failed].tobytes()


def _check_rk_column_failures(monkeypatch, failed):
    """Fail the eigen solve of every batch holding a matrix of a failed
    column; SMALL is one block for this combination."""
    import cgstab.scan as scan

    comb = Combination("cubature", 1, "cip", "ssprk")
    theta = _scan_theta(comb, SMALL)
    assert len(failed) <= scan._block_width(len(theta), comb.degree)
    want = scan_combination(comb, SMALL)
    b = symbol_builder(comb.family, comb.degree, comb.stab_kind)
    _fail_batches_holding(monkeypatch, [np.linalg.solve(b.mass(theta, d), b.conv(theta, d))[0]
                                        for d in SMALL.delta_values[failed]])
    _assert_only_failed_columns_change(scan_combination(comb, SMALL), want, failed)


def test_failed_eigen_solve_leaves_its_delta_column_unstable(monkeypatch):
    """Every other delta column's eigen solve fails: each counts once and
    stays unstable, the others keep their bits."""
    _check_rk_column_failures(monkeypatch, np.arange(len(SMALL.delta_values)) % 2 == 0)


def test_failed_eigen_solve_mid_block_fails_only_its_column(monkeypatch):
    """One column in the middle of a block fails: the block is solved
    again one column at a time, and only that column stays unstable."""
    n = len(SMALL.delta_values)
    assert n > 2
    _check_rk_column_failures(monkeypatch, np.arange(n) == n // 2)


def test_eta_refinement_stability():
    comb = Combination("cubature", 2, "lps", "ssprk")
    grid1 = ScanGrid(np.array([0.4, 0.5]), np.array([0.05, 0.1]), 50)
    grid2 = ScanGrid(np.array([0.4, 0.5]), np.array([0.05, 0.1]), 100)
    r1 = scan_combination(comb, grid1)
    r2 = scan_combination(comb, grid2)
    rel = np.abs(r1.eta_u - r2.eta_u) / r2.eta_u
    assert np.nanmax(rel) < 0.02


def _json_text(res):
    buf = io.StringIO()
    res.to_json(buf)
    return buf.getvalue()


def _csv_text(res):
    buf = io.StringIO()
    res.mask_csv(buf)
    return buf.getvalue()


def test_scan_json_and_csv_roundtrip():
    comb = Combination("cubature", 1, "cip", "ssprk")
    res = scan_combination(comb, ScanGrid(np.array([0.2, 0.4]), np.array([0.1]), 24))
    payload = json.loads(_json_text(res))
    assert payload["combination"]["family"] == "cubature"
    assert len(payload["cfl_values"]) == 2
    csv = _csv_text(res)
    assert csv.count("\n") == 2 + 2 * 1 + 1  # headers + cells
    a = scan_combination(comb, ScanGrid(np.array([0.2, 0.4]), np.array([0.1]), 24))
    assert _json_text(a) == _json_text(res)  # byte-for-byte determinism


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
def test_scan_mask_agrees_with_propagator(comb):
    """The scan's mask matches LAPACK's spectral radius of the public
    propagator on every fourth delta column, wherever that radius is
    1e-10 or more away from the threshold."""
    from cgstab.fourier import amplification_matrix
    from cgstab.stabilization import StabilizationSpec

    res = scan_combination(comb, STREAM)
    p = comb.degree
    theta = p * _wavenumbers(STREAM.theta_samples)
    bound = np.exp(EPS_TOL * STREAM.cfl_values * p)
    decided = 0
    for j in range(0, len(STREAM.delta_values), 4):
        stab = StabilizationSpec(comb.stab_kind, STREAM.delta_values[j])
        for i, cfl in enumerate(STREAM.cfl_values):
            G = amplification_matrix(comb.family, p, stab, comb.scheme_kind, theta, cfl)
            margin = np.abs(np.linalg.eigvals(G)).max() - bound[i]
            if abs(margin) > 1e-10:
                decided += 1
                assert res.stable[i, j] == (margin < 0.0), (cfl, stab.delta)
    assert decided > len(STREAM.cfl_values)


COARSE = ScanGrid.default(grid_ratio=1.3, theta_samples=24)
ALL_COMBOS = [Combination(fam, p, stab, scheme) for fam in ALL_FAMILIES for p in ALL_DEGREES
              for stab, _ in ALL_STABS for scheme in ("rk", "ssprk", "dec")]


@pytest.mark.parametrize("comb", ALL_COMBOS, ids=Combination.label)
def test_half_turn_scan_agrees_with_solving_every_sample(comb, monkeypatch):
    """Mirrored samples moved no decision LAPACK disputes: a mask cell that
    differs from solving every sample is one that solve marked unstable,
    the half turn stable and LAPACK stable; eta agrees to 1e-10 elsewhere."""
    import cgstab.scan as scan
    from cgstab.fourier import amplification_matrix
    from cgstab.stabilization import StabilizationSpec

    res = scan_combination(comb, COARSE)
    n = COARSE.theta_samples
    monkeypatch.setattr(scan, "_half_turn",
                        lambda n, p: (np.arange(n), np.arange(n), np.zeros(n, dtype=bool)))
    direct = scan_combination(comb, COARSE)
    assert res.eig_failures == direct.eig_failures == 0
    p = comb.degree
    theta = p * _wavenumbers(n)
    for i, j in zip(*np.nonzero(res.stable != direct.stable)):
        assert res.stable[i, j] and not direct.stable[i, j]
        cfl, stab = COARSE.cfl_values[i], StabilizationSpec(comb.stab_kind, COARSE.delta_values[j])
        G = amplification_matrix(comb.family, p, stab, comb.scheme_kind, theta, cfl)
        assert np.abs(np.linalg.eigvals(G)).max() <= np.exp(EPS_TOL * cfl * p), (cfl, stab.delta)
    both = res.stable & direct.stable
    for name in ("eta_u", "eta_w"):
        got, want = getattr(res, name)[both], getattr(direct, name)[both]
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want)), name


def _assert_blocks_change_no_bit(comb, grid, monkeypatch):
    import cgstab.scan as scan

    blocked = scan_combination(comb, grid)
    monkeypatch.setattr(scan, "_block_width", lambda n_theta, p: 1)
    single = scan_combination(comb, grid)
    assert blocked.eig_failures == single.eig_failures == 0
    for name in ("stable", "eta_u", "eta_w"):
        assert getattr(blocked, name).tobytes() == getattr(single, name).tobytes(), name
    return blocked


@pytest.mark.parametrize("comb", ALL_COMBOS, ids=Combination.label)
def test_delta_blocks_equal_one_column_at_a_time(comb, monkeypatch):
    """Solving the delta columns in blocks changes no bit of a scan."""
    _assert_blocks_change_no_bit(comb, COARSE, monkeypatch)


def test_delta_blocks_mixing_dead_and_live_columns_change_no_bit(monkeypatch):
    """basic-p3-supg-dec on more delta columns than a block holds: the
    blocks that mix columns with and without a stable probe row, whose
    dead columns never form their other wavenumbers, change no bit."""
    import cgstab.scan as scan

    comb = Combination("basic", 3, "supg", "dec")
    grid = ScanGrid(geometric_grid(0.05, 2.0, ratio=1.3), geometric_grid(1e-4, 4.0, ratio=1.1),
                    100)
    width = scan._block_width(len(_scan_theta(comb, grid)), comb.degree)
    assert len(grid.delta_values) > 2 * width
    live = _assert_blocks_change_no_bit(comb, grid, monkeypatch).stable.any(axis=0)
    blocks = [live[i:i + width] for i in range(0, len(live), width)]
    assert sum(block.any() and not block.all() for block in blocks) >= 2


DEC_COMBOS = [Combination(fam, p, stab, "dec") for fam in ALL_FAMILIES
              for p in ALL_DEGREES for stab, _ in ALL_STABS]


def _unscreened_dec_fields(comb, grid):
    """The scan's fields with every kept wavenumber of a delta column solved
    in one call, then mirrored and reduced as the scan does: the
    screening's oracle."""
    p = comb.degree
    b = symbol_builder(comb.family, p, comb.stab_kind)
    config = make_scheme("dec", p + 1).tableau
    k = _wavenumbers(grid.theta_samples)
    kept, src, mirrored = _half_turn(grid.theta_samples, p)
    cfls = grid.cfl_values
    dt_row = cfls * p
    fields = [np.zeros((len(cfls), len(grid.delta_values)), dtype=bool),
              np.full((len(cfls), len(grid.delta_values)), np.nan),
              np.full((len(cfls), len(grid.delta_values)), np.nan)]
    for j, d in enumerate(grid.delta_values):
        theta = p * k[kept]
        H = _dec_cfl_polynomial(b.mass(theta, d), b.conv(theta, d), b.lumped_diag(d), config)
        lam = _dec_eigenvalues(H, cfls)
        rows = np.abs(lam).max(axis=(1, 2)) <= np.exp(EPS_TOL * dt_row)
        if not rows.any():
            continue
        omega, eps = phase_damping(lam[rows], dt_row[rows, None, None])
        omega, eps = omega[:, src], eps[:, src]
        omega[:, mirrored] = -omega[:, mirrored]
        pick = principal_mode(omega, k[:, None])[..., None]
        omega_p = np.take_along_axis(omega, pick, axis=-1)[..., 0]
        fields[0][:, j] = rows
        fields[1][rows, j] = eta_u(k, omega_p, np.take_along_axis(eps, pick, axis=-1)[..., 0])
        fields[2][rows, j] = eta_w(k, omega_p)
    return fields


@pytest.mark.parametrize("comb", DEC_COMBOS, ids=Combination.label)
def test_dec_screening_equals_solving_every_wavenumber(comb):
    """Settling a row on every tenth wavenumber changes no bit of a scan."""
    grids = [COARSE]
    if comb.degree == 3 and comb.stab_kind == "lps":   # fewer samples than the stride
        grids.append(ScanGrid(COARSE.cfl_values[::2], COARSE.delta_values[::3], 7))
    for grid in grids:
        res = scan_combination(comb, grid)
        assert res.eig_failures == 0
        for name, want in zip(("stable", "eta_u", "eta_w"), _unscreened_dec_fields(comb, grid)):
            assert getattr(res, name).tobytes() == want.tobytes(), name


def test_failed_dec_probe_or_rest_solve_leaves_its_delta_column_unstable(monkeypatch):
    """A DeC block solves its probe wavenumbers, then each column the rest
    on the rows that survive: a failure in either solve, here at column 1's
    probe (mid-block) and at column 3's rest, fails only that column, once."""
    import cgstab.scan as scan

    comb = Combination("cubature", 2, "lps", "dec")
    grid = ScanGrid(np.array([0.1, 0.2, 0.3]), np.array([0.05, 0.1, 0.15, 0.2]), 20)
    theta = _scan_theta(comb, grid)
    assert len(grid.delta_values) <= scan._block_width(len(theta), comb.degree)
    batches = []
    solve = scan.eigvals_batched
    monkeypatch.setattr(scan, "eigvals_batched", lambda A: batches.append(A) or solve(A))
    want = scan_combination(comb, grid)
    monkeypatch.setattr(scan, "eigvals_batched", solve)
    assert len(batches) == 1 + len(grid.delta_values)     # the probe, then each column's rest
    markers = [batches[0][0, 1, 0], batches[4][0, 0]]      # column 1's probe, column 3's rest
    _fail_batches_holding(monkeypatch, markers)
    failed = np.array([False, True, False, True])
    _assert_only_failed_columns_change(scan_combination(comb, grid), want, failed)


@pytest.mark.xfail(strict=True, reason="Cardano's error in max|lambda| - 1 on near-identity "
                   "DeC propagators (5e-14 to 3e-13) exceeds the 1e-12 dt threshold (3e-14)")
def test_low_cfl_cubature_dec_is_stable():
    """Diagonal-mass DeC equals an RK scheme; at the lowest default-grid CFLs
    and delta = 1e-4 both LAPACK and the RK polynomial give |lambda| - 1
    <= 1e-15, so every one of these cells is stable."""
    default = ScanGrid.default()
    grid = ScanGrid(default.cfl_values[:14], default.delta_values[:1], 100)
    assert scan_combination(Combination("cubature", 3, "lps", "dec"), grid).stable.all()


def test_to_json_nulls_non_finite_array_values_and_writes_one_nan_token():
    """Every non-finite eta is null; the only non-finite token is the bare
    NaN of the max_cfl objective, which a strict JSON parser rejects."""
    res = scan_combination(Combination("basic", 1, "supg", "rk"), SMALL)
    assert np.isnan(res.eta_u).any() and np.isnan(res.eta_w).any()
    tokens = []
    payload = json.loads(_json_text(res), parse_constant=lambda name: tokens.append(name) or name)
    assert tokens == ["NaN"]
    assert payload["optima"]["max_cfl"]["objective"] == "NaN"
    for key in ("eta_u", "eta_w"):
        written = np.array(payload[key], dtype=float)    # null reads as NaN
        assert np.array_equal(np.isnan(written), ~np.isfinite(getattr(res, key)))


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
        "convention": "cell",
        "mu": MU,
        "cfl_values": res.grid.cfl_values.tolist(),
        "delta_values": res.grid.delta_values.tolist(),
        "theta_samples": res.grid.theta_samples,
        "stable": res.stable.astype(int).tolist(),
        "eta_u": clean(res.eta_u),
        "eta_w": clean(res.eta_w),
        "optima": res.optima,
        "eig_failures": res.eig_failures,
    }
    assert _json_text(res) == json.dumps(payload, indent=1) + "\n"


def _export_peak(write):
    """The tracemalloc peak, in bytes, of ``write(fh)`` on the null device."""
    with open(os.devnull, "w") as fh:
        tracemalloc.start()
        try:
            write(fh)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_export_memory_is_one_row_on_a_default_size_grid():
    """Streaming writes hold one CFL row of text, not the whole artifact
    (building the whole text of this result first takes 7 MB for the JSON
    and 16 MB for the CSV)."""
    rng = np.random.default_rng(3)
    grid = ScanGrid.default()
    shape = (len(grid.cfl_values), len(grid.delta_values))
    assert shape == (202, 358)
    eta = rng.random(shape)
    eta[rng.random(shape) < 0.2] = np.nan
    eta[0, :3] = np.inf, -np.inf, -0.0
    res = ScanResult(Combination("cubature", 3, "lps", "dec"), grid, ~np.isnan(eta), eta,
                     eta[::-1].copy(), {"max_cfl": None, "min_eta_u": None, "min_eta_w": None})
    assert _export_peak(res.to_json) < 2 << 20
    assert _export_peak(res.mask_csv) < 2 << 20
