import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgstab import build_reference_element, local_matrices
from cgstab.fourier import (
    EigenSolveFailure,
    SymbolBuilder,
    _char_residual,
    _dec_cfl_polynomial,
    amplification_matrix,
    eigvals_batched,
    phase_damping,
    principal_mode,
    semidiscrete_modes,
    symbol_builder,
)
from cgstab.stabilization import DiscreteSystem, StabilizationSpec
from cgstab.timeint import DEC_CONFIGS, make_scheme

from conftest import (
    ALL_DEGREES,
    ALL_FAMILIES,
    ALL_SCHEMES,
    ALL_STABS,
    one_step_reduced,
    predicted_step,
)

NOSTAB = StabilizationSpec("none", 0.0)


def closed_form_p1(theta):
    return np.sin(theta) / theta * 3.0 / (2.0 + np.cos(theta))


def closed_form_p2(theta):
    root = np.sqrt(40.0 * np.sin(theta / 2) ** 2 - np.sin(theta) ** 2)
    return np.array([
        (4 * np.sin(theta) + s * 2 * root) / (theta * (np.cos(theta) - 3.0))
        for s in (+1.0, -1.0)
    ])


# ---------------------------------------------------------------- eigenvalues

def test_eig_diagonal():
    lam = eigvals_batched(np.diag([2.0, 3.0j]))
    assert np.allclose(sorted(lam, key=np.abs), [2.0, 3.0j])


def test_eig_companion_cube_roots():
    A = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    lam = eigvals_batched(A)
    expected = np.exp(2j * np.pi * np.arange(3) / 3)
    for mu in expected:
        assert np.min(np.abs(lam - mu)) < 1e-9


def _det3(A):
    return (
        A[0, 0] * (A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
        - A[0, 1] * (A[1, 0] * A[2, 2] - A[1, 2] * A[2, 0])
        + A[0, 2] * (A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0])
    )


def test_eig_product_matches_cofactor_determinant():
    rng = np.random.default_rng(0)
    for _ in range(50):
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lam = eigvals_batched(A)
        det = _det3(A)  # independent cofactor expansion
        assert abs(np.prod(lam) - det) < 1e-9 * max(abs(det), 1.0)


def test_eig_batched_matches_lapack():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        A = rng.normal(size=(40, n, n)) + 1j * rng.normal(size=(40, n, n))
        mine = np.sort_complex(eigvals_batched(A))
        ref = np.sort_complex(np.linalg.eigvals(A))
        assert np.max(np.abs(mine - ref)) < 1e-8


def test_eig_4x4_is_rejected():
    """Degrees 1-3 give symbols of size at most 3, the closed forms' range."""
    rng = np.random.default_rng(2)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(ValueError):
        eigvals_batched(A)
    with pytest.raises(ValueError):
        eigvals_batched(A[None])


def test_eig_rejects_large_matrices():
    with pytest.raises(ValueError):
        eigvals_batched(np.eye(5))


def test_eig_single_matrix_runs_on_a_batch_axis():
    """A lone matrix gives the bits of a batch of one, not of NumPy's scalar paths."""
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        for A in rng.normal(size=(40, n, n)) + 1j * rng.normal(size=(40, n, n)):
            assert eigvals_batched(A).tobytes() == eigvals_batched(A[None])[0].tobytes()


def test_eig_bits_do_not_depend_on_batch_size():
    """The cubature-p3-lps-dec propagators at delta 0.01 on the default CFL
    grid: a matrix gets the same bits alone, in a slice and in the whole
    batch, which exceeds NumPy's 16,384-element in-place threshold."""
    from cgstab.scan import ScanGrid, _wavenumbers

    b = symbol_builder("cubature", 3, "lps")
    theta = 3 * _wavenumbers(100)
    H = _dec_cfl_polynomial(b.mass(theta, 0.01), b.conv(theta, 0.01), b.lumped_diag(0.01),
                            1.0, make_scheme("dec", 4).tableau)
    cfls = ScanGrid.default().cfl_values
    G = np.tensordot(cfls[:, None] ** np.arange(len(H)), H, axes=(1, 0)).reshape(-1, 3, 3)
    assert len(G) == 20200
    lam = eigvals_batched(G)
    for i in range(0, len(G), 97):
        assert eigvals_batched(G[i]).tobytes() == lam[i].tobytes(), i
    assert eigvals_batched(G[:8000]).tobytes() == lam[:8000].tobytes()


def test_eig_failure_after_lapack_is_classified(monkeypatch):
    """Closed form and LAPACK both off: EigenSolveFailure, not a wrong answer."""
    import cgstab.fourier as fourier

    rng = np.random.default_rng(5)
    A = rng.normal(size=(8, 3, 3)) + 1j * rng.normal(size=(8, 3, 3))
    garbage = lambda M: np.full(np.shape(M)[:-1], 1e3 + 0j)  # noqa: E731
    monkeypatch.setattr(fourier, "_eig3", garbage)
    assert np.allclose(np.sort_complex(eigvals_batched(A)),
                       np.sort_complex(np.linalg.eigvals(A)))   # LAPACK repairs it
    monkeypatch.setattr(np.linalg, "eigvals", garbage)
    with pytest.raises(fourier.EigenSolveFailure):
        eigvals_batched(A)


def test_char_residual_matches_shifted_copy():
    """Reading A's entries equals the cofactor expansion of A - lam I, bit for bit."""
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        A = rng.normal(size=(60, n, n)) + 1j * rng.normal(size=(60, n, n))
        lam = eigvals_batched(A) + 1e-6 * rng.normal(size=(60, n))
        want = np.empty(lam.shape)
        for i in range(n):
            B = np.moveaxis(A - lam[..., i][..., None, None] * np.eye(n), 0, -1)
            if n == 1:
                det = B[0, 0]
            elif n == 2:
                det = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
            else:
                det = _det3(B)
            want[..., i] = np.abs(det)
        assert want.tobytes() == _char_residual(A, lam).tobytes()


# ------------------------------------------------------------------- symbols

def _band_from_local(A, p):
    """Reference: the former fold of one cell block into {-1, 0, +1} bands."""
    b0 = np.zeros((p, p))
    bm = np.zeros((p, p))
    bp = np.zeros((p, p))
    b0 += A[:p, :p]
    b0[0, 0] += A[p, p]
    bp[:, 0] += A[:p, p]
    bm[0, :] += A[p, :p]
    return {-1: bm, 0: b0, 1: bp}


def _cip_bands(ref):
    """Reference: the former gradient-jump bands, from the basis derivatives."""
    p = ref.degree
    d0 = ref.eval_basis_deriv(0.0)
    d1 = ref.eval_basis_deriv(1.0)
    entries = []
    for cell, coeffs, sign in ((-1, d1, -1.0), (0, d0, +1.0)):
        for l in range(p + 1):
            entries.append(((cell + (l == p), l % p), sign * coeffs[l]))
    bands = {s: np.zeros((p, p)) for s in range(-2, 3)}
    for shift in (-1, 0, 1):
        for (rc, r), gr in entries:
            if rc + shift != 0:
                continue
            for (cc, c), gc in entries:
                bands[cc + shift][r, c] += gr * gc
    return bands


def _fold_bands(bands, theta):
    """Reference: the former fold, sum_s B_s exp(i theta s) over ascending s."""
    p = len(bands[0])
    out = np.zeros(theta.shape + (p, p), dtype=complex)
    for s in sorted(bands):
        out += np.exp(1j * theta * s)[..., None, None] * bands[s]
    return out


def _former_symbols(ref, kind, theta, delta):
    """Reference: the former builder's mass and conv, combined per kind from
    the reference bands (the LPS projection through the folded mass)."""
    loc = local_matrices(ref)
    fold = lambda block: _fold_bands(_band_from_local(block, ref.degree), theta)  # noqa: E731
    m, c = fold(loc.mass), fold(loc.deriv)
    if delta == 0.0 or kind == "none":
        return m, c
    if kind == "supg":
        return m + delta * fold(loc.deriv.T), c + delta * fold(loc.grad_grad)
    if kind == "cip":
        return m, c + delta * _fold_bands(_cip_bands(ref), theta)
    return m, c + delta * (fold(loc.grad_grad) - fold(loc.deriv.T) @ np.linalg.solve(m, c))


# conv symbols whose summation order differs from the former band folds: the
# three-face CIP sums of p = 3 and the diagonal-folded cubature LPS projection
REORDERED_CONV = {("basic", 3, "cip"), ("cubature", 3, "cip"),
                  ("cubature", 1, "lps"), ("cubature", 2, "lps"), ("cubature", 3, "lps")}


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("degree", ALL_DEGREES)
def test_bands_match_former_folds(family, degree):
    """The folds of the assembled operators reproduce the symbols folded from
    the local blocks and the jump row bit for bit, except the reordered conv
    sums, which stay within 1e-15 of the largest entry."""
    ref = build_reference_element(family, degree)
    theta = np.linspace(0.0, 2 * np.pi, 37)
    for kind, _ in ALL_STABS:
        b = symbol_builder(family, degree, kind)
        for delta in (0.0, 0.013, 0.7):
            want_m, want_c = _former_symbols(ref, kind, theta, delta)
            got_c = b.conv(theta, delta)
            assert b.mass(theta, delta).tobytes() == want_m.tobytes(), (kind, delta)
            if (family, degree, kind) in REORDERED_CONV and delta > 0:
                assert np.abs(got_c - want_c).max() <= 1e-15 * np.abs(want_c).max(), (kind, delta)
            else:
                assert got_c.tobytes() == want_c.tobytes(), (kind, delta)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("degree", ALL_DEGREES)
@pytest.mark.parametrize("kind", [kind for kind, _ in ALL_STABS])
def test_ring_holds_every_shift_once(monkeypatch, family, degree, kind):
    """The operator blocks folded from the symbols' ring equal those of a
    9-cell ring bit for bit, so no coupling wraps onto another.  CIP and the
    diagonal-folded cubature LPS S reach at most two cells, the rest one."""
    import cgstab.fourier as fourier

    ring = SymbolBuilder(family, degree, kind)
    monkeypatch.setattr(fourier, "_RING", 9)
    wide = SymbolBuilder(family, degree, kind)
    for name in ("_mass", "_conv", "_T", "_S", "_P"):
        got, want = getattr(ring, name), getattr(wide, name)
        assert (got is None) == (want is None), name
        if got is None:
            continue
        assert list(got) == list(want), name
        assert all(got[s].tobytes() == want[s].tobytes() for s in want), name
        two = name == "_S" and (kind == "cip" or (kind, family) == ("lps", "cubature"))
        assert max(map(abs, got)) <= (2 if two else 1), name


def test_symbols_build_no_discrete_system(monkeypatch):
    """Every builder folds an ``Operators`` ring: none builds the flux,
    quadrature, residual and mass of a marching system."""
    def refuse(*args, **kwargs):
        raise AssertionError("a SymbolBuilder built a DiscreteSystem")

    monkeypatch.setattr(DiscreteSystem, "__init__", refuse)
    for family in ALL_FAMILIES:
        for degree in ALL_DEGREES:
            for kind, _ in ALL_STABS:
                SymbolBuilder(family, degree, kind)


def test_p1_symbol_matches_hand_formulas():
    theta = 1.1
    b = symbol_builder("basic", 1, "none")
    assert 0.5 * b.mass(theta, 0.0)[0, 0] == pytest.approx(0.5 * (2 + np.cos(theta)) / 3,
                                                          abs=1e-14)
    assert b.conv(theta, 0.0)[0, 0] == pytest.approx(1j * np.sin(theta), abs=1e-14)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("kind,delta", [("none", 0.0), ("cip", 0.2), ("lps", 0.2)])
def test_mass_symbol_hermitian_pd(family, kind, delta):
    b = symbol_builder(family, 2, kind)
    for theta in (0.3, 1.7, np.pi):
        M = b.mass(theta, delta)
        assert np.allclose(M, M.conj().T, atol=1e-13)
        assert np.all(np.linalg.eigvalsh(M) > 0)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("kind,delta", ALL_STABS)
def test_conv_symbol_annihilates_constants_at_small_theta(family, kind, delta):
    p = 2
    b = symbol_builder(family, p, kind)
    norms = []
    for theta in (1e-3, 1e-4):
        norms.append(np.linalg.norm(b.conv(theta, delta) @ np.ones(p)))
    assert norms[0] < 10.0 * 1e-3
    assert norms[1] < norms[0]


def test_p1_closed_form_50_samples():
    thetas = np.pi * np.arange(1, 51) / 50
    for theta in thetas:
        ma = semidiscrete_modes("basic", 1, NOSTAB, theta)
        assert ma.omega_over_k[ma.principal] == pytest.approx(closed_form_p1(theta), abs=1e-10)
        assert abs(ma.epsilon[ma.principal]) < 1e-10


def test_p1_quarter_band_value():
    theta = np.pi / 2
    ma = semidiscrete_modes("basic", 1, NOSTAB, theta)
    assert ma.omega_over_k[ma.principal] == pytest.approx(3.0 / np.pi, abs=1e-12)


def test_p2_closed_form_both_modes():
    for theta in np.pi * np.arange(1, 51) / 50:
        ma = semidiscrete_modes("basic", 2, NOSTAB, theta)
        mine = np.sort(ma.omega_over_k)
        assert np.allclose(mine, np.sort(closed_form_p2(theta)), atol=1e-10)
        assert np.max(np.abs(ma.epsilon)) < 1e-10


def test_lps_semidiscrete_damps_every_mode():
    stab = StabilizationSpec("lps", 0.3)
    for theta in np.linspace(0.1, np.pi, 20):
        ma = semidiscrete_modes("basic", 2, stab, theta)
        assert np.max(ma.epsilon) < 0.0


# --------------------------------------------------------------- propagators

def test_amplification_identity_at_zero_cfl():
    G = amplification_matrix("cubature", 2, StabilizationSpec("cip", 0.1), "ssprk", 1.0, 0.0)
    assert np.allclose(G, np.eye(2), atol=1e-14)


def test_amplification_constant_mode_at_small_theta():
    G = amplification_matrix("basic", 3, StabilizationSpec("lps", 0.2), "rk", 1e-8, 0.4)
    lam = eigvals_batched(G)
    assert np.min(np.abs(lam - 1.0)) < 1e-6


def test_amplification_takes_delta_from_stab():
    cip = amplification_matrix("cubature", 2, StabilizationSpec("cip", 0.1), "ssprk", 1.0, 0.4)
    off = amplification_matrix("cubature", 2, StabilizationSpec("cip", 0.0), "ssprk", 1.0, 0.4)
    plain = amplification_matrix("cubature", 2, NOSTAB, "ssprk", 1.0, 0.4)
    assert off.tobytes() == plain.tobytes()
    assert np.max(np.abs(cip - plain)) > 1e-3


@pytest.mark.parametrize("family,degree,kind,delta", [("basic", 3, "supg", 0.31),
                                                      ("cubature", 3, "cip", 0.11),
                                                      ("bernstein", 2, "lps", 0.23)])
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_array_theta_matches_scalar_calls(family, degree, kind, delta, scheme):
    """An array of theta gives, to round-off, the stack of the scalar calls."""
    stab = StabilizationSpec(kind, delta)
    theta = np.linspace(0.1, np.pi, 7)
    G = amplification_matrix(family, degree, stab, scheme, theta, 0.3)
    assert G.shape == (7, degree, degree)
    one = np.stack([amplification_matrix(family, degree, stab, scheme, t, 0.3) for t in theta])
    assert np.max(np.abs(G - one)) <= 1e-13 * np.max(np.abs(one))
    ma = semidiscrete_modes(family, degree, stab, theta)
    assert ma.omega_over_k.shape == (7, degree) and ma.principal.shape == (7,)
    for i, t in enumerate(theta):
        mi = semidiscrete_modes(family, degree, stab, t)
        assert ma.principal[i] == mi.principal
        assert np.allclose(ma.eigenvalues[i], mi.eigenvalues, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("degree", ALL_DEGREES)
@pytest.mark.parametrize("kind,delta", ALL_STABS)
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_oracle_equivalence(family, degree, kind, delta, scheme):
    """G applied to a reduced mode equals one real periodic solver step."""
    rng = np.random.default_rng(hash((family, degree, kind, scheme)) % 2**32)
    for _ in range(3):
        u_red = rng.normal(size=degree) + 1j * rng.normal(size=degree)
        cfl = rng.uniform(0.05, 0.6)
        dd = delta * rng.uniform(0.5, 1.5)
        m = rng.integers(1, 8)
        got, theta = one_step_reduced(family, degree, kind, dd, scheme, m, u_red, cfl)
        want = predicted_step(family, degree, kind, dd, scheme, theta, u_red, cfl)
        err = np.linalg.norm(got - want) / max(np.linalg.norm(got), 1e-30)
        assert err < 1e-9, (family, degree, kind, scheme, err)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(family=st.sampled_from(ALL_FAMILIES), degree=st.sampled_from(ALL_DEGREES),
       kind=st.sampled_from([kind for kind, _ in ALL_STABS]),
       delta=st.floats(0.0, 0.5), scheme=st.sampled_from(ALL_SCHEMES),
       mode=st.integers(1, 7), cfl=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
def test_oracle_equivalence_property(family, degree, kind, delta, scheme, mode, cfl, seed):
    """The solver-vs-symbol oracle at drawn parameter points."""
    rng = np.random.default_rng(seed)
    u_red = rng.normal(size=degree) + 1j * rng.normal(size=degree)
    got, theta = one_step_reduced(family, degree, kind, delta, scheme, mode, u_red, cfl)
    want = predicted_step(family, degree, kind, delta, scheme, theta, u_red, cfl)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(got)


def test_oracle_per_dof_convention():
    """The dt = cfl dx / (p a) variant stays consistent with the solver."""
    rng = np.random.default_rng(99)
    u_red = rng.normal(size=3) + 1j * rng.normal(size=3)
    got, theta = one_step_reduced("cubature", 3, "lps", 0.1, "ssprk", 2, u_red,
                                  cfl=0.9, convention="dof")
    want = predicted_step("cubature", 3, "lps", 0.1, "ssprk", theta, u_red,
                          cfl=0.9, convention="dof")
    assert np.linalg.norm(got - want) / np.linalg.norm(got) < 1e-9


def test_conjugate_symmetry():
    stab = StabilizationSpec("cip", 0.004)
    for theta in (0.7, 1.9):
        a = amplification_matrix("cubature", 3, stab, "ssprk", theta, 0.4)
        b = amplification_matrix("cubature", 3, stab, "ssprk", 2 * np.pi - theta, 0.4)
        la = eigvals_batched(a)
        lb = np.conj(eigvals_batched(b))
        scale = np.max(np.abs(la))
        for mu in la:  # multiset equality up to round-off
            assert np.min(np.abs(lb - mu)) < 1e-11 * scale


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("degree", ALL_DEGREES)
@pytest.mark.parametrize("kind,delta", ALL_STABS)
def test_symbols_at_the_mirrored_angle_are_conjugates(family, degree, kind, delta):
    """The bands are real and their shifts integers, so both symbols at
    2 pi - theta are the conjugates of those at theta (relative to the
    largest entry: the p = 1 convection symbol vanishes at theta = pi)."""
    b = symbol_builder(family, degree, kind)
    theta = np.linspace(0.05, np.pi, 29)
    for symbol in (b.mass, b.conv):
        want = np.conj(symbol(theta, delta))
        err = np.abs(symbol(2 * np.pi - theta, delta) - want).max()
        assert err <= 1e-14 * np.abs(want).max(), symbol.__name__


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("degree", ALL_DEGREES)
@pytest.mark.parametrize("kind", [kind for kind, _ in ALL_STABS])
def test_delta_array_equals_the_scalar_calls_bit_for_bit(family, degree, kind):
    """A 1-D delta leads the symbols' axes, and each slice is the scalar
    call's bytes, delta = 0 included."""
    b = symbol_builder(family, degree, kind)
    deltas = np.array([0.0, 1e-4, 0.0185, 0.31, 3.7])
    for theta in (np.linspace(0.05, 2 * np.pi, 51), np.array(0.7)):
        for symbol in (b.mass, b.conv):
            block = symbol(theta, deltas)
            assert block.shape == (len(deltas),) + theta.shape + (degree, degree)
            for d, one in zip(deltas, block):
                assert one.tobytes() == symbol(theta, d).tobytes(), (symbol.__name__, d)
    diag = b.lumped_diag(deltas)
    assert diag.shape == (len(deltas), degree)
    for d, one in zip(deltas, diag):
        assert one.tobytes() == b.lumped_diag(d).tobytes(), d


def test_conjugate_eigenvalue_negates_the_phase_bit_for_bit():
    """arctan2 is odd in y, signed zeros included: mirroring a mode's
    omega by negation gives the bits phase_damping gives its conjugate."""
    rng = np.random.default_rng(7)
    signed = [complex(re, im) for re in (-2.0, -0.0, 0.0, 2.0) for im in (-0.0, 0.0)]
    lam = np.concatenate([rng.normal(size=400) + 1j * rng.normal(size=400),
                          signed, [1j, -1j, complex(1e-300, -2.0)]])
    omega, eps = phase_damping(lam, 0.37)
    omega_c, eps_c = phase_damping(np.conj(lam), 0.37)
    assert (-omega).tobytes() == omega_c.tobytes()
    assert eps.tobytes() == eps_c.tobytes()


def test_modes_deterministic():
    stab = StabilizationSpec("lps", 0.2)
    runs = []
    for _ in range(2):
        G = amplification_matrix("basic", 3, stab, "ssprk", 2.1, 0.45)
        omega, eps = phase_damping(eigvals_batched(G), 0.45)
        runs.append((omega / 2.1, eps))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


# ------------------------------------------------------------ mode extraction
# the modes of a propagator G: phase_damping(eigvals_batched(G), dt), then
# principal_mode(omega, k)

def test_extract_modes_identity():
    omega, eps = phase_damping(eigvals_batched(np.array([[1.0 + 0j]])), 0.5)
    assert omega[0] == 0.0
    assert eps[0] == 0.0
    assert principal_mode(omega, 1.0) == 0


def test_extract_modes_damped_rotation():
    lam = 0.5 * np.exp(-1j * np.pi / 4)
    omega, eps = phase_damping(eigvals_batched(np.array([[lam]])), 1.0)
    assert omega[0] == pytest.approx(np.pi / 4, abs=1e-14)
    assert eps[0] == pytest.approx(np.log(0.5), abs=1e-14)


def test_extract_modes_growth_flag():
    _, eps = phase_damping(eigvals_batched(np.array([[1.2 + 0j]])), 1.0)
    assert eps[0] > 0


def test_extract_modes_zero_eigenvalue_sentinel():
    lam = eigvals_batched(np.diag([0.0j, 0.5 + 0j]))
    _, eps = phase_damping(lam, 1.0)
    assert eps[lam == 0] == -np.inf


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eigvals_batched_huge_finite_matrix_goes_to_lapack(n):
    """Where |A|^n overflows, the residual check cannot vouch for the
    closed forms (they may overflow too): such a matrix is solved by LAPACK."""
    rng = np.random.default_rng(n)
    A = 1e120 * (rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n)))
    A[0] = 1e-20 * A[0]   # |A|^n finite, though for n = 3 Cardano's p^3 overflows
    lam = eigvals_batched(A)
    ref = np.linalg.eigvals(A)
    for got, want in zip(lam, ref):
        assert np.allclose(np.sort_complex(got), np.sort_complex(want), rtol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
def test_eigvals_batched_non_finite_matrix_raises(n, bad):
    """A NaN or infinite entry is a classified failure, not NaN eigenvalues,
    and raises no RuntimeWarning on the way (warnings are errors here)."""
    A = np.tile(np.eye(n, dtype=complex), (5, 1, 1))
    A[3, 0, n - 1] = bad
    with pytest.raises(EigenSolveFailure, match="non-finite"):
        eigvals_batched(A)


def _dec_polynomial_loop(M, K, Dvec, scale, config):
    """The DeC cfl polynomial with every block of every subtimestep formed
    in every sweep and each W @ S product recomputed for every subtimestep."""
    p = M.shape[-1]
    nq = config.n_iter + 1
    eye = np.broadcast_to(np.eye(p, dtype=complex), M.shape)
    Dinv = 1.0 / Dvec
    P = Dinv[..., :, None] * M
    W = -scale * (Dinv[..., :, None] * K)
    zeros = np.zeros_like(eye)

    def fresh():
        S = [zeros.copy() for _ in range(nq)]
        S[0] = eye.copy()
        return S

    subs = [fresh() for _ in range(config.n_sub + 1)]
    for _ in range(config.n_iter):
        new = [fresh()]
        for m in range(1, config.n_sub + 1):
            Sm = subs[m]
            out = [None] * nq
            for q in range(nq):
                acc = Sm[q] - P @ (Sm[q] - (eye if q == 0 else zeros))
                if q > 0:
                    for z, rho in enumerate(config.rho[m - 1]):
                        if rho != 0.0:
                            acc = acc + rho * (W @ subs[z][q - 1])
                out[q] = acc
            new.append(out)
        subs = new
    return np.stack(subs[config.n_sub], axis=0)


@pytest.mark.parametrize("family,kind", [("basic", "supg"), ("cubature", "lps"),
                                         ("bernstein", "cip")])
@pytest.mark.parametrize("degree", ALL_DEGREES)
def test_dec_cfl_polynomial_matches_full_loop(family, kind, degree):
    """Skipping the zero blocks and sharing W @ S across subtimesteps
    changes no bit of the coefficients."""
    b = symbol_builder(family, degree, kind)
    theta = np.linspace(0.05, np.pi, 23)
    args = (b.mass(theta, 0.07), b.conv(theta, 0.07), b.lumped_diag(0.07), 1.0,
            make_scheme("dec", degree + 1).tableau)
    got = _dec_cfl_polynomial(*args)
    assert got.shape == (degree + 2, 23, degree, degree)
    assert got.tobytes() == _dec_polynomial_loop(*args).tobytes()


@pytest.mark.parametrize("order", sorted(DEC_CONFIGS))
@pytest.mark.parametrize("p", [1, 2, 3])
def test_dec_cfl_polynomial_forms_only_the_last_subtimestep_bitwise(order, p):
    """Forming only block M in the last sweep changes no bit of H, on
    batched random symbols, against the loop that forms every block of
    every subtimestep in every sweep."""
    rng = np.random.default_rng(10 * order + p)
    shape = (3, 7, p, p)
    M = np.eye(p) + 0.3 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    K = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    D = 1.0 + rng.random(size=(3, 1, p))
    got = _dec_cfl_polynomial(M, K, D, 0.8, DEC_CONFIGS[order])
    assert got.shape == (order + 1,) + shape
    assert got.tobytes() == _dec_polynomial_loop(M, K, D, 0.8, DEC_CONFIGS[order]).tobytes()


def _dec_polynomial_reforming_identity(M, K, Dvec, scale, config):
    """The DeC cfl polynomial with block 0 re-formed as S_0 - P (S_0 - I)
    and W @ S_0 re-multiplied in every sweep."""
    eye = np.broadcast_to(np.eye(M.shape[-1], dtype=complex), M.shape)
    Dinv = 1.0 / Dvec
    P = Dinv[..., :, None] * M
    W = -scale * (Dinv[..., :, None] * K)
    zeros = np.zeros_like(eye)
    subs = [[eye.copy()] for _ in range(config.n_sub + 1)]
    for sweep in range(1, config.n_iter + 1):
        quad = [[W @ S for S in Sz] for Sz in subs]
        new = [subs[0]]
        for m in range(1, config.n_sub + 1):
            Sm = subs[m]
            out = [Sm[0] - P @ (Sm[0] - eye)]
            for q in range(1, sweep + 1):
                acc = Sm[q] - P @ Sm[q] if q < sweep else zeros
                for z, rho in enumerate(config.rho[m - 1]):
                    if rho != 0.0 and q <= len(quad[z]):
                        acc = acc + rho * quad[z][q - 1]
                out.append(acc)
            new.append(out)
        subs = new
    return np.stack(subs[config.n_sub], axis=0)


@pytest.mark.parametrize("family,kind", [("basic", "supg"), ("cubature", "lps"),
                                         ("bernstein", "cip"), ("basic", "none")])
@pytest.mark.parametrize("degree", ALL_DEGREES)
def test_dec_cfl_polynomial_keeps_the_identity_block_bitwise(family, kind, degree):
    """Keeping block 0 as I and forming W @ I once changes no bit, on one
    delta column and on a delta-leading block as the scans pass them
    (orders 2 to 4)."""
    b = symbol_builder(family, degree, kind)
    theta = np.linspace(0.05, 2 * np.pi, 37)
    deltas = np.array([1e-4, 0.03, 0.7, 4.0])
    config = make_scheme("dec", degree + 1).tableau
    column = (b.mass(theta, 0.03), b.conv(theta, 0.03), b.lumped_diag(0.03))
    block = (b.mass(theta, deltas), b.conv(theta, deltas), b.lumped_diag(deltas)[:, None])
    for M, K, D in (column, block):
        assert (D > 0).all()
        got = _dec_cfl_polynomial(M, K, D, 0.8, config)
        assert got.shape == (degree + 2,) + M.shape
        assert got.tobytes() == _dec_polynomial_reforming_identity(M, K, D, 0.8, config).tobytes()
