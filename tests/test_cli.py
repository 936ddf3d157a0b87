import ast
import concurrent.futures
import errno
import itertools
import json
import shlex
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from cgstab import cli, scan, solver
from cgstab.cli import main
from cgstab.fourier import amplification_matrix, phase_damping, principal_mode
from cgstab.problems import NoConvergence
from cgstab.scan import Combination, ScanGrid, _mode_fields, scan_combination
from cgstab.stabilization import StabilizationSpec, _Inverse
from conftest import ALL_DEGREES, ALL_FAMILIES, ALL_SCHEMES, ALL_STABS


def run_cli(args):
    return main(args)


def test_modes_semidiscrete_nostab_zero_damping(tmp_path):
    rc = run_cli(["modes", "--family", "basic", "--degree", "1", "--stab", "none",
                  "--time", "rk", "--semi-discrete", "--theta-samples", "40",
                  "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "modes_basic-p1-none.csv").read_text().splitlines()
    assert rows[0].startswith("# cgstab config:")
    header = rows[1].split(",")
    eps_col = header.index("epsilon")
    cf_col = header.index("omega_over_k_closed_form")
    for row in rows[2:]:
        cells = row.split(",")
        assert abs(float(cells[eps_col])) < 1e-10
        assert float(cells[2]) == pytest.approx(float(cells[cf_col]), abs=1e-10)


def test_modes_semidiscrete_file_ignores_the_time_scheme(tmp_path):
    """The semi-discrete curves do not depend on the scheme or the step:
    one file per (family, degree, stab), its header free of those keys."""
    common = ["modes", "--family", "cubature", "--degree", "2", "--stab", "cip",
              "--delta", "0.05", "--semi-discrete", "--theta-samples", "12"]
    texts = []
    for scheme, cfl in (("rk", "0.3"), ("dec", "0.7")):
        out = tmp_path / scheme
        assert run_cli(common + ["--time", scheme, "--cfl", cfl, "--out", str(out)]) == 0
        assert [path.name for path in out.iterdir()] == ["modes_cubature-p2-cip.csv"]
        texts.append((out / "modes_cubature-p2-cip.csv").read_bytes())
    assert texts[0] == texts[1]
    header = texts[0].decode().splitlines()[0]
    assert not any(key in header for key in ("time=", "cfl=", "convention="))


def test_modes_propagator_has_no_closed_form_column(tmp_path):
    """The closed form is the semi-discrete curve: a propagator's fully
    discrete omega/k is not compared with it."""
    assert run_cli(["modes", "--family", "basic", "--degree", "1", "--stab", "none",
                    "--time", "rk", "--cfl", "0.4", "--theta-samples", "8",
                    "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "modes_basic-p1-none-rk.csv").read_text().splitlines()
    assert rows[1] == "theta,mode_index,omega_over_k,epsilon,is_principal"
    assert all(len(row.split(",")) == 5 for row in rows[2:])


def test_modes_cip_delta_zero_matches_nostab(tmp_path):
    run_cli(["modes", "--family", "cubature", "--degree", "2", "--stab", "cip",
             "--delta", "0.0", "--cfl", "0.3", "--theta-samples", "20",
             "--out", str(tmp_path)])
    run_cli(["modes", "--family", "cubature", "--degree", "2", "--stab", "none",
             "--cfl", "0.3", "--theta-samples", "20", "--out", str(tmp_path)])
    a = (tmp_path / "modes_cubature-p2-cip-ssprk.csv").read_text().splitlines()[2:]
    b = (tmp_path / "modes_cubature-p2-none-ssprk.csv").read_text().splitlines()[2:]
    for ra, rb in zip(a, b):
        va = [float(x) for x in ra.split(",")[:4]]
        vb = [float(x) for x in rb.split(",")[:4]]
        assert np.allclose(va, vb, atol=1e-12)


def _modes_rows(tmp_path, comb, cfl, delta, n_theta):
    """The data rows of ``cgstab modes`` for one combination and (cfl, delta)."""
    assert run_cli(["modes", "--family", comb.family, "--degree", str(comb.degree),
                    "--stab", comb.stab_kind, "--time", comb.scheme_kind, "--cfl", repr(cfl),
                    "--delta", repr(delta), "--theta-samples", str(n_theta),
                    "--out", str(tmp_path)]) == 0
    rows = (tmp_path / f"modes_{comb.label()}.csv").read_text().splitlines()[2:]
    return [row.split(",") for row in rows]


# one combination per scan path: the RK and SSPRK polynomials of eig(M^-1 K),
# the screened DeC solve with a non-diagonal and with a diagonal mass
@pytest.mark.parametrize("label", ["cubature-p3-cip-rk", "cubature-p3-lps-ssprk",
                                   "basic-p3-supg-dec", "cubature-p3-lps-dec"])
def test_modes_rows_are_the_scan_engine_reduction(tmp_path, label):
    """modes writes the scans' own eigenvalues: _mode_fields on the whole
    theta batch at one cfl and a block of one delta, reduced by
    phase_damping and principal_mode."""
    family, p, stab, scheme = label.split("-")
    comb = Combination(family, int(p[1:]), stab, scheme)
    cfl, delta, n = 0.3, 0.05, 37
    rows = _modes_rows(tmp_path, comb, cfl, delta, n)
    theta = np.pi * np.arange(1, n + 1) / n
    (kept, lam), = _mode_fields(comb, theta, np.array([cfl]), np.array([delta]),
                                np.array([np.inf]))
    omega, eps = phase_damping(lam[0], cfl)
    pick = principal_mode(omega, theta[:, None])
    want = [[f"{t:.12g}", str(i), f"{omega[j, i] / t:.12g}", f"{eps[j, i]:.12g}",
             str(int(i == pick[j]))] for j, t in enumerate(theta) for i in range(comb.degree)]
    assert kept.all() and rows == want


COARSE = ScanGrid.default(grid_ratio=1.3, theta_samples=24)
ALL_COMBOS = [Combination(fam, p, stab, scheme) for fam in ALL_FAMILIES for p in ALL_DEGREES
              for stab, _ in ALL_STABS for scheme in ALL_SCHEMES]


@pytest.mark.parametrize("comb", ALL_COMBOS, ids=Combination.label)
def test_modes_match_lapack_on_the_public_propagator(tmp_path, comb):
    """At the min_eta_u optimum of a coarse scan (stable on its band; (0.1, 0.05)
    for the 14 combinations with none), the eigenvalues modes writes match
    LAPACK's of amplification_matrix to 1e-10 of max|lambda|, and the
    principal mode agrees wherever the best |omega - k| leads the second
    best by more than 1e-9."""
    opt = scan_combination(comb, COARSE).optima["min_eta_u"]
    cfl, delta = (opt["cfl"], opt["delta"]) if opt else (0.1, 0.05)
    n, p = 50, comb.degree
    rows = _modes_rows(tmp_path, comb, cfl, delta, n)
    theta = np.pi * np.arange(1, n + 1) / n
    dt = cfl   # unit dx and unit speed
    w = np.array([[float(r[2]), float(r[3])] for r in rows]).reshape(n, p, 2)
    mine = np.exp(w[..., 1] * dt - 1j * w[..., 0] * theta[:, None] * dt)
    mine_pick = np.array([int(r[4]) for r in rows]).reshape(n, p).argmax(axis=-1)
    G = amplification_matrix(comb.family, p, StabilizationSpec(comb.stab_kind, delta),
                             comb.scheme_kind, theta, cfl)
    ref = np.linalg.eigvals(G)
    tol = 1e-10 * np.abs(ref).max()
    omega, _ = phase_damping(ref, dt)
    dist = np.sort(np.abs(omega - theta[:, None]), axis=-1)
    ref_pick = principal_mode(omega, theta[:, None])
    for j in range(n):
        assert min(np.abs(mine[j, list(perm)] - ref[j]).max()
                   for perm in itertools.permutations(range(p))) <= tol, theta[j]
        if p == 1 or dist[j, 1] - dist[j, 0] > 1e-9:
            assert abs(mine[j, mine_pick[j]] - ref[j, ref_pick[j]]) <= tol, theta[j]


@pytest.mark.parametrize("scheme", ["rk", "dec"])
def test_modes_non_finite_propagator_is_numerical_failure(tmp_path, capsys, scheme):
    """A propagator that overflows exits 3 with no CSV and no RuntimeWarning,
    not NaN rows with one of them marked principal."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(["modes", "--family", "basic", "--degree", "2", "--stab", "none",
                      "--time", scheme, "--cfl", "1e200", "--out", str(tmp_path)])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_scan_deterministic_bytes(tmp_path):
    args = ["scan", "--family", "cubature", "--degree", "1", "--stab", "lps",
            "--time", "ssprk", "--theta-samples", "24", "--out"]
    rc = run_cli(args + [str(tmp_path / "a")])
    assert rc == 0
    run_cli(args + [str(tmp_path / "b")])
    fa = (tmp_path / "a" / "scan_cubature-p1-lps-ssprk.json").read_bytes()
    fb = (tmp_path / "b" / "scan_cubature-p1-lps-ssprk.json").read_bytes()
    assert fa == fb
    payload = json.loads(fa)
    assert payload["optima"]["max_cfl"]["cfl"] > 0


def test_output_directory_changes_no_byte(tmp_path):
    """The recorded configuration leaves out --out and --jobs."""
    for out, jobs in (("a", "1"), ("b", "2")):
        common = ["--family", "cubature", "--degree", "1", "--stab", "cip", "--time", "ssprk",
                  "--out", str(tmp_path / out)]
        assert run_cli(["scan", "--theta-samples", "12", "--jobs", jobs] + common) == 0
        assert run_cli(["solve", "--delta", "0.094", "--cells", "12"] + common) == 0
        assert run_cli(["modes", "--delta", "0.094", "--theta-samples", "12"] + common) == 0
        assert run_cli(["convergence", "--delta", "0.094", "--cfl", "1.0", "--levels", "3",
                        "--problem", "advection"] + common) == 0
    header = (tmp_path / "a" / "mask_cubature-p1-cip-ssprk.csv").read_text().splitlines()[0]
    assert "out=" not in header and "jobs=" not in header
    names = sorted(path.name for path in (tmp_path / "a").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "b").iterdir())
    assert len(names) == 7   # scan, mask, solve, modes, convergence, orders, time_vs_error
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_scan_no_stable_region_exit_code(tmp_path):
    rc = run_cli(["scan", "--family", "basic", "--degree", "1", "--stab", "none",
                  "--time", "rk", "--theta-samples", "16", "--out", str(tmp_path)])
    assert rc == 4


def test_optimize_single_combination(tmp_path):
    rc = run_cli(["optimize", "--family", "cubature", "--degree", "1", "--stab",
                  "cip", "--time", "ssprk", "--theta-samples", "24",
                  "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "optimize.csv").read_text().splitlines()
    assert rows[1] == "combination,strategy,cfl,delta,monotone_safe"
    assert len(rows) == 2 + 3
    assert rows[2].startswith("cubature-p1-cip-ssprk,max_cfl,")


def test_optimize_marks_unstable_with_slash(tmp_path):
    rc = run_cli(["optimize", "--family", "basic", "--degree", "1", "--stab", "none",
                  "--time", "rk", "--theta-samples", "16", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "optimize.csv").read_text().splitlines()
    assert rows[2].endswith(",/,/,/")


def test_solve_writes_json(tmp_path):
    rc = run_cli(["solve", "--family", "cubature", "--degree", "1", "--stab", "cip",
                  "--time", "ssprk", "--cfl", "1.0", "--delta", "0.094",
                  "--problem", "advection", "--cells", "20", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "solve_advection_cubature-p1-cip-ssprk_20.json").read_text())
    assert payload["l2_error"] < 0.05
    assert payload["n_steps"] > 0


def test_solve_files_of_two_problems_do_not_collide(tmp_path):
    base = ["solve", "--family", "cubature", "--degree", "1", "--stab", "cip", "--time", "ssprk",
            "--cfl", "0.5", "--delta", "0.094", "--cells", "20", "--out", str(tmp_path)]
    for problem in ("advection", "burgers"):
        assert run_cli(base + ["--problem", problem]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["solve_advection_cubature-p1-cip-ssprk_20.json",
                     "solve_burgers_cubature-p1-cip-ssprk_20.json"]
    payloads = [json.loads((tmp_path / name).read_text()) for name in names]
    assert [p["problem"] for p in payloads] == ["advection", "burgers"]


def test_convergence_outputs(tmp_path):
    rc = run_cli(["convergence", "--family", "cubature", "--degree", "1",
                  "--stab", "cip", "--time", "ssprk", "--cfl", "1.304",
                  "--delta", "0.094", "--problem", "burgers", "--levels", "3",
                  "--out", str(tmp_path)])
    assert rc == 0
    orders = (tmp_path / "orders_burgers_cubature-p1-cip-ssprk.csv").read_text()
    order = float(orders.strip().splitlines()[-1].split(",")[-1])
    assert 1.7 < order < 2.5
    tve = (tmp_path / "time_vs_error_burgers_cubature-p1-cip-ssprk.csv").read_text()
    assert tve.splitlines()[1] == "dof_steps,l2_error"
    dof_steps = [int(line.split(",")[0]) for line in tve.splitlines()[2:]]
    assert len(dof_steps) == 3 and dof_steps == sorted(dof_steps)


def test_levels_validation(tmp_path):
    rc = run_cli(["convergence", "--levels", "1", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("levels, dx1", [(1023, None), (1100, None), (None, [5e-324, 1e-3, 1e-4])],
                         ids=["levels-1023", "levels-1100", "subnormal-dx1"])
def test_levels_past_the_cell_limit_are_config_error(tmp_path, capsys, levels, dx1):
    """A level count or a dx1 whose cells overflow a float (1 / 2**1100, or
    2 / 5e-324) exits 2 before any level runs, and nothing is written."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({} if dx1 is None else {"dx1": dx1}))
    args = [] if levels is None else ["--levels", str(levels)]
    rc = run_cli(["convergence", *args, "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not (tmp_path / "out").exists()


def test_levels_and_dx1_of_different_counts_are_config_error(tmp_path, capsys):
    """A dx1 list from the config file may not silently override --levels."""
    path = tmp_path / "dx.json"
    path.write_text(json.dumps({"dx1": [0.05, 0.025, 0.0125]}))
    rc = run_cli(["convergence", "--problem", "burgers", "--family", "cubature", "--degree", "1",
                  "--stab", "cip", "--time", "ssprk", "--config", str(path), "--levels", "5",
                  "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "dx1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_repeated_mesh_sizes_are_config_error(tmp_path, capsys):
    """Levels that give one mesh fit no order: exit 2, nothing written."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dx1": [0.1, 0.1, 0.1]}))
    rc = run_cli(["convergence", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "distinct meshes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_levels_beyond_four_run_every_level(tmp_path):
    """Each level halves dx1, so the first levels match a shorter study."""
    base = ["convergence", "--family", "cubature", "--degree", "1", "--stab", "cip",
            "--time", "ssprk", "--cfl", "1.304", "--delta", "0.094", "--problem", "burgers"]
    assert run_cli(base + ["--levels", "5", "--out", str(tmp_path / "five")]) == 0
    assert run_cli(base + ["--levels", "3", "--out", str(tmp_path / "three")]) == 0
    name = "convergence_burgers_cubature-p1-cip-ssprk.csv"
    five = (tmp_path / "five" / name).read_text().splitlines()[2:]
    three = (tmp_path / "three" / name).read_text().splitlines()[2:]
    assert len(five) == 5 and five[:3] == three


@pytest.mark.parametrize("cfl", ["-0.5", "0", "nan"])
@pytest.mark.parametrize("command", ["solve", "convergence", "modes"])
def test_cfl_not_positive_and_finite_is_config_error(tmp_path, capsys, command, cfl):
    levels = ["--levels", "3"] if command == "convergence" else []
    rc = run_cli([command, "--family", "cubature", "--degree", "1", "--stab", "cip",
                  "--time", "ssprk", "--cfl", cfl, *levels, "--out", str(tmp_path)])
    assert rc == 2
    assert "cfl" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_too_many_projected_steps_is_config_error(tmp_path, capsys, monkeypatch, command):
    from cgstab import solver

    monkeypatch.setattr(solver, "MAX_STEPS", 10)
    rc = run_cli([command, "--out", str(tmp_path)])   # advection at cfl 0.5: 100+ steps
    assert rc == 2
    assert "projects more than 10 time steps" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, module, name, value, message", [
    ("scan", scan, "MAX_SCAN_CELLS", 300, "grid values exceed"),         # the 358 delta values
    ("optimize", scan, "MAX_SCAN_CELLS", 1000, "at most 1000 cells"),    # 202 x 358 cells
    ("scan", scan, "MAX_THETA_SAMPLES", 99, "wavenumber samples"),       # the default 100
    ("modes", cli, "MAX_THETA_SAMPLES", 199, "wavenumber samples"),      # the default 200
    ("solve", solver, "MAX_CELLS", 39, "at most 39 cells"),              # the default 40
])
def test_oversized_work_is_config_error(tmp_path, capsys, monkeypatch, command, module, name,
                                        value, message):
    """Each size guard refuses before any work or artifact: exit 2, nothing written."""
    monkeypatch.setattr(module, name, value)
    rc = run_cli([command, "--family", "cubature", "--degree", "1", "--stab", "cip",
                  "--time", "ssprk", "--out", str(tmp_path)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


class _RecordingPool:
    """Stands in for ProcessPoolExecutor, which ``cmd_optimize`` imports when
    it runs: records the worker count, maps serially."""

    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_optimize_starts_no_more_workers_than_combinations(tmp_path, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "workers", [])
    cfg = {"cfl_min": 0.2, "cfl_max": 0.3, "delta_min": 0.05, "delta_max": 0.1,
           "grid_ratio": 1.4, "theta_samples": 4}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    rc = run_cli(["optimize", "--config", str(path), "--jobs", "500",
                  "--out", str(tmp_path / "all")])
    assert rc == 0 and _RecordingPool.workers == [108]
    rc = run_cli(["optimize", "--config", str(path), "--family", "cubature", "--degree", "1",
                  "--stab", "cip", "--time", "ssprk", "--jobs", "4",
                  "--out", str(tmp_path / "one")])
    assert rc == 0 and _RecordingPool.workers == [108, 1]   # one combination: a pool of one


@pytest.mark.parametrize("command", cli.SWEEP)
def test_jobs_below_one_is_config_error(tmp_path, capsys, command):
    """--jobs 0, or a config file's jobs of -3, exits 2 and writes nothing."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"jobs": -3}))
    for args, got in ((["--jobs", "0"], "got 0"), (["--config", str(path)], "got -3")):
        assert run_cli([command, *args, "--out", str(tmp_path / "out")]) == 2
        assert f"jobs must be at least 1, {got}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_an_output_directory_that_cannot_be_made_is_an_io_failure(tmp_path, capsys):
    """--out below a regular file: mkdir fails, exit 5; an unreadable
    --config stays a configuration error."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = ["modes", "--family", "basic", "--degree", "1", "--stab", "none", "--time", "rk",
            "--theta-samples", "4"]
    assert run_cli(args + ["--out", str(blocker / "out")]) == cli.EXIT_IO
    assert "I/O failure:" in capsys.readouterr().err
    assert run_cli(args + ["--config", str(blocker / "c.json"), "--out", str(tmp_path)]) == 2
    assert "configuration error:" in capsys.readouterr().err


def test_bad_grid_is_config_error(tmp_path):
    rc = run_cli(["scan", "--family", "cubature", "--degree", "1", "--stab", "cip",
                  "--time", "ssprk", "--config", str(tmp_path / "c.json"),
                  "--out", str(tmp_path)])
    assert rc == 2  # missing config file -> config error


@pytest.mark.parametrize("key,value", [("cfl_max", float("inf")), ("delta_max", float("inf")),
                                       ("grid_ratio", float("inf")), ("grid_ratio", float("nan"))])
def test_non_finite_grid_bound_is_config_error(tmp_path, capsys, key, value):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({key: value}))
    rc = run_cli(["scan", "--family", "cubature", "--degree", "1", "--stab", "cip",
                  "--time", "ssprk", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,stab,delta", [("solve", "lps", "--delta inf"),
                                                ("solve", "cip", "config NaN"),
                                                ("modes", "cip", "--delta nan")])
def test_non_finite_delta_is_config_error(tmp_path, capsys, command, stab, delta):
    how, value = delta.split()
    if how == "config":
        (tmp_path / "c.json").write_text(json.dumps({"delta": float(value)}))
        args = ["--config", str(tmp_path / "c.json")]
    else:
        args = [how, value]
    rc = run_cli([command, "--family", "cubature", "--degree", "1", "--stab", stab,
                  "--time", "ssprk", *args, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "delta must be nonnegative and finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


HUGE_DELTA = {"delta_max": 1e300, "grid_ratio": 1e300}     # the delta grid [1, 1e300]
HUGE_CFL = {"cfl_max": 1e300, "grid_ratio": 1e300}         # the cfl grid [1, 1e300]


@pytest.mark.parametrize("command,stab,time,cfg,flags", [
    ("scan", "supg", "dec", HUGE_DELTA, []),
    ("scan", "lps", "dec", HUGE_DELTA, []),
    ("scan", "cip", "ssprk", HUGE_DELTA, []),
    ("scan", "none", "rk", HUGE_CFL, []),
    ("scan", "none", "dec", HUGE_CFL, []),
    ("solve", "cip", "ssprk", {}, ["--delta", "1e300"]),
    ("convergence", "cip", "ssprk", {}, ["--delta", "1e300"]),
])
def test_cfl_or_delta_past_its_ceiling_is_config_error(tmp_path, command, stab, time, cfg, flags):
    """A cfl past scan.MAX_CFL or a delta past stabilization.MAX_DELTA is
    refused before it can overflow the symbols, the bound or the residual."""
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    rc = run_cli([command, "--stab", stab, "--time", time, "--config", str(tmp_path / "c.json"),
                  *flags, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,cfg,code", [
    ("scan", {"cfl_max": 1e6, "delta_max": 1e6, "grid_ratio": 1e6}, cli.EXIT_NO_STABLE),
    ("solve", {"stab": "cip", "delta": 1e6}, cli.EXIT_NUMERIC),
])
def test_cfl_and_delta_at_their_ceilings_run(tmp_path, command, cfg, code):
    """The ceilings themselves are accepted, and the run ends in a classified
    exit without a floating-point warning."""
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert run_cli([command, "--config", str(tmp_path / "c.json"),
                    "--out", str(tmp_path / "out")]) == code


@pytest.mark.parametrize("command,n", [("scan", "0"), ("scan", "-3"), ("scan", "1"),
                                       ("modes", "0"), ("modes", "-3")])
def test_too_few_wavenumber_samples_is_config_error(tmp_path, command, n):
    rc = run_cli([command, "--family", "cubature", "--degree", "1", "--stab", "cip",
                  "--time", "ssprk", "--theta-samples", n, "--out", str(tmp_path)])
    assert rc == 2
    assert not any(tmp_path.iterdir())


def test_config_file_with_flag_override(tmp_path):
    cfg = {"family": "cubature", "degree": 1, "stab": "cip", "time": "ssprk",
           "cfl": 0.9, "delta": 0.094, "problem": "advection", "cells": 16}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    rc = run_cli(["solve", "--config", str(path), "--cells", "24",
                  "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "solve_advection_cubature-p1-cip-ssprk_24.json").exists()


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"familly": "basic"}))
    rc = run_cli(["solve", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("command,cfg", [
    ("convergence", {"dx1": 0.05}),
    ("convergence", {"dx1": [0.0, 0.025, 0.0125]}),
    ("solve", {"cells": [40]}),
    ("modes", {"degree": 2.9, "semi_discrete": True}),
    ("modes", {"degree": True, "semi_discrete": True}),
    ("modes", {"semi_discrete": "no"}),
    ("modes", {"family": "lagrange"}),   # outside the flag's choices
    ("modes", {"cfl": "0.5"}),
    ("modes", {"out": 3, "semi_discrete": True}),
    ("modes", 3),
    ("convergence", {"dx1": [10**400, 0.025, 0.0125]}),   # integers no float holds
    ("modes", {"delta": 10**400}),
    ("scan", {"grid_ratio": -10**400}),
])
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, command, cfg):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(cfg))
    rc = run_cli([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_optimize_all_combinations_parallel_deterministic(tmp_path):
    """--jobs changes the worker count, never the bytes written."""
    cfg = {"cfl_min": 0.2, "cfl_max": 0.5, "delta_min": 0.05, "delta_max": 0.3,
           "grid_ratio": 1.4, "theta_samples": 12}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    rc = run_cli(["optimize", "--config", str(path), "--jobs", "1",
                  "--out", str(tmp_path / "serial")])
    assert rc == 0
    rc = run_cli(["optimize", "--config", str(path), "--jobs", "2",
                  "--out", str(tmp_path / "parallel")])
    assert rc == 0
    a = (tmp_path / "serial" / "optimize.csv").read_text()
    b = (tmp_path / "parallel" / "optimize.csv").read_text()
    assert a == b
    assert len(a.splitlines()) == 2 + 3 * 108


def test_optimize_combination_keys_filter_the_sweep(tmp_path):
    """A partial combination sweeps every match: --family basic runs 36."""
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"cfl_min": 0.2, "cfl_max": 0.5, "delta_min": 0.05,
                                "delta_max": 0.3, "grid_ratio": 1.4, "theta_samples": 12}))
    assert run_cli(["optimize", "--config", str(path), "--family", "basic",
                    "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "optimize.csv").read_text().splitlines()[2:]
    assert len(rows) == 36 * 3
    assert {row.split("-")[0] for row in rows} == {"basic"}


# the options each subcommand reads, written out here rather than read from the CLI
READS = {
    "modes": {"family", "degree", "stab", "time", "cfl", "delta", "theta_samples",
              "semi_discrete"},
    "scan": {"family", "degree", "stab", "time", "theta_samples",
             "cfl_min", "cfl_max", "delta_min", "delta_max", "grid_ratio"},
    "solve": {"family", "degree", "stab", "time", "problem", "cfl", "delta", "cells"},
    "convergence": {"family", "degree", "stab", "time", "problem", "cfl", "delta", "levels",
                    "dx1"},
}
READS["optimize"] = READS["scan"]
CONFIG_ONLY = {"cfl_min", "cfl_max", "delta_min", "delta_max", "grid_ratio", "dx1"}
# one valid value per option, as a JSON value and as a flag's argument (None: a bare flag);
# mu, fixed at scan.MU, is an option of no subcommand
VALUES = {"family": "basic", "degree": 1, "stab": "cip", "time": "rk", "cfl": 0.3,
          "delta": 0.1, "theta_samples": 8, "semi_discrete": True,
          "mu": 1.3, "cfl_min": 0.1, "cfl_max": 1.0, "delta_min": 0.01, "delta_max": 1.0,
          "grid_ratio": 1.5, "problem": "burgers", "cells": 20, "levels": 3,
          "dx1": [0.1, 0.05, 0.025], "out": "x", "jobs": 2}
UNREAD = {"modes": ("cells", "jobs"), "scan": ("cfl", "mu"), "optimize": ("delta", "mu"),
          "solve": ("jobs",), "convergence": ("theta_samples", "jobs")}


def _flag(key):
    value = VALUES[key]
    return ["--" + key.replace("_", "-")] + ([] if value is True else [str(value)])


@pytest.mark.parametrize("command", sorted(READS))
def test_each_subcommand_accepts_only_the_options_it_reads(tmp_path, capsys, command):
    """out is accepted everywhere and jobs by the sweeps; any other option the
    subcommand does not read, as a flag or a config key, returns 2 with a
    configuration error naming it and writes nothing."""
    assert sum(map(len, READS.values())) == 45
    accepted = READS[command] | {"out"} | ({"jobs"} if command in cli.SWEEP else set())
    path = tmp_path / "c.json"
    for key in VALUES:
        path.write_text(json.dumps({key: VALUES[key]}))
        try:
            cli._load_config(path, command)
            took_key = True
        except ValueError:
            took_key = False
        assert took_key == (key in accepted), key
        if key in CONFIG_ONLY:
            continue
        try:
            cli.build_parser().parse_args([command] + _flag(key))
            took_flag = True
        except ValueError:
            took_flag = False
        assert took_flag == (key in accepted), key
    capsys.readouterr()

    out = ["--out", str(tmp_path / "out")]
    for unread in UNREAD[command]:
        assert main([command, *_flag(unread), *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "--" + unread.replace("_", "-") in err
        path.write_text(json.dumps({unread: VALUES[unread]}))
        assert main([command, "--config", str(path), *out]) == 2
        assert repr(unread) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(READS))
def test_the_cfl_convention_is_no_option(tmp_path, capsys, command):
    """The CFL is per cell: --convention and a "convention" config key are
    configuration errors on every subcommand, and nothing is written."""
    args = [command, "--family", "basic", "--degree", "1", "--stab", "none", "--time", "rk",
            "--out", str(tmp_path / "out")]
    assert main(args + ["--convention", "cell"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "--convention" in err
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"convention": "cell"}))
    assert main(args + ["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "'convention'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["scan", "--degree", "two"], ["solve", "--family", "lagrange"], ["modes", "--bogus"],
    ["transform"], [],
])
def test_flag_errors_return_the_config_error(tmp_path, capsys, argv):
    """A malformed or unknown flag, or a missing or unknown subcommand, returns
    2 with a configuration error line, as a config key does; nothing is written."""
    assert main([*argv, "--out", str(tmp_path / "out")] if argv else argv) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not (tmp_path / "out").exists()


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--help"])
    assert exc.value.code == 0
    assert "--theta-samples" in capsys.readouterr().out


def test_json_integers_reach_the_library_as_floats(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"cfl_min": 0.25, "cfl_max": 1, "delta_min": 0.0625,
                                "delta_max": 1, "grid_ratio": 4, "theta_samples": 4}))
    assert run_cli(["scan", "--config", str(path), "--family", "cubature", "--degree", "1",
                    "--stab", "cip", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "scan_cubature-p1-cip-ssprk.json").read_text())
    assert type(payload["cfl_values"][-1]) is float
    assert payload["cfl_values"] == [0.25, 1.0] and payload["delta_values"] == [0.0625, 0.25, 1.0]


def test_config_out_sets_the_output_directory(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"out": str(tmp_path / "here"), "semi_discrete": True}))
    assert run_cli(["modes", "--config", str(path), "--theta-samples", "4"]) == 0
    assert [p.name for p in (tmp_path / "here").iterdir()] == ["modes_cubature-p2-none.csv"]


README = Path(__file__).parents[1] / "README.md"


def _readme_block(section, language):
    """The first ``language`` code block under the heading ``section`` of README.md."""
    text = README.read_text().split(f"## {section}\n", 1)[1]
    return text.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs(capsys):
    """The Quick start block runs as written; its last line prints the order ~3."""
    exec(compile(_readme_block("Quick start", "python"), "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert abs(float(out[-1]) - 3.0) < 0.25


def test_package_root_exports_what_the_quick_start_and_demos_import():
    """The root's public names, beside its submodules, are exactly the names
    the Quick start block and the demos import from cgstab."""
    import cgstab
    texts = [_readme_block("Quick start", "python")]
    texts += [path.read_text() for path in (README.parent / "demos").glob("*.py")]
    imported = {alias.name for text in texts for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.ImportFrom) and node.module == "cgstab"
                for alias in node.names}
    exported = {name for name, value in vars(cgstab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == imported


def test_readme_options_table_is_cli_options():
    """Each row of the README's options table lists exactly the options its
    subcommands read, beside the run settings out and jobs, with "combination"
    for the four combination keys and a dagger on exactly the config-only keys."""
    text = README.read_text().split("| subcommand | options it reads |\n| --- | --- |\n", 1)[1]
    rows = {}
    for line in text.split("\n\n", 1)[0].splitlines():
        commands, options = line.strip("|").split("|")
        for command in commands.replace("`", "").split(","):
            rows[command.strip()] = options
    assert sorted(rows) == sorted(cli.ALL)
    for command, options in rows.items():
        listed = {}
        for item in options.split(","):
            name = item.split("(")[0].strip()
            if name == "combination":
                listed.update(dict.fromkeys(cli.COMBINATION, False))
            else:
                listed[name.strip("`†")] = name.endswith("†")
        reads = {key: opt.flag is None for key, opt in cli.OPTIONS.items()
                 if command in opt.reads and key not in ("out", "jobs")}
        assert listed == reads, command


def _readme_command_lines():
    """The cgstab lines of the bash block under "## Command line" in README.md."""
    block = _readme_block("Command line", "bash")
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("cgstab ")]


def test_readme_command_lines_run(tmp_path):
    lines = _readme_command_lines()
    assert [argv[1] for argv in lines] == ["modes", "scan", "optimize", "solve", "convergence"]
    for argv in lines:
        i = argv.index("--out")
        argv[i + 1] = str(tmp_path / argv[1])
        assert main(argv[1:]) == 0, argv


def test_a_singular_solve_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    """numpy's LinAlgError subclasses ValueError, yet it is no configuration error."""
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "semidiscrete_modes", singular)
    assert main(["modes", "--semi-discrete", "--out", str(tmp_path)]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numerical failure: Singular matrix")


def _stalled_characteristics(*args, **kwargs):
    raise NoConvergence("Burgers characteristic iteration stalled")


def _singular_mass(*args, **kwargs):
    _Inverse(sp.csc_matrix(np.ones((3, 3))), np.array([0, 4, 8]))


@pytest.mark.parametrize("failing, message", [
    (_stalled_characteristics, "Burgers characteristic iteration stalled"),
    (_singular_mass, "Factor is exactly singular"),
])
def test_a_failed_run_is_a_numerical_failure(tmp_path, monkeypatch, capsys, failing, message):
    """A run whose exact solution does not converge, or whose mass is
    singular, exits 3 with one numerical-failure line and no traceback."""
    monkeypatch.setattr(cli, "run_simulation", failing)
    assert main(["solve", "--problem", "burgers", "--out", str(tmp_path)]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err.splitlines() == [f"numerical failure: {message}"]
    assert not any(tmp_path.iterdir())


def test_a_key_error_inside_a_command_propagates(tmp_path, monkeypatch):
    """Configuration is checked before a command runs (config keys by
    _load_config, flag values by argparse), so a KeyError inside one is a
    bug: it propagates with its traceback instead of exiting 2."""
    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "scan_combination", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["scan", "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_a_failing_writer_leaves_no_partial_artifact(tmp_path, monkeypatch, capsys):
    """Artifacts are written through a temporary file and renamed: when the
    mask CSV's writer fails after its first row, no mask file and no
    temporary file is left, and an earlier mask file stays as it was.  The
    failure is an I/O one, not a configuration error."""
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"cfl_min": 0.2, "cfl_max": 0.5, "delta_min": 0.05,
                                  "delta_max": 0.3, "grid_ratio": 1.3}))
    args = ["scan", "--family", "cubature", "--degree", "1", "--stab", "lps", "--time", "rk",
            "--config", str(config), "--out"]
    kept, fresh = tmp_path / "kept", tmp_path / "fresh"
    assert main(args + [str(kept)]) == 0
    mask = kept / "mask_cubature-p1-lps-rk.csv"
    before = mask.read_bytes()
    assert before.count(b"\n") > 8

    row_writer, rows = scan._csv_row, []

    def failing_row(*row):
        if rows:
            raise OSError(errno.ENOSPC, "No space left on device")
        rows.append(row)
        return row_writer(*row)

    monkeypatch.setattr(scan, "_csv_row", failing_row)
    for out in (kept, fresh):
        rows.clear()
        assert main(args + [str(out)]) == cli.EXIT_IO
        assert "I/O failure:" in capsys.readouterr().err
        assert len(rows) == 1
    assert sorted(p.name for p in kept.iterdir()) == [
        "mask_cubature-p1-lps-rk.csv", "scan_cubature-p1-lps-rk.json"]
    assert mask.read_bytes() == before
    assert sorted(p.name for p in fresh.iterdir()) == ["scan_cubature-p1-lps-rk.json"]
