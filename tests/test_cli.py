import itertools
import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from cgstab import cli
from cgstab.cli import main
from cgstab.fourier import amplification_matrix, dt_scale, phase_damping, principal_mode
from cgstab.scan import Combination, ScanGrid, _engine, _mode_fields, scan_combination
from cgstab.stabilization import StabilizationSpec
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
        assert run_cli(common + ["--time", scheme, "--cfl", cfl, "--convention", "dof",
                                 "--out", str(out)]) == 0
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
    scale = dt_scale("cell", 1.0, comb.degree)
    (kept, lam), = _mode_fields(*_engine(comb), theta, np.array([cfl]), scale, np.array([delta]),
                                np.array([np.inf]))
    omega, eps = phase_damping(lam[0], cfl * scale)
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
    dt = cfl * dt_scale("cell", 1.0, p)
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
                  "--jobs", jobs, "--out", str(tmp_path / out)]
        assert run_cli(["scan", "--theta-samples", "12"] + common) == 0
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
    payload = json.loads((tmp_path / "solve_cubature-p1-cip-ssprk_20.json").read_text())
    assert payload["l2_error"] < 0.05
    assert payload["n_steps"] > 0


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


def test_mu_below_one_is_config_error(tmp_path, capsys):
    rc = run_cli(["scan", "--family", "cubature", "--degree", "1", "--stab", "cip",
                  "--time", "ssprk", "--mu", "0.5", "--out", str(tmp_path)])
    assert rc == 2
    assert "mu must be finite and at least 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count, maps serially."""

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
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
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
    assert rc == 0 and _RecordingPool.workers == [108]   # one combination: no pool


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
    assert (tmp_path / "solve_cubature-p1-cip-ssprk_24.json").exists()


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
    ("modes", {"cfl": "0.5"}),
    ("modes", {"out": 3, "semi_discrete": True}),
    ("modes", 3),
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
              "convention", "semi_discrete"},
    "scan": {"family", "degree", "stab", "time", "theta_samples", "convention", "mu",
             "cfl_min", "cfl_max", "delta_min", "delta_max", "grid_ratio"},
    "solve": {"family", "degree", "stab", "time", "problem", "cfl", "delta", "cells",
              "convention"},
    "convergence": {"family", "degree", "stab", "time", "problem", "cfl", "delta", "levels",
                    "dx1", "convention"},
}
READS["optimize"] = READS["scan"]
CONFIG_ONLY = {"cfl_min", "cfl_max", "delta_min", "delta_max", "grid_ratio", "dx1"}
# one valid value per option, as a JSON value and as a flag's argument (None: a bare flag)
VALUES = {"family": "basic", "degree": 1, "stab": "cip", "time": "rk", "cfl": 0.3,
          "delta": 0.1, "theta_samples": 8, "convention": "dof", "semi_discrete": True,
          "mu": 1.5, "cfl_min": 0.1, "cfl_max": 1.0, "delta_min": 0.01, "delta_max": 1.0,
          "grid_ratio": 1.5, "problem": "burgers", "cells": 20, "levels": 3,
          "dx1": [0.1, 0.05, 0.025], "out": "x", "jobs": 2}
UNREAD = {"modes": "cells", "scan": "cfl", "optimize": "delta", "solve": "mu",
          "convergence": "theta_samples"}


def _flag(key):
    value = VALUES[key]
    return ["--" + key.replace("_", "-")] + ([] if value is True else [str(value)])


@pytest.mark.parametrize("command", sorted(READS))
def test_each_subcommand_accepts_only_the_options_it_reads(tmp_path, capsys, command):
    """out and jobs are accepted everywhere; any other option the subcommand
    does not read, as a flag or a config key, returns 2 with a configuration
    error naming it and writes nothing."""
    assert sum(map(len, READS.values())) == 52
    accepted = READS[command] | {"out", "jobs"}
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

    unread = UNREAD[command]
    out = ["--out", str(tmp_path / "out")]
    assert main([command, *_flag(unread), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "--" + unread.replace("_", "-") in err
    path.write_text(json.dumps({unread: VALUES[unread]}))
    assert main([command, "--config", str(path), *out]) == 2
    assert repr(unread) in capsys.readouterr().err
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
    path.write_text(json.dumps({"mu": 2, "cfl_min": 0.25, "cfl_max": 1, "delta_min": 0.0625,
                                "delta_max": 1, "grid_ratio": 4, "theta_samples": 4}))
    assert run_cli(["scan", "--config", str(path), "--family", "cubature", "--degree", "1",
                    "--stab", "cip", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "scan_cubature-p1-cip-ssprk.json").read_text())
    assert payload["mu"] == 2.0 and type(payload["mu"]) is float
    assert payload["cfl_values"] == [0.25, 1.0] and payload["delta_values"] == [0.0625, 0.25, 1.0]


def test_config_out_sets_the_output_directory(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"out": str(tmp_path / "here"), "semi_discrete": True}))
    assert run_cli(["modes", "--config", str(path), "--theta-samples", "4"]) == 0
    assert [p.name for p in (tmp_path / "here").iterdir()] == ["modes_cubature-p2-none.csv"]


def _readme_command_lines():
    """The cgstab lines of the bash block under "## Command line" in README.md."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("cgstab ")]


def test_readme_command_lines_run(tmp_path):
    lines = _readme_command_lines()
    assert [argv[1] for argv in lines] == ["modes", "scan", "optimize", "solve", "convergence"]
    for argv in lines:
        i = argv.index("--out")
        argv[i + 1] = str(tmp_path / argv[1])
        assert main(argv[1:]) == 0, argv
