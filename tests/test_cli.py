import json

import numpy as np
import pytest

from cgstab.cli import main


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


def test_bad_grid_is_config_error(tmp_path):
    rc = run_cli(["scan", "--family", "cubature", "--degree", "1", "--stab", "cip",
                  "--time", "ssprk", "--config", str(tmp_path / "c.json"),
                  "--out", str(tmp_path)])
    assert rc == 2  # missing config file -> config error


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
