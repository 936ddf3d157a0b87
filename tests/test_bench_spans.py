"""The benchmark tracer wraps names inside the package (``bench/spans.py``).

A rename or a move of any of them fails its ``install`` with an
AttributeError or a KeyError, here rather than in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from cgstab import cli, problems, scan, solver, stabilization

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_patches_resolves_and_is_restored():
    patched = [(scan, "_mode_fields"), (scan, "_dec_cfl_polynomial"), (scan, "eigvals_batched"),
               (cli, "scan_combination"), (solver, "assemble_system")]
    before = [getattr(owner, attr) for owner, attr in patched]
    to_json = vars(scan.ScanResult)["to_json"]
    residual = vars(stabilization.DiscreteSystem)["residual"]
    factories = dict(problems.PROBLEMS)
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        assert all(getattr(owner, attr) is not fn for (owner, attr), fn in zip(patched, before))
        assert vars(scan.ScanResult)["to_json"] is not to_json
        assert vars(stabilization.DiscreteSystem)["residual"] is not residual
        assert all(problems.PROBLEMS[key] is not make for key, make in factories.items())
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(patched, before))
    assert vars(scan.ScanResult)["to_json"] is to_json
    assert vars(stabilization.DiscreteSystem)["residual"] is residual
    assert problems.PROBLEMS == factories


def test_traced_dec_scans_solve_only_the_live_rows():
    """A small traced DeC sweep: one probe solve per scan and one rest solve
    per delta column, on the rows that survive the probe.  Solving the rest
    on every cfl row, or forming a wavenumber twice, grows these counts."""
    grid = scan.ScanGrid(np.array([0.1, 0.2, 0.3, 2.0]), np.array([0.05, 0.1, 0.15, 0.2]), 20)
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        for comb in (scan.Combination("cubature", 2, "lps", "dec"),
                     scan.Combination("basic", 3, "supg", "dec")):
            scan.scan_combination(comb, grid)
        layers, counts, _ = tracer.layers(mark)
    finally:
        tracer.uninstall()
    assert counts["fourier.eig.matrices"] == 260
    assert layers["fourier.eig"]["calls"] == 10
    assert layers["scan.dec_poly"]["calls"] == 10


def test_a_traced_shallow_water_study_times_the_exact_solution_and_the_source():
    """The tracer wraps ``exact`` and the momentum source on each problem the
    PROBLEMS factories build; a study built through them records both."""
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        rep = solver.convergence_study(problems.PROBLEMS["sw"](t_final=0.5), "cubature", 1,
                                       stabilization.StabilizationSpec("cip", 0.094), "ssprk",
                                       1.304, dx1_values=(8.0, 4.0, 2.0))
        layers, _, _ = tracer.layers(mark)
    finally:
        tracer.uninstall()
    assert len(rep.levels) == 3
    assert layers["problems.exact"]["calls"] > 0
    assert layers["fluxes.source"]["calls"] > 0
