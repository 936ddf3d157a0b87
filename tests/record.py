"""Record the four checked-in contracts in tests/data, or check against them.

    python tests/record.py [--jobs N] [--check]

A pool of N processes (default 1) runs the 108 default-grid scans, 144
``cgstab modes`` runs (each combination at --cfl 0.3, then each family,
degree and stab --semi-discrete, all at --delta 0.05) and each combination
in the time domain at CFL 0.1 on three problems (``PROBLEMS``).  It writes
the ``optimize.csv`` that ``cgstab optimize`` writes and a digest line per
run: its label; its stable-cell count, exit code or step count (``BlowUp``);
values written with ``repr`` (the sums of eta_u and eta_w over a scan's
stable cells, of omega_over_k and epsilon over every row of a modes CSV, a
run's L2 error); and the SHA-256 of the scan JSON, modes CSV or final state.
So ``git diff tests/data/`` shows how far each value moved.

--check writes nothing and compares with tests/data: optimize.csv, labels,
counts, exit codes and step counts exactly, values to a relative 1e-12.
Lines where only the hash moved are counted and pass; any other difference
is printed as ``old -> new`` and exits 1.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import math
import multiprocessing
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

if __name__ in ("__main__", "__mp_main__"):
    # One BLAS thread in the script and its workers, not in an importer, set before
    # numpy loads: under two, some p = 3 DeC modes files round differently.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

from cgstab import (burgers_problem, cli, linear_advection_problem,  # noqa: E402
                    scan_combination, shallow_water_problem)
from cgstab.scan import ScanGrid  # noqa: E402
from cgstab.solver import run_simulation  # noqa: E402
from cgstab.stabilization import StabilizationSpec  # noqa: E402
from cgstab.timeint import BlowUp  # noqa: E402

DATA = Path(__file__).parent / "data"
HEADERS = {
    "optimize.csv": cli._resolved_header({}) + "\ncombination,strategy,cfl,delta,monotone_safe",
    "sweep_digest.csv": "combination,stable_cells,sum_eta_u,sum_eta_w,scan_json_sha256",
    "modes_digest.csv": "run,exit_code,sum_omega_over_k,sum_epsilon,modes_csv_sha256",
    "states_digest.csv": "run,steps,l2_error,final_state_sha256",
}
PROBLEMS = {  # label: (problem, cells)
    "advection": (linear_advection_problem(t_final=0.3), 12),
    "burgers": (burgers_problem(t_final=0.05), 12),
    "sw": (shallow_water_problem(t_final=1.0), 40),
}
DELTAS = {"none": 0.0, "supg": 0.1, "cip": 0.005, "lps": 0.1}   # of the time-domain runs


def _line(*fields, data):
    """A digest line: the fields (floats as their repr), then the SHA-256 of data."""
    return ",".join([*map(str, fields), hashlib.sha256(data).hexdigest()])


def scan_lines(comb):
    """The optimize.csv rows and the sweep digest line of one combination."""
    res = scan_combination(comb, ScanGrid.default())
    text = io.StringIO()
    res.to_json(text)
    st = res.stable
    line = _line(comb.label(), int(st.sum()), math.fsum(res.eta_u[st].tolist()),
                 math.fsum(res.eta_w[st].tolist()), data=text.getvalue().encode())
    rows = [("optimize.csv", row) for row in cli._optimum_rows(res)]
    return rows + [("sweep_digest.csv", line)]


def modes_lines(comb, semi):
    """The modes digest line of ``cgstab modes`` on comb, or on its
    family, degree and stab with --semi-discrete."""
    mode = ["--semi-discrete"] if semi else ["--time", comb.scheme_kind, "--cfl", "0.3"]
    argv = ["--family", comb.family, "--degree", str(comb.degree), "--stab", comb.stab_kind,
            "--delta", "0.05", *mode]
    label = f"{comb.family}-p{comb.degree}-{comb.stab_kind}-semi_discrete" if semi else comb.label()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["modes", *argv, "--out", out])
        written = [path.read_bytes() for path in Path(out).glob("*.csv")]
    if not written:
        return [("modes_digest.csv", f"{label},{code},,,")]
    rows = [row.split(",") for row in written[0].decode().splitlines()[2:]]
    return [("modes_digest.csv", _line(label, code, math.fsum(float(r[2]) for r in rows),
                                       math.fsum(float(r[3]) for r in rows), data=written[0]))]


def state_lines(name, comb):
    """The states digest line of one time-domain run."""
    problem, cells = PROBLEMS[name]
    label = f"{name}-{comb.label()}"
    try:
        run = run_simulation(problem, comb.family, comb.degree,
                             StabilizationSpec(comb.stab_kind, DELTAS[comb.stab_kind]),
                             comb.scheme_kind, 0.1, cells)
    except BlowUp:
        return [("states_digest.csv", f"{label},BlowUp,,")]
    return [("states_digest.csv", _line(label, run.n_steps, run.l2_error, data=run.U.tobytes()))]


def runs():
    """(function, args) of every run, the scans first."""
    combs = list(cli._combinations({}))   # in optimize.csv order
    return ([(scan_lines, (comb,)) for comb in combs]
            + [(modes_lines, (comb, False)) for comb in combs]
            + [(modes_lines, (comb, True)) for comb in combs if comb.scheme_kind == "rk"]
            + [(state_lines, (name, comb)) for name in PROBLEMS for comb in combs])


def _call(task):
    return task[0](*task[1])


def record(jobs):
    """{file name: text} of the four contracts."""
    with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
        results = list(pool.map(_call, runs()))
    files = {name: [header] for name, header in HEADERS.items()}
    for name, line in itertools.chain.from_iterable(results):
        files[name].append(line)
    return {name: "".join(line + "\n" for line in lines) for name, lines in files.items()}


def _values_agree(old, new):
    """Whether two digest lines have equal labels, counts, exit codes and step
    counts, and values that agree to a relative 1e-12; the hash is not read."""
    a, b = old.split(","), new.split(",")
    return len(a) == len(b) and a[:2] == b[:2] and all(
        x == y or (x != "" != y and math.isclose(float(x), float(y), rel_tol=1e-12))
        for x, y in zip(a[2:-1], b[2:-1]))


def compare(old, new):
    """{file name: (lines that differ, as "old -> new"; count of the lines whose
    hash alone moved)} of two recordings, each {file name: text}."""
    report = {}
    for name, text in new.items():
        pairs = itertools.zip_longest(old[name].splitlines(), text.splitlines(), fillvalue="")
        moved = [(i, a, b) for i, (a, b) in enumerate(pairs) if a != b]
        differ = [f"{a} -> {b}" for i, a, b in moved
                  if name == "optimize.csv" or i == 0 or not _values_agree(a, b)]
        report[name] = differ, len(moved) - len(differ)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    files = record(args.jobs)
    if not args.check:
        for name, text in files.items():
            (DATA / name).write_text(text)
        return 0
    report = compare({name: (DATA / name).read_text() for name in files}, files)
    for name, (differ, hash_only) in report.items():
        print(f"{name}: {len(differ)} lines differ, {hash_only} where only the hash moved")
        print("".join(f"  {line}\n" for line in differ), end="")
    return int(any(differ for differ, _ in report.values()))


if __name__ == "__main__":
    sys.exit(main())
