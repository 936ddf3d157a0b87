"""Record the default 108-combination sweep as a checked-in contract.

    python tests/record_sweep.py [--jobs N] [--out DIR]

Scans every combination once on the default grid and writes three files to
DIR (default: tests/data beside this script):

    optimize.csv      the bytes ``cgstab optimize`` writes
    sweep_digest.csv  one line per combination: its label, its stable-cell
                      count and the SHA-256 of the ``scan_<label>.json``
                      that ``cgstab scan`` writes
    modes_digest.csv  one line per ``cgstab modes`` run: its label, its exit
                      code and the SHA-256 of the CSV it writes (empty if it
                      writes none); each combination at --cfl 0.3
                      --delta 0.05, then each (family, degree, stab) with
                      --semi-discrete at --delta 0.05

Rerun with the default DIR after a change, and ``git diff tests/data/``
shows every optimum, flag, stable count, scan and modes file that moved.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import multiprocessing
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

# One BLAS thread, set before numpy loads, as in CI: under two OpenBLAS
# threads the DeC propagator of some p = 3 modes files rounds differently.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from cgstab import cli  # noqa: E402
from cgstab.scan import Combination, ScanGrid, scan_combination  # noqa: E402

MODES_CFL = "0.3"
MODES_DELTA = "0.05"


def record_one(comb):
    """(optimize.csv rows, digest line) of one combination."""
    res = scan_combination(comb, ScanGrid.default())
    text = io.StringIO()
    res.to_json(text)
    digest = hashlib.sha256(text.getvalue().encode()).hexdigest()
    return cli._optimum_rows(comb, res), f"{comb.label()},{int(res.stable.sum())},{digest}"


def modes_line(label, argv):
    """The modes digest line of ``cgstab modes argv``."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["modes", *argv, "--out", out])
        written = sorted(Path(out).glob("*.csv"))
        digest = hashlib.sha256(written[0].read_bytes()).hexdigest() if written else ""
    return f"{label},{code},{digest}"


def modes_runs(combs):
    """(label, argv) of every run modes_digest.csv records."""
    runs = []
    for comb in combs:
        argv = ["--family", comb.family, "--degree", str(comb.degree), "--stab", comb.stab_kind]
        runs.append((comb.label(), argv + ["--time", comb.scheme_kind, "--cfl", MODES_CFL,
                                           "--delta", MODES_DELTA]))
    for family, degree, stab in dict.fromkeys((c.family, c.degree, c.stab_kind) for c in combs):
        runs.append((f"{family}-p{degree}-{stab}-semi_discrete",
                     ["--family", family, "--degree", str(degree), "--stab", stab,
                      "--delta", MODES_DELTA, "--semi-discrete"]))
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", type=Path, default=Path(__file__).parent / "data")
    args = parser.parse_args(argv)
    # cmd_optimize's order: the product of the flags' choices
    combs = [Combination(*values) for values in itertools.product(
        *(cli.OPTIONS[key].flag["choices"] for key in cli.COMBINATION))]
    labels, modes_argv = zip(*modes_runs(combs))
    if args.jobs > 1:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=args.jobs, mp_context=spawn) as pool:
            records = list(pool.map(record_one, combs))
            modes = list(pool.map(modes_line, labels, modes_argv))
    else:
        records = [record_one(comb) for comb in combs]
        modes = list(map(modes_line, labels, modes_argv))
    optimize = [cli._resolved_header({}), "combination,strategy,cfl,delta,monotone_safe"]
    digest = ["combination,stable_cells,scan_json_sha256"]
    for rows, line in records:
        optimize.extend(rows)
        digest.append(line)
    files = (("optimize.csv", optimize), ("sweep_digest.csv", digest),
             ("modes_digest.csv", ["run,exit_code,modes_csv_sha256", *modes]))
    args.out.mkdir(parents=True, exist_ok=True)
    for name, lines in files:
        (args.out / name).write_text("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
