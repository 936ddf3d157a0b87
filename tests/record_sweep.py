"""Record the default 108-combination sweep as a checked-in contract.

    python tests/record_sweep.py [--jobs N] [--out DIR]

Scans every combination once on the default grid and writes two files to
DIR (default: tests/data beside this script):

    optimize.csv      the bytes ``cgstab optimize`` writes
    sweep_digest.csv  one line per combination: its label, its stable-cell
                      count and the SHA-256 of the ``scan_<label>.json``
                      that ``cgstab scan`` writes

Rerun with the default DIR after a change, and ``git diff tests/data/``
shows every optimum, flag, stable count and scan that moved.
"""

import argparse
import hashlib
import io
import itertools
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from cgstab import cli
from cgstab.scan import Combination, ScanGrid, scan_combination


def record_one(comb):
    """(optimize.csv rows, digest line) of one combination."""
    res = scan_combination(comb, ScanGrid.default())
    text = io.StringIO()
    res.to_json(text)
    text.write("\n")   # as cmd_scan ends the file
    digest = hashlib.sha256(text.getvalue().encode()).hexdigest()
    return cli._optimum_rows(comb, res), f"{comb.label()},{int(res.stable.sum())},{digest}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", type=Path, default=Path(__file__).parent / "data")
    args = parser.parse_args(argv)
    # cmd_optimize's order: the product of the flags' choices
    combs = [Combination(*values) for values in itertools.product(
        *(cli.OPTIONS[key].flag["choices"] for key in cli.COMBINATION))]
    if args.jobs > 1:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=args.jobs, mp_context=spawn) as pool:
            records = list(pool.map(record_one, combs))
    else:
        records = [record_one(comb) for comb in combs]
    optimize = [cli._resolved_header({}), "combination,strategy,cfl,delta,monotone_safe"]
    digest = ["combination,stable_cells,scan_json_sha256"]
    for rows, line in records:
        optimize.extend(rows)
        digest.append(line)
    args.out.mkdir(parents=True, exist_ok=True)
    for name, lines in (("optimize.csv", optimize), ("sweep_digest.csv", digest)):
        (args.out / name).write_text("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
