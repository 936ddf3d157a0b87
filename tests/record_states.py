"""Record the final states of the 324-run time-domain grid as a contract.

    python tests/record_states.py [--out DIR]

Runs every (problem, family, degree, stabilization, scheme) of the grid at
CFL 0.1 and writes DIR/states_digest.csv (default DIR: tests/data beside
this script), one line per run: its label, its step count or ``BlowUp``,
and the SHA-256 of the final state's bytes (empty for a blow-up).

The grid: advection to t = 0.3 and Burgers to t = 0.05 on 12 cells, the
sourced shallow-water wave to t = 1.0 on 40 cells; the three families,
degrees 1-3, none / SUPG 0.1 / CIP 0.005 / LPS 0.1 and rk / ssprk / dec.
Rerun with the default DIR after a change, and ``git diff tests/data/``
shows every final state that moved.
"""

import argparse
import hashlib
import itertools
import sys
from pathlib import Path

from cgstab.problems import burgers_problem, linear_advection_problem, shallow_water_problem
from cgstab.solver import run_simulation
from cgstab.stabilization import StabilizationSpec
from cgstab.timeint import BlowUp

PROBLEMS = (  # (label, problem, cells)
    ("advection", linear_advection_problem(t_final=0.3), 12),
    ("burgers", burgers_problem(t_final=0.05), 12),
    ("sw", shallow_water_problem(t_final=1.0), 40),
)
FAMILIES = ("basic", "cubature", "bernstein")
DEGREES = (1, 2, 3)
STABS = (("none", 0.0), ("supg", 0.1), ("cip", 0.005), ("lps", 0.1))
SCHEMES = ("rk", "ssprk", "dec")
CFL = 0.1


def record_one(name, problem, cells, family, degree, stab, delta, scheme):
    """The digest line of one run."""
    label = f"{name}-{family}-p{degree}-{stab}-{scheme}"
    try:
        run = run_simulation(problem, family, degree, StabilizationSpec(stab, delta),
                             scheme, CFL, cells)
    except BlowUp:
        return f"{label},BlowUp,"
    return f"{label},{run.n_steps},{hashlib.sha256(run.U.tobytes()).hexdigest()}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path(__file__).parent / "data")
    args = parser.parse_args(argv)
    lines = ["run,steps,final_state_sha256"]
    for (name, problem, cells), family, degree, (stab, delta), scheme in itertools.product(
            PROBLEMS, FAMILIES, DEGREES, STABS, SCHEMES):
        lines.append(record_one(name, problem, cells, family, degree, stab, delta, scheme))
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "states_digest.csv").write_text("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
