"""The benchmark's workloads: operations, their outputs and their checks.

Every operation calls the public cgstab API only, looked up at call time so
that the package re-imported by the set-up measurement and the tracer's
wrappers are the ones in use.  ``Op.run`` is the timed call; ``summarize``
turns its raw output into a small dict outside the timed region; ``check``
compares that dict with the reference recorded from the seed commit and
returns the mismatches (an empty list when the output is correct).

Tolerances are fixed here, not in the reference file:

- scans: exit code 0, one mask CSV row per grid cell, the optima's
  (cfl, delta) grid points and ``monotone_safe`` flags exact, the
  objectives to ``SCAN_RTOL``;
- convergence studies: the acceptance criterion's order bound holds, no
  level fails, the finest-level L2 error matches to ``ERR_RTOL`` plus
  ``ERR_ATOL`` (a few hundred roundoffs of an O(0.1) solution);
- marches: the step count is exact, the final L2 error matches as above.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

SCAN_RTOL = 1e-6
ERR_RTOL = 1e-6
ERR_ATOL = 1e-14

WORKLOADS = ("scan-p3", "converge-small", "march-1e4")

# One default-grid scan per scan path, all p = 3: RK and SSPRK through the
# eigenvalue polynomial, DeC with a non-diagonal (basic SUPG) and with a
# diagonal (cubature LPS) mass through the batched 3x3 eigen solves.
SCAN_COMBOS = (
    "cubature-p3-cip-rk",
    "cubature-p3-lps-ssprk",
    "basic-p3-supg-dec",
    "cubature-p3-lps-dec",
)
TINY_GRID = {"cfl_min": 0.05, "cfl_max": 2.0, "delta_min": 1e-3, "delta_max": 1.0,
             "grid_ratio": 1.6}

# The acceptance convergence studies (criteria 5, 6 and 7): cubature SSPRK
# at the tabled (cfl, delta) optima, each with its criterion's order bound
# as ("near", order, tolerance) or ("above", lower bound).
ADV_DX1 = (0.05, 0.025, 0.0125, 0.00625)
BURGERS_DX1 = (0.025, 0.0125, 0.00625, 0.003125)
SW_DX1 = (1.0, 0.5, 0.25, 0.125)
CONVERGENCE_STUDIES = (
    ("advection", "lps", 1, 1.23, 0.412, ADV_DX1, ("near", 2.03, 0.25)),
    ("advection", "lps", 2, 0.767, 0.041, ADV_DX1, ("near", 2.95, 0.25)),
    ("advection", "lps", 3, 0.298, 4.12e-3, ADV_DX1, ("near", 3.98, 0.25)),
    ("advection", "cip", 1, 1.304, 0.094, ADV_DX1, ("near", 2.05, 0.25)),
    ("advection", "cip", 2, 0.723, 3.46e-3, ADV_DX1, ("near", 2.94, 0.25)),
    ("advection", "cip", 3, 0.298, 1.45e-4, ADV_DX1, ("near", 3.98, 0.25)),
    ("burgers", "lps", 1, 1.23, 0.412, BURGERS_DX1, ("near", 2.05, 0.3)),
    ("burgers", "lps", 2, 0.767, 0.041, BURGERS_DX1, ("near", 2.85, 0.3)),
    ("burgers", "lps", 3, 0.298, 4.12e-3, BURGERS_DX1, ("near", 3.67, 0.3)),
    ("sw", "cip", 1, 1.304, 0.094, SW_DX1, ("above", 2.0)),
    ("sw", "cip", 2, 0.723, 3.46e-3, SW_DX1, ("above", 2.5)),
    ("sw", "cip", 3, 0.298, 1.45e-4, SW_DX1, ("above", 4.0)),
)
# Self-test sizes: three of the studies on three coarse levels and a short
# horizon; no order bound applies there.
TINY_STUDIES = ((0, (0.5, 0.25, 0.125), 0.2), (7, (0.25, 0.125, 0.0625), 0.02),
                (10, (8.0, 4.0, 2.0), 0.5))

# Large-mesh marches: p = 2 on 10^4 cells over a 40-step horizon.  They
# cover the diagonal-mass explicit paths, DeC with projection solves and a
# non-diagonal M matvec, RK with splu mass solves, and DeC with a mass
# rebuilt every step.
MARCH_CELLS = 10_000
MARCH_STEPS = 40
MARCHES = (
    ("advection", "cubature", "cip", 3.46e-3, "ssprk", 0.723),
    ("advection", "cubature", "lps", 0.041, "ssprk", 0.767),
    ("advection", "basic", "lps", 0.316, "dec", 0.5),
    ("advection", "bernstein", "supg", 0.072, "rk", 0.45),
    ("burgers", "basic", "supg", 0.1, "dec", 0.3),
    ("burgers", "cubature", "lps", 0.041, "ssprk", 0.767),
)


@dataclass
class Op:
    """One operation of a workload.

    ``elements``, ``combos`` and ``problems`` name what the operation builds
    on first use; the set-up measurement builds them ahead of time.
    """

    name: str
    run: object                 # run(out_dir) -> raw output (timed)
    check: object               # check(summary, reference) -> list of str
    reference_of: object        # reference_of(summary) -> reference dict
    summarize: object = dict    # summarize(raw) -> summary dict
    elements: tuple = ()        # (family, degree)
    combos: tuple = ()          # (family, degree, stab kind) for the symbol builders
    problems: tuple = ()        # problem names


def _close(got, want, rtol, atol=0.0):
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return abs(got - want) <= rtol * abs(want) + atol


# ----------------------------------------------------------------- scans


def _scan_op(label, tiny):
    family, p, stab, scheme = label.split("-")
    degree = int(p[1:])

    def run(out_dir):
        from cgstab import cli

        argv = ["scan", "--family", family, "--degree", str(degree), "--stab", stab,
                "--time", scheme, "--jobs", "1", "--out", str(out_dir)]
        if tiny:
            cfg = Path(out_dir) / f"grid_{label}.json"
            cfg.parent.mkdir(parents=True, exist_ok=True)
            cfg.write_text(json.dumps(TINY_GRID))
            argv += ["--theta-samples", "12", "--config", str(cfg)]
        with contextlib.redirect_stdout(io.StringIO()):   # the CLI prints the CSV path
            code = cli.main(argv)
        return {"exit": code, "out_dir": str(out_dir)}

    def summarize(raw):
        out = {"exit": raw["exit"]}
        if raw["exit"] != 0:
            return out
        out_dir = Path(raw["out_dir"])
        data = json.loads((out_dir / f"scan_{label}.json").read_text())
        with open(out_dir / f"mask_{label}.csv") as fh:
            # a config line, two comment lines and the column header
            out["csv_rows"] = sum(1 for _ in fh) - 4
        out["cells"] = len(data["cfl_values"]) * len(data["delta_values"])
        out["points"] = out["cells"] * data["theta_samples"]
        out["optima"] = data["optima"]
        return out

    def check(out, ref):
        if out["exit"] != 0:
            return [f"exit code {out['exit']}"]
        problems = []
        if out["csv_rows"] != out["cells"]:
            problems.append(f"mask CSV has {out['csv_rows']} rows for {out['cells']} cells")
        for strategy, want in ref["optima"].items():
            got = out["optima"].get(strategy)
            if got is None or want is None:
                if got != want:
                    problems.append(f"{strategy}: optimum {got} != {want}")
                continue
            if (got["cfl"], got["delta"]) != (want["cfl"], want["delta"]):
                problems.append(f"{strategy}: grid point ({got['cfl']}, {got['delta']}) "
                                f"!= ({want['cfl']}, {want['delta']})")
            if got["monotone_safe"] != want["monotone_safe"]:
                problems.append(f"{strategy}: monotone_safe {got['monotone_safe']}")
            if not _close(got["objective"], want["objective"], SCAN_RTOL):
                problems.append(f"{strategy}: objective {got['objective']!r} "
                                f"!= {want['objective']!r}")
        return problems

    return Op(label, run, check, lambda out: {"optima": out["optima"]}, summarize,
              elements=((family, degree),), combos=((family, degree, stab),))


# ------------------------------------------------- time-domain operations


def _problem(name, t_final):
    from cgstab.problems import PROBLEMS

    return PROBLEMS[name](t_final=t_final) if t_final is not None else PROBLEMS[name]()


def _convergence_op(problem, stab, p, cfl, delta, dx1, bound, t_final=None):
    def run(out_dir):
        from cgstab.solver import convergence_study
        from cgstab.stabilization import StabilizationSpec

        rep = convergence_study(_problem(problem, t_final), "cubature", p,
                                StabilizationSpec(stab, delta), "ssprk", cfl,
                                dx1_values=dx1)
        return {"order": rep.order, "levels": len(rep.levels),
                "failed_levels": len(rep.failed_levels),
                "finest_l2_error": rep.levels[-1]["l2_error"]}

    def check(out, ref):
        problems = []
        if bound[0] == "near" and not abs(out["order"] - bound[1]) <= bound[2]:
            problems.append(f"order {out['order']:.4f} not within {bound[2]} of {bound[1]}")
        if bound[0] == "above" and not out["order"] >= bound[1]:
            problems.append(f"order {out['order']:.4f} below {bound[1]}")
        if out["failed_levels"] or out["levels"] != len(dx1):
            problems.append(f"{out['failed_levels']} failed levels")
        if not _close(out["finest_l2_error"], ref["finest_l2_error"], ERR_RTOL, ERR_ATOL):
            problems.append(f"finest L2 error {out['finest_l2_error']!r} "
                            f"!= {ref['finest_l2_error']!r}")
        return problems

    return Op(f"{problem}-cubature-p{p}-{stab}", run, check,
              lambda out: {"finest_l2_error": out["finest_l2_error"]},
              elements=(("cubature", p),), problems=(problem,))


def _march_op(problem, family, stab, delta, scheme, cfl, n_cells, n_steps):
    # both problems live on [0, 2] with a maximum speed of at most 1 (just
    # below 1 for Burgers), so this horizon takes n_steps steps of about cfl * dx
    t_final = n_steps * cfl * 2.0 / n_cells

    def run(out_dir):
        from cgstab.solver import run_simulation
        from cgstab.stabilization import StabilizationSpec

        res = run_simulation(_problem(problem, t_final), family, 2,
                             StabilizationSpec(stab, delta), scheme, cfl, n_cells)
        return {"l2_error": res.l2_error, "n_steps": res.n_steps}

    def check(out, ref):
        problems = []
        if out["n_steps"] != ref["n_steps"]:
            problems.append(f"{out['n_steps']} steps != {ref['n_steps']}")
        if not _close(out["l2_error"], ref["l2_error"], ERR_RTOL, ERR_ATOL):
            problems.append(f"L2 error {out['l2_error']!r} != {ref['l2_error']!r}")
        return problems

    return Op(f"{problem}-{family}-{stab}-{scheme}", run, check, dict,
              elements=((family, 2),), problems=(problem,))


def build(name, tiny=False):
    """The operations of one workload; ``tiny`` gives the self-test's sizes."""
    if name == "scan-p3":
        return [_scan_op(label, tiny) for label in SCAN_COMBOS]
    if name == "converge-small":
        if not tiny:
            return [_convergence_op(*row) for row in CONVERGENCE_STUDIES]
        return [_convergence_op(*CONVERGENCE_STUDIES[i][:5], dx1, ("above", -math.inf), t)
                for i, dx1, t in TINY_STUDIES]
    if name == "march-1e4":
        cells, steps = (60, 4) if tiny else (MARCH_CELLS, MARCH_STEPS)
        return [_march_op(*row, cells, steps) for row in MARCHES]
    raise KeyError(f"unknown workload {name!r}")
