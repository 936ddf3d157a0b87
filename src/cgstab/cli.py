"""Command-line front end.

Subcommands:

    modes        dispersion/damping curves at one (cfl, delta) point
    scan         full (CFL, delta) sweep: JSON result + mask CSV
    optimize     the three parameter-selection strategies per combination
    solve        one time-domain run
    convergence  mesh-refinement study with order fit

Each subcommand accepts only the options it reads (``OPTIONS``), as flags
or config-file keys; any other is a configuration error.  All outputs are
plain CSV or JSON.  They record the options given (not the defaults, nor
--out and --jobs), and under one BLAS thread reruns with the same inputs
reproduce them byte for byte.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure, 4 no stable region, 5 an artifact could not be
written.
"""

import argparse
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .elements import FAMILIES
from .fourier import phase_damping, principal_mode, semidiscrete_modes
from .problems import PROBLEMS, NoConvergence
from .scan import (MAX_THETA_SAMPLES, STRATEGIES, Combination, ScanGrid, _mode_fields,
                   scan_combination)
from .solver import MAX_CELLS, convergence_study, run_simulation
from .stabilization import STAB_KINDS, StabilizationSpec
from .timeint import SCHEME_KINDS, BlowUp

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NO_STABLE = 4
EXIT_IO = 5

NUMBER = (int, float)
ALL = ("modes", "scan", "optimize", "solve", "convergence")
SWEEP = ("scan", "optimize")
POINT = ("modes", "solve", "convergence")   # one (cfl, delta) point
COMBINATION = ("family", "degree", "stab", "time")


class Option(NamedTuple):
    types: tuple        # the Python types json.loads may give the value (true and
                        # false load as bool, never int, so a boolean is no number)
    flag: dict | None   # add_argument keywords; None for a config-only key
    reads: tuple        # the subcommands that read it
    default: object = None   # the CLI's own default; None where the library owns it


# Every option a subcommand accepts, beside --config.  A default here is one
# the CLI owns; where the library owns it (the grid) the CLI passes on only
# the keys given.  out and jobs are run settings, never recorded.
OPTIONS = {
    "family": Option((str,), {"choices": FAMILIES}, ALL, "cubature"),
    "degree": Option((int,), {"type": int, "choices": (1, 2, 3)}, ALL, 2),
    "stab": Option((str,), {"choices": STAB_KINDS}, ALL, "none"),
    "time": Option((str,), {"choices": SCHEME_KINDS}, ALL, "ssprk"),
    "cfl": Option(NUMBER, {"type": float}, POINT, 0.5),
    "delta": Option(NUMBER, {"type": float}, POINT, 0.0),
    # the default is modes'; the scans take ScanGrid.default's
    "theta_samples": Option((int,), {"type": int}, ("modes",) + SWEEP, 200),
    "semi_discrete": Option((bool,), {"action": "store_true", "default": None}, ("modes",)),
    **dict.fromkeys(("cfl_min", "cfl_max", "delta_min", "delta_max", "grid_ratio"),
                    Option(NUMBER, None, SWEEP)),
    "problem": Option((str,), {"choices": tuple(PROBLEMS)}, ("solve", "convergence"), "advection"),
    "cells": Option((int,), {"type": int}, ("solve",), 40),
    "levels": Option((int,), {"type": int}, ("convergence",), 4),
    "dx1": Option((list,), None, ("convergence",)),
    "out": Option((str,), {}, ALL, "out"),
    # optimize alone runs a pool; scan accepts --jobs since the benchmark's scans pass it
    "jobs": Option((int,), {"type": int}, SWEEP, 1),
}
GRID = ("cfl_min", "cfl_max", "delta_min", "delta_max", "grid_ratio", "theta_samples")


def _load_config(path, command):
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:   # not an I/O failure: the option names no readable file
        raise ValueError(f"cannot read config: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    unread = sorted(key for key in data if key not in OPTIONS or command not in OPTIONS[key].reads)
    if unread:
        raise ValueError(f"{command} does not read config keys {unread}")
    for key, val in data.items():
        opt = OPTIONS[key]
        if type(val) not in opt.types:
            names = " or ".join(t.__name__ for t in opt.types)
            raise ValueError(f"config key {key!r} must be {names}, got {val!r}")
        choices = (opt.flag or {}).get("choices")
        if choices and val not in choices:
            raise ValueError(f"config key {key!r} must be one of {choices}, got {val!r}")
        if opt.types == NUMBER and type(val) is int and abs(val) > sys.float_info.max:
            raise ValueError(f"config key {key!r} is an integer past the float range")
    if not all(type(x) in NUMBER and 0 < x <= sys.float_info.max for x in data.get("dx1", ())):
        raise ValueError(f"dx1 must list positive finite numbers, got {data['dx1']!r}")
    return data


def _merge(args):
    """File config first, explicit flags override."""
    cfg = _load_config(args.config, args.command) if args.config else {}
    cfg.update((key, val) for key, val in vars(args).items()
               if key not in ("config", "command") and val is not None)
    if cfg.get("jobs", 1) < 1:
        raise ValueError(f"jobs must be at least 1, got {cfg['jobs']}")
    return cfg


def _value(cfg, key):
    """An option as the library takes it: the given value, else the CLI's
    default; a JSON integer given for a float option becomes a float."""
    val = cfg.get(key, OPTIONS[key].default)
    return float(val) if OPTIONS[key].types == NUMBER else val


def _given(cfg, *keys):
    """The given options among keys, for a library call that owns their defaults."""
    return {key: _value(cfg, key) for key in keys if key in cfg}


def _recorded(cfg):
    """The configuration an output records, sorted: where it is written and
    how many workers run never change a result, so they are left out."""
    return [(k, cfg[k]) for k in sorted(cfg) if k not in ("jobs", "out")]


def _resolved_header(cfg):
    items = ",".join(f"{k}={v}" for k, v in _recorded(cfg))
    return f"# cgstab config: {items}"


def _write(path, writer):
    """Create ``path`` by ``writer(fh)`` on an open text file.  The writer
    fills a temporary file beside ``path``, which then replaces it, so a
    writer that raises leaves no partial artifact and any earlier file
    intact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _lines(lines):
    """A writer of ``lines``, each ended by a newline."""
    return lambda fh: fh.writelines(line + "\n" for line in lines)


def _combination(cfg):
    return Combination(*(_value(cfg, key) for key in COMBINATION))


def cmd_modes(cfg, out_dir):
    comb = _combination(cfg)
    stab = StabilizationSpec(comb.stab_kind, _value(cfg, "delta"))
    n_theta = _value(cfg, "theta_samples")
    if not 1 <= n_theta <= MAX_THETA_SAMPLES:
        raise ValueError(f"need 1 to {MAX_THETA_SAMPLES} wavenumber samples, got {n_theta}")
    thetas = np.pi * np.arange(1, n_theta + 1) / n_theta   # k = theta at dx = 1
    semi = bool(cfg.get("semi_discrete"))
    if semi:
        # the semi-discrete curves depend on neither the time scheme nor the step
        cfg = {k: v for k, v in cfg.items() if k not in ("time", "cfl")}
        name = f"modes_{comb.family}-p{comb.degree}-{comb.stab_kind}.csv"
        ma = semidiscrete_modes(comb.family, comb.degree, stab, thetas)
        omega_over_k, eps, principal = ma.omega_over_k, ma.epsilon, ma.principal
    else:
        cfl = _value(cfg, "cfl")
        if not 0 < cfl < np.inf:
            raise ValueError(f"cfl must be positive and finite, got {cfl}")
        name = f"modes_{comb.label()}.csv"
        # the scans' solver on one cfl row, kept by an infinite bound unless it
        # overflows; at unit dx and unit speed, dt = cfl
        with np.errstate(over="ignore", invalid="ignore"):
            (kept, lam), = _mode_fields(comb, thetas, np.array([cfl]), np.array([stab.delta]),
                                        np.array([np.inf]))
        if not (kept.all() and np.isfinite(lam).all()):
            raise np.linalg.LinAlgError(f"non-finite propagator eigenvalues at cfl={cfl}")
        omega, eps = phase_damping(lam[0], cfl)
        k = thetas[:, None]
        omega_over_k, principal = omega / k, principal_mode(omega, k)
    # the semi-discrete basic-p1 curve: no reference for fully discrete omega/k
    closed_form = semi and (comb.family, comb.degree, comb.stab_kind) == ("basic", 1, "none")

    header = "theta,mode_index,omega_over_k,epsilon,is_principal"
    lines = [_resolved_header(cfg), header + (",omega_over_k_closed_form" if closed_form else "")]
    for theta, wk, ek, pick in zip(thetas.tolist(), omega_over_k.tolist(), eps.tolist(),
                                   principal.tolist()):
        tail = f",{np.sin(theta) / theta * 3.0 / (2.0 + np.cos(theta)):.12g}" if closed_form else ""
        lines.extend(f"{theta:.12g},{i},{w:.12g},{e:.12g},{int(i == pick)}{tail}"
                     for i, (w, e) in enumerate(zip(wk, ek)))
    path = _write(out_dir / name, _lines(lines))
    print(path)
    return EXIT_OK


def cmd_scan(cfg, out_dir):
    comb = _combination(cfg)
    res = scan_combination(comb, ScanGrid.default(**_given(cfg, *GRID)))

    def mask_csv(fh):
        fh.write(_resolved_header(cfg) + "\n")
        res.mask_csv(fh)

    _write(out_dir / f"scan_{comb.label()}.json", res.to_json)
    path = _write(out_dir / f"mask_{comb.label()}.csv", mask_csv)
    print(path)
    if not res.stable.any():
        print(f"no stable region for {comb.label()}", file=sys.stderr)
        return EXIT_NO_STABLE
    return EXIT_OK


def _combinations(cfg):
    """Every combination that matches the given family, degree, stab and
    time, in optimize.csv order: the product of the flags' choices."""
    for values in itertools.product(*(OPTIONS[key].flag["choices"] for key in COMBINATION)):
        if all(cfg.get(key, val) == val for key, val in zip(COMBINATION, values)):
            yield Combination(*values)


def _optimize_one(task):
    return _optimum_rows(scan_combination(*task))


def _optimum_rows(res):
    label = res.combination.label()
    rows = []
    for strategy in STRATEGIES:
        opt = res.optima[strategy]
        if opt is None:
            rows.append(f"{label},{strategy},/,/,/")
        else:
            rows.append(f"{label},{strategy},{opt['cfl']:.6g},{opt['delta']:.6g},"
                        f"{int(opt['monotone_safe'])}")
    return rows


def cmd_optimize(cfg, out_dir):
    """Scan every matching combination in a pool of min(jobs, combinations) workers."""
    from concurrent.futures import ProcessPoolExecutor   # only optimize loads it
    grid = ScanGrid.default(**_given(cfg, *GRID))
    tasks = [(comb, grid) for comb in _combinations(cfg)]
    with ProcessPoolExecutor(max_workers=min(_value(cfg, "jobs"), len(tasks))) as pool:
        lines = [_resolved_header(cfg), "combination,strategy,cfl,delta,monotone_safe",
                 *itertools.chain.from_iterable(pool.map(_optimize_one, tasks))]  # input order
    path = _write(out_dir / "optimize.csv", _lines(lines))
    print(path)
    return EXIT_OK


def cmd_solve(cfg, out_dir):
    comb = _combination(cfg)
    problem = PROBLEMS[_value(cfg, "problem")]()
    stab = StabilizationSpec(comb.stab_kind, _value(cfg, "delta"))
    run = run_simulation(problem, comb.family, comb.degree, stab, comb.scheme_kind,
                         _value(cfg, "cfl"), _value(cfg, "cells"))
    payload = {"config": {k: str(v) for k, v in _recorded(cfg)}}
    payload.update(run.config_dict())
    path = _write(out_dir / f"solve_{run.problem}_{comb.label()}_{run.n_cells}.json",
                  lambda fh: fh.write(json.dumps(payload, indent=1) + "\n"))
    print(path)
    return EXIT_OK


def cmd_convergence(cfg, out_dir):
    comb = _combination(cfg)
    name = _value(cfg, "problem")
    levels = _value(cfg, "levels")
    first = 0.5 if name == "sw" else 0.05
    if "dx1" in cfg:
        dx1 = tuple(cfg["dx1"])
    elif levels > 1 + math.log2(MAX_CELLS):   # each level doubles the cells: none fits
        raise ValueError(f"{levels} levels double the cells past {MAX_CELLS}")
    else:
        dx1 = tuple(first / 2**k for k in range(levels))
    if "levels" in cfg and len(dx1) != levels:
        raise ValueError(f"levels={levels} but dx1 lists {len(dx1)} mesh sizes")
    stab = StabilizationSpec(comb.stab_kind, _value(cfg, "delta"))
    rep = convergence_study(PROBLEMS[name](), comb.family, comb.degree, stab, comb.scheme_kind,
                            _value(cfg, "cfl"), dx1_values=dx1)
    base = f"{name}_{comb.label()}"
    _write(out_dir / f"convergence_{base}.csv",
           lambda fh: fh.write(_resolved_header(cfg) + "\n" + rep.csv()))
    summary = [_resolved_header(cfg), "problem,combination,order",
               f"{name},{comb.label()},{rep.order:.6g}"]
    _write(out_dir / f"orders_{base}.csv", _lines(summary))
    tve = [_resolved_header(cfg), "dof_steps,l2_error"]
    for lv in rep.levels:
        tve.append(f"{lv['dof_steps']},{lv['l2_error']:.12g}")
    path = _write(out_dir / f"time_vs_error_{base}.csv", _lines(tve))
    print(path)
    return EXIT_OK


COMMANDS = {"modes": cmd_modes, "scan": cmd_scan, "optimize": cmd_optimize,
            "solve": cmd_solve, "convergence": cmd_convergence}


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # an unread or malformed flag: a configuration error
        raise ValueError(message)


def build_parser():
    """One subparser per subcommand, with a flag for each option it reads."""
    parser = _Parser(prog="cgstab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config")
        for key, opt in OPTIONS.items():
            if command in opt.reads and opt.flag is not None:
                p.add_argument("--" + key.replace("_", "-"), **opt.flag)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg = _merge(args)
        return COMMANDS[args.command](cfg, Path(_value(cfg, "out")))
    except (BlowUp, NoConvergence, np.linalg.LinAlgError) as exc:
        # before ValueError, which LinAlgError subclasses
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:   # an artifact or its directory could not be written
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
