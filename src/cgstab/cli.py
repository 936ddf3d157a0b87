"""Command-line front end.

Subcommands:

    modes        dispersion/damping curves at one (cfl, delta) point
    scan         full (CFL, delta) sweep: JSON result + mask CSV
    optimize     the three parameter-selection strategies per combination
    solve        one time-domain run
    convergence  mesh-refinement study with order fit

All outputs are plain CSV or JSON.  They record the options given (flags
and config file; not the defaults, nor --out and --jobs), and reruns with
the same inputs reproduce them byte for byte.  Exit codes: 0 success,
2 configuration error, 3 numerical failure, 4 no stable region.
"""

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .elements import FAMILIES, UnsupportedDegree
from .fourier import (DEFAULT_CONVENTION, EigenSolveFailure, dt_scale, phase_damping,
                      principal_mode, semidiscrete_modes)
from .problems import PROBLEMS
from .scan import (Combination, NoStableRegion, ScanGrid, _engine, _mode_fields, geometric_grid,
                   scan_combination)
from .solver import BlowUp, convergence_study, run_simulation
from .stabilization import STAB_KINDS, SingularMass, StabilizationSpec
from .timeint import SCHEME_KINDS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NO_STABLE = 4

CONFIG_KEYS = {
    "family", "degree", "stab", "delta", "time", "cfl", "theta_samples",
    "problem", "cells", "levels", "out", "jobs", "convention",
    "cfl_min", "cfl_max", "delta_min", "delta_max", "grid_ratio",
    "semi_discrete", "dx1", "mu",
}


def _load_config(path):
    data = json.loads(Path(path).read_text())
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return data


def _merge(args):
    """File config first, explicit flags override."""
    cfg = {}
    if args.config:
        cfg.update(_load_config(args.config))
    for key, val in vars(args).items():
        if key in ("config", "command") or val is None:
            continue
        cfg[key] = val
    return cfg


def _recorded(cfg):
    """The configuration an output records, sorted: where it is written and
    how many workers run never change a result, so they are left out."""
    return [(k, cfg[k]) for k in sorted(cfg) if k not in ("jobs", "out")]


def _resolved_header(cfg):
    items = ",".join(f"{k}={v}" for k, v in _recorded(cfg))
    return f"# cgstab config: {items}"


def _write(path, text):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _combination(cfg):
    fam = cfg.get("family", "cubature")
    if fam not in FAMILIES:
        raise ValueError(f"unknown family {fam!r}")
    degree = int(cfg.get("degree", 2))
    stab = cfg.get("stab", "none")
    if stab not in STAB_KINDS:
        raise ValueError(f"unknown stabilization {stab!r}")
    scheme = cfg.get("time", "ssprk")
    if scheme not in SCHEME_KINDS:
        raise ValueError(f"unknown time scheme {scheme!r}")
    return Combination(fam, degree, stab, scheme)


def _grid(cfg):
    return ScanGrid(
        geometric_grid(float(cfg.get("cfl_min", 0.01)), float(cfg.get("cfl_max", 4.0)),
                       ratio=float(cfg.get("grid_ratio", 1.03))),
        geometric_grid(float(cfg.get("delta_min", 1e-4)), float(cfg.get("delta_max", 4.0)),
                       ratio=float(cfg.get("grid_ratio", 1.03))),
        int(cfg.get("theta_samples", 100)),
    )


def cmd_modes(cfg, out_dir):
    comb = _combination(cfg)
    stab = StabilizationSpec(comb.stab_kind, float(cfg.get("delta", 0.0)))
    n_theta = int(cfg.get("theta_samples", 200))
    if n_theta < 1:
        raise ValueError(f"need at least 1 wavenumber sample, got {n_theta}")
    thetas = np.pi * np.arange(1, n_theta + 1) / n_theta   # k = theta at dx = 1
    semi = bool(cfg.get("semi_discrete", False))
    if semi:
        # the semi-discrete curves depend on neither the time scheme nor the step
        cfg = {k: v for k, v in cfg.items() if k not in ("time", "cfl", "convention")}
        name = f"modes_{comb.family}-p{comb.degree}-{comb.stab_kind}.csv"
        ma = semidiscrete_modes(comb.family, comb.degree, stab, thetas)
        omega_over_k, eps, principal = ma.omega_over_k, ma.epsilon, ma.principal
    else:
        cfl = float(cfg.get("cfl", 0.5))
        if not 0 < cfl < np.inf:
            raise ValueError(f"cfl must be positive and finite, got {cfl}")
        scale = dt_scale(cfg.get("convention", DEFAULT_CONVENTION), 1.0, comb.degree)
        name = f"modes_{comb.label()}.csv"
        # the scans' solver on one cfl row, kept by an infinite bound unless it overflows
        with np.errstate(over="ignore", invalid="ignore"):
            kept, lam = _mode_fields(*_engine(comb), thetas, np.array([cfl]), scale, stab.delta,
                                     np.array([np.inf]))
        if not (kept.all() and np.isfinite(lam).all()):
            raise EigenSolveFailure(f"non-finite propagator eigenvalues at cfl={cfl}")
        omega, eps = phase_damping(lam[0], cfl * scale)
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
    path = _write(out_dir / name, "\n".join(lines) + "\n")
    print(path)
    return EXIT_OK


def cmd_scan(cfg, out_dir):
    comb = _combination(cfg)
    grid = _grid(cfg)
    res = scan_combination(comb, grid, convention=cfg.get("convention", DEFAULT_CONVENTION),
                           mu=float(cfg.get("mu", 1.3)))
    _write(out_dir / f"scan_{comb.label()}.json", res.to_json() + "\n")
    path = _write(out_dir / f"mask_{comb.label()}.csv",
                  _resolved_header(cfg) + "\n" + res.mask_csv())
    print(path)
    if not res.stable.any():
        print(f"no stable region for {comb.label()}", file=sys.stderr)
        return EXIT_NO_STABLE
    return EXIT_OK


def _optimize_one(task):
    comb, grid_args, convention, mu = task
    grid = ScanGrid(*grid_args)
    res = scan_combination(comb, grid, convention=convention, mu=mu)
    rows = []
    for strategy in ("max_cfl", "min_eta_u", "min_eta_w"):
        opt = res.optima[strategy]
        if opt is None:
            rows.append(f"{comb.label()},{strategy},/,/,/")
        else:
            rows.append(
                f"{comb.label()},{strategy},{opt['cfl']:.6g},{opt['delta']:.6g},"
                f"{int(opt['monotone_safe'])}"
            )
    return rows


def cmd_optimize(cfg, out_dir):
    grid = _grid(cfg)
    if "family" in cfg or "stab" in cfg or "time" in cfg or "degree" in cfg:
        combos = [_combination(cfg)]
    else:
        combos = [
            Combination(fam, p, stab, scheme)
            for fam in FAMILIES
            for p in (1, 2, 3)
            for stab in STAB_KINDS
            for scheme in SCHEME_KINDS
        ]
    jobs = int(cfg.get("jobs", 1))
    tasks = [
        (comb, (grid.cfl_values, grid.delta_values, grid.theta_samples),
         cfg.get("convention", DEFAULT_CONVENTION), float(cfg.get("mu", 1.3)))
        for comb in combos
    ]
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_optimize_one, tasks))
    else:
        blocks = [_optimize_one(t) for t in tasks]
    lines = [_resolved_header(cfg), "combination,strategy,cfl,delta,monotone_safe"]
    for block in blocks:  # deterministic: input order
        lines.extend(block)
    path = _write(out_dir / "optimize.csv", "\n".join(lines) + "\n")
    print(path)
    return EXIT_OK


def cmd_solve(cfg, out_dir):
    comb = _combination(cfg)
    problem = PROBLEMS[cfg.get("problem", "advection")]()
    stab = StabilizationSpec(comb.stab_kind, float(cfg.get("delta", 0.0)))
    run = run_simulation(problem, comb.family, comb.degree, stab,
                         comb.scheme_kind, float(cfg.get("cfl", 0.5)),
                         int(cfg.get("cells", 40)),
                         convention=cfg.get("convention", DEFAULT_CONVENTION))
    payload = {"config": {k: str(v) for k, v in _recorded(cfg)}}
    payload.update(run.config_dict())
    path = _write(out_dir / f"solve_{comb.label()}_{run.n_cells}.json",
                  json.dumps(payload, indent=1) + "\n")
    print(path)
    return EXIT_OK


def cmd_convergence(cfg, out_dir):
    comb = _combination(cfg)
    name = cfg.get("problem", "advection")
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem {name!r}")
    levels = int(cfg.get("levels", 4))
    if levels < 3:
        raise ValueError("need at least 3 levels")
    first = 0.5 if name == "sw" else 0.05
    dx1 = tuple(cfg["dx1"]) if "dx1" in cfg else tuple(first / 2**k for k in range(levels))
    if "levels" in cfg and len(dx1) != levels:
        raise ValueError(f"levels={levels} but dx1 lists {len(dx1)} mesh sizes")
    problem = PROBLEMS[name]()
    stab = StabilizationSpec(comb.stab_kind, float(cfg.get("delta", 0.0)))
    rep = convergence_study(problem, comb.family, comb.degree, stab,
                            comb.scheme_kind, float(cfg.get("cfl", 0.5)),
                            dx1_values=dx1,
                            convention=cfg.get("convention", DEFAULT_CONVENTION))
    base = f"{name}_{comb.label()}"
    _write(out_dir / f"convergence_{base}.csv",
           _resolved_header(cfg) + "\n" + rep.csv())
    summary = [_resolved_header(cfg), "problem,combination,order",
               f"{name},{comb.label()},{rep.order:.6g}"]
    _write(out_dir / f"orders_{base}.csv", "\n".join(summary) + "\n")
    tve = [_resolved_header(cfg), "dof_steps,l2_error"]
    for lv in rep.levels:
        tve.append(f"{lv['dof_steps']},{lv['l2_error']:.12g}")
    path = _write(out_dir / f"time_vs_error_{base}.csv", "\n".join(tve) + "\n")
    print(path)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="cgstab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("modes", "scan", "optimize", "solve", "convergence"):
        p = sub.add_parser(name)
        p.add_argument("--family", choices=FAMILIES)
        p.add_argument("--degree", type=int, choices=(1, 2, 3))
        p.add_argument("--stab", choices=STAB_KINDS)
        p.add_argument("--time", choices=SCHEME_KINDS)
        p.add_argument("--cfl", type=float)
        p.add_argument("--delta", type=float)
        p.add_argument("--theta-samples", dest="theta_samples", type=int)
        p.add_argument("--problem", choices=tuple(PROBLEMS))
        p.add_argument("--cells", type=int)
        p.add_argument("--levels", type=int)
        p.add_argument("--out", default="out")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--config")
        p.add_argument("--convention", choices=("cell", "dof"))
        p.add_argument("--mu", type=float)
        if name == "modes":
            p.add_argument("--semi-discrete", dest="semi_discrete", action="store_true", default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge(args)
        out_dir = Path(cfg.get("out", "out"))
        handler = {
            "modes": cmd_modes,
            "scan": cmd_scan,
            "optimize": cmd_optimize,
            "solve": cmd_solve,
            "convergence": cmd_convergence,
        }[args.command]
        return handler(cfg, out_dir)
    except (ValueError, UnsupportedDegree, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoStableRegion as exc:
        print(f"no stable region: {exc}", file=sys.stderr)
        return EXIT_NO_STABLE
    except (BlowUp, EigenSolveFailure, SingularMass) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
