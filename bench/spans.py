"""Spans around the calls into each cgstab layer, recorded from outside.

Each wrapper is installed at the name its caller looks up (a module global,
a class attribute, an entry of ``PROBLEMS`` or an instance attribute), so
the program itself is unchanged and the wrappers are removed again after
the traced passes.  A span is (name, start, end, parent); spans stay in
memory until the run writes them out.  A direct re-entry into the span
that is already innermost (``lumped_diag`` calling ``mass``) belongs to the
outer span and records nothing.

A layer's self time is its spans' durations minus the durations of their
child spans.  Counters the wrappers can read from arguments and results
(eigen batch sizes, scan cells, mass factorizations, dof-steps) are kept
beside the spans.
"""

import dataclasses
import importlib
import time
from collections import defaultdict

import numpy as np

OP_PREFIX = "op:"


class Patcher:
    """Attribute and mapping replacements that can be undone in reverse."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        # read the raw class attribute so a method is restored as itself
        old = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def set_item(self, mapping, key, value):
        old = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def restore(self):
        while self._undo:
            self._undo.pop()()


def count_dof_steps(patcher, counters):
    """Count sum n_dofs * n_steps of every ``run_simulation`` call.

    Installed in untraced runs too: it is one extra call per run, and the
    convergence studies report no step counts of their own.
    """
    solver = importlib.import_module("cgstab.solver")
    inner = solver.run_simulation

    def run_simulation(*args, **kwargs):
        res = inner(*args, **kwargs)
        counters["solver.dof_steps"] += res.n_dofs * res.n_steps
        return res

    patcher.set(solver, "run_simulation", run_simulation)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = []
        self.parent = []
        self.start = []
        self.end = []
        self._stack = [-1]
        self._stack_ids = [-1]
        self.counters = defaultdict(int)
        self._patcher = Patcher()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call; ``count(args, result)`` after it."""
        nid = self._id(name)
        clock = time.perf_counter
        stack, stack_ids = self._stack, self._stack_ids
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            if stack_ids[-1] == nid:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            stack_ids.append(nid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                stack_ids.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` under a span of its own (an operation's root)."""
        return self.wrap(name, fn)(*args)

    # -- installation -----------------------------------------------------

    def install(self):
        mod = {n: importlib.import_module(f"cgstab.{n}") for n in (
            "cli", "scan", "fourier", "solver", "stabilization", "timeint", "fluxes",
            "problems")}
        c = self.counters
        patch = self._patcher

        def on_class(cls, attr, name, count=None):
            patch.set(cls, attr, self.wrap(name, vars(cls)[attr], count))

        def on_module(module, attr, name, count=None):
            patch.set(module, attr, self.wrap(name, getattr(module, attr), count))

        def eig_count(args, _):
            c["fourier.eig.matrices"] += int(np.prod(np.shape(args[0])[:-2]))

        def scan_count(_, res):
            c["scan.cells"] += res.stable.size
            c["scan.stable_cells"] += int(res.stable.sum())
            c["scan.eig_failures"] += res.eig_failures

        def run_count(_, res):
            c["stabilization.mass_factorizations"] += res.system.n_mass_factorizations

        # scan half: cli -> scan_combination -> symbols, eigen solves, eta
        on_module(mod["cli"], "scan_combination", "scan", scan_count)
        for attr in ("to_json", "mask_csv"):
            on_class(mod["scan"].ScanResult, attr, "cli.export")
        for attr in ("mass", "conv", "lumped_diag"):
            on_class(mod["fourier"].SymbolBuilder, attr, "fourier.fold")
        on_module(mod["scan"], "eigvals_batched", "fourier.eig", eig_count)
        # the mode-field algebra (mass solves, RK polynomial, DeC powers-by-H
        # sum) and the optimum search get spans of their own, so that the
        # scan span's self time is its phase, log, principal pick and mask
        on_module(mod["scan"], "_mode_fields", "scan.modes")
        on_module(mod["scan"], "_dec_cfl_polynomial", "scan.dec_poly")
        on_module(mod["scan"], "optimize", "scan.optimize")
        on_module(mod["scan"], "monotone_safety_check", "scan.optimize")
        on_module(mod["scan"], "eta_u", "scan.eta")
        on_module(mod["scan"], "eta_w", "scan.eta")

        # time-domain half: solver -> assembly, steps, residuals, mass solves
        on_module(mod["solver"], "run_simulation", "solver", run_count)
        on_module(mod["solver"], "l2_error", "solver.l2_error")
        on_module(mod["solver"], "assemble_system", "stabilization.assemble")
        on_module(mod["solver"], "build_reference_element", "elements.setup")
        on_module(mod["stabilization"], "local_matrices", "elements.setup")
        on_class(mod["timeint"].TimeScheme, "step", "timeint.step")
        system = mod["stabilization"].DiscreteSystem
        for attr in ("residual", "solve_mass", "refresh_mass", "project_gradient"):
            on_class(system, attr, f"stabilization.{attr}")
        for cls in (mod["fluxes"].LinearAdvection, mod["fluxes"].Burgers,
                    mod["fluxes"].ShallowWater):
            on_class(cls, "flux_x", "fluxes.flux_x")

        # problem factories: the exact solution (initial and boundary data,
        # error norms) and the momentum source are closures on each spec
        problems = mod["problems"].PROBLEMS
        for key, make in list(problems.items()):
            patch.set_item(problems, key, self._traced_factory(make))

    def _traced_factory(self, make):
        def factory(*args, **kwargs):
            spec = make(*args, **kwargs)
            spec = dataclasses.replace(spec, exact=self.wrap("problems.exact", spec.exact))
            if getattr(spec.flux, "source", None) is not None:
                spec.flux.source = self.wrap("fluxes.source", spec.flux.source)
            return spec

        return factory

    def uninstall(self):
        self._patcher.restore()

    # -- aggregation --------------------------------------------------------

    def mark(self):
        """A position to aggregate from: (span count, counter snapshot)."""
        return len(self.start), dict(self.counters)

    def layers(self, mark):
        """Per-name calls, total and self seconds of the spans since ``mark``,
        the counter increments, and the seconds covered by the direct
        children of operation roots."""
        i0, counters0 = mark
        names = np.asarray(self.name_id[i0:], dtype=np.int64)
        parent = np.asarray(self.parent[i0:], dtype=np.int64) - i0
        dur = np.asarray(self.end[i0:]) - np.asarray(self.start[i0:])
        children = np.zeros_like(dur)
        inside = parent >= 0
        np.add.at(children, parent[inside], dur[inside])
        self_s = dur - children
        out = {}
        for nid in np.unique(names):
            sel = names == nid
            out[self.names[nid]] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                                    "self_s": float(self_s[sel].sum())}
        is_op = np.array([n.startswith(OP_PREFIX) for n in self.names], dtype=bool)
        under_op = inside & is_op[names[np.maximum(parent, 0)]]
        counts = {k: v - counters0.get(k, 0) for k, v in self.counters.items()}
        return out, counts, float(dur[under_op].sum())

    def dump(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
