"""Benchmark of cgstab's two halves: the (CFL, delta) scans and the time-domain runs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload scan-p3 --seed 1 --seconds 30 --trace 0

Workloads (``bench/workloads.py``; why each was chosen is in BENCHMARK.json):

    scan-p3         four default-grid ``cgstab scan`` runs through ``cli.main``
    converge-small  the twelve acceptance convergence studies
    march-1e4       six ``run_simulation`` runs on 10^4 cells, 40 steps each

The seed only permutes the order of the operations inside a workload.  One
process, one BLAS thread, no process pool.

``--trace 0`` sets up the package several times (a fresh import of cgstab
plus its first-call caches) and reports the median as ``setup_s``, then
repeats untraced passes over the workload for about ``--seconds`` (at least
one pass) and prints the end-to-end metrics: median pass wall and CPU time,
peak RSS over set-up and the first pass, and work per second (scan points,
or n_dofs * n_steps summed over the runs).  ``--trace 1`` sets up once,
makes one untraced pass and two traced passes (``bench/spans.py``) and
prints the per-layer metrics; the exact work counts of the two traced
passes must agree.  All times are plain ``perf_counter`` and
``process_time`` seconds.

Every output is checked against ``bench/reference.json``, recorded from the
seed commit by ``bench/record_reference.py``.  A mismatch or an exception
counts as a failed operation.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a result file
with the machine description goes to ``.bench_out/``.
"""

import os

# One BLAS thread, set before numpy loads.  On a shared 2-core Xeon VM, ten
# runs a workload with two threads against ten with one (not interleaved,
# so host drift is mixed in): the scan pass's cpu_s median fell from 66 s to
# 41 s, as the second thread's spin-waiting went, while its wall_s median
# rose from 41 s to 45 s; the march pass's wall_s spread fell from 0.16 to
# 0.08.  One thread keeps cpu_s a measure of work done and a run from
# competing with other processes for the second core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import gc
import importlib
import json
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from spans import OP_PREFIX, Patcher, Tracer, count_dof_steps  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

SETUP_REPEATS = 15

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
)

PER_LAYER = (
    ("fourier.fold.calls", "count"),
    ("fourier.fold.s", "s"),
    ("fourier.eig.matrices", "count"),
    ("fourier.eig.s", "s"),
    ("scan.dec_poly.s", "s"),
    ("scan.eta.s", "s"),
    ("scan.self_s", "s"),
    ("scan.modes.self_s", "s"),
    ("scan.optimize.s", "s"),
    ("scan.cells", "count"),
    ("scan.stable_frac", "ratio"),
    ("scan.eig_failures", "count"),
    ("cli.export.s", "s"),
    ("stabilization.residual.calls", "count"),
    ("stabilization.residual.s", "s"),
    ("stabilization.residual.self_s", "s"),
    ("stabilization.solve_mass.calls", "count"),
    ("stabilization.solve_mass.s", "s"),
    ("stabilization.refresh_mass.s", "s"),
    ("stabilization.project_gradient.calls", "count"),
    ("stabilization.project_gradient.s", "s"),
    ("stabilization.mass_factorizations", "count"),
    ("stabilization.assemble.s", "s"),
    ("timeint.step.calls", "count"),
    ("timeint.step.self_s", "s"),
    ("solver.self_s", "s"),
    ("solver.l2_error.s", "s"),
    ("solver.dof_steps", "count"),
    ("fluxes.flux_x.s", "s"),
    ("fluxes.source.s", "s"),
    ("problems.exact.s", "s"),
    ("elements.setup.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("failed_ops_frac", "ratio"),
)

# Per-layer metrics read from the tracer's counters rather than from spans.
COUNTERS = ("fourier.eig.matrices", "scan.cells", "scan.eig_failures",
            "stabilization.mass_factorizations", "solver.dof_steps")

# Work counts that must repeat exactly between the two traced passes.
EXACT_COUNTS = ("fourier.eig.matrices", "scan.cells", "stabilization.residual.calls",
                "stabilization.solve_mass.calls", "timeint.step.calls", "solver.dof_steps")


# ------------------------------------------------------------------ set-up


def _purge_cgstab():
    for name in [m for m in sys.modules if m == "cgstab" or m.startswith("cgstab.")]:
        del sys.modules[name]


def _setup_once(ops):
    """Import cgstab and build the first-call caches the operations use."""
    started = time.perf_counter()
    importlib.import_module("cgstab.cli")
    from cgstab import elements, problems, scan

    tiny_grid = scan.ScanGrid(np.array([0.1]), np.array([0.01]), 2)
    for op in ops:
        for family, degree, stab in op.combos:  # fills the symbol-builder cache
            scan.scan_combination(scan.Combination(family, degree, stab, "rk"), tiny_grid)
        for family, degree in op.elements:
            elements.local_matrices(elements.build_reference_element(family, degree))
        for name in op.problems:
            problems.PROBLEMS[name]()
    return time.perf_counter() - started


def measure_setup(ops, repeats=SETUP_REPEATS):
    """(cold first set-up, seconds of each warm re-import)."""
    first = _setup_once(ops)
    warm = []
    for _ in range(repeats):
        _purge_cgstab()
        gc.collect()
        warm.append(_setup_once(ops))
    return first, warm


# ------------------------------------------------------------------ passes

try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):  # not glibc
    _malloc_trim = None


def release_free_heap():
    """Hand freed heap back to the OS, so that peak RSS is set mostly by the
    largest operation.  The heap layout an operation inherits still depends on
    the order the seed gives the operations: over ten seeds the first-pass
    peak of march-1e4 ranged from 84 to 91 MB."""
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


def warm_allocator():
    """Free one large, untouched block before anything is timed.

    glibc raises its mmap and trim thresholds the first time it frees an
    mmap'd block (up to 32 MiB).  Until then every large temporary is
    mapped, faulted in and unmapped again, which made the first default-grid
    DeC scan of a process about 20 % slower than the later ones.  Doing it
    here puts every pass, whatever operation the seed puts first, in the
    state a long-running process reaches; the block is never touched, so it
    adds nothing to peak RSS.
    """
    block = np.empty((31 << 20) // 8)
    del block


class Harness:
    def __init__(self, ops, reference, out_dir):
        self.ops = ops
        self.reference = reference
        self.out_dir = out_dir
        self.tracer = None
        self.counters = defaultdict(int)
        self.attempted = 0
        self.failures = []

    def one_pass(self):
        """Run every operation once; return the pass's wall and CPU seconds,
        the work done, and each operation's seconds."""
        dof0 = self.counters["solver.dof_steps"]
        raws, walls, cpus = [], [], []
        for op in self.ops:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                if self.tracer is None:
                    raws.append(op.run(self.out_dir))
                else:
                    raws.append(self.tracer.call(OP_PREFIX + op.name, op.run, self.out_dir))
            except Exception:  # a failed operation is counted, the run goes on
                raws.append(traceback.format_exc())
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - cpu0)
            release_free_heap()
        work = self.counters["solver.dof_steps"] - dof0
        for op, raw in zip(self.ops, raws):
            work += self._check(op, raw)
        return {"wall_s": sum(walls), "cpu_s": sum(cpus), "work": work,
                "op_wall_s": walls, "op_cpu_s": cpus}

    def _check(self, op, raw):
        """Count one attempt, record its failure if any; return its scan points."""
        self.attempted += 1
        if isinstance(raw, str):
            problems = [raw.strip().splitlines()[-1]]
            print(f"{op.name}: exception\n{raw}", file=sys.stderr)
            summary = {}
        else:
            try:
                summary = op.summarize(raw)
                problems = op.check(summary, self.reference[op.name])
            except Exception:
                summary, problems = {}, [traceback.format_exc()]
        if problems:
            self.failures.append({"op": op.name, "problems": problems})
            print(f"{op.name}: FAILED: {'; '.join(problems)}", file=sys.stderr)
        return summary.get("points", 0)


def run(workload, seed, seconds, trace, ops, reference, out_dir):
    """Measure one workload; return (result line, details for the result file)."""
    warm_allocator()
    # the traced run prints no setup_s, so it sets up once, not SETUP_REPEATS times
    first_setup, setups = measure_setup(ops, repeats=0 if trace else SETUP_REPEATS)
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    out_dir.mkdir(parents=True, exist_ok=True)

    harness = Harness(ops, reference, out_dir)
    patcher = Patcher()
    count_dof_steps(patcher, harness.counters)
    passes = []
    try:
        started = time.perf_counter()
        passes.append(harness.one_pass())
        # set-up and one pass, so that the peak does not grow with the pass count
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # as many whole passes, checks included, as fit
        n_passes = 1 if trace else max(1, int(seconds // (time.perf_counter() - started)))
        while len(passes) < n_passes:
            passes.append(harness.one_pass())
        wall = statistics.median(p["wall_s"] for p in passes)
        details = {
            "ops": [op.name for op in ops],
            "passes": passes,
            "setup_first_s": first_setup,
            "setup_s": setups,
        }
        if not trace:
            metrics = {
                "wall_s": wall,
                "cpu_s": statistics.median(p["cpu_s"] for p in passes),
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(setups),
                "work_per_s": statistics.median(p["work"] / p["wall_s"] for p in passes),
            }
            units = dict(END_TO_END)
            correct = True
        else:
            metrics, correct, tracer = traced_passes(harness, wall, details)
            units = dict(PER_LAYER)
            tracer.dump(out_dir / f"spans_{workload}_seed{seed}.npz")
    finally:
        patcher.restore()

    correct = correct and not harness.failures
    details["failures"] = harness.failures
    line = {
        "correct": correct,
        "attempted": harness.attempted,
        "failed": len(harness.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return line, details


def traced_passes(harness, untraced_wall, details):
    """Two traced passes; per-layer metrics and whether their counts repeat."""
    tracer = Tracer()
    harness.tracer = tracer
    tracer.install()
    per_pass, traced_walls = [], []
    try:
        for _ in range(2):
            mark = tracer.mark()
            dof0 = harness.counters["solver.dof_steps"]
            timing = harness.one_pass()
            layers, counts, covered = tracer.layers(mark)
            counts["solver.dof_steps"] = harness.counters["solver.dof_steps"] - dof0
            per_pass.append(layer_metrics(layers, counts, timing["wall_s"], covered))
            traced_walls.append(timing["wall_s"])
    finally:
        tracer.uninstall()
        harness.tracer = None

    correct = True
    for name in EXACT_COUNTS:
        if per_pass[0][name] != per_pass[1][name]:
            correct = False
            print(f"traced count {name} differs between passes: "
                  f"{per_pass[0][name]} != {per_pass[1][name]}", file=sys.stderr)
    metrics = {}
    for name, unit in PER_LAYER:
        values = [p[name] for p in per_pass if name in p]
        if values:
            metrics[name] = values[-1] if unit == "count" else statistics.fmean(values)
    metrics["trace.overhead_s"] = statistics.fmean(traced_walls) - untraced_wall
    metrics["failed_ops_frac"] = len(harness.failures) / harness.attempted
    details["traced_passes"] = per_pass
    return metrics, correct, tracer


def layer_metrics(layers, counts, wall, covered):
    """One traced pass's values of the metrics in PER_LAYER, but for the
    tracing overhead and the failed fraction, which cover the whole run."""
    out = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in COUNTERS:
            out[name] = counts.get(name, 0)
        elif field in ("calls", "s", "self_s"):
            out[name] = layers.get(span, {}).get(field, 0)
    cells = counts.get("scan.cells", 0)
    out["scan.stable_frac"] = counts.get("scan.stable_cells", 0) / cells if cells else 0.0
    out["trace.wall_s"] = wall
    out["trace.coverage"] = covered / wall
    return out


# ------------------------------------------------------------------ report


def machine():
    """Where the numbers come from; runs from different machines are never compared."""
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    return info


def git_commit():
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(line, stream=sys.stdout):
    for name, m in line["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}", file=stream)
    print(f"{'operations failed':40s} {line['failed']:>16d} of {line['attempted']}", file=stream)
    print(json.dumps(line), file=stream)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cgstab" / "__init__.py").is_file():
        print(f"no cgstab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    reference = json.loads((BENCH_DIR / "reference.json").read_text())["workloads"]

    out_dir = ROOT / ".bench_out"
    line, details = run(args.workload, args.seed, args.seconds, args.trace,
                        build(args.workload), reference[args.workload], out_dir / "work")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "result": line, **details}
    path = out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
