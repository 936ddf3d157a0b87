"""Self-test of the benchmark harness on a tiny grid and tiny meshes.

    python3 bench/selftest.py

For every workload, at self-test sizes, it records a reference in memory,
then checks that an untraced and a traced run print every metric named in
BENCHMARK.json with its unit and count no failed operation, and that a
corrupted reference value is counted as a failed operation.  Runs in a few
seconds; exits 1 on the first list of problems.
"""

import copy
import io
import json
import sys

import run
from record_reference import record
from workloads import WORKLOADS, build

# One reference value per workload to corrupt, as a path into the reference.
CORRUPT = {
    "scan-p3": ("optima", "min_eta_u", "objective"),
    "converge-small": ("finest_l2_error",),
    "march-1e4": ("l2_error",),
}


def printed_metrics(line):
    """The report's lines, checked to name every metric with its unit."""
    out = io.StringIO()
    run.report(line, out)
    lines = out.getvalue().splitlines()
    parsed = json.loads(lines[-1])
    shown = {}
    for text in lines[:-1]:
        fields = text.split()
        if len(fields) == 3:
            shown[fields[0]] = fields[2]
    return parsed, shown


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if expected[0] != dict(run.END_TO_END) or expected[1] != dict(run.PER_LAYER):
        problems.append("BENCHMARK.json metrics differ from run.py's")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py's")

    out_dir = run.ROOT / ".bench_out" / "selftest"
    for workload in WORKLOADS:
        reference = record(workload, out_dir, tiny=True)
        for trace in (0, 1):
            line, _ = run.run(workload, 3, 0, trace, build(workload, tiny=True),
                              reference, out_dir)
            parsed, shown = printed_metrics(line)
            if shown != expected[trace] or {
                    k: v["unit"] for k, v in parsed["metrics"].items()} != expected[trace]:
                problems.append(f"{workload} trace {trace}: printed metrics or units differ")
            if not parsed["correct"] or parsed["failed"] or parsed["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: failed on its own reference")

        bad = copy.deepcopy(reference)
        first = next(iter(bad))
        *path, key = CORRUPT[workload]
        node = bad[first]
        for part in path:
            node = node[part]
        node[key] *= 1.01
        line, _ = run.run(workload, 3, 0, 0, build(workload, tiny=True), bad, out_dir)
        if line["correct"] or line["failed"] != 1:
            problems.append(f"{workload}: corrupted {first} {CORRUPT[workload]} "
                            f"gave failed={line['failed']}, correct={line['correct']}")

    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print("bench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
