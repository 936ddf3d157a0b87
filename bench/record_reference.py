"""Record the reference outputs the benchmark checks against.

Run once at the commit whose outputs are the reference (the checked-in
file comes from the seed commit), from the root of the checkout:

    python3 bench/record_reference.py

It runs every operation of every workload once and rewrites
``bench/reference.json``.  A later change that alters an output on purpose
re-records the file and says why.
"""

import json
import sys

import run  # sets the BLAS thread count before numpy loads
from workloads import WORKLOADS, build


def record(workload, out_dir, tiny=False):
    """{operation name: reference dict} for one workload."""
    refs = {}
    for op in build(workload, tiny):
        refs[op.name] = op.reference_of(op.summarize(op.run(out_dir)))
    return refs


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    out_dir = run.ROOT / ".bench_out" / "work"
    payload = {"commit": run.git_commit(),
               "workloads": {w: record(w, out_dir) for w in WORKLOADS}}
    path = run.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(path)


if __name__ == "__main__":
    main()
