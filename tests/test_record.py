"""The comparison of ``tests/record.py --check``, and the README's quotes of tests/data."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).parent
_spec = importlib.util.spec_from_file_location("record", HERE / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def compare(name, old, new):
    """(differing lines, hash-only count) of one digest line recorded as old, then new."""
    header = record.HEADERS[name] + "\n"
    return record.compare({name: header + old + "\n"}, {name: header + new + "\n"})[name]


@pytest.mark.parametrize("name, old, new", [
    ("sweep_digest.csv", "c,10,1.5,2.5,aa", "c,11,1.5,2.5,aa"),              # a stable cell more
    ("optimize.csv", "c,max_cfl,0.5,0.1,1", "c,max_cfl,0.5,0.1,0"),           # one byte
    ("sweep_digest.csv", "c,10,1.5,2.5,aa", f"c,10,{1.5 * (1 + 1e-11)!r},2.5,bb"),
    ("states_digest.csv", "r,18,0.002,aa", "r,BlowUp,,"),
])
def test_check_fails_on_a_moved_count_byte_value_or_outcome(name, old, new):
    assert compare(name, old, new) == ([f"{old} -> {new}"], 0)


@pytest.mark.parametrize("name, old, new", [
    ("sweep_digest.csv", "c,10,1.5,2.5,aa", f"c,10,{1.5 * (1 + 1e-13)!r},2.5,bb"),
    ("modes_digest.csv", "r,0,-inf,3.5,aa", "r,0,-inf,3.5,bb"),
])
def test_check_counts_a_line_whose_values_agree_as_hash_only(name, old, new):
    assert compare(name, old, new) == ([], 1)


# prints the modes and states digest lines of record.runs(), in order
_MODES_AND_STATES = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("record", sys.argv[1])
record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record)
print(json.dumps([line for fn, args in record.runs()
                  if fn in (record.modes_lines, record.state_lines) for line in fn(*args)]))
"""


def test_modes_and_states_match_their_contracts():
    """The 144 ``cgstab modes`` runs and 324 time-domain runs of ``record.py
    --check``, in one process pinned to one BLAS thread as the recorder is:
    no count, exit code or value moves from tests/data."""
    path = os.pathsep.join([str(HERE.parent / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", _MODES_AND_STATES, str(HERE / "record.py")],
                         env=env, capture_output=True, text=True, check=True).stdout
    files = {name: [record.HEADERS[name]] for name in ("modes_digest.csv", "states_digest.csv")}
    for name, line in json.loads(out):
        files[name].append(line)
    new = {name: "".join(line + "\n" for line in lines) for name, lines in files.items()}
    report = record.compare({name: (HERE / "data" / name).read_text() for name in new}, new)
    for name, (differ, _) in report.items():
        assert not differ, "\n".join([name, *differ])


# README, "Known fault: low-CFL DeC cells marked unstable"
FLAGS_QUOTE = ("In `optimize.csv` 16 `monotone_safe` flags read 0 that LAPACK makes 1: all three "
               "of `cubature-p3-{none,cip,lps}-dec` and `bernstein-p3-{cip,lps}-dec`, and "
               "`basic-p3-supg-dec` `min_eta_u`.")
FLAGGED = [f"{comb}-dec,{strategy}"
           for comb in ("cubature-p3-none", "cubature-p3-cip", "cubature-p3-lps",
                        "bernstein-p3-cip", "bernstein-p3-lps")
           for strategy in ("max_cfl", "min_eta_u", "min_eta_w")] + ["basic-p3-supg-dec,min_eta_u"]
OPTIMUM_QUOTE = "`bernstein-p3-supg-dec` `min_eta_u` is (0.623167, 0.297628)"


def test_readme_known_fault_quotes_match_optimize_csv():
    readme = " ".join((HERE.parent / "README.md").read_text().split())
    assert FLAGS_QUOTE in readme and OPTIMUM_QUOTE in readme
    rows = {",".join(row.split(",")[:2]): row.split(",")[2:]
            for row in (HERE / "data" / "optimize.csv").read_text().splitlines()[2:]}
    assert len(FLAGGED) == 16 and [rows[key][2] for key in FLAGGED] == ["0"] * 16
    assert rows["bernstein-p3-supg-dec,min_eta_u"][:2] == ["0.623167", "0.297628"]
