"""A fuzz of ``cli.main``: every command line drawn from ``cli.OPTIONS`` ends in
a classified exit, and a configuration error writes nothing.

Each option takes a value of its own type or choices, or one at or past the
edge of a number type: +-0, 1e-300, 5e-324, 1e300, NaN, +-inf and negative
or huge integers.  The work limits are set small, so every accepted run is
cheap.  ``optimize`` always gets all four combination keys, so it scans one
combination, and a ``--jobs`` of 1 or 2.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cgstab import cli, scan, solver

EDGE_FLOATS = (0.0, -0.0, 1e-300, 5e-324, 1e300, math.nan, math.inf, -math.inf)
EDGE_INTS = (-2**70, -1, 0, 1, 2, 3, 17, 18, 1023, 1100, 2**70, 10**400)
# small enough that every accepted run is cheap, large enough for the CLI's defaults
LIMITS = ((solver, "MAX_CELLS", 100), (cli, "MAX_CELLS", 100), (solver, "MAX_STEPS", 400),
          (scan, "MAX_SCAN_CELLS", 1000), (scan, "MAX_THETA_SAMPLES", 100),
          (cli, "MAX_THETA_SAMPLES", 200))
CLASSIFIED = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC, cli.EXIT_NO_STABLE, cli.EXIT_IO}

NUMBERS = st.sampled_from(EDGE_FLOATS + EDGE_INTS) | st.floats(0.01, 4.0)
# values that run, so that the checks after validation are reached too
RUNS = {"cfl": st.floats(0.05, 2.0), "delta": st.floats(0.0, 1.0),
        "theta_samples": st.integers(2, 24), "cells": st.integers(1, 40),
        "levels": st.integers(3, 5), "dx1": st.floats(0.1, 1.0).map(lambda h: [h, h / 2, h / 4]),
        "cfl_min": st.floats(0.05, 0.5), "cfl_max": st.floats(0.6, 3.0),
        "delta_min": st.floats(1e-3, 0.05), "delta_max": st.floats(0.1, 2.0),
        "grid_ratio": st.floats(1.5, 4.0), "jobs": st.integers(1, 4)}


def _values(key):
    """A value of the option ``key``: one of its choices, else one that runs
    or one of its type."""
    opt = cli.OPTIONS[key]
    choices = (opt.flag or {}).get("choices")
    if choices:
        return st.sampled_from(choices)
    if opt.types == (bool,):
        return st.booleans()
    if opt.types == cli.NUMBER:
        edge = NUMBERS
    elif opt.types == (int,):
        edge = st.sampled_from(EDGE_INTS)
    else:
        edge = st.lists(NUMBERS, max_size=5)   # dx1
    return RUNS[key] | edge


@st.composite
def command_lines(draw):
    """(command, flags, config): a subcommand, the options given as flags and
    those given in the config file."""
    command = draw(st.sampled_from(cli.ALL))
    flags, config = {}, {}
    for key, opt in cli.OPTIONS.items():
        if command not in opt.reads or key == "out":
            continue
        forced = command == "optimize" and key in cli.COMBINATION + ("jobs",)
        if not (forced or draw(st.booleans())):
            continue
        if command == "optimize" and key == "jobs":
            value = draw(st.integers(1, 2))
        else:
            value = draw(_values(key))
        as_flag = opt.flag is not None and value is not False and draw(st.booleans())
        (flags if as_flag else config)[key] = value
    return command, flags, config


def _argv(command, flags, config_path):
    argv = [command, "--config", str(config_path)]
    for key, value in flags.items():
        name = "--" + key.replace("_", "-")
        argv.append(name if value is True else f"{name}={value}")
    return argv


@settings(max_examples=250, derandomize=True, database=None, deadline=3000)
@given(command_lines())
def _fuzz(line):
    command, flags, config = line
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "c.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        code = cli.main(_argv(command, flags, path) + ["--out", str(out)])
        assert code in CLASSIFIED
        if code == cli.EXIT_CONFIG:
            assert not out.exists()


def test_every_command_line_ends_in_a_classified_exit(monkeypatch):
    for module, name, value in LIMITS:
        monkeypatch.setattr(module, name, value)
    _fuzz()
