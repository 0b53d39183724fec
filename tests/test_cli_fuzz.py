"""Mutation fuzz of the CLI on the three benchmark workload configs.

Each example takes one workload config, applies one or two mutations (drop a
key or list item, put a value of another type, a non-finite or huge number,
or a bad expression in its place) and runs the command at ``--grid 9``, or
at an odd ``--grid`` that is at most 9 or is refused, sometimes with an odd
``--lambda``.  Whatever the input, a run must end with an exit code, never a
traceback or a numpy warning, and a config error must leave no output
directory.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
import warnings
from unittest import mock

from hypothesis import given, settings, strategies as st

from pencil_lab.cli import main
from test_golden import GOLDEN

# The workload configs at their smoke grids; --grid overrides the shape.
CONFIGS = {name: (command, cfg) for name, (command, cfg, _) in GOLDEN.items()}

OTHER_TYPES = [None, True, 0, -1, 2.5, "", "R1", [], [1, 2], {}, {"a": 1}]
NUMBERS = [float("inf"), float("-inf"), float("nan"), 1e308, -1e308, 10**400,
           10**30, 1e-320]
EXPRESSIONS = ["R1+", "sqrt(", "R9", "1/0", "1/R1", "log(-1-R1^2)", "R1^^2",
               "exp(1000*R1)", "2^2000", "x", "(", "0", "-1", "R1-R1"]
# No --grid between 10 and the 10^7-point limit: such a run is merely slow.
GRIDS = ["5", "4", "0", "-3", "x", "1e3", "10000000000"]
LAMBDAS = ["", ",", "nan", "inf", "1e400", "0,0", "0.5,0.5000001", "a",
           "-1e308", "0.5", "-6"]


def _paths(node, prefix=()):
    """Every key path below ``node``, parents before their children."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    name = draw(st.sampled_from(sorted(CONFIGS)))
    command, cfg = CONFIGS[name]
    cfg = copy.deepcopy(cfg)
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(cfg))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        kind = draw(st.sampled_from(["drop", "type", "number", "expression"]))
        if kind == "drop":
            del parent[path[-1]]
        else:
            pool = {"type": OTHER_TYPES, "number": NUMBERS,
                    "expression": EXPRESSIONS}[kind]
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(pool)))
    argv = ["--grid", draw(st.one_of(st.just("9"), st.sampled_from(GRIDS)))]
    lam = draw(st.one_of(st.none(), st.sampled_from(LAMBDAS)))
    if lam is not None:
        argv.append(f"--lambda={lam}")
    return command, cfg, argv


@settings(max_examples=200, deadline=None)
@given(mutated_configs())
def test_mutated_workload_configs_end_cleanly(case):
    command, cfg, argv = case
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"PENCIL_LAB_THREADS": "1"}), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", path, "--out", out] + argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert [str(w.message) for w in caught] == []
        if code == 3:
            assert not os.path.exists(out)
