"""Seeded workload configs for the benchmark.

Each workload is one CLI command on one config.  The seed draws only the
shift list, from a fixed range, so every seed runs the same code at the same
grid size; the program receives nothing but the generated config file.  Why
each workload exists is its ``why`` below, repeated in BENCHMARK.json.
"""

from __future__ import annotations

import random
from typing import NamedTuple

DEFAULT_SEED = 20260517

# Line data of the diagonal system, as in tests/test_cli.py.
BD_KEYS = {"1,2": "0.2", "2,1": "0.1*R1", "3,1": "0.15",
           "1,3": "0.1+0.05*R3", "2,3": "0.2", "3,2": "0.25"}

# The surface config of the README.
SURFACE = {"g11": "1", "g22": "R1^2", "eta1": "5-R1^2",
           "eta2": "1+R2^2", "k1_line": "2+2*R1", "k2_line": "2.5"}

# Shifts are drawn on this step so that their "%g" labels in residual keys
# are short and distinct.
SHIFT_STEP = 0.05


class Workload(NamedTuple):
    command: str
    shift_count: int
    shift_range: tuple
    grid: int        # points per axis
    smoke_grid: int  # smallest grid on which every verdict is still "pass"
    why: str


WORKLOADS = {
    "pencil-check": Workload(
        "check-compat", 5, (0.0, 3.0), 33, 9,
        "symbolic build, eval_grid/eval_array and einsum residuals; "
        "no march and no CSV/OBJ, so it bypasses solver and writer changes"),
    "frame-sweep": Workload(
        "frame", 4, (0.25, 3.0), 33, 17,
        "3D march with 9 coupled unknowns on short lines, solve_S/solve_lame,"
        " pool work the pool speeds up, and the CSV writer"),
    "surface-family": Workload(
        "deform-surface", 4, (0.0, 1.5), 129, 33,
        "2D march on long lines where cumint dominates, the OBJ writer, "
        "pool work the pool slowed, and the lazy scipy import"),
}


def shifts(name: str, seed: int) -> list:
    """Sorted distinct shifts for a workload, drawn from its range by seed."""
    w = WORKLOADS[name]
    lo, hi = w.shift_range
    steps = round((hi - lo) / SHIFT_STEP)
    picks = random.Random(f"{name}:{seed}").sample(range(steps + 1),
                                                   w.shift_count)
    return [round(lo + k * SHIFT_STEP, 10) for k in sorted(picks)]


def config(name: str, seed: int, smoke: bool = False) -> dict:
    """The CLI config of a workload; smoke mode uses its smallest grid."""
    w = WORKLOADS[name]
    m = w.smoke_grid if smoke else w.grid
    lambdas = shifts(name, seed)
    if w.command == "check-compat":
        return {"chart": {"n": 3, "box": [[0.0, 1.0]] * 3, "shape": [m] * 3},
                "metric": {"diag": ["1", "1", "1"]},
                "metric_tilde": {"diag": ["1+R1^2", "3+R2^2", "6+R3^2"]},
                "lambdas": lambdas}
    if w.command == "frame":
        return {"chart": {"n": 3, "box": [[0.0, 1.0]] * 3, "shape": [m] * 3},
                "etas": ["1", "2", "4"],
                "beta_boundary": dict(BD_KEYS),
                "lambdas": lambdas}
    return {"chart": {"n": 2, "box": [[0.5, 1.5], [0.0, 1.0]],
                      "shape": [m, m]},
            "surface": dict(SURFACE),
            "lambdas": lambdas}
