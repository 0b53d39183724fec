"""Charts, structured grids, and the difference/quadrature kernels.

A Chart is a box in R^n with per-axis sample counts.  Grid arrays are plain
numpy arrays indexed 'ij' (axis k of the array is coordinate R{k+1}).
Derivatives use 4th-order stencils (central in the interior, one-sided at the
boundary); cumulative integrals use a 4th-order sliding Newton-Cotes rule so
integration never leaves the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import Expr, evaluate

__all__ = ["Chart", "GridError", "eval_grid", "deriv", "cumint", "max_abs"]


class GridError(ValueError):
    """Invalid chart or grid operation."""


@dataclass(frozen=True)
class Chart:
    """Box ``[lo_k, hi_k]`` per coordinate with ``shape[k]`` samples per axis."""

    n: int
    box: tuple
    shape: tuple

    def __post_init__(self):
        if not (1 <= self.n <= 6):
            raise GridError(f"dimension {self.n} outside supported range 1..6")
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        shape = tuple(int(m) for m in self.shape)
        if len(box) != self.n or len(shape) != self.n:
            raise GridError("box and grid counts must match the dimension")
        for lo, hi in box:
            if not hi > lo:
                raise GridError(f"degenerate interval [{lo}, {hi}]")
            if not np.isfinite(hi - lo):
                raise GridError(f"interval [{lo}, {hi}] is not finite")
        for m in shape:
            if m < 5:
                raise GridError(
                    "need at least 5 samples per axis for the stencils")
        if math.prod(shape) > 10**7:   # np.prod wraps around in int64
            raise GridError("grid exceeds 10^7 points")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "shape", shape)

    def axes(self) -> list[np.ndarray]:
        """Samples per axis: read-only arrays built once per chart."""
        return list(self._grids[0])

    def spacing(self) -> list[float]:
        return [(hi - lo) / (m - 1) for (lo, hi), m in zip(self.box, self.shape)]

    def mesh(self) -> list[np.ndarray]:
        """Coordinate grids ('ij'): read-only arrays built once per chart."""
        return list(self._grids[1])

    @cached_property
    def _grids(self) -> tuple:
        axes = [np.linspace(lo, hi, m) for (lo, hi), m in zip(self.box, self.shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        for a in (*axes, *mesh):
            a.flags.writeable = False
        return axes, mesh

    def corner(self) -> tuple:
        return tuple(lo for lo, _ in self.box)


def eval_grid(e: Expr, chart: Chart) -> np.ndarray:
    """Evaluate an Expr on the chart's full grid (always full-shape array).

    An Expr without coordinates gives a read-only zero-stride view of its
    one value; any other gives a fresh array.
    """
    out = np.asarray(evaluate(e, chart.mesh()), dtype=float)
    full = np.broadcast_to(out, chart.shape)
    return full if out.ndim == 0 else full.copy()


# 4th-order first derivative, one-sided rows at the boundary.
_D4_INTERIOR = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D4_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_D4_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def deriv(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    """4th-order first derivative of grid data along ``axis`` (needs >= 5 points).

    The interior takes the same operations in the same order on every axis:
    in the result by out= along axis 0, and along an inner axis by
    temporaries, which walk its strided slices faster."""
    arr = np.asarray(arr)
    m = arr.shape[axis]
    if m < 5:
        raise GridError("4th-order stencil needs at least 5 points per axis")
    a = arr.swapaxes(0, axis)
    out = np.empty_like(a)
    if axis:
        out[2:-2] = (a[0:m - 4] - 8.0 * a[1:m - 3] + 8.0 * a[3:m - 1] - a[4:m]) / 12.0
    else:
        mid = np.multiply(8.0, a[1:m - 3], out=out[2:-2])
        np.subtract(a[0:m - 4], mid, out=mid)
        mid += 8.0 * a[3:m - 1]
        mid -= a[4:m]
        mid /= 12.0
    out[0] = sum(c * a[k] for k, c in enumerate(_D4_EDGE0))
    out[1] = sum(c * a[k] for k, c in enumerate(_D4_EDGE1))
    out[-1] = -sum(c * a[m - 1 - k] for k, c in enumerate(_D4_EDGE0))
    out[-2] = -sum(c * a[m - 1 - k] for k, c in enumerate(_D4_EDGE1))
    out /= h
    return out.swapaxes(0, axis)


# Cumulative integral: each cell integrates the cubic through 4 nearby samples.
_C_LEFT = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0      # cell [x0, x1] from f0..f3
_C_MID = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0     # cell [x1, x2] from f0..f3
# np.cumsum walks rows narrower than this faster than one add per row (they
# cross at 128-192 values, rows of 33 and 129 lanes, 2-core Xeon).
_LANE_ROW = 160


def cumint(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    """4th-order cumulative integral along ``axis``; zero at the first sample.

    The result is a fresh array in the input's memory order; a C-ordered
    input along an inner axis is integrated in a leg-major copy (that axis
    outermost), then copied back into C order.  ``_C_MID`` is symmetric, so
    the cells add shifted slices of c0 * a and c1 * a, each formed once.
    Rows of ``_LANE_ROW`` values or more are then summed lane-parallel, each
    added into the next, else by np.cumsum: the same operations in the same
    order on every path, so the path moves no bit.
    """
    arr = np.asarray(arr)
    m = arr.shape[axis]
    if m < 4:
        raise GridError("4th-order quadrature needs at least 4 points per axis")
    scratch = axis != 0 and arr.flags.c_contiguous
    a = arr.swapaxes(0, axis).copy() if scratch else arr.swapaxes(0, axis)
    out = np.empty_like(a, dtype=np.result_type(a, float))
    # cell i goes to out[i + 1], with the terms of each cell added in order
    out[0] = 0.0
    out[1] = _C_LEFT[0] * a[0] + _C_LEFT[1] * a[1] + _C_LEFT[2] * a[2] + _C_LEFT[3] * a[3]
    c0a = _C_MID[0] * a                 # c3 * a too
    c1a = _C_MID[1] * a[1:m - 1]        # c2 * a too
    mid = np.add(c0a[:-3], c1a[:-1], out=out[2:m - 1])
    mid += c1a[1:]
    mid += c0a[3:]
    out[m - 1] = (_C_LEFT[0] * a[m - 1] + _C_LEFT[1] * a[m - 2]
                  + _C_LEFT[2] * a[m - 3] + _C_LEFT[3] * a[m - 4])
    del a, c0a, c1a  # a scratch copy and the products go before the result
    if out[0].size < _LANE_ROW:
        np.cumsum(out[1:], axis=0, out=out[1:])
    else:
        rows = list(out[1:, None])  # each row a view, also on a line
        for prev, row in zip(rows, rows[1:]):
            np.add(prev, row, out=row)
    out *= h
    return out.swapaxes(0, axis).copy() if scratch else out.swapaxes(0, axis)


def max_abs(*arrays) -> float:
    """Largest absolute entry over any number of arrays (0.0 when empty).

    A NaN anywhere makes the result NaN, so that it cannot read as a pass
    (np.maximum keeps it; Python's max drops a NaN that is not its first
    argument).  A float array is folded by its max and -min, with no |a|
    temporary, and + 0.0 turns -min(0.0) into 0.0; any other dtype by |a|.
    """
    best = 0.0
    for a in arrays:
        a = np.asarray(a)
        if a.size:
            best = np.maximum(best, np.maximum(np.max(a), -np.min(a))
                              if a.dtype.kind == "f" else np.max(np.abs(a)))
    return float(best) + 0.0
