"""Integration of compatible overdetermined first-order systems on a grid.

Each unknown carries its prescribed derivative fields along a subset of the
coordinate axes; at most one axis per unknown may be "free", in which case the
unknown's values on the coordinate line of that axis (through the box corner)
are boundary data.  The solver iterates the integral form of the system:
values are transported from the boundary line along a staircase of axis legs,
with a 4th-order cumulative quadrature, until the fixed point is reached.
Compatibility (Frobenius) of the system is certified afterwards by residuals,
not assumed silently: path-independence can be probed by permuting the leg
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expr import Expr, evaluate
from .grids import Chart, cumint, max_abs

__all__ = ["Unknown", "MarchError", "solve_compatible"]


class MarchError(RuntimeError):
    """Divergence or blow-up during the fixed-point integration."""


@dataclass
class Unknown:
    """One scalar unknown of a compatible system.

    rhs maps axis -> callable(state, mesh) -> full-grid derivative field.
    ``free_axis`` has no rhs entry; ``boundary`` is an Expr in that axis'
    coordinate (values on the coordinate line through the corner).  With
    ``free_axis=None`` the boundary is the value at the corner and every axis
    needs an rhs entry.
    """

    name: str
    rhs: dict[int, Callable]
    free_axis: int | None = None
    boundary: Expr | float = 0.0


def _boundary_array(u: Unknown, chart: Chart) -> np.ndarray:
    """Boundary data broadcast to a grid slab (size 1 along non-free axes)."""
    corner = chart.corner()
    if u.free_axis is None:
        v = float(u.boundary) if not isinstance(u.boundary, Expr) \
            else float(evaluate(u.boundary, corner))
        return np.full((1,) * chart.n, v)
    axis = u.free_axis
    coords = list(corner)
    coords[axis] = chart.axes()[axis]
    if isinstance(u.boundary, Expr):
        vals = np.broadcast_to(np.asarray(evaluate(u.boundary, coords), dtype=float),
                               (chart.shape[axis],))
    else:
        vals = np.full(chart.shape[axis], float(u.boundary))
    shape = [1] * chart.n
    shape[axis] = chart.shape[axis]
    return vals.reshape(shape)


def _transport(u: Unknown, state: dict, mesh, chart: Chart,
               order: tuple, spacing) -> np.ndarray:
    """One path-integration pass for a single unknown from its boundary data."""
    part = _boundary_array(u, chart)
    dirs = [k for k in order if k != u.free_axis]
    for i, k in enumerate(dirs):
        field = np.asarray(u.rhs[k](state, mesh))
        field = np.broadcast_to(field, chart.shape)
        # Axes not yet traversed (and not free) stay pinned at the corner.
        idx = [slice(None)] * chart.n
        for later in dirs[i + 1:]:
            idx[later] = slice(0, 1)
        part = part + cumint(field[tuple(idx)], k, spacing[k])
    return np.ascontiguousarray(np.broadcast_to(part, chart.shape))


def solve_compatible(chart: Chart, unknowns: list[Unknown],
                     order: tuple | None = None,
                     tol: float = 1e-13, max_iter: int = 600,
                     blowup: float = 1e6) -> dict[str, np.ndarray]:
    """Solve the system to its fixed point; returns name -> full grid.

    ``order`` is the axis permutation defining the staircase legs (defaults to
    0..n-1).  Deterministic: fixed sweep order, fixed quadrature.
    """
    order = tuple(range(chart.n)) if order is None else tuple(order)
    if sorted(order) != list(range(chart.n)):
        raise ValueError(f"order {order} is not a permutation of the axes")
    mesh = chart.mesh()
    spacing = chart.spacing()
    state = {u.name: np.ascontiguousarray(
        np.broadcast_to(_boundary_array(u, chart), chart.shape)) for u in unknowns}
    for _ in range(max_iter):
        delta = 0.0
        for u in unknowns:
            new = _transport(u, state, mesh, chart, order, spacing)
            delta = max_abs(delta, new - state[u.name])
            state[u.name] = new
        scale = 1.0 + max_abs(*(state[u.name] for u in unknowns))
        # A NaN or inf in any unknown (the only way delta can be one) makes
        # scale non-finite, which this comparison rejects.
        if not scale <= blowup:
            raise MarchError("solution exceeded the blow-up guard or is not finite")
        if delta <= tol * scale:
            return state
    raise MarchError(f"no fixed point after {max_iter} sweeps (last delta {delta:.3e})")
