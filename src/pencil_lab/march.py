"""Integration of compatible overdetermined first-order systems on a grid.

Each unknown carries its prescribed derivative fields along a subset of the
coordinate axes; at most one axis per unknown may be "free", in which case the
unknown's values on the coordinate line of that axis (through the box corner)
are boundary data.  Unknowns may carry trailing component axes.  One pass of
the integral form (``path_integral``) transports values from the boundary
along a staircase of axis legs with a 4th-order cumulative quadrature, asking
each rhs only for the slab of the grid its leg sweeps; ``solve_compatible``
repeats the passes until the fixed point is reached.  Compatibility
(Frobenius) of the system is certified afterwards by residuals, not assumed
silently: path-independence can be probed by permuting the leg order.

Memory order moves no bit (each value is an elementwise operation or a
per-lane cumulative sum); it sets how fast numpy walks the grids.  A vector
unknown (a frame row) is held leg-major: the axis of its last leg, the one
leg over the whole grid, outermost in memory, then its component axes, then
the other grid axes, so every slab cumint adds is contiguous.  solve_frame
copies each entry of that leg's A_d into the same order once per solve
(a product of mixed orders is several times slower).  Scalar unknowns, whose
rhs read C-ordered grids, stay in C order; cumint integrates such a grid
along an inner axis in a leg-major scratch and hands it back in C order.
Every public function returns C-contiguous grids.

The convergence contract is fixed: a solve has converged when the largest
change of a sweep is at most TOL * scale = 1e-13 * (1 + max |unknown|), it
gets at most MAX_SWEEPS = 600 sweeps, and it raises MarchError when scale
exceeds BLOWUP = 1e6 or a value is not finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .entries import dot
from .expr import Expr, evaluate
from .grids import Chart, cumint, max_abs

__all__ = ["Unknown", "MarchError", "PoleError", "POLE_GUARD", "TOL",
           "MAX_SWEEPS", "BLOWUP", "refuse_pole", "shift", "path_integral",
           "solve_compatible", "solve_frame", "position_vector"]

# Smallest admissible value of lam + eta_i on the box for a spectral shift.
POLE_GUARD = 1e-8

TOL = 1e-13
MAX_SWEEPS = 600
BLOWUP = 1e6


class MarchError(RuntimeError):
    """Divergence or blow-up during the fixed-point integration."""


class PoleError(MarchError):
    """A spectral shift puts a pole of lam + eta_i on (or inside) the box."""


def refuse_pole(lam: float, etas) -> None:
    """Raise PoleError unless each lam + eta_i (eta_i a grid of ``etas``)
    stays above POLE_GUARD; rounding is monotone, so min(lam + eta_i) is
    exactly lam + min(eta_i) and no grid is formed."""
    low = min(lam + float(np.min(e)) for e in etas)
    if low <= POLE_GUARD:
        raise PoleError(
            f"shift {lam} touches a pole: min(lam + eta) = {low:.3e}")


def shift(lam: float, etas) -> list:
    """The grids lam + eta_i, one per grid of ``etas``, past refuse_pole."""
    refuse_pole(lam, etas)
    return [lam + e for e in etas]


@dataclass
class Unknown:
    """One unknown of a compatible system, scalar or with component axes.

    rhs maps axis -> callable(state, idx) -> derivative field on ``grid[idx]``:
    ``idx`` is a tuple of one slice per chart axis (the slab of the current
    staircase leg) and ``state`` maps names to full grids, so a field read
    from the state or from a precomputed grid is ``grid[idx]``.  The result
    may be anything that broadcasts to the slab (plus the component axes).
    ``free_axis`` has no rhs entry; ``boundary`` is an Expr in that axis'
    coordinate (values on the coordinate line through the corner).  With
    ``free_axis=None`` the boundary is the value at the corner and every axis
    needs an rhs entry; an array corner value gives the unknown its trailing
    component axes.
    """

    name: str
    rhs: dict[int, Callable]
    free_axis: int | None = None
    boundary: Expr | float | np.ndarray = 0.0


def _boundary_array(u: Unknown, chart: Chart) -> np.ndarray:
    """Boundary data broadcast to a grid slab (size 1 along non-free axes)."""
    corner = chart.corner()
    if u.free_axis is None:
        v = evaluate(u.boundary, corner) if isinstance(u.boundary, Expr) \
            else u.boundary
        v = np.asarray(v, dtype=float)
        return v.reshape((1,) * chart.n + v.shape)
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


def _held(chart: Chart, value, lead: int | None) -> np.ndarray:
    """A fresh grid (+ component axes) of ``value`` broadcast over the chart,
    in C order when ``lead`` is None, else leg-major about axis ``lead``."""
    value = np.asarray(value)
    shape = chart.shape + value.shape[chart.n:]
    perm = tuple(range(len(shape))) if lead is None else (
        lead, *range(chart.n, len(shape)),
        *(k for k in range(chart.n) if k != lead))
    out = np.empty([shape[p] for p in perm]).transpose(np.argsort(perm))
    out[...] = value
    return out


def _order(chart: Chart, order) -> tuple:
    order = tuple(range(chart.n)) if order is None else tuple(order)
    if sorted(order) != list(range(chart.n)):
        raise ValueError(f"order {order} is not a permutation of the axes")
    return order


def path_integral(chart: Chart, u: Unknown,
                  order: tuple | None = None) -> np.ndarray:
    """One path-integration pass for ``u`` from its boundary data.

    Legs follow ``order`` (default 0..n-1); axes not yet traversed (and not
    free) stay pinned at the corner, so leg i asks each rhs for the slab of
    the grid spanned by the free axis and the first i+1 legs.  Each rhs gets
    the state None, so the pass is exact for an rhs that reads no unknown.
    Returns a C-contiguous grid.
    """
    return np.ascontiguousarray(_pass(chart, u, _order(chart, order), None))


def _pass(chart: Chart, u: Unknown, order: tuple, state) -> np.ndarray:
    """path_integral as a fresh grid in the unknown's memory order."""
    spacing = chart.spacing()
    part = _boundary_array(u, chart)
    comps = part.shape[chart.n:]
    dirs = [k for k in order if k != u.free_axis]
    if not dirs:  # a fresh grid, which a sweep may overwrite
        return _held(chart, part, None)
    for i, k in enumerate(dirs):
        idx = [slice(None)] * chart.n
        for later in dirs[i + 1:]:
            idx[later] = slice(0, 1)
        idx = tuple(idx)
        slab = tuple(1 if s.stop == 1 else m for s, m in zip(idx, chart.shape))
        field = np.broadcast_to(u.rhs[k](state, idx), slab + comps)
        step = cumint(field, k, spacing[k])
        step += part  # in place: this leg's slab spans the part so far
        part = step
    return part


def _guard(scale: float) -> None:
    # A NaN or inf makes scale non-finite, which this comparison rejects.
    if not scale <= BLOWUP:
        raise MarchError("solution exceeded the blow-up guard or is not finite")


def solve_compatible(chart: Chart, unknowns: list[Unknown],
                     order: tuple | None = None) -> dict[str, np.ndarray]:
    """Solve the system to its fixed point; returns name -> full grid
    (C-contiguous).

    ``order`` is the axis permutation defining the staircase legs (defaults to
    0..n-1).  Deterministic: fixed sweep order, fixed quadrature.
    """
    order = _order(chart, order)
    state = {}
    for u in unknowns:  # held as the module docstring says
        part = _boundary_array(u, chart)
        dirs = [k for k in order if k != u.free_axis]
        lead = dirs[-1] if part.ndim > chart.n and dirs else None
        state[u.name] = _held(chart, part, lead)
    for _ in range(MAX_SWEEPS):
        delta = 0.0
        for u in unknowns:
            new = _pass(chart, u, order, state)
            # the old grid, dead once replaced, takes new - old
            delta = max_abs(delta, np.subtract(new, state[u.name],
                                               out=state[u.name]))
            state[u.name] = new
        scale = 1.0 + max_abs(*state.values())
        _guard(scale)  # a NaN or inf in delta also shows in scale
        if delta <= TOL * scale:
            return {name: np.ascontiguousarray(v) for name, v in state.items()}
    raise MarchError(f"no fixed point after {MAX_SWEEPS} sweeps (last delta {delta:.3e})")


def solve_frame(chart: Chart, mats, k: int) -> np.ndarray:
    """Solve d_d X = A_d X from X = identity at the corner.

    mats[d] is the k×k matrix A_d in the entry form of pencil_lab.entries,
    a dict from (a, c) to grid without its structural zeros; returns X with
    shape grid + (k, k).  Each row of X is one unknown with k components,
    and the rhs of row a along axis d is the dot of row a of A_d with the
    rows c of X, in c order (zero when the row of A_d is empty).  Entry
    (a, b) of the sweep reads only column b, so the Gauss-Seidel order is
    that of one scalar unknown per entry taken row by row.
    """
    last = chart.n - 1  # every row's last leg, the one over the whole grid
    held = {key: _held(chart, A, last) for key, A in mats[last].items()}

    def row(a, d):
        entries = held if d == last else mats[d]
        terms = [(f"F{c}", entries[a, c]) for c in range(k)
                 if (a, c) in entries]

        def f(state, idx):
            acc = dot((A[idx][..., None], state[name][idx])
                      for name, A in terms)
            return 0.0 if acc is None else acc
        return f

    unknowns = [Unknown(f"F{a}", {d: row(a, d) for d in range(len(mats))},
                        boundary=np.eye(k)[a]) for a in range(k)]
    sol = solve_compatible(chart, unknowns)
    return np.stack([sol[f"F{a}"] for a in range(k)], axis=-2)


def position_vector(chart: Chart, coeffs, frame: np.ndarray) -> np.ndarray:
    """Integrate d_d r = coeffs[d] * (row d of frame) from r = 0 at the corner.

    The rhs does not depend on r, so one pass is exact; the result has shape
    grid + (frame.shape[-1],).  Raises MarchError above BLOWUP.
    """
    def leg(d):
        return lambda state, idx: coeffs[d][idx][..., None] * frame[idx][..., d, :]

    r = path_integral(chart, Unknown("r", {d: leg(d) for d in range(chart.n)},
                                     boundary=np.zeros(frame.shape[-1])))
    _guard(1.0 + max_abs(r))
    return r
