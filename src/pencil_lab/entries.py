"""Fields held by their nonzero entries.

A field is a dict from index tuple to grid; an absent key is a structural
zero.  compat's tensor fields and the Lax connection matrices are held this
way, so that in diagonal coordinates most products are never formed.  Every
sum runs over the terms present, in the order of the dense einsum's summed
index: it is the dense sum less exact zeros, so every |value| is the dense
one.  A dense 0·inf is NaN; with_zeros puts the zero entries back where that
matters.
"""

from __future__ import annotations

import numpy as np

from . import grids
from .expr import ZERO

__all__ = ["entries", "dense", "with_zeros", "dot", "lin", "matmul"]


def entries(T: np.ndarray, chart: grids.Chart) -> dict:
    """The field of the Expr array T: its entries that are not ZERO.  It
    calls grids.eval_grid through its module, so a wrapper set there (as the
    benchmark's tracer sets one) sees these calls."""
    return {idx: grids.eval_grid(T[idx], chart)
            for idx in np.ndindex(T.shape) if T[idx] != ZERO}


def dense(f: dict, shape) -> np.ndarray:
    """The array of a field, index axes first; its absent entries are zero."""
    out = np.zeros(shape, np.result_type(float,
                                         *{v.dtype for v in f.values()}))
    for idx, grid in f.items():
        out[idx] = grid
    return out


def with_zeros(fields, n: int, ranks, finite: bool = True) -> list:
    """The fields (of index shapes (n,) * rank) as they are if ``finite`` and
    every grid is finite, else with their zero entries too: a dense sum has
    0·inf = NaN, and contracting the zeros keeps it."""
    if finite and all(np.isfinite(v).all()
                      for f in fields for v in f.values()):
        return fields
    zero = np.zeros_like(next(v for f in fields for v in f.values()))
    return [{idx: f.get(idx, zero) for idx in np.ndindex((n,) * rank)}
            for f, rank in zip(fields, ranks)]


def dot(pairs):
    """Σ_s x_s·y_s over the pairs whose two grids are present, in order of s;
    None when no product is present."""
    total = None
    for x, y in pairs:
        if x is not None and y is not None:
            if total is None:
                total = x * y
            else:
                total += x * y
    return total


def lin(*terms):
    """Σ c·t left to right over the (c, t) whose grid t is present; None when
    none is.  c = ±1 adds or subtracts t, any other c adds t·c."""
    out = None
    for c, t in terms:
        if t is None:
            continue
        if c not in (1, -1):
            t, c = t * c, 1
        if out is None:
            out = t if c > 0 else -t
        else:
            out = out + t if c > 0 else out - t
    return out


def matmul(X: dict, Y: dict) -> dict:
    """The matrix product XY (keys row, column): entry (i, j) is the dot of
    row i of X and column j of Y, over the inner index c in order."""
    inner = sorted({c for _, c in X} & {c for c, _ in Y})
    out = {}
    for i in sorted({i for i, _ in X}):
        for j in sorted({j for _, j in Y}):
            v = dot((X.get((i, c)), Y.get((c, j))) for c in inner)
            if v is not None:
                out[i, j] = v
    return out
