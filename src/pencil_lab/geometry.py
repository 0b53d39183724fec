"""Curvature and Nijenhuis kernels on symbolic tensor fields.

Tensor fields are numpy object arrays of Expr.  Index convention: Christoffel
symbols Γ[i, j, k] = Γ^i_{jk}; the Riemann tensor is built with the sign

    R^i_{jkl} = ∂_k Γ^i_{lj} − ∂_l Γ^i_{kj} + Γ^i_{ks} Γ^s_{lj} − Γ^i_{ls} Γ^s_{kj},

fixed here once and for all (flatness verdicts do not depend on it).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .entries import dense, entries
from .expr import Expr, ZERO, ONE, Const, const, diff, div
from .grids import Chart, eval_grid, max_abs

__all__ = [
    "MetricField", "ConnectionField", "GeometryError",
    "expr_array", "eval_array", "grid_max",
    "christoffel", "riemann_expr", "riemann_max",
    "covariant_derivative", "raise_index", "nijenhuis",
]


class GeometryError(ValueError):
    """Singular metric or unsupported tensor operation."""


def expr_array(shape) -> np.ndarray:
    return np.full(shape, ZERO, dtype=object)


def eval_array(A: np.ndarray, chart: Chart) -> np.ndarray:
    """Evaluate an Expr array entrywise; result shape = A.shape + chart.shape.
    Its ZERO entries are not evaluated."""
    return dense(entries(A, chart), A.shape + chart.shape)


def grid_max(A: np.ndarray, chart: Chart) -> float:
    """Max over grid points and entries of |A| (0.0 when every entry is ZERO).

    Entries are evaluated one at a time and the ZERO ones not at all; a max
    does not depend on order and max_abs keeps a NaN, so the value is that
    of max_abs(eval_array(A, chart)).
    """
    best = 0.0
    for e in A.flat:
        if e != ZERO:
            best = max_abs(best, eval_grid(e, chart))
    return best


def _det_expr(g: np.ndarray) -> Expr:
    n = g.shape[0]
    det = ZERO
    for perm in permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        term = const(float(sign))
        for i in range(n):
            term = term * g[i, perm[i]]
        det = det + term
    return det


def _inverse_expr(g: np.ndarray) -> np.ndarray:
    """Symbolic inverse: diagonal shortcut for any n, adjugate for n <= 3."""
    n = g.shape[0]
    if all(g[i, j] == ZERO for i in range(n) for j in range(n) if i != j):
        inv = expr_array((n, n))
        for i in range(n):
            inv[i, i] = div(ONE, g[i, i])
        return inv
    if n > 3:
        raise GeometryError("symbolic inverse of a dense metric needs n <= 3")
    det = _det_expr(g)
    inv = expr_array((n, n))
    if n == 1:
        inv[0, 0] = div(ONE, g[0, 0])
        return inv
    for i in range(n):
        for j in range(n):
            rows = [r for r in range(n) if r != j]
            cols = [c for c in range(n) if c != i]
            minor = g[np.ix_(rows, cols)]
            cof = _det_expr(minor) if n == 3 else minor[0, 0]
            sign = const(1.0 if (i + j) % 2 == 0 else -1.0)
            inv[i, j] = div(sign * cof, det)
    return inv


@dataclass(frozen=True)
class MetricField:
    """Contravariant metric g^{ij} with its symbolic inverse g_{ij}."""

    n: int
    gU: np.ndarray
    gL: np.ndarray

    @classmethod
    def from_contravariant(cls, rows) -> "MetricField":
        gU = np.array(rows, dtype=object)
        n = gU.shape[0]
        if gU.shape != (n, n):
            raise GeometryError("metric must be square")
        return cls(n, gU, _inverse_expr(gU))

    @classmethod
    def euclidean(cls, n: int) -> "MetricField":
        gU = expr_array((n, n))
        for i in range(n):
            gU[i, i] = ONE
        return cls(n, gU, gU.copy())

    @classmethod
    def diagonal_contravariant(cls, entries) -> "MetricField":
        n = len(entries)
        gU = expr_array((n, n))
        gL = expr_array((n, n))
        for i, e in enumerate(entries):
            gU[i, i] = e
            gL[i, i] = div(ONE, e)
        return cls(n, gU, gL)



@dataclass(frozen=True)
class ConnectionField:
    """Christoffel symbols Γ^i_{jk}, symmetric in (j, k)."""

    n: int
    gamma: np.ndarray


def christoffel(g: MetricField) -> ConnectionField:
    """Levi-Civita symbols Γ^i_{jk} = ½ g^{is}(∂_j g_{sk} + ∂_k g_{sj} − ∂_s g_{jk})."""
    n = g.n
    dL = expr_array((n, n, n))  # dL[k, i, j] = ∂_k g_{ij}
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dL[k, i, j] = diff(g.gL[i, j], k + 1)
    gamma = expr_array((n, n, n))
    half = Const(0.5)
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                s_total = ZERO
                for s in range(n):
                    s_total = s_total + g.gU[i, s] * (
                        dL[j, s, k] + dL[k, s, j] - dL[s, j, k])
                val = half * s_total
                gamma[i, j, k] = val
                gamma[i, k, j] = val
    return ConnectionField(n, gamma)


def riemann_expr(g: MetricField, conn: ConnectionField | None = None) -> np.ndarray:
    """R^i_{jkl} as an Expr array, with the module's sign convention."""
    n = g.n
    gamma = (conn or christoffel(g)).gamma
    R = expr_array((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(k + 1, n):
                    term = diff(gamma[i, l, j], k + 1) - diff(gamma[i, k, j], l + 1)
                    for s in range(n):
                        term = term + gamma[i, k, s] * gamma[s, l, j] \
                                    - gamma[i, l, s] * gamma[s, k, j]
                    R[i, j, k, l] = term
                    R[i, j, l, k] = -term
    return R


def riemann_max(g: MetricField, chart: Chart) -> float:
    """Max over grid and indices of |R^i_{jkl}|."""
    return grid_max(riemann_expr(g), chart)


def covariant_derivative(T: np.ndarray, valence: str, g: MetricField,
                         conn: ConnectionField | None = None) -> np.ndarray:
    """∇T with a new leading lower index: out[k, ...] = ∇_k T[...].

    ``valence`` is a string of 'u'/'d' per index of T, e.g. 'ud' for r^i_j.
    Any valence is accepted; the equations of interest use 'ud', 'uu', 'dd'
    and one extra lower index from repeated application.
    """
    T = np.asarray(T, dtype=object)
    if len(valence) != T.ndim:
        raise GeometryError("valence string must match tensor rank")
    n = g.n
    gamma = (conn or christoffel(g)).gamma
    out = expr_array((n,) + T.shape)
    for k in range(n):
        for idx in np.ndindex(T.shape):
            term = diff(T[idx], k + 1)
            for pos, kind in enumerate(valence):
                for s in range(n):
                    swapped = list(idx)
                    swapped[pos] = s
                    if kind == "u":
                        term = term + gamma[idx[pos], k, s] * T[tuple(swapped)]
                    else:
                        term = term - gamma[s, k, idx[pos]] * T[tuple(swapped)]
            out[(k,) + idx] = term
    return out


def raise_index(T: np.ndarray, axis: int, g: MetricField) -> np.ndarray:
    """Contract gU with the lower index at ``axis``: out = g^{is} T[..s..]."""
    T = np.asarray(T, dtype=object)
    n = g.n
    out = expr_array(T.shape)
    for idx in np.ndindex(T.shape):
        total = ZERO
        for s in range(n):
            src = list(idx)
            src[axis] = s
            total = total + g.gU[idx[axis], s] * T[tuple(src)]
        out[idx] = total
    return out


def nijenhuis(r: np.ndarray, conn: ConnectionField | None = None) -> np.ndarray:
    """N^i_{jk} of a (1,1)-field; with ``conn``, ∂ is replaced by ∇ (same tensor)."""
    r = np.asarray(r, dtype=object)
    n = r.shape[0]

    if conn is None:
        def d(e, k):
            return diff(e, k + 1)
        dr = expr_array((n, n, n))  # dr[k, i, j] = ∂_k r^i_j
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    dr[k, i, j] = d(r[i, j], k)
    else:
        gamma = conn.gamma
        dr = expr_array((n, n, n))
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    term = diff(r[i, j], k + 1)
                    for s in range(n):
                        term = term + gamma[i, k, s] * r[s, j] \
                                    - gamma[s, k, j] * r[i, s]
                    dr[k, i, j] = term

    N = expr_array((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                term = ZERO
                for s in range(n):
                    term = term + r[s, j] * dr[s, i, k] - r[s, k] * dr[s, i, j] \
                                - r[i, s] * (dr[j, s, k] - dr[k, s, j])
                N[i, j, k] = term
                N[i, k, j] = -term
    return N
