"""Hamiltonian operators of hydrodynamic type and their compatibility.

An operator is the pair (g^{ij}, b^{ij}_k); it is Hamiltonian iff the two
identities J1/J2 hold (equivalently: g flat and b the Levi-Civita
coefficients).  Two operators are compatible iff every linear combination is
again Hamiltonian, which the pencil operator r^i_j = g̃^{is} g_{sj} reduces to
a vanishing Nijenhuis tensor plus a second-covariant-derivative identity.
J1/J2 are bilinear in the fields (g, ∂g, b, ∂b), so J(ỹ + λx) is the
quadratic J(ỹ) + λC + λ²J(x) in the shift; its middle coefficient C holds the
compatibility conditions C1/C2, and check_pencil sweeps λ through it without
rebuilding any expression.  Each field and each J is in the entry form of
pencil_lab.entries: a dict from entry index to grid holding only the entries
not symbolically zero (in diagonal coordinates most are), summed by its dot
and lin in the dense einsum's order, so every |value| is the dense one.  So
are check_theorem1's ∇∇r and second-covariant sum and verify_appendix's
I1/I2; the Nijenhuis and Riemann tensors go through geometry.grid_max, which
skips ZERO entries.  A check-compat run evaluates no ZERO entry (42
eval_grid calls on the benchmark's pencil-check config), and it makes no
batched LAPACK call: the degeneracy test expands det(g̃ + λg) over the
present entries, and a triangular r gives its eigenvalues as its diagonal.
J2^{ij}_{kn} is antisymmetric in (i, j) and is grouped so that the
antisymmetry is exact in floating point, so every J2 here holds the pairs
i < j only: the pairs hold its max-abs residual, and the diagonal and i > j
add nothing.  Every check returns a ComplianceReport of named max-abs grid
residuals, judged by verdict on a scale-aware band (a non-finite residual
fails) and folded by overall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .entries import dense, dot, entries, lin, with_zeros
from .expr import ZERO, Const, diff
from .geometry import (
    MetricField, ConnectionField, christoffel, covariant_derivative,
    expr_array, grid_max, nijenhuis, raise_index, riemann_max,
)
from .grids import Chart, max_abs

__all__ = [
    "HamiltonianOperator", "PencilOperator", "ComplianceReport", "verdict",
    "overall", "levi_civita_operator", "check_hamiltonian", "pencil_operator",
    "btilde_from_r", "check_theorem1", "check_pencil", "verify_appendix",
    "DEFAULT_LAMBDAS",
]

PASS_FACTOR = 1e-8
FAIL_FACTOR = 1e-4
DEFAULT_LAMBDAS = (0.0, 0.75, 1.5, 2.25, 3.0)


def verdict(value: float, pass_at: float, fail_at: float) -> str:
    """Fail if NaN or +inf, even on an infinite band; else pass at or below
    pass_at, fail at or above fail_at, inconclusive between.  So the band
    (−t, −t) on −value passes exactly the values >= t, +inf included."""
    if np.isnan(value) or value == np.inf:
        return "fail"
    if value <= pass_at:
        return "pass"
    if value >= fail_at:
        return "fail"
    return "inconclusive"


def overall(verdicts) -> str:
    """The worst of ``verdicts``: fail beats inconclusive beats pass."""
    return max(verdicts, key=("pass", "inconclusive", "fail").index,
               default="pass")


@dataclass
class ComplianceReport:
    """Named max-abs residuals on the band (PASS_FACTOR, FAIL_FACTOR)·scale."""

    residuals: dict = field(default_factory=dict)
    scale: float = 1.0
    lambdas_used: list = field(default_factory=list)
    lambdas_skipped: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def band(self) -> tuple:
        return PASS_FACTOR * self.scale, FAIL_FACTOR * self.scale

    def verdict_for(self, key: str) -> str:
        return verdict(self.residuals[key], *self.band)

    @property
    def verdict(self) -> str:
        return overall(self.verdict_for(k) for k in self.residuals)


@dataclass(frozen=True)
class HamiltonianOperator:
    """Pair (g^{ij}, b^{ij}_k); b indexed b[i, j, k]."""

    g: MetricField
    b: np.ndarray


@dataclass(frozen=True)
class PencilOperator:
    """r^i_j = g̃^{is} g_{sj}; the first metric raises and lowers indices."""

    g: MetricField
    gt: MetricField
    r: np.ndarray


def levi_civita_operator(g: MetricField,
                         conn: ConnectionField | None = None) -> HamiltonianOperator:
    """b^{ij}_k = −g^{is} Γ^j_{sk} with the Levi-Civita symbols of g."""
    n = g.n
    gamma = (conn or christoffel(g)).gamma
    b = expr_array((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = ZERO
                for s in range(n):
                    total = total + g.gU[i, s] * gamma[j, s, k]
                b[i, j, k] = -total
    return HamiltonianOperator(g, b)


def _d(T: np.ndarray) -> np.ndarray:
    """Exact ∂_s T as an Expr array with axes (s, *T.shape)."""
    n = T.shape[0]
    out = expr_array((n,) + T.shape)
    for s in range(n):
        for idx in np.ndindex(T.shape):
            out[(s,) + idx] = diff(T[idx], s + 1)
    return out


def _fields(gU: np.ndarray, b: np.ndarray, chart: Chart) -> list:
    """The fields [g, ∂g, b, ∂b] of an operator, the input of _j.

    A diagonal metric keeps n of its n² entries, and a constant one has no
    ∂g, b or ∂b at all.  An entry of ∂b that no present product reads is
    still evaluated, because the non-finite rule of _j reads it: an overflow
    there must fail as the dense sum's 0·inf = NaN does.
    """
    return [entries(T, chart) for T in (gU, _d(gU), b, _d(b))]


def _j(fields, n: int) -> tuple:
    """J1 (keys k, i, j) and J2 (keys i, j, k, l) of the fields (g, ∂g, b, ∂b).

    Both are fields of the entries that some present product reaches, and
    each sum over s is the dense einsum's (pencil_lab.entries); fields that
    are not finite are contracted with their zero entries.  J2^{ij}_{kl} is
    antisymmetric in (i, j), so it is computed on the pairs i < j only.
    Each pair is grouped as ((A − B) + S) + (D − E), with
    A = g^{js}∂_s b^{ik}_l, B = g^{is}∂_s b^{jk}_l,
    S = (b^{ij}_s − b^{ji}_s) b^{sk}_l, D = b^{ik}_s b^{js}_l and
    E = b^{jk}_s b^{is}_l.  Swapping i and j negates every bracket exactly in
    IEEE arithmetic, so J2[j, i] = −J2[i, j] bit for bit and the diagonal is
    zero (for finite diagonal terms): the max-abs over the pairs is the
    max-abs over all (i, j).  Both are bilinear in the fields, so
    J(x + y) − J(x) − J(y) is the polarization that check_pencil uses for
    C1/C2 and the λ-sweep, and negation commutes with it.
    """
    fields = with_zeros(fields, n, (2, 3, 3, 4))
    g, dg, b, db = (f.get for f in fields)
    r = range(n)
    j1 = {}
    # J1: 2 b^{ki}_s g^{sj} − g^{js}∂_s g^{ik} − g^{ks}∂_s g^{ij} + g^{is}∂_s g^{kj}
    for k, i, j in product(r, r, r):
        bg = dot((b((k, i, s)), g((s, j))) for s in r)
        t = lin((2.0, bg),
                (-1, dot((g((j, s)), dg((s, i, k))) for s in r)),
                (-1, dot((g((k, s)), dg((s, i, j))) for s in r)),
                (1, dot((g((i, s)), dg((s, k, j))) for s in r)))
        if t is not None:
            j1[k, i, j] = t
    j2 = {}
    for i, j in combinations(r, 2):
        skew = [lin((1, b((i, j, s))), (-1, b((j, i, s)))) for s in r]
        for k, l in product(r, r):
            t = lin(
                (1, lin((1, dot((g((j, s)), db((s, i, k, l))) for s in r)),
                        (-1, dot((g((i, s)), db((s, j, k, l))) for s in r)),
                        (1, dot((skew[s], b((s, k, l))) for s in r)))),
                (1, lin((1, dot((b((i, k, s)), b((j, s, l))) for s in r)),
                        (-1, dot((b((j, k, s)), b((i, s, l))) for s in r)))))
            if t is not None:
                j2[i, j, k, l] = t
    return j1, j2


def hamiltonian_residuals(gU: np.ndarray, b: np.ndarray, chart: Chart):
    """Max-abs grid residuals of the two Hamiltonian identities (J1, J2).

    J2 comes from _j on the pairs i < j, which by its exact antisymmetry
    gives the max over all (i, j); for n = 1 there is no pair and the J2
    residual is 0.0.
    """
    fields = _fields(gU, b, chart)
    j1, j2 = _j(fields, len(gU))
    return (max_abs(*j1.values()), max_abs(*j2.values()),
            1.0 + max_abs(*fields[0].values(), *fields[2].values()))


def check_hamiltonian(A: HamiltonianOperator, chart: Chart) -> ComplianceReport:
    """Residuals of the two conditions for (g, b) to define a Poisson bracket."""
    r1, r2, scale = hamiltonian_residuals(A.g.gU, A.b, chart)
    return ComplianceReport({"J1": r1, "J2": r2}, scale)


def pencil_operator(g: MetricField, gt: MetricField) -> PencilOperator:
    """Assemble r^i_j = g̃^{is} g_{sj}."""
    n = g.n
    r = expr_array((n, n))
    for i in range(n):
        for j in range(n):
            total = ZERO
            for s in range(n):
                total = total + gt.gU[i, s] * g.gL[s, j]
            r[i, j] = total
    return PencilOperator(g, gt, r)


def btilde_from_r(p: PencilOperator,
                  conn: ConnectionField | None = None) -> np.ndarray:
    """b̃^{ij}_k from r: 2b̃ = ∇^i r^j_k − ∇^j r^i_k + ∇_k r^{ij} + 2 b^{sj}_k r^i_s."""
    g = p.g
    n = g.n
    conn = conn or christoffel(g)
    b = levi_civita_operator(g, conn).b
    D = covariant_derivative(p.r, "ud", g, conn)           # D[k,i,j] = ∇_k r^i_j
    Dup = raise_index(D, 0, g)                             # Dup[i,j,k] = ∇^i r^j_k
    rUU = raise_index(p.r, 1, g)                           # r^{ij}
    DUU = covariant_derivative(rUU, "uu", g, conn)         # DUU[k,i,j] = ∇_k r^{ij}
    half = Const(0.5)
    bt = expr_array((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = Dup[i, j, k] - Dup[j, i, k] + DUU[k, i, j]
                for s in range(n):
                    total = total + Const(2.0) * b[s, j, k] * p.r[i, s]
                bt[i, j, k] = half * total
    return bt


def eigenvalue_gap(r: dict, chart: Chart) -> float:
    """Smallest pairwise eigenvalue gap of the field r over the grid;
    check_theorem1 calls the spectrum simple where it exceeds 1e-6.

    When the present entries of r form a triangle (a diagonal r included),
    its eigenvalues are its diagonal grids.  LAPACK returns exactly those
    for a triangular matrix whose largest entry lies in its unscaled range
    (about 1e-138 to 1e138), and the min over the pairs does not depend on
    their order, so there the gap is LAPACK's bit for bit.  Any other r goes
    through ``eigvals`` point by point.  An r that is not finite somewhere
    has gap NaN (``eigvals`` would raise LinAlgError), which is not simple.
    """
    n = chart.n
    if not all(np.isfinite(v).all() for v in r.values()):
        return math.nan
    if all(i <= j for i, j in r) or all(i >= j for i, j in r):
        zero = np.zeros(chart.shape)
        vals = [r.get((a, a), zero).ravel() for a in range(n)]
    else:
        pts = dense(r, (n, n) + chart.shape).reshape(n, n, -1)
        vals = np.linalg.eigvals(np.moveaxis(pts, 2, 0)).T   # (n, npts)
    gap = np.inf
    for a, c in combinations(range(n), 2):
        gap = min(gap, float(np.min(np.abs(vals[a] - vals[c]))))
    return gap


def _laplace(f: dict, n: int):
    """det of the n×n field f (keys i, j), expanded over its present entries;
    None when no product of n entries is present.

    The minor of rows i..n−1 on the column set c (a bitmask) is
    Σ_{j∈c} ±f_ij·minor(i+1, c − j) over the present f_ij and minors, in
    order of j; rows are taken from the bottom, so a field costs at most
    n·2ⁿ⁻¹ grid products and a diagonal one n − 1.
    """
    minors = {0: None}               # rows i+1..n−1 by column set, i = n−1 first
    for i in reversed(range(n)):
        row = [j for j in range(n) if (i, j) in f]
        sets = sorted({c | 1 << j for c in minors for j in row
                       if not c >> j & 1})
        minors = {c: lin(*(
            (-1 if bin(c & ((1 << j) - 1)).count("1") & 1 else 1,
             f[i, j] if i == n - 1 else f[i, j] * minors[c ^ 1 << j])
            for j in row if c >> j & 1 and c ^ 1 << j in minors))
            for c in sets}
    return minors.get((1 << n) - 1)


def _det(f: dict, n: int):
    """det of the field f by _laplace; None for a structurally singular one,
    where LAPACK finds a zero pivot whatever the values.  A dense 0·inf is
    NaN, so a field that is not finite is expanded with its zero entries
    too, and its det is not finite either."""
    det = _laplace(f, n)
    full, = with_zeros((f,), n, (2,))
    return det if det is None or full is f else _laplace(full, n)


def _second_covariant(g: dict, d2: dict, n: int) -> dict:
    """T^{ijkl} + T^{klij} − T^{ikjl} − T^{jlik} (keys i, j, k, l) with
    T^{ijkl} = g^{is} g^{jt} ∇_s∇_t r^{kl}, of the fields g and d2 = ∇∇r
    (keys s, t, k, l), on the entries that some present product reaches.

    T sums (g^{is} g^{jt})·d2 over s, then t, in einsum's order and
    grouping.  A dense (g·g)·0 is NaN where g·g overflows, so then the zero
    entries are contracted too.
    """
    m = max_abs(*g.values())
    g, d2 = with_zeros((g, d2), n, (2, 4), math.isfinite(m * m))
    r = range(n)
    st = list(product(r, r))
    t = {}
    for i, j in st:
        gg = [g[i, s] * g[j, u] if (i, s) in g and (j, u) in g else None
              for s, u in st]
        for k, l in st:
            v = dot(zip(gg, (d2.get((s, u, k, l)) for s, u in st)))
            if v is not None:
                t[i, j, k, l] = v
    out = {}
    for i, j, k, l in product(r, r, r, r):
        v = lin((1, t.get((i, j, k, l))), (1, t.get((k, l, i, j))),
                (-1, t.get((i, k, j, l))), (-1, t.get((j, l, i, k))))
        if v is not None:
            out[i, j, k, l] = v
    return out


def check_theorem1(p: PencilOperator, chart: Chart) -> ComplianceReport:
    """Nijenhuis vanishing plus the symmetric second-covariant condition."""
    g = p.g
    conn = christoffel(g)
    D1 = covariant_derivative(raise_index(p.r, 1, g), "uu", g, conn)
    D2 = covariant_derivative(D1, "duu", g, conn)   # (s, t, k, l): ∇_s∇_t r^{kl}
    gn, rn = entries(g.gU, chart), entries(p.r, chart)
    res2 = _second_covariant(gn, entries(D2, chart), g.n)
    scale = 1.0 + max_abs(*rn.values(), *gn.values(),
                          grid_max(p.gt.gU, chart))
    rep = ComplianceReport({"nijenhuis": grid_max(nijenhuis(p.r), chart),
                            "second_covariant": max_abs(*res2.values()),
                            "flat_g": riemann_max(g, chart),
                            "flat_g_tilde": riemann_max(p.gt, chart)}, scale)
    gap = eigenvalue_gap(rn, chart)
    rep.notes.append(f"eigenvalue_gap={gap:.3e}")
    rep.notes.append("simple_spectrum" if gap > 1e-6 else "non_simple_spectrum")
    return rep


def check_pencil(A: HamiltonianOperator, At: HamiltonianOperator, chart: Chart,
                 lambdas=DEFAULT_LAMBDAS) -> ComplianceReport:
    """Compatibility conditions (C1, C2) plus a λ-sweep of J(Ã + λA).

    With x the fields of A and y those of Ã, J(y + λx) is the quadratic
    J(y) + λC + λ²J(x), where C = J(x + y) − J(x) − J(y) holds the bilinear
    conditions C1/C2.  The fields are evaluated once and every shift is
    formed, entry by entry, from the three Js; an entry absent from all
    three is zero.  A λ where g̃ + λg degenerates somewhere on the box is
    skipped: min over the box of |det(g̃ + λg)| < 1e-8, the determinant
    expanded over the present entries of the field (_det), or no product of
    n present entries at all.  A NaN or inf det keeps the λ.  The J2 parts
    hold the pairs i < j only: C and every shift keep J2's exact
    antisymmetry, so their max-abs is the max over all (i, j).
    """
    x = _fields(A.g.gU, A.b, chart)
    y = _fields(At.g.gU, At.b, chart)
    scale = 1.0 + max_abs(*x[0].values(), *y[0].values(), *x[2].values(),
                          *y[2].values())
    n = A.g.n
    used, skipped = [], []
    for lam in lambdas:
        det = _det({k: lin((1, y[0].get(k)), (lam, x[0].get(k)))
                    for k in {*x[0], *y[0]}}, n)
        degenerate = det is None or float(np.min(np.abs(det))) < 1e-8
        (skipped if degenerate else used).append(lam)

    jx = _j(x, n)
    jy = _j(y, n)
    xy = [{k: lin((1, fy.get(k)), (1, fx.get(k))) for k in {*fx, *fy}}
          for fx, fy in zip(x, y)]
    cross = [{k: lin((1, c.get(k)), (-1, a.get(k)), (-1, b.get(k)))
              for k in {*c, *a, *b}} for c, a, b in zip(_j(xy, n), jx, jy)]
    rep = ComplianceReport({"C1": max_abs(*cross[0].values()),
                            "C2": max_abs(*cross[1].values())},
                           scale, lambdas_used=used, lambdas_skipped=skipped)
    sweep = []
    for lam in used:                # J(y) + λ(C + λJ(x)), entry by entry
        sweep.append(max_abs(*(
            lin((lam, lin((lam, a.get(k)), (1, c.get(k)))), (1, b.get(k)))
            for a, c, b in zip(jx, cross, jy) for k in {*a, *c, *b})))
    if used:
        rep.residuals["lambda_sweep"] = max_abs(sweep)
    else:
        rep.notes.append("lambda sweep empty: every requested value degenerates")
    return rep


def _identities(bt: dict, rUU: dict, drUU: dict, n: int) -> tuple:
    """I1 = b̃^{ij}_k + b̃^{ji}_k − ∂_k r^{ij} and
    I2 = b̃^{ik}_s r^{sj} − b̃^{jk}_s r^{si} (keys i, j, k) of the fields b̃,
    r^{ij} and drUU = ∂r^{ij} (keys k, i, j), on the entries that some
    present term reaches; each sum runs as the dense einsum's does.
    """
    bt, rUU = with_zeros((bt, rUU), n, (3, 2))
    r = range(n)
    i1, i2 = {}, {}
    for i, j, k in product(r, r, r):
        v1 = lin((1, bt.get((i, j, k))), (1, bt.get((j, i, k))),
                 (-1, drUU.get((k, i, j))))
        v2 = lin((1, dot((bt.get((i, k, s)), rUU.get((s, j))) for s in r)),
                 (-1, dot((bt.get((j, k, s)), rUU.get((s, i))) for s in r)))
        for out, v in ((i1, v1), (i2, v2)):
            if v is not None:
                out[i, j, k] = v
    return i1, i2


def verify_appendix(p: PencilOperator, chart: Chart,
                    bt: np.ndarray | None = None) -> ComplianceReport:
    """Symmetry identities I1, I2 for the coefficients derived from r."""
    g = p.g
    if bt is None:
        bt = btilde_from_r(p)
    rUU = raise_index(p.r, 1, g)
    btn, rUUn = entries(bt, chart), entries(rUU, chart)
    i1, i2 = _identities(btn, rUUn, entries(_d(rUU), chart), g.n)
    scale = 1.0 + max_abs(*rUUn.values(), *btn.values())
    return ComplianceReport({"I1": max_abs(*i1.values()),
                             "I2": max_abs(*i2.values())}, scale)
