"""Hamiltonian operators of hydrodynamic type and their compatibility.

An operator is the pair (g^{ij}, b^{ij}_k); it is Hamiltonian iff the two
identities J1/J2 hold (equivalently: g flat and b the Levi-Civita
coefficients).  Two operators are compatible iff every linear combination is
again Hamiltonian, which the pencil operator r^i_j = g̃^{is} g_{sj} reduces to
a vanishing Nijenhuis tensor plus a second-covariant-derivative identity.
J1/J2 are bilinear in the fields (g, ∂g, b, ∂b), so J(ỹ + λx) is the
quadratic J(ỹ) + λC + λ²J(x) in the shift; its middle coefficient C holds the
compatibility conditions C1/C2, and check_pencil sweeps λ through it without
rebuilding any expression.  J2^{ij}_{kn} is antisymmetric in (i, j) and is
grouped so that the antisymmetry is exact in floating point, so every J2
array here has axes (pair, k, n) over the pairs i < j only: the pairs hold
its max-abs residual, and the diagonal and i > j add nothing.  Every check
returns a ComplianceReport of named max-abs grid residuals, judged by verdict
on a scale-aware band (a non-finite residual fails) and folded by overall.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import ZERO, Const, diff
from .geometry import (
    MetricField, ConnectionField, christoffel, covariant_derivative,
    eval_array, expr_array, grid_max, nijenhuis, raise_index, riemann_max,
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


def _dg_eval(T: np.ndarray, chart: Chart) -> np.ndarray:
    """Exact ∂_s T evaluated on the grid; axes (s, *T.shape, *grid)."""
    n = T.shape[0]
    out = expr_array((n,) + T.shape)
    for s in range(n):
        for idx in np.ndindex(T.shape):
            out[(s,) + idx] = diff(T[idx], s + 1)
    return eval_array(out, chart)


def _fields(gU: np.ndarray, b: np.ndarray, chart: Chart) -> list:
    """Grid values [g, ∂g, b, ∂b] of an operator, the input of _j_arrays."""
    return [eval_array(gU, chart), _dg_eval(gU, chart),
            eval_array(b, chart), _dg_eval(b, chart)]


def _j_arrays(fields) -> tuple:
    """J1 (axes k, i, j) and J2 (axes p, k, n) of the fields (g, ∂g, b, ∂b).

    J2^{ij}_{kn} is antisymmetric in (i, j), so J2 is computed on the pairs
    i < j only, pair p being the p-th entry of ``np.triu_indices(n, 1)``.
    Each pair is grouped as ((A − B) + S) + (D − E), with
    A = g^{js}∂_s b^{ik}_n, B = g^{is}∂_s b^{jk}_n,
    S = (b^{ij}_s − b^{ji}_s) b^{sk}_n, D = b^{ik}_s b^{js}_n and
    E = b^{jk}_s b^{is}_n.  Swapping i and j negates every bracket exactly in
    IEEE arithmetic, so the full array would have J2[j, i] = −J2[i, j] bit
    for bit and a zero diagonal (for finite diagonal terms): the max-abs over
    the pairs is the max-abs over all (i, j).  Both arrays are bilinear in
    the fields, so J(x + y) − J(x) − J(y) is the polarization that
    check_pencil uses for C1/C2 and the λ-sweep, and negation commutes with
    it.
    """
    gn, dg, bn, db = fields
    # J1: 2 b^{ki}_s g^{sj} − g^{js}∂_s g^{ik} − g^{ks}∂_s g^{ij} + g^{is}∂_s g^{kj}
    j1 = (2.0 * np.einsum("kis...,sj...->kij...", bn, gn)
          - np.einsum("js...,sik...->kij...", gn, dg)
          - np.einsum("ks...,sij...->kij...", gn, dg)
          + np.einsum("is...,skj...->kij...", gn, dg))
    n = gn.shape[0]
    pairs = np.triu_indices(n, 1)
    j2 = np.empty((len(pairs[0]), n, n) + gn.shape[2:])
    t = np.empty((n, n) + gn.shape[2:])
    u = np.empty_like(t)
    # views and out= buffers: indexing db[:, pairs] would copy it
    for o, i, j in zip(j2, *pairs):
        np.einsum("s...,skn...->kn...", gn[j], db[:, i], out=o)
        o -= np.einsum("s...,skn...->kn...", gn[i], db[:, j], out=t)
        o += np.einsum("s...,skn...->kn...", bn[i, j] - bn[j, i], bn, out=t)
        np.einsum("ks...,sn...->kn...", bn[i], bn[j], out=t)
        t -= np.einsum("ks...,sn...->kn...", bn[j], bn[i], out=u)
        o += t
    return j1, j2


def hamiltonian_residuals(gU: np.ndarray, b: np.ndarray, chart: Chart):
    """Max-abs grid residuals of the two Hamiltonian identities (J1, J2).

    J2 comes from _j_arrays on the pairs i < j (axes pair, k, n), which by
    its exact antisymmetry gives the max over all (i, j); for n = 1 there is
    no pair and the J2 residual is 0.0.
    """
    fields = _fields(gU, b, chart)
    j1, j2 = _j_arrays(fields)
    return max_abs(j1), max_abs(j2), 1.0 + max_abs(fields[0], fields[2])


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


def eigenvalue_gap(r: np.ndarray, chart: Chart) -> float:
    """Smallest pairwise eigenvalue gap of r over the grid (simple-spectrum test)."""
    rn = eval_array(r, chart)                              # (n, n, *grid)
    n = rn.shape[0]
    pts = rn.reshape(n, n, -1)
    vals = np.linalg.eigvals(np.moveaxis(pts, 2, 0))       # (npts, n)
    gap = np.inf
    for a in range(n):
        for c in range(a + 1, n):
            gap = min(gap, float(np.min(np.abs(vals[:, a] - vals[:, c]))))
    return gap


def check_theorem1(p: PencilOperator, chart: Chart) -> ComplianceReport:
    """Nijenhuis vanishing plus the symmetric second-covariant condition."""
    g = p.g
    conn = christoffel(g)
    res1 = grid_max(nijenhuis(p.r), chart)
    rUU = raise_index(p.r, 1, g)
    D1 = covariant_derivative(rUU, "uu", g, conn)          # (s, k, l)
    D2 = covariant_derivative(D1, "duu", g, conn)          # (t, s, k, l) = ∇_t∇_s r^{kl}
    D2n = eval_array(D2, chart)
    gn = eval_array(g.gU, chart)
    T = np.einsum("is...,jt...,stkl...->ijkl...", gn, gn, D2n)
    res2_arr = (T + np.einsum("klij...->ijkl...", T)
                - np.einsum("ikjl...->ijkl...", T)
                - np.einsum("jlik...->ijkl...", T))
    res2 = max_abs(res2_arr)
    scale = 1.0 + max_abs(eval_array(p.r, chart), gn, eval_array(p.gt.gU, chart))
    rep = ComplianceReport({"nijenhuis": res1, "second_covariant": res2}, scale)
    flat_g = riemann_max(g, chart)
    flat_gt = riemann_max(p.gt, chart)
    rep.residuals["flat_g"] = flat_g
    rep.residuals["flat_g_tilde"] = flat_gt
    gap = eigenvalue_gap(p.r, chart)
    rep.notes.append(f"eigenvalue_gap={gap:.3e}")
    rep.notes.append("simple_spectrum" if gap > 1e-6 else "non_simple_spectrum")
    return rep


def check_pencil(A: HamiltonianOperator, At: HamiltonianOperator, chart: Chart,
                 lambdas=DEFAULT_LAMBDAS) -> ComplianceReport:
    """Compatibility conditions (C1, C2) plus a λ-sweep of J(Ã + λA).

    With x the fields of A and y those of Ã, J(y + λx) is the quadratic
    J(y) + λC + λ²J(x), where C = J(x + y) − J(x) − J(y) holds the bilinear
    conditions C1/C2.  The fields are evaluated once and every shift is
    formed from the three J arrays; a λ where g̃ + λg degenerates somewhere
    on the box is skipped.  The J2 parts hold the pairs i < j only: C and
    every shift keep J2's exact antisymmetry, so their max-abs is the
    max over all (i, j).
    """
    x = _fields(A.g.gU, A.b, chart)
    y = _fields(At.g.gU, At.b, chart)
    scale = 1.0 + max_abs(x[0], y[0], x[2], y[2])
    n = A.g.n
    used, skipped = [], []
    for lam in lambdas:
        comb = y[0] + lam * x[0]
        det = np.linalg.det(np.moveaxis(comb.reshape(n, n, -1), 2, 0))
        (skipped if float(np.min(np.abs(det))) < 1e-8 else used).append(lam)

    jx = _j_arrays(x)
    jy = _j_arrays(y)
    for i in range(len(y)):         # y's buffers become x + y
        y[i] += x[i]
    del x                           # free each field set once it is spent
    cross = _j_arrays(y)
    del y
    for c, a, b in zip(cross, jx, jy):
        c -= a
        c -= b
    rep = ComplianceReport({"C1": max_abs(cross[0]), "C2": max_abs(cross[1])},
                           scale, lambdas_used=used, lambdas_skipped=skipped)
    buf = [np.empty_like(a) for a in jx]
    sweep = []
    for lam in used:
        for out, a, c, b in zip(buf, jx, cross, jy):
            np.multiply(a, lam, out=out)    # J(y) + λ(C + λJ(x))
            out += c
            out *= lam
            out += b
        sweep.append(max_abs(*buf))
    if used:
        rep.residuals["lambda_sweep"] = max_abs(sweep)
    else:
        rep.notes.append("lambda sweep empty: every requested value degenerates")
    return rep


def verify_appendix(p: PencilOperator, chart: Chart,
                    bt: np.ndarray | None = None) -> ComplianceReport:
    """Symmetry identities I1, I2 for the coefficients derived from r."""
    g = p.g
    n = g.n
    if bt is None:
        bt = btilde_from_r(p)
    rUU = raise_index(p.r, 1, g)
    btn = eval_array(bt, chart)
    rUUn = eval_array(rUU, chart)
    drUU = _dg_eval(rUU, chart)                             # (k, i, j, *grid)
    i1 = btn + np.swapaxes(btn, 0, 1) - np.einsum("kij...->ijk...", drUU)
    i2 = (np.einsum("iks...,sj...->ijk...", btn, rUUn)
          - np.einsum("jks...,si...->ijk...", btn, rUUn))
    scale = 1.0 + max_abs(rUUn, btn)
    return ComplianceReport({"I1": max_abs(i1), "I2": max_abs(i2)}, scale)
