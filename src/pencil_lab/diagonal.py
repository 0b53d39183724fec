"""Diagonal form of a flat-metric pencil and its rotation coefficients.

For a diagonal flat metric with Lame coefficients H_i = sqrt(g_ii) the
rotation coefficients beta_ij = (d_i H_j) / H_i satisfy the two flatness
identities (F1, F2).  A second diagonal metric g_ii / (eta_i + const) stays
flat for every shift exactly when the extra identity (F3) holds.  The three
identities resolve into a first-order system (S) for the beta's in which each
beta_ij is freely prescribed along the j-th coordinate line; solve_S
integrates that system.  The constant-eta specialization carries the
conserved densities P_i and an exact trigonometric parametrization whose
compatibility reduces to three coupled second-order equations for a single
potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Expr, as_expr, coords_used, evaluate, diff, parse_expr
from .grids import Chart, deriv, eval_grid, max_abs
from .march import MarchError, Unknown, solve_compatible

__all__ = [
    "DiagonalModel", "BoundaryData", "flatness_residuals",
    "pencil_residual_F3", "solve_S", "solve_lame", "conserved_P",
    "mu_constants", "integrate_S2", "monge_ampere_residual", "beta_from_pqr",
]


@dataclass(frozen=True)
class DiagonalModel:
    """Diagonal pencil data: eta_i as functions of the single coordinate R^i.

    etas[i] is an expression that may reference only coordinate i+1 (or be
    constant).  eta_prime differentiates with respect to that coordinate.
    """

    n: int
    etas: tuple

    def __post_init__(self):
        if len(self.etas) != self.n:
            raise ValueError("need one eta per coordinate")
        for i, e in enumerate(self.etas):
            used = coords_used(e)
            if used - {i + 1}:
                raise ValueError(
                    f"eta_{i + 1} may depend only on coordinate {i + 1}")

    @classmethod
    def from_text(cls, texts, n: int) -> "DiagonalModel":
        return cls(n, tuple(as_expr(t, n) for t in texts))

    @classmethod
    def constant(cls, consts) -> "DiagonalModel":
        n = len(consts)
        return cls.from_text([repr(float(c)) for c in consts], n)

    def eta_prime(self, i: int) -> Expr:
        return diff(self.etas[i], i + 1)

    def eta_grids(self, chart: Chart):
        return [eval_grid(e, chart) for e in self.etas]

    def eta_prime_grids(self, chart: Chart):
        return [eval_grid(self.eta_prime(i), chart) for i in range(self.n)]

    def is_constant(self) -> bool:
        return all(not coords_used(e) for e in self.etas)


@dataclass(frozen=True)
class BoundaryData:
    """Line data for the rotation coefficients.

    lines[(i, j)] (i != j, zero-based) gives beta_ij restricted to the j-th
    coordinate line through the chart corner, as an expression in R^{j+1}
    only (constants allowed).
    """

    n: int
    lines: dict

    def __post_init__(self):
        for (i, j), e in self.lines.items():
            if i == j or not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"bad index pair {(i, j)}")
            used = coords_used(e)
            if used - {j + 1}:
                raise ValueError(
                    f"boundary for beta[{i}][{j}] must depend only on "
                    f"coordinate {j + 1}")

    @classmethod
    def from_text(cls, texts: dict, n: int) -> "BoundaryData":
        return cls(n, {k: as_expr(v, n) for k, v in texts.items()})

    def expr(self, i: int, j: int) -> Expr:
        return self.lines.get((i, j), parse_expr("0", self.n))


def flatness_residuals(beta: dict, chart: Chart):
    """Max-abs residuals of the flatness identities.

    F1: d_k beta_ij = beta_ik beta_kj for distinct i, j, k.
    F2: d_i beta_ij + d_j beta_ji + sum_{k != i,j} beta_ki beta_kj = 0.
    """
    n = chart.n
    h = chart.spacing()
    f1 = 0.0
    f2 = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(n):
                if k in (i, j):
                    continue
                f1 = max_abs(f1, deriv(beta[(i, j)], k, h[k])
                             - beta[(i, k)] * beta[(k, j)])
            if i < j:
                acc = (deriv(beta[(i, j)], i, h[i])
                       + deriv(beta[(j, i)], j, h[j]))
                for k in range(n):
                    if k not in (i, j):
                        acc = acc + beta[(k, i)] * beta[(k, j)]
                f2 = max_abs(f2, acc)
    return f1, f2


def pencil_residual_F3(beta: dict, chart: Chart, eta: list,
                       etap: list) -> float:
    """Residual of the shift-invariance identity.

    F3: eta_i d_i beta_ij + eta_j d_j beta_ji + (1/2) eta_i' beta_ij
        + (1/2) eta_j' beta_ji + sum_{k != i,j} eta_k beta_ki beta_kj = 0.

    eta and etap hold the grids of the etas and their derivatives on the
    chart, as for solve_S.
    """
    n = chart.n
    h = chart.spacing()
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            acc = (eta[i] * deriv(beta[(i, j)], i, h[i])
                   + eta[j] * deriv(beta[(j, i)], j, h[j])
                   + 0.5 * etap[i] * beta[(i, j)]
                   + 0.5 * etap[j] * beta[(j, i)])
            for k in range(n):
                if k not in (i, j):
                    acc = acc + eta[k] * beta[(k, i)] * beta[(k, j)]
            worst = max_abs(worst, acc)
    return worst


def _check_separation(eta: list, chart: Chart):
    n = chart.n
    for i in range(n):
        for j in range(i + 1, n):  # |eta_j - eta_i| is symmetric
            if float(np.min(np.abs(eta[j] - eta[i]))) < 1e-8:
                raise MarchError(
                    f"eta_{i + 1} and eta_{j + 1} collide on the box; the "
                    "resolved system has a vanishing denominator")


def solve_S(bd: BoundaryData, chart: Chart, eta: list, etap: list,
            order=None):
    """Integrate the resolved system (S) for the rotation coefficients.

    d_i beta_ij = [ (1/2) eta_i' beta_ij + (1/2) eta_j' beta_ji
                    + sum_{k != i,j} (eta_k - eta_j) beta_ki beta_kj ]
                  / (eta_j - eta_i),
    d_k beta_ij = beta_ik beta_kj  (k != i, j),
    with beta_ij freely prescribed along the j-th coordinate line.

    eta and etap hold the grids of the etas and of their derivatives on the
    chart (DiagonalModel.eta_grids and eta_prime_grids), evaluated once by
    the caller.  Returns (beta dict of grids, egorov flag).  The egorov flag
    records whether the solution came out symmetric (beta_ij = beta_ji) to
    1e-10.
    """
    n = chart.n
    _check_separation(eta, chart)

    def rhs_resolved(i, j):
        def f(state, idx):
            acc = (0.5 * etap[i][idx] * state[f"b{i}{j}"][idx]
                   + 0.5 * etap[j][idx] * state[f"b{j}{i}"][idx])
            for k in range(n):
                if k not in (i, j):
                    acc = acc + ((eta[k][idx] - eta[j][idx])
                                 * state[f"b{k}{i}"][idx] * state[f"b{k}{j}"][idx])
            return acc / (eta[j][idx] - eta[i][idx])
        return f

    def rhs_cross(i, j, k):
        def f(state, idx):
            return state[f"b{i}{k}"][idx] * state[f"b{k}{j}"][idx]
        return f

    unknowns = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rhs = {i: rhs_resolved(i, j)}
            for k in range(n):
                if k not in (i, j):
                    rhs[k] = rhs_cross(i, j, k)
            unknowns.append(Unknown(f"b{i}{j}", rhs, free_axis=j,
                                    boundary=bd.expr(i, j)))
    sol = solve_compatible(chart, unknowns, order=order)
    beta = {(i, j): sol[f"b{i}{j}"]
            for i in range(n) for j in range(n) if i != j}
    egorov = all(max_abs(beta[(i, j)] - beta[(j, i)]) <= 1e-10
                 for i in range(n) for j in range(i + 1, n))
    return beta, egorov


def solve_lame(beta: dict, chart: Chart, h_boundary: dict):
    """Integrate d_i H_j = beta_ij H_i given the rotation coefficients.

    h_boundary[j] is H_j along the j-th coordinate line (expression in
    R^{j+1} or a constant).
    """
    n = chart.n

    def rhs(i, j):
        def f(state, idx):
            return beta[(i, j)][idx] * state[f"H{i}"][idx]
        return f

    unknowns = []
    for j in range(n):
        unknowns.append(Unknown(
            f"H{j}", {i: rhs(i, j) for i in range(n) if i != j},
            free_axis=j, boundary=as_expr(h_boundary[j], n)))
    sol = solve_compatible(chart, unknowns)
    return [sol[f"H{j}"] for j in range(n)]


def conserved_P(model: DiagonalModel, beta: dict, chart: Chart):
    """Densities P_i = sum_{k != i} (c_k - c_i) beta_ki^2 for constant etas.

    Returns (list of P_i grids, max cross-derivative |d_j P_i|, i != j).
    For an exact solution of (S) with constant etas each P_i depends on R^i
    alone, so the cross-derivative measures conservation.
    """
    if not model.is_constant():
        raise ValueError("conserved densities require constant etas")
    n = chart.n
    h = chart.spacing()
    c = [evaluate(e, chart.corner()) for e in model.etas]
    P = []
    drift = 0.0
    for i in range(n):
        acc = np.zeros(chart.shape)
        for k in range(n):
            if k != i:
                acc = acc + (c[k] - c[i]) * beta[(k, i)] ** 2
        P.append(acc)
        for j in range(n):
            if j != i:
                drift = max_abs(drift, deriv(acc, j, h[j]))
    return P, drift


def mu_constants(c1: float, c2: float, c3: float):
    """Normalization constants of the three conserved densities (c3>c2>c1)."""
    if not (c3 > c2 > c1):
        raise ValueError("constants must satisfy c3 > c2 > c1")
    mu1 = np.sqrt((c3 - c2) / ((c2 - c1) * (c3 - c1)))
    mu2 = np.sqrt((c3 - c1) / ((c2 - c1) * (c3 - c2)))
    mu3 = np.sqrt((c2 - c1) / ((c3 - c1) * (c3 - c2)))
    return mu1, mu2, mu3


def integrate_S2(chart: Chart, p0, q0, r0, order=None, mus=(1.0, 1.0, 1.0)):
    """Solve the rescaled angle system for the three-component constant case.

    d_1 q = cos p,  d_1 r = -sin p,
    d_2 p = -cosh q, d_2 r = sinh q,
    d_3 p = cos r,  d_3 q = sin r,
    with p, q, r prescribed along the first, second and third coordinate
    lines respectively (expressions in the free coordinate, or constants).

    The plain system (mus = (1, 1, 1)) is written in coordinates rescaled by
    the normalization constants; passing mus = mu_constants(c1, c2, c3)
    multiplies the direction-d right-hand sides by mus[d] and yields the
    angles in the original coordinates, where beta_from_pqr then satisfies
    the flatness identities directly.

    Returns (solution dict, consistency) where consistency is the largest
    finite-difference residual of the six equations.
    """
    if chart.n != 3:
        raise ValueError("the angle system lives on a three-dimensional chart")
    m1, m2, m3 = (float(m) for m in mus)
    unknowns = [
        Unknown("p", {1: lambda s, i: -m2 * np.cosh(s["q"][i]),
                      2: lambda s, i: m3 * np.cos(s["r"][i])},
                free_axis=0, boundary=as_expr(p0, 3)),
        Unknown("q", {0: lambda s, i: m1 * np.cos(s["p"][i]),
                      2: lambda s, i: m3 * np.sin(s["r"][i])},
                free_axis=1, boundary=as_expr(q0, 3)),
        Unknown("r", {0: lambda s, i: -m1 * np.sin(s["p"][i]),
                      1: lambda s, i: m2 * np.sinh(s["q"][i])},
                free_axis=2, boundary=as_expr(r0, 3)),
    ]
    sol = solve_compatible(chart, unknowns, order=order)
    if max_abs(sol["q"]) > 20.0:
        raise MarchError("angle q left the trustworthy range (|q| > 20)")
    h = chart.spacing()
    res = max_abs(
        deriv(sol["q"], 0, h[0]) - m1 * np.cos(sol["p"]),
        deriv(sol["r"], 0, h[0]) + m1 * np.sin(sol["p"]),
        deriv(sol["p"], 1, h[1]) + m2 * np.cosh(sol["q"]),
        deriv(sol["r"], 1, h[1]) - m2 * np.sinh(sol["q"]),
        deriv(sol["p"], 2, h[2]) - m3 * np.cos(sol["r"]),
        deriv(sol["q"], 2, h[2]) - m3 * np.sin(sol["r"]),
    )
    return sol, res


def monge_ampere_residual(sol: dict, chart: Chart, clamp: float = 1e-8):
    """Residuals of the three second-order equations for the potential q.

    With u = q, s1 = d_1 u = cos p and s3 = d_3 u = sin r the angle system
    implies
      d_1 d_2 u = cosh(u) sin p,
      d_1 d_3 u = -sin p cos r,
      d_2 d_3 u = sinh(u) cos r,
    and the residuals take sin p = sqrt(1 - s1^2) = |sin p| and
    cos r = sqrt(1 - s3^2) = |cos r|, i.e. they assume the branch
    sin p >= 0, cos r >= 0.  Rounding can push 1 - s^2 slightly negative,
    which is clamped to zero when within `clamp`; beyond that |s| > 1 is no
    cosine or sine and a MarchError is raised.
    """
    q = sol["q"]
    h = chart.spacing()
    s1 = deriv(q, 0, h[0])
    s3 = deriv(q, 2, h[2])

    def root(s, tag):
        w = 1.0 - s ** 2
        low = float(np.min(w))
        if low < -clamp:
            raise MarchError(
                f"1 - ({tag})^2 reaches {low:.3e}; the differenced potential "
                "is no cosine or sine of an angle")
        return np.sqrt(np.clip(w, 0.0, None))

    r1 = root(s1, "d1 q")
    r3 = root(s3, "d3 q")
    m12 = max_abs(deriv(s1, 1, h[1]) - np.cosh(q) * r1)
    m13 = max_abs(deriv(s1, 2, h[2]) + r1 * r3)
    m23 = max_abs(deriv(s3, 1, h[1]) - np.sinh(q) * r3)
    return m12, m13, m23


def beta_from_pqr(sol: dict, c1: float, c2: float, c3: float):
    """Rotation coefficients from the angle potentials (constant-eta case).

    beta_21 = sin(p)/sqrt(c2-c1), beta_31 = cos(p)/sqrt(c3-c1),
    beta_12 = sinh(q)/sqrt(c2-c1), beta_32 = cosh(q)/sqrt(c3-c2),
    beta_13 = sin(r)/sqrt(c3-c1), beta_23 = cos(r)/sqrt(c3-c2).
    This choice makes P_1 = P_2 = 1 and P_3 = -1 identically.
    """
    if not (c3 > c2 > c1):
        raise ValueError("constants must satisfy c3 > c2 > c1")
    s21 = np.sqrt(c2 - c1)
    s31 = np.sqrt(c3 - c1)
    s32 = np.sqrt(c3 - c2)
    p, q, r = sol["p"], sol["q"], sol["r"]
    return {
        (1, 0): np.sin(p) / s21,
        (2, 0): np.cos(p) / s31,
        (0, 1): np.sinh(q) / s21,
        (2, 1): np.cosh(q) / s32,
        (0, 2): np.sin(r) / s31,
        (1, 2): np.cos(r) / s32,
    }
