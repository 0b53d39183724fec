"""Frame integration for the one-parameter family of flat diagonal metrics.

Shifting all the eta_i by the same parameter keeps the diagonal metric
g_ii = H_i^2 / (lam + eta_i) flat, and the associated orthonormal-frame
equations form a linear connection depending on the shift.  This module
builds that connection in its one (skew) gauge, checks its zero-curvature
condition, integrates the frame and the position vector, and extracts the
principal curvatures of the coordinate hypersurfaces, which rescale by
sqrt(lam + eta_n) as the shift moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagonal import DiagonalModel
from .entries import lin, matmul
from .grids import Chart, deriv, max_abs
from .march import MarchError, check_shift, position_vector, solve_frame

__all__ = [
    "LaxConnection", "FrameSolution", "build_lax", "zero_curvature_residual",
    "integrate_frame", "induced_metric_residual", "hypersurface_curvatures",
    "mesh_weingarten", "weingarten_scaling_report",
]

@dataclass(frozen=True)
class LaxConnection:
    """Connection matrices A_d of a linear system d_d X = A_d X.

    mats[d] holds A_d in the entry form of pencil_lab.entries: a dict from
    (i, j) to the grid of entry (i, j), with no key where that entry is a
    structural zero.  A_d acts on column vectors of frame components; lam
    is the spectral shift.
    """

    lam: float
    mats: tuple


def _shifted(model: DiagonalModel, chart: Chart, lam: float):
    eta = model.eta_grids(chart)
    shifted = [lam + e for e in eta]
    check_shift(lam, shifted)
    return shifted


def build_lax(model: DiagonalModel, beta: dict, chart: Chart,
              lam: float) -> LaxConnection:
    """Skew connection of the gauged frame system.

    d_d phi_i = sqrt((lam+eta_i)/(lam+eta_d)) beta_id phi_d        (i != d),
    d_d phi_d = -sum_{k != d} sqrt((lam+eta_k)/(lam+eta_d)) beta_kd phi_k.

    Only row d and column d of A_d are present, 2(n - 1) of its n^2 entries.
    """
    n = chart.n
    sh = _shifted(model, chart, lam)
    mats = []
    for d in range(n):
        A = {}
        for i in range(n):
            if i != d:
                w = np.sqrt(sh[i] / sh[d]) * beta[(i, d)]
                A[i, d] = w
                A[d, i] = -w
        mats.append(A)
    return LaxConnection(float(lam), tuple(mats))


def zero_curvature_residual(conn: LaxConnection, chart: Chart) -> float:
    """Max-abs of F_dj = d_d A_j - d_j A_d - [A_d, A_j] over the grid.

    Works on the present entries only: it differentiates those and forms
    the products by entries.matmul, grouped as (d_d A_j - d_j A_d) -
    (A_d A_j - A_j A_d).  For real float64 that gives the values of the
    dense einsum (complex ones may differ from it at round-off).  Serves the
    frame connections and both surface connections (real 3x3, complex 2x2).
    """
    n = chart.n
    h = chart.spacing()
    A = conn.mats
    worst = 0.0
    for d in range(n):
        for j in range(d + 1, n):
            dAj = {key: deriv(e, d, h[d]) for key, e in A[j].items()}
            dAd = {key: deriv(e, j, h[j]) for key, e in A[d].items()}
            P, Q = matmul(A[d], A[j]), matmul(A[j], A[d])
            for key in {*dAj, *dAd, *P, *Q}:
                F = lin((1, lin((1, dAj.get(key)), (-1, dAd.get(key)))),
                        (-1, lin((1, P.get(key)), (-1, Q.get(key)))))
                worst = max_abs(worst, F)
    return worst


@dataclass
class FrameSolution:
    """Integrated frame Phi (rows are the frame vectors) and position vector."""

    lam: float
    phi: np.ndarray              # grid + (n, n)
    rvec: np.ndarray             # grid + (n,)
    ortho_drift: float


def integrate_frame(conn: LaxConnection, model: DiagonalModel, H: list,
                    chart: Chart) -> FrameSolution:
    """Integrate d_d Phi = A_d Phi from Phi = identity at the chart corner,
    then the position vector d_d r = (H_d / sqrt(lam+eta_d)) row_d(Phi).

    Orthogonality of Phi is measured, not enforced; a drift above 1e-4 aborts
    since the connection then fails to be integrable on this box.
    """
    n = chart.n
    phi = solve_frame(chart, conn.mats, n)
    gram = np.einsum("...ki,...kj->...ij", phi, phi)
    drift = max_abs(gram - np.eye(n))
    if drift > 1e-4:
        raise MarchError(
            f"frame lost orthogonality (drift {drift:.3e}); the rotation "
            "coefficients are not consistent on this box")

    sh = _shifted(model, chart, conn.lam)
    rvec = position_vector(chart, [H[d] / np.sqrt(sh[d]) for d in range(n)],
                           phi)
    return FrameSolution(conn.lam, phi, rvec, drift)


def induced_metric_residual(fs: FrameSolution, model: DiagonalModel,
                            H: list, chart: Chart) -> float:
    """Check (d_i r, d_j r) = delta_ij H_i^2 / (lam + eta_i) by differences.

    The dot products are symmetric in (i, j), so only i <= j are formed.
    """
    n = chart.n
    h = chart.spacing()
    sh = _shifted(model, chart, fs.lam)
    dr = [deriv(fs.rvec, d, h[d]) for d in range(n)]
    worst = 0.0
    for i in range(n):
        for j in range(i, n):
            dot = np.einsum("...c,...c->...", dr[i], dr[j])
            target = H[i] ** 2 / sh[i] if i == j else 0.0
            worst = max_abs(worst, dot - target)
    return worst


def hypersurface_curvatures(model: DiagonalModel, beta: dict, H: list,
                            chart: Chart, lam: float):
    """Principal curvatures of the level hypersurface of the last coordinate.

    On the slice R^n = min the n-1 curvature lines have
    k^i = (beta_{n i} / H_i) sqrt(lam + eta_n); returns a list of n-1 arrays
    over the slice.
    """
    n = chart.n
    sh = _shifted(model, chart, lam)
    idx = (slice(None),) * (n - 1) + (0,)
    root = np.sqrt(sh[n - 1][idx])
    return [beta[(n - 1, i)][idx] / H[i][idx] * root for i in range(n - 1)]


def mesh_weingarten(r: np.ndarray, normal: np.ndarray, spacing) -> np.ndarray:
    """Shape operator S = I^-1 II of a mesh in its parameter basis.

    r and normal have shape grid + (c,) over len(spacing) parameter axes; the
    fundamental forms I_ab = (d_a r, d_b r) and II_ab = -(d_a n, d_b r) come
    from finite differences.  I is symmetric, so I_ba is copied from I_ab;
    II is not symmetric on a mesh and is formed in full.  Returns S, shape
    grid + (m, m).
    """
    m = len(spacing)
    dr = [deriv(r, a, spacing[a]) for a in range(m)]
    dn = [deriv(normal, a, spacing[a]) for a in range(m)]
    I = np.empty(r.shape[:-1] + (m, m))
    II = np.empty_like(I)
    for a in range(m):
        for b in range(m):
            if b >= a:
                I[..., a, b] = np.einsum("...c,...c->...", dr[a], dr[b])
            else:
                I[..., a, b] = I[..., b, a]
            II[..., a, b] = -np.einsum("...c,...c->...", dn[a], dr[b])
    return np.einsum("...ab,...bc->...ac", np.linalg.inv(I), II)


def weingarten_scaling_report(model: DiagonalModel, beta: dict, H: list,
                              chart: Chart, lam_a: float, lam_b: float,
                              frames: tuple | None = None) -> dict:
    """How the hypersurface shape operator responds to moving the shift.

    The closed-form curvatures at two shifts differ by the constant factor
    sqrt((lam_a + eta_n)/(lam_b + eta_n)) on the slice R^n = min.  The report
    carries the closed-form ratio residual and, when integrated frames are
    supplied, a mesh oracle comparing shape-operator eigenvalues from the
    reconstructed hypersurfaces against the formula.
    """
    n = chart.n
    ka = hypersurface_curvatures(model, beta, H, chart, lam_a)
    kb = hypersurface_curvatures(model, beta, H, chart, lam_b)
    idx = (slice(None),) * (n - 1) + (0,)
    sh_a = _shifted(model, chart, lam_a)[n - 1][idx]
    sh_b = _shifted(model, chart, lam_b)[n - 1][idx]
    factor = np.sqrt(sh_a / sh_b)

    umbilic = all(max_abs(k) <= 1e-12 for k in ka)
    ratio_res = 0.0
    if not umbilic:
        for a, b in zip(ka, kb):
            ratio_res = max_abs(ratio_res, a - factor * b)
    report = {
        "lam_a": lam_a,
        "lam_b": lam_b,
        "scaling_factor_range": [float(np.min(factor)), float(np.max(factor))],
        "closed_form_residual": ratio_res,
        "umbilic_flat_slice": umbilic,
    }
    if umbilic:
        report["note"] = "slice is totally geodesic; scaling law is vacuous"

    if frames is not None:
        # The slice normal is the last frame row.  The closed-form
        # curvatures use the convention d_a n = k^a d_a r, which flips the
        # sign of II, so their spectrum is that of -S.  Finite differencing
        # the mesh is least accurate near edges; compare on the interior.
        core = (slice(2, -2),) * (n - 1)
        for fs, k, tag in zip(frames, (ka, kb), "ab"):
            S = mesh_weingarten(fs.rvec[idx],
                                fs.phi[idx + (n - 1, slice(None))],
                                chart.spacing()[:n - 1])
            eig = np.sort(np.linalg.eigvals(-S).real, axis=-1)
            k = np.sort(np.stack(k, axis=-1), axis=-1)
            report[f"mesh_eigen_residual_{tag}"] = max_abs(eig[core] - k[core])
    return report
