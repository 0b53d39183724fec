"""Frame integration for the one-parameter family of flat diagonal metrics.

Shifting all the eta_i by the same parameter keeps the diagonal metric
g_ii = H_i^2 / (lam + eta_i) flat, and the associated orthonormal-frame
equations form a linear connection depending on the shift.  This module
builds that connection in its one (skew) gauge, checks its zero-curvature
condition, integrates the frame and the position vector, and extracts the
principal curvatures of the coordinate hypersurfaces, which rescale by
sqrt(lam + eta_n) as the shift moves.  Each function works at one shift
and takes it as the grids lam + eta_i on the chart, which a caller forms
once per shift with march.shift and passes to every function of that shift;
of its results only the slice R^n = min (frame_slice) outlives the shift.

A connection is the tuple of its matrices A_d of d_d X = A_d X, each in the
entry form of pencil_lab.entries: a dict from (i, j) to the grid of entry
(i, j), with no key where that entry is a structural zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entries import lin, matmul
from .grids import Chart, deriv, max_abs
from .march import MarchError, position_vector, solve_frame

__all__ = [
    "FrameSolution", "FrameSlice", "build_lax", "zero_curvature_residual",
    "integrate_frame", "gram_drift", "induced_metric_residual", "frame_slice",
    "hypersurface_curvatures", "mesh_weingarten", "spectrum_2x2",
    "weingarten_scaling_report",
]


def build_lax(sh: list, beta: dict, chart: Chart) -> tuple:
    """Skew connection of the gauged frame system; sh holds lam + eta_i.

    d_d phi_i = sqrt((lam+eta_i)/(lam+eta_d)) beta_id phi_d        (i != d),
    d_d phi_d = -sum_{k != d} sqrt((lam+eta_k)/(lam+eta_d)) beta_kd phi_k.

    Only row d and column d of A_d are present, 2(n - 1) of its n^2 entries.
    """
    n = chart.n
    mats = []
    for d in range(n):
        A = {}
        for i in range(n):
            if i != d:
                w = np.sqrt(sh[i] / sh[d]) * beta[(i, d)]
                A[i, d] = w
                A[d, i] = -w
        mats.append(A)
    return tuple(mats)


def zero_curvature_residual(conn: tuple, chart: Chart) -> float:
    """Max-abs of F_dj = d_d A_j - d_j A_d - [A_d, A_j] over the grid.

    Works on the present entries only: it differentiates those and forms
    the products by entries.matmul, grouped as (d_d A_j - d_j A_d) -
    (A_d A_j - A_j A_d).  For real float64 that gives the values of the
    dense einsum (complex ones may differ from it at round-off).  Serves the
    frame connections and both surface connections (real 3x3, complex 2x2).
    """
    n = chart.n
    h = chart.spacing()
    worst = 0.0
    for d in range(n):
        for j in range(d + 1, n):
            dAj = {key: deriv(e, d, h[d]) for key, e in conn[j].items()}
            dAd = {key: deriv(e, j, h[j]) for key, e in conn[d].items()}
            P, Q = matmul(conn[d], conn[j]), matmul(conn[j], conn[d])
            for key in {*dAj, *dAd, *P, *Q}:
                F = lin((1, lin((1, dAj.get(key)), (-1, dAd.get(key)))),
                        (-1, lin((1, P.get(key)), (-1, Q.get(key)))))
                worst = max_abs(worst, F)
    return worst


@dataclass
class FrameSolution:
    """Integrated frame Phi (rows are the frame vectors) and position vector."""

    phi: np.ndarray              # grid + (n, n)
    rvec: np.ndarray             # grid + (n,)
    ortho_drift: float


def integrate_frame(conn: tuple, sh: list, H: list,
                    chart: Chart) -> FrameSolution:
    """Integrate d_d Phi = A_d Phi from Phi = identity at the chart corner,
    then the position vector d_d r = (H_d / sqrt(lam+eta_d)) row_d(Phi).

    Orthogonality of Phi is measured, not enforced; a drift above 1e-4 aborts
    since the connection then fails to be integrable on this box.
    """
    n = chart.n
    phi = solve_frame(chart, conn, n)
    drift = gram_drift(phi)
    if drift > 1e-4:
        raise MarchError(
            f"frame lost orthogonality (drift {drift:.3e}); the rotation "
            "coefficients are not consistent on this box")
    rvec = position_vector(chart, [H[d] / np.sqrt(sh[d]) for d in range(n)],
                           phi)
    return FrameSolution(phi, rvec, drift)


def gram_drift(phi: np.ndarray) -> float:
    """max |Phi^T Phi - identity| over the frames phi (grid + (k, k)), from
    the entries i <= j, each summed over the rows in order as einsum does."""
    k = phi.shape[-1]
    return max_abs(*(sum(phi[..., r, i] * phi[..., r, j] for r in range(k))
                     - float(i == j) for i in range(k) for j in range(i, k)))


def induced_metric_residual(fs: FrameSolution, sh: list, H: list,
                            chart: Chart) -> float:
    """Check (d_i r, d_j r) = delta_ij H_i^2 / (lam + eta_i) by differences.

    The dot products are symmetric in (i, j), so only i <= j are formed.
    """
    n = chart.n
    h = chart.spacing()
    dr = [deriv(fs.rvec, d, h[d]) for d in range(n)]
    worst = 0.0
    for i in range(n):
        for j in range(i, n):
            dot = np.einsum("...c,...c->...", dr[i], dr[j])
            target = H[i] ** 2 / sh[i] if i == j else 0.0
            worst = max_abs(worst, dot - target)
    return worst


def _on_slice(grid: np.ndarray, n: int) -> np.ndarray:
    """A copy of ``grid`` (chart axes first) on the slice R^n = min."""
    return grid[(slice(None),) * (n - 1) + (0,)].copy()


@dataclass
class FrameSlice:
    """The slice R^n = min of one shift, copied off its whole-grid results."""

    vertices: np.ndarray         # slice + (n,), the position vector
    normals: np.ndarray          # slice + (n,), the last frame row
    sh_n: np.ndarray             # slice, lam + eta_n


def frame_slice(fs: FrameSolution, sh: list, chart: Chart) -> FrameSlice:
    """The slice of the frame ``fs`` integrated at the shift ``sh``."""
    n = chart.n
    return FrameSlice(*(_on_slice(a, n) for a in
                        (fs.rvec, fs.phi[..., n - 1, :], sh[n - 1])))


def hypersurface_curvatures(sh_n, beta: dict, H: list, chart: Chart):
    """Principal curvatures of the level hypersurface R^n = min.

    With sh_n = lam + eta_n on the slice (FrameSlice.sh_n), its n-1
    curvature lines have k^i = (beta_{n i} / H_i) sqrt(sh_n); returns a list
    of n-1 arrays over the slice.
    """
    n = chart.n
    root = np.sqrt(sh_n)
    return [_on_slice(beta[(n - 1, i)], n) / _on_slice(H[i], n) * root
            for i in range(n - 1)]


def mesh_weingarten(r: np.ndarray, normal: np.ndarray, spacing) -> np.ndarray:
    """Shape operator S = I^-1 II, shape grid + (2, 2), of a mesh over two
    parameter axes; r and normal have shape grid + (c,).  The fundamental
    forms I_ab = (d_a r, d_b r) (symmetric: I_10 is I_01) and II_ab =
    -(d_a n, d_b r) come from finite differences.  I^-1 is adj(I) (1/det I),
    the reciprocal first, so that a subnormal det overflows to a refusal as
    LAPACK's inverse did: a mesh with no finite S raises MarchError."""
    (r0, r1), (n0, n1) = ([deriv(v, a, h) for a, h in enumerate(spacing)]
                          for v in (r, normal))
    I00, I01, I11 = (np.einsum("...c,...c->...", x, y)
                     for x, y in ((r0, r0), (r0, r1), (r1, r1)))
    with np.errstate(all="ignore"):  # a non-finite S is refused below
        rdet = 1.0 / (I00 * I11 - I01 * I01)
        inv = ((I11 * rdet, -I01 * rdet), (-I01 * rdet, I00 * rdet))
        II = [[-np.einsum("...c,...c->...", m, x) for x in (r0, r1)]
              for m in (n0, n1)]
        S = np.stack([np.stack([inv[a][0] * II[0][c] + inv[a][1] * II[1][c]
                                for c in range(2)], -1) for a in range(2)], -2)
    if not np.isfinite(S).all():
        raise MarchError("mesh shape operator is not finite: the mesh "
                         "degenerates")
    return S


def spectrum_2x2(S: np.ndarray) -> np.ndarray:
    """Sorted real parts of the eigenvalues of each 2x2 matrix of S: mean -+
    sqrt(d), d = ((S_00 - S_11)/2)^2 + S_01 S_10; the mean twice if d < 0."""
    mean, half = (0.5 * (S[..., 0, 0] + s * S[..., 1, 1]) for s in (1, -1))
    root = np.sqrt(np.maximum(half * half + S[..., 0, 1] * S[..., 1, 0], 0.0))
    return np.stack([mean - root, mean + root], axis=-1)


def weingarten_scaling_report(sl_a: FrameSlice, sl_b: FrameSlice,
                              beta: dict, H: list, chart: Chart) -> dict:
    """How the hypersurface shape operator responds to moving the shift.

    sl_a and sl_b are the slices R^n = min at two shifts, on which the
    closed-form curvatures differ by the constant factor
    sqrt((lam_a + eta_n)/(lam_b + eta_n)).  The report carries the
    closed-form ratio residual and a mesh oracle comparing shape-operator
    eigenvalues from the slice meshes against the formula.
    """
    n = chart.n
    ka = hypersurface_curvatures(sl_a.sh_n, beta, H, chart)
    kb = hypersurface_curvatures(sl_b.sh_n, beta, H, chart)
    factor = np.sqrt(sl_a.sh_n / sl_b.sh_n)

    umbilic = all(max_abs(k) <= 1e-12 for k in ka)
    ratio_res = 0.0 if umbilic else max_abs(
        *(a - factor * b for a, b in zip(ka, kb)))
    report = {"closed_form_residual": ratio_res, "umbilic_flat_slice": umbilic}
    if umbilic:
        report["note"] = "slice is totally geodesic; scaling law is vacuous"

    # The closed-form curvatures follow d_a n = k^a d_a r, which flips the
    # sign of II, so their spectrum is that of -S.  Finite differencing is
    # least accurate near edges; compare on the interior.
    core = (slice(2, -2),) * (n - 1)
    for sl, k, tag in ((sl_a, ka, "a"), (sl_b, kb, "b")):
        S = mesh_weingarten(sl.vertices, sl.normals, chart.spacing()[:n - 1])
        eig = spectrum_2x2(-S)
        k = np.sort(np.stack(k, axis=-1), axis=-1)
        report[f"mesh_eigen_residual_{tag}"] = max_abs(eig[core] - k[core])
    return report
