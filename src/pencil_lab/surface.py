"""Surfaces in 3-space admitting shape-operator-preserving deformations.

A surface parametrized by curvature lines is encoded by its third fundamental
form G_ii = g_ii / eta_i with g flat diagonal and each eta_i a function of a
single coordinate.  The shifted forms g_ii / (lam + eta_i) then all have
Gaussian curvature 1, and carrying the same radii of principal curvature
k^1, k^2 across the family produces a one-parameter deformation of the
surface preserving its Weingarten operator.  This module checks the
curvature-1 property, solves the transport equations for the radii,
verifies the two equivalent linear systems (3x3 real and 2x2 complex),
reconstructs the family of surface meshes, and compares their shape
operators vertex by vertex.  Functions take the forms deform-surface hands
them: expressions for the third fundamental form and the radii's boundary
lines, grids on the chart for every field (radii, H_i, b_ij, eta_i).  A
per-shift function takes one shift lam and forms lam + eta_i once, by
march.shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .expr import Expr, as_expr, call, coords_used, diff, evaluate
from .grids import Chart, deriv, eval_grid, max_abs
from .lax import (gram_drift, mesh_weingarten, spectrum_2x2,
                  zero_curvature_residual)
from .march import (MarchError, Unknown, position_vector, refuse_pole,
                    shift, solve_compatible, solve_frame)

__all__ = [
    "SurfaceModel", "CurvatureData", "SurfaceMesh", "seed_surface_model",
    "gaussian_curvature_expr", "constant_curvature_check", "pc_residual",
    "solve_codazzi", "lax_residuals_3x3_2x2", "reconstruct_family",
    "weingarten_family_compare", "mesh_nontriviality",
]

UMBILIC_GUARD = 1e-8


@dataclass(frozen=True)
class SurfaceModel:
    """Flat diagonal metric entries with per-coordinate denominators.

    g11, g22 are the covariant metric entries; eta1 and eta2 should depend
    only on the first and second coordinate respectively.  validate() records
    violations instead of raising so that deliberately broken inputs can be
    pushed through the pipeline as negative controls.  A shift at a pole is
    no such input: every per-shift function refuses it (march.refuse_pole).
    """

    g11: Expr
    g22: Expr
    eta1: Expr
    eta2: Expr
    chart: Chart

    @classmethod
    def from_text(cls, g11, g22, eta1, eta2, chart):
        return cls(as_expr(g11, 2), as_expr(g22, 2), as_expr(eta1, 2),
                   as_expr(eta2, 2), chart)

    def validate(self) -> list:
        problems = []
        if coords_used(self.eta1) - {1}:
            problems.append("eta1 depends on the second coordinate")
        if coords_used(self.eta2) - {2}:
            problems.append("eta2 depends on the first coordinate")
        flat = max_abs(eval_grid(gaussian_curvature_expr(self.g11, self.g22),
                                 self.chart))
        if flat > 1e-8 * (1.0 + max_abs(*self.metric_grids)):
            problems.append(f"base metric is not flat (residual {flat:.3e})")
        return problems

    def shifted_form(self, lam: float):
        """Expressions of the shifted third fundamental form entries."""
        cl = as_expr(lam, 2)
        return self.g11 / (cl + self.eta1), self.g22 / (cl + self.eta2)

    def lame_beta(self):
        """H_1, H_2 and the rotation coefficients as exact expressions."""
        H1 = call("sqrt", self.g11)
        H2 = call("sqrt", self.g22)
        b12 = diff(H2, 1) / H1
        b21 = diff(H1, 2) / H2
        return H1, H2, b12, b21

    @cached_property
    def metric_grids(self) -> tuple:
        """Grids of g11 and g22, evaluated once per model."""
        return tuple(eval_grid(e, self.chart) for e in (self.g11, self.g22))

    @cached_property
    def eta_grids(self) -> tuple:
        """Grids of eta1 and eta2, evaluated once per model."""
        return tuple(eval_grid(e, self.chart) for e in (self.eta1, self.eta2))

    @cached_property
    def coefficient_grids(self) -> tuple:
        """Grids of H_1, H_2, b12, b21, eta1 and eta2, evaluated once per
        model and shared by every shift."""
        return (*(eval_grid(e, self.chart) for e in self.lame_beta()),
                *self.eta_grids)


def gaussian_curvature_expr(E: Expr, G: Expr) -> Expr:
    """Gaussian curvature of the orthogonal metric E (dR1)^2 + G (dR2)^2."""
    root = call("sqrt", E * G)
    half = as_expr(0.5, 2)
    inner = diff(diff(G, 1) / root, 1) + diff(diff(E, 2) / root, 2)
    return as_expr(0.0, 2) - half * inner / root


def constant_curvature_check(model: SurfaceModel, lam: float) -> float:
    """Max-abs of (Gaussian curvature of the form shifted by lam) - 1."""
    refuse_pole(lam, model.eta_grids)
    K = gaussian_curvature_expr(*model.shifted_form(lam))
    return max_abs(eval_grid(K, model.chart) - 1.0)


@dataclass
class CurvatureData:
    """Radii of principal curvature on the grid, shared by the whole family."""

    k1: np.ndarray
    k2: np.ndarray
    pc: float = np.nan


def _log_deriv(G: Expr, axis: int, chart: Chart) -> np.ndarray:
    """Grid of d_axis ln sqrt(G), exact for the expression G."""
    return eval_grid(diff(G, axis + 1) / (as_expr(2.0, 2) * G), chart)


def pc_residual(k1, k2, L1, L2, chart: Chart) -> float:
    """Transport-equation residuals for the radii, denominators cleared.

    d_2 k1 = (k2 - k1) L1,  L1 = d_2 ln sqrt(G11),
    d_1 k2 = (k1 - k2) L2,  L2 = d_1 ln sqrt(G22).

    All four arguments are grids on the chart; the radii are differenced on
    it.  Raises MarchError where k1 and k2 meet (an umbilic point), since
    the transport equations hold no information there.
    """
    if float(np.min(np.abs(k2 - k1))) < UMBILIC_GUARD:
        raise MarchError("umbilic point inside the grid")
    h = chart.spacing()
    return max_abs(deriv(k1, 1, h[1]) - (k2 - k1) * L1,
                   deriv(k2, 0, h[0]) - (k1 - k2) * L2)


def solve_codazzi(G11: Expr, G22: Expr, k1_line, k2_line,
                  chart: Chart) -> CurvatureData:
    """Integrate the radii transport equations.

    k1 is prescribed on the first-coordinate line through the corner and
    transported in the second direction; k2 the other way round.  Boundary
    expressions referencing the transverse coordinate are accepted only when
    their transverse derivative matches the transport equation at the corner.
    Its ``pc`` is pc_residual on the march's grids, which refuses umbilics;
    radii that vanish on the grid are refused after it, since every member of
    the family then has a degenerate position vector equation.
    """
    L1 = _log_deriv(G11, 1, chart)
    L2 = _log_deriv(G22, 0, chart)
    k1_line, k2_line = (as_expr(v, 2) for v in (k1_line, k2_line))
    corner = chart.corner()
    k1c, k2c = (evaluate(v, corner) for v in (k1_line, k2_line))
    for tag, line, axis, gap, L in (("k1", k1_line, 2, k2c - k1c, L1),
                                    ("k2", k2_line, 1, k1c - k2c, L2)):
        if axis in coords_used(line):
            want = gap * L[(0,) * 2]
            got = evaluate(diff(line, axis), corner)
            if abs(got - want) > 1e-6:
                raise MarchError(
                    f"boundary for {tag} prescribes a transverse derivative "
                    f"({got:.6g}) inconsistent with the transport equation "
                    f"({want:.6g})")

    sol = solve_compatible(chart, [
        Unknown("k1", {1: lambda s, i: (s["k2"][i] - s["k1"][i]) * L1[i]},
                free_axis=0, boundary=k1_line),
        Unknown("k2", {0: lambda s, i: (s["k1"][i] - s["k2"][i]) * L2[i]},
                free_axis=1, boundary=k2_line)])
    pc = pc_residual(sol["k1"], sol["k2"], L1, L2, chart)
    for tag in ("k1", "k2"):
        if float(np.min(np.abs(sol[tag]))) < 1e-8:
            raise MarchError(f"{tag} vanishes on the grid; the position "
                             "vector equation degenerates")
    return CurvatureData(sol["k1"], sol["k2"], pc)


def _lax_mats(H1g, H2g, b12g, b21g, s1, s2):
    """3x3 real and 2x2 complex connection matrices for one shift.

    s1, s2 are the grids of lam + eta_i.  Each matrix is in the entry form
    of pencil_lab.lax: B1 and B2 have 4 present entries each, M1 and M2 all
    4 of theirs.
    """
    r1, r2 = np.sqrt(s1), np.sqrt(s2)
    w1, w2 = (r2 / r1) * b21g, (r1 / r2) * b12g
    B1 = {(0, 1): -w1, (0, 2): H1g / r1, (1, 0): w1, (2, 0): -H1g / r1}
    B2 = {(0, 1): w2, (1, 0): -w2, (1, 2): H2g / r2, (2, 1): -H2g / r2}
    c1, c2 = 2.0 * r1, 1j / (2.0 * r2)
    M1 = {idx: np.asarray(e, dtype=complex) / c1 for idx, e in zip(
        np.ndindex(2, 2), (1j * r2 * b21g, H1g, -H1g, -1j * r2 * b21g))}
    M2 = {idx: np.asarray(e, dtype=complex) * c2 for idx, e in zip(
        np.ndindex(2, 2), (-r1 * b12g, H2g, H2g, r1 * b12g))}
    return B1, B2, M1, M2


def lax_residuals_3x3_2x2(mats: tuple, chart: Chart) -> tuple:
    """Zero-curvature residuals (3x3, 2x2) of one shift's connections.

    mats is (B1, B2, M1, M2) as _lax_mats builds them: the real 3x3 pair
    and the complex 2x2 pair.
    """
    return (zero_curvature_residual(mats[:2], chart),
            zero_curvature_residual(mats[2:], chart))


@dataclass
class SurfaceMesh:
    """Reconstructed member of the deformation family.

    Of the shape operator S only what weingarten_family_compare reads is
    kept: its sorted spectrum and the larger off-diagonal entry per vertex.
    """

    lam: float
    vertices: np.ndarray          # grid + (3,)
    normals: np.ndarray           # grid + (3,)
    eigenvalues: np.ndarray       # grid + (2,), shape-operator spectrum
    off_diagonal: np.ndarray      # grid, max(|S_12|, |S_21|) per vertex
    excluded: int = 0
    notes: list = field(default_factory=list)

    def normal_unit_drift(self) -> float:
        return max_abs(np.einsum("...c,...c->...", self.normals,
                                 self.normals) - 1.0)


def reconstruct_family(model: SurfaceModel, curv: CurvatureData,
                       lam: float) -> tuple:
    """The member of the family at shift lam: (r3, r2, SurfaceMesh).

    Both connections are built once: r3 and r2 are the zero-curvature
    residuals of the 3x3 and 2x2 ones.  The 3x3 connection integrates to a
    frame (e1, e2, n) whose last row is the Gauss map; the position vector
    follows from d_i r = -k^i d_i n.  Flipping the normal negates both
    radii; the convention here fixes n as the third frame row from the
    identity corner frame.
    """
    chart = model.chart
    H1g, H2g, b12g, b21g, e1, e2 = model.coefficient_grids
    s1, s2 = shift(lam, (e1, e2))
    B1, B2, M1, M2 = _lax_mats(H1g, H2g, b12g, b21g, s1, s2)
    r3, r2 = lax_residuals_3x3_2x2((B1, B2, M1, M2), chart)
    del M1, M2  # the 2x2 pair serves its residual only, not the march
    frame = solve_frame(chart, (B1, B2), 3)
    drift = gram_drift(frame)
    normal = frame[..., 2, :].copy()  # a mesh keeps no view of its frame
    # d_1 n = -(H1/sqrt(s1)) e1 and d_2 n = -(H2/sqrt(s2)) e2; the
    # Gauss map must actually move for the surface to exist.
    span = max_abs(H1g / np.sqrt(s1), H2g / np.sqrt(s2))
    if span < 1e-10:
        raise MarchError("Gauss map degenerate")
    coeff = [curv.k1 * H1g / np.sqrt(s1), curv.k2 * H2g / np.sqrt(s2)]
    verts = position_vector(chart, coeff, frame)

    S = mesh_weingarten(verts, normal, chart.spacing())
    eig = spectrum_2x2(S)
    gap = np.abs(eig[..., 1] - eig[..., 0])
    off = np.maximum(np.abs(S[..., 0, 1]), np.abs(S[..., 1, 0]))
    mesh = SurfaceMesh(float(lam), verts, normal, eig, off,
                       int(np.count_nonzero(gap < 1e-6)))
    mesh.notes.append(f"frame_drift={drift:.3e}")
    return r3, r2, mesh


def weingarten_family_compare(meshes: list) -> dict:
    """Vertex-by-vertex shape-operator agreement across the family.

    The sorted spectra stored on the meshes are compared; misalignment is the
    angle of the principal directions away from the parameter axes, read off
    the off-diagonal grid each mesh stores with its spectrum.  Near-umbilic
    vertices (spectral gap below 1e-6) are left out of the angle statistic;
    SurfaceMesh.excluded counts them.  Differencing near the boundary is
    noisier, so the two outer rings of grid cells are dropped, as in
    lax.weingarten_scaling_report.
    """
    if len(meshes) < 2:
        raise ValueError("need at least two meshes to compare")
    core = (slice(2, -2),) * 2
    eigs = [m.eigenvalues[core] for m in meshes]
    eig_dev = 0.0
    for ea, eb in combinations(eigs, 2):
        eig_dev = max_abs(eig_dev, ea - eb)
    angle_dev = 0.0
    for m, ev in zip(meshes, eigs):
        gap = np.abs(ev[..., 1] - ev[..., 0])
        ok = gap >= 1e-6
        # In curvature-line parameters the operator should be diagonal; the
        # off-diagonal terms measure the rotation of its eigenframe.
        angle_dev = max_abs(angle_dev,
                            np.arctan2(m.off_diagonal[core][ok], gap[ok]))
    return {"eigenvalue_deviation": eig_dev, "misalignment_angle": angle_dev}


def mesh_nontriviality(mesh_a: SurfaceMesh, mesh_b: SurfaceMesh) -> float:
    """Largest vertex displacement left after the best proper rigid motion.

    The meshes share the chart parametrization, so vertices correspond one to
    one.  Both vertex sets are centered and mesh_b is turned by the rotation R
    (det R = +1) that best fits it to mesh_a in least squares (Kabsch, Acta
    Cryst. A32, 1976); the result is the largest |B R - A| over the vertices.
    It is zero exactly when a rigid motion carries one mesh onto the other,
    and a mirror image is not a rigid motion.  Non-finite vertices raise
    ValueError.
    """
    A = mesh_a.vertices.reshape(-1, 3)
    B = mesh_b.vertices.reshape(-1, 3)
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("mesh vertices must be finite")
    A = A - A.mean(axis=0)
    B = B - B.mean(axis=0)
    U, _, Vt = np.linalg.svd(B.T @ A)
    if np.linalg.det(U @ Vt) < 0:
        U[:, -1] = -U[:, -1]
    return max_abs(np.linalg.norm(B @ (U @ Vt) - A, axis=1))


def seed_surface_model(chart: Chart | None = None) -> SurfaceModel:
    """A closed-form model satisfying every structure equation exactly.

    H1 = 1, H2 = R1, b12 = 1, b21 = 0 solve the structure equations with
    eta1 = 5 - R1^2 and any eta2 = eta2(R2); the box keeps both denominators
    positive and away from poles for every shift lam > -1.
    """
    if chart is None:
        chart = Chart(2, ((0.5, 1.5), (0.0, 1.0)), (33, 33))
    return SurfaceModel.from_text("1", "R1^2", "5-R1^2", "1+R2^2", chart)
