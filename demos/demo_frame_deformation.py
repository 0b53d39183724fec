"""Deform an orthogonal coordinate system through the spectral shift.

Shifting every denominator by the same parameter keeps the diagonal metric
flat, and the frame equations become a shift-dependent linear connection.
We verify its zero-curvature condition across a sweep, integrate the frame
and position vector, and watch the coordinate-slice principal curvatures
rescale by the predicted closed-form factor.
"""

import numpy as np

from pencil_lab import (
    BoundaryData, Chart, DiagonalModel, build_lax, induced_metric_residual,
    integrate_frame, solve_S, solve_lame, weingarten_scaling_report,
    zero_curvature_residual,
)

chart = Chart(3, ((0.0, 1.0),) * 3, (17,) * 3)
model = DiagonalModel.constant([1.0, 2.0, 4.0])
bd = BoundaryData.from_text(
    {(0, 1): "0.2", (1, 0): "0.1*R1", (2, 0): "0.15",
     (0, 2): "0.1+0.05*R3", (1, 2): "0.2", (2, 1): "0.25"}, 3)
eta = model.eta_grids(chart)  # evaluated once, shared by every shift
beta, _ = solve_S(model, bd, chart, eta)
H = solve_lame(beta, chart, {0: "1", 1: "1", 2: "1"})

print("shift   curvature    orthogonality  induced metric")
frames = {}
for lam in (0.0, 0.5, 1.0, 2.0, 5.0):
    conn = build_lax(eta, beta, chart, lam)
    zc = zero_curvature_residual(conn, chart)
    fs = integrate_frame(conn, eta, H, chart)
    im = induced_metric_residual(fs, eta, H, chart)
    frames[lam] = fs
    print(f"{lam:5.1f}   {zc:.3e}    {fs.ortho_drift:.3e}      {im:.3e}")

rep = weingarten_scaling_report(eta, beta, H, chart, 1.0, 0.0,
                                frames=(frames[1.0], frames[0.0]))
lo, hi = rep["scaling_factor_range"]
print(f"\ncurvature scaling between shifts 1 and 0: factor {lo:.6f}")
print(f"closed-form residual {rep['closed_form_residual']:.3e}, "
      f"mesh estimate {rep['mesh_eigen_residual_a']:.3e}")

# breaking one coefficient destroys integrability visibly
broken = dict(beta)
broken[(0, 1)] = beta[(0, 1)] + 0.1
bad = zero_curvature_residual(build_lax(eta, broken, chart, 1.0), chart)
print(f"\nperturbed coefficients: curvature residual {bad:.3e}")
