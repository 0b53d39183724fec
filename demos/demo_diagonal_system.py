"""Integrate the rotation-coefficient system and its conserved densities.

Rotation coefficients of a flat diagonal metric satisfy an overdetermined
first-order system once the shift-invariance identity is resolved for the
derivatives.  Each coefficient is freely prescribed along one coordinate
line; the rest of the box is filled by compatible marches.  With constant
denominators the combinations P_i are conserved along the other axes, and
the three-component case admits an exact trigonometric parametrization.
"""

import numpy as np

from pencil_lab import (
    BoundaryData, Chart, DiagonalModel, beta_from_pqr, conserved_P,
    flatness_residuals, integrate_S2, mu_constants, pencil_residual_F3,
    solve_S,
)

chart = Chart(3, ((0.0, 1.0),) * 3, (17,) * 3)
model = DiagonalModel.constant([1.0, 2.0, 4.0])
bd = BoundaryData.from_text(
    {(0, 1): "0.2", (1, 0): "0.1*R1", (2, 0): "0.15",
     (0, 2): "0.1+0.05*R3", (1, 2): "0.2", (2, 1): "0.25"}, 3)

eta, etap = model.eta_grids(chart), model.eta_prime_grids(chart)
beta, egorov = solve_S(bd, chart, eta, etap)
f1, f2 = flatness_residuals(beta, chart)
f3 = pencil_residual_F3(beta, chart, eta, etap)
print(f"flatness residuals: {f1:.3e} {f2:.3e}, shift identity {f3:.3e}")
print(f"symmetric coefficients: {egorov}")

P, drift = conserved_P(model, beta, chart)
print(f"conservation drift max|d_j P_i| = {drift:.3e}")
print("P at the corner:", [f"{p[0, 0, 0]:+.4f}" for p in P])

# the exact parametrization: angles p, q, r feed sin/sinh combinations that
# fix P = (1, 1, -1) pointwise
c = (1.0, 2.0, 4.0)
mus = mu_constants(*c)
sol, consistency = integrate_S2(chart, "0", "0", "0", mus=mus)
bp = beta_from_pqr(sol, *c)
Pp, _ = conserved_P(model, bp, chart)
print(f"angle-system consistency: {consistency:.3e}")
print("parametrized P deviation from (1, 1, -1):",
      f"{max(np.max(np.abs(Pp[0] - 1)), np.max(np.abs(Pp[1] - 1)), np.max(np.abs(Pp[2] + 1))):.3e}")

fb1, fb2 = flatness_residuals(bp, chart)
print(f"parametrized coefficients flatness: {fb1:.3e} {fb2:.3e}")
