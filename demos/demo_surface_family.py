"""Build a one-parameter family of surfaces sharing a Weingarten operator.

A surface is encoded by the metric of its Gauss image, written as a flat
diagonal metric divided entrywise by functions of single coordinates.
Shifting the denominators sweeps out metrics of curvature one, and carrying
the same radii of principal curvature across the shifts reconstructs a
family of genuinely different surfaces with identical shape operators.
"""

import numpy as np

from pencil_lab import (
    constant_curvature_check, lax_residuals_3x3_2x2, mesh_nontriviality,
    reconstruct_family, seed_surface_model, solve_codazzi,
    weingarten_family_compare,
)

model = seed_surface_model(lambdas=(0.0, 0.5, 1.0))
print("validation problems:", model.validate() or "none")

cc = constant_curvature_check(model)
for lam, dev in cc.items():
    print(f"shift {lam:3.1f}: curvature-one deviation {dev:.3e}")

G11, G22 = model.shifted_form(0.0)
curv = solve_codazzi(G11, G22, "2+2*R1", "2.5", model.chart)
print(f"radii transport residual: {curv.pc:.3e}")

laxres = lax_residuals_3x3_2x2(*model.coefficient_grids, model.chart,
                               model.lambdas)
for lam, (r3, r2) in laxres.items():
    print(f"shift {lam:3.1f}: linear systems 3x3 {r3:.3e}, 2x2 {r2:.3e}")

meshes = reconstruct_family(model, curv)
for mesh in meshes:
    print(f"mesh at shift {mesh.lam:3.1f}: normal drift "
          f"{mesh.normal_unit_drift():.3e}, near-umbilic vertices "
          f"{mesh.excluded}")

wg = weingarten_family_compare(meshes)
print(f"eigenvalue deviation across the family: "
      f"{wg['eigenvalue_deviation']:.3e}")
print(f"principal-direction misalignment: "
      f"{wg['misalignment_angle']:.3e} rad")
move = mesh_nontriviality(meshes[0], meshes[-1])
print(f"largest vertex displacement after the best rigid motion: "
      f"{move:.3f}")
