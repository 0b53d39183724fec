"""Build a one-parameter family of surfaces sharing a Weingarten operator.

A surface is encoded by the metric of its Gauss image, written as a flat
diagonal metric divided entrywise by functions of single coordinates.
Shifting the denominators sweeps out metrics of curvature one, and carrying
the same radii of principal curvature across the shifts reconstructs a
family of genuinely different surfaces with identical shape operators.
"""

from pencil_lab import (
    constant_curvature_check, mesh_nontriviality, reconstruct_family,
    seed_surface_model, solve_codazzi, weingarten_family_compare,
)

model = seed_surface_model()
print("validation problems:", model.validate() or "none")

shifts = (0.0, 0.5, 1.0)
for lam in shifts:
    dev = constant_curvature_check(model, lam)
    print(f"shift {lam:3.1f}: curvature-one deviation {dev:.3e}")

G11, G22 = model.shifted_form(0.0)
curv = solve_codazzi(G11, G22, "2+2*R1", "2.5", model.chart)
print(f"radii transport residual: {curv.pc:.3e}")

meshes = []
for lam in shifts:  # one member per shift: both linear systems and the mesh
    r3, r2, mesh = reconstruct_family(model, curv, lam)
    print(f"shift {lam:3.1f}: linear systems 3x3 {r3:.3e}, 2x2 {r2:.3e}; "
          f"normal drift {mesh.normal_unit_drift():.3e}, near-umbilic "
          f"vertices {mesh.excluded}")
    meshes.append(mesh)

wg = weingarten_family_compare(meshes)
print(f"eigenvalue deviation across the family: "
      f"{wg['eigenvalue_deviation']:.3e}")
print(f"principal-direction misalignment: "
      f"{wg['misalignment_angle']:.3e} rad")
move = mesh_nontriviality(meshes[0], meshes[-1])
print(f"largest vertex displacement after the best rigid motion: "
      f"{move:.3f}")
