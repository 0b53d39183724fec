"""Walk through the compatibility pipeline on a pair of flat metrics.

The first metric is Euclidean, the second is diagonal with each entry a
function of its own coordinate.  We build the pencil operator, run the two
operator-level criteria, derive the second set of connection coefficients
from the pencil, and finish with a sweep over linear combinations.
"""

import numpy as np

from pencil_lab import (
    Chart, MetricField, check_pencil, check_theorem1,
    levi_civita_operator, parse_expr, pencil_operator, verify_appendix,
)
from pencil_lab.geometry import eval_array

box = Chart(2, ((0.0, 1.0), (0.0, 1.0)), (17, 17))
g = MetricField.euclidean(2)
gt = MetricField.diagonal_contravariant(
    [parse_expr("1+R1^2", 2), parse_expr("3+R2^2", 2)])

p = pencil_operator(g, gt)
t1 = check_theorem1(p, box)
print("operator criteria:")
for name, value in t1.residuals.items():
    print(f"  {name:18s} {value:.3e}  [{t1.verdict_for(name)}]")

bt = p.At.b      # b̃, built once by btilde_from_r and kept on the pencil
lc = levi_civita_operator(gt).b
dev = np.max(np.abs(eval_array(bt, box) - eval_array(lc, box)))
print(f"derived connection vs Levi-Civita: {dev:.3e}")

app = verify_appendix(p, box)
print(f"symmetry identities: I1 {app.residuals['I1']:.3e}, "
      f"I2 {app.residuals['I2']:.3e}")

pc = check_pencil(levi_civita_operator(g), levi_civita_operator(gt), box,
                  (0.0, 0.75, 1.5, 2.25, 3.0))
print(f"bilinear conditions: C1 {pc.residuals['C1']:.3e}, "
      f"C2 {pc.residuals['C2']:.3e}")
print(f"sweep over {pc.lambdas_used}: "
      f"{pc.residuals['lambda_sweep']:.3e}  -> {pc.verdict}")

# a deliberately broken second metric for contrast
bad = MetricField.diagonal_contravariant(
    [parse_expr("R2", 2), parse_expr("R1", 2)])
box_pos = Chart(2, ((0.5, 1.5), (0.5, 1.5)), (17, 17))
t1_bad = check_theorem1(pencil_operator(g, bad), box_pos)
print(f"swapped-entry control: nijenhuis "
      f"{t1_bad.residuals['nijenhuis']:.3e}  -> {t1_bad.verdict}")
