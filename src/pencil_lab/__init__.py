"""Numerical laboratory for pencils of flat diagonal metrics.

Verifies when two first-order bracket operators form a compatible pencil,
integrates the rotation-coefficient system governing diagonal flat metrics,
builds the associated spectral-parameter frames and coordinate systems, and
reconstructs one-parameter families of surfaces in 3-space sharing their
shape operator.
"""

from .expr import (Expr, DomainError, ParseError, parse_expr, evaluate, diff,
                   to_text, coords_used)
from .grids import Chart, GridError, eval_grid, deriv, cumint, max_abs
from .geometry import (MetricField, GeometryError, christoffel, riemann_max,
                       covariant_derivative, raise_index, nijenhuis)
from .march import (MarchError, PoleError, Unknown, shift, path_integral,
                    solve_compatible)
from .compat import (HamiltonianOperator, PencilOperator, ComplianceReport,
                     levi_civita_operator, check_hamiltonian, pencil_operator,
                     btilde_from_r, check_theorem1, check_pencil,
                     verify_appendix)
from .diagonal import (DiagonalModel, BoundaryData, flatness_residuals,
                       pencil_residual_F3, solve_S, solve_lame, conserved_P,
                       mu_constants, integrate_S2, monge_ampere_residual,
                       beta_from_pqr)
from .lax import (FrameSolution, FrameSlice, build_lax,
                  zero_curvature_residual, integrate_frame,
                  induced_metric_residual, frame_slice,
                  hypersurface_curvatures, weingarten_scaling_report)
from .surface import (SurfaceModel, CurvatureData, SurfaceMesh,
                      seed_surface_model, gaussian_curvature_expr,
                      constant_curvature_check, pc_residual, solve_codazzi,
                      lax_residuals_3x3_2x2, reconstruct_family,
                      weingarten_family_compare, mesh_nontriviality)

__version__ = "0.1.0"
