import numpy as np
import pytest

from pencil_lab.diagonal import (
    BoundaryData, DiagonalModel, beta_from_pqr, conserved_P,
    flatness_residuals, integrate_S2, monge_ampere_residual, mu_constants,
    pencil_residual_F3, solve_S, solve_lame,
)
from pencil_lab.expr import evaluate
from pencil_lab.grids import Chart
from pencil_lab.march import MarchError
from pencil_lab.surface import seed_surface_model

ETAS3 = [0.0, 1.0, 3.0]
BD3 = {(0, 1): "0.2", (1, 0): "0.1*R1", (2, 0): "0.15",
       (0, 2): "0.1+0.05*R3", (1, 2): "0.2", (2, 1): "0.25"}


def _chart3(m=17):
    return Chart(3, ((0.0, 1.0),) * 3, (m,) * 3)


def _etas(model, chart):
    """The grids of the etas and of their derivatives, as solve_S takes them."""
    return model.eta_grids(chart), model.eta_prime_grids(chart)


def test_model_validates_eta_dependence():
    DiagonalModel.from_text(["R1", "R2^2"], 2)
    with pytest.raises(ValueError):
        DiagonalModel.from_text(["R2", "R2"], 2)


def test_boundary_data_validates_coordinates():
    BoundaryData.from_text({(0, 1): "R2", (1, 0): "1"}, 2)
    with pytest.raises(ValueError):
        BoundaryData.from_text({(0, 1): "R1"}, 2)
    with pytest.raises(ValueError):
        BoundaryData.from_text({(0, 0): "1"}, 2)


def test_lame_from_metric_values():
    # g11 = 1, g22 = R1^2: H = (1, R1), beta_12 = d_1 H2 / H1 = 1, beta_21 = 0
    H1, H2, b12, b21 = seed_surface_model().lame_beta()
    pt = (1.2, 0.3)
    assert evaluate(H1, pt) == pytest.approx(1.0)
    assert evaluate(H2, pt) == pytest.approx(1.2)
    assert evaluate(b12, pt) == pytest.approx(1.0)
    assert evaluate(b21, pt) == 0.0


def test_flatness_zero_beta():
    ch = _chart3(9)
    zero = {(i, j): np.zeros(ch.shape)
            for i in range(3) for j in range(3) if i != j}
    assert flatness_residuals(zero, ch) == (0.0, 0.0)


def test_two_component_constant_case():
    # with constant etas and two components the resolved equations force
    # each coefficient to depend on its own line coordinate only
    ch = Chart(2, ((0.0, 1.0), (0.0, 1.0)), (17, 17))
    model = DiagonalModel.constant([0.0, 1.0])
    bd = BoundaryData.from_text({(0, 1): "0.3+0.1*R2", (1, 0): "0.2*R1"}, 2)
    beta, _ = solve_S(bd, ch, *_etas(model, ch))
    y = ch.axes()[1]
    x = ch.axes()[0]
    assert np.max(np.abs(beta[(0, 1)] - (0.3 + 0.1 * y)[None, :])) < 1e-10
    assert np.max(np.abs(beta[(1, 0)] - (0.2 * x)[:, None])) < 1e-10


def test_solver_residuals_and_boundary():
    ch = _chart3()
    model = DiagonalModel.constant(ETAS3)
    bd = BoundaryData.from_text(BD3, 3)
    eta, etap = _etas(model, ch)
    beta, egorov = solve_S(bd, ch, eta, etap)
    f1, f2 = flatness_residuals(beta, ch)
    f3 = pencil_residual_F3(beta, ch, eta, etap)
    assert max(f1, f2, f3) < 1e-6
    assert not egorov
    # line data reproduced on the free lines
    assert np.max(np.abs(beta[(0, 1)][0, :, 0] - 0.2)) < 1e-12
    x = ch.axes()[0]
    assert np.max(np.abs(beta[(1, 0)][:, 0, 0] - 0.1 * x)) < 1e-12


def test_solver_convergence_order():
    model = DiagonalModel.constant(ETAS3)
    bd = BoundaryData.from_text(BD3, 3)
    res = []
    for m in (9, 17):
        ch = Chart(3, ((0.0, 1.0),) * 3, (m,) * 3)
        eta, etap = _etas(model, ch)
        beta, _ = solve_S(bd, ch, eta, etap)
        f1, f2 = flatness_residuals(beta, ch)
        res.append(max(f1, f2, pencil_residual_F3(beta, ch, eta, etap)))
    assert res[0] / res[1] > 12.0


def test_path_independence():
    ch = _chart3()
    model = DiagonalModel.constant(ETAS3)
    bd = BoundaryData.from_text(BD3, 3)
    a, _ = solve_S(bd, ch, *_etas(model, ch))
    b, _ = solve_S(bd, ch, *_etas(model, ch), order=(2, 1, 0))
    worst = max(np.max(np.abs(a[k] - b[k])) for k in a)
    assert worst < 1e-5


def test_variable_eta_solution():
    model = DiagonalModel.from_text(["R1", "2+R2^2", "6+R3"], 3)
    bd = BoundaryData.from_text(BD3, 3)
    res = []
    for m in (17, 33):
        ch = _chart3(m)
        eta, etap = _etas(model, ch)
        beta, _ = solve_S(bd, ch, eta, etap)
        f1, f2 = flatness_residuals(beta, ch)
        res.append(max(f1, f2, pencil_residual_F3(beta, ch, eta, etap)))
    assert res[0] < 2e-4
    assert res[0] / res[1] > 8.0


def test_spectrum_collision_rejected():
    ch = _chart3(9)
    model = DiagonalModel.from_text(["R1", "0.5", "3"], 3)
    bd = BoundaryData.from_text(BD3, 3)
    with pytest.raises(MarchError):
        solve_S(bd, ch, *_etas(model, ch))


def test_rescaling_symmetry():
    # stretching each coordinate by 2 while halving the line data gives the
    # solution at the stretched points, scaled by one half
    model = DiagonalModel.constant(ETAS3)
    bd = BoundaryData.from_text(BD3, 3)
    ch = _chart3()
    beta, _ = solve_S(bd, ch, *_etas(model, ch))
    ch2 = Chart(3, ((0.0, 2.0),) * 3, ch.shape)
    half = {k: f"0.5*({t})" for k, t in BD3.items()}
    half = {k: t.replace("R1", "(0.5*R1)").replace("R3", "(0.5*R3)")
            for k, t in half.items()}
    bd2 = BoundaryData.from_text(half, 3)
    beta2, _ = solve_S(bd2, ch2, *_etas(model, ch2))
    worst = max(np.max(np.abs(beta2[k] - 0.5 * beta[k])) for k in beta)
    assert worst < 1e-8


def test_lame_integration():
    ch = _chart3()
    model = DiagonalModel.constant(ETAS3)
    bd = BoundaryData.from_text(BD3, 3)
    beta, _ = solve_S(bd, ch, *_etas(model, ch))
    H = solve_lame(beta, ch, {0: "1", 1: "1", 2: "1"})
    from pencil_lab.grids import deriv
    h = ch.spacing()
    worst = 0.0
    for j in range(3):
        for i in range(3):
            if i != j:
                worst = max(worst, np.max(np.abs(
                    deriv(H[j], i, h[i]) - beta[(i, j)] * H[i])))
    assert worst < 1e-6


def test_conserved_quantities():
    ch = _chart3()
    model = DiagonalModel.constant(ETAS3)
    bd = BoundaryData.from_text(BD3, 3)
    beta, _ = solve_S(bd, ch, *_etas(model, ch))
    P, drift = conserved_P(model, beta, ch)
    assert drift < 1e-6
    # corner value by direct substitution
    want = (1.0 - 0.0) * 0.0 ** 2 + (3.0 - 0.0) * 0.15 ** 2
    assert P[0][0, 0, 0] == pytest.approx(want)


def test_mu_values():
    mu = mu_constants(0.0, 1.0, 2.0)
    assert mu[0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert mu[1] == pytest.approx(np.sqrt(2), abs=1e-12)
    assert mu[2] == pytest.approx(mu[0], abs=1e-15)
    with pytest.raises(ValueError):
        mu_constants(0.0, 1.0, 1.0)


def test_angle_system_consistency_and_parametrization():
    ch = _chart3(17)
    c = (0.0, 1.0, 3.0)
    mus = mu_constants(*c)
    sol, cons = integrate_S2(ch, "1.5707963267948966", "0", "0", mus=mus)
    assert cons < 1e-4
    beta = beta_from_pqr(sol, *c)
    model = DiagonalModel.constant(list(c))
    f1, f2 = flatness_residuals(beta, ch)
    f3 = pencil_residual_F3(beta, ch, *_etas(model, ch))
    assert max(f1, f2, f3) < 2e-4
    P, drift = conserved_P(model, beta, ch)
    assert np.max(np.abs(P[0] - 1.0)) < 1e-12
    assert np.max(np.abs(P[1] - 1.0)) < 1e-12
    assert np.max(np.abs(P[2] + 1.0)) < 1e-12


def test_angle_system_linear_growth_on_frozen_line():
    # along the first axis the angle p has no equation, so from a constant
    # seed the potential q grows linearly on that line
    ch = _chart3(17)
    sol, _ = integrate_S2(ch, "0", "0", "0")
    x = ch.axes()[0]
    assert np.max(np.abs(sol["q"][:, 0, 0] - np.cos(0.0) * x)) < 1e-12


def test_monge_ampere_zero_grid_not_a_solution():
    ch = _chart3(9)
    sol = {"q": np.zeros(ch.shape)}
    m12, m13, m23 = monge_ampere_residual(sol, ch)
    assert m12 == pytest.approx(1.0)
    assert m23 == pytest.approx(0.0)


def test_monge_ampere_on_principal_branch():
    ch = _chart3(33)
    sol, _ = integrate_S2(ch, "1.5707963267948966", "0", "0")
    m12, m13, m23 = monge_ampere_residual(sol, ch)
    assert max(m12, m13, m23) < 1e-5


def test_shift_identity_matches_twisted_flatness():
    # replacing beta_ij by beta_ij sqrt(c_i/c_j) and multiplying the second
    # flatness form by sqrt(c_i c_j) reproduces the shift-invariance form,
    # so for constant positive etas the twisted coefficients are again flat
    ch = _chart3()
    c = [1.0, 2.0, 4.0]
    model = DiagonalModel.constant(c)
    bd = BoundaryData.from_text(BD3, 3)
    beta, _ = solve_S(bd, ch, *_etas(model, ch))
    twisted = {(i, j): beta[(i, j)] * np.sqrt(c[i] / c[j])
               for i in range(3) for j in range(3) if i != j}
    from pencil_lab.grids import deriv, max_abs
    h = ch.spacing()
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            f2 = (deriv(twisted[(i, j)], i, h[i])
                  + deriv(twisted[(j, i)], j, h[j]))
            f3 = (c[i] * deriv(beta[(i, j)], i, h[i])
                  + c[j] * deriv(beta[(j, i)], j, h[j]))
            for k in range(3):
                if k not in (i, j):
                    f2 = f2 + twisted[(k, i)] * twisted[(k, j)]
                    f3 = f3 + c[k] * beta[(k, i)] * beta[(k, j)]
            worst = max(worst, max_abs(np.sqrt(c[i] * c[j]) * f2 - f3))
    assert worst < 1e-12


@pytest.fixture(scope="module")
def beta9():
    ch = _chart3(9)
    model = DiagonalModel.constant(ETAS3)
    beta, _ = solve_S(BoundaryData.from_text(BD3, 3), ch, *_etas(model, ch))
    return model, beta, ch


@pytest.mark.parametrize("key", [(0, 1), (2, 1), (1, 2)])
def test_nan_beta_is_not_flat(beta9, key):
    model, beta, ch = beta9
    broken = dict(beta)
    broken[key] = np.full(ch.shape, np.nan)
    assert all(np.isnan(v) for v in flatness_residuals(broken, ch))
    assert np.isnan(pencil_residual_F3(broken, ch, *_etas(model, ch)))
    _, drift = conserved_P(model, broken, ch)
    assert np.isnan(drift)


@pytest.mark.parametrize("which", range(6))
def test_nan_in_any_angle_equation_reaches_consistency(monkeypatch, which):
    # the six consistency terms each difference one angle grid; a NaN in
    # any one of them must show in the folded residual
    import pencil_lab.diagonal as diagonal
    from pencil_lab.grids import deriv
    calls = []

    def nan_deriv(arr, axis, h):
        calls.append(axis)
        out = deriv(arr, axis, h)
        return out * np.nan if len(calls) == which + 1 else out

    monkeypatch.setattr(diagonal, "deriv", nan_deriv)
    _, cons = integrate_S2(_chart3(9), "0", "0", "0")
    assert len(calls) == 6 and np.isnan(cons)
