import numpy as np
import pytest

from pencil_lab.expr import ONE, Const, div, evaluate, parse_expr
from pencil_lab.geometry import (
    MetricField, covariant_derivative, eval_array, expr_array, grid_max,
    nijenhuis, raise_index, riemann_max,
)
from pencil_lab.grids import Chart, max_abs


def _p(t, n=2):
    return parse_expr(t, n)


def _diagonal_covariant(entries):
    """The metric whose covariant entries g_{ii} are ``entries``."""
    n = len(entries)
    gU, gL = expr_array((n, n)), expr_array((n, n))
    for i, e in enumerate(entries):
        gL[i, i] = e
        gU[i, i] = div(ONE, e)
    return MetricField(n, gU, gL)


@pytest.fixture
def box2():
    return Chart(2, ((1.0, 2.0), (1.0, 2.0)), (9, 9))


def test_polar_christoffel(box2):
    g = _diagonal_covariant([_p("1"), _p("R1^2")])
    gam = g.gamma
    pt = (1.3, 0.7)
    assert evaluate(gam[0, 1, 1], pt) == pytest.approx(-1.3)
    assert evaluate(gam[1, 0, 1], pt) == pytest.approx(1 / 1.3)
    assert evaluate(gam[0, 0, 0], pt) == 0.0


def test_reciprocal_coordinate_metric_connection(box2):
    # covariant entries 1/R^i give the halved logarithmic connection terms
    g = MetricField.diagonal_contravariant([_p("R1"), _p("R2")])
    gam = g.gamma
    assert evaluate(gam[0, 0, 0], (1.3, 0.7)) == pytest.approx(-1 / 2.6)


def test_flatness(box2):
    flat = _diagonal_covariant([_p("1"), _p("R1^2")])
    assert riemann_max(flat, box2) < 1e-12
    assert riemann_max(flat, box2) <= 1e-8 * (1 + grid_max(flat.gU, box2))
    sphere = _diagonal_covariant([_p("1"), _p("sin(R1)^2")])
    assert riemann_max(sphere, box2) > 0.5
    assert riemann_max(sphere, box2) > 1e-8 * (1 + grid_max(sphere.gU, box2))


def test_metric_compatibility(box2):
    g = _diagonal_covariant([_p("1"), _p("R1^2")])
    D = covariant_derivative(g.gL, "dd", g)
    assert grid_max(D, box2) < 1e-13


def test_raise_index_roundtrip(box2):
    g = _diagonal_covariant([_p("R1"), _p("R2^2")])
    T = g.gL
    up = raise_index(T, 0, g)
    for i in range(2):
        for j in range(2):
            want = 1.0 if i == j else 0.0
            got = evaluate(up[i, j], (1.5, 1.2))
            assert got == pytest.approx(want, abs=1e-14)


def test_nijenhuis_diagonal_in_own_coordinates(box2):
    r = expr_array((2, 2))
    r[0, 0] = _p("R1")
    r[1, 1] = _p("R2")
    r[0, 1] = r[1, 0] = _p("0")
    assert grid_max(nijenhuis(r), box2) < 1e-15


def test_nijenhuis_swapped_eigenvalues(box2):
    r = expr_array((2, 2))
    r[0, 0] = _p("R2")
    r[1, 1] = _p("R1")
    r[0, 1] = r[1, 0] = _p("0")
    N = nijenhuis(r)
    assert evaluate(N[0, 0, 1], (1.3, 0.7)) == pytest.approx(0.7 - 1.3)
    assert grid_max(nijenhuis(r), box2) == pytest.approx(1.0)


def test_nijenhuis_connection_independent(box2):
    # replacing partials by covariant derivatives of any torsion-free
    # metric connection leaves the tensor unchanged
    r = expr_array((2, 2))
    r[0, 0] = _p("R1+R2")
    r[1, 1] = _p("R1*R2")
    r[0, 1] = _p("R2")
    r[1, 0] = _p("1")
    g = _diagonal_covariant([_p("1"), _p("R1^2")])
    plain = eval_array(nijenhuis(r), box2)
    twisted = eval_array(nijenhuis(r, g), box2)
    assert np.max(np.abs(plain - twisted)) < 1e-12


def test_second_covariant_derivative_shape(box2):
    g = MetricField.euclidean(2)
    T = g.gU
    D1 = covariant_derivative(T, "uu", g)
    D2 = covariant_derivative(D1, "duu", g)
    assert D2.shape == (2, 2, 2, 2)
    assert grid_max(D2, box2) == 0.0


def test_grid_max_equals_max_abs_of_the_dense_array(box2):
    A = expr_array((2, 2, 2))
    assert grid_max(A, box2) == max_abs(eval_array(A, box2)) == 0.0
    A[0, 1, 0] = _p("R1-3")
    A[1, 1, 1] = _p("R2^2")
    assert grid_max(A, box2) == max_abs(eval_array(A, box2)) == 4.0
    A[0, 0, 1] = Const(float("nan"))      # folded first, then larger values
    assert np.isnan(grid_max(A, box2))
    assert np.isnan(max_abs(eval_array(A, box2)))
