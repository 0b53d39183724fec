import numpy as np
import pytest

from pencil_lab.expr import parse_expr
from pencil_lab.grids import (_C_LEFT, _C_MID, Chart, GridError, cumint,
                              deriv, eval_grid, max_abs)
from pencil_lab.march import MarchError, Unknown, solve_compatible


def test_deriv_fourth_order():
    errs = []
    for m in (17, 33):
        ch = Chart(1, ((0.0, 1.0),), (m,))
        x = ch.axes()[0]
        f = np.sin(3 * x)
        df = deriv(f, 0, ch.spacing()[0])
        errs.append(np.max(np.abs(df - 3 * np.cos(3 * x))))
    assert errs[0] / errs[1] > 12.0


def test_cumint_fourth_order():
    errs = []
    for m in (17, 33):
        ch = Chart(1, ((0.0, 1.0),), (m,))
        x = ch.axes()[0]
        F = cumint(np.cos(4 * x), 0, ch.spacing()[0])
        errs.append(np.max(np.abs(F - np.sin(4 * x) / 4)))
    assert errs[0] / errs[1] > 12.0


def test_cumint_polynomial_exact():
    ch = Chart(1, ((0.0, 2.0),), (9,))
    x = ch.axes()[0]
    F = cumint(x ** 3, 0, ch.spacing()[0])
    assert np.max(np.abs(F - x ** 4 / 4)) < 1e-13


def _cumint_loop(arr, axis, h):
    """Reference: the per-cell loop form of cumint, cell by cell."""
    a = np.moveaxis(np.asarray(arr), axis, 0)
    m = a.shape[0]
    cells = np.empty((m - 1,) + a.shape[1:], dtype=np.result_type(a, float))
    cells[0] = _C_LEFT[0] * a[0] + _C_LEFT[1] * a[1] + _C_LEFT[2] * a[2] + _C_LEFT[3] * a[3]
    for i in range(1, m - 2):
        cells[i] = (_C_MID[0] * a[i - 1] + _C_MID[1] * a[i]
                    + _C_MID[2] * a[i + 1] + _C_MID[3] * a[i + 2])
    cells[m - 2] = (_C_LEFT[0] * a[m - 1] + _C_LEFT[1] * a[m - 2]
                    + _C_LEFT[2] * a[m - 3] + _C_LEFT[3] * a[m - 4])
    out = np.empty_like(a, dtype=cells.dtype)
    out[0] = 0.0
    np.cumsum(cells, axis=0, out=out[1:])
    out *= h
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("shape", [(17, 9), (4, 6), (5, 5), (9, 7, 6),
                                   (4, 5, 6), (33, 1), (33, 1, 1),
                                   (33, 33, 1)])
def test_cumint_matches_loop_bytes(shape):
    rng = np.random.default_rng(sum(shape))
    arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    for axis in range(len(shape)):
        if shape[axis] < 4:
            continue
        got = cumint(arr, axis, 0.1)
        want = _cumint_loop(arr, axis, 0.1)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    # a strided view takes the same path
    view = np.swapaxes(arr, 0, -1)
    if view.shape[0] >= 4:
        assert cumint(view, 0, 0.3).tobytes() == _cumint_loop(view, 0, 0.3).tobytes()


def test_chart_mesh_is_cached_and_read_only():
    ch = Chart(2, ((0.0, 1.0), (-1.0, 2.0)), (9, 17))
    X, Y = ch.mesh()
    assert X is ch.mesh()[0] and ch.axes()[1] is ch.axes()[1]
    ref = np.meshgrid(np.linspace(0.0, 1.0, 9), np.linspace(-1.0, 2.0, 17),
                      indexing="ij")
    assert X.tobytes() == ref[0].tobytes() and Y.tobytes() == ref[1].tobytes()
    with pytest.raises(ValueError):
        X[0, 0] = 5.0
    with pytest.raises(ValueError):
        ch.axes()[0][:] = 0.0
    ch.mesh().append(None)  # the returned list is the caller's own
    assert len(ch.mesh()) == 2


def test_chart_guards():
    with pytest.raises(GridError):
        Chart(1, ((1.0, 0.0),), (9,))
    with pytest.raises(GridError):
        Chart(1, ((0.0, 1.0),), (3,))


def test_linear_transport():
    # d_1 u = u with u = exp(R2) on the second-coordinate line: u = exp(R1+R2)
    ch = Chart(2, ((0.0, 1.0), (0.0, 1.0)), (33, 33))
    u = Unknown("u", {0: lambda s, m: s["u"]}, free_axis=1,
                boundary=parse_expr("exp(R2)", 2))
    sol = solve_compatible(ch, [u])
    X, Y = ch.mesh()
    assert np.max(np.abs(sol["u"] - np.exp(X + Y))) < 2e-7


def test_coupled_pair_and_path_independence():
    # d_1 a = b, d_1 b = -a with line data a=cos R2, b=sin R2:
    # a = cos(R1 - R2)... solved exactly by a=cos(R2-R1)? d_1 a = sin(R2-R1)=b?
    # pick a = cos(R1+R2), b = -sin(R1+R2) instead and check both orders.
    ch = Chart(2, ((0.0, 1.0), (0.0, 1.0)), (33, 33))
    unknowns = [
        Unknown("a", {0: lambda s, m: s["b"],
                      1: lambda s, m: s["b"]}, free_axis=None, boundary=1.0),
        Unknown("b", {0: lambda s, m: -s["a"],
                      1: lambda s, m: -s["a"]}, free_axis=None, boundary=0.0),
    ]
    sol1 = solve_compatible(ch, unknowns)
    sol2 = solve_compatible(ch, unknowns, order=(1, 0))
    X, Y = ch.mesh()
    assert np.max(np.abs(sol1["a"] - np.cos(X + Y))) < 1e-7
    assert np.max(np.abs(sol1["b"] + np.sin(X + Y))) < 1e-7
    assert np.max(np.abs(sol1["a"] - sol2["a"])) < 1e-9


def test_blowup_guard():
    ch = Chart(2, ((0.0, 4.0), (0.0, 4.0)), (17, 17))
    u = Unknown("u", {0: lambda s, m: s["u"] ** 2, 1: lambda s, m: 0.0 * s["u"]},
                free_axis=None, boundary=1.0)
    with pytest.raises(MarchError):
        solve_compatible(ch, [u], blowup=1e3)


def test_nan_state_is_not_a_fixed_point():
    ch = Chart(2, ((0.0, 1.0), (0.0, 1.0)), (9, 9))
    u = Unknown("u", {0: lambda s, m: np.where(m[0] > 0.5, np.nan, 0.0),
                      1: lambda s, m: 0.0 * s["u"]},
                free_axis=None, boundary=1.0)
    with pytest.raises(MarchError, match="blow-up guard or is not finite"):
        solve_compatible(ch, [u])


@pytest.mark.parametrize("arrays", [([np.nan],), ([1.0, np.nan],),
                                    ([np.nan], [2.0]), ([2.0], [np.nan])])
def test_max_abs_propagates_nan(arrays):
    assert np.isnan(max_abs(*arrays))


def test_max_abs_values():
    assert max_abs() == 0.0
    assert max_abs([], [-3.0, 1.0], [2.0]) == 3.0


def test_boundary_expr_reproduced_exactly():
    ch = Chart(2, ((0.0, 1.0), (0.0, 2.0)), (17, 17))
    u = Unknown("u", {0: lambda s, m: np.zeros(ch.shape)}, free_axis=1,
                boundary=parse_expr("1+R2^2", 2))
    sol = solve_compatible(ch, [u])
    y = ch.axes()[1]
    assert np.max(np.abs(sol["u"][0, :] - (1 + y ** 2))) == 0.0
