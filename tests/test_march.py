import numpy as np
import pytest

from pencil_lab.expr import parse_expr
from pencil_lab.grids import (_C_LEFT, _C_MID, Chart, GridError, cumint,
                              deriv, eval_grid, max_abs)
from pencil_lab.march import (POLE_GUARD, MarchError, PoleError, Unknown,
                              check_shift, path_integral, position_vector,
                              solve_compatible, solve_frame)


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


@pytest.mark.parametrize("text", ["2.5", "-0", "sqrt(2)*3"])
def test_constant_grid_is_a_read_only_zero_stride_view(text):
    ch = Chart(3, ((0.0, 1.0),) * 3, (5, 6, 7))
    grid = eval_grid(parse_expr(text, 3), ch)
    full = np.full(ch.shape, grid[0, 0, 0])
    assert grid.shape == ch.shape and grid.strides == (0, 0, 0)
    assert not grid.flags.writeable
    assert grid.tobytes() == full.tobytes()
    with pytest.raises(ValueError):
        grid += 1.0
    # an expression with a coordinate still gives a fresh writable array
    fresh = eval_grid(parse_expr("R2 + 0", 3), ch)
    assert fresh.flags.writeable and fresh is not ch.mesh()[1]


def test_chart_guards():
    with pytest.raises(GridError):
        Chart(1, ((1.0, 0.0),), (9,))
    with pytest.raises(GridError):
        Chart(1, ((0.0, 1.0),), (3,))


def test_linear_transport():
    # d_1 u = u with u = exp(R2) on the second-coordinate line: u = exp(R1+R2)
    ch = Chart(2, ((0.0, 1.0), (0.0, 1.0)), (33, 33))
    u = Unknown("u", {0: lambda s, i: s["u"][i]}, free_axis=1,
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
        Unknown("a", {0: lambda s, i: s["b"][i],
                      1: lambda s, i: s["b"][i]}, free_axis=None, boundary=1.0),
        Unknown("b", {0: lambda s, i: -s["a"][i],
                      1: lambda s, i: -s["a"][i]}, free_axis=None, boundary=0.0),
    ]
    sol1 = solve_compatible(ch, unknowns)
    sol2 = solve_compatible(ch, unknowns, order=(1, 0))
    X, Y = ch.mesh()
    assert np.max(np.abs(sol1["a"] - np.cos(X + Y))) < 1e-7
    assert np.max(np.abs(sol1["b"] + np.sin(X + Y))) < 1e-7
    assert np.max(np.abs(sol1["a"] - sol2["a"])) < 1e-9


def test_blowup_guard():
    ch = Chart(2, ((0.0, 4.0), (0.0, 4.0)), (17, 17))
    u = Unknown("u", {0: lambda s, i: s["u"][i] ** 2, 1: lambda s, i: 0.0 * s["u"][i]},
                free_axis=None, boundary=1.0)
    with pytest.raises(MarchError):
        solve_compatible(ch, [u])


def test_nan_state_is_not_a_fixed_point():
    ch = Chart(2, ((0.0, 1.0), (0.0, 1.0)), (9, 9))
    u = Unknown("u", {0: lambda s, i: np.where(ch.mesh()[0][i] > 0.5, np.nan, 0.0),
                      1: lambda s, i: 0.0 * s["u"][i]},
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
    u = Unknown("u", {0: lambda s, i: np.zeros(ch.shape)[i]}, free_axis=1,
                boundary=parse_expr("1+R2^2", 2))
    sol = solve_compatible(ch, [u])
    y = ch.axes()[1]
    assert np.max(np.abs(sol["u"][0, :] - (1 + y ** 2))) == 0.0


@pytest.mark.parametrize("order,free,want", [
    ((0, 1, 2), None, [(9, 1, 1), (9, 9, 1), (9, 9, 9)]),
    ((2, 0, 1), None, [(1, 1, 9), (9, 1, 9), (9, 9, 9)]),
    ((0, 1, 2), 1, [(9, 9, 1), (9, 9, 9)]),
    ((1, 2, 0), 0, [(9, 9, 1), (9, 9, 9)]),
])
def test_legs_receive_slabs(order, free, want):
    ch = Chart(3, ((0.0, 1.0),) * 3, (9,) * 3)
    log = []

    def record(state, idx):
        log.append(ch.mesh()[0][idx].shape)
        return np.ones(log[-1])

    u = Unknown("u", {k: record for k in range(3) if k != free},
                free_axis=free)
    path_integral(ch, u, order)
    assert log == want
    log.clear()
    solve_compatible(ch, [u], order=order)
    assert log == want * 2  # the second sweep finds the fixed point


def test_path_integral_is_one_exact_pass():
    # A state-independent rhs: one pass equals the fixed point, bit for bit.
    ch = Chart(2, ((0.0, 1.0), (0.0, 2.0)), (17, 9))
    X, Y = ch.mesh()
    rhs = {0: lambda s, i: np.cos(X[i] * Y[i]),
           1: lambda s, i: X[i] ** 2 - Y[i]}
    one = path_integral(ch, Unknown("u", rhs, boundary=0.5))
    fixed = solve_compatible(ch, [Unknown("u", rhs, boundary=0.5)])["u"]
    assert one.flags.c_contiguous and one.tobytes() == fixed.tobytes()


def test_vector_unknown_matches_stacked_scalars():
    # u' = w u componentwise and w' = 0.3 cos(u_0 u_1): the vector unknown
    # must sweep exactly like its stacked scalar components.
    ch = Chart(3, ((0.0, 0.5),) * 3, (9,) * 3)
    corner = np.array([1.0, -0.5])

    def w_rhs(u0, u1):
        return lambda s, i: 0.3 * np.cos(u0(s)[i] * u1(s)[i])

    vector = [
        Unknown("u", {k: lambda s, i: s["w"][i][..., None] * s["u"][i]
                      for k in range(3)}, boundary=corner),
        Unknown("w", {k: w_rhs(lambda s: s["u"][..., 0],
                               lambda s: s["u"][..., 1]) for k in range(3)}),
    ]
    scalars = [
        Unknown(f"u{c}", {k: (lambda c: lambda s, i: s["w"][i] * s[f"u{c}"][i])(c)
                          for k in range(3)}, boundary=corner[c])
        for c in range(2)
    ] + [Unknown("w", {k: w_rhs(lambda s: s["u0"], lambda s: s["u1"])
                       for k in range(3)})]
    for order in ((0, 1, 2), (2, 1, 0)):
        got = solve_compatible(ch, vector, order=order)
        want = solve_compatible(ch, scalars, order=order)
        assert got["u"].shape == ch.shape + (2,)
        stacked = np.stack([want["u0"], want["u1"]], axis=-1)
        assert got["u"].tobytes() == stacked.tobytes()
        assert got["w"].tobytes() == want["w"].tobytes()


def test_check_shift_raises_pole_error():
    ok = [np.full((5, 5), 2 * POLE_GUARD), np.ones((5, 5))]
    check_shift(0.0, ok)
    bad = ok + [np.full((5, 5), POLE_GUARD)]
    with pytest.raises(PoleError, match="touches a pole"):
        check_shift(0.0, bad)
    assert issubclass(PoleError, MarchError)


def test_solve_frame_rotation_and_position_vector():
    # A_0 = A_1 = J (commuting): X = exp((R1 + R2) J) is a rotation
    ch = Chart(2, ((0.0, 1.0), (0.0, 0.5)), (33, 17))
    J = np.broadcast_to(np.array([[0.0, 1.0], [-1.0, 0.0]]), ch.shape + (2, 2))
    Jd = {idx: J[(...,) + idx] for idx in np.ndindex(2, 2)}
    X = solve_frame(ch, (Jd, Jd), 2)
    t = ch.mesh()[0] + ch.mesh()[1]
    want = np.stack([np.stack([np.cos(t), np.sin(t)], -1),
                     np.stack([-np.sin(t), np.cos(t)], -1)], -2)
    assert X.shape == ch.shape + (2, 2)
    assert np.max(np.abs(X - want)) < 1e-7
    # d_0 r = row 0, d_1 r = 2 row 1 of the identity: r = (R1, 2 R2)
    ones = np.ones(ch.shape)
    eye = np.broadcast_to(np.eye(2), ch.shape + (2, 2))
    r = position_vector(ch, [ones, 2.0 * ones], eye)
    assert np.max(np.abs(r - np.stack(ch.mesh(), -1) * [1.0, 2.0])) < 1e-14


@pytest.mark.parametrize("scale", [np.nan, 1e7])
def test_position_vector_keeps_blowup_guard(scale):
    ch = Chart(2, ((0.0, 1.0),) * 2, (9,) * 2)
    ones = np.ones(ch.shape)
    eye = np.broadcast_to(np.eye(3), ch.shape + (3, 3))
    with pytest.raises(MarchError, match="blow-up guard or is not finite"):
        position_vector(ch, [scale * ones, ones], eye)
