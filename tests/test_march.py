from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pencil_lab import grids
from pencil_lab.expr import parse_expr
from pencil_lab.grids import (_C_LEFT, _C_MID, _D4_EDGE0, _D4_EDGE1, Chart,
                              GridError, cumint, deriv, eval_grid, max_abs)
from pencil_lab.march import (POLE_GUARD, MarchError, PoleError, Unknown,
                              path_integral, position_vector, shift,
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


def _leg_major(arr, lead, comps):
    """arr held as a C buffer shaped (arr.shape[lead], the last ``comps``
    axes, the other axes), moved back to its logical order."""
    rest = [k for k in range(arr.ndim - comps) if k != lead]
    perm = (lead, *range(arr.ndim - comps, arr.ndim), *rest)
    return np.ascontiguousarray(arr.transpose(perm)).transpose(np.argsort(perm))


# (9, 20, 17), (5, 33, 33) and (33, 9, 9, 3) have rows of _LANE_ROW values
# or more along most axes (test_cumint_kernel_constants)
@pytest.mark.parametrize("shape", [(17, 9), (4, 6), (5, 5), (9, 7, 6),
                                   (4, 5, 6), (33, 1), (33, 1, 1),
                                   (33, 33, 1), (9, 7, 6, 3), (17, 9, 3),
                                   (6, 5, 2, 2), (9, 20, 17), (5, 33, 33),
                                   (33, 9, 9, 3)])
def test_cumint_matches_loop_bytes(shape):
    rng = np.random.default_rng(sum(shape))
    arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    for axis in range(len(shape)):
        if shape[axis] < 4:
            continue
        want = _cumint_loop(arr, axis, 0.1)
        got = cumint(arr, axis, 0.1)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes() and got.flags.c_contiguous
        # leg-major about this axis, with 0, 1 or 2 trailing component axes:
        # the same bytes, held in the input's memory order
        for comps in range(min(3, len(shape) - axis)):
            laid = _leg_major(arr, axis, comps)
            got = cumint(laid, axis, 0.1)
            assert got.tobytes() == want.tobytes()
            if 1 not in shape:
                assert got.strides == laid.strides
    # a strided view takes the same path
    view = np.swapaxes(arr, 0, -1)
    if view.shape[0] >= 4:
        assert cumint(view, 0, 0.3).tobytes() == _cumint_loop(view, 0, 0.3).tobytes()


def test_cumint_kernel_constants():
    # the cells share c0 * a and c1 * a because _C_MID is symmetric bit for bit
    assert _C_MID.tobytes() == _C_MID[::-1].tobytes()
    # (9, 20, 17) has rows of 153 values along axis 1 and of 180 or more
    # along axes 0 and 2
    assert 9 * 17 < grids._LANE_ROW <= 9 * 20


def _odd_inputs():
    """(name, array) pairs of the kinds march._pass and the kernels hand in."""
    rng = np.random.default_rng(31)
    line = rng.standard_normal((33, 1, 1, 3))
    yield "zero-stride lanes", np.broadcast_to(line, (33, 33, 1, 3))
    yield "zero-stride line", np.broadcast_to(line[:, :, :, :1], (33, 9, 20, 1))
    yield "constant", np.broadcast_to(np.float64(0.7), (17, 20, 9))
    z = rng.standard_normal((9, 20, 17)) + 1j * rng.standard_normal((9, 20, 17))
    yield "complex128", z
    yield "complex128 leg-major", _leg_major(z, 2, 0)
    special = rng.standard_normal((9, 20, 17))
    special[(0, 4, 8), 3, 5] = np.nan, np.inf, -np.inf
    for lane in ((slice(None), 0, 0), (4, slice(None), 1), (2, 2)):
        special[lane] = np.inf
    special[1, 0] = -np.inf
    special[6, :, 12] = np.nan
    yield "NaN and infinities", special
    zz = z.copy()
    zz[3, 4] = complex(np.inf, np.nan)
    yield "complex NaN and infinity", zz
    yield "m = 4", rng.standard_normal((4, 20, 17))


@pytest.mark.parametrize("arr", [pytest.param(a, id=name)
                                 for name, a in _odd_inputs()])
def test_cumint_matches_loop_bytes_on_odd_values(arr):
    with np.errstate(all="ignore"):
        for axis in range(arr.ndim):
            if arr.shape[axis] < 4:
                continue
            want = _cumint_loop(arr, axis, 0.1)
            got = cumint(arr, axis, 0.1)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            if arr.flags.c_contiguous:
                assert got.flags.c_contiguous


_LAYOUTS = ("C", "F", "leg-major", "swapped")


def _laid(arr, layout, axis, comps):
    if layout == "F":
        return np.asfortranarray(arr)
    if layout == "leg-major":
        return _leg_major(arr, axis, comps)
    if layout == "swapped":  # a strided view of a C array
        return np.ascontiguousarray(np.swapaxes(arr, 0, -1)).swapaxes(0, -1)
    return arr


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cumint_matches_loop_bytes_on_drawn_layouts(data):
    ndim = data.draw(st.integers(1, 4), label="ndim")
    axis = data.draw(st.integers(0, ndim - 1), label="axis")
    shape = [data.draw(st.integers(1, 6)) for _ in range(ndim)]
    shape[axis] = data.draw(st.integers(4, 40), label="m")
    layout = data.draw(st.sampled_from(_LAYOUTS), label="layout")
    comps = data.draw(st.integers(0, ndim - 1 - axis), label="comps")
    dtype = data.draw(st.sampled_from(["f8", "c16", "f4", "i8"]), label="dtype")
    # a small lane constant reaches the lane sum on small grids
    lane_row = data.draw(st.sampled_from([grids._LANE_ROW, 1, 4]),
                         label="lane_row")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    if dtype == "c16":
        arr = arr + 1j * rng.standard_normal(shape)
    arr = arr.astype(dtype)
    if dtype != "i8" and data.draw(st.booleans(), label="non-finite"):
        arr.reshape(-1)[rng.integers(0, arr.size, 3)] = np.nan, np.inf, -np.inf
    arr = _laid(arr, layout, axis, comps)
    with mock.patch.object(grids, "_LANE_ROW", lane_row), \
            np.errstate(all="ignore"):
        got = cumint(arr, axis, 0.1)
        want = _cumint_loop(arr, axis, 0.1)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if arr.flags.c_contiguous:
        assert got.flags.c_contiguous
    elif 1 not in shape:
        assert got.strides == want.strides


def _deriv_loop(arr, axis, h):
    """Reference: the per-row loop form of deriv, row by row."""
    a = np.moveaxis(np.asarray(arr), axis, 0)
    m = a.shape[0]
    out = np.empty_like(a)
    for i in range(2, m - 2):
        out[i] = (a[i - 2] - 8.0 * a[i - 1] + 8.0 * a[i + 1] - a[i + 2]) / 12.0
    # the one-sided rows read the samples from their own end of the line
    for row, edge, end, sign in ((0, _D4_EDGE0, 0, 1), (1, _D4_EDGE1, 0, 1),
                                 (m - 1, _D4_EDGE0, m - 1, -1),
                                 (m - 2, _D4_EDGE1, m - 1, -1)):
        acc = 0
        for k, c in enumerate(edge):
            acc = acc + c * a[end + sign * k]
        out[row] = acc if sign > 0 else -acc
    out /= h
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("shape", [(5, 5), (17, 9), (9, 7, 6), (17, 9, 3),
                                   (6, 5, 2, 2), (33, 33), (9, 20, 17)])
@pytest.mark.parametrize("layout", _LAYOUTS)
def test_deriv_matches_loop_bytes(shape, layout):
    rng = np.random.default_rng(sum(shape))
    arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    arr.reshape(-1)[:: 7] *= -0.0  # signed zeros through the stencils
    values = [arr, arr + 1j * rng.standard_normal(shape)]
    special = arr.copy()
    special.reshape(-1)[rng.integers(0, arr.size, 3)] = np.nan, np.inf, -np.inf
    values.append(special)
    with np.errstate(all="ignore"):
        for v in values:
            for axis in range(len(shape)):
                if shape[axis] < 5:
                    continue
                x = _laid(v, layout, axis, 0)
                want = _deriv_loop(x, axis, 0.1)
                got = deriv(x, axis, 0.1)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
                assert got.strides == want.strides


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


def test_chart_refuses_a_point_count_past_int64():
    # 2^32 · 2^32 is 0 in int64 arithmetic; the chart allocates nothing yet
    with pytest.raises(GridError, match="10\\^7"):
        Chart(2, ((0.0, 1.0), (0.0, 1.0)), (2**32, 2**32))


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


def test_nan_in_the_second_vector_unknown_is_not_a_fixed_point():
    # Python's max would drop the second unknown's NaN from delta and scale
    ch = Chart(2, ((0.0, 1.0), (0.0, 1.0)), (9, 9))
    bad = np.where(ch.mesh()[0] > 0.5, np.nan, 0.0)[..., None] * np.ones(2)
    unknowns = [Unknown("u", {0: lambda s, i: 0.1 * s["u"][i],
                              1: lambda s, i: 0.0}, boundary=np.ones(2)),
                Unknown("v", {0: lambda s, i: bad[i], 1: lambda s, i: 0.0},
                        boundary=np.zeros(2))]
    with pytest.raises(MarchError, match="blow-up guard or is not finite"):
        solve_compatible(ch, unknowns)


@pytest.mark.parametrize("best,values,want", [
    (0.0, [0.0, 0.0], "0.0"), (0.0, [-0.0, -0.0], "0.0"),
    (0.0, [0.0, -0.0], "0.0"), (0.0, [-2.0, 1.5], "2.0"),
    (3.0, [-2.0, 1.5], "3.0"), (0.0, [1.0, np.nan], "nan"),
    (np.nan, [1.0, 2.0], "nan"), (1.0, [np.inf, 0.0], "inf"),
    (0.0, np.array([3 + 4j, -1j]), "5.0"), (6.0, [1j, np.nan], "nan"),
    (0.0, np.array([False, True]), "1.0"), (0.0, np.zeros(2, bool), "0.0"),
    (0.0, np.array([3, 250], np.uint8), "250.0"), (0.0, [-5, 2], "5.0")])
def test_peak_keeps_the_rules_of_max_abs(best, values, want):
    # solve_compatible's peak is max_abs(best, a): a float array folded by
    # its max and -min, any other dtype by |a|
    assert repr(max_abs(best, np.asarray(values))) == want
    assert repr(max_abs([best], values)) == want


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
        assert all(v.flags.c_contiguous for v in got.values())
        stacked = np.stack([want["u0"], want["u1"]], axis=-1)
        assert got["u"].tobytes() == stacked.tobytes()
        assert got["w"].tobytes() == want["w"].tobytes()


def test_check_shift_raises_pole_error():
    # shift returns the grids lam + eta_i that it checked
    etas = [np.full((5, 5), 2 * POLE_GUARD), np.linspace(1, 2, 25).reshape(5, 5)]
    for lam in (0.0, 0.375):
        got = shift(lam, etas)
        assert [g.tobytes() for g in got] == [(lam + e).tobytes()
                                              for e in etas]
    bad = etas + [np.full((5, 5), POLE_GUARD)]
    with pytest.raises(PoleError, match="touches a pole"):
        shift(0.0, bad)
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


@pytest.mark.parametrize("ch", [Chart(3, ((0.0, 1.0),) * 3, (9, 8, 7)),
                                Chart(2, ((0.0, 1.0),) * 2, (17, 13))])
def test_solve_frame_bytes_do_not_depend_on_the_layout_of_A(ch):
    # A_d of a Lax pair (row d and column d, antisymmetric) plus one more
    # entry, held C-ordered, Fortran-ordered and as a non-contiguous view
    k = 3
    X = ch.mesh()
    mats = []
    for d in range(ch.n):
        A = {}
        for c in range(k):
            if c != d:
                w = 0.3 * np.cos(sum((j + 1 + c) * x for j, x in enumerate(X))
                                 + d)
                A[d, c], A[c, d] = w, -w
        A[(d + 1) % k, (d + 2) % k] = 0.1 * np.sin(X[0] - X[-1] + d)
        mats.append(A)
    layouts = [np.ascontiguousarray, np.asfortranarray,
               lambda g: np.stack([g, -g], axis=-1)[..., 0]]
    frames = [solve_frame(ch, [{key: lay(g) for key, g in A.items()}
                               for A in mats], k) for lay in layouts]
    assert not layouts[2](X[0]).flags.c_contiguous
    assert not layouts[2](X[0]).flags.f_contiguous
    for frame in frames:
        assert frame.shape == ch.shape + (k, k) and frame.flags.c_contiguous
        assert frame.tobytes() == frames[0].tobytes()


@pytest.mark.parametrize("scale", [np.nan, 1e7])
def test_position_vector_keeps_blowup_guard(scale):
    ch = Chart(2, ((0.0, 1.0),) * 2, (9,) * 2)
    ones = np.ones(ch.shape)
    eye = np.broadcast_to(np.eye(3), ch.shape + (3, 3))
    with pytest.raises(MarchError, match="blow-up guard or is not finite"):
        position_vector(ch, [scale * ones, ones], eye)
