"""The input guards of the library functions that no command reaches: each
refuses its input with its own exception type and message."""

import re

import numpy as np
import pytest

from pencil_lab.diagonal import (DiagonalModel, beta_from_pqr, conserved_P,
                                 integrate_S2, mu_constants, solve_lame)
from pencil_lab.expr import as_expr
from pencil_lab.grids import Chart, GridError, cumint, deriv
from pencil_lab.march import Unknown, path_integral

SQUARE = Chart(2, ((0.0, 1.0),) * 2, (9, 9))
CUBE = Chart(3, ((0.0, 1.0),) * 3, (9,) * 3)
UNORDERED = "constants must satisfy c3 > c2 > c1"

GUARDS = [
    ("etas", lambda: DiagonalModel(3, (as_expr(1, 3), as_expr(2, 3))),
     ValueError, "need one eta per coordinate"),
    ("conserved_P",
     lambda: conserved_P(DiagonalModel.from_text(["R1", "2", "4"], 3), {},
                         CUBE),
     ValueError, "conserved densities require constant etas"),
    ("integrate_S2", lambda: integrate_S2(SQUARE, 0, 0, 0),
     ValueError, "the angle system lives on a three-dimensional chart"),
    ("mu_constants", lambda: mu_constants(1.0, 3.0, 2.0),
     ValueError, UNORDERED),
    ("beta_from_pqr", lambda: beta_from_pqr({}, 2.0, 1.0, 3.0),
     ValueError, UNORDERED),
    ("order",
     lambda: path_integral(SQUARE, Unknown("u", {1: lambda s, i: 1.0},
                                           free_axis=0, boundary=0.0),
                           (0, 0)),
     ValueError, "order (0, 0) is not a permutation of the axes"),
    ("deriv", lambda: deriv(np.zeros(4), 0, 0.1),
     GridError, "4th-order stencil needs at least 5 points per axis"),
    ("cumint", lambda: cumint(np.zeros(3), 0, 0.1),
     GridError, "4th-order quadrature needs at least 4 points per axis"),
]


@pytest.mark.parametrize("call,error,message", [g[1:] for g in GUARDS],
                         ids=[g[0] for g in GUARDS])
def test_a_library_guard_refuses_its_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error


def test_an_unknown_with_no_legs_is_its_boundary_line():
    # on a one-dimensional chart H_1 has only its free axis: no leg to march
    chart = Chart(1, ((0.0, 1.0),), (9,))
    (h,) = solve_lame({}, chart, {0: "1+R1"})
    assert np.array_equal(h, 1.0 + chart.axes()[0])
