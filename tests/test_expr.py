import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pencil_lab.expr import (
    _FUNCS, Call, Const, DomainError, ParseError, as_expr, call, coords_used,
    diff, evaluate, parse_expr, to_text,
)


def test_parse_eval_basics():
    e = parse_expr("R1^2 + 3*R2", 2)
    assert evaluate(e, (2.0, 1.0)) == 7.0
    assert coords_used(e) == {1, 2}


def test_parse_functions():
    e = parse_expr("sin(R1)*cosh(R2) + exp(0)", 2)
    val = evaluate(e, (0.5, 0.25))
    assert val == pytest.approx(math.sin(0.5) * math.cosh(0.25) + 1.0)


def test_precedence_and_unary():
    # unary minus is part of the power base: -R1^2 means (-R1)^2
    assert evaluate(parse_expr("-R1^2", 1), (3.0,)) == 9.0
    assert evaluate(parse_expr("0-R1^2", 1), (3.0,)) == -9.0
    assert evaluate(parse_expr("2-3-4", 1), (0.0,)) == -5.0
    assert evaluate(parse_expr("12/3/2", 1), (0.0,)) == 2.0


def test_parse_error_offset():
    with pytest.raises(ParseError, match=r"offset 7"):
        parse_expr("sin(R1", 1)
    with pytest.raises(ParseError):
        parse_expr("R3", 2)
    with pytest.raises(ParseError):
        parse_expr("2 +* 3", 1)


def test_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse_expr("1/R1", 1), (0.0,))
    with pytest.raises(DomainError):
        evaluate(parse_expr("sqrt(R1)", 1), (-1.0,))
    with pytest.raises(DomainError):
        evaluate(parse_expr("log(R1)", 1), (-2.0,))
    with pytest.raises(DomainError):
        evaluate(parse_expr("arccos(R1)", 1), (1.5,))


def test_constant_out_of_domain_deferred_to_eval():
    e = parse_expr("sqrt(0-1.0)", 1)
    with pytest.raises(DomainError):
        evaluate(e, (0.0,))


def test_array_evaluation():
    e = parse_expr("R1*R2", 2)
    x = np.linspace(0, 1, 5)
    y = np.linspace(1, 2, 5)
    out = evaluate(e, (x, y))
    assert np.allclose(out, x * y)


def test_diff_exact():
    e = parse_expr("sin(R1)*R2^3", 2)
    d1 = diff(e, 1)
    d2 = diff(e, 2)
    pt = (0.7, 1.3)
    assert evaluate(d1, pt) == pytest.approx(math.cos(0.7) * 1.3 ** 3)
    assert evaluate(d2, pt) == pytest.approx(math.sin(0.7) * 3 * 1.3 ** 2)


def test_diff_quotient_and_power():
    e = parse_expr("R1^3/R2", 2)
    pt = (2.0, 4.0)
    assert evaluate(diff(e, 1), pt) == pytest.approx(3 * 4.0 / 4.0)
    assert evaluate(diff(e, 2), pt) == pytest.approx(-8.0 / 16.0)


def _exprs(powers=False):
    """Random expression trees over two coordinates, kept in safe domains;
    ``powers`` adds Pow nodes with exponent 2 or 3."""
    atoms = st.one_of(
        st.floats(min_value=-3, max_value=3, allow_nan=False,
                  allow_infinity=False).map(lambda v: Const(round(v, 3))),
        st.sampled_from([parse_expr("R1", 2), parse_expr("R2", 2)]),
    )

    def extend(children):
        nodes = [
            st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] - ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
            children.map(lambda a: -a),
            children.map(lambda a: parse_expr("sin(0)", 2) + a),
        ]
        if powers:
            nodes.append(st.tuples(children, st.sampled_from([2, 3]))
                         .map(lambda ak: ak[0] ** ak[1]))
        return st.one_of(*nodes)

    return st.recursive(atoms, extend, max_leaves=8)


@given(e=_exprs(powers=True))
@settings(max_examples=120, deadline=None)
def test_print_parse_roundtrip(e):
    text = to_text(e)
    assert str(e) == text
    again = parse_expr(text, 2)
    assert to_text(again) == text
    pt = (0.7, 1.1)
    assert evaluate(again, pt) == pytest.approx(evaluate(e, pt), abs=1e-12)


@pytest.mark.parametrize("number", [2, 2.0, np.float64(2.0)])
def test_arithmetic_takes_expressions_only(number):
    # a number enters an expression through as_expr or const, never an
    # operator
    e = parse_expr("R1", 1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(e, number)
        with pytest.raises(TypeError):
            op(number, e)


@given(e=_exprs(), x=st.floats(0.2, 1.8), y=st.floats(0.2, 1.8))
@settings(max_examples=80, deadline=None)
def test_derivative_matches_differences(e, x, y):
    h = 1e-5
    exact = evaluate(diff(e, 1), (x, y))
    approx = (evaluate(e, (x + h, y)) - evaluate(e, (x - h, y))) / (2 * h)
    scale = 1.0 + abs(exact)
    assert abs(exact - approx) <= 1e-6 * scale


@pytest.mark.parametrize("name", sorted(_FUNCS))
def test_derivative_rule_matches_differences(name):
    # the argument stays in (0.3, 0.6) near the point, inside every domain
    e = call(name, parse_expr("0.3*R1 + 0.2*R1*R2 + 0.1", 2))
    x, y, h = 0.5, 0.7, 1e-6
    for k, (dx, dy) in ((1, (h, 0.0)), (2, (0.0, h))):
        exact = evaluate(diff(e, k), (x, y))
        approx = (evaluate(e, (x + dx, y + dy))
                  - evaluate(e, (x - dx, y - dy))) / (2 * h)
        assert exact != 0.0
        assert abs(exact - approx) <= 1e-9 * (1.0 + abs(exact))


@given(e=_exprs())
@settings(max_examples=60, deadline=None)
def test_mixed_partials_commute(e):
    d12 = diff(diff(e, 1), 2)
    d21 = diff(diff(e, 2), 1)
    pt = (0.9, 1.4)
    assert evaluate(d12, pt) == pytest.approx(evaluate(d21, pt), abs=1e-12)


def test_as_expr_accepts_expr_text_and_numbers():
    e = parse_expr("R1*R2", 2)
    assert as_expr(e, 2) is e
    assert to_text(as_expr("R2+1", 2)) == to_text(parse_expr("R2+1", 2))
    assert to_text(as_expr(3, 2)) == "3.0"
    assert to_text(as_expr(0.1, 1)) == "0.1"
    with pytest.raises(ParseError):
        as_expr("R3", 2)
    with pytest.raises(DomainError):
        as_expr(10 ** 400, 2)


def test_negated_power_prints_in_parentheses():
    e = parse_expr("0-R1^2", 1)
    text = to_text(e)
    assert text == "-(R1^2)"
    assert evaluate(parse_expr(text, 1), (3.0,)) == -9.0


@pytest.mark.parametrize("text", ["1e400", "1e400*R1", "1e400+R1",
                                  "1e200*1e200", "exp(1000)", "2^2000",
                                  "R1+(0-1e200)*1e200"])
def test_overflowing_constants_are_input_errors(text):
    with pytest.raises((ParseError, DomainError)):
        parse_expr(text, 1)


def _shared_dag(depth):
    """e = e*e + e, ``depth`` times, with every e one shared node."""
    e = parse_expr("-R1*R2", 2)
    for _ in range(depth):
        e = e * e + e
    return e


def _unshared(depth):
    """The same expression with every subexpression built afresh."""
    if depth == 0:
        return parse_expr("-R1*R2", 2)
    return _unshared(depth - 1) * _unshared(depth - 1) + _unshared(depth - 1)


def test_shared_nodes_are_evaluated_once_per_call(monkeypatch):
    import pencil_lab.expr as expr
    calls = []
    plain = expr._evaluate

    def counting(*args):
        calls.append(1)
        if len(calls) > 10_000:          # a tree walk would take 3^40 calls
            raise AssertionError("shared nodes evaluated once per path")
        return plain(*args)

    monkeypatch.setattr(expr, "_evaluate", counting)
    mesh = np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 1, 5),
                       indexing="ij")
    value = evaluate(_shared_dag(40), mesh)
    assert len(calls) < 500
    assert np.all((-0.25 <= value) & (value <= 0.0))
    monkeypatch.undo()
    for depth in range(6):
        assert (evaluate(_shared_dag(depth), mesh).tobytes()
                == evaluate(_unshared(depth), mesh).tobytes())


def test_a_tree_without_shared_nodes_memoises_nothing():
    import pencil_lab.expr as expr
    uses = {}
    expr._count_uses(_unshared(3), uses)
    assert uses and set(uses.values()) == {1}
    uses = {}
    expr._count_uses(_shared_dag(3), uses)
    # e0, e1 and e2 fill three slots each; the three products and -R1 one
    assert sorted(uses.values()) == [1, 1, 1, 1, 3, 3, 3]


def test_a_shared_node_has_one_derivative_object():
    s = parse_expr("R1*R2^2 + sin(R1)", 2)
    d = diff(Call("exp", s) + Call("sin", s), 1)
    # d = exp(s)*ds + cos(s)*ds, with one ds shared by both products
    assert d.a.b is d.b.b
    assert to_text(d.a.b) == to_text(diff(s, 1))


def test_shared_nodes_are_differentiated_once_per_call(monkeypatch):
    import pencil_lab.expr as expr
    calls = []
    plain = expr._diff

    def counting(*args):
        calls.append(1)
        if len(calls) > 10_000:          # a tree walk would take 3^40 calls
            raise AssertionError("shared nodes differentiated once per path")
        return plain(*args)

    monkeypatch.setattr(expr, "_diff", counting)
    diff(_shared_dag(40), 2)
    assert len(calls) < 500
    monkeypatch.undo()
    mesh = np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 1, 5),
                       indexing="ij")
    for depth in range(6):
        for k in (1, 2):
            shared, unshared = diff(_shared_dag(depth), k), diff(
                _unshared(depth), k)
            assert to_text(shared) == to_text(unshared)
            assert (evaluate(shared, mesh).tobytes()
                    == evaluate(unshared, mesh).tobytes())
