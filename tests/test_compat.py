import importlib
import json
import pkgutil
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import pencil_lab
from pencil_lab.cli import main
from pencil_lab.compat import (
    ComplianceReport, HamiltonianOperator, _d, _det, _fields,
    _identities, _j, _second_covariant, check_hamiltonian, check_pencil,
    check_theorem1, btilde_from_r, eigenvalue_gap, hamiltonian_residuals,
    levi_civita_operator, pencil_operator, verify_appendix,
)
from pencil_lab.entries import dense as densify, entries
from pencil_lab.expr import ZERO, Const, evaluate, parse_expr
from pencil_lab.geometry import (
    MetricField, christoffel, covariant_derivative, eval_array, expr_array,
    nijenhuis, raise_index, riemann_expr,
)
from pencil_lab.grids import Chart, eval_grid, max_abs


def _p(t, n=2):
    return parse_expr(t, n)


@pytest.fixture
def box2():
    return Chart(2, ((1.0, 2.0), (1.0, 2.0)), (9, 9))


@pytest.fixture
def flat_pencil():
    g = MetricField.euclidean(2)
    gt = MetricField.diagonal_contravariant([_p("1+R1^2"), _p("3+R2^2")])
    return g, gt


def test_connection_coefficients_of_coordinate_metric(box2):
    g = MetricField.diagonal_contravariant([_p("R1"), _p("R2")])
    A = levi_civita_operator(g)
    assert evaluate(A.b[0, 0, 0], (1.3, 0.7)) == pytest.approx(0.5)
    assert evaluate(A.b[0, 1, 0], (1.3, 0.7)) == 0.0
    rep = check_hamiltonian(A, box2)
    assert rep.verdict == "pass"
    assert rep.residuals["J1"] == 0.0
    assert rep.residuals["J2"] == 0.0


def test_constant_metric_perturbed_coefficients_fail(box2):
    e = MetricField.euclidean(2)
    b = expr_array((2, 2, 2))
    b[0, 1, 0] = Const(1.0)
    r1, r2, scale = hamiltonian_residuals(e.gU, b, box2)
    assert r1 == pytest.approx(2.0)
    assert r2 == pytest.approx(1.0)
    rep = check_hamiltonian(HamiltonianOperator(e, b), box2)
    assert rep.verdict == "fail"


def test_pencil_operator_symmetry(box2, flat_pencil):
    g, gt = flat_pencil
    p = pencil_operator(g, gt)
    rg = np.einsum("is...,sj...->ij...", eval_array(p.r, box2),
                   eval_array(p.g.gU, box2))
    assert np.max(np.abs(rg - np.swapaxes(rg, 0, 1))) == 0.0
    assert evaluate(p.r[0, 0], (1.3, 0.7)) == pytest.approx(1 + 1.3 ** 2)
    assert evaluate(p.r[0, 1], (1.3, 0.7)) == 0.0


def test_compatible_pair_passes_both_criteria(box2, flat_pencil):
    g, gt = flat_pencil
    p = pencil_operator(g, gt)
    t1 = check_theorem1(p, box2)
    assert t1.verdict == "pass"
    assert "simple_spectrum" in t1.notes
    bt = btilde_from_r(p)
    pc = check_pencil(levi_civita_operator(g), HamiltonianOperator(gt, bt),
                      box2)
    assert pc.verdict == "pass"
    assert pc.lambdas_used == list(pc.lambdas_used)
    assert len(pc.lambdas_used) == 5


def test_derived_coefficients_close_the_bracket(box2, flat_pencil):
    # the coefficients generated from the operator field must coincide with
    # the Levi-Civita coefficients of the second metric
    g, gt = flat_pencil
    p = pencil_operator(g, gt)
    bt = btilde_from_r(p)
    lc = levi_civita_operator(gt).b
    from pencil_lab.geometry import eval_array
    diff = eval_array(bt, box2) - eval_array(lc, box2)
    assert np.max(np.abs(diff)) < 1e-12
    rep = check_hamiltonian(HamiltonianOperator(gt, bt), box2)
    assert rep.verdict == "pass"


def test_identity_pair_values(box2):
    e = MetricField.euclidean(2)
    gt = MetricField.diagonal_contravariant([_p("R1"), _p("R2")])
    p = pencil_operator(e, gt)
    bt = btilde_from_r(p)
    assert evaluate(bt[0, 0, 0], (1.3, 0.7)) == pytest.approx(0.5)
    assert evaluate(bt[0, 1, 1], (1.3, 0.7)) == 0.0


def test_appendix_identities(box2, flat_pencil):
    g, gt = flat_pencil
    p = pencil_operator(g, gt)
    rep = verify_appendix(p, box2)
    assert rep.residuals["I1"] < 1e-12
    assert rep.residuals["I2"] < 1e-12


def test_swapped_pair_fails_first_criterion_only(box2):
    e = MetricField.euclidean(2)
    gt = MetricField.diagonal_contravariant([_p("R2"), _p("R1")])
    p = pencil_operator(e, gt)
    t1 = check_theorem1(p, box2)
    assert t1.verdict_for("nijenhuis") == "fail"
    assert t1.residuals["nijenhuis"] == pytest.approx(1.0)
    app = verify_appendix(p, box2)
    assert app.verdict_for("I1") == "pass"
    assert app.residuals["I2"] >= 1e-3


def test_lambda_sweep_skips_degenerate_values(box2):
    e = MetricField.euclidean(2)
    gt = MetricField.from_contravariant(
        np.array([[_p("2"), _p("0")], [_p("0"), _p("2")]], dtype=object))
    A = levi_civita_operator(e)
    At = levi_civita_operator(gt)
    rep = check_pencil(A, At, box2, lambdas=(-2.0, 0.0, 1.0))
    assert -2.0 in rep.lambdas_skipped
    assert rep.lambdas_used == [0.0, 1.0]
    assert rep.verdict == "pass"


def test_report_three_valued_verdicts():
    rep = ComplianceReport({"a": 1e-10, "b": 5e-7, "c": 1e-3}, 1.0)
    assert [rep.verdict_for(k) for k in "abc"] == ["pass", "inconclusive",
                                                   "fail"]
    assert rep.verdict == "fail"


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_residual_fails(value):
    rep = ComplianceReport({"a": value, "b": 0.0}, 1.0)
    assert [rep.verdict_for(k) for k in "ab"] == ["fail", "pass"]
    assert rep.verdict == "fail"


def _violating_pencil(case):
    e = MetricField.euclidean(2)
    if case == "swapped":     # two Hamiltonian operators, not compatible
        gt = MetricField.diagonal_contravariant([_p("R2"), _p("R1")])
        bt = levi_civita_operator(gt).b
    else:
        gt = MetricField.diagonal_contravariant([_p("1+R1^2"), _p("3+R2^2")])
        bt = btilde_from_r(pencil_operator(e, gt))
        bt[0, 1, 0] = bt[0, 1, 0] + _p("0.1*R2")
    return levi_civita_operator(e), HamiltonianOperator(gt, bt)


def _explicit_bilinear(A, At, chart):
    """Reference: C1/C2 as the term-by-term bilinear expansion of J1/J2."""
    gn, gtn = eval_array(A.g.gU, chart), eval_array(At.g.gU, chart)
    bn, btn = eval_array(A.b, chart), eval_array(At.b, chart)
    dg, dgt = _dg_eval(A.g.gU, chart), _dg_eval(At.g.gU, chart)
    db, dbt = _dg_eval(A.b, chart), _dg_eval(At.b, chart)
    c1 = (2.0 * np.einsum("kis...,sj...->kij...", btn, gn)
          + 2.0 * np.einsum("kis...,sj...->kij...", bn, gtn)
          - np.einsum("js...,sik...->kij...", gtn, dg)
          - np.einsum("js...,sik...->kij...", gn, dgt)
          - np.einsum("ks...,sij...->kij...", gtn, dg)
          - np.einsum("ks...,sij...->kij...", gn, dgt)
          + np.einsum("is...,skj...->kij...", gtn, dg)
          + np.einsum("is...,skj...->kij...", gn, dgt))
    skew_t = btn - np.swapaxes(btn, 0, 1)
    skew = bn - np.swapaxes(bn, 0, 1)
    c2 = (np.einsum("js...,sikn...->ijkn...", gtn, db)
          + np.einsum("js...,sikn...->ijkn...", gn, dbt)
          - np.einsum("is...,sjkn...->ijkn...", gtn, db)
          - np.einsum("is...,sjkn...->ijkn...", gn, dbt)
          + np.einsum("ijs...,skn...->ijkn...", skew_t, bn)
          + np.einsum("ijs...,skn...->ijkn...", skew, btn)
          + np.einsum("iks...,jsn...->ijkn...", btn, bn)
          + np.einsum("iks...,jsn...->ijkn...", bn, btn)
          - np.einsum("jks...,isn...->ijkn...", btn, bn)
          - np.einsum("jks...,isn...->ijkn...", bn, btn))
    return np.max(np.abs(c1)), np.max(np.abs(c2))


def _direct_sweep(A, At, chart, lambdas):
    """Reference: J of g̃ + λg, b̃ + λb rebuilt symbolically for each λ."""
    n = A.g.n
    worst = 0.0
    for lam in lambdas:
        cl = Const(float(lam))
        gU = expr_array((n, n))
        b = expr_array((n, n, n))
        for idx in np.ndindex(n, n):
            gU[idx] = At.g.gU[idx] + cl * A.g.gU[idx]
        for idx in np.ndindex(n, n, n):
            b[idx] = At.b[idx] + cl * A.b[idx]
        r1, r2, _ = hamiltonian_residuals(gU, b, chart)
        worst = max(worst, r1, r2)
    return worst


@pytest.mark.parametrize("case", ["swapped", "perturbed"])
def test_polarized_pencil_matches_direct_evaluation(box2, case):
    A, At = _violating_pencil(case)
    rep = check_pencil(A, At, box2, lambdas=(-1.0, 0.0, 0.75, 1.5, 3.0))
    skipped = [-1.0] if case == "swapped" else []   # R2 − 1 = 0 on the box
    assert rep.lambdas_skipped == skipped
    assert len(rep.lambdas_used) == 5 - len(skipped)
    assert rep.verdict == "fail"
    tol = 1e-12 * rep.scale
    direct = _direct_sweep(A, At, box2, rep.lambdas_used)
    assert direct > 1e-3
    assert abs(rep.residuals["lambda_sweep"] - direct) <= tol
    c1, c2 = _explicit_bilinear(A, At, box2)
    assert max(c1, c2) > 1e-3
    assert abs(rep.residuals["C1"] - c1) <= tol
    assert abs(rep.residuals["C2"] - c2) <= tol


def _dg_eval(T, chart):
    """Dense ∂_s T on the grid; axes (s, *T.shape, *grid)."""
    return eval_array(_d(T), chart)


def _dense_fields(gU, b, chart):
    return [eval_array(gU, chart), _dg_eval(gU, chart),
            eval_array(b, chart), _dg_eval(b, chart)]


def _j_arrays(fields):
    """Oracle: J1 (axes k, i, j) and J2 on the pairs i < j (axes p, k, l) of
    dense fields, by einsum over every entry, zero or not, with the grouping
    ((A − B) + S) + (D − E) of compat._j."""
    gn, dg, bn, db = fields
    j1 = (2.0 * np.einsum("kis...,sj...->kij...", bn, gn)
          - np.einsum("js...,sik...->kij...", gn, dg)
          - np.einsum("ks...,sij...->kij...", gn, dg)
          + np.einsum("is...,skj...->kij...", gn, dg))
    n = gn.shape[0]
    pairs = np.triu_indices(n, 1)
    j2 = np.empty((len(pairs[0]), n, n) + gn.shape[2:])
    t = np.empty((n, n) + gn.shape[2:])
    u = np.empty_like(t)
    for o, i, j in zip(j2, *pairs):
        np.einsum("s...,skn...->kn...", gn[j], db[:, i], out=o)
        o -= np.einsum("s...,skn...->kn...", gn[i], db[:, j], out=t)
        o += np.einsum("s...,skn...->kn...", bn[i, j] - bn[j, i], bn, out=t)
        np.einsum("ks...,sn...->kn...", bn[i], bn[j], out=t)
        t -= np.einsum("ks...,sn...->kn...", bn[j], bn[i], out=u)
        o += t
    return j1, j2


def _full_j2(gn, bn, db):
    """Oracle: J2 on every (i, j), grouped as ((A − B) + S) + (D − E)."""
    skew = bn - np.swapaxes(bn, 0, 1)
    A = np.einsum("js...,sikn...->ijkn...", gn, db)
    B = np.einsum("is...,sjkn...->ijkn...", gn, db)
    S = np.einsum("ijs...,skn...->ijkn...", skew, bn)
    D = np.einsum("iks...,jsn...->ijkn...", bn, bn)
    E = np.einsum("jks...,isn...->ijkn...", bn, bn)
    return ((A - B) + S) + (D - E)


def _dense_pencil(A, At, chart, lambdas):
    """Oracle: C1, C2 and the λ-sweep of check_pencil from dense fields."""
    x = _dense_fields(A.g.gU, A.b, chart)
    y = _dense_fields(At.g.gU, At.b, chart)
    jx, jy = _j_arrays(x), _j_arrays(y)
    cross = [c - a - b for c, a, b in
             zip(_j_arrays([fy + fx for fx, fy in zip(x, y)]), jx, jy)]
    sweep = [max_abs(*((a * lam + c) * lam + b
                       for a, c, b in zip(jx, cross, jy)))
             for lam in lambdas]
    return {"C1": max_abs(cross[0]), "C2": max_abs(cross[1]),
            "lambda_sweep": max_abs(sweep)}


J_RANKS = (2, 3, 3, 4)           # g, ∂g, b, ∂b
THEOREM1_RANKS = (2, 4)          # g, ∇∇r
APPENDIX_RANKS = (3, 2, 3)       # b̃, r^{ij}, ∂r^{ij}


def _random_fields(rng, n, grid, ranks=J_RANKS):
    return [rng.standard_normal((n,) * k + grid) for k in ranks]


def _sparse(fields, rng, keep, ranks=J_RANKS):
    """The dict fields of compat, each entry kept with probability ``keep``,
    and the dense fields with the dropped entries set to zero."""
    dense, dicts = [], []
    for f, rank in zip(fields, ranks):
        f = f.copy()
        d = {}
        for idx in np.ndindex(f.shape[:rank]):
            if rng.random() < keep:
                d[idx] = f[idx]
            else:
                f[idx] = 0.0
        dense.append(f)
        dicts.append(d)
    return dense, dicts


@pytest.mark.parametrize("keep", [1.0, 0.6, 0.3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sparse_j_equals_the_dense_oracle_bit_for_bit(n, keep):
    rng = np.random.default_rng(10 * n + int(10 * keep))
    for grid in [(6, 5), (4, 3, 5)]:
        dense, dicts = _sparse(_random_fields(rng, n, grid), rng, keep)
        if keep == 1.0:
            assert [len(d) for d in dicts] == [n ** k for k in (2, 3, 3, 4)]
        o1, o2 = _j_arrays(dense)
        j1, j2 = _j(dicts, n)
        s1 = densify(j1, o1.shape)
        s2 = densify(j2, (n, n, n, n) + grid)[np.triu_indices(n, 1)]
        assert np.abs(s1).tobytes() == np.abs(o1).tobytes()
        assert np.abs(s2).tobytes() == np.abs(o2).tobytes()
        assert max_abs(*j1.values()) == max_abs(o1)
        assert max_abs(*j2.values()) == max_abs(o2)


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("n", [2, 3])
def test_sparse_j_keeps_the_dense_nan_of_zero_times_inf(n, field):
    # an inf in one entry meets the zero entries of the other factor; the
    # dense sum makes 0·inf = NaN there, and so must the sparse one
    rng = np.random.default_rng(40 + n)
    grid = (6, 5)
    dense, dicts = _sparse(_random_fields(rng, n, grid), rng, 0.4)
    key = sorted(dicts[field])[0]
    dense[field][key][2, 3] = np.inf   # a view shared with dicts[field][key]
    with np.errstate(all="ignore"):
        o1, o2 = _j_arrays(dense)
        j1, j2 = _j(dicts, n)
    s1 = densify(j1, o1.shape)
    s2 = densify(j2, (n, n, n, n) + grid)[np.triu_indices(n, 1)]
    assert np.isnan(o1).any() or np.isnan(o2).any()
    for s, o in ((s1, o1), (s2, o2)):
        assert np.array_equal(np.abs(s), np.abs(o), equal_nan=True)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pair_j2_equals_full_j2_on_the_upper_pairs(n):
    rng = np.random.default_rng(100 + n)
    for grid in [(6, 5), (4, 3, 5)]:
        fields = _random_fields(rng, n, grid)
        gn, dg, bn, db = fields
        full = _full_j2(gn, bn, db)
        assert np.array_equal(full, -np.swapaxes(full, 0, 1))
        assert not np.any(full[np.arange(n), np.arange(n)])
        _, j2 = _j_arrays(fields)
        upper = np.triu_indices(n, 1)
        assert j2.shape == (len(upper[0]), n, n) + grid
        assert j2.tobytes() == full[upper].tobytes()


def test_fields_hold_only_the_entries_that_are_not_zero(box2, flat_pencil):
    g, gt = flat_pencil
    x = _fields(g.gU, levi_civita_operator(g).b, box2)
    assert [sorted(f) for f in x] == [[(0, 0), (1, 1)], [], [], []]
    y = _fields(gt.gU, levi_civita_operator(gt).b, box2)
    assert [sorted(f) for f in y] == [
        [(0, 0), (1, 1)], [(0, 0, 0), (1, 1, 1)], [(0, 0, 0), (1, 1, 1)],
        [(0, 0, 0, 0), (1, 1, 1, 1)]]
    assert y[1][0, 0, 0].tobytes() == _dg_eval(gt.gU, box2)[0, 0, 0].tobytes()


def test_entries_call_the_eval_grid_of_the_grids_module(box2, flat_pencil,
                                                         monkeypatch):
    # a wrapper set on pencil_lab.grids alone, as a tracer sets one, sees
    # every evaluation of a field
    seen = []

    def spy(e, chart):
        seen.append(e)
        return eval_grid(e, chart)

    monkeypatch.setattr(pencil_lab.grids, "eval_grid", spy)
    _, gt = flat_pencil
    assert len(entries(gt.gU, box2)) == len(seen) == 2


def test_check_pencil_equals_the_dense_oracle_on_a_non_diagonal_pair():
    chart = Chart(2, ((1.0, 2.0), (1.0, 2.0)), (9, 9))
    g = MetricField.from_contravariant(np.array(
        [[_p("2+R2"), _p("0.3*R1")], [_p("0.3*R1"), _p("3+R1*R2")]]))
    gt = MetricField.from_contravariant(np.array(
        [[_p("1+R1^2"), _p("0.2*R2")], [_p("0.2*R2"), _p("4+R2^2")]]))
    A, At = levi_civita_operator(g), levi_civita_operator(gt)
    lambdas = (0.0, 0.75, 1.5)
    rep = check_pencil(A, At, chart, lambdas)
    assert rep.lambdas_used == list(lambdas)
    assert rep.residuals == _dense_pencil(A, At, chart, lambdas)
    assert rep.residuals["C2"] > 1e-6     # a generic pair: not compatible


def _lapack_split(A, At, chart, lambdas):
    """Oracle: (used, skipped) by the batched LAPACK det of g̃ + λg."""
    n = A.g.n
    gx, gy = (eval_array(op.g.gU, chart) for op in (A, At))
    used, skipped = [], []
    for lam in lambdas:
        det = np.linalg.det(np.moveaxis((gy + lam * gx).reshape(n, n, -1),
                                        2, 0))
        (skipped if float(np.min(np.abs(det))) < 1e-8 else used).append(lam)
    return used, skipped


def _random_pattern(rng, n, keep, grid=(4, 5)):
    dense = rng.standard_normal((n, n) + grid)
    mask = rng.random((n, n)) < keep
    dense[~mask] = 0.0
    return dense, {idx: dense[idx] for idx in zip(*np.nonzero(mask))}


def _lapack_det(dense):
    n = dense.shape[0]
    return np.linalg.det(np.moveaxis(dense.reshape(n, n, -1), 2, 0)).reshape(
        dense.shape[2:])


@pytest.mark.parametrize("n", range(1, 7))
def test_det_over_present_entries_equals_lapack(n):
    rng = np.random.default_rng(300 + n)
    singular = 0
    for keep in (1.0, 0.8, 0.6, 0.4):
        for _ in range(6):
            dense, f = _random_pattern(rng, n, keep)
            det, oracle = _det(f, n), _lapack_det(dense)
            if det is None:         # no product present: LAPACK finds 0 too
                singular += 1
                assert np.max(np.abs(oracle)) < 1e-14
            else:
                assert np.allclose(det, oracle, rtol=1e-12, atol=1e-13)
    assert n == 1 or singular          # the sparse patterns hit both cases


@pytest.mark.parametrize("n", range(1, 7))
def test_det_of_a_diagonal_field_is_its_exact_product(n):
    rng = np.random.default_rng(400 + n)
    d = [rng.standard_normal((4, 5)) for _ in range(n)]
    product = d[-1]
    for a in reversed(d[:-1]):
        product = a * product
    det = _det({(a, a): v for a, v in enumerate(d)}, n)
    assert det.tobytes() == product.tobytes()


def test_det_of_a_structurally_singular_field_is_absent():
    rng = np.random.default_rng(7)
    grid = (4, 5)
    a, b, c = (rng.standard_normal(grid) for _ in range(3))
    # rows 1 and 2 use column 0 only, so no product of 3 entries exists
    f = {(0, 0): a, (0, 1): b, (0, 2): c, (1, 0): b, (2, 0): c}
    assert _det(f, 3) is None
    assert _det({}, 2) is None
    assert _det({(0, 0): a}, 2) is None


@pytest.mark.parametrize("rows", [
    [[1e-9, np.inf], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, np.nan]], [[np.inf, 0.0], [0.0, 1.0]],
    [[1.0, 2.0], [3.0, np.inf]], [[np.nan, 1.0], [0.0, 0.0]],
    [[np.inf, 1.0], [0.0, 0.0]]])
def test_det_of_a_non_finite_field_decides_the_shift_as_lapack(rows):
    # a finite det that is tiny would skip the shift; a non-finite one must
    # keep it, and a structurally singular pattern is skipped, as LAPACK's
    # zero pivot does whatever the values
    dense = np.array(rows)[:, :, None, None] * np.ones((4, 5))
    f = {idx: dense[idx] for idx in zip(*np.nonzero(np.array(rows)))}
    with np.errstate(all="ignore"):
        det, oracle = _det(f, 2), _lapack_det(dense)
    if det is None:
        assert not oracle.any()
    else:
        assert not np.isfinite(det).any()
        assert np.array_equal(det, oracle, equal_nan=True)


def _singular_operator(value):
    """A Hamiltonian operator whose metric holds one entry of n = 2."""
    gU = expr_array((2, 2))
    gU[0, 0] = Const(value)
    return HamiltonianOperator(MetricField(2, gU, gU), expr_array((2, 2, 2)))


def test_lambda_split_equals_the_lapack_oracle(box2, flat_pencil):
    e = MetricField.euclidean(2)
    g, gt = flat_pencil
    two = MetricField.from_contravariant(
        np.array([[_p("2"), _p("0")], [_p("0"), _p("2")]], dtype=object))
    big = MetricField.diagonal_contravariant([_p("1e308")] * 2)
    gn = MetricField.from_contravariant(np.array(
        [[_p("2+R2"), _p("0.3*R1")], [_p("0.3*R1"), _p("3+R1*R2")]]))
    gtn = MetricField.from_contravariant(np.array(
        [[_p("1+R1^2"), _p("0.2*R2")], [_p("0.2*R2"), _p("4+R2^2")]]))
    lambdas = (-2.0, -1.0, 0.0, 0.75, 1.5, 3.0)
    cases = [
        (levi_civita_operator(g),
         HamiltonianOperator(gt, btilde_from_r(pencil_operator(g, gt)))),
        (levi_civita_operator(e), levi_civita_operator(two)),
        _violating_pencil("swapped"), _violating_pencil("perturbed"),
        (levi_civita_operator(gn), levi_civita_operator(gtn)),
        # g̃ + 3g overflows to inf: a non-finite det keeps the shift
        (levi_civita_operator(big), levi_civita_operator(big)),
        # no product of two entries is present: every shift degenerates
        (_singular_operator(1.0), _singular_operator(2.0)),
    ]
    splits = []
    for A, At in cases:
        with np.errstate(all="ignore"):
            rep = check_pencil(A, At, box2, lambdas)
            oracle = _lapack_split(A, At, box2, lambdas)
        assert (rep.lambdas_used, rep.lambdas_skipped) == oracle
        splits.append(oracle[1])
    assert splits == [[-2.0], [-2.0], [-2.0, -1.0], [-2.0], [], [-1.0],
                      list(lambdas)]


def test_one_dimensional_chart_has_no_pairs(tmp_path):
    rng = np.random.default_rng(5)
    j1, j2 = _j(_sparse(_random_fields(rng, 1, (7,)), rng, 1.0)[1], 1)
    assert list(j1) == [(0, 0, 0)]
    assert j2 == {}
    chart = Chart(1, ((1.0, 2.0),), (9,))
    g = MetricField.diagonal_contravariant([_p("1+R1^2", 1)])
    assert hamiltonian_residuals(g.gU, levi_civita_operator(g).b,
                                 chart)[1] == 0.0
    cfg = {"chart": {"n": 1, "box": [[1.0, 2.0]], "shape": [9]},
           "metric": {"diag": ["1+R1^2"]}, "metric_tilde": {"diag": ["3+R1"]},
           "lambdas": [0.0, 1.0]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    for command in ("check-hamiltonian", "check-compat"):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        key = "J2" if command == "check-hamiltonian" else "C2"
        assert rep["residuals"][key]["value"] == 0.0


@pytest.mark.parametrize("n,i,s", [(2, 0, 1), (2, 1, 0), (3, 1, 2), (3, 2, 2)])
def test_nan_in_a_diagonal_coefficient_fails_j2_and_c2(n, i, s):
    # the diagonal i == j is not computed; the NaN must still reach the pairs
    chart = Chart(n, ((1.0, 2.0),) * n, (5,) * n)
    e = MetricField.euclidean(n)
    gt = MetricField.diagonal_contravariant(
        [_p(f"{k + 2}+R{k + 1}^2", n) for k in range(n)])
    bt = levi_civita_operator(gt).b
    bt[i, i, s] = Const(float("nan"))
    At = HamiltonianOperator(gt, bt)
    ham = check_hamiltonian(At, chart)
    assert np.isnan(ham.residuals["J2"])
    assert ham.verdict == "fail"
    pc = check_pencil(levi_civita_operator(e), At, chart, lambdas=(0.0, 1.0))
    assert np.isnan(pc.residuals["C2"])
    assert np.isnan(pc.residuals["lambda_sweep"])
    assert pc.verdict_for("C2") == "fail"
    assert pc.verdict == "fail"


def _dense_second_covariant(gn, d2n):
    """Oracle: T + T^{klij} − T^{ikjl} − T^{jlik} of check_theorem1, with
    T = g^{is} g^{jt} ∇_s∇_t r^{kl} by einsum over every entry."""
    T = np.einsum("is...,jt...,stkl...->ijkl...", gn, gn, d2n)
    return (T + np.einsum("klij...->ijkl...", T)
            - np.einsum("ikjl...->ijkl...", T)
            - np.einsum("jlik...->ijkl...", T))


def _dense_identities(btn, rUUn, drUU):
    """Oracle: I1 and I2 of verify_appendix by einsum over every entry."""
    i1 = btn + np.swapaxes(btn, 0, 1) - np.einsum("kij...->ijk...", drUU)
    i2 = (np.einsum("iks...,sj...->ijk...", btn, rUUn)
          - np.einsum("jks...,si...->ijk...", btn, rUUn))
    return i1, i2


def _dense_theorem1(p, chart):
    """Oracle: the residuals and scale of check_theorem1, every tensor
    evaluated on every entry, and the eigenvalue gap of the dense r."""
    g = p.g
    conn = christoffel(g)
    D1 = covariant_derivative(raise_index(p.r, 1, g), "uu", g, conn)
    d2n = eval_array(covariant_derivative(D1, "duu", g, conn), chart)
    gn, rn = eval_array(g.gU, chart), eval_array(p.r, chart)
    residuals = {
        "nijenhuis": max_abs(eval_array(nijenhuis(p.r), chart)),
        "second_covariant": max_abs(_dense_second_covariant(gn, d2n)),
        "flat_g": max_abs(eval_array(riemann_expr(g), chart)),
        "flat_g_tilde": max_abs(eval_array(riemann_expr(p.gt), chart))}
    scale = 1.0 + max_abs(rn, gn, eval_array(p.gt.gU, chart))
    n = g.n
    vals = np.linalg.eigvals(np.moveaxis(rn.reshape(n, n, -1), 2, 0))
    gap = min((float(np.min(np.abs(vals[:, a] - vals[:, c])))
               for a, c in combinations(range(n), 2)), default=np.inf)
    return residuals, scale, gap


def _dense_appendix(p, chart, bt):
    """Oracle: the residuals and scale of verify_appendix from dense arrays."""
    rUU = raise_index(p.r, 1, p.g)
    btn, rUUn = eval_array(bt, chart), eval_array(rUU, chart)
    i1, i2 = _dense_identities(btn, rUUn, eval_array(_d(rUU), chart))
    return {"I1": max_abs(i1), "I2": max_abs(i2)}, 1.0 + max_abs(rUUn, btn)


def _assert_bit_equal(entries, dense):
    s = densify(entries, dense.shape)
    assert np.abs(s).tobytes() == np.abs(dense).tobytes()
    assert max_abs(*entries.values()) == max_abs(dense)


@pytest.mark.parametrize("keep", [1.0, 0.6, 0.3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sparse_theorem1_and_appendix_equal_the_dense_oracle_bit_for_bit(
        n, keep):
    rng = np.random.default_rng(200 + 10 * n + int(10 * keep))
    for grid in [(6, 5), (4, 3, 5)]:
        (gn, d2n), (g, d2) = _sparse(
            _random_fields(rng, n, grid, THEOREM1_RANKS), rng, keep,
            THEOREM1_RANKS)
        _assert_bit_equal(_second_covariant(g, d2, n),
                          _dense_second_covariant(gn, d2n))
        dense, dicts = _sparse(_random_fields(rng, n, grid, APPENDIX_RANKS),
                               rng, keep, APPENDIX_RANKS)
        for s, o in zip(_identities(*dicts, n), _dense_identities(*dense)):
            _assert_bit_equal(s, o)


def _pairs_with_inf(n, field, scale_g=1.0):
    """Sparse and dense results of the two checks with an inf in one entry
    of field ``field`` (0, 1: g, ∇∇r; 2, 3, 4: b̃, r^{ij}, ∂r^{ij})."""
    rng = np.random.default_rng(60 + 10 * n + (field or 0))
    grid = (6, 5)
    ranks = THEOREM1_RANKS + APPENDIX_RANKS
    dense, dicts = _sparse(_random_fields(rng, n, grid, ranks), rng, 0.4,
                           ranks)
    dense[0] *= scale_g                  # the dict grids are views of these
    if field is not None:
        key = (0,) * ranks[field]
        dicts[field][key] = dense[field][key]
        dense[field][key][2, 3] = np.inf
    with np.errstate(all="ignore"):
        return [(_second_covariant(*dicts[:2], n),
                 _dense_second_covariant(*dense[:2])),
                *zip(_identities(*dicts[2:], n),
                     _dense_identities(*dense[2:]))]


@pytest.mark.parametrize("field", range(5))
@pytest.mark.parametrize("n", [2, 3])
def test_sparse_theorem1_and_appendix_keep_the_dense_nan(n, field):
    # an inf meets the zero entries of another factor; the dense sum makes
    # 0·inf = NaN there, and so must the sparse one.  ∂r^{ij} enters I1
    # only, and linearly, so its inf stays an inf.
    pairs = _pairs_with_inf(n, field)
    if field == 4:
        assert np.isinf(pairs[1][1]).any()
    else:
        assert any(np.isnan(o).any() for _, o in pairs)
    for s, o in pairs:
        assert np.array_equal(np.abs(densify(s, o.shape)), np.abs(o),
                              equal_nan=True)


def test_sparse_second_covariant_keeps_the_nan_of_an_overflowing_g_product():
    # finite fields, but g^{is}·g^{jt} overflows, and inf·0 is NaN
    (s, o), *_ = _pairs_with_inf(2, None, scale_g=1e200)
    assert np.isnan(o).any()
    assert np.array_equal(np.abs(densify(s, o.shape)), np.abs(o),
                          equal_nan=True)


def _curved_pencil(n):
    """A pencil of two curved metrics in which g̃ has no zero entry; for
    n = 3, g is diagonal, which keeps the expressions small."""
    rows = {1: ([["2+R1^2"]], [["1+R1"]]),
            2: ([["2+R2", "0.3*R1"], ["0.3*R1", "3+R1*R2"]],
                [["1+R1^2", "0.2*R2"], ["0.2*R2", "4+R2^2"]]),
            3: ([["2+R2", "0", "0"], ["0", "3+R1*R3", "0"],
                 ["0", "0", "4+R2^2"]],
                [["1+R1^2", "0.2", "0.1"], ["0.2", "4+R3", "0.1"],
                 ["0.1", "0.1", "5+R2"]])}[n]
    g, gt = (MetricField.from_contravariant(np.array(
        [[_p(t, n) for t in row] for row in m])) for m in rows)
    return pencil_operator(g, gt)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_theorem1_and_appendix_equal_the_dense_oracle_on_curved_pencils(n):
    chart = Chart(n, ((1.0, 2.0),) * n, (9,) * n)
    p = _curved_pencil(n)
    t1 = check_theorem1(p, chart)
    residuals, scale, gap = _dense_theorem1(p, chart)
    assert t1.residuals == residuals
    assert t1.scale == scale
    assert eigenvalue_gap(entries(p.r, chart), chart) == gap
    assert t1.notes[0] == f"eigenvalue_gap={gap:.3e}"
    bt = btilde_from_r(p)
    app = verify_appendix(p, chart, bt)
    assert (app.residuals, app.scale) == _dense_appendix(p, chart, bt)
    if n > 1:    # nonzero residuals, so the order of summation is tested
        assert residuals["second_covariant"] > 1e-6
        assert app.residuals["I2"] > 1e-6


PENCIL_CHECK = {"chart": {"n": 3, "box": [[0.0, 1.0]] * 3, "shape": [9] * 3},
                "metric": {"diag": ["1", "1", "1"]},
                "metric_tilde": {"diag": ["1+R1^2", "3+R2^2", "6+R3^2"]},
                "lambdas": [0.0, 0.75, 1.5, 2.25, 3.0]}


def test_check_compat_never_evaluates_a_zero_entry(tmp_path, monkeypatch):
    seen = []

    def spy(e, chart):
        seen.append(e)
        return eval_grid(e, chart)

    for info in pkgutil.iter_modules(pencil_lab.__path__):
        module = importlib.import_module(f"pencil_lab.{info.name}")
        if getattr(module, "eval_grid", None) is eval_grid:
            monkeypatch.setattr(module, "eval_grid", spy)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(PENCIL_CHECK))
    out = tmp_path / "out"
    assert main(["check-compat", "--config", str(path), "--out",
                 str(out)]) == 0
    assert seen
    assert not [e for e in seen if e == ZERO]


def _lapack_gap(r, n):
    """Oracle: the pairwise eigenvalue gap of the dense r by LAPACK eigvals."""
    vals = np.linalg.eigvals(np.moveaxis(r.reshape(n, n, -1), 2, 0))
    return min((float(np.min(np.abs(vals[:, a] - vals[:, c])))
                for a, c in combinations(range(n), 2)), default=np.inf)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("shape", ["diagonal", "upper", "lower"])
def test_triangular_gap_equals_lapack_bit_for_bit(n, shape):
    rng = np.random.default_rng(500 + n)
    chart = Chart(n, ((0.0, 1.0),) * n, (5,) * n)
    r = rng.standard_normal((n, n) + chart.shape)
    keep = {"diagonal": np.eye(n, dtype=bool),
            "upper": np.triu(np.ones((n, n), dtype=bool)),
            "lower": np.tril(np.ones((n, n), dtype=bool))}[shape]
    r[~keep] = 0.0
    if n > 1:        # a repeated diagonal value at one point: the gap is 0
        r[n - 1, n - 1].flat[4] = r[0, 0].flat[4]
    f = {idx: r[idx] for idx in zip(*np.nonzero(keep))}
    gap = eigenvalue_gap(f, chart)
    assert gap == _lapack_gap(r, n)
    if n > 1:
        assert gap == 0.0


def test_gap_of_a_non_finite_r_is_nan(box2):
    r = {(0, 0): np.ones(box2.shape), (1, 1): np.full(box2.shape, np.inf),
         (0, 1): np.ones(box2.shape)}
    assert np.isnan(eigenvalue_gap(r, box2))
    r[1, 0] = np.ones(box2.shape)           # not triangular
    assert np.isnan(eigenvalue_gap(r, box2))
    with pytest.raises(np.linalg.LinAlgError):   # what eigvals would do
        _lapack_gap(densify(r, (2, 2) + box2.shape), 2)


def test_check_compat_runs_without_batched_lapack(tmp_path, monkeypatch):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(PENCIL_CHECK))
    reports = []
    for patched in (False, True):
        if patched:
            def forbidden(*args, **kwargs):
                raise AssertionError("batched LAPACK call in check-compat")
            monkeypatch.setattr(np.linalg, "det", forbidden)
            monkeypatch.setattr(np.linalg, "eigvals", forbidden)
        out = tmp_path / f"out{patched}"
        assert main(["check-compat", "--config", str(path), "--out",
                     str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_check_compat_reports_an_overflowing_r_as_a_failure(tmp_path):
    # finite metrics whose r = g̃·g⁻¹ overflows: eigvals used to raise
    cfg = {"chart": {"n": 2, "box": [[0.5, 1.5]] * 2, "shape": [9, 9]},
           "metric": {"diag": ["1e-80*(1+R1)", "1"]},
           "metric_tilde": {"diag": ["1e300*(1+R2)", "1+R1"]},
           "lambdas": [0.0, 1.0]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["check-compat", "--config", str(path), "--out",
                 str(out)]) == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["notes"][:2] == ["eigenvalue_gap=nan", "non_simple_spectrum"]
    assert rep["verdict"] == "fail"


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_check_theorem1_peak_is_below_a_quarter_of_the_dense_one():
    chart = Chart(3, ((0.0, 1.0),) * 3, (33,) * 3)
    chart.mesh()                 # built once per chart, outside both peaks
    p = pencil_operator(
        MetricField.diagonal_contravariant([_p("1", 3)] * 3),
        MetricField.diagonal_contravariant(
            [_p(t, 3) for t in PENCIL_CHECK["metric_tilde"]["diag"]]))
    dense = _peak_bytes(_dense_theorem1, p, chart)
    assert _peak_bytes(check_theorem1, p, chart) < dense / 4


def test_dense_pencil_theorem1_keeps_its_bits_with_shared_derivatives(
        monkeypatch):
    # neither metric has a zero entry, so the symbolic inverse, Christoffel
    # symbols and covariant derivatives share many subexpressions; the
    # residuals are those of the tree-walking diff, bit for bit
    import pencil_lab.expr as expr
    g, gt = ([["2+R2", "0.3*R1", "0.1*R3"], ["0.3*R1", "3+R1*R3", "0.2"],
              ["0.1*R3", "0.2", "4+R2^2"]],
             [["1+R1^2", "0.2*R2", "0.1"], ["0.2*R2", "4+R3", "0.1*R1"],
              ["0.1", "0.1*R1", "5+R2*R3"]])
    calls = []
    plain = expr._diff

    def counting(*args):
        calls.append(1)
        return plain(*args)

    monkeypatch.setattr(expr, "_diff", counting)
    p = pencil_operator(*(MetricField.from_contravariant(np.array(
        [[_p(t, 3) for t in row] for row in m])) for m in (g, gt)))
    t1 = check_theorem1(p, Chart(3, ((1.0, 2.0),) * 3, (5,) * 3))
    assert {k: v.hex() for k, v in t1.residuals.items()} == {
        "nijenhuis": "0x1.7db1105a1920ep-2",
        "second_covariant": "0x1.36590525b77f1p+7",
        "flat_g": "0x1.18c6085c44bd7p-2",
        "flat_g_tilde": "0x1.40bb62b7a13c3p-4"}
    assert t1.scale == 10.0
    assert t1.notes == ["eigenvalue_gap=1.296e-02", "simple_spectrum"]
    # the tree walk made 2.34 M calls into diff
    assert len(calls) < 250_000
