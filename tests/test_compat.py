import json

import numpy as np
import pytest

from pencil_lab.cli import main
from pencil_lab.compat import (
    ComplianceReport, HamiltonianOperator, _d, _fields, _j,
    check_hamiltonian, check_pencil, check_theorem1, btilde_from_r,
    hamiltonian_residuals, levi_civita_operator, pencil_operator,
    verify_appendix,
)
from pencil_lab.expr import Const, evaluate, parse_expr
from pencil_lab.geometry import MetricField, eval_array, expr_array
from pencil_lab.grids import Chart, max_abs


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


def _random_fields(rng, n, grid):
    return [rng.standard_normal((n,) * k + grid) for k in (2, 3, 3, 4)]


def _sparse(fields, rng, keep):
    """The dict fields of compat._j, each entry kept with probability
    ``keep``, and the dense fields with the dropped entries set to zero."""
    dense, dicts = [], []
    for f, rank in zip(fields, (2, 3, 3, 4)):
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


def _densify(entries, shape):
    out = np.zeros(shape)
    for idx, grid in entries.items():
        out[idx] = grid
    return out


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
        s1 = _densify(j1, o1.shape)
        s2 = _densify(j2, (n, n, n, n) + grid)[np.triu_indices(n, 1)]
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
    s1 = _densify(j1, o1.shape)
    s2 = _densify(j2, (n, n, n, n) + grid)[np.triu_indices(n, 1)]
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
