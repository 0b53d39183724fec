"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single pass/fail line
(visible with pytest -s).  Criterion 6 is expected to fail: integrating the
angle system from the zero seed leaves the principal branch of the reduced
second-order equations inside the unit box, so two of the three residuals
are order one no matter how fine the grid.  The test asserts the stated
bounds anyway and is marked strict-xfail to keep the failure visible.
"""

import json
import time

import numpy as np
import pytest

from pencil_lab.compat import (
    HamiltonianOperator, btilde_from_r, check_pencil, check_theorem1,
    levi_civita_operator, pencil_operator, verify_appendix,
)
from pencil_lab.diagonal import (
    BoundaryData, DiagonalModel, beta_from_pqr, conserved_P,
    flatness_residuals, integrate_S2, monge_ampere_residual, mu_constants,
    pencil_residual_F3, solve_S, solve_lame,
)
from pencil_lab.expr import parse_expr
from pencil_lab.geometry import MetricField, eval_array
from pencil_lab.grids import Chart
from pencil_lab.lax import (
    build_lax, frame_slice, induced_metric_residual, integrate_frame,
    weingarten_scaling_report, zero_curvature_residual,
)
from pencil_lab.march import shift
from pencil_lab.surface import (
    constant_curvature_check, mesh_nontriviality, reconstruct_family,
    seed_surface_model, solve_codazzi, weingarten_family_compare,
    SurfaceModel,
)

BD3 = {(0, 1): "0.2", (1, 0): "0.1*R1", (2, 0): "0.15",
       (0, 2): "0.1+0.05*R3", (1, 2): "0.2", (2, 1): "0.25"}
LAMBDAS = (0.0, 0.5, 1.0, 2.0, 5.0)


def _p(t, n):
    return parse_expr(t, n)


def _diag(ts):
    return MetricField.diagonal_contravariant([_p(t, len(ts)) for t in ts])


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'pass' if ok else 'fail'} ({detail})")


def _corpus():
    box2 = Chart(2, ((0.0, 1.0),) * 2, (17, 17))
    box2s = Chart(2, ((0.5, 1.5),) * 2, (17, 17))
    box3 = Chart(3, ((0.0, 1.0),) * 3, (17,) * 3)
    compatible = [
        (MetricField.euclidean(2), _diag(["1+R1^2", "3+R2^2"]), box2),
        (MetricField.euclidean(2), _diag(["2", "5"]), box2),
        (MetricField.euclidean(3),
         _diag(["1+R1^2", "3+R2^2", "6+R3^2"]), box3),
    ]
    violators = [
        (MetricField.euclidean(2), _diag(["R2", "R1"]), box2s),
        (MetricField.euclidean(2), _diag(["1+R1^2+R2^2", "1"]), box2),
        (_diag(["1", "1"]), MetricField.from_contravariant(np.array(
            [[_p("2+R1", 2), _p("0.5", 2)],
             [_p("0.5", 2), _p("2+R2", 2)]], dtype=object)), box2),
    ]
    return compatible, violators


@pytest.fixture(scope="module")
def diag_solution():
    model = DiagonalModel.constant([1.0, 2.0, 4.0])
    bd = BoundaryData.from_text(BD3, 3)
    out = {}
    for m in (9, 17):
        ch = Chart(3, ((0.0, 1.0),) * 3, (m,) * 3)
        beta, _ = solve_S(bd, ch, model.eta_grids(ch),
                          model.eta_prime_grids(ch))
        H = solve_lame(beta, ch, {0: "1", 1: "1", 2: "1"})
        out[m] = (ch, beta, H)
    return model, bd, out


def test_criterion_01_theorem1_equivalence():
    t0 = time.monotonic()
    compatible, violators = _corpus()
    ok = True
    worst_c, best_v = 0.0, np.inf
    for g, gt, ch in compatible:
        t1 = check_theorem1(pencil_operator(g, gt), ch)
        pc = check_pencil(levi_civita_operator(g), levi_civita_operator(gt),
                          ch, LAMBDAS)
        ok &= t1.verdict == "pass" and pc.verdict == "pass"
        worst_c = max(worst_c, *t1.residuals.values(), *pc.residuals.values())
    for g, gt, ch in violators:
        t1 = check_theorem1(pencil_operator(g, gt), ch)
        pc = check_pencil(levi_civita_operator(g), levi_civita_operator(gt),
                          ch, LAMBDAS)
        ok &= t1.verdict == "fail" and pc.verdict == "fail"
        best_v = min(best_v, max(*t1.residuals.values(),
                                 *pc.residuals.values()))
    elapsed = time.monotonic() - t0
    ok &= worst_c <= 1e-8 and best_v >= 1e-4 and elapsed <= 30.0
    _report(1, ok, f"compatible max {worst_c:.1e}, violator min {best_v:.1e}, "
            f"{elapsed:.1f}s")
    assert ok


def test_criterion_02_derived_coefficients_and_identities():
    compatible, violators = _corpus()
    ok = True
    worst = 0.0
    for g, gt, ch in compatible:
        p = pencil_operator(g, gt)
        bt = btilde_from_r(p)
        lc = levi_civita_operator(gt).b
        dev = float(np.max(np.abs(eval_array(bt, ch) - eval_array(lc, ch))))
        app = verify_appendix(p, ch)
        worst = max(worst, dev, app.residuals["I1"], app.residuals["I2"])
        ok &= dev <= 1e-8 and app.residuals["I1"] <= 1e-9 \
            and app.residuals["I2"] <= 1e-9
    g, gt, ch = violators[0]
    app = verify_appendix(pencil_operator(g, gt), ch)
    ok &= app.verdict_for("I1") == "pass" and app.residuals["I2"] >= 1e-3
    _report(2, ok, f"compatible max {worst:.1e}, "
            f"violator I2 {app.residuals['I2']:.1e}")
    assert ok


def test_criterion_03_second_condition_redundancy():
    compatible, _ = _corpus()
    worst = 0.0
    for g, gt, ch in compatible:
        t1 = check_theorem1(pencil_operator(g, gt), ch)
        if t1.residuals["nijenhuis"] <= 1e-8 \
                and t1.residuals["flat_g"] <= 1e-8 \
                and t1.residuals["flat_g_tilde"] <= 1e-8:
            worst = max(worst, t1.residuals["second_covariant"])
    ok = worst <= 1e-7
    _report(3, ok, f"second condition max {worst:.1e}")
    assert ok


def test_criterion_04_system_integration(diag_solution):
    t0 = time.monotonic()
    model, bd, sols = diag_solution
    res = {}
    for m, (ch, beta, H) in sols.items():
        f1, f2 = flatness_residuals(beta, ch)
        res[m] = max(f1, f2, pencil_residual_F3(beta, ch, model.eta_grids(ch),
                                                model.eta_prime_grids(ch)))
    ratio = res[9] / res[17]
    ch, beta, _ = sols[17]
    x = ch.axes()[0]
    bound = max(float(np.max(np.abs(beta[(0, 1)][0, :, 0] - 0.2))),
                float(np.max(np.abs(beta[(1, 0)][:, 0, 0] - 0.1 * x))))
    alt, _ = solve_S(bd, ch, model.eta_grids(ch), model.eta_prime_grids(ch),
                     order=(2, 1, 0))
    perm = max(float(np.max(np.abs(alt[k] - beta[k]))) for k in beta)
    elapsed = time.monotonic() - t0
    ok = ratio >= 12.0 and bound <= 1e-8 and perm <= 1e-5 and elapsed <= 10.0
    _report(4, ok, f"refinement x{ratio:.1f}, boundary {bound:.1e}, "
            f"permutation {perm:.1e}, {elapsed:.1f}s")
    assert ok


def test_criterion_05_conserved_quantities(diag_solution):
    model, _, sols = diag_solution
    ch, beta, _ = sols[17]
    _, drift = conserved_P(model, beta, ch)
    mus = mu_constants(0.0, 1.0, 2.0)
    mu_dev = max(abs(mus[0] - 1 / np.sqrt(2)), abs(mus[1] - np.sqrt(2)),
                 abs(mus[2] - 1 / np.sqrt(2)))
    c = (1.0, 2.0, 4.0)
    sol, _ = integrate_S2(ch, "0", "0", "0", mus=mu_constants(*c))
    bp = beta_from_pqr(sol, *c)
    P, _ = conserved_P(model, bp, ch)
    p_dev = max(float(np.max(np.abs(P[0] - 1.0))),
                float(np.max(np.abs(P[1] - 1.0))),
                float(np.max(np.abs(P[2] + 1.0))))
    ok = drift <= 1e-6 and p_dev <= 1e-12 and mu_dev <= 1e-12
    _report(5, ok, f"P drift {drift:.1e}, parametrized P dev {p_dev:.1e}, "
            f"mu dev {mu_dev:.1e}")
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "from the zero seed d_2 p = -cosh q <= -1 drives p below 0, so sin p < 0 "
    "on over half of the unit box, while the reduced equations take "
    "sin p = sqrt(1 - (d_1 q)^2) >= 0; two of their residuals are order one "
    "at every resolution"))
def test_criterion_06_angle_system_reduction():
    t0 = time.monotonic()
    ch = Chart(3, ((0.0, 1.0),) * 3, (33,) * 3)
    sol, _ = integrate_S2(ch, "0", "0", "0")
    alt, _ = integrate_S2(ch, "0", "0", "0", order=(2, 1, 0))
    path = max(float(np.max(np.abs(sol[k] - alt[k]))) for k in "pqr")
    ma = monge_ampere_residual(sol, ch, clamp=1e-5)
    elapsed = time.monotonic() - t0
    ok = max(ma) <= 1e-5 and path <= 1e-6 and elapsed <= 5.0
    _report(6, ok, f"reduced residuals {ma[0]:.3e}/{ma[1]:.3e}/{ma[2]:.3e}, "
            f"path independence {path:.1e}, {elapsed:.1f}s")
    assert ok


def test_criterion_07_zero_curvature(diag_solution):
    model, _, sols = diag_solution
    worst = {}
    for m, (ch, beta, _) in sols.items():
        eta = model.eta_grids(ch)
        worst[m] = max(zero_curvature_residual(
            build_lax(shift(lam, eta), beta, ch), ch) for lam in LAMBDAS)
    ch, beta, _ = sols[17]
    broken = dict(beta)
    broken[(0, 1)] = beta[(0, 1)] + 0.1
    pert = zero_curvature_residual(
        build_lax(shift(1.0, model.eta_grids(ch)), broken, ch), ch)
    ok = worst[17] <= 1e-5 and worst[9] / worst[17] >= 12.0 and pert > 1e-2
    _report(7, ok, f"sweep max {worst[17]:.1e}, refinement "
            f"x{worst[9] / worst[17]:.1f}, perturbed {pert:.1e}")
    assert ok


def test_criterion_08_orthogonal_reconstruction(diag_solution):
    model, _, sols = diag_solution
    ch, beta, H = sols[17]
    eta = model.eta_grids(ch)
    worst_o, worst_m = 0.0, 0.0
    for lam in LAMBDAS:
        sh = shift(lam, eta)
        fs = integrate_frame(build_lax(sh, beta, ch), sh, H, ch)
        worst_o = max(worst_o, fs.ortho_drift)
        worst_m = max(worst_m, induced_metric_residual(fs, sh, H, ch))
    ok = worst_o <= 1e-6 and worst_m <= 1e-5
    _report(8, ok, f"orthogonality {worst_o:.1e}, induced metric "
            f"{worst_m:.1e}")
    assert ok


def test_criterion_09_shape_operator_scaling(diag_solution):
    model, _, sols = diag_solution
    mesh_res = {}
    for m, (ch, beta, H) in sols.items():
        eta = model.eta_grids(ch)
        sa, sb = shift(1.0, eta), shift(0.0, eta)
        fa = integrate_frame(build_lax(sa, beta, ch), sa, H, ch)
        fb = integrate_frame(build_lax(sb, beta, ch), sb, H, ch)
        rep = weingarten_scaling_report(frame_slice(fa, sa, ch),
                                        frame_slice(fb, sb, ch), beta, H, ch)
        mesh_res[m] = max(rep["mesh_eigen_residual_a"],
                          rep["mesh_eigen_residual_b"])
        closed = rep["closed_form_residual"]
    ok = closed <= 1e-6 and mesh_res[17] <= 1e-3 \
        and mesh_res[9] / mesh_res[17] >= 3.0
    _report(9, ok, f"closed form {closed:.1e}, mesh {mesh_res[17]:.1e}, "
            f"halving x{mesh_res[9] / mesh_res[17]:.1f}")
    assert ok


def test_criterion_10_surface_family():
    t0 = time.monotonic()
    seed = seed_surface_model()
    shifts = (0.0, 0.5, 1.0)
    cc = {lam: constant_curvature_check(seed, lam) for lam in shifts}
    G11, G22 = seed.shifted_form(0.0)
    curv = solve_codazzi(G11, G22, "2+2*R1", "2.5", seed.chart)
    members = [reconstruct_family(seed, curv, lam) for lam in shifts]
    laxres = {lam: (r3, r2) for lam, (r3, r2, _) in zip(shifts, members)}
    meshes = [mesh for _, _, mesh in members]
    wg = weingarten_family_compare(meshes)
    hd = mesh_nontriviality(meshes[0], meshes[-1])

    control = SurfaceModel.from_text("1", "R1^2", "5-R1^2+3*R2^2", "1+R2^2",
                                     seed.chart)
    ctrl_curv = solve_codazzi(*control.shifted_form(0.0), "2+2*R1", "2.5",
                              seed.chart)
    ctrl = weingarten_family_compare(
        [reconstruct_family(control, ctrl_curv, lam)[2] for lam in (0.0, 1.0)])
    ctrl_dev = max(max(constant_curvature_check(control, lam)
                       for lam in (0.0, 1.0)),
                   ctrl["misalignment_angle"])
    elapsed = time.monotonic() - t0
    ok = (max(cc.values()) <= 1e-8 and curv.pc <= 1e-6
          and max(max(v) for v in laxres.values()) <= 1e-5
          and wg["eigenvalue_deviation"] <= 1e-3
          and wg["misalignment_angle"] <= 1e-2
          and hd >= 1e-3 and ctrl_dev >= 1e-1 and elapsed <= 60.0)
    _report(10, ok, f"curvature {max(cc.values()):.1e}, pc {curv.pc:.1e}, "
            f"lax {max(max(v) for v in laxres.values()):.1e}, eigen "
            f"{wg['eigenvalue_deviation']:.1e}, angle "
            f"{wg['misalignment_angle']:.1e}, move {hd:.2f}, control "
            f"{ctrl_dev:.2f}, {elapsed:.1f}s")
    assert ok


def test_criterion_11_determinism(tmp_path):
    from pencil_lab.cli import main
    cfg = {"chart": {"n": 3, "box": [[0.0, 1.0]] * 3, "shape": [17] * 3},
           "etas": ["1", "2", "4"],
           "beta_boundary": {"1,2": "0.2", "2,1": "0.1*R1", "3,1": "0.15",
                             "1,3": "0.1+0.05*R3", "2,3": "0.2",
                             "3,2": "0.25"},
           "lambdas": [0.5, 2.0]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["frame", "--config", str(path), "--out", str(out)]) == 0
        runs.append(out)
    names = sorted(p.name for p in runs[0].iterdir())
    ok = names == sorted(p.name for p in runs[1].iterdir())
    for name in names:
        ok &= (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    _report(11, ok, f"{len(names)} artifacts byte-identical across reruns")
    assert ok
