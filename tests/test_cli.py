import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from pencil_lab import surface
from pencil_lab.cli import (CURVATURE_BAND, DEFORMATION_BAND, DIRECTION_BAND,
                            EIGENVALUE_BAND, SOLVER_BAND, _pool_map, _table,
                            main)
from pencil_lab.compat import ComplianceReport, verdict
from pencil_lab.expr import as_expr
from pencil_lab.grids import Chart, eval_grid

BD_KEYS = {"1,2": "0.2", "2,1": "0.1*R1", "3,1": "0.15",
           "1,3": "0.1+0.05*R3", "2,3": "0.2", "3,2": "0.25"}


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _cfg_ham():
    return {"chart": {"n": 2, "box": [[0.0, 1.0], [0.0, 1.0]],
                      "shape": [9, 9]},
            "metric": {"diag": ["1+R1^2", "3+R2^2"]}}


def _cfg_compat(tilde):
    return {"chart": {"n": 2, "box": [[0.5, 1.5], [0.5, 1.5]],
                      "shape": [9, 9]},
            "metric": {"diag": ["1", "1"]},
            "metric_tilde": {"diag": tilde},
            "lambdas": [0.0, 0.75, 1.5]}


def _cfg_diag(extra=None):
    cfg = {"chart": {"n": 3, "box": [[0.0, 1.0]] * 3, "shape": [17] * 3},
           "etas": ["1", "2", "4"],
           "beta_boundary": dict(BD_KEYS)}
    if extra:
        cfg.update(extra)
    return cfg


def _cfg_surface():
    return {"chart": {"n": 2, "box": [[0.5, 1.5], [0.0, 1.0]],
                      "shape": [33, 33]},
            "surface": {"g11": "1", "g22": "R1^2", "eta1": "5-R1^2",
                        "eta2": "1+R2^2", "k1_line": "2+2*R1",
                        "k2_line": "2.5"},
            "lambdas": [0.0, 1.0]}


def _report(out):
    with open(os.path.join(out, "report.json")) as fh:
        return json.load(fh)


def test_check_hamiltonian_passes(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _cfg_ham())
    out = str(tmp_path / "out")
    assert main(["check-hamiltonian", "--config", cfg, "--out", out]) == 0
    assert capsys.readouterr().out.strip() == "check-hamiltonian: pass"
    rep = _report(out)
    assert rep["verdict"] == "pass"
    assert set(rep["residuals"]) == {"J1", "J2"}


def test_infinite_residual_fails_on_an_infinite_band(tmp_path, capsys):
    # b = 1e308·R1 gives J1 = inf and so scale = inf: the band is (inf, inf)
    cfg = _write(tmp_path, "c.json",
                 {"chart": {"n": 1, "box": [[0.0, 10.0]], "shape": [9]},
                  "metric": {"diag": ["1"]}, "b": [[["1e308*R1"]]]})
    out = str(tmp_path / "out")
    assert main(["check-hamiltonian", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().out.strip() == "check-hamiltonian: fail"
    rep = _report(out)
    assert rep["residuals"]["J1"] == {"value": float("inf"), "verdict": "fail"}


def test_check_compat_pass_and_fail(tmp_path):
    ok = _write(tmp_path, "ok.json", _cfg_compat(["1+R1^2", "3+R2^2"]))
    out = str(tmp_path / "ok_out")
    assert main(["check-compat", "--config", ok, "--out", out]) == 0
    rep = _report(out)
    assert rep["lambdas_used"] == [0.0, 0.75, 1.5]
    assert rep["lambdas_skipped"] == []

    bad = _write(tmp_path, "bad.json", _cfg_compat(["R2", "R1"]))
    out2 = str(tmp_path / "bad_out")
    assert main(["check-compat", "--config", bad, "--out", out2]) == 1
    rep2 = _report(out2)
    assert rep2["residuals"]["nijenhuis"]["verdict"] == "fail"


@pytest.mark.parametrize("tilde,row", [
    # g̃ stays finite on the box, b̃ ~ 709·exp(709·R1)/2 overflows
    pytest.param(["exp(709*R1)", "3+R2^2"], "C1", id="b-overflows"),
    # g̃ and b̃ stay finite, ∂_1 b̃^{11}_1 overflows; no nonzero g^{t1} with
    # t != 1 multiplies it, so only the zero entries of g carry it into C2
    pytest.param(["2+sin(1e300*R1)", "3+R2^2"], "C2", id="db-overflows"),
])
def test_overflowing_coefficients_fail_check_compat(tmp_path, tilde, row):
    cfg = _write(tmp_path, "c.json",
                 _with_box(_cfg_compat(tilde), [[0.0, 1.0], [0.0, 1.0]]))
    out = str(tmp_path / "out")
    assert main(["check-compat", "--config", cfg, "--out", out]) == 1
    rep = _report(out)["residuals"]
    for key in (row, "lambda_sweep"):
        assert np.isnan(rep[key]["value"])
        assert rep[key]["verdict"] == "fail"


def test_overflow_prints_only_the_message(tmp_path):
    # numpy's floating-point warnings stay off stderr, pool threads included
    runs = [("check-compat", _with_box(_cfg_compat(["1+R1^2", "3+R2^2"]),
                                       [[0, 1e308], [0, 1]]), 3,
             "config error: metric_tilde is not finite on the box"),
            ("frame", _with_box(_cfg_diag({"lambdas": [0.5, 2.0]}),
                                [[0, 1e200], [0, 1], [0, 1]]), 1,
             "run failed: solution exceeded the blow-up guard or is not "
             "finite")]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PENCIL_LAB_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(src), env.get("PYTHONPATH")]))
    for command, cfg, code, message in runs:
        argv = [command, "--config", _write(tmp_path, f"{command}.json", cfg),
                "--out", str(tmp_path / command)]
        proc = subprocess.run([sys.executable, "-m", "pencil_lab.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert (proc.returncode, proc.stderr) == (code, message + "\n")


def test_shift_pool_tasks_ignore_floating_point_errors(monkeypatch):
    monkeypatch.setenv("PENCIL_LAB_THREADS", "2")
    quiet = dict.fromkeys(("divide", "over", "under", "invalid"), "ignore")
    assert _pool_map(lambda _: np.geterr(), range(4)) == [quiet] * 4


def test_lambda_override(tmp_path):
    ok = _write(tmp_path, "ok.json", _cfg_compat(["1+R1^2", "3+R2^2"]))
    out = str(tmp_path / "out")
    assert main(["check-compat", "--config", ok, "--out", out,
                 "--lambda", "0.25,1.25"]) == 0
    assert _report(out)["lambdas_used"] == [0.25, 1.25]


def test_solve_diagonal_outputs(tmp_path):
    cfg = _write(tmp_path, "d.json", _cfg_diag())
    out = str(tmp_path / "out")
    assert main(["solve-diagonal", "--config", cfg, "--out", out]) == 0
    rep = _report(out)
    assert {"F1", "F2", "F3", "P_drift"} <= set(rep["residuals"])
    assert rep["egorov"] is False
    assert "beta.csv" in rep["artifacts"]
    with open(os.path.join(out, "beta.csv")) as fh:
        header = fh.readline()
    assert rep["config_digest"] in header


def test_solve_diagonal_angle_system_inconclusive_then_pass(tmp_path):
    cfg = _write(tmp_path, "d.json", _cfg_diag(
        {"s2": {"seed": ["1.5707963267948966", "0", "0"]}}))
    out = str(tmp_path / "coarse")
    # second differences of the marched potential at h = 1/16 land between
    # the verdict bands
    assert main(["solve-diagonal", "--config", cfg, "--out", out]) == 2
    out2 = str(tmp_path / "fine")
    assert main(["solve-diagonal", "--config", cfg, "--out", out2,
                 "--grid", "33"]) == 0
    rep = _report(out2)
    assert "angles.csv" in rep["artifacts"]


def test_frame_command(tmp_path):
    cfg = _write(tmp_path, "f.json", _cfg_diag({"lambdas": [0.5, 2.0]}))
    out = str(tmp_path / "out")
    assert main(["frame", "--config", cfg, "--out", out]) == 0
    rep = _report(out)
    for lam in ("0.5", "2"):
        assert f"zero_curvature_{lam}" in rep["residuals"]
        assert f"slice_lambda_{lam}.obj" in rep["artifacts"]
    assert "scaling_closed_form" in rep["residuals"]
    assert "lame.csv" in rep["artifacts"]
    with open(os.path.join(out, "slice_lambda_0.5.obj")) as fh:
        obj = fh.read()
    assert "v " in obj and "vn " in obj and "f " in obj


def test_frame_respects_thread_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PENCIL_LAB_THREADS", "2")
    cfg = _write(tmp_path, "f.json", _cfg_diag({"lambdas": [0.5, 2.0]}))
    out = str(tmp_path / "out")
    assert main(["frame", "--config", cfg, "--out", out]) == 0


SPLIT_RUNS = [
    ("frame", _cfg_diag({"lambdas": [0.5, 2.0, 3.0]}), 0),
    ("deform-surface", dict(_cfg_surface(), lambdas=[0.0, 0.5, 1.0]), 0),
    ("solve-diagonal",
     _cfg_diag({"s2": {"seed": ["1.5707963267948966", "0", "0"]}}), 2),
]


@pytest.mark.parametrize("command,cfg,code", SPLIT_RUNS,
                         ids=[r[0] for r in SPLIT_RUNS])
def test_artifacts_do_not_depend_on_the_writer_processes(
        tmp_path, monkeypatch, command, cfg, code):
    # PENCIL_LAB_THREADS also bounds the processes that write the
    # artifacts; each file is still written whole by one of them
    fork = os.fork
    forks = []

    def counting():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    path = _write(tmp_path, "c.json", cfg)
    outputs = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("PENCIL_LAB_THREADS", threads)
        out = tmp_path / f"out{threads}"
        assert main([command, "--config", path, "--out", str(out)]) == code
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    files = len(outputs[0]) - 1                   # all but report.json
    assert outputs[0] == outputs[1] == outputs[2]
    assert sorted(_report(str(out))["artifacts"]) == sorted(
        set(outputs[0]) - {"report.json"})
    # no child with one thread, then one, then two (one per file at most)
    assert len(forks) == 0 + 1 + (min(3, files) - 1)


def test_one_thread_writes_the_artifacts_without_forking(tmp_path,
                                                         monkeypatch):
    def refuse():
        raise AssertionError("forked with PENCIL_LAB_THREADS=1")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setenv("PENCIL_LAB_THREADS", "1")
    for command, cfg, code in SPLIT_RUNS:
        out = str(tmp_path / command)
        assert main([command, "--config", _write(tmp_path, "c.json", cfg),
                     "--out", out]) == code
        assert len(_report(out)["artifacts"]) >= 2


def test_frame_pole_is_config_error(tmp_path):
    cfg = _write(tmp_path, "f.json", _cfg_diag({"lambdas": [0.5]}))
    assert main(["frame", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--lambda=-10"]) == 3


def test_frame_pole_after_a_good_shift_leaves_no_artifacts(tmp_path):
    # the shift 0.5 is solved before the pole at -1.5 is met
    cfg = _write(tmp_path, "f.json", _cfg_diag({"lambdas": [0.5, -1.5]}))
    out = tmp_path / "o"
    assert main(["frame", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()


def test_deform_surface_full_chain(tmp_path):
    cfg = _write(tmp_path, "s.json", _cfg_surface())
    out = str(tmp_path / "out")
    assert main(["deform-surface", "--config", cfg, "--out", out]) == 0
    rep = _report(out)
    res = rep["residuals"]
    assert res["curvature_one_0"]["verdict"] == "pass"
    assert res["curvature_one_1"]["verdict"] == "pass"
    assert res["weingarten_eigenvalues"]["verdict"] == "pass"
    assert res["weingarten_directions"]["verdict"] == "pass"
    assert res["deformation_size"]["verdict"] == "pass"
    assert "surface_lambda_0.obj" in rep["artifacts"]
    assert "surface_lambda_1.obj" in rep["artifacts"]
    assert rep["excluded_vertices"] == [0, 0]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_deform_surface_lax_rows_match_one_serial_call(tmp_path, monkeypatch,
                                                       threads):
    # each shift's residuals come from its own pool task
    monkeypatch.setenv("PENCIL_LAB_THREADS", threads)
    cfg_dict = dict(_cfg_surface(), lambdas=[0.0, 0.5, 1.0, 1.5])
    out = str(tmp_path / "out")
    assert main(["deform-surface", "--config",
                 _write(tmp_path, "s.json", cfg_dict), "--out", out]) == 0
    res = _report(out)["residuals"]
    model = surface.SurfaceModel.from_text(
        *(cfg_dict["surface"][k] for k in ("g11", "g22", "eta1", "eta2")),
        Chart(2, cfg_dict["chart"]["box"], cfg_dict["chart"]["shape"]),
        cfg_dict["lambdas"])
    want = surface.lax_residuals_3x3_2x2(*model.lame_beta(), model.eta1,
                                         model.eta2, model.chart,
                                         model.lambdas)
    assert len(want) == 4
    for lam, (r3, r2) in want.items():
        assert np.array([res[f"lax3_{lam:g}"]["value"],
                         res[f"lax2_{lam:g}"]["value"]]).tobytes() == \
            np.array([r3, r2]).tobytes()


def test_deform_surface_evaluates_each_input_once(tmp_path, monkeypatch):
    # the finiteness check, validate and the curvature check share one grid
    # of each input, whatever the number of shifts
    calls = []

    def counting(e, chart):
        calls.append(e)
        return eval_grid(e, chart)

    monkeypatch.setattr(surface, "eval_grid", counting)
    cfg_dict = dict(_cfg_surface(), lambdas=[0.0, 0.5, 1.0, 1.5])
    assert main(["deform-surface", "--config",
                 _write(tmp_path, "s.json", cfg_dict), "--out",
                 str(tmp_path / "out")]) == 0
    for key in ("g22", "eta1", "eta2"):
        assert calls.count(as_expr(cfg_dict["surface"][key], 2)) == 1, key
    assert len(calls) == 17


@pytest.mark.parametrize("threads", ["1", "2"])
def test_deform_surface_failing_shift_task_writes_nothing(tmp_path, capsys,
                                                          monkeypatch,
                                                          threads):
    # k1 = 0 passes the radii transport but fails every mesh build
    monkeypatch.setenv("PENCIL_LAB_THREADS", threads)
    cfg_dict = _cfg_surface()
    cfg_dict["surface"]["k1_line"] = "0"
    out = tmp_path / "out"
    assert main(["deform-surface", "--config",
                 _write(tmp_path, "s.json", cfg_dict), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "run failed: k1 vanishes on the grid; the position vector equation "
        "degenerates\n")
    assert not out.exists()


def test_deform_surface_negative_control(tmp_path):
    cfg_dict = _cfg_surface()
    cfg_dict["surface"]["eta1"] = "5-R1^2+3*R2^2"
    cfg = _write(tmp_path, "s.json", cfg_dict)
    out = str(tmp_path / "out")
    assert main(["deform-surface", "--config", cfg, "--out", out]) == 1
    rep = _report(out)
    assert rep["residuals"]["curvature_one_0"]["verdict"] == "fail"
    assert any("eta1" in n for n in rep["notes"])


def test_missing_config_file(tmp_path):
    assert main(["check-hamiltonian", "--config",
                 str(tmp_path / "absent.json")]) == 3


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check-hamiltonian", "--config", str(path)]) == 3


def test_bad_expression_is_config_error(tmp_path):
    cfg_dict = _cfg_ham()
    cfg_dict["metric"]["diag"][0] = "1+*R1"
    cfg = _write(tmp_path, "c.json", cfg_dict)
    assert main(["check-hamiltonian", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("diag", [["log(R1-5)", "1"],   # log of a negative
                                  ["R1-0.5", "1"]])     # vanishes on the box
def test_domain_error_is_config_error(tmp_path, capsys, diag):
    cfg_dict = _cfg_ham()
    cfg_dict["metric"]["diag"] = diag
    cfg = _write(tmp_path, "c.json", cfg_dict)
    assert main(["check-hamiltonian", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 3
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_solver_residual_fails(value):
    assert verdict(value, *SOLVER_BAND) == "fail"


def test_small_grid_is_config_error(tmp_path):
    cfg = _write(tmp_path, "c.json", _cfg_ham())
    assert main(["check-hamiltonian", "--config", cfg,
                 "--out", str(tmp_path / "o"), "--grid", "3"]) == 3


def test_missing_surface_key_is_config_error(tmp_path):
    cfg_dict = _cfg_surface()
    del cfg_dict["surface"]["k1_line"]
    cfg = _write(tmp_path, "s.json", cfg_dict)
    assert main(["deform-surface", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 3


def test_outputs_are_deterministic(tmp_path):
    cfg = _write(tmp_path, "d.json", _cfg_diag())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["solve-diagonal", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["solve-diagonal", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ("report.json", "beta.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["check-hamiltonian"],                            # no --config
    ["check-hamiltonian", "--config", "{cfg}", "--grid", "abc"],
    ["no-such-command", "--config", "{cfg}"],
    ["check-hamiltonian", "--config", "{cfg}", "--tol", "1e-3"],  # removed
])
def test_usage_errors_are_config_errors(tmp_path, capsys, argv):
    cfg = _write(tmp_path, "c.json", _cfg_ham())
    argv = [a.format(cfg=cfg) for a in argv] + ["--out", str(tmp_path / "o")]
    assert main(argv) == 3
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,cfg_dict", [
    ("check-compat", _cfg_compat(["1+R1^2", "3+R2^2"])),
    ("deform-surface", _cfg_surface()),
])
@pytest.mark.parametrize("lambdas", [["abc"], 5, [None], "15", [],
                                     [0.0, "inf"], [0.5, 0.5],
                                     [0.5, 0.5000001], [0.0, -0.0]])
def test_bad_lambdas_are_config_errors(tmp_path, capsys, command, cfg_dict,
                                       lambdas):
    cfg = _write(tmp_path, "c.json", dict(cfg_dict, lambdas=lambdas))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "config error" in capsys.readouterr().err


def test_deform_surface_pole_is_config_error(tmp_path, capsys):
    # eta1 = 5 - R1^2 reaches 2.75 on the box, so a shift of -3 crosses it
    cfg = _write(tmp_path, "s.json", _cfg_surface())
    assert main(["deform-surface", "--config", cfg, "--out",
                 str(tmp_path / "o"), "--lambda=0,-3"]) == 3
    err = capsys.readouterr().err
    assert "config error: shift -3.0 touches a pole" in err
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("key,text,message", [
    ("g22", "log(R1-1)", "log of a non-positive value"),
    ("eta2", "1+log(R2)", "log of a non-positive value"),
    # finite, but the curvature of the base metric divides by it
    ("g22", "R1^2*(R2-0.5)^2", "division by zero"),
])
def test_deform_surface_domain_error_wins_over_a_pole(tmp_path, capsys, key,
                                                      text, message):
    # the shift -3 also touches a pole of eta1; the domain error is reported
    cfg_dict = _cfg_surface()
    cfg_dict["surface"][key] = text
    cfg = _write(tmp_path, "s.json", cfg_dict)
    assert main(["deform-surface", "--config", cfg, "--out",
                 str(tmp_path / "o"), "--lambda=0,-3"]) == 3
    err = capsys.readouterr().err
    assert f"config error: {message}\n" in err
    assert "pole" not in err
    assert not (tmp_path / "o").exists()


def _without(cfg, key):
    return {k: v for k, v in cfg.items() if k != key}


def _with_box(cfg, box):
    return dict(cfg, chart=dict(cfg["chart"], box=box))


def _cfg_diag_2d():
    return {"chart": {"n": 2, "box": [[0.0, 1.0]] * 2, "shape": [9, 9]},
            "etas": ["1", "2"], "beta_boundary": {"1,2": "0.2", "2,1": "0"},
            "lambdas": [0.5, 2.0]}


# The cases below whose fault is an entry that overflows on the box.
OVERFLOWING_ENTRY = {"metric-inf-1e308", "metric-inf-1e200",
                     "surface-inf-1e200"}


@pytest.mark.parametrize("command,cfg_dict,argv", [
    pytest.param("frame", _cfg_diag_2d(), [], id="frame-2d-chart"),
    pytest.param("frame", _cfg_diag(), ["--lambda=,"], id="frame-no-shift"),
    pytest.param("frame", _cfg_diag({"lambdas": []}), [],
                 id="frame-empty-shifts"),
    pytest.param("deform-surface", _cfg_surface(), ["--lambda=,"],
                 id="surface-no-shift"),
    pytest.param("check-hamiltonian", _without(_cfg_ham(), "metric"), [],
                 id="no-metric"),
    pytest.param("check-compat",
                 _without(_cfg_compat(["1+R1^2", "3+R2^2"]), "metric_tilde"),
                 [], id="no-metric-tilde"),
    pytest.param("solve-diagonal", _cfg_diag({"s2": {"seed": 5}}), [],
                 id="s2-seed-number"),
    pytest.param("solve-diagonal", _cfg_diag({"s2": 5}), [],
                 id="s2-number"),
    pytest.param("solve-diagonal",
                 _cfg_diag({"s2": {"seed": [None, "0", "0"]}}), [],
                 id="s2-seed-null"),
    pytest.param("check-hamiltonian",
                 dict(_cfg_ham(), metric={"diag": ["1e400+R1", "1"]}), [],
                 id="overflowing-literal"),
    pytest.param("check-hamiltonian",
                 dict(_cfg_ham(), metric={"diag": ["2^2000+R1", "1"]}), [],
                 id="overflowing-power"),
    pytest.param("check-hamiltonian", dict(_cfg_ham(), b=[[1]]), [],
                 id="short-b"),
    pytest.param("solve-diagonal", dict(_cfg_diag(), etas=5), [],
                 id="etas-number"),
    pytest.param("solve-diagonal", dict(_cfg_diag(), beta_boundary=[]), [],
                 id="beta-boundary-list"),
    pytest.param("frame", _cfg_diag({"lame_boundary": ["1"]}), [],
                 id="short-lame-boundary"),
    pytest.param("deform-surface", dict(_cfg_surface(), surface=5), [],
                 id="surface-number"),
    pytest.param("deform-surface",
                 dict(_cfg_surface(), surface=dict(_cfg_surface()["surface"],
                                                   k1_line=None)), [],
                 id="surface-null-line"),
    # 1 + R1^2 overflows on these boxes
    pytest.param("check-compat",
                 _with_box(_cfg_compat(["1+R1^2", "3+R2^2"]),
                           [[0, 1e308], [0, 1]]), [], id="metric-inf-1e308"),
    pytest.param("check-compat",
                 _with_box(_cfg_compat(["1+R1^2", "3+R2^2"]),
                           [[0, 1e200], [0, 1]]), [], id="metric-inf-1e200"),
    pytest.param("deform-surface",
                 _with_box(_cfg_surface(), [[-1e308, 1e308], [0, 1]]), [],
                 id="box-width-overflows"),
    # g22 = R1^2 and eta1 = 5 - R1^2 overflow, which is no pole of a shift
    pytest.param("deform-surface",
                 _with_box(_cfg_surface(), [[0.5, 1e200], [0, 1]]), [],
                 id="surface-inf-1e200"),
])
def test_config_faults_are_config_errors(tmp_path, capsys, request, command,
                                         cfg_dict, argv):
    cfg = _write(tmp_path, "c.json", cfg_dict)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)] + argv) == 3
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err
    assert not out.exists()
    if request.node.callspec.id in OVERFLOWING_ENTRY:
        assert "is not finite on the box" in err
        assert "pole" not in err


def test_angle_system_off_its_branch_is_a_run_failure(tmp_path, capsys):
    # from the zero seed the differenced d_1 q exceeds 1 at 17^3, which
    # monge_ampere_residual reports as a MarchError
    cfg = _write(tmp_path, "d.json", _cfg_diag({"s2": {"seed": ["0", "0",
                                                                "0"]}}))
    out = tmp_path / "o"
    assert main(["solve-diagonal", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "run failed: 1 - (d1 q)^2 reaches" in err
    assert "Traceback" not in err
    assert not out.exists()    # no beta.csv either


def _readme_configs():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
    return [json.loads(b) for b in blocks]


def test_close_shifts_are_a_trivial_deformation(tmp_path, capsys):
    cfg = _write(tmp_path, "s.json",
                 dict(_readme_configs()[1], lambdas=[0.5, 0.5001]))
    out = str(tmp_path / "o")
    assert main(["deform-surface", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().out.strip() == "deform-surface: fail"
    rep = _report(out)
    row = rep["residuals"]["deformation_size"]
    assert row["value"] == pytest.approx(4.9e-5, rel=0.01)
    assert row["verdict"] == "fail"
    assert rep["verdict"] == "fail"


def _reference_band(value, pass_at, fail_at):
    """A band rule written out apart from compat.verdict, fail tested first."""
    if not np.isfinite(value) or value >= fail_at:
        return "fail"
    if value <= pass_at:
        return "pass"
    return "inconclusive"


def _reference_floor(value, pass_at, fail_at):
    """deformation_size passes iff it is at least 1e-3 (pass_at = fail_at)."""
    return "pass" if value >= pass_at else "fail"


def _report_row(scale):
    return lambda v: ComplianceReport({"r": v}, scale).verdict_for("r")


def _table_row(band):
    return lambda v: _table({"r": v}, band)["r"]["verdict"]


@pytest.mark.parametrize("judge,pass_at,fail_at,reference", [
    pytest.param(_report_row(1.0), 1e-8, 1e-4, _reference_band,
                 id="compat-scale-1"),
    pytest.param(_report_row(3.5), 1e-8 * 3.5, 1e-4 * 3.5, _reference_band,
                 id="compat-scale-3.5"),
    pytest.param(_report_row(np.inf), np.inf, np.inf, _reference_band,
                 id="compat-scale-inf"),
    pytest.param(_table_row(SOLVER_BAND), 1e-5, 1e-2, _reference_band,
                 id="solver"),
    pytest.param(_table_row(CURVATURE_BAND), 1e-8, 1e-4, _reference_band,
                 id="curvature-one"),
    pytest.param(_table_row(EIGENVALUE_BAND), 1e-3, 1e-1, _reference_band,
                 id="weingarten-eigenvalues"),
    pytest.param(_table_row(DIRECTION_BAND), 1e-2, 1e-1, _reference_band,
                 id="weingarten-directions"),
    pytest.param(lambda v: verdict(-v, *DEFORMATION_BAND), 1e-3, 1e-3,
                 _reference_floor, id="deformation-size"),
])
def test_verdict_matches_reference_rules(judge, pass_at, fail_at, reference):
    values = [0.0, pass_at, np.nextafter(pass_at, np.inf),
              (pass_at + fail_at) / 2, np.nextafter(fail_at, 0.0), fail_at,
              10 * fail_at, np.nan, np.inf]
    for v in values:
        assert judge(v) == reference(v, pass_at, fail_at), v


@pytest.mark.parametrize("index,command", [(0, "check-compat"),
                                           (1, "deform-surface")])
def test_readme_example_configs_pass(tmp_path, index, command):
    configs = _readme_configs()
    assert len(configs) == 2
    cfg = _write(tmp_path, "c.json", configs[index])
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_no_command_imports_scipy(tmp_path):
    # scipy is a test-only dependency: a fresh interpreter that imports the
    # CLI and runs these commands must never load it
    runs = [("deform-surface", _cfg_surface()),
            ("frame", _cfg_diag({"lambdas": [0.5, 2.0]})),
            ("check-compat", _cfg_compat(["1+R1^2", "3+R2^2"]))]
    argvs = [[cmd, "--config", _write(tmp_path, f"{cmd}.json", cfg),
              "--out", str(tmp_path / cmd)] for cmd, cfg in runs]
    script = (
        "import json, sys\n"
        "import pencil_lab.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "seen = [['import', 0, scipy_modules()]]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    code = pencil_lab.cli.main(argv)\n"
        "    seen.append([argv[0], code, scipy_modules()])\n"
        "print(json.dumps(seen))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == [["import", 0, []], ["deform-surface", 0, []],
                    ["frame", 0, []], ["check-compat", 0, []]]
    assert "deformation_size" in _report(str(tmp_path / "deform-surface"))[
        "residuals"]
