import argparse
import ctypes
import importlib
import json
import os
import re
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

import pencil_lab
from pencil_lab import (cli, compat, diagonal, geometry, grids, io, march,
                        surface)
from pencil_lab.cli import (CURVATURE_BAND, DEFORMATION_BAND, DIRECTION_BAND,
                            EIGENVALUE_BAND, SOLVER_BAND, _pool_map, _table,
                            main)
from pencil_lab.compat import ComplianceReport, verdict
from pencil_lab.expr import as_expr
from pencil_lab.geometry import christoffel
from pencil_lab.grids import Chart, eval_grid
from pencil_lab.march import shift

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


def test_check_compat_builds_each_metric_connection_once(tmp_path,
                                                         monkeypatch):
    # theorem 1, b̃, the Levi-Civita operator and both curvature checks read
    # the Γ that each metric keeps
    built = []

    def counting(g):
        built.append(g)
        return christoffel(g)

    # in every module that binds it, so a by-name import is counted too
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pencil_lab" and \
                hasattr(module, "christoffel"):
            monkeypatch.setattr(module, "christoffel", counting)
    cfg = _write(tmp_path, "c.json", _cfg_compat(["1+R1^2", "3+R2^2"]))
    assert main(["check-compat", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 0
    assert len(built) == 2 and built[0] is not built[1]


def test_check_compat_builds_each_pencil_tensor_once(tmp_path, monkeypatch):
    # r^{ij}, ∇_k r^{ij}, the Levi-Civita operator of g and b̃ are kept on the
    # pencil and read by theorem 1, the appendix and the pencil check
    built = []

    def counting(func, key):
        def wrapper(*args):
            built.append(key(*args))
            return func(*args)
        return wrapper

    for name, key in (("raise_index", lambda T, axis, g: ("raise", T.ndim,
                                                          axis)),
                      ("covariant_derivative", lambda T, v, g: ("nabla", v)),
                      ("levi_civita_operator", lambda g: "levi_civita"),
                      ("btilde_from_r", lambda p: "btilde")):
        func = getattr(compat, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "pencil_lab" and \
                    getattr(module, name, None) is func:
                monkeypatch.setattr(module, name, counting(func, key))
    cfg = _write(tmp_path, "c.json", _cfg_compat(["1+R1^2", "3+R2^2"]))
    assert main(["check-compat", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 0
    for key in (("raise", 2, 1), ("nabla", "uu"), "levi_civita", "btilde"):
        assert built.count(key) == 1, key


def test_rows_metric_gives_the_residuals_of_its_diagonal(tmp_path):
    reports = []
    for form, g, gt in (("diag", ["1", "1"], ["1+R1^2", "3+R2^2"]),
                        ("rows", [["1", "0"], ["0", "1"]],
                         [["1+R1^2", "0"], ["0", "3+R2^2"]])):
        cfg = dict(_cfg_compat(None), metric={form: g},
                   metric_tilde={form: gt})
        out = str(tmp_path / form)
        assert main(["check-compat", "--config",
                     _write(tmp_path, f"{form}.json", cfg), "--out", out]) == 0
        reports.append({k: v for k, v in _report(out).items()
                        if k != "config_digest"})
    assert reports[0] == reports[1]


def test_numeric_entries_read_as_their_text(tmp_path):
    reports = []
    for g11, b in (("2", [[["R1", "0"], ["0", "R2"]],
                          [["1", "R1*R2"], ["0", "2.5"]]]),
                   (2, [[["R1", 0], [0, "R2"]], [[1, "R1*R2"], [0, 2.5]]])):
        cfg = dict(_cfg_ham(), metric={"diag": [g11, "3+R2^2"]}, b=b)
        out = str(tmp_path / str(len(reports)))
        assert main(["check-hamiltonian", "--config",
                     _write(tmp_path, "c.json", cfg), "--out", out]) == 1
        reports.append(_report(out)["residuals"])
    assert reports[0] == reports[1]


def test_dense_metric_above_three_dimensions_is_a_config_error(tmp_path,
                                                               capsys):
    rows = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    rows[0][1] = rows[1][0] = "0.1"
    cfg = {"chart": {"n": 4, "box": [[0.0, 1.0]] * 4, "shape": [5] * 4},
           "metric": {"rows": rows}}
    assert main(["check-hamiltonian", "--config",
                 _write(tmp_path, "c.json", cfg), "--out",
                 str(tmp_path / "o")]) == 3
    assert "symbolic inverse of a dense metric needs n <= 3" in \
        capsys.readouterr().err


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
    # PENCIL_LAB_THREADS bounds the processes of the shift pool and those
    # that write the artifacts; each file is still written whole by one
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
    # no child with one thread; with t threads the pool forks t - 1 (one
    # per shift at most) and the writers t - 1 (one per file at most)
    shifts = len(cfg["lambdas"]) if command != "solve-diagonal" else 1
    assert len(forks) == sum(min(t, shifts) - 1 + min(t, files) - 1
                             for t in (1, 2, 3))


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


class _Libc:
    """A C library whose mallopt records its calls."""

    def __init__(self, calls):
        self.calls = calls

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


def test_main_sets_the_allocator_policy_and_importing_sets_none(
        tmp_path, monkeypatch):
    calls, opened = [], []

    def cdll(name, *args, **kwargs):
        opened.append(name)
        return _Libc(calls)

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(pencil_lab, "cli", cli)
    monkeypatch.delitem(sys.modules, "pencil_lab.cli")
    fresh = importlib.import_module("pencil_lab.cli")
    assert fresh is not cli and calls == [] and opened == []
    assert fresh.main(["check-hamiltonian", "--config",
                       _write(tmp_path, "c.json", _cfg_ham()),
                       "--out", str(tmp_path / "out")]) == 0
    assert opened == [None]
    # glibc's M_MMAP_THRESHOLD (-3) at its 64-bit maximum of 32 MiB, and
    # M_TRIM_THRESHOLD (-1) above it, so a freed grid is not trimmed
    policy = dict(calls)
    assert len(calls) == 2 and policy[-3] == 32 << 20
    assert policy[-1] >= policy[-3]


def _refuse(name, *args, **kwargs):
    raise OSError("no process handle")


@pytest.mark.parametrize("cdll", [lambda name, *a, **k: object(), _refuse],
                         ids=["no-mallopt", "oserror"])
def test_a_library_without_mallopt_changes_no_artifact(tmp_path, monkeypatch,
                                                       cdll):
    command, cfg, code = SPLIT_RUNS[0]
    path = _write(tmp_path, "c.json", cfg)
    outputs = []
    for policy in ("set", "skipped"):
        if policy == "skipped":
            monkeypatch.setattr(ctypes, "CDLL", cdll)
        out = tmp_path / policy
        assert main([command, "--config", path, "--out", str(out)]) == code
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert code == 0 and len(outputs[0]) >= 3 and outputs[0] == outputs[1]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_shift_task_errors_keep_their_text_and_exit_code(tmp_path, capsys,
                                                         monkeypatch,
                                                         threads):
    # with two or more workers these tasks fail in forked children, which
    # send their exceptions back; the lowest shift's failure is reported
    monkeypatch.setenv("PENCIL_LAB_THREADS", threads)
    tiny = dict(_cfg_surface()["surface"], g11="1e-18", g22="1e-18*R1^2")
    runs = [
        # the pole at -1.5 (item 1) is reported before the one at -2.5
        ("frame", _cfg_diag({"lambdas": [0.5, -1.5, -2.5]}), 3,
         "config error: shift -1.5 touches a pole: min(lam + eta) = "
         "-5.000e-01\n"),
        # H_i / sqrt(lam + eta_i) falls below 1e-10 at the shifts 1000 and
        # 2000 (items 1 and 2): the Gauss map stands still
        ("deform-surface", dict(_cfg_surface(), surface=tiny,
                                lambdas=[0.0, 1000.0, 2000.0]), 1,
         "run failed: Gauss map degenerate\n"),
    ]
    for command, cfg, code, message in runs:
        out = tmp_path / command
        assert main([command, "--config", _write(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == code
        assert capsys.readouterr().err == message
        assert not out.exists()
        _no_child_left()


@pytest.mark.parametrize("how", ["exit", "kill"])
def test_a_lost_shift_worker_is_a_run_failure(tmp_path, capsys, monkeypatch,
                                              how):
    # a child that ends without sending its result fails the run: exit 1
    # with one line, no traceback and no output directory
    here = os.getpid()
    reconstruct = surface.reconstruct_family

    def dying(model, curv, lam):
        if lam == 1.0 and os.getpid() != here:
            if how == "exit":
                os._exit(7)
            os.kill(os.getpid(), signal.SIGKILL)
        return reconstruct(model, curv, lam)

    monkeypatch.setattr(surface, "reconstruct_family", dying)
    monkeypatch.setenv("PENCIL_LAB_THREADS", "2")
    out = tmp_path / "o"
    assert main(["deform-surface", "--config",
                 _write(tmp_path, "s.json", _cfg_surface()), "--out",
                 str(out)]) == 1
    status = 7 if how == "exit" else -signal.SIGKILL
    assert capsys.readouterr().err == (
        f"run failed: a forked worker exited with status {status} before "
        "sending its result\n")
    assert not out.exists()
    _no_child_left()


def test_a_lost_writer_is_a_run_failure(tmp_path, capsys, monkeypatch):
    # a forked writer that ends without sending fails the run as a lost
    # shift worker does: exit 1 with one line and no traceback
    here = os.getpid()
    write = cli.write_obj

    def dying(*args):
        if os.getpid() != here:
            os._exit(7)
        return write(*args)

    monkeypatch.setattr(cli, "write_obj", dying)
    monkeypatch.setenv("PENCIL_LAB_THREADS", "2")
    assert main(["deform-surface", "--config",
                 _write(tmp_path, "s.json", _cfg_surface()), "--out",
                 str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "run failed: a forked worker exited with status 7 before sending its "
        "result\n")
    _no_child_left()


@pytest.mark.parametrize("command,cfg", [
    ("check-compat", _cfg_compat(["1+R1^2", "3+R2^2"])),
    ("check-hamiltonian", _cfg_ham())])
def test_a_run_without_files_starts_no_pool(tmp_path, monkeypatch, command,
                                            cfg):
    def refuse(*args, **kwargs):
        raise AssertionError("started a pool")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(cli, "ThreadPoolExecutor", refuse)
    monkeypatch.setenv("PENCIL_LAB_THREADS", "2")
    out = tmp_path / "o"
    assert main([command, "--config", _write(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]


def test_a_live_thread_keeps_the_shift_pool_in_threads(tmp_path,
                                                      monkeypatch):
    # a child would hold a copy of this thread only, so none is forked; the
    # thread pool gives the same bytes
    cfg = _write(tmp_path, "f.json", _cfg_diag({"lambdas": [0.5, 2.0, 3.0]}))
    monkeypatch.setenv("PENCIL_LAB_THREADS", "1")
    assert main(["frame", "--config", cfg, "--out",
                 str(tmp_path / "one")]) == 0

    def refuse():
        raise AssertionError("forked with another thread alive")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setenv("PENCIL_LAB_THREADS", "2")
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert main(["frame", "--config", cfg, "--out",
                     str(tmp_path / "two")]) == 0
    finally:
        release.set()
        thread.join()
    one, two = ({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
                for d in ("one", "two"))
    assert one == two and len(one) == 5


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
        Chart(2, cfg_dict["chart"]["box"], cfg_dict["chart"]["shape"]))
    for lam in cfg_dict["lambdas"]:
        mats = surface._lax_mats(*model.coefficient_grids[:4],
                                 *shift(lam, model.eta_grids))
        r3, r2 = surface.lax_residuals_3x3_2x2(mats, model.chart)
        assert np.array([res[f"lax3_{lam:g}"]["value"],
                         res[f"lax2_{lam:g}"]["value"]]).tobytes() == \
            np.array([r3, r2]).tobytes()


def test_deform_surface_forms_lam_plus_eta_once_per_shift(tmp_path,
                                                         monkeypatch):
    # the curvature check refuses a pole without forming the grids, so only
    # the shift task calls march.shift
    calls = []

    def counting(lam, etas):
        calls.append(lam)
        return shift(lam, etas)

    for module in (cli, surface, march):
        monkeypatch.setattr(module, "shift", counting)
    monkeypatch.setenv("PENCIL_LAB_THREADS", "1")
    cfg_dict = dict(_cfg_surface(), lambdas=[0.0, 0.5, 1.0, 1.5])
    assert main(["deform-surface", "--config",
                 _write(tmp_path, "s.json", cfg_dict), "--out",
                 str(tmp_path / "out")]) == 0
    assert calls == cfg_dict["lambdas"]


def test_deform_surface_pole_is_refused_before_the_radii_fail(tmp_path,
                                                             capsys):
    # k1 = 0 fails the run (exit 1) once the radii are solved; the pole at
    # -3 is an input error found before that
    cfg_dict = _cfg_surface()
    cfg_dict["surface"]["k1_line"] = "0"
    assert main(["deform-surface", "--config",
                 _write(tmp_path, "s.json", cfg_dict), "--out",
                 str(tmp_path / "o"), "--lambda=0,-3"]) == 3
    assert capsys.readouterr().err.startswith(
        "config error: shift -3.0 touches a pole")


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
    assert len(calls) == 15


@pytest.mark.parametrize("threads", ["1", "2"])
def test_deform_surface_failing_shift_task_writes_nothing(tmp_path, capsys,
                                                          monkeypatch,
                                                          threads):
    # k1 = 0 passes the radii transport and is refused once after it, before
    # any shift task
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


def test_eta2_off_its_coordinate_is_noted(tmp_path):
    cfg_dict = _cfg_surface()
    cfg_dict["surface"]["eta2"] = "1+R2^2+0.1*R1"
    # a negative control: the curvature-one rows fail and the notes say why
    out = str(tmp_path / "out")
    assert main(["deform-surface", "--config",
                 _write(tmp_path, "s.json", cfg_dict), "--out", out]) == 1
    assert _report(out)["notes"] == ["eta2 depends on the first coordinate"]


def test_no_fixed_point_is_a_run_failure(tmp_path, capsys, monkeypatch):
    # the march gives up after MAX_SWEEPS sweeps; the run writes nothing
    monkeypatch.setattr(march, "MAX_SWEEPS", 2)
    out = tmp_path / "out"
    assert main(["solve-diagonal", "--config",
                 _write(tmp_path, "d.json", _cfg_diag()), "--out",
                 str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"run failed: no fixed point after 2 sweeps "
                        r"\(last delta [^)]*\)\n", err), err
    assert not out.exists()


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


def _compat_with_chart(**chart):
    cfg = _cfg_compat(["1+R1^2", "3+R2^2"])
    return dict(cfg, chart=dict(cfg["chart"], **chart))


def _cfg_diag_2d():
    return {"chart": {"n": 2, "box": [[0.0, 1.0]] * 2, "shape": [9, 9]},
            "etas": ["1", "2"], "beta_boundary": {"1,2": "0.2", "2,1": "0"},
            "lambdas": [0.5, 2.0]}


# The cases below whose fault is an entry that overflows on the box.
OVERFLOWING_ENTRY = {"metric-inf-1e308", "metric-inf-1e200",
                     "surface-inf-1e200"}

# The message of each case below whose fault is line data read off its line
# (which the march would read at the corner alone) or a pair given twice.
LINE_FAULTS = {
    "lame-boundary-off-line":
        "lame_boundary entry 1 must depend only on coordinate 1",
    "lame-boundary-other-coordinate":
        "lame_boundary entry 2 must depend only on coordinate 2",
    "s2-seed-off-line":
        "the s2 seed entry 1 must depend only on coordinate 1",
    "beta-boundary-pair-twice": "beta_boundary names the pair (1, 2) twice",
}


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
    # a text is one entry, never a list of one-letter expressions
    pytest.param("check-hamiltonian", dict(_cfg_ham(), metric={"diag": "13"}),
                 [], id="diag-string"),
    pytest.param("check-hamiltonian",
                 dict(_cfg_ham(), metric={"rows": ["10", "01"]}), [],
                 id="rows-strings"),
    pytest.param("check-hamiltonian", dict(_cfg_ham(), b=[["00", "00"]] * 2),
                 [], id="b-rows-strings"),
    pytest.param("solve-diagonal", dict(_cfg_diag(), etas="124"), [],
                 id="etas-string"),
    pytest.param("frame", _cfg_diag({"lame_boundary": [10 ** 400, "1", "1"]}),
                 [], id="lame-boundary-huge-int"),
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
    # JSON true and false would be read as 1 and 0; no key takes them
    pytest.param("frame", _cfg_diag({"etas": [True, "2", "4"],
                                     "lambdas": [0.5]}), [],
                 id="etas-boolean"),
    pytest.param("check-compat",
                 dict(_cfg_compat(["1+R1^2", "3+R2^2"]), lambdas=[True]), [],
                 id="lambdas-boolean"),
    pytest.param("solve-diagonal",
                 _cfg_diag({"beta_boundary": dict(BD_KEYS, **{"1,2": True})}),
                 [], id="beta-boundary-boolean"),
    pytest.param("deform-surface",
                 dict(_cfg_surface(), surface=dict(_cfg_surface()["surface"],
                                                   k1_line=False)), [],
                 id="surface-k1-line-boolean"),
    # a chart count is a whole number: int() of inf raises OverflowError
    pytest.param("check-compat", _compat_with_chart(shape=[float("inf"), 9]),
                 [], id="shape-infinity"),
    pytest.param("check-compat", _compat_with_chart(n=float("inf")), [],
                 id="n-infinity"),
    pytest.param("check-compat", _compat_with_chart(n=float("nan")), [],
                 id="n-nan"),
    pytest.param("check-compat", _compat_with_chart(shape=[9.5, 9]), [],
                 id="shape-non-integral"),
    pytest.param("check-compat", _compat_with_chart(n=2.5), [],
                 id="n-non-integral"),
    # a huge n with --grid would ask for a tuple of n counts
    pytest.param("check-compat", _compat_with_chart(n=10 ** 30),
                 ["--grid", "9"], id="n-huge-with-grid"),
    # an integer too large for a float
    pytest.param("check-compat",
                 _compat_with_chart(box=[[0, 10 ** 400], [0, 1]]), [],
                 id="box-huge-int"),
    pytest.param("deform-surface", dict(_cfg_surface(), lambdas=[10 ** 400]),
                 [], id="lambdas-huge-int"),
    pytest.param("frame", _cfg_diag({"lame_boundary": ["1+R2+R3", "1", "1"]}),
                 [], id="lame-boundary-off-line"),
    pytest.param("frame", _cfg_diag({"lame_boundary": ["1", "1+R1", "1"]}),
                 [], id="lame-boundary-other-coordinate"),
    pytest.param("solve-diagonal", _cfg_diag({"s2": {"seed": ["R2", "0",
                                                              "0"]}}),
                 [], id="s2-seed-off-line"),
    pytest.param("frame", _cfg_diag({"beta_boundary": dict(
        BD_KEYS, **{"01,2": "0.9"})}), [], id="beta-boundary-pair-twice"),
    pytest.param("deform-surface", dict(_cfg_surface(),
                                        chart=_cfg_diag()["chart"]), [],
                 id="surface-3d-chart"),
    # the angle system is posed for constant etas only
    pytest.param("solve-diagonal",
                 _cfg_diag({"etas": ["1+R1", "2", "4"],
                            "s2": {"seed": ["0.1", "0.2", "0.3"]}}), [],
                 id="s2-non-constant-etas"),
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
    if request.node.callspec.id in LINE_FAULTS:
        assert err == f"config error: {LINE_FAULTS[request.node.callspec.id]}\n"


@pytest.mark.parametrize("command,cfg_dict", [
    # g22 = 1e-320 leaves the surface no extent along R2
    ("deform-surface", dict(_cfg_surface(), surface=dict(
        _cfg_surface()["surface"], g22=1e-320))),
    # a box 1e-320 wide gives the slice mesh subnormal spacings
    ("frame", _with_box(_cfg_diag({"lambdas": [0.5, 2.0]}),
                        [[0.0, 1e-320], [0.0, 1.0], [0.0, 1.0]])),
], ids=["surface-g22-subnormal", "frame-box-subnormal"])
def test_degenerate_mesh_is_a_run_failure(tmp_path, capsys, command,
                                          cfg_dict):
    # its shape operator is not finite, where numpy's eigvals would raise
    cfg = _write(tmp_path, "c.json", cfg_dict)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--grid", "9"]) == 1
    err = capsys.readouterr().err
    assert err == ("run failed: mesh shape operator is not finite: "
                   "the mesh degenerates\n")
    assert not out.exists()


def test_integral_float_chart_counts_are_counts(tmp_path):
    # JSON 2.0 and 9.0 read as 2 and 9: the same residuals as the integers
    residuals = []
    for n, m in ((2, 9), (2.0, 9.0)):
        cfg = _write(tmp_path, "c.json",
                     _compat_with_chart(n=n, shape=[m, m]))
        out = str(tmp_path / f"o{len(residuals)}")
        assert main(["check-compat", "--config", cfg, "--out", out]) == 0
        residuals.append(_report(out)["residuals"])
    assert residuals[0] == residuals[1]


@pytest.mark.parametrize("out,cfg_out", [
    ("{file}", None), ("{file}/sub", None), (None, 5), (None, ["x"]),
    (None, ""), (None, "a\0b"),
], ids=["file", "below-a-file", "number", "list", "empty", "nul"])
def test_unusable_output_directory_is_a_config_error(tmp_path, capsys,
                                                     monkeypatch, out,
                                                     cfg_out):
    monkeypatch.chdir(tmp_path)    # where a relative default would go
    (tmp_path / "file").write_text("x")
    cfg_dict = _cfg_diag() if cfg_out is None else dict(_cfg_diag(),
                                                        out=cfg_out)
    cfg = _write(tmp_path, "c.json", cfg_dict)
    before = sorted(tmp_path.rglob("*"))
    argv = ["solve-diagonal", "--config", cfg]
    if out is not None:
        argv += ["--out", out.format(file=tmp_path / "file")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "file").read_text() == "x"


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("blocked", ["report.json", "surface_lambda_0.obj",
                                     "surface_lambda_0.5.obj"])
def test_an_output_directory_that_cannot_take_a_file_is_a_config_error(
        tmp_path, capfd, monkeypatch, threads, blocked):
    # a directory at an artifact's path: its writer raises an OSError here,
    # or, with two processes, in the forked writer of surface_lambda_0.5.obj
    monkeypatch.setenv("PENCIL_LAB_THREADS", threads)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    cfg = _write(tmp_path, "s.json",
                 dict(_cfg_surface(), lambdas=[0.0, 0.5, 1.0]))
    assert main(["deform-surface", "--config", cfg, "--out", str(out)]) == 3
    err = capfd.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("config error: ")
    assert blocked in err.splitlines()[-1]


def _eta_evaluations(tmp_path, monkeypatch, command) -> int:
    """Runs ``command`` on the diagonal config; asserts that it evaluates
    each eta once and returns its number of eval_grid calls."""
    calls = []

    def counting(e, chart):
        calls.append(e)
        return eval_grid(e, chart)

    for module in (diagonal, geometry, grids, surface):
        monkeypatch.setattr(module, "eval_grid", counting)
    cfg_dict = _cfg_diag({"lambdas": [0.5, 2.0, 3.0]})
    assert main([command, "--config", _write(tmp_path, "f.json", cfg_dict),
                 "--out", str(tmp_path / "out")]) == 0
    for text in cfg_dict["etas"]:
        assert calls.count(as_expr(text, 3)) == 1, text
    return len(calls)


def test_frame_evaluates_each_eta_once(tmp_path, monkeypatch):
    # solve_S and the frame functions of every shift share one grid of each
    # eta; the other three calls are the etas' derivatives, which solve_S
    # reads
    assert _eta_evaluations(tmp_path, monkeypatch, "frame") == 6


def test_solve_diagonal_evaluates_each_eta_once(tmp_path, monkeypatch):
    # solve_S and F3 share one grid of each eta and one of each derivative
    assert _eta_evaluations(tmp_path, monkeypatch, "solve-diagonal") == 6


def test_numeric_beta_boundary_reads_as_its_text(tmp_path):
    numeric = {k: float(v) if re.fullmatch(r"[0-9.]+", v) else v
               for k, v in BD_KEYS.items()}
    assert sum(isinstance(v, float) for v in numeric.values()) == 4
    runs = []
    for name, lines in (("text", BD_KEYS), ("numeric", numeric)):
        cfg = _write(tmp_path, f"{name}.json",
                     _cfg_diag({"beta_boundary": lines}))
        out = tmp_path / name
        assert main(["solve-diagonal", "--config", cfg, "--out",
                     str(out)]) == 0
        digest, *rows = (out / "beta.csv").read_text().splitlines()
        runs.append((digest, rows, _report(str(out))["residuals"]))
    (digest_t, rows_t, res_t), (digest_n, rows_n, res_n) = runs
    assert rows_t == rows_n and res_t == res_n
    assert digest_t != digest_n          # the configs differ


NO_FILE_RUNS = [
    ("check-hamiltonian", _cfg_ham()),
    ("check-compat", _cfg_compat(["1+R1^2", "3+R2^2"])),
    ("solve-diagonal", _cfg_diag({"s2": {"seed": ["1.5707963267948966", "0",
                                                  "0"]}})),
    ("frame", _cfg_diag({"lambdas": [0.5, 2.0]})),
    ("deform-surface", _cfg_surface()),
]


@pytest.mark.parametrize("command,cfg_dict", NO_FILE_RUNS,
                         ids=[r[0] for r in NO_FILE_RUNS])
def test_commands_touch_no_file(tmp_path, monkeypatch, command, cfg_dict):
    # a command returns its files; main creates the directory and writes
    # them, and its report lists them in the command's order
    path = _write(tmp_path, "c.json", cfg_dict)
    out = tmp_path / "out"
    main([command, "--config", path, "--out", str(out)])
    artifacts = _report(str(out))["artifacts"]

    def refuse(*args, **kwargs):
        raise AssertionError("a command touched a file")

    monkeypatch.chdir(tmp_path)
    for module, name in ((os, "makedirs"), (cli, "write_json_report")):
        monkeypatch.setattr(module, name, refuse)
    before = sorted(tmp_path.rglob("*"))
    args = argparse.Namespace(out=None, lam=None, grid=None)
    with np.errstate(all="ignore"):
        _, _, files = cli.COMMANDS[command](cfg_dict, args,
                                            cli._chart(cfg_dict))
    assert sorted(tmp_path.rglob("*")) == before
    assert [name for name, _, _ in files] == artifacts
    monkeypatch.undo()
    again = tmp_path / "again"
    again.mkdir()
    digest = io.canonical_digest(cfg_dict)
    for name, writer, data in files:
        writer(str(again / name), *data, digest)
        assert (again / name).read_bytes() == (out / name).read_bytes()


def test_angle_q_out_of_its_range_is_a_run_failure(tmp_path, capsys):
    # q = 21 on its line: on a box 1e-6 wide the march still converges, and
    # the angle system is refused past |q| = 20
    box = [[0.0, 1e-6]] * 3
    cfg = _write(tmp_path, "d.json", _with_box(
        _cfg_diag({"s2": {"seed": ["0", "21", "0"]}}), box))
    out = tmp_path / "o"
    assert main(["solve-diagonal", "--config", cfg, "--out", str(out),
                 "--grid", "9"]) == 1
    assert capsys.readouterr().err == (
        "run failed: angle q left the trustworthy range (|q| > 20)\n")
    assert not out.exists()


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
