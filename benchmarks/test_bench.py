"""Tests of the benchmark itself; run with ``python3 -m pytest benchmarks``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "benchmarks/run.py"] + args,
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_every_workload_with_the_declared_metrics(trace):
    out = _bench(["--smoke", "--trace", str(trace)])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stderr
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    expected = {f"{w['name']}/{m['name']}": m["unit"]
                for w in BENCHMARK["workloads"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert name.split("/")[1] in out.stdout


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (name, w.why) for name, w in workloads.WORKLOADS.items()]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == tracing.PER_LAYER


def test_configs_are_seeded():
    for name, w in workloads.WORKLOADS.items():
        a = workloads.config(name, 5)
        assert a == workloads.config(name, 5)
        assert a["lambdas"] != workloads.config(name, 6)["lambdas"]
        lams = a["lambdas"]
        assert len(set(lams)) == w.shift_count == len(lams)
        lo, hi = w.shift_range
        assert lams == sorted(lams) and lo <= lams[0] and lams[-1] <= hi


def _smoke_frame_run(tmp_path):
    cli = run.import_cli()
    cfg = workloads.config("frame-sweep", 3, smoke=True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc, _ = run.call_in_process(cli, ["frame", "--config", str(cfg_path),
                                      "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    values = {k: row["value"] for k, row in report["residuals"].items()}
    return rc, out, cfg["lambdas"], values


def test_gate_accepts_a_correct_run_and_names_each_tripped_check(tmp_path):
    rc, out, lambdas, values = _smoke_frame_run(tmp_path)
    keys = gate.key_shape(values, lambdas)
    problems, _, hashes = gate.check_run(rc, str(out), lambdas, keys, values)
    assert problems == []

    wrong = {k: v / 10 for k, v in values.items()}
    problems, _, _ = gate.check_run(rc, str(out), lambdas, keys, wrong)
    assert problems and all("exceeds its reference" in p for p in problems)

    problems, _, _ = gate.check_run(rc, str(out), lambdas, keys[1:])
    assert len(problems) == 1 and "residual keys differ" in problems[0]

    other = dict(hashes, **{"report.json": "0" * 64})
    problems, _, _ = gate.check_run(rc, str(out), lambdas, keys,
                                    first_hashes=other)
    assert len(problems) == 1 and "sha256" in problems[0]

    problems, _, _ = gate.check_run(1, str(out), lambdas, keys)
    assert problems == ["exit code 1"]


def test_wrong_residual_reference_counts_as_a_failed_run(tmp_path):
    rc, out, lambdas, values = _smoke_frame_run(tmp_path)
    reference = {"seed": 3, "workloads": {"frame-sweep": {
        "keys": gate.key_shape(values, lambdas),
        "residuals": {k: 0.0 for k in values}}}}
    checker = run.RunChecker("frame-sweep", 3, lambdas, False, out, reference)
    checker.check("doctored reference", rc)
    assert (checker.attempted, checker.failed) == (1, 1)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    pct, value = run.tail([float(i) for i in range(100)])
    assert pct == 90.0 and value == 89.0


def test_tracer_restores_every_binding():
    run.import_cli()
    from pencil_lab import cli, grids, march
    before = (cli.main, grids.cumint, march.cumint, cli.ThreadPoolExecutor)
    tracer = tracing.Tracer()
    tracer.install()
    assert march.cumint is not before[2] and grids.cumint is march.cumint
    tracer.uninstall()
    assert (cli.main, grids.cumint, march.cumint,
            cli.ThreadPoolExecutor) == before


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = _bench(["--workload", "pencil-check", "--seed", "1",
                  "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
