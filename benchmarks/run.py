"""Benchmark of the pencil-lab command line.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1> [--smoke]
    python3 benchmarks/run.py --record-reference

Each workload (see workloads.py) is one CLI command on a config generated
from the seed.  With ``--trace 0`` a run measures, with tracing off:

- setup_s: median wall time of a fresh interpreter running only
  ``import pencil_lab.cli``;
- cold_run_s and peak_rss_mb: median wall time and ru_maxrss of a fresh
  ``python -m pencil_lab.cli`` process;
- run_s_p50: median wall time of in-process ``cli.main`` calls, after one
  warm-up call, in a closed loop (the next call starts when the previous one
  returns) for ``--seconds``.

Linux carries a parent's peak RSS into a spawned child's ru_maxrss, so the
fresh interpreters are started before this process imports numpy, and
``--workload all`` runs each workload in a process of its own.

With ``--trace 1`` untraced and traced calls alternate for ``--seconds``;
the run reports the per-layer metrics (tracing.py) and the tracing overhead.
Every run, in-process or not, goes through the correctness gate (gate.py);
failures are counted and named on stderr.

Threads are pinned before numpy is first imported, here and in every child:
one driving process, PENCIL_LAB_THREADS=2 and single-threaded BLAS, so no
more threads run than the two cores the figures were taken on.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Raw samples, the
environment record and the span dump go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import gate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

PINNED_ENV = {"PENCIL_LAB_THREADS": "2", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# (name, unit) of the end-to-end metrics reported with --trace 0.
END_TO_END = [("run_s_p50", "s"), ("cold_run_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]

COLD_REPEATS = 5
SETUP_PER_COLD = 2
MIN_WARM = 3
CHILD_TIMEOUT_S = 60
IMPORT_ONLY = ["-c", "import pencil_lab.cli"]


def environment(seed: int) -> dict:
    """Versions and machine facts a reader needs to compare two runs."""
    try:
        llc = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        llc = ""
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "llc_bytes": int(llc) if llc.isdigit() else None,
            "seed": seed,
            "threads": dict(PINNED_ENV)}


def require_sources() -> None:
    if not (SRC / "pencil_lab" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no pencil_lab sources under {SRC}")


def import_cli():
    """Import pencil_lab.cli from this checkout's src/, and nowhere else."""
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from pencil_lab import cli
    if Path(cli.__file__).resolve().parent != SRC / "pencil_lab":
        raise SystemExit(f"benchmark: imported {cli.__file__}, not {SRC}")
    return cli


def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list, log_path: Path) -> tuple:
    """Run a fresh interpreter; returns (exit code, wall s, ru_maxrss MB)."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT,
                                env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def call_in_process(cli, argv: list) -> tuple:
    """One closed-loop cli.main call; returns (exit code, wall s)."""
    gc.collect()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as e:  # a traceback is a failed run, not a crash
            rc = f"exception {type(e).__name__}: {e}"
        wall = time.perf_counter() - start
    return rc, wall


def tail(samples: list) -> tuple | None:
    """Highest percentile with at least 10 samples above it, and its value."""
    n = len(samples)
    if n <= 10:
        return None
    k = n - 10  # samples at or below the percentile
    return 100.0 * k / n, sorted(samples)[k - 1]


class RunChecker:
    """Applies gate.check_run to each run of one workload and counts."""

    def __init__(self, name, seed, lambdas, smoke, out_dir, reference):
        entry = reference["workloads"][name]
        self.name = name
        self.lambdas = lambdas
        self.out_dir = out_dir
        self.keys = entry["keys"]
        self.values = (entry["residuals"]
                       if seed == reference["seed"] and not smoke else None)
        self.first_hashes = None
        self.last_report = {}
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, rc) -> None:
        problems, report, hashes = gate.check_run(
            rc if isinstance(rc, int) else -1, str(self.out_dir),
            self.lambdas, self.keys, self.values, self.first_hashes)
        if not isinstance(rc, int):
            problems.insert(0, rc)
        if self.first_hashes is None and report is not None:
            self.first_hashes = hashes
        self.last_report = report or {}
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAIL {self.name} {label}: " + "; ".join(problems),
                  file=sys.stderr)


def warm_loop(cli, argv, checker, seconds, min_calls, label) -> list:
    """Closed-loop in-process calls for ``seconds``; returns wall times."""
    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < min_calls or time.perf_counter() < deadline:
        rc, wall = call_in_process(cli, argv)
        walls.append(wall)
        checker.check(f"{label} call {checker.attempted + 1}", rc)
    return walls


def measure_untraced(argv, checker, out_dir, seconds, smoke) -> tuple:
    cold_n, setup_per_cold, min_warm = (1, 1, 1) if smoke else (
        COLD_REPEATS, SETUP_PER_COLD, MIN_WARM)
    # One untimed import first, so the bytecode cache is written once.
    run_child(IMPORT_ONLY, out_dir / "setup.log")
    # Imports alternate with cold runs, so that both medians span the same
    # stretch of time rather than two separate ones.
    setup, cold = [], []
    for i in range(cold_n):
        for _ in range(setup_per_cold):
            rc, wall, _ = run_child(IMPORT_ONLY, out_dir / "setup.log")
            if rc != 0:
                raise SystemExit(f"benchmark: import failed, see {out_dir}")
            setup.append(wall)
        rc, wall, rss = run_child(["-m", "pencil_lab.cli"] + argv,
                                  out_dir / f"cold_{i}.log")
        checker.check(f"cold run {i + 1}", rc)
        cold.append((wall, rss))
    cli = import_cli()
    checker.check("warm-up call", call_in_process(cli, argv)[0])
    warm = warm_loop(cli, argv, checker, seconds, min_warm, "warm")
    metrics = {
        "run_s_p50": statistics.median(warm),
        "cold_run_s": statistics.median(w for w, _ in cold),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r for _, r in cold),
    }
    return metrics, {"warm_s": warm, "cold": cold, "setup_s": setup}


def measure_traced(argv, checker, out_dir, seconds, smoke) -> tuple:
    cli = import_cli()
    checker.check("warm-up call", call_in_process(cli, argv)[0])
    # Untraced and traced calls alternate, so that the overhead is not
    # confounded with drift in machine speed over the run.
    tracer = tracing.Tracer()
    plain, traced, per_call = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < (2 if smoke else MIN_WARM) or (
            time.perf_counter() < deadline):
        plain += warm_loop(cli, argv, checker, 0, 1, "untraced")
        tracer.invocation = len(traced)
        tracer.install()
        try:
            traced += warm_loop(cli, argv, checker, 0, 1, "traced")
        finally:
            tracer.uninstall()
        m = tracer.layer_metrics(tracer.invocation)
        m["compat.lambdas_skipped"] = float(
            len(checker.last_report.get("lambdas_skipped", [])))
        per_call.append(m)
    tracer.write_spans(out_dir / "spans.json")
    metrics, problems = tracing.summarize(per_call)
    for problem in problems:
        print(f"FAIL {checker.name} trace: {problem}", file=sys.stderr)
    checker.failed += bool(problems)
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    return metrics, {"untraced_s": plain, "traced_s": traced,
                     "per_call": per_call}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    require_sources()
    workload = workloads.WORKLOADS[name]
    out_dir = OUT / name
    shutil.rmtree(out_dir, ignore_errors=True)
    art_dir = out_dir / "artifacts"
    art_dir.mkdir(parents=True)
    cfg = workloads.config(name, seed, smoke)
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    argv = [workload.command, "--config", str(cfg_path),
            "--out", str(art_dir)]
    checker = RunChecker(name, seed, cfg["lambdas"], smoke, art_dir,
                         gate.load_reference())
    measure = measure_traced if trace else measure_untraced
    metrics, samples = measure(argv, checker, out_dir, seconds, smoke)
    record = {"workload": name, "command": workload.command,
              "why": workload.why, "config": cfg,
              "environment": environment(seed), "metrics": metrics,
              "attempted": checker.attempted, "failed": checker.failed,
              "samples": samples}
    with open(out_dir / f"result_trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(record: dict, trace: bool) -> None:
    print(f"{record['workload']}: {record['command']} on shifts "
          f"{record['config']['lambdas']}, seed "
          f"{record['environment']['seed']}")
    units = ({n: u for n, u, _ in tracing.PER_LAYER} if trace
             else dict(END_TO_END))
    for metric, value in record["metrics"].items():
        print(f"  {metric:42s} {value:14.6g} {units[metric]}")
    if not trace:
        warm = record["samples"]["warm_s"]
        t = tail(warm)
        if t is None:
            print(f"  {'run_s_tail':42s} {'n/a':>14s} s     ({len(warm)} "
                  "samples; a tail needs more than 10)")
        else:
            print(f"  {'run_s_tail':42s} {t[1]:14.6g} s     "
                  f"(p{t[0]:.0f} of {len(warm)} samples)")
    rate = record["failed"] / record["attempted"]
    print(f"  {'error_rate':42s} {rate:14.6g} ratio ({record['failed']} "
          f"of {record['attempted']} runs failed)")


def record_reference() -> None:
    """Write reference.json from one run of each workload at the default seed.

    Run it only when a change is meant to move residual values or keys, and
    say so in the change.
    """
    cli = import_cli()
    seed = workloads.DEFAULT_SEED
    ref = {"seed": seed, "environment": environment(seed), "workloads": {}}
    for name in workloads.WORKLOADS:
        out_dir = OUT / "reference" / name
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        cfg = workloads.config(name, seed)
        (out_dir / "config.json").write_text(json.dumps(cfg))
        rc, _ = call_in_process(cli, [
            workloads.WORKLOADS[name].command, "--config",
            str(out_dir / "config.json"), "--out", str(out_dir)])
        with open(out_dir / "report.json") as fh:
            report = json.load(fh)
        if rc != 0 or report["verdict"] != "pass":
            raise SystemExit(f"benchmark: {name} did not pass; "
                             "no reference written")
        values = {k: row["value"] for k, row in report["residuals"].items()}
        ref["workloads"][name] = {
            "keys": gate.key_shape(values, cfg["lambdas"]),
            "residuals": values}
    with open(gate.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args) -> int:
    """Each workload in a process of its own; one summary line at the end."""
    metrics, attempted, failed = {}, 0, 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke
                                               else [])
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                             timeout=CHILD_TIMEOUT_S * 3)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            raise SystemExit(f"benchmark: workload {name} exited with "
                             f"{out.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}/{metric}"] = entry
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids and one repetition")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    os.environ.update(PINNED_ENV)
    if args.record_reference:
        record_reference()
        return 0
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args.workload, args.seed,
                          0.0 if args.smoke else args.seconds,
                          bool(args.trace), args.smoke)
    print(json.dumps(record["environment"]), file=sys.stderr)
    print_record(record, bool(args.trace))
    units = ({n: u for n, u, _ in tracing.PER_LAYER} if args.trace
             else dict(END_TO_END))
    print(json.dumps({
        "correct": record["failed"] == 0, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in record["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
