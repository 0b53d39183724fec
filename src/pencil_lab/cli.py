"""Command-line front end: config ingestion, dispatch, and artifact export.

Commands
  check-hamiltonian   residuals of the two bracket conditions for (g, b)
  check-compat        pencil compatibility: operator criteria plus shift sweep
  solve-diagonal      rotation-coefficient system, conservation, angle system
  frame               spectral-shift frames, curvature checks, slice export
  deform-surface      surface family reconstruction and comparison

Exit codes: 0 pass, 1 fail, 2 inconclusive, 3 configuration error.
Reports are JSON with sorted keys; wall time goes to stderr only so that
identical configurations produce byte-identical artifacts.

``main`` reads the config and the chart and writes every file; a command
returns its residual rows and its files, ``(name, writer, data)``.  The
shift tasks, then the CSV and OBJ files, go through one pool, ``_pool_map``,
of PENCIL_LAB_THREADS (read by ``_threads`` only) processes, or of threads
where no fork can be.  Two threads ran ``frame`` or ``deform-surface``
0-25 % faster than one, two processes 25-35 % faster (2-core Xeon, warm
runs in alternating rounds), so a second core helps most as a second
process: ``run_forked`` forks the children, deals the items whole by
``_deal`` (a shift weighs 1, a file the values it prints) and reaps them.
Each item is computed by the same code from the same arrays in any process,
so the split moves no byte.  A lost worker exits 1; a writer's OSError
exits 3 and names its file.

``main`` first sets the C library's allocator policy (``_keep_freed_grids``):
a freed grid stays in the heap for the next one, where glibc would unmap or
trim it and the kernel zero-fill its pages again.  Importing this module
sets nothing, and no allocation changes a value, so no artifact byte moves.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import compat, diagonal, lax, surface
from .expr import DomainError, ParseError, as_expr, coords_used
from .geometry import MetricField, expr_array, grid_max, GeometryError
from .grids import Chart, GridError, max_abs
from .io import canonical_digest, write_csv_grid, write_json_report, write_obj
from .march import MarchError, PoleError, shift

__all__ = ["main"]

# Verdict bands (pass_at, fail_at) of compat.verdict; each compat report
# carries its own, ComplianceReport.band.  Solver residuals are measured by
# fourth order differences, so machine-epsilon bands would mislabel them.
SOLVER_BAND = (1e-5, 1e-2)
CURVATURE_BAND = (compat.PASS_FACTOR, compat.FAIL_FACTOR)  # scale 1
EIGENVALUE_BAND = (1e-3, 1e-1)     # Weingarten operators across the family
DIRECTION_BAND = (1e-2, 1e-1)
DEFORMATION_BAND = (-1e-3, -1e-3)  # on −value: a deformation is >= 1e-3

EXIT_BY_VERDICT = {"pass": 0, "fail": 1, "inconclusive": 2}


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error: exit 3
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _keep_freed_grids() -> None:
    """Serve every grid from the heap and keep what is freed there, so the
    next grid reuses its pages.  A C library without mallopt is left as it
    is; on Windows CDLL(None) raises TypeError."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    # glibc's M_MMAP_THRESHOLD (-3) at its 64-bit maximum, above every grid
    # the commands build (a 65^3 frame is 20 MB), and M_TRIM_THRESHOLD (-1)
    # at twice that, as glibc's own dynamic threshold would set it
    mallopt(-3, 32 << 20)
    mallopt(-1, 64 << 20)


def _threads() -> int:
    raw = os.environ.get("PENCIL_LAB_THREADS", "1")
    try:
        v = int(raw)
    except ValueError:
        v = 1
    return max(1, min(v, 64))


def _pool_map(fn, items, weigh=None) -> list:
    """``fn`` over ``items``, in order, with floating-point errors ignored as
    in ``main``: forked by ``run_forked``, dealt on ``weigh``, given two or
    more workers, os.fork and no other live thread, which a child would not
    copy; else in a thread pool (np.errstate per thread)."""
    def quiet(item):
        with np.errstate(all="ignore"):
            return fn(item)

    workers = min(_threads(), len(items))
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        with ThreadPoolExecutor(max_workers=_threads()) as pool:
            return list(pool.map(quiet, items))
    return run_forked(quiet, items, workers, weigh)


def _deal(weights: list, workers: int) -> list:
    """The item indices of each of ``workers`` processes, as dealt: whole,
    largest weight first, each to the process with the least weight so far
    (the first on a tie), so equal weights give item k to process k mod
    workers and this process, the first, takes the largest item."""
    shares, loads = [[] for _ in range(workers)], [0] * workers
    for k in sorted(range(len(weights)), key=weights.__getitem__,
                    reverse=True):
        w = loads.index(min(loads))
        shares[w].append(k)
        loads[w] += weights[k]
    return shares


def run_forked(fn, items, workers: int, weigh=None) -> list:
    """``[fn(item) for item in items]`` in this process and up to
    ``workers - 1`` children forked at once, with no other thread alive
    (``_pool_map`` sees to it), dealt by ``_deal`` on ``weigh(item)``, 1
    each by default.  A process runs its items in index order up to its
    first failure; a child pickles its results and that failure through a
    pipe.  The results come in item order and the lowest-index failure is
    raised, as ``pool.map`` does; a child that exits without sending is a
    MarchError.  The children are always reaped, killed first on an error
    here or a failure of item 0 here."""
    import pickle  # numpy has loaded it; only this path needs the name

    shares = [sorted(s) for s in _deal([weigh(item) if weigh else 1
                                        for item in items], workers) if s]

    def run(share):  # (results, failure or None) of the items of share
        done = []
        try:
            for k in share:
                done.append(fn(items[k]))
        except Exception as e:
            return done, e
        return done, None

    sys.stdout.flush()
    sys.stderr.flush()
    pids, pipes = [], []  # per child: its pid, the two ends of its pipe
    try:
        for share in shares[1:]:
            pipes.append([os.fdopen(fd, mode)
                          for fd, mode in zip(os.pipe(), ("rb", "wb"))])
            pids.append(os.fork())
            if pids[-1] == 0:  # the child, which never returns
                try:
                    pipes[-1][1].write(pickle.dumps(run(share)))
                    pipes[-1][1].close()
                    os._exit(0)
                finally:
                    os._exit(1)
            pipes[-1][1].close()
        done, failure = run(shares[0])
        if failure is not None and shares[0][len(done)] == 0:
            raise failure  # no failure can precede item 0's
        sent = [r.read() for r, _ in pipes]
    except BaseException:
        import signal  # only this path needs it; importing costs setup time
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for end in (end for pipe in pipes for end in pipe):
            end.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid in pids]
    for code in filter(None, codes):
        raise MarchError(f"a forked worker exited with status {code} before "
                         "sending its result")
    outcomes = [(done, failure)] + [pickle.loads(data) for data in sent]
    results, failures = [None] * len(items), {}
    for share, (done, failure) in zip(shares, outcomes):
        for k, result in zip(share, done):
            results[k] = result
        if failure is not None:  # the item it stopped at
            failures[share[len(done)]] = failure
    if failures:
        raise failures[min(failures)]
    return results


def _size(job) -> int:
    """A writer job's weight, the values it prints: the sizes of its array
    arguments and of the arrays in a dict argument (the CSV columns)."""
    arrays = []
    for a in job[1]:
        arrays += a.values() if isinstance(a, dict) else [a]
    return sum(a.size for a in arrays if isinstance(a, np.ndarray))


def _count(v) -> int:
    """A chart count: an integer, or a float with an integral value."""
    if isinstance(v, float) and not v.is_integer():   # inf and NaN too
        raise ValueError(f"count {v!r} is not a whole number")
    return int(v)


def _chart(cfg: dict, grid_override=None) -> Chart:
    try:
        section = cfg["chart"]
        n = _count(section["n"])
        box = tuple((float(a), float(b)) for a, b in section["box"])
        shape = tuple(_count(m) for m in section["shape"])
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        # OverflowError: a box bound written as an integer past the floats
        raise ConfigError(f"bad chart section: {e}")
    if grid_override is not None:   # one count per interval; Chart checks n
        shape = (int(grid_override),) * len(box)
    try:
        return Chart(n, box, shape)
    except GridError as e:
        raise ConfigError(str(e))


def _require_finite(what: str, peak: float) -> None:
    """An entry that overflows on a huge box would reach the solvers as inf;
    ``peak`` is its largest absolute value on the box."""
    if not np.isfinite(peak):
        raise ConfigError(f"{what} is not finite on the box")


def _tensor(raw, rank: int, chart: Chart, what: str) -> np.ndarray:
    """``raw`` as an Expr array with ``rank`` axes of length chart.n: nested
    lists of exactly that shape whose leaves, expression texts or numbers,
    are each read by as_expr.  A text is a leaf, never a list of letters."""
    n = chart.n
    out = expr_array((n,) * rank)

    def fill(v, idx):
        if len(idx) < rank and isinstance(v, list) and len(v) == n:
            for i, u in enumerate(v):
                fill(u, idx + (i,))
        elif len(idx) == rank and isinstance(v, (str, int, float)):
            out[idx] = as_expr(v, n)
        else:
            raise ConfigError(f"{what} needs nested lists of shape "
                              f"{(n,) * rank} of expressions or numbers")

    fill(raw, ())
    return out


def _lines(raw, chart: Chart, what: str) -> np.ndarray:
    """``raw`` as one expression per coordinate line: entry j (from 0) gives
    a field on the j-th line through the corner, so it may read R^{j+1}
    alone."""
    lines = _tensor(raw, 1, chart, what)
    for j, e in enumerate(lines):
        if coords_used(e) - {j + 1}:
            raise ConfigError(f"{what} entry {j + 1} must depend only on "
                              f"coordinate {j + 1}")
    return lines


def _metric(cfg: dict, key: str, chart: Chart) -> MetricField:
    try:
        section = cfg[key]
        if "diag" in section:
            g = MetricField.diagonal_contravariant(
                _tensor(section["diag"], 1, chart, f"{key} diag"))
        else:
            g = MetricField.from_contravariant(
                _tensor(section["rows"], 2, chart, f"{key} rows"))
    except ParseError as e:
        raise ConfigError(f"metric entry: {e}")
    except (KeyError, TypeError) as e:
        raise ConfigError(f"bad {key} section: {e}")
    except GeometryError as e:
        raise ConfigError(str(e))
    _require_finite(key, grid_max(g.gU, chart))
    return g


def _lambdas(cfg: dict, override) -> list:
    raw = (cfg.get("lambdas", [0.0]) if override is None
           else [tok for tok in override.split(",") if tok])
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"shift list must be a non-empty list: {raw!r}")
    try:
        values = [float(v) for v in raw]
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"bad shift list: {raw!r}")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"shifts must be finite: {raw!r}")
    # residual rows and OBJ files are named by the %g label of a shift, and
    # per-shift results are keyed by its value (0.0 == -0.0)
    if (len({f"{v:g}" for v in values}) < len(values)
            or len(set(values)) < len(values)):
        raise ConfigError(
            f"shifts and their %g labels must be distinct: {raw!r}")
    return values


def _table(residuals: dict, band: tuple) -> dict:
    """Rows of ``residuals`` judged on ``band``."""
    return {k: {"value": v, "verdict": compat.verdict(v, *band)}
            for k, v in residuals.items()}


def _refuse_booleans(value, where="config") -> None:
    """JSON true and false would be read as 1 and 0; no config key takes one."""
    if isinstance(value, bool):
        raise ConfigError(f"{where} is a boolean, which no config key takes")
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, v in items:
        _refuse_booleans(v, f"{where}[{key!r}]")


def _out_dir(cfg, args) -> str:
    """The output directory's path; ``main`` creates it only once the command
    has succeeded, so a failed run writes nothing."""
    out = args.out or cfg.get("out", "pencil_lab_out")
    if not isinstance(out, str) or not out or "\0" in out:
        raise ConfigError(f"out must be a non-empty path without NUL: {out!r}")
    return out


def cmd_check_hamiltonian(cfg, args, chart):
    g = _metric(cfg, "metric", chart)
    if "b" in cfg:
        A = compat.HamiltonianOperator(g, _tensor(cfg["b"], 3, chart, "b"))
    else:
        A = compat.levi_civita_operator(g)
    rep = compat.check_hamiltonian(A, chart)
    return _table(rep.residuals, rep.band), {"scale": rep.scale}, []


def cmd_check_compat(cfg, args, chart):
    lambdas = _lambdas(cfg, args.lam)
    g = _metric(cfg, "metric", chart)
    gt = _metric(cfg, "metric_tilde", chart)
    p = compat.pencil_operator(g, gt)
    # in this order: it decides which DomainError a bad pencil reports
    t1 = compat.check_theorem1(p, chart)
    app = compat.verify_appendix(p, chart)
    pc = compat.check_pencil(p.A, p.At, chart, lambdas)
    table = {}
    for rep in (t1, pc, app):
        table.update(_table(rep.residuals, rep.band))
    extra = {
        "lambdas_used": pc.lambdas_used,
        "lambdas_skipped": pc.lambdas_skipped,
        "notes": t1.notes + pc.notes,
    }
    return table, extra, []


def _diag_inputs(cfg, chart):
    try:
        model = diagonal.DiagonalModel(
            chart.n, tuple(_tensor(cfg["etas"], 1, chart, "etas")))
        raw = cfg.get("beta_boundary", {})
        lines = {}
        for key, value in raw.items():
            i, j = (int(t) - 1 for t in key.split(","))
            if (i, j) in lines:
                raise ConfigError(f"beta_boundary names the pair "
                                  f"({i + 1}, {j + 1}) twice")
            lines[(i, j)] = as_expr(value, chart.n)
        bd = diagonal.BoundaryData(chart.n, lines)
    except (KeyError, ValueError, TypeError, AttributeError) as e:
        raise ConfigError(f"bad diagonal section: {e}")
    return model, bd


def cmd_solve_diagonal(cfg, args, chart):
    model, bd = _diag_inputs(cfg, chart)
    seed = None
    if "s2" in cfg:
        if chart.n != 3 or not model.is_constant():
            raise ConfigError("the angle system needs n=3 and constant etas")
        s2 = cfg["s2"]
        seed = _lines(s2.get("seed") if isinstance(s2, dict) else None,
                      chart, "the s2 seed")
    eta, etap = model.eta_grids(chart), model.eta_prime_grids(chart)
    beta, egorov = diagonal.solve_S(bd, chart, eta, etap)
    f1, f2 = diagonal.flatness_residuals(beta, chart)
    f3 = diagonal.pencil_residual_F3(beta, chart, eta, etap)
    residuals = {"F1": f1, "F2": f2, "F3": f3}
    extra = {"egorov": egorov}
    if model.is_constant():
        P, drift = diagonal.conserved_P(model, beta, chart)
        residuals["P_drift"] = drift
        extra["P_corner"] = [float(p[(0,) * chart.n]) for p in P]
    if seed is not None:
        sol, cons = diagonal.integrate_S2(chart, *seed)
        residuals["S2_consistency"] = cons
        m12, m13, m23 = diagonal.monge_ampere_residual(sol, chart)
        residuals.update({"MA_12": m12, "MA_13": m13, "MA_23": m23})
    cols = {f"beta_{i + 1}{j + 1}": beta[(i, j)]
            for i in range(chart.n) for j in range(chart.n) if i != j}
    files = [("beta.csv", write_csv_grid, (chart, cols))]
    if seed is not None:
        files.append(("angles.csv", write_csv_grid,
                      (chart, {k: sol[k] for k in ("p", "q", "r")})))
    return _table(residuals, SOLVER_BAND), extra, files


def cmd_frame(cfg, args, chart):
    if chart.n != 3:
        raise ConfigError("frame runs use a three-dimensional chart")
    model, bd = _diag_inputs(cfg, chart)
    lambdas = _lambdas(cfg, args.lam)
    h_lines = _lines(cfg.get("lame_boundary", ["1"] * chart.n), chart,
                     "lame_boundary")
    eta = model.eta_grids(chart)  # evaluated here; pool tasks read them
    beta, _ = diagonal.solve_S(bd, chart, eta, model.eta_prime_grids(chart))
    H = diagonal.solve_lame(beta, chart, dict(enumerate(h_lines)))
    residuals, notes, slices = {}, [], []

    def run_one(lam):  # lam + eta once; every function of the shift reads it
        sh = shift(lam, eta)
        conn = lax.build_lax(sh, beta, chart)
        zc = lax.zero_curvature_residual(conn, chart)
        fs = lax.integrate_frame(conn, sh, H, chart)
        im = lax.induced_metric_residual(fs, sh, H, chart)
        # of the whole-grid results only the slice R3 = min outlives the task
        return zc, im, fs.ortho_drift, lax.frame_slice(fs, sh, chart)

    for lam, (zc, im, drift, sl) in zip(lambdas, _pool_map(run_one, lambdas)):
        residuals[f"zero_curvature_{lam:g}"] = zc
        residuals[f"induced_metric_{lam:g}"] = im
        residuals[f"frame_orthogonality_{lam:g}"] = drift
        slices.append(sl)
    if len(slices) >= 2:
        rep = lax.weingarten_scaling_report(*slices[:2], beta, H, chart)
        residuals["scaling_closed_form"] = rep["closed_form_residual"]
        residuals["scaling_mesh_a"] = rep["mesh_eigen_residual_a"]
        residuals["scaling_mesh_b"] = rep["mesh_eigen_residual_b"]
        if rep["umbilic_flat_slice"]:
            notes.append(rep["note"])
    files = [(f"slice_lambda_{lam:g}.obj", write_obj,
              (sl.vertices, sl.normals)) for lam, sl in zip(lambdas, slices)]
    files.append(("lame.csv", write_csv_grid,
                  (chart, {f"H{j + 1}": H[j] for j in range(chart.n)})))
    return _table(residuals, SOLVER_BAND), {"notes": notes}, files


def cmd_deform_surface(cfg, args, chart):
    if chart.n != 2:
        raise ConfigError("surface runs use a two-dimensional chart")
    try:
        s = cfg["surface"]
        lambdas = _lambdas(cfg, args.lam)
        model = surface.SurfaceModel.from_text(
            s["g11"], s["g22"], s["eta1"], s["eta2"], chart)
        k1_line, k2_line = (as_expr(s[k], 2) for k in ("k1_line", "k2_line"))
    except (KeyError, TypeError) as e:
        raise ConfigError(f"missing or malformed surface entry: {e}")
    for key, grid in zip(("g11", "g22", "eta1", "eta2"),
                         (*model.metric_grids, *model.eta_grids)):
        _require_finite(f"surface {key}", max_abs(grid))
    notes = model.validate()
    table = _table({f"curvature_one_{lam:g}":
                    surface.constant_curvature_check(model, lam)
                    for lam in lambdas}, CURVATURE_BAND)
    G11, G22 = model.shifted_form(lambdas[0])
    curv = surface.solve_codazzi(G11, G22, k1_line, k2_line, chart)
    solver = {"pc_residual": curv.pc}
    model.coefficient_grids    # evaluated here, once; pool tasks read them

    meshes = []
    for r3, r2, mesh in _pool_map(
            lambda lam: surface.reconstruct_family(model, curv, lam), lambdas):
        solver.update({f"lax3_{mesh.lam:g}": r3, f"lax2_{mesh.lam:g}": r2})
        meshes.append(mesh)
    table.update(_table(solver, SOLVER_BAND))
    if len(meshes) >= 2:
        wg = surface.weingarten_family_compare(meshes)
        eig, ang = wg["eigenvalue_deviation"], wg["misalignment_angle"]
        table.update(_table({"weingarten_eigenvalues": eig}, EIGENVALUE_BAND))
        table.update(_table({"weingarten_directions": ang}, DIRECTION_BAND))
        hd = surface.mesh_nontriviality(meshes[0], meshes[-1])
        table["deformation_size"] = {
            "value": hd, "verdict": compat.verdict(-hd, *DEFORMATION_BAND)}
    files = [(f"surface_lambda_{mesh.lam:g}.obj", write_obj,
              (mesh.vertices, mesh.normals)) for mesh in meshes]
    return table, {"notes": notes, "excluded_vertices":
                   [m.excluded for m in meshes]}, files


COMMANDS = {
    "check-hamiltonian": cmd_check_hamiltonian,
    "check-compat": cmd_check_compat,
    "solve-diagonal": cmd_solve_diagonal,
    "frame": cmd_frame,
    "deform-surface": cmd_deform_surface,
}


def main(argv=None) -> int:
    _keep_freed_grids()
    parser = _Parser(prog="pencil-lab", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--lambda", dest="lam", default=None,
                        help="comma-separated shift values")
    parser.add_argument("--grid", type=int, default=None)

    t0 = time.monotonic()
    try:
        args = parser.parse_args(argv)
        with open(args.config) as fh:
            cfg = json.load(fh)
        _refuse_booleans(cfg)
        # overflow and NaN are judged by the guards and verdicts, not printed
        with np.errstate(all="ignore"):
            chart = _chart(cfg, args.grid)  # refuses a config that is no object
            out = _out_dir(cfg, args)
            table, extra, files = COMMANDS[args.command](cfg, args, chart)
        os.makedirs(out, exist_ok=True)  # an OSError: the path is unusable
        digest = canonical_digest(cfg)
        verdict = compat.overall(row["verdict"] for row in table.values())
        report = {
            "command": args.command,
            "config_digest": digest,
            "residuals": table,
            "verdict": verdict,
            "artifacts": [name for name, _, _ in files],
        }
        report.update(extra)
        path = os.path.join(out, "report.json")
        # an OSError from a writer: the directory cannot take a file
        jobs = [(writer, (os.path.join(out, name), *data, digest))
                for name, writer, data in files]
        if jobs:  # a run without files starts no pool
            _pool_map(lambda job: job[0](*job[1]), jobs, _size)
        write_json_report(path, report)
    except (ConfigError, OSError, json.JSONDecodeError, ParseError,
            DomainError, PoleError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    except MarchError as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - t0
    print(f"wall time {elapsed:.2f}s, report at {path}", file=sys.stderr)
    print(f"{args.command}: {verdict}")
    return EXIT_BY_VERDICT[verdict]


if __name__ == "__main__":
    sys.exit(main())
