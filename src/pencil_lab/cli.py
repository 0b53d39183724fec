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

PENCIL_LAB_THREADS (read by ``_threads`` only) bounds both the thread pool
of the per-shift work and, once that pool has joined, the processes among
which ``io.write_all`` splits a command's CSV and OBJ files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import compat, diagonal, lax, surface
from .expr import DomainError, ParseError, as_expr, parse_expr
from .geometry import MetricField, expr_array, grid_max, GeometryError
from .grids import Chart, GridError, max_abs
from .io import (canonical_digest, write_all, write_csv_grid, write_json_report,
                 write_obj)
from .march import MarchError, PoleError

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


def _threads() -> int:
    raw = os.environ.get("PENCIL_LAB_THREADS", "1")
    try:
        v = int(raw)
    except ValueError:
        v = 1
    return max(1, min(v, 64))


def _pool_map(fn, items) -> list:
    """``fn`` over ``items`` on the shift pool.  np.errstate is per thread, so
    each task ignores floating-point errors as ``main`` does."""
    def quiet(item):
        with np.errstate(all="ignore"):
            return fn(item)

    with ThreadPoolExecutor(max_workers=_threads()) as pool:
        return list(pool.map(quiet, items))


def _chart(cfg: dict, grid_override=None) -> Chart:
    try:
        section = cfg["chart"]
        n = int(section["n"])
        box = tuple((float(a), float(b)) for a, b in section["box"])
        shape = tuple(int(m) for m in section["shape"])
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad chart section: {e}")
    if grid_override is not None:
        shape = (int(grid_override),) * n
    try:
        return Chart(n, box, shape)
    except GridError as e:
        raise ConfigError(str(e))


def _require_finite(what: str, peak: float) -> None:
    """An entry that overflows on a huge box would reach the solvers as inf;
    ``peak`` is its largest absolute value on the box."""
    if not np.isfinite(peak):
        raise ConfigError(f"{what} is not finite on the box")


def _metric(cfg: dict, key: str, chart: Chart) -> MetricField:
    n = chart.n
    try:
        section = cfg[key]
        if "diag" in section:
            entries = [parse_expr(t, n) for t in section["diag"]]
            if len(entries) != n:
                raise ConfigError("metric diagonal length mismatch")
            g = MetricField.diagonal_contravariant(entries)
        else:
            rows = section["rows"]
            A = expr_array((n, n))
            for i in range(n):
                for j in range(n):
                    A[i, j] = parse_expr(rows[i][j], n)
            g = MetricField.from_contravariant(A)
    except ParseError as e:
        raise ConfigError(f"metric entry: {e}")
    except (KeyError, IndexError, TypeError) as e:
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
    except (TypeError, ValueError):
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


def _entries(raw, count: int, what: str) -> list:
    """``raw`` as a list of ``count`` expression texts or numbers."""
    if not (isinstance(raw, list) and len(raw) == count
            and all(isinstance(v, (str, int, float)) for v in raw)):
        raise ConfigError(f"{what} needs a list of {count} expressions")
    return raw


def _table(residuals: dict, band: tuple) -> dict:
    """Rows of ``residuals`` judged on ``band``."""
    return {k: {"value": v, "verdict": compat.verdict(v, *band)}
            for k, v in residuals.items()}


def _out_dir(cfg, args) -> str:
    """The output directory, created on first use: commands call this only
    once their computation has succeeded, so a failed run writes nothing."""
    out = args.out or cfg.get("out", "pencil_lab_out")
    os.makedirs(out, exist_ok=True)
    return out


def cmd_check_hamiltonian(cfg, args):
    chart = _chart(cfg, args.grid)
    g = _metric(cfg, "metric", chart)
    if "b" in cfg:
        b = expr_array((chart.n,) * 3)
        try:
            for i in range(chart.n):
                for j in range(chart.n):
                    for k in range(chart.n):
                        b[i, j, k] = parse_expr(cfg["b"][i][j][k], chart.n)
        except (KeyError, IndexError, TypeError) as e:
            raise ConfigError(f"bad b section: {e}")
        A = compat.HamiltonianOperator(g, b)
    else:
        A = compat.levi_civita_operator(g)
    rep = compat.check_hamiltonian(A, chart)
    return _table(rep.residuals, rep.band), {"scale": rep.scale}, []


def cmd_check_compat(cfg, args):
    chart = _chart(cfg, args.grid)
    lambdas = _lambdas(cfg, args.lam)
    g = _metric(cfg, "metric", chart)
    gt = _metric(cfg, "metric_tilde", chart)
    p = compat.pencil_operator(g, gt)
    t1 = compat.check_theorem1(p, chart)
    bt = compat.btilde_from_r(p)
    app = compat.verify_appendix(p, chart, bt)
    A = compat.levi_civita_operator(g)
    At = compat.HamiltonianOperator(gt, bt)
    pc = compat.check_pencil(A, At, chart, lambdas)
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
        model = diagonal.DiagonalModel.from_text(cfg["etas"], chart.n)
        raw = cfg.get("beta_boundary", {})
        lines = {}
        for key, text in raw.items():
            i, j = (int(t) - 1 for t in key.split(","))
            lines[(i, j)] = parse_expr(text, chart.n)
        bd = diagonal.BoundaryData(chart.n, lines)
    except (KeyError, ValueError, TypeError, AttributeError) as e:
        raise ConfigError(f"bad diagonal section: {e}")
    return model, bd


def cmd_solve_diagonal(cfg, args):
    chart = _chart(cfg, args.grid)
    model, bd = _diag_inputs(cfg, chart)
    seed = None
    if "s2" in cfg:
        if chart.n != 3 or not model.is_constant():
            raise ConfigError("the angle system needs n=3 and constant etas")
        s2 = cfg["s2"]
        seed = _entries(s2.get("seed") if isinstance(s2, dict) else None,
                        3, "the s2 seed")
    beta, egorov = diagonal.solve_S(model, bd, chart)
    f1, f2 = diagonal.flatness_residuals(beta, chart)
    f3 = diagonal.pencil_residual_F3(model, beta, chart)
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
    digest = canonical_digest(cfg)
    out = _out_dir(cfg, args)
    cols = {f"beta_{i + 1}{j + 1}": beta[(i, j)]
            for i in range(chart.n) for j in range(chart.n) if i != j}
    jobs = [(write_csv_grid, (os.path.join(out, "beta.csv"), chart, cols,
                              digest))]
    if seed is not None:
        jobs.append((write_csv_grid, (os.path.join(out, "angles.csv"), chart,
                                      {k: sol[k] for k in ("p", "q", "r")},
                                      digest)))
    return _table(residuals, SOLVER_BAND), extra, write_all(jobs, _threads())


def cmd_frame(cfg, args):
    chart = _chart(cfg, args.grid)
    if chart.n != 3:
        raise ConfigError("frame runs use a three-dimensional chart")
    model, bd = _diag_inputs(cfg, chart)
    lambdas = _lambdas(cfg, args.lam)
    h_lines = _entries(cfg.get("lame_boundary", ["1"] * chart.n), chart.n,
                       "lame_boundary")
    beta, _ = diagonal.solve_S(model, bd, chart)
    H = diagonal.solve_lame(beta, chart, dict(enumerate(h_lines)))
    residuals = {}
    notes = []

    def run_one(lam):
        conn = lax.build_lax(model, beta, chart, lam)
        zc = lax.zero_curvature_residual(conn, chart)
        fs = lax.integrate_frame(conn, model, H, chart)
        im = lax.induced_metric_residual(fs, model, H, chart)
        return lam, zc, fs, im

    frames = {}
    for lam, zc, fs, im in _pool_map(run_one, lambdas):
        residuals[f"zero_curvature_{lam:g}"] = zc
        residuals[f"induced_metric_{lam:g}"] = im
        residuals[f"frame_orthogonality_{lam:g}"] = fs.ortho_drift
        frames[lam] = fs
    if len(lambdas) >= 2:
        rep = lax.weingarten_scaling_report(
            model, beta, H, chart, lambdas[0], lambdas[1],
            frames=(frames[lambdas[0]], frames[lambdas[1]]))
        residuals["scaling_closed_form"] = rep["closed_form_residual"]
        residuals["scaling_mesh_a"] = rep["mesh_eigen_residual_a"]
        residuals["scaling_mesh_b"] = rep["mesh_eigen_residual_b"]
        if rep["umbilic_flat_slice"]:
            notes.append(rep["note"])
    digest = canonical_digest(cfg)
    out = _out_dir(cfg, args)
    # the slice R3 = min and its normal, the last frame row, copied so that
    # the writers, and a forked one, hold no whole frame
    jobs = [(write_obj, (os.path.join(out, f"slice_lambda_{lam:g}.obj"),
                         frames[lam].rvec[:, :, 0].copy(),
                         frames[lam].phi[:, :, 0, 2].copy(), digest))
            for lam in lambdas]
    del frames, fs
    jobs.append((write_csv_grid, (os.path.join(out, "lame.csv"), chart,
                                  {f"H{j + 1}": H[j] for j in range(chart.n)},
                                  digest)))
    return (_table(residuals, SOLVER_BAND), {"notes": notes},
            write_all(jobs, _threads()))


def cmd_deform_surface(cfg, args):
    chart = _chart(cfg, args.grid)
    if chart.n != 2:
        raise ConfigError("surface runs use a two-dimensional chart")
    try:
        s = cfg["surface"]
        lambdas = _lambdas(cfg, args.lam)
        model = surface.SurfaceModel.from_text(
            s["g11"], s["g22"], s["eta1"], s["eta2"], chart, lambdas)
        k1_line, k2_line = (as_expr(s[k], 2) for k in ("k1_line", "k2_line"))
    except (KeyError, TypeError) as e:
        raise ConfigError(f"missing or malformed surface entry: {e}")
    for key, grid in zip(("g11", "g22", "eta1", "eta2"),
                         (*model.metric_grids, *model.eta_grids)):
        _require_finite(f"surface {key}", max_abs(grid))
    notes = model.validate()
    cc = surface.constant_curvature_check(model)
    table = _table({f"curvature_one_{lam:g}": v for lam, v in cc.items()},
                   CURVATURE_BAND)
    G11, G22 = model.shifted_form(lambdas[0])
    curv = surface.solve_codazzi(G11, G22, k1_line, k2_line, chart)
    solver = {"pc_residual": curv.pc}
    coeffs = model.coefficient_grids    # evaluated here; pool tasks read them

    def build(lam):
        laxres = surface.lax_residuals_3x3_2x2(*coeffs, chart, (lam,))[lam]
        return laxres, surface.reconstruct_family(model, curv, (lam,))[0]

    meshes = []
    for (r3, r2), mesh in _pool_map(build, lambdas):
        solver.update({f"lax3_{mesh.lam:g}": r3, f"lax2_{mesh.lam:g}": r2})
        meshes.append(mesh)
    table.update(_table(solver, SOLVER_BAND))
    digest = canonical_digest(cfg)
    out = _out_dir(cfg, args)
    artifacts = write_all(
        [(write_obj, (os.path.join(out, f"surface_lambda_{mesh.lam:g}.obj"),
                      mesh.vertices, mesh.normals, digest))
         for mesh in meshes], _threads())
    if len(meshes) >= 2:
        wg = surface.weingarten_family_compare(meshes)
        eig, ang = wg["eigenvalue_deviation"], wg["misalignment_angle"]
        table.update(_table({"weingarten_eigenvalues": eig}, EIGENVALUE_BAND))
        table.update(_table({"weingarten_directions": ang}, DIRECTION_BAND))
        hd = surface.mesh_nontriviality(meshes[0], meshes[-1])
        table["deformation_size"] = {
            "value": hd, "verdict": compat.verdict(-hd, *DEFORMATION_BAND)}
    return table, {"notes": notes, "excluded_vertices":
                   [m.excluded for m in meshes]}, artifacts


COMMANDS = {
    "check-hamiltonian": cmd_check_hamiltonian,
    "check-compat": cmd_check_compat,
    "solve-diagonal": cmd_solve_diagonal,
    "frame": cmd_frame,
    "deform-surface": cmd_deform_surface,
}


def main(argv=None) -> int:
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
    except (ConfigError, OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3

    try:
        # overflow and NaN are judged by the guards and verdicts, not printed
        with np.errstate(all="ignore"):
            table, extra, artifacts = COMMANDS[args.command](cfg, args)
    except (ConfigError, ParseError, DomainError, PoleError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    except MarchError as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1

    verdict = compat.overall(row["verdict"] for row in table.values())
    report = {
        "command": args.command,
        "config_digest": canonical_digest(cfg),
        "residuals": table,
        "verdict": verdict,
        "artifacts": [os.path.basename(a) for a in artifacts],
    }
    report.update(extra)
    path = os.path.join(_out_dir(cfg, args), "report.json")
    write_json_report(path, report)
    elapsed = time.monotonic() - t0
    print(f"wall time {elapsed:.2f}s, report at {path}", file=sys.stderr)
    print(f"{args.command}: {verdict}")
    return EXIT_BY_VERDICT[verdict]


if __name__ == "__main__":
    sys.exit(main())
