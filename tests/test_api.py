import ast
import dataclasses
import importlib
import inspect
import json
import pathlib
import pkgutil

import numpy as np

import pencil_lab
from pencil_lab import cli, march, surface
from pencil_lab.cli import main
from pencil_lab.expr import Expr
from pencil_lab.geometry import MetricField
from pencil_lab.grids import Chart

# Names removed because no command reached them, or folded into one
# implementation (geometry's Γ into MetricField.gamma, expr's four binary
# nodes into Bin, the grids lam + eta_i and their pole guard into
# march.shift, surface's _pc_residual into pc_residual; surface's _grid
# went when its functions came to take grids, not text or numbers); they
# must not come back as stale exports.  A connection is the tuple of its
# A_d, not a LaxConnection, and the shifts come from the caller, not from
# compat's DEFAULT_LAMBDAS.
REMOVED = {
    "lax": ["build_lax_L1", "gauge_L1_to_L2", "gauge_residual", "_shifted",
            "LaxConnection"],
    "march": ["check_shift"],
    "surface": ["solve_surface_system", "surface_system_residual", "_grid",
                "_pc_residual"],
    "diagonal": ["lame_from_metric"],
    "geometry": ["ConnectionField"],
    "expr": ["Add", "Sub", "Mul", "Div"],
    "compat": ["DEFAULT_LAMBDAS"],
    "io": ["write_all"],
}

# Methods that only tests called, or nothing did.
REMOVED_METHODS = {
    MetricField: ["from_covariant", "diagonal_covariant", "is_diagonal"],
    Chart: ["cube", "refine"],
    Expr: ["diff", "__radd__", "__rsub__", "__rmul__", "__rtruediv__"],
}


def test_exports_exist_and_removed_names_stay_gone():
    for info in pkgutil.iter_modules(pencil_lab.__path__):
        module = importlib.import_module(f"pencil_lab.{info.name}")
        missing = [name for name in getattr(module, "__all__", [])
                   if not hasattr(module, name)]
        assert missing == [], module.__name__
    for name, removed in REMOVED.items():
        module = importlib.import_module(f"pencil_lab.{name}")
        for attr in removed:
            assert not hasattr(module, attr), attr
            assert not hasattr(pencil_lab, attr), attr
    assert "lambdas" not in {f.name for f in
                             dataclasses.fields(surface.SurfaceModel)}
    for cls, removed in REMOVED_METHODS.items():
        for attr in removed:
            assert not hasattr(cls, attr), f"{cls.__name__}.{attr}"


def test_family_compare_has_no_trim_parameter():
    # it trims the two outer rings, as lax.weingarten_scaling_report does
    params = inspect.signature(
        pencil_lab.weingarten_family_compare).parameters
    assert "trim" not in params


def _routines(module):
    """The public functions of ``module`` and the methods of its classes."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or \
                getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            yield from (m for _, m in inspect.getmembers(obj, inspect.isroutine)
                        if getattr(m, "__module__", None) == module.__name__)
        elif inspect.isroutine(obj):
            yield obj


def test_no_public_function_takes_a_shift_list_or_frames():
    # a function works at one shift, handed to it as lam or as the grids
    # lam + eta_i; the command's shift list is the only list of shifts.  What
    # lax compares across two shifts is their slices, not their whole-grid
    # frames and shifted grids
    seen = 0
    for name in ("lax", "surface", "compat"):
        refused = {"lambdas", "frames"}
        if name == "lax":
            refused |= {"fs_a", "fs_b", "sh_a", "sh_b"}
        for f in _routines(importlib.import_module(f"pencil_lab.{name}")):
            params = set(inspect.signature(f).parameters)
            assert not params & refused, f.__qualname__
            seen += 1
    assert seen > 30


def _counted(monkeypatch, name, modules):
    """Wrap ``name`` in each of ``modules`` that binds it; returns the list
    that each call appends to."""
    calls = []
    original = getattr(modules[0], name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def _run(tmp_path, command, cfg):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path), "--out",
                 str(tmp_path / "out")])


def _modules():
    return [importlib.import_module(f"pencil_lab.{info.name}")
            for info in pkgutil.iter_modules(pencil_lab.__path__)]


FRAME_CFG = {"chart": {"n": 3, "box": [[0.0, 1.0]] * 3, "shape": [17] * 3},
             "etas": ["1", "2", "4"],
             "beta_boundary": {"1,2": "0.2", "2,1": "0.1*R1", "3,1": "0.15",
                               "1,3": "0.1+0.05*R3", "2,3": "0.2",
                               "3,2": "0.25"},
             "lambdas": [0.5, 2.0, 3.0]}


def test_a_frame_task_forms_its_shift_once(tmp_path, monkeypatch):
    # one march.shift per shift task; the scaling report reads the slices
    # that the first two tasks return
    calls = _counted(monkeypatch, "shift", [march] + _modules())
    assert _run(tmp_path, "frame", FRAME_CFG) == 0
    assert sorted(lam for lam, _ in calls) == [0.5, 2.0, 3.0]


def test_a_frame_task_returns_no_more_than_its_slice(tmp_path, monkeypatch):
    # its residual scalars and its slice R3 = min: no whole-grid frame,
    # position vector or shifted grid outlives the task
    results = []
    pool_map = cli._pool_map

    def recording(fn, items):
        out = pool_map(fn, items)
        if fn is not cli._write:  # the shift pool's call, not the writers'
            results.extend(out)
        return out

    monkeypatch.setattr(cli, "_pool_map", recording)
    assert _run(tmp_path, "frame", FRAME_CFG) == 0
    assert len(results) == 3
    for result in results:
        sizes = [np.size(v) for part in result for v in
                 (vars(part).values() if dataclasses.is_dataclass(part)
                  else (part,))]
        assert max(sizes) == 17 ** 2 * 3, sizes


def test_a_surface_shift_task_builds_its_connections_once(tmp_path,
                                                          monkeypatch):
    calls = _counted(monkeypatch, "_lax_mats", [surface])
    cfg = {"chart": {"n": 2, "box": [[0.5, 1.5], [0.0, 1.0]],
                     "shape": [33, 33]},
           "surface": {"g11": "1", "g22": "R1^2", "eta1": "5-R1^2",
                       "eta2": "1+R2^2", "k1_line": "2+2*R1",
                       "k2_line": "2.5"},
           "lambdas": [0.0, 0.5, 1.0]}
    assert _run(tmp_path, "deform-surface", cfg) == 0
    assert len(calls) == 3


def _unused_imports(path):
    """Names that the module at ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # the package __init__ imports only to re-export
    src = pathlib.Path(pencil_lab.__file__).parent
    unused = {path.name: _unused_imports(path)
              for path in sorted(src.glob("*.py")) if path.name != "__init__.py"}
    assert {k: v for k, v in unused.items() if v} == {}
