import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import pencil_lab
from pencil_lab.expr import Expr
from pencil_lab.geometry import MetricField
from pencil_lab.grids import Chart
from pencil_lab.lax import LaxConnection

# Names removed because no command reached them, or folded into one
# implementation (geometry's Γ into MetricField.gamma, expr's four binary
# nodes into Bin, the grids lam + eta_i and their pole guard into
# march.shift, surface's _pc_residual into pc_residual; surface's _grid
# went when its functions came to take grids, not text or numbers); they
# must not come back as stale exports.  LaxConnection has lost its `gauge`
# field and `n` property.
REMOVED = {
    "lax": ["build_lax_L1", "gauge_L1_to_L2", "gauge_residual", "_shifted"],
    "march": ["check_shift"],
    "surface": ["solve_surface_system", "surface_system_residual", "_grid",
                "_pc_residual"],
    "diagonal": ["lame_from_metric"],
    "geometry": ["ConnectionField"],
    "expr": ["Add", "Sub", "Mul", "Div"],
}

# Methods that only tests called, or nothing did.
REMOVED_METHODS = {
    MetricField: ["from_covariant", "diagonal_covariant", "is_diagonal"],
    Chart: ["cube", "refine"],
    Expr: ["diff"],
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
    assert "gauge" not in {f.name for f in dataclasses.fields(LaxConnection)}
    assert not hasattr(LaxConnection, "n")
    for cls, removed in REMOVED_METHODS.items():
        for attr in removed:
            assert not hasattr(cls, attr), f"{cls.__name__}.{attr}"


def test_family_compare_has_no_trim_parameter():
    # it trims the two outer rings, as lax.weingarten_scaling_report does
    params = inspect.signature(
        pencil_lab.weingarten_family_compare).parameters
    assert "trim" not in params


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
