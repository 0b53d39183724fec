import dataclasses
import importlib
import pkgutil

import pencil_lab
from pencil_lab.geometry import MetricField
from pencil_lab.grids import Chart
from pencil_lab.lax import LaxConnection

# Names removed because no command reached them; they must not come back as
# stale exports.  LaxConnection has lost its `gauge` field and `n` property.
REMOVED = {
    "lax": ["build_lax_L1", "gauge_L1_to_L2", "gauge_residual"],
    "surface": ["solve_surface_system", "surface_system_residual"],
    "diagonal": ["lame_from_metric"],
}

# Methods that only tests called, or nothing did.
REMOVED_METHODS = {
    MetricField: ["from_covariant", "diagonal_covariant", "is_diagonal"],
    Chart: ["cube", "refine"],
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
