"""Package layout rules that no single behaviour test would catch."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privcause"


def private_imports(source: str) -> list[str]:
    """Every `from .<module> import _name` in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_another_modules_private_helper():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path.read_text()))
    }
    assert offenders == {}


def quantile_calls(source: str) -> list[str]:
    """Every numpy quantile or percentile routine a module's source names,
    as an attribute (``np.quantile``) or an import (``from numpy import``)."""
    routines = {"quantile", "percentile", "nanquantile", "nanpercentile"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in routines:
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [a.name for a in node.names if a.name in routines]
    return found


def test_quartiles_are_computed_in_one_place():
    """Every quartile in the package comes from _arrays.quartiles on a
    sorted vector, so no module takes its own with numpy's routines."""
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := quantile_calls(path.read_text()))
    }
    assert offenders == {}
