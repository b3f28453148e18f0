"""The package's lower layers import only the layers beneath them.

Each module's package imports are read from its source, `from .x import ...`
and `from . import x` alike, wherever in the module they stand.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "linesym"

# module -> the package modules it may import
ALLOWED = {
    "refinement": set(),  # its docstring: "free of package imports"
    "graphs": {"refinement"},
    "constructions": {"graphs"},
    "walks": {"graphs", "metrics"},
}


def package_imports(module: str) -> set[str]:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else (a.name for a in node.names))
    return found


@pytest.mark.parametrize("module", ALLOWED)
def test_module_imports_only_the_layers_beneath_it(module):
    assert package_imports(module) <= ALLOWED[module]


def test_the_import_reader_sees_both_relative_forms():
    assert package_imports("symmetry") >= {"walks", "constructions", "graphs", "metrics"}
