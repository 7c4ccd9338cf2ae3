"""Each module of the package imports only from lower layers.

The layers, lowest first: tensors < verdicts < oracle < binary, ternary <
inequalities < cli.  Modules on one layer may not import each other.  Every
import statement counts, including those inside function bodies; the package
``__init__`` is the public facade and may import any module.
"""
import ast
import importlib
from pathlib import Path

import pytest

import qpd

LAYER = {
    "tensors": 0,
    "verdicts": 1,
    "oracle": 2,
    "binary": 3,
    "ternary": 3,
    "inequalities": 4,
    "cli": 5,
}
PACKAGE = Path(qpd.__file__).parent
SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def package_imports(path):
    """Names of the package modules that a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[:1] != ["qpd"]:
                    continue
                parts = parts[1:]
            if parts:
                found.add(parts[0])
            else:  # from . import name
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "qpd" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER)


@pytest.mark.parametrize("module", sorted(LAYER))
def test_imports_point_downward(module):
    imported = package_imports(PACKAGE / f"{module}.py")
    upward = sorted(m for m in imported if LAYER[m] >= LAYER[module])
    assert upward == [], f"{module} imports {upward} from its own or a higher layer"


def test_ternary_does_not_import_the_oracle():
    """The sign-class classifier decides from its own tables: its witnesses
    come from the proof cases, never from a numeric search."""
    assert "oracle" not in package_imports(PACKAGE / "ternary.py")


def unused_imports(path):
    """Names a source file imports but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


@pytest.mark.parametrize("module", sorted(LAYER))
def test_no_unused_imports(module):
    assert unused_imports(PACKAGE / f"{module}.py") == set()


def test_unused_import_scan(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from .tensors import Scalar, Vector\n"
        "def f(x: Vector) -> int:\n"
        "    return np.sum(x) + len(os.path.sep)\n"
    )
    assert unused_imports(source) == {"Fraction", "Scalar"}


def test_import_scan_sees_function_bodies(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from . import oracle as o\n"
        "import qpd.binary\n"
        "def f():\n"
        "    from .ternary import validate_class\n"
        "    from qpd.cli import main\n"
        "import numpy\n"
    )
    assert package_imports(source) == {"oracle", "binary", "ternary", "cli"}


def traced_functions(path):
    """(module, function) pairs of the ``SPANS`` table in a span recorder
    source file, read without importing it."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            table = ast.literal_eval(node.value)
            return sorted((m, f) for m, fns in table.items() for f in fns)
    raise AssertionError(f"no SPANS table in {path}")


def test_traced_functions_exist():
    """Every function the benchmark's span recorder wraps is still defined,
    so deleting or renaming one fails here and not only in a traced run."""
    if not SPANS_FILE.exists():
        pytest.skip("perfbench/spans.py is not in this checkout")
    missing = [f"{m}.{f}" for m, f in traced_functions(SPANS_FILE)
               if not callable(getattr(importlib.import_module(f"qpd.{m}"), f, None))]
    assert missing == []
