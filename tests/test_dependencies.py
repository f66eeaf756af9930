"""The package's runtime dependencies stay the standard library, numpy and scipy,
and only ``numerics`` imports scipy, inside a function, so that importing the
package loads no scipy (tests/test_startup.py checks that at run time).

Checked statically: at run time, site hooks of the environment may load other
modules (certifi, _distutils_hack) that the package never imports.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hicrit"


def _absolute_imports(tree):
    """(node, imported module name) for every absolute import under tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node, node.module


def test_absolute_imports_are_stdlib_numpy_or_scipy():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    for path in paths:
        for _, name in _absolute_imports(ast.parse(path.read_text(), filename=str(path))):
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names or top in ("numpy", "scipy"), \
                f"{path.name} imports {name}"


def test_only_numerics_imports_scipy_and_only_inside_a_function():
    sites, inside = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sites |= {(path.name, node.lineno) for node, name in _absolute_imports(tree)
                  if name.split(".")[0] == "scipy"}
        inside |= {(path.name, node.lineno) for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node, name in _absolute_imports(fn) if name.split(".")[0] == "scipy"}
    assert sites and {name for name, _ in sites} == {"numerics.py"}, sorted(sites)
    assert sites == inside, sorted(sites - inside)
