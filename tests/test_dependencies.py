"""The package's runtime dependencies stay the standard library, numpy and scipy.

Checked statically: at run time, site hooks of the environment may load other
modules (certifi, _distutils_hack) that the package never imports.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hicrit"


def test_absolute_imports_are_stdlib_numpy_or_scipy():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top in ("numpy", "scipy"), \
                    f"{path.name} imports {name}"
