"""Every HC-type term standardizes through one binomial z-score,
``hc_core._zscore``: no other function in the package calls ``math.sqrt(n)``.

Checked statically, as tests/test_output_path.py checks the output path.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hicrit"


def _sqrt_n_lines(tree):
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "sqrt" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "math" and len(node.args) == 1
            and isinstance(node.args[0], ast.Name) and node.args[0].id == "n"}


def test_sqrt_n_is_called_only_in_zscore():
    sites = {(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in _sqrt_n_lines(ast.parse(path.read_text(), filename=str(path)))}
    hc_core = ast.parse((SRC / "hc_core.py").read_text())
    inside = {("hc_core.py", line) for node in hc_core.body
              if isinstance(node, ast.FunctionDef) and node.name == "_zscore"
              for line in _sqrt_n_lines(node)}
    assert inside and sites == inside, sorted(sites - inside)
