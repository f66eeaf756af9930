"""Every subcommand's output goes through one path: each ``_cmd_*`` returns its
summary, tables and provenance, and ``dispatch`` alone writes them.

Checked statically, as tests/test_dependencies.py checks imports.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "hicrit" / "cli.py"


def _functions():
    tree = ast.parse(CLI.read_text(), filename=str(CLI))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _called_names(func):
    return {node.func.id for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_commands_write_no_output():
    commands = {name: f for name, f in _functions().items() if name.startswith("_cmd_")}
    assert len(commands) == 11
    for name, func in commands.items():
        called = _called_names(func)
        assert "print" not in called and "_write_csv" not in called, name
        assert not any(isinstance(node, ast.Attribute) and node.attr == "stdout"
                       for node in ast.walk(func)), f"{name} names sys.stdout"


def test_write_csv_is_called_only_from_dispatch():
    callers = {name for name, func in _functions().items() if "_write_csv" in _called_names(func)}
    assert callers == {"dispatch"}


def test_only_dispatch_writes_stdout_or_maps_a_closed_stdout():
    # dispatch writes stdout once, after every file, so a failed run prints nothing
    # there; its handler is then the one place a closed stdout becomes exit 141.
    tree = ast.parse(CLI.read_text(), filename=str(CLI))
    owners = {"print": set(), "sys.stdout.write/flush": set(), "BrokenPipeError": set()}
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        for node in ast.walk(top):
            called = ast.unparse(node.func) if isinstance(node, ast.Call) else None
            if called == "print":
                owners["print"].add(owner)
            if called in ("sys.stdout.write", "sys.stdout.flush"):
                owners["sys.stdout.write/flush"].add(owner)
            if isinstance(node, ast.Name) and node.id == "BrokenPipeError":
                owners["BrokenPipeError"].add(owner)
    assert owners == {kind: {"dispatch"} for kind in owners}
