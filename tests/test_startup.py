"""Start-up cost: importing the command line loads no code generator.

Every ``cxtcat`` call imports the package first.  The value classes are
plain classes on ``value.Value``, so neither ``dataclasses`` nor the
``inspect`` module it pulls in is imported on the way.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cxtcat

SRC = Path(cxtcat.__file__).resolve().parent


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_dataclasses():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        names = {name.split(".")[0] for name in imported_modules(tree)}
        assert "dataclasses" not in names, path.name


def test_a_fresh_cli_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    script = (
        "import sys, cxtcat.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "[]\n"
