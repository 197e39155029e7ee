"""Every name a module imports is used in that module.

No linter is part of the toolchain, so this parses each hand-written module
with `ast` and refuses imports that nothing reads.  `__init__.py` re-exports
by design and `_wtable.py` is generated, so both are left out.
"""

import ast
from pathlib import Path

import pytest

import biasedwave

PACKAGE = Path(biasedwave.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py")
                 if p.name not in ("__init__.py", "_wtable.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_modules_found():
    assert {"cli.py", "moments.py", "montecarlo.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_an_unused_import():
    source = "import math\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(source) == [(1, "math"), (2, "path")]
