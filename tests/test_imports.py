"""Every name a module imports is used there, and every private name is read.

No linter is part of the toolchain, so this parses each hand-written module
with `ast`.  It refuses imports that nothing in the module or test file
reads; `__init__.py` re-exports by design and `_wtable.py` is generated, so
both are left out.  It also refuses a module-level private name (`_x`, not a dunder)
that no package module reads as a name, an attribute or an import alias; a
module-level UPPER_CASE constant (`_X` included) that no package module, test
or `perfbench/` file reads; any import of scipy in a package module,
however deeply nested; and, outside `model.py`, any read of `.dtype.kind` or
call of `_is_integer`, since `model` alone decides what numeric input is
accepted.  Every package module must parse at the Python floor that
`pyproject.toml` declares.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import biasedwave

PACKAGE = Path(biasedwave.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py")
                 if p.name not in ("__init__.py", "_wtable.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))


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


def top_level_names(source: str) -> list:
    """Names bound by a module's top-level def, class and assignment statements."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def read_names(source: str) -> set:
    """Names a source reads: loaded names, attributes and import aliases."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def is_constant(name: str) -> bool:
    return re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name) is not None


def unread_names(sources: dict, readers, kind) -> list:
    """(module, name) of each top-level name of `sources` that satisfies
    kind and that no source in `readers` reads."""
    read = set().union(*map(read_names, readers))
    return sorted((module, name) for module, source in sources.items()
                  for name in top_level_names(source)
                  if kind(name) and name not in read)


def scipy_imports(source: str) -> list:
    """Line of each import of scipy or a scipy submodule, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return lines


def test_modules_found():
    assert {"cli.py", "moments.py", "montecarlo.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_an_unused_import():
    source = "import math\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(source) == [(1, "math"), (2, "path")]


def package_sources() -> dict:
    return {p.name: p.read_text() for p in PACKAGE.glob("*.py")
            if p.name != "_wtable.py"}


def test_every_private_name_is_read():
    sources = package_sources()
    assert unread_names(sources, sources.values(), is_private) == []


def test_every_constant_is_read():
    sources = package_sources()
    readers = [*sources.values(), *(p.read_text() for p in TESTS + PERFBENCH)]
    assert len(PERFBENCH) > 0
    assert unread_names(sources, readers, is_constant) == []


def test_checker_sees_an_unread_private_name():
    sources = {
        "a.py": ("_FLOOR = 1e-12\n_LIMIT = 5\n__version__ = '1'\n"
                 "def _helper():\n    return _LIMIT\nclass _Unused: pass\n"),
        "b.py": "from .a import _helper\nimport a\nprint(a._other)\n_other = 1\n",
    }
    assert unread_names(sources, sources.values(), is_private) == [
        ("a.py", "_FLOOR"), ("a.py", "_Unused")]


def test_checker_sees_an_unread_constant():
    sources = {"a.py": ("LIMIT = 5\n_BATCH = 2\nTABLE: dict = {}\nSPARE = 1\n"
                        "Mixed_Case = 3\n__version__ = '1'\ndef f():\n"
                        "    return LIMIT\n")}
    readers = [*sources.values(), "import a\nprint(a.TABLE)\n",
               "from a import _BATCH as batch\n"]
    assert unread_names(sources, readers, is_constant) == [("a.py", "SPARE")]


def test_no_package_module_imports_scipy():
    found = [(p.name, line) for p in sorted(PACKAGE.glob("*.py"))
             for line in scipy_imports(p.read_text())]
    assert found == []


def test_checker_sees_a_nested_scipy_import():
    source = ("import numpy\nfrom .scipy import x\ndef f():\n"
              "    from scipy.integrate import quad\n"
              "    if x:\n        import os, scipy.special as sp\n")
    assert scipy_imports(source) == [4, 6]


def input_rule_reads(source: str) -> list:
    """Line of each `.dtype.kind` read and each call of `_is_integer`, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "kind"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and "_is_integer" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_model_reads_the_numeric_input_rule():
    found = [(p.name, line) for p in sorted(PACKAGE.glob("*.py")) if p.name != "model.py"
             for line in input_rule_reads(p.read_text())]
    assert found == []
    assert input_rule_reads((PACKAGE / "model.py").read_text()) != []


def test_checker_sees_an_input_rule_read():
    source = ("import numpy as np\nfrom . import model\nfrom .model import _is_integer\n"
              "def f(a, n, kind):\n    if a.dtype.kind == 'f' and _is_integer(n):\n"
              "        return model._is_integer(len(a))\n"
              "    return np.asarray(a).dtype.kind, kind.kind, a.dtype\n")
    assert input_rule_reads(source) == [5, 5, 6, 7]


def python_floor() -> tuple:
    """(major, minor) of pyproject.toml's `requires-python = ">=X.Y"`."""
    text = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    assert found is not None
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), filename=path.name, feature_version=python_floor())


def test_floor_parse_sees_newer_syntax():
    exception_group = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(exception_group, feature_version=(3, 11))
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse(exception_group, feature_version=(3, 10))


# A fresh interpreter imports the CLI and builds the cutoff (a command's
# set-up), then runs a sweep with Monte Carlo and the grid check, one pair
# integral and one discretisation probe (the J0-using oracles of an audit).
FRESH_PASS = """
import json, sys, tempfile
import biasedwave.cli as cli
from biasedwave import build_cutoff, build_params, e1_error_norm, pair_integral
build_cutoff()
before = set(sys.modules)
with tempfile.TemporaryDirectory() as tmp:
    cli.run_sweep(cli.parse_config({
        "lambda_ladder": [64.0, 128.0], "gamma": {"mode": "fixed", "values": [4.0]},
        "alpha_list": [0.5], "p_rule": {"mode": "fixed", "values": [0.7]},
        "mc_samples": 100, "seed": 3, "grid_check": True,
        "output_stem": tmp + "/run"}))
pair_integral(build_params(64.0, 4.0, 0.5, 0.5), 0.3)
e1_error_norm(build_params(32.0, 2.0, 0.5, 0.5), n_doublings=1)
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "numpy_added": sorted(m for m in set(sys.modules) - before
                          if m.startswith("numpy."))}))
"""


def test_a_pass_loads_no_scipy_and_imports_no_numpy_submodule():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", FRESH_PASS], env=env,
                          capture_output=True, text=True, check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded["scipy"] == []
    assert loaded["numpy_added"] == []
