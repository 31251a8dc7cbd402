"""Each module of the package uses only the public names of the others.

A ``_``-prefixed name is private to the module that defines it; a module
that needs another's helper gets a public name for it.  Every module loads
when the package does, and none imports scipy at module level: scipy loads
inside the functions that call it, the oracle's and the Schur route of the
Lyapunov solve.  So importing the package or its command line loads no
scipy, only ``verify`` among the commands (and ``ness`` or ``sweep`` on
the Schur route) loads it, and no command imports ``scipy.optimize``.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import sec4_document

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "thirdq"


def private_imports(path: pathlib.Path) -> list[str]:
    """``file:line name`` of each ``from <package module> import _name`` in a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module != "thirdq" and not module.startswith("thirdq."):
            continue
        for alias in node.names:
            # dunders such as __version__ are public
            if alias.name.startswith("_") and not alias.name.endswith("__"):
                found.append(f"{path.name}:{node.lineno} {alias.name}")
    return found


def test_no_module_imports_another_modules_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in private_imports(path)] == []


def package_imports(path: pathlib.Path) -> set[str]:
    """The package modules a file imports: ``model`` for ``.model`` or ``thirdq.model``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
        elif isinstance(node, ast.ImportFrom):  # from .model import x, from . import model
            names += [f"thirdq.{node.module or alias.name}" for alias in node.names]
    # a bare thirdq is the package itself, which imports every module
    return {
        name.split(".")[1] if "." in name else name
        for name in names
        if name.split(".")[0] == "thirdq"
    }


def test_oracle_imports_only_errors_and_model_from_the_package():
    # the oracle certifies the analytic modules, so it shares none of their
    # code: only the error types and the input readers of thirdq.model
    assert package_imports(PACKAGE / "oracle.py") == {"errors", "model"}


def module_level_scipy_imports(path: pathlib.Path) -> list[str]:
    """``file:line module`` of each scipy import that runs when a file loads.

    A function body runs only when it is called, and an ``if TYPE_CHECKING:``
    block never runs; everything else at module level, class bodies
    included, runs on import.
    """
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        found.extend(
            f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "scipy"
        )
        type_checking = isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING",
            "typing.TYPE_CHECKING",
        )
        for child in node.orelse if type_checking else ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(), filename=str(path)))
    return found


def test_no_module_imports_scipy_at_module_level():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in module_level_scipy_imports(path)] == []


# bench/tracing.py looks every thirdq module up in sys.modules; scipy loads
# only when an oracle function first runs
SCIPY_IMPORT_CHECK = """
import sys
import thirdq, thirdq.cli
loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
assert not loaded, "loaded on import: " + " ".join(loaded)
assert "thirdq.oracle" in sys.modules and "thirdq.verify" in sys.modules
missing = [name for name in thirdq.__all__ if not hasattr(thirdq, name)]
assert not missing, "unresolved: " + " ".join(missing)
thirdq.build_liouvillean_matrix(thirdq.validate_model(1, [[1.0]]), 2)
assert "scipy.sparse" in sys.modules
"""


def run_fresh(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=cwd, capture_output=True, text=True
    )


def test_imports_leave_scipy_unloaded_until_used():
    result = run_fresh(SCIPY_IMPORT_CHECK)
    assert result.returncode == 0, result.stderr


# the float speller makes its exact constants from ints: prints any of the
# exact-arithmetic modules that importing the package, or spelling floats
# of every size, loads
EXACT_MODULES_LOADED = """
import sys
import numpy as np
import thirdq, thirdq.cli
from thirdq import codec
loaded = [name for name in ("fractions", "decimal") if name in sys.modules]
codec.emit(codec.csv_lines(np.array([[1e-300, 0.1, 1e300]])), sys.argv[1])
print(" ".join(loaded + [name for name in ("fractions", "decimal") if name in sys.modules]))
"""


def test_imports_and_spelling_load_no_exact_arithmetic(tmp_path):
    result = run_fresh(EXACT_MODULES_LOADED, str(tmp_path / "table.csv"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


# every exported or listed name resolves; prints the names that do not
EXPORTS_RESOLVE = """
import thirdq
names = sorted(set(thirdq.__all__) | set(dir(thirdq)))
print(" ".join(name for name in names if not hasattr(thirdq, name)))
"""


def test_every_exported_name_resolves():
    result = run_fresh(EXPORTS_RESOLVE)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


# prints whether scipy and scipy.optimize are loaded after one command in a
# fresh interpreter
SCIPY_AFTER_COMMAND = """
import contextlib, io, sys
from thirdq.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "scipy" in sys.modules, "scipy.optimize" in sys.modules)
"""


@pytest.mark.parametrize(
    "command, loads_scipy",
    [
        (["analyze"], False),
        (["ness"], False),
        (["spectrum", "-M", "2"], False),
        (["sweep", "--param", "H.0.0.0", "--from", "0", "--to", "1", "--steps", "3"], False),
        (["dynamics", "--t1", "1"], False),
        (["verify"], True),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_only_commands_that_need_scipy_import_it(tmp_path, command, loads_scipy):
    # the README oscillator: Stable, so ness takes the eigenbasis route
    (tmp_path / "osc.json").write_text(json.dumps(sec4_document()))
    result = run_fresh(SCIPY_AFTER_COMMAND, *command, "--model", "osc.json", cwd=tmp_path)
    assert result.stdout.split() == ["0", str(loads_scipy), "False"], result.stderr
