"""Each module of the package uses only the public names of the others.

A ``_``-prefixed name is private to the module that defines it; a module
that needs another's helper gets a public name for it.  Importing the
package or its command line runs neither the oracle nor ``verify``.
"""

import ast
import os
import pathlib
import subprocess
import sys

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


# the lazy modules are in sys.modules (bench/tracing.py looks every thirdq
# module up there) but run only on first use
LAZY_IMPORT_CHECK = """
import sys, types
import thirdq, thirdq.cli
for name in ("thirdq.oracle", "thirdq.verify"):
    assert type(sys.modules[name]) is not types.ModuleType, name + " ran on import"
assert "scipy.sparse" not in sys.modules, "scipy.sparse loaded on import"
assert "oracle_evolve" in dir(thirdq) and "run_verification" in thirdq.__all__
from thirdq import oracle_evolve
assert oracle_evolve.__module__ == "thirdq.oracle"
assert "scipy.sparse" in sys.modules
"""


def test_imports_leave_the_oracle_unloaded_until_used():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT_CHECK], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
