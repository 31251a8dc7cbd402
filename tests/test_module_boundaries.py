"""Each module of the package uses only the public names of the others.

A ``_``-prefixed name is private to the module that defines it; a module
that needs another's helper gets a public name for it.
"""

import ast
import pathlib

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
