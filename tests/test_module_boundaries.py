"""No module of the package uses another module's private (_-prefixed) names."""

import ast
from pathlib import Path

import stablecut

PACKAGE = Path(stablecut.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(source: str) -> list[str]:
    """Private names a module imports from, or reads off, a sibling module."""
    tree = ast.parse(source)
    siblings = set()  # local names bound to package modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("stablecut")):
            for alias in node.names:
                if node.module is None or node.module == "stablecut":
                    siblings.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("stablecut."):
                    siblings.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_checker_flags_private_uses():
    source = ("from .dense import DenseSolverConfig, _best\n"
              "from . import acceptance\n"
              "import stablecut.oracle as oracle\n"
              "acceptance._pool(1)\noracle._scan()\nacceptance.__name__\n")
    assert private_uses(source) == ["from .dense import _best", "acceptance._pool", "oracle._scan"]


def test_no_cross_module_private_uses():
    found = {path.name: private_uses(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}
