"""No module of the package uses another module's private (_-prefixed) names,
settings that no caller varies stay constants rather than parameters, and
every public function and class has a caller outside the tests and demos."""

import ast
import importlib
import inspect
from pathlib import Path

import stablecut
from stablecut import acceptance

PACKAGE = Path(stablecut.__file__).parent
ROOT = PACKAGE.parent.parent


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


def unused_imports(source: str) -> list[str]:
    """Names a module binds by import and never reads; __future__ imports bind none."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_checker_flags_unused_imports():
    source = ("from __future__ import annotations\n"
              "import json\nimport os.path\nimport numpy as np\n"
              "from .spectral import spectral_threshold, weight_scale as scale\n"
              "def f(x: np.ndarray):\n    return scale(os.path.sep)\n")
    assert unused_imports(source) == ["json", "spectral_threshold"]


def test_no_module_imports_a_name_it_never_reads():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]  # it re-exports
    paths += sorted((ROOT / "tests").glob("*.py"))
    found = {path.name: unused_imports(path.read_text()) for path in sorted(paths)}
    assert {name: names for name, names in found.items() if names} == {}


def _public_definitions():
    """(module stem, name, object) of every public function and class a package module defines."""
    for path in sorted(PACKAGE.glob("[!_]*.py")):  # __main__ would run the CLI
        module = importlib.import_module(f"stablecut.{path.stem}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                yield path.stem, name, obj


def _public_functions():
    for stem, name, obj in _public_definitions():
        if inspect.isfunction(obj):
            yield f"{stem}.{name}", obj


def test_no_public_function_takes_a_size_cap():
    # every exhaustive scan stops at the one oracle constant, SCAN_MAX_N
    takers = sorted(name for name, fn in _public_functions()
                    if "max_n" in inspect.signature(fn).parameters)
    assert takers == []


def test_defaulted_parameters_are_pinned():
    # a new knob on a public function means editing this list; the criteria,
    # which take only a seed, are pinned by the test below
    criteria = {f"acceptance.{c.__name__}" for c in acceptance.CRITERIA}
    defaulted = sorted(f"{name}.{p.name}" for name, fn in _public_functions() if name not in criteria
                       for p in inspect.signature(fn).parameters.values()
                       if p.default is not inspect.Parameter.empty)
    assert defaulted == [
        "acceptance.run_all.seed",
        "cli.main.argv",
        "oracle.subset_scan_minima.delta",
        "spectral.bipolarity_check.seed",
        "spectral.bipolarity_check.tol_scale",
        "spectral.gw_primal_solve.max_sweeps",
        "spectral.gw_primal_solve.seed",
        "spectral.gw_round.seed",
        "spectral.gw_round.trials",
        "stable.spanning_tree_solve.repetitions",
        "stable.sqrt_stable_solve.gamma",
    ]


def test_acceptance_criteria_take_only_a_seed():
    for criterion in acceptance.CRITERIA:
        params = inspect.signature(criterion).parameters.values()
        assert [(p.name, p.default) for p in params] == [("seed", acceptance.DEFAULT_SEED)], \
            criterion.__name__


def references(source: str) -> list[tuple[str | None, str]]:
    """(top-level definition or None, name) for every Name and Attribute node."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.append((owner, node.id))
            elif isinstance(node, ast.Attribute):
                found.append((owner, node.attr))
    return found


def uncalled(exports: dict[str, str], sources: dict[str, str]) -> list[str]:
    """Exported names (name -> defining file) that no code in ``sources`` (file -> text) reaches.

    A reference counts unless it sits in the name's own definition, or in the
    definition of another exported name that nothing reaches either.
    """
    refs = {(path, owner, name) for path, text in sources.items()
            for owner, name in references(text) if name in exports}
    called: set[str] = set()
    while True:
        more = {name for path, owner, name in refs if name not in called
                and (path, owner) != (exports[name], name)
                and (owner is None or exports.get(owner) != path or owner in called)}
        if not more:
            return sorted(set(exports) - called)
        called |= more


def test_checker_follows_callers_from_live_code():
    exports = {"used": "a.py", "helper": "a.py", "dead": "a.py", "dead_type": "a.py",
               "recursive": "a.py"}
    sources = {
        "a.py": ("def used():\n    return helper()\n"
                 "def helper():\n    pass\n"
                 "class dead_type:\n    pass\n"
                 "def dead():\n    # used() in a comment is no call\n    return dead_type()\n"
                 "def recursive(k):\n    return recursive(k - 1)\n"),
        "b.py": "import a\na.used()\n",
    }
    assert uncalled(exports, sources) == ["dead", "dead_type", "recursive"]


def test_every_export_has_a_caller():
    definitions = list(_public_definitions())
    exports = {name: str((PACKAGE / f"{stem}.py").resolve()) for stem, name, _ in definitions}
    assert len(exports) == len(definitions)  # no public name is defined twice
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "bench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    sources = {str(p.resolve()): p.read_text() for p in files}
    assert uncalled(exports, sources) == []
