"""No module of the package uses another module's private (_-prefixed) names,
and settings that no caller varies stay constants rather than parameters."""

import ast
import importlib
import inspect
from pathlib import Path

import stablecut
from stablecut import acceptance

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


def _public_functions():
    for path in sorted(PACKAGE.glob("[!_]*.py")):  # __main__ would run the CLI
        module = importlib.import_module(f"stablecut.{path.stem}")
        for name, fn in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                yield f"{path.stem}.{name}", fn


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
