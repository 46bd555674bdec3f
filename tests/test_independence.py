"""The deciders and the brute-force oracle are two independent code paths.

Neither side imports from the other, so an agreement between them is a
check and not a tautology; in particular both compute their short cycle
rates themselves, not through `induced_rate_cyclic`, the tests' per-word
reference in `z_reference` (with `cyclic_chain_weight` and
`line_balance_raw`), which the package does not define.  The imports are
read from the source with `ast`, not by importing.
"""
import ast
import os

import psinv

SOURCE = os.path.dirname(os.path.abspath(psinv.__file__))
DECIDERS = ("criteria", "segment", "lattice2d", "search")


def package_imports(module):
    """{imported psinv module: names imported from it} of one module, for
    every `from .x import ...`, `from . import x` and `from psinv.x import ...`."""
    with open(os.path.join(SOURCE, f"{module}.py")) as handle:
        tree = ast.parse(handle.read())
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and node.module is None:
            for alias in node.names:
                found.setdefault(alias.name, set())
        elif node.level == 1 or (node.module or "").startswith("psinv."):
            name = node.module.split(".")[-1]
            found.setdefault(name, set()).update(alias.name for alias in node.names)
    return found


def test_deciders_import_nothing_from_the_oracle():
    for module in DECIDERS:
        assert "oracle" not in package_imports(module), module


def test_oracle_imports_no_decider():
    assert not set(package_imports("oracle")) & set(DECIDERS)


def test_criteria_do_not_use_the_oracle_cycle_rates():
    for module in ("criteria", "oracle"):
        imported = set().union(*package_imports(module).values())
        assert "induced_rate_cyclic" not in imported, module


def test_reader_sees_the_known_imports():
    assert "JumpRateMatrix" in package_imports("oracle")["core"]
    assert {"criteria", "oracle", "search"} <= set(package_imports("cli"))
