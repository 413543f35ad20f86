"""The package's layers, checked on its import statements.

`core` holds the rules of the game; the solver (`reduction`, `optimizer`),
the checker (`oracle`) and the closed-form schemes (`schemes`) build on it.
A private name is shared only from `core`, and the solver and the schemes
never reach into the checker or each other.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "postedprice"

# module -> siblings it must not import from
FORBIDDEN = {
    "reduction": {"oracle"},
    "schemes": {"oracle", "optimizer", "reduction"},
}


def _sibling_imports():
    """(module, sibling, imported names, line) for every import of a sibling module."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level == 1:
                sibling = node.module
            elif node.level == 0 and node.module.startswith("postedprice."):
                sibling = node.module.removeprefix("postedprice.")
            else:
                continue
            yield path.stem, sibling, [alias.name for alias in node.names], node.lineno


def test_the_package_has_modules_to_check():
    assert {"core", "oracle", "reduction", "schemes"} <= {p.stem for p in PACKAGE.glob("*.py")}
    assert any(module == "reduction" for module, *_ in _sibling_imports())


def test_private_names_are_imported_only_from_core():
    offending = [(module, sibling, name, line)
                 for module, sibling, names, line in _sibling_imports()
                 for name in names if name.startswith("_") and sibling != "core"]
    assert offending == []


def test_the_solver_and_the_schemes_do_not_import_the_checker_or_each_other():
    offending = [(module, sibling, line)
                 for module, sibling, _, line in _sibling_imports()
                 if sibling in FORBIDDEN.get(module, ())]
    assert offending == []
