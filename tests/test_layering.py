"""The package's layers, checked on its source.

`core` holds the rules of the game; the solver (`reduction`, `optimizer`),
the checker (`oracle`) and the closed-form schemes (`schemes`) build on it.
A private name is shared only from `core`.  `reduction`, `oracle` and
`schemes` import only `core` and `distributions` (and `errors`), so the
checker never reaches into the solver or the schemes, nor they into the
checker or each other.  A scalar argument is read by one of core's two
input rules, never by a `float()` or `int()` of its own.  The optimizer
states its Armijo rule in one function, which every ascent move searches
through.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "postedprice"

# module -> siblings it must not import from
FORBIDDEN = {
    "oracle": {"reduction", "optimizer", "schemes"},
    "reduction": {"oracle", "optimizer", "schemes"},
    "schemes": {"oracle", "optimizer", "reduction"},
}
# the functions allowed to convert a parameter; `cli` is skipped whole, since
# its argparse types convert flag text
CONVERTERS = {("core", "_positive_int"), ("core", "_nonnegative")}


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


def _parameter_coercions(module, source):
    """(module, function, line) for every `float(p)` or `int(p)` of a parameter
    `p` of the enclosing function."""
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
            continue
        name = getattr(func, "name", "<lambda>")
        if (module, name) in CONVERTERS:
            continue
        args = func.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                  + [args.vararg, args.kwarg] if a is not None}
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("float", "int") and node.args
                    and isinstance(node.args[0], ast.Name) and node.args[0].id in params):
                yield module, name, node.lineno


def test_the_coercion_check_sees_a_coerced_parameter():
    source = "def f(x, y):\n    return float(x) + float(y * 2)\ng = lambda n: int(n)\n"
    assert list(_parameter_coercions("m", source)) == [("m", "f", 2), ("m", "<lambda>", 3)]


def test_no_parameter_is_coerced_outside_the_input_rules_and_the_cli():
    offending = [hit for path in sorted(PACKAGE.glob("*.py")) if path.stem != "cli"
                 for hit in _parameter_coercions(path.stem, path.read_text())]
    assert offending == []


def _readers(source, names):
    """{name: sorted top-level functions of `source` that read it} for each of `names`."""
    readers = {name: set() for name in names}
    for func in ast.parse(source).body:
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                        and node.id in readers:
                    readers[node.id].add(func.name)
    return {name: sorted(funcs) for name, funcs in readers.items()}


ARMIJO = ("ARMIJO_C", "ARMIJO_SHRINK")


def test_the_armijo_check_sees_a_second_search():
    source = ("C = 1\ndef a(t):\n    return t * C\n"
              "def b(t):\n    def inner():\n        return C\n    return inner\n")
    assert _readers(source, ["C"]) == {"C": ["a", "b"]}


def test_the_armijo_rule_is_read_in_one_function():
    readers = _readers((PACKAGE / "optimizer.py").read_text(), ARMIJO)
    assert all(len(funcs) == 1 for funcs in readers.values()), readers
    assert len({funcs[0] for funcs in readers.values()}) == 1, readers
