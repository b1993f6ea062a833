"""Import-structure guards on src/groupalg, read off the source with ast.

poly.py sits below field.py and linalg.py, so it may import no groupalg module
but errors; no module imports inside a function, which is how an import
cycle (field.py reaching into linalg.py, say) would hide; and only dimension.py
names the route internals, so it alone chooses between a polynomial route and
elimination.  No module loops over elements in Python through np.frompyfunc.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "groupalg"
ROUTE_INTERNALS = {"_route", "_cyclic_gcd", "_coset_index", "_largest_cycle", "_cyclic_charpoly"}


def _groupalg_imports(tree):
    """(line, module) for every groupalg module that an import statement in tree names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            yield from ((node.lineno, name.split(".")[0]) for name in names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("groupalg"):
            yield node.lineno, node.module.partition(".")[2] or "groupalg"
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, a.name.partition(".")[2] or "groupalg")
                        for a in node.names if a.name.split(".")[0] == "groupalg")


def _imported_names(tree):
    """(line, name) for every name that a from-import statement in tree binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, a.name) for a in node.names)


def test_poly_imports_no_groupalg_module_but_errors():
    tree = ast.parse((SRC / "poly.py").read_text())
    bad = [(line, mod) for line, mod in _groupalg_imports(tree) if mod != "errors"]
    assert not bad, f"poly.py imports {bad}"


def test_no_module_imports_inside_a_function():
    bad = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bad += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                        if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not bad, f"imports inside functions: {bad}"


def test_only_dimension_imports_the_route_internals():
    bad = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
           if path.name != "dimension.py"
           for line, name in _imported_names(ast.parse(path.read_text()))
           if name in ROUTE_INTERNALS]
    assert not bad, f"route internals imported outside dimension.py: {bad}"


def test_the_guards_see_the_imports_they_forbid():
    tree = ast.parse("from .linalg import _gcd\nfrom . import field\nimport groupalg.dimension\n"
                     "from .errors import SpecError\n")
    assert [mod for _, mod in _groupalg_imports(tree)] == \
        ["linalg", "field", "dimension", "errors"]
    tree = ast.parse("from .dimension import IdealSpec, _cyclic_gcd\nimport groupalg.dimension\n")
    assert [name for _, name in _imported_names(tree) if name in ROUTE_INTERNALS] == \
        ["_cyclic_gcd"]


def test_no_module_uses_frompyfunc():
    bad = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
           for node in ast.walk(ast.parse(path.read_text()))
           if isinstance(node, ast.Attribute) and node.attr == "frompyfunc"]
    assert not bad, f"np.frompyfunc in {bad}"
