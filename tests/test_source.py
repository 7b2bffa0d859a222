"""Checks on the library's source text."""

import ast
from pathlib import Path

import plueckerfan

PACKAGE = Path(plueckerfan.__file__).resolve().parent


def test_no_assert_statements():
    # asserts vanish under python -O; library checks raise instead
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def imports_run_at_load(tree):
    """The import statements of a module that run when it loads: all but those in functions."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def imported_modules(node):
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return [alias.name for alias in node.names]


def test_numpy_is_imported_on_first_use():
    # the exact commands never build an array, so loading the package must not load numpy
    modules = sorted(PACKAGE.glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in imports_run_at_load(ast.parse(path.read_text(), str(path)))
             if any(name.split(".")[0] == "numpy" for name in imported_modules(node))]
    assert found == []


def test_order_core_never_imports_numpy():
    # posets and ideals are bitmasks; the arrays over them live in chain_order and verify
    tree = ast.parse((PACKAGE / "order_core.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and any(name.split(".")[0] == "numpy" for name in imported_modules(node))]
    assert found == []


def test_oracle_helpers_left_the_library():
    # deg_vector serves only the tests (tests/oracle_reference.py); short minors are expanded
    # over the minor table, and the symbolic minor by the same expansion, with no permutations
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}
    defined = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"deg_vector", "_small_minor"}.isdisjoint(defined)
    imported = {alias.name for node in ast.walk(trees["straightening"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {"permutations", "_signed_sort"}.isdisjoint(imported)


# public names kept as library API although nothing in src/ or scripts/ calls them
API = {
    "straightening.shuffle_relation": "the Sylvester-Pluecker shuffle relations of the paper",
    "straightening.exchange_relation": "the classical exchange relations, a view of the shuffle core",
    "straightening.psi_exponent": "the PBW monomial map of the paper; acceptance criterion 11",
    "straightening.theta_to_psi": "the diagonal substitution of the paper; acceptance criterion 11",
    "chain_order.zeta": "the transfer map of the paper, the scalar form of its stacked twin",
    "chain_order.odot_ideals": "the ideal product of the paper, on order ideals",
    "plucker_lattices.column_meet": "the semistandard meet of two columns in closed form",
    "plucker_lattices.column_grade": "the grade of a column of M(n) in closed form",
    "plucker_lattices.m_cell_ideal": "the cell ideal of a column of M(n), by its definition",
    "plucker_lattices.pbw_cell_ideal": "the cell ideal of a column of N(n), by its definition",
    "cones.weights_to_json_obj": "the inverse of the reader of the --weights file",
    "cones.initial_form": "the scalar initial form that the cone suites' row checks imply",
    "chain_order.dilation_points": "a perfbench span names it",
    "order_core.enumerate_order_ideals": "a perfbench span names it",
}


def public_definitions():
    """(module, name) of every public module-level function and class of the package."""
    return {(path.stem, node.name) for path in PACKAGE.glob("*.py")
            for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def names_used(tree):
    """Names a module reads, imports or looks up as attributes, outside the definition of each."""
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                continue
            if name != own:
                yield name


def test_every_public_name_has_a_caller_or_is_listed_api():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((PACKAGE.parents[1] / "scripts").glob("*.py"))
    used = {name for path in sources for name in names_used(ast.parse(path.read_text(), str(path)))}
    defined = public_definitions()
    uncalled = {f"{module}.{name}" for module, name in defined if name not in used}
    assert sorted(uncalled - API.keys()) == []
    assert sorted(API.keys() - {f"{module}.{name}" for module, name in defined}) == []
