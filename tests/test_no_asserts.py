"""Static checks on the package source.

Runtime checks raise, never `assert`, since `python -O` strips asserts; no
module keeps an import it does not use or imports beyond the standard
library; and the operand rule of the value types and the Zech multiply-add
on log lists are each written once.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "loghurwitz"


def test_package_has_no_assert_statements():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_modules_use_every_name_they_import():
    """Each module other than __init__.py reads every name it imports (leftovers of moved code fail)."""
    sources = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
    assert sources
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def _foreign_imports(text, filename="<source>"):
    """(line, module) of each import in text that is neither relative nor of a standard-library module."""
    found = []
    for node in ast.walk(ast.parse(text, filename=filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.partition(".")[0] not in sys.stdlib_module_names]
    return found


def test_package_imports_only_itself_and_the_standard_library():
    """The runtime is standard-library only (`dependencies = []` in pyproject.toml): each import is relative or stdlib."""
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [f"{path.name}:{line} {name}" for path in sources for line, name in _foreign_imports(path.read_text(), path)]
    assert found == []
    sample = "import json\nimport numpy\nfrom sympy.core import S\nfrom . import ffield\nimport os.path as osp\n"
    assert _foreign_imports(sample) == [(2, "numpy"), (3, "sympy.core")]


def test_only_the_operator_helper_returns_not_implemented():
    """NotImplemented (so `is NotImplemented` too) appears only in ffield._operator and in __eq__.

    Every arithmetic operator is built by ffield._operator, so a
    coerce-or-NotImplemented prologue copied into an operator body fails here.
    """
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            and (func.name == "__eq__" or (path.name, func.name) == ("ffield.py", "_operator"))
            for node in ast.walk(func)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "NotImplemented" and id(node) not in allowed
        ]
    assert found == []


def test_zech_lookups_stay_in_the_multiply_add_and_the_fused_loops():
    """A subscript of `zech` or `._zech` appears only in ratfunc._addmul, the three fused loops and add_idx.

    ratfunc._addmul is the one multiply-add on log lists, so a Zech
    multiply-add loop copied into another function fails here.
    """
    allowed_funcs = {
        ("ratfunc.py", "_addmul"),
        ("ratfunc.py", "_from_root_indices"),
        ("ratfunc.py", "_coeff_log"),
        ("ratfunc.py", "_value_idx"),
        ("ffield.py", "add_idx"),
    }
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and (path.name, func.name) in allowed_funcs
            for node in ast.walk(func)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and (getattr(node.value, "id", None) == "zech" or getattr(node.value, "attr", None) == "_zech")
            and id(node) not in allowed
        ]
    assert found == []


def test_every_private_definition_is_named_elsewhere_in_the_package():
    """Each private function, class and method is named in the package outside its own body.

    A name counts as a reference where it is read as a variable or an
    attribute or imported, so a helper that only the tests keep alive fails.
    """
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    assert trees
    refs = {}
    for node in (node for tree in trees for node in ast.walk(tree)):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.alias):
            name = node.asname or node.name
        if name:
            refs.setdefault(name, set()).add(id(node))
    defs = [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    assert len(defs) > 50
    orphans = [d.name for d in defs if not refs.get(d.name, set()) - {id(n) for n in ast.walk(d)}]
    assert orphans == []


def test_only_strata_names_the_level_graph_frame():
    """`_frame`, a LevelGraph's shared frame, is named only in strata.py, so its layout stays behind one module.

    A name counts where it is read or set as an attribute or a variable, or
    written as a string (for getattr or attrgetter) that is `_frame` or starts `_frame.`.
    """
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value.partition(".")[0]
            if name == "_frame":
                found.setdefault(path.name, []).append(node.lineno)
    assert "strata.py" in found
    assert [f"{name}:{lines[0]}" for name, lines in found.items() if name != "strata.py"] == []
