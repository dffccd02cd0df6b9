"""Hygiene of the package source, read with the standard library's ``ast``.

No linter ships with the test environment, so two of its checks live here:
a module-level private name that nothing in ``src/`` loads is dead code, and
an import that its module never uses is left over from a deletion.  A third
keeps each argument rule in one place: its message is written once.  A
fourth keeps the generating-function route free of BLAS products.
"""

from __future__ import annotations

import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "langevin_gf").glob("*.py"))

# The message of each argument rule that every entry point applies.
RULE_MESSAGES = (
    "step size must be positive and finite",
    "time must be nonnegative and finite",
    "state dimension does not match the model",
    "need at least one test function",
    "friction must be nonnegative and finite",
    "e^(vt) overflows at v*t",
)


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def _loaded(tree: ast.AST, attributes: bool) -> set[str]:
    """Bare names a tree reads and, with ``attributes``, attributes such as ``mc._name``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif attributes and isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level ``_x`` functions, classes and constants (dunders excluded)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_sources_are_found():
    assert {"models.py", "integrators.py", "mc.py"} <= {path.name for path in SOURCES}


def test_every_private_module_name_is_loaded_somewhere_in_src():
    trees = _trees()
    loaded = set().union(*(_loaded(tree, attributes=True) for tree in trees.values()))
    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in loaded
    ]
    assert unused == []


def test_every_import_is_used_in_its_module():
    unused = []
    for module, tree in _trees().items():
        if module == "__init__.py":
            continue  # re-exports are its purpose
        loaded = _loaded(tree, attributes=False)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unused.append(f"{module}: {alias.name}")
    assert unused == []


def test_genfun_forms_its_products_term_by_term():
    # Its closed forms go through models._matvec, so no row's bits depend on
    # BLAS or on the rows stacked with it.
    tree = _trees()["genfun.py"]
    assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree))


def test_each_argument_rule_is_written_once():
    copies = {
        message: [path.name for path in SOURCES for _ in range(path.read_text().count(message))]
        for message in RULE_MESSAGES
    }
    assert copies == {message: ["models.py"] for message in RULE_MESSAGES}
