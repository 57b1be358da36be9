"""Lint: no module under ``src/repro`` imports a name it never uses.

Deleting code tends to leave its imports behind, and the checkout has
no pyflakes or ruff to catch them, so this test does the one check with
the standard library's :mod:`ast`.  A name bound by an ``import`` or
``from ... import`` must appear as a name somewhere else in the module:
in code, in an annotation (string annotations included) or in
``__all__``.  The package ``__init__.py`` files are skipped, because
they import names only to re-export them.
"""

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
MODULES = sorted(path for path in PACKAGE_ROOT.rglob("*.py")
                 if path.name != "__init__.py")


def _imported_names(tree):
    """``{bound name: line}`` of every import in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    names.setdefault(alias.asname or alias.name,
                                     node.lineno)
    return names


def _annotations(tree):
    """Every annotation expression in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    """Every name the module refers to outside its import statements."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    for node in tree.body if isinstance(tree, ast.Module) else ():
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {element.value for element in node.value.elts}
    return used


def test_every_import_is_used():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        unused += [
            f"{path.relative_to(PACKAGE_ROOT)}:{line}: {name}"
            for name, line in sorted(_imported_names(tree).items(),
                                     key=lambda item: item[1])
            if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)
