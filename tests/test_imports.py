"""Lint: every import under ``src/repro`` is used or re-exported.

Deleting code tends to leave its imports behind, and the checkout has
no pyflakes or ruff to catch them, so these tests do the two checks
with the standard library's :mod:`ast`:

* in a module, a name bound by an ``import`` or ``from ... import``
  must appear as a name somewhere else in the module: in code, in an
  annotation (string annotations included) or in ``__all__``;
* a package ``__init__.py`` imports names only to re-export them, so
  each name its module-level imports bind must be in its ``__all__``,
  and each ``__all__`` entry must be bound or defined in the file.

A third check runs ``import repro.cli`` in a fresh interpreter and
lists the standard-library modules it must not load, a fourth runs
cold-store ``dse`` and ``characterize`` commands and checks that they
never load ``numpy.ma``, and a fifth keeps numpy out of the
module-level imports of the modules in ``NUMPY_FREE``: among them the
exploration record and its network analysis, which select on point
tables through the tables' own methods, the search strategies,
whose funnel imports numpy inside the functions that rank, and the
object simulator with its controller, crossbar and their configs,
which characterize every non-default configuration in plain Python.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
MODULES = sorted(path for path in PACKAGE_ROOT.rglob("*.py")
                 if path.name != "__init__.py")
PACKAGES = sorted(PACKAGE_ROOT.rglob("__init__.py"))


def _imported_names(nodes):
    """``{bound name: line}`` of every import among ``nodes``."""
    names = {}
    for node in nodes:
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
    return used | _exported_names(tree)


def _exported_names(tree):
    """The string entries of the module's ``__all__``."""
    exported = set()
    for node in tree.body if isinstance(tree, ast.Module) else ():
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported |= {element.value for element in node.value.elts}
    return exported


def _defined_names(tree):
    """Names bound at module level other than by an import."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defined |= {name.id for target in targets
                        for name in ast.walk(target)
                        if isinstance(name, ast.Name)}
    return defined


def test_every_import_is_used():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        imported = _imported_names(ast.walk(tree))
        unused += [
            f"{path.relative_to(PACKAGE_ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(),
                                     key=lambda item: item[1])
            if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_package_reexports_match_all():
    mismatched = []
    for path in PACKAGES:
        tree = ast.parse(path.read_text(), filename=str(path))
        package = path.parent.relative_to(PACKAGE_ROOT.parent)
        imported = _imported_names(tree.body)
        exported = _exported_names(tree)
        mismatched += [
            f"{package}: imports {name} (line {line}) but leaves it out "
            "of __all__"
            for name, line in sorted(imported.items(),
                                     key=lambda item: item[1])
            if name not in exported]
        mismatched += [
            f"{package}: __all__ names {name}, which it never binds"
            for name in sorted(exported - set(imported)
                               - _defined_names(tree))]
    assert not mismatched, "\n".join(mismatched)


def test_cli_import_loads_no_process_pool():
    """The engine evaluates in the calling process, so starting the
    CLI loads neither ``multiprocessing`` nor ``concurrent.futures``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT.parent), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print(sorted(name for name in "
         "('multiprocessing', 'concurrent.futures') "
         "if name in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["dse", "--model", "lenet5", "--no-disk-cache"],
    ["characterize", "--device", "all", "--no-disk-cache"],
], ids=["dse", "characterize"])
def test_cold_cli_commands_load_no_numpy_ma(argv):
    """A cold-store ``dse`` or ``characterize`` uses no masked arrays,
    so it never pays for importing ``numpy.ma``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT.parent), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys\n"
         "from repro.cli import main\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         f"    code = main({argv!r})\n"
         "print(code, 'numpy.ma' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["0", "False"]


#: Modules that must import no numpy when they are imported.
NUMPY_FREE = ("core/dse.py", "core/strategies.py", "workloads/analysis.py",
              "cnn/traffic.py", "mapping/counts.py", "dram/policies.py",
              "dram/contention.py", "dram/crossbar.py", "dram/controller.py",
              "dram/simulator.py")


def _module_level_imports(tree):
    """Import statements that run when the module is imported."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try, ast.With,
                               ast.ExceptHandler)):
            pending.extend(ast.iter_child_nodes(node))


def test_result_modules_import_no_numpy():
    offending = []
    for relative in NUMPY_FREE:
        path = PACKAGE_ROOT / relative
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _module_level_imports(tree):
            modules = [alias.name for alias in node.names] \
                if isinstance(node, ast.Import) else [node.module or ""]
            offending += [
                f"{relative}:{node.lineno}: {module}"
                for module in modules
                if module == "numpy" or module.startswith("numpy.")]
    assert not offending, "numpy imported at module level:\n" \
        + "\n".join(offending)
