"""Run the ``>>>`` examples in the library's docstrings.

One case per ``repro`` module that has examples, so a refactor that
leaves an example stale fails here by module name.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro


def modules_with_examples():
    """Names of the ``repro`` modules whose docstrings hold examples."""
    finder = doctest.DocTestFinder()
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(
            repro.__path__, prefix="repro.")]
    return [name for name in names
            if any(test.examples
                   for test in finder.find(importlib.import_module(name)))]


@pytest.mark.parametrize("name", modules_with_examples())
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0
    assert result.failed == 0, f"{result.failed} example(s) failed"
