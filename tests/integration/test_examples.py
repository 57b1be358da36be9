"""Every script under ``examples/`` runs to completion.

The examples are the library's documented entry points, so a keyword
refactor that breaks one must fail the suite rather than only the
byte-compile step.  Each runs in a fresh interpreter against a
throwaway on-disk characterization store.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dram.store import CACHE_DIR_ENV

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env[CACHE_DIR_ENV] = str(tmp_path / "store")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
