"""Regenerate ``pins.json``: the expected output of every op in the space.

Usage::

    python3 perfbench/pins.py

Runs every input each workload can draw (216 explorations, 336
characterizations and 5 commands; a few minutes) and stores the SHA-256
of each op's canonical output.  Run it only when a change is meant to
alter the program's results, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from bench_ops import PINS_PATH, ROOT, WORKLOADS


def regenerate(name: str, workdir) -> dict:
    cls = WORKLOADS[name]
    workload = cls(cls.space(), workdir)
    workload.setup()
    pins = {}
    for op in workload.ops:
        workload.before_op(op)
        _units, digest = workload.check(op, workload.run(op))
        pins[op.key] = digest
    return pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)  # takes no arguments; answers --help
    sys.path.insert(0, str(ROOT / "src"))
    pins = {}
    workdir = ROOT / ".perfbench-work" / f"pins-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)  # left by a killed run
    workdir.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "store")
    try:
        for name in WORKLOADS:
            pins[name] = regenerate(name, workdir)
            print(f"{name}: {len(pins[name])} pins", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
