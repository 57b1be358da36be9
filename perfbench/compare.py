"""Compare two sets of benchmark runs.

Usage::

    python3 perfbench/compare.py OLD NEW

``OLD`` and ``NEW`` are files or directories holding the saved stdout
of ``perfbench/run.py`` runs (any number of runs per file).  For each
workload and metric it prints each side's median and quartiles, the
change of the median, the bound from ``BENCHMARK.json`` and a verdict:

``better``
    the new median is better by more than the old runs' spread (their
    interquartile range as a share of their median);
``worse``
    the new median is worse by more than the bound;
``same``
    neither;
``unresolved``
    either side's spread exceeds the bound, and neither every new run
    is better nor every new run is worse than every old run.

Per-layer metrics have no bound and get no verdict.  The host-speed
reference of each side is printed last, so host drift can be told from
a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read_runs(path: Path) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run], "host_ref_ms": [...]}}``."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) \
        if path.is_dir() else [path]
    runs: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    for file in files:
        workload = None
        for line in file.read_text(errors="replace").splitlines():
            if line.startswith("perfbench workload="):
                fields = dict(token.split("=", 1)
                              for token in line.split()[1:])
                workload = fields["workload"]
            elif line.startswith("host_ref_ms ") and workload:
                runs[workload]["host_ref_ms"].append(
                    float(line.split()[1].split("=", 1)[1]))
            elif line.startswith("{") and workload:
                result = json.loads(line)
                for name, metric in result["metrics"].items():
                    runs[workload][name].append(metric["value"])
                workload = None
    return runs


def summary(values: List[float]):
    """``(median, first quartile, third quartile)``."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    first, _second, third = statistics.quantiles(values, n=4)
    return median, first, third


def cell(stats) -> str:
    median, first, third = stats
    return f"{median:.6g} [{first:.4g}, {third:.4g}]".rjust(34)


def verdict(old: List[float], new: List[float], better: str,
            bound: float) -> str:
    sign = 1 if better == "lower" else -1
    old_med, old_q1, old_q3 = summary(old)
    new_med, new_q1, new_q3 = summary(new)
    old_spread = (old_q3 - old_q1) / abs(old_med) if old_med else 0.0
    new_spread = (new_q3 - new_q1) / abs(new_med) if new_med else 0.0
    if max(old_spread, new_spread) > bound:
        if all(sign * (n - o) < 0 for n in new for o in old):
            return "better"
        if all(sign * (n - o) > 0 for n in new for o in old):
            return "worse"
        return "unresolved"
    worsening = sign * (new_med - old_med) / abs(old_med) if old_med \
        else 0.0
    if worsening > bound:
        return "worse"
    if -worsening > old_spread:
        return "better"
    return "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (read_runs(Path(arg)) for arg in argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    print(f"{'workload':<13}{'metric':<28}{'old median [q1, q3]':>34}"
          f"{'new median [q1, q3]':>34}{'delta':>9}{'bound':>7}  verdict")
    for workload in sorted(set(old) & set(new)):
        names = [name for name in units
                 if name in old[workload] and name in new[workload]]
        for name in names + ["host_ref_ms"]:
            before, after = old[workload][name], new[workload][name]
            if not before or not after:
                continue
            o, n = summary(before), summary(after)
            delta = (f"{100 * (n[0] - o[0]) / abs(o[0]):+8.1f}%"
                     if o[0] else f"{'n/a':>9}")
            if name in bounds:
                bound = bounds[name]["bound"]
                mark = verdict(before, after, bounds[name]["better"],
                               bound)
                limit = f"{100 * bound:6.0f}%"
            else:
                mark, limit = "-", f"{'':>7}"
            print(f"{workload:<13}{name:<28}{cell(o)}{cell(n)}{delta}"
                  f"{limit}  {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
