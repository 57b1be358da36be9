"""Traced cli-store op: a fresh import of ``repro.cli``, then ``main(argv)``.

Usage: ``python -X importtime perfbench/cli_driver.py SPANS_JSON [ARGV...]``

Writes the command's output to stdout as ``python -m repro ARGV`` would,
marks the ``import repro.cli`` on stderr so the parent can pick its
``-X importtime`` lines out, and writes the spans and counters of the
run to ``SPANS_JSON``.  With no ``ARGV`` it only imports (the import
probe of the in-process workloads).
"""

import json
import sys

from bench_trace import IMPORT_BEGIN, IMPORT_END, Recorder, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    print(IMPORT_BEGIN, file=sys.stderr, flush=True)
    with recorder.span("startup"):
        import repro.cli
    print(IMPORT_END, file=sys.stderr, flush=True)
    code = 0
    if argv:
        uninstall = install(recorder)
        try:
            with recorder.span("cli"):
                code = repro.cli.main(argv)
        finally:
            uninstall()
            sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(recorder.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
