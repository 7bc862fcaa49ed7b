"""Run one classm CLI command as ``python -m classm`` would, under the tracer.

Usage: ``python bench/cli_child.py OUT.json ARG...`` with ``src`` on
PYTHONPATH. The command's stdout, stderr and exit code are those of
``python -m classm ARG...``; the spans and counters of the run are written
to OUT.json for the runner to merge.
"""

import json
import runpy
import sys
from pathlib import Path

import spans


def main() -> int:
    out = Path(sys.argv[1])
    sys.argv = [sys.argv[0], *sys.argv[2:]]
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.active = True
    code = 0
    try:
        runpy.run_module("classm", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.active = False
        sys.stdout.flush()
        out.write_text(json.dumps(tracer.payload()))
    return code


if __name__ == "__main__":
    sys.exit(main())
