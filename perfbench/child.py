"""One timed realchar invocation in a fresh interpreter.

Usage: python child.py SRC REPORT [--spans PATH] [-- realchar arguments...]

Imports ``realchar.cli`` from the source tree SRC and times the import
(``setup_s``).  Given realchar arguments, it then times ``cli.main`` from
entry to exit, output flushed (``wall_s``).  The command writes to this
process's stdout and stderr as it would from the shell, and its return value
becomes the exit code.  Timings, peak RSS and versions go to the JSON file
REPORT.  With ``--spans``, the public functions of every realchar layer are
traced and the spans written to PATH after the command ends.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    if "--" in argv:
        cut = argv.index("--")
        own, cli_args = argv[:cut], argv[cut + 1 :]
    else:
        own, cli_args = argv, None
    src, report_path = own[0], own[1]
    spans_path = own[own.index("--spans") + 1] if "--spans" in own else None

    sys.path.insert(0, src)
    started = time.perf_counter()
    import realchar.cli as cli

    imported = time.perf_counter()
    origin = os.path.realpath(cli.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"realchar was imported from {origin}, not from {src}")

    tracer = None
    if spans_path is not None:
        from run import traced_functions
        from spans import Tracer

        tracer = Tracer()
        tracer.install(traced_functions())

    code = None
    wall = None
    if cli_args is not None:
        entered = time.perf_counter()
        code = cli.main(cli_args)
        sys.stdout.flush()
        wall = time.perf_counter() - entered
    if tracer is not None:
        tracer.dump(spans_path)

    report = {
        "setup_s": imported - started,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "backend": getattr(sys.modules["realchar"], "BACKEND", None),
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code or 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
