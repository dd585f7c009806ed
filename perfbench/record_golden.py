"""Record the golden outputs of every benchmark command.

Usage: python3 perfbench/record_golden.py

Runs each command once with realchar's seed 0 and writes its stdout to
perfbench/golden/.  Run it only on a commit whose outputs are known good:
realchar's tables, verdicts and machine scan output are meant never to change.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from run import GOLDEN, ROOT, WORKLOADS, Invoker


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        invoker = Invoker(ROOT / "src", Path(tmp))
        for commands in WORKLOADS.values():
            for command in commands:
                inv = invoker.run((*command.args, "--seed=0"))
                if inv.code != 0:
                    print(f"{' '.join(command.args)} exited {inv.code}:\n{inv.stderr}")
                    return 1
                (GOLDEN / command.golden).write_text(inv.stdout, encoding="utf-8")
                print(f"wrote {command.golden}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
