"""The benchmark's golden outputs, byte for byte, in process.

``perfbench/golden/`` holds the stdout of ``realchar scan --machine`` and of
``realchar table`` for three groups at seed 0.  Tables, verdicts and the
machine scan are meant never to change, so every change to the library must
reproduce these files exactly.  The files are only read here.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from realchar.cli import Config, cmd_scan, cmd_table

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def test_machine_scan():
    out = io.StringIO()
    with redirect_stdout(out):
        assert cmd_scan(None, Config(machine=True)) == 0
    assert out.getvalue() == (GOLDEN / "scan_corpus.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["aff64_L2_8", "C4xC4xC4", "Q8xD8xC3"])
def test_table(name):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cmd_table(name, Config()) == 0
    assert out.getvalue() == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
