"""The benchmark's golden outputs, byte for byte, in process.

``perfbench/golden/`` holds the stdout of ``realchar scan --machine`` and of
``realchar table`` for three groups at seed 0.  Tables, verdicts and the
machine scan are meant never to change, so every change to the library must
reproduce these files exactly, at any seed: the seed changes what the split
draws, and the table sorts its rows.  The files are only read here.
"""

from __future__ import annotations

import hashlib
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


@pytest.mark.parametrize("seed", [3, 17])
def test_machine_scan_at_other_seeds(seed):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cmd_scan(None, Config(machine=True, rng_seed=seed)) == 0
    assert out.getvalue() == (GOLDEN / "scan_corpus.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", [3, 17])
def test_stretch_table_at_other_seeds(seed):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cmd_table("aff64_L2_8", Config(rng_seed=seed)) == 0
    assert out.getvalue() == (GOLDEN / "aff64_L2_8.txt").read_text(encoding="utf-8")


# sha256 of the stdout of ``realchar table C200`` (146509 bytes, k = 200 and
# p = 401), recorded when the split still ran one elimination per root
C200_SHA256 = "b2c3a93b3324a549c9cc29c274aa5a4ac05f2e118737bec5fbd272103764feaa"


@pytest.mark.parametrize("seed", [0, 3, 17])
def test_cyclic_table(seed):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cmd_table("C200", Config(rng_seed=seed)) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == C200_SHA256
