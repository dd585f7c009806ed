from __future__ import annotations

import sys
from functools import lru_cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from realchar.catalog import resolve
from realchar.perm import GroupElements, enumerate_group


@lru_cache(maxsize=None)
def _group(name: str) -> GroupElements:
    return enumerate_group(resolve(name))


@lru_cache(maxsize=None)
def _oracle(name: str):
    from oracle import character_table, perm

    g = _group(name)
    return character_table([perm(g, i).images for i in range(g.order)])


@pytest.fixture(scope="session")
def group():
    """Factory fixture: cached enumerated catalog groups."""
    return _group


@pytest.fixture(scope="session")
def oracle_table():
    """Factory fixture: cached independent brute-force character tables."""
    return _oracle
