"""The benchmark's tracer (``perfbench/spans.py``) reads a few names of the
package in its hooks: ``enumerate_group(...).order``, the ``members`` of
``normal_subgroups``, and ``compute_table``'s argument ``g`` with its
``table_cache``.  A rename of any of them would crash or zero a traced run,
so each hook is applied here, through the tracer's own wrapper, to a call of
the real function on a small group.  The tracer is read from its source and
compiled in memory, so nothing is written beside it."""

from __future__ import annotations

import importlib
import types
from pathlib import Path

from realchar.catalog import resolve
from realchar.chartab import compute_table
from realchar.perm import conjugacy_classes, enumerate_group
from realchar.structure import DEFAULT_LATTICE_CAP

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans() -> types.ModuleType:
    module = types.ModuleType("spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def _traced(spans, tracer, name):
    layer, attr = name.split(".")
    return tracer.wrap(name, getattr(importlib.import_module(f"realchar.{layer}"), attr))


def test_every_hook_reads_the_real_functions():
    spans = _spans()
    assert set(spans.AFTER) | set(spans.BEFORE) == {
        "perm.enumerate_group",
        "structure.normal_subgroups",
        "chartab.compute_table",
    }
    tracer = spans.Tracer()
    g = _traced(spans, tracer, "perm.enumerate_group")(resolve("S4"))
    other = enumerate_group(resolve("S4"))
    other_cd = conjugacy_classes(other)
    lattice = _traced(spans, tracer, "structure.normal_subgroups")(
        other_cd, compute_table(other, other_cd), DEFAULT_LATTICE_CAP
    )
    traced_table = _traced(spans, tracer, "chartab.compute_table")
    cd = conjugacy_classes(g)
    traced_table(g, cd)
    traced_table(g, cd, seed=0)
    extras = [extra for _, _, _, _, extra in tracer.spans]
    # S4 has 24 elements and 4 normal subgroups; the second table is a memo hit
    assert extras == [24, 4, 0, 1]
    assert len(lattice) == 4
