"""The commands' pipeline for the tests, one stage at a time: group ->
``ClassData`` -> ``ModPTable`` -> ``StructureReport`` -> verdict, lemmas and
report.  Each helper runs the stages before its own on an enumerated group
and passes their results on, as ``realchar.cli`` does; a test that bends one
stage calls the next one in ``realchar`` itself with the bent value.

A group's classes are swept once here and kept for the session (the groups
of the ``group`` fixture are kept too), and its tables are memoized on the
group by ``compute_table``.
"""

from __future__ import annotations

from functools import lru_cache

from realchar.chartab import ModPTable, compute_table
from realchar.classify import (
    Report,
    Verdict,
    build_report,
    classification_verdict,
    consistency_suite,
)
from realchar.perm import ClassData, GroupElements, conjugacy_classes
from realchar.structure import (
    DEFAULT_LATTICE_CAP,
    NormalLattice,
    StructureReport,
    analyze,
    normal_subgroups,
)


@lru_cache(maxsize=None)
def classes_of(g: GroupElements) -> ClassData:
    return conjugacy_classes(g)


def table_of(g: GroupElements) -> ModPTable:
    return compute_table(g, classes_of(g))


def lattice_of(g: GroupElements, cap: int = DEFAULT_LATTICE_CAP) -> NormalLattice:
    return normal_subgroups(classes_of(g), table_of(g), cap)


def structure_of(g: GroupElements, cap: int = DEFAULT_LATTICE_CAP) -> StructureReport:
    return analyze(classes_of(g), table_of(g), cap)


def verdict_of(g: GroupElements) -> Verdict:
    return classification_verdict(classes_of(g), table_of(g), structure_of(g))


def lemmas_of(g: GroupElements) -> dict[str, bool]:
    return consistency_suite(classes_of(g), table_of(g), structure_of(g))


def report_of(name: str, g: GroupElements) -> Report:
    return build_report(name, classes_of(g), table_of(g), DEFAULT_LATTICE_CAP)
