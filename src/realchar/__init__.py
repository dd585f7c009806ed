"""Exact character tables of finite permutation groups, with a verdict engine
for the classification of non-solvable groups whose real irreducible character
degrees are all prime powers."""

from .perm import (
    ClassData,
    GroupElements,
    GroupSpec,
    Permutation,
    conjugacy_classes,
    direct_product,
    enumerate_group,
)
from .chartab import (
    CycloValue,
    ExactTable,
    ModPTable,
    compute_table,
    exact_table,
    real_degree_set,
    row_indicators,
    row_kernels,
    row_real_flags,
)
from .classify import (
    Report,
    Verdict,
    build_report,
    classification_verdict,
    consistency_suite,
    prime_power_set,
)
from .structure import (
    NormalLattice,
    StructureReport,
    analyze,
    normal_subgroups,
)

__version__ = "0.1.0"

__all__ = [
    "ClassData",
    "CycloValue",
    "ExactTable",
    "GroupElements",
    "GroupSpec",
    "ModPTable",
    "NormalLattice",
    "Permutation",
    "Report",
    "StructureReport",
    "Verdict",
    "analyze",
    "build_report",
    "classification_verdict",
    "compute_table",
    "conjugacy_classes",
    "consistency_suite",
    "direct_product",
    "enumerate_group",
    "exact_table",
    "normal_subgroups",
    "prime_power_set",
    "real_degree_set",
    "row_indicators",
    "row_kernels",
    "row_real_flags",
    "__version__",
]
