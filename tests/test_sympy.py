"""Cross-check against sympy's ``PermutationGroup``, an independent
implementation: order, class sizes, solvability, the order of the last
derived term and the order of the centre.  The same drawn groups also check
the theorem's properties: never a Violation, L1-L4 always hold, K's label
agrees with the element-level recognizer, and a CaseI or CaseII group has the
products the verdict claims."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import case_shape_holds, center, class_elements, recognize, subgroup_elements
from stages import classes_of, report_of, structure_of
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup

from realchar.catalog import resolve
from realchar.classify import CASE_I, CASE_II, VIOLATION
from realchar.perm import GroupSpec, Permutation, direct_product, enumerate_group


@st.composite
def two_generator_spec(draw):
    degree = draw(st.integers(min_value=2, max_value=8))
    points = list(range(degree))
    gens = tuple(Permutation(tuple(draw(st.permutations(points)))) for _ in range(2))
    return GroupSpec(degree, gens, "random")


def _assert_matches_sympy(spec: GroupSpec) -> None:
    g = enumerate_group(spec)
    sg = PermutationGroup([SympyPermutation(list(p.images)) for p in spec.generators])
    assert g.order == sg.order()
    cd = classes_of(g)
    sizes = sorted(len(class_elements(cd, 1 << c)) for c in range(cd.k))
    assert sizes == sorted(len(c) for c in sg.conjugacy_classes())
    rep = structure_of(g)
    assert rep.is_solvable == sg.is_solvable
    k = class_elements(cd, rep.k)
    assert len(k) == rep.lattice.orders[rep.k] == sg.derived_series()[-1].order()
    assert len(center(g)) == sg.center().order()
    report = report_of(spec.name, g)
    assert report.verdict != VIOLATION
    assert report.lemmas == {"L1": True, "L2": True, "L3": True, "L4": True}
    assert rep.k_label == recognize(subgroup_elements(g, k, "K"))
    if report.verdict in (CASE_I, CASE_II):
        assert case_shape_holds(g, rep, report.verdict)


@given(spec=two_generator_spec())
@settings(max_examples=25, deadline=None)
def test_random_groups_and_their_products_with_a5(spec):
    # S8, of order 40320, is the largest group on 8 points: no drawn group
    # exceeds this cap
    order = enumerate_group(spec, cap=40320).order
    sg = PermutationGroup([SympyPermutation(list(p.images)) for p in spec.generators])
    assert order == sg.order()
    if order > 2520:
        return
    _assert_matches_sympy(spec)
    if order <= 84:
        _assert_matches_sympy(direct_product(spec, resolve("A5")))
