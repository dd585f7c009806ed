"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Every tolerance here is exact: the toolkit computes over GF(p) and cyclotomic
integers, so expected values are integers and set equalities.  Independent
oracles (tests/oracle.py) confirm the frozen constants before they are
asserted against the library.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import pytest
from _chartab_py import is_rational
from oracle import (
    class_elements,
    conj,
    coset_action,
    degree_set_conclusion,
    derived_series_limit,
    exact_orthogonality,
    inv,
    mul,
    order_of,
    point_stabilizer,
    recognize,
    subgroup_center,
    subgroup_closure,
)

from realchar.catalog import default_corpus
from realchar.chartab import (
    compute_table,
    exact_table,
    real_degree_set,
    verify_orthogonality,
)
from realchar.classify import (
    CASE_I,
    CASE_II,
    VIOLATION,
    classification_verdict,
    consistency_suite,
)
from realchar.perm import conjugacy_classes
from realchar.structure import analyze


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(number: int, summary: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[criterion {number:02d}] FAIL  {summary}")
            raise
        with capsys.disabled():
            print(f"[criterion {number:02d}] PASS  {summary}")

    return _criterion


def _table(group, name):
    g = group(name)
    cd = conjugacy_classes(g)
    return g, cd, compute_table(g, cd)


def _dihedral_subgroup(g, rotation_order: int):
    """The subgroup <a, t> with |a| = rotation_order and t inverting a."""
    a = next(x for x in range(g.order) if order_of(g, x) == rotation_order)
    a_inv = inv(g, a)
    t = next(
        x
        for x in range(1, g.order)
        if order_of(g, x) == 2 and conj(g, a, x) == a_inv
    )
    return subgroup_closure(g, {a, t})


def _assert_transitive(spec):
    orbit = {0}
    frontier = [0]
    while frontier:
        pt = frontier.pop()
        for gen in spec.generators:
            nxt = gen.images[pt]
            if nxt not in orbit:
                orbit.add(nxt)
                frontier.append(nxt)
    assert orbit == set(range(spec.degree))


def test_criterion_01_a5(criterion, group, oracle_table):
    with criterion(1, "A5: degrees {1,3,3,4,5}, all real, all indicators +1, CaseI"):
        g, cd, t = _table(group, "A5")
        assert tuple(sorted(t.degrees)) == (1, 3, 3, 4, 5)
        assert all(t.real_flags) and t.k == 5
        assert t.indicators == (1, 1, 1, 1, 1)
        assert sum(d * d for d in t.degrees) == 60
        oracle = oracle_table("A5")
        assert oracle.degree_multiset() == (1, 3, 3, 4, 5)
        assert all(oracle.real_flags) and all(i == 1 for i in oracle.indicators)
        assert classification_verdict(g, cd).kind == CASE_I


def test_criterion_02_l28(criterion, group, oracle_table):
    with criterion(2, "L2(8): oracle-checked degrees, cd_rv {1,7,8,9}, CaseI, branch i"):
        g, cd, t = _table(group, "L2_8")
        oracle = oracle_table("L2_8")
        # the oracle pins the multiset: nine rows, with four characters of
        # degree 7 (the sum of squares leaves no other option at order 504)
        assert oracle.degree_multiset() == (1, 7, 7, 7, 7, 8, 9, 9, 9)
        assert tuple(sorted(t.degrees)) == oracle.degree_multiset()
        assert real_degree_set(t).degrees == (1, 7, 8, 9)
        assert oracle.real_degree_set() == (1, 7, 8, 9)
        verdict = classification_verdict(g, cd)
        assert verdict.kind == CASE_I and verdict.k_label == "L2_8"
        conclusion = degree_set_conclusion(t, verdict)
        assert conclusion.passed and conclusion.branch == "i"


def test_criterion_03_sl25(criterion, group):
    with criterion(3, "SL2(5): HypothesisFails with witness degree 6; recognized"):
        g, cd, t = _table(group, "SL2_5")
        verdict = classification_verdict(g, cd)
        assert verdict.kind == "HypothesisFails"
        assert verdict.witness_degree == 6
        assert t.degrees.count(6) == 1  # the witness row is unique
        assert g.order == 120
        assert recognize(g) == "SL2_5"
        assert analyze(g).k_label == "SL2_5"
        assert len(subgroup_center(g, frozenset(range(120)))) == 2


def test_criterion_04_central_product(criterion, group):
    with criterion(4, "SL2(5)oC4: CaseII with K=SL2_5, |H|=4, K n H = Z(K) < H"):
        g = group("SL2_5oC4")
        assert g.order == 240
        verdict = classification_verdict(g)
        assert verdict.kind == CASE_II
        assert verdict.k_label == "SL2_5"
        assert verdict.h_order == 4
        rep = analyze(g)
        k, h = (class_elements(conjugacy_classes(g), m) for m in (rep.k, rep.o2))
        assert k == derived_series_limit(g)
        zk = subgroup_center(g, k)
        assert k & h == zk
        assert zk < h


def test_criterion_05_affine(criterion, group):
    with criterion(5, "2^4.A5: a real row of degree 15 exists; HypothesisFails"):
        g, cd, t = _table(group, "aff16_A5")
        assert g.order == 960
        rows15 = [r for r in range(t.k) if t.degrees[r] == 15 and t.real_flags[r]]
        assert rows15
        verdict = classification_verdict(g, cd)
        assert verdict.kind == "HypothesisFails"
        assert verdict.witness_degree == 15


def test_criterion_06_a6(criterion, group, oracle_table):
    with criterion(6, "A6: rational irreducible row of degree 10; hypothesis fails"):
        g, cd, t = _table(group, "A6")
        assert g.order == 360
        et = exact_table(t, cd)
        assert any(
            t.degrees[r] == 10 and all(map(is_rational, et.values[r])) for r in range(t.k)
        )
        oracle = oracle_table("A6")
        assert any(
            d == 10 and flag for d, flag in zip(oracle.degrees, oracle.rational_flags)
        )
        assert classification_verdict(g, cd).kind == "HypothesisFails"


def test_criterion_07_s5(criterion, group, oracle_table):
    with criterion(7, "S5: hypothesis fails with a real composite degree 6"):
        g, cd, t = _table(group, "S5")
        verdict = classification_verdict(g, cd)
        assert verdict.kind == "HypothesisFails"
        assert verdict.witness_degree == 6
        assert t.real_flags[verdict.witness_row]
        oracle = oracle_table("S5")
        assert 6 in oracle.real_degree_set()


def test_criterion_08_products(criterion, group, oracle_table):
    with criterion(8, "A5xC3 CaseI O=3; A5xC4 CaseI H=4 Chillag-Mann; A5xQ8 fails at 6"):
        v3 = classification_verdict(group("A5xC3"))
        assert v3.kind == CASE_I and v3.o_order == 3

        g4 = group("A5xC4")
        v4 = classification_verdict(g4)
        assert v4.kind == CASE_I and v4.h_order == 4
        from realchar.structure import analyze, chillag_mann_subgroup

        rep = analyze(g4)
        assert chillag_mann_subgroup(conjugacy_classes(g4), rep.lattice, rep.o2)

        g8, cd8, t8 = _table(group, "A5xQ8")
        v8 = classification_verdict(g8, cd8)
        assert v8.kind == "HypothesisFails" and v8.witness_degree == 6

        # product-table oracle: real degrees of a direct product are the
        # pairwise products of the factors' real degrees
        a5, q8 = oracle_table("A5"), oracle_table("Q8")
        tensor_real = Counter(
            da * db
            for da, ra in zip(a5.degrees, a5.real_flags)
            for db, rb in zip(q8.degrees, q8.real_flags)
            if ra and rb
        )
        lib_real = Counter(
            d for d, r in zip(t8.degrees, t8.real_flags) if r
        )
        assert lib_real == tensor_real
        assert 6 in tensor_real


def test_criterion_09_frobenius_schur_count(criterion, group):
    with criterion(9, "sum of nu(chi) chi(1) equals the involution count, corpus-wide"):
        for entry in default_corpus():
            g = group(entry.name)
            t = compute_table(g, conjugacy_classes(g))
            total = sum(t.indicators[r] * t.degrees[r] for r in range(t.k))
            involutions = sum(1 for x in range(g.order) if mul(g, x, x) == 0)
            assert total == involutions, entry.name


def test_criterion_10_orthogonality(criterion, group):
    with criterion(10, "mod-p orthogonality corpus-wide; exact rows for order <= 1000"):
        for entry in default_corpus():
            g = group(entry.name)
            cd = conjugacy_classes(g)
            t = compute_table(g, cd)
            assert verify_orthogonality(t, cd), entry.name
            if g.order <= 1000:
                assert exact_orthogonality(t, cd, exact_table(t, cd)) == (), entry.name


def test_criterion_11_coset_actions(criterion, group):
    with criterion(11, "maximal-subgroup coset degrees: A5 5/6/10, L2(8) 9/28/36"):
        a5 = group("A5")
        a4 = point_stabilizer(a5, 4)
        assert len(a4) == 12
        d10 = _dihedral_subgroup(a5, 5)
        assert len(d10) == 10
        s3 = _dihedral_subgroup(a5, 3)
        assert len(s3) == 6
        for sub, degree in ((a4, 5), (d10, 6), (s3, 10)):
            spec = coset_action(a5, sub)
            assert spec.degree == degree
            _assert_transitive(spec)

        l28 = group("L2_8")
        f56 = point_stabilizer(l28, 8)
        assert len(f56) == 56
        d18 = _dihedral_subgroup(l28, 9)
        assert len(d18) == 18
        d14 = _dihedral_subgroup(l28, 7)
        assert len(d14) == 14
        for sub, degree in ((f56, 9), (d18, 28), (d14, 36)):
            spec = coset_action(l28, sub)
            assert spec.degree == degree
            _assert_transitive(spec)
        # the order-14 subgroup has index 36; a printed value of 72 would
        # contradict |G| / |H| and is deliberately not matched
        assert 504 // 14 == 36 != 72


def test_criterion_12_suite_and_scan(criterion, group):
    with criterion(12, "L1-L4 pass corpus-wide; default scan has 0 Violations, exit 0"):
        for entry in default_corpus():
            g = group(entry.name)
            results = consistency_suite(g)
            assert all(results.values()), (entry.name, results)
            assert classification_verdict(g).kind != VIOLATION, entry.name

        import io

        from realchar.cli import Config, cmd_scan

        out = io.StringIO()
        code = cmd_scan(None, Config(machine=True), out=out)
        assert code == 0
        assert '"verdict":"Violation"' not in out.getvalue()


def test_criterion_13_determinism(criterion, tmp_path):
    with criterion(13, "two identical machine scans are byte-identical"):
        import io

        from realchar.cli import Config, cmd_scan

        manifest = tmp_path / "names.txt"
        manifest.write_text("A5\nSL2_5\nSL2_5oC4\nQ8xC3\nS5\n")
        config = Config(machine=True, rng_seed=3)
        first, second = io.StringIO(), io.StringIO()
        assert cmd_scan(str(manifest), config, out=first) == 0
        assert cmd_scan(str(manifest), config, out=second) == 0
        assert first.getvalue() == second.getvalue()
        assert len(first.getvalue().splitlines()) == 6
