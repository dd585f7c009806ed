from __future__ import annotations

import pytest
from oracle import grp_text, perm, point_stabilizer

from realchar.catalog import (
    MAX_GRP_DEGREE,
    SmallField,
    default_corpus,
    parse_grp,
    parse_manifest,
    psl2,
    resolve,
)
from realchar.errors import ParseError, StructureError
from realchar.perm import conjugacy_classes, enumerate_group

EXPECTED_ORDERS = {
    "A5": 60,
    "A6": 360,
    "S3": 6,
    "S5": 120,
    "Q8": 8,
    "C4": 4,
    "D8": 8,
    "L2_4": 60,
    "L2_5": 60,
    "L2_7": 168,
    "L2_8": 504,
    "L2_9": 360,
    "L2_17": 2448,
    "SL2_5": 120,
    "SL2_5oC4": 240,
    "aff16_A5": 960,
    "A5xC3": 180,
    "A5xC4": 240,
    "A5xQ8": 480,
    "Q8xC3": 24,
}


class TestFields:
    @pytest.mark.parametrize("q", [4, 8, 9, 5, 7, 17, 19])
    def test_field_axioms(self, q):
        f = SmallField(q)
        for a in range(q):
            assert f.add(a, 0) == a and f.mul(a, 1) == a
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
        for a in range(q):
            for b in range(q):
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
        # distributivity, spot-checked
        for a in range(0, q, 2):
            for b in range(q):
                for c in range(0, q, 3):
                    lhs = f.mul(a, f.add(b, c))
                    rhs = f.add(f.mul(a, b), f.mul(a, c))
                    assert lhs == rhs

    def test_gf8_uses_cubic_modulus(self):
        f = SmallField(8)
        # w^3 = w + 1 under x^3 + x + 1
        w = 2
        assert f.mul(f.mul(w, w), w) == f.add(w, 1)

    @pytest.mark.parametrize("q", [25, 27])
    def test_prime_power_without_a_modulus(self, q):
        with pytest.raises(StructureError, match=rf"no modulus for GF\({q}\)"):
            SmallField(q)

    @pytest.mark.parametrize("q", [0, 1, 6, 35])
    def test_not_a_prime_power(self, q):
        with pytest.raises(StructureError, match=f"^{q} is not a prime power"):
            SmallField(q)

    def test_gf9_modulus(self):
        f = SmallField(9)
        # w^2 = -1 under x^2 + 1
        w = 3
        assert f.mul(w, w) == f.neg(1)


class TestMakers:
    @pytest.mark.parametrize("name,order", sorted(EXPECTED_ORDERS.items()))
    def test_orders(self, name, order):
        assert enumerate_group(resolve(name)).order == order

    def test_make_entry_points(self):
        assert enumerate_group(resolve("L2_8")).order == 504
        assert enumerate_group(resolve("SL2_5")).order == 120
        assert enumerate_group(resolve("aff_2_4_a5")).order == 960
        assert enumerate_group(resolve("C7")).order == 7

    def test_aliases(self):
        for alias in ("SL2x5circC4", "SmallGroup(240,93)", "SL2_5oC4"):
            assert enumerate_group(resolve(alias)).order == 240
        for alias in ("L2(8)", "PSL2(8)", "PSL2_8", "L2_8"):
            assert enumerate_group(resolve(alias)).order == 504

    def test_unknown_name(self):
        with pytest.raises(StructureError):
            resolve("M11")

    def test_unsupported_q(self):
        with pytest.raises(StructureError):
            psl2(11)
        with pytest.raises(StructureError):
            resolve("SL2(7)")

    def test_name_degree_limit(self):
        # the limit of a .grp file holds for names too, products included
        for name in ("C5000xD10000", f"S{MAX_GRP_DEGREE}", f"D{2 * MAX_GRP_DEGREE}"):
            assert resolve(name).degree == MAX_GRP_DEGREE
        over = (
            "C5000xD10002",
            "C6000 x C6000",
            f"A{MAX_GRP_DEGREE + 1}",
            f"D{2 * MAX_GRP_DEGREE + 2}",
        )
        for name in over:
            with pytest.raises(StructureError, match="over the limit"):
                resolve(name)

    def test_determinism(self):
        a = resolve("L2_8")
        b = resolve("L2_8")
        assert a.generators == b.generators

    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 17])
    def test_psl2_two_transitive(self, q):
        g = enumerate_group(psl2(q))
        assert g.degree == q + 1
        stab = point_stabilizer(g, q)
        assert len(stab) * (q + 1) == g.order
        # the stabilizer moves the remaining points in one orbit
        orbit = {0}
        changed = True
        while changed:
            changed = False
            for x in stab:
                for pt in list(orbit):
                    img = perm(g, x).images[pt]
                    if img not in orbit:
                        orbit.add(img)
                        changed = True
        assert orbit == set(range(q))

    def test_products_multiply_class_counts(self, group):
        cd = conjugacy_classes(group("A5xQ8"))
        assert cd.k == 25


class TestCorpus:
    def test_every_entry_constructs_at_its_order(self, group):
        for entry in default_corpus():
            assert group(entry.name).order == entry.expected_order

    def test_contains_the_named_groups(self):
        names = {e.name for e in default_corpus()}
        required = {
            "A5", "S5", "A6", "L2_7", "L2_8", "L2_17", "SL2_5", "SL2_5oC4",
            "A5xC3", "A5xC4", "A5xQ8", "aff16_A5", "Q8xC3", "S3", "Q8", "C4", "D8",
        }
        assert required <= names

    def test_expected_metadata(self):
        by_name = {e.name: e for e in default_corpus()}
        assert by_name["SL2_5oC4"].expected_order == 240
        assert by_name["aff16_A5"].expected_order == 960
        assert by_name["A6"].expected_order == 360

    def test_manifest_parsing(self):
        text = "A5  # the smallest\n\n# comment line\nL2_8\n"
        assert parse_manifest(text) == ["A5", "L2_8"]


class TestGrpFormat:
    def test_s3(self):
        spec = parse_grp("degree 3\n(1,2)\n(1,2,3)\n")
        g = enumerate_group(spec)
        assert g.order == 6

    def test_trivial(self):
        spec = parse_grp("degree 1\n()\n")
        assert enumerate_group(spec).order == 1

    def test_comments_and_blanks(self):
        text = "# a group\ndegree 4 # with degree\n\n(1,2)(3,4)\n"
        spec = parse_grp(text)
        assert enumerate_group(spec).order == 2

    def test_point_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse_grp("degree 3\n(1,4)\n")
        assert err.value.line == 2

    def test_duplicate_point(self):
        with pytest.raises(ParseError):
            parse_grp("degree 4\n(1,2)(2,3)\n")

    def test_malformed_cycle(self):
        with pytest.raises(ParseError):
            parse_grp("degree 3\n(1,b)\n")
        with pytest.raises(ParseError):
            parse_grp("degree 3\n(1,2\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_grp("(1,2)\n")

    def test_degree_cap(self):
        # text only: the cap is checked before any images are allocated
        for degree in (MAX_GRP_DEGREE + 1, 10**18):
            with pytest.raises(ParseError) as err:
                parse_grp(f"# huge\ndegree {degree}\n(1,2)\n")
            assert err.value.line == 2
        spec = parse_grp(f"degree {MAX_GRP_DEGREE}\n({MAX_GRP_DEGREE - 1},{MAX_GRP_DEGREE})\n")
        assert spec.degree == MAX_GRP_DEGREE

    def test_round_trip(self):
        spec = resolve("S5")
        again = parse_grp(grp_text(spec), name="S5")
        assert again.generators == spec.generators
        assert again.degree == spec.degree
