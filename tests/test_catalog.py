from __future__ import annotations

import hashlib

import pytest
from oracle import grp_text, perm, point_stabilizer

from realchar.catalog import (
    _NAMED,
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

# name -> (spec name, degree, first 16 hex digits of the sha256 of the
# repr of the list of generator images): every catalog group, the default
# corpus and the groups of perfbench/run.py
GENERATORS = {
    "Q8": ("Q8", 8, "8cd8b025ebf80b06"),
    "SL2_5": ("SL2_5", 24, "5e8c159404904de4"),
    "SL2_5oC4": ("SL2_5oC4", 48, "15b59b253535b458"),
    "aff16_A5": ("aff16_A5", 16, "82f7be9f23c0dfcb"),
    "aff64_L2_8": ("aff64_L2_8", 64, "81d351e357239463"),
    "C1": ("C1", 1, "78fce9491f4b0e3b"),
    "C4": ("C4", 4, "958bf4cb7d57a88a"),
    "C7": ("C7", 7, "05d90eea7e936e90"),
    "D6": ("D6", 3, "7d879c5cd049a7dd"),
    "D8": ("D8", 4, "06a6b3d0b298c9cb"),
    "D10": ("D10", 5, "de9649d25619a7bc"),
    "S1": ("S1", 1, "78fce9491f4b0e3b"),
    "S2": ("S2", 2, "fcbd8f2ee97e86ea"),
    "S3": ("S3", 3, "5b314b93e9e75a98"),
    "S5": ("S5", 5, "da0eb44fd6051101"),
    "A3": ("A3", 3, "ce08a88dc53889ae"),
    "A4": ("A4", 4, "7b50f7e4b94a15ef"),
    "A5": ("A5", 5, "11b8b6c13a3f6951"),
    "A6": ("A6", 6, "e5157bb2192699de"),
    "A7": ("A7", 7, "3f34aa670544f2b9"),
    "A8": ("A8", 8, "340388fd58d681b2"),
    "L2_4": ("L2_4", 5, "ca2d3ff261bd5188"),
    "L2_5": ("L2_5", 6, "8317cdaafdcbb9c6"),
    "L2_7": ("L2_7", 8, "8fef36108322f911"),
    "L2_8": ("L2_8", 9, "2e73de4a51b0bd04"),
    "L2_9": ("L2_9", 10, "51e3c2789b439ca5"),
    "L2_17": ("L2_17", 18, "a6315510638dcb03"),
    "A5xC3": ("A5xC3", 8, "3a4ce932b5a8f9f8"),
    "A5xC4": ("A5xC4", 9, "e8cee4559d2ef7d9"),
    "A5xQ8": ("A5xQ8", 13, "f3ebb00b79f694fc"),
    "Q8xC3": ("Q8xC3", 11, "a0b57df067033ddb"),
    "C4xC4xC4": ("C4xC4xC4", 12, "ad9932caa02aecbc"),
    "Q8xD8xC3": ("Q8xD8xC3", 15, "f2718bd48b02b0aa"),
}

# the other spellings of a name, each resolving to the same generators
SPELLINGS = {
    "SL2_5": ("SL2(5)",),
    "SL2_5oC4": ("SL2x5circC4", "SmallGroup(240,93)"),
    "aff16_A5": ("aff_2_4_a5", "2^4:A5"),
    "aff64_L2_8": ("aff_2_6_l2_8", "2^6:L2_8"),
    **{f"L2_{q}": (f"PSL2_{q}", f"L2({q})", f"PSL2({q})") for q in (4, 5, 7, 8, 9, 17)},
}


class TestFields:
    @pytest.mark.parametrize("q", [4, 8, 9, 5, 7, 17, 19])
    def test_field_axioms(self, q):
        f = SmallField(q)
        add, mul = f.add_table, f.mul_table
        for a in range(q):
            assert add[a][0] == a and mul[a][1] == a
            assert add[a][f.neg_table[a]] == 0
            if a:
                assert mul[a][f.inv_table[a]] == 1
        for a in range(q):
            for b in range(q):
                assert add[a][b] == add[b][a]
                assert mul[a][b] == mul[b][a]
        # distributivity, spot-checked
        for a in range(0, q, 2):
            for b in range(q):
                for c in range(0, q, 3):
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]

    def test_gf8_uses_cubic_modulus(self):
        f = SmallField(8)
        # w^3 = w + 1 under x^3 + x + 1
        w = 2
        assert f.mul_table[f.mul_table[w][w]][w] == f.add_table[w][1]

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
        assert f.mul_table[w][w] == f.neg_table[1]


class TestGenerators:
    @pytest.mark.parametrize(
        "name, canonical",
        [(name, name) for name in GENERATORS]
        + [(other, name) for name, others in SPELLINGS.items() for other in others],
    )
    def test_pinned(self, name, canonical):
        spec = resolve(name)
        images = repr([gen.images for gen in spec.generators]).encode()
        digest = hashlib.sha256(images).hexdigest()[:16]
        assert (spec.name, spec.degree, digest) == GENERATORS[canonical]

    def test_cover_the_corpus(self):
        assert {entry.name for entry in default_corpus()} <= GENERATORS.keys()

    def test_cover_every_named_group_at_its_degree(self):
        pinned = GENERATORS.keys() | {other for others in SPELLINGS.values() for other in others}
        assert _NAMED.keys() <= pinned
        for name, (_, degree) in _NAMED.items():
            assert resolve(name).degree == degree


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
        at_limit = (
            "C5000xD10000",
            f"S{MAX_GRP_DEGREE}",
            f"D{2 * MAX_GRP_DEGREE}",
            f"C{MAX_GRP_DEGREE - 82}xL2_17xaff64_L2_8",
        )
        for name in at_limit:
            assert resolve(name).degree == MAX_GRP_DEGREE
        over = (
            "C5000xD10002",
            "C6000 x C6000",
            f"A{MAX_GRP_DEGREE + 1}",
            f"D{2 * MAX_GRP_DEGREE + 2}",
            # an L2 name counts its q + 1 points
            f"L2_{MAX_GRP_DEGREE}",
            f"C{MAX_GRP_DEGREE - 10}xL2_17",
            # and a named group its own points
            f"C{MAX_GRP_DEGREE - 10}xaff64_L2_8",
            "x".join(["aff64_L2_8"] * 160),
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
