from collections import Counter
from itertools import islice

import pytest

from biquot import refchecks
from biquot.groups import (
    SU, Sp, Spin, G2, F4, E6, E7, E8, SimpleGroupId, parse_group,
    degrees_of, group_dimension, max_degree, index_norm,
    UnsupportedGroupError,
    CatalogEntry, CatalogRule, catalog_rules, homogeneous_catalog,
    catalog_lookup,
)


def test_constructors_and_aliases():
    assert SU(4) == SimpleGroupId("A", 3)
    assert Sp(4) == SimpleGroupId("C", 2)
    assert Spin(9) == SimpleGroupId("B", 4)
    assert Spin(10) == SimpleGroupId("D", 5)
    # low-rank isogenies redirect
    assert Spin(3) == SU(2) == Sp(2)
    assert Spin(5) == Sp(4)
    assert Spin(6) == SU(4)
    with pytest.raises(ValueError):
        Spin(4)
    with pytest.raises(ValueError):
        SimpleGroupId("D", 3)
    with pytest.raises(ValueError):
        SimpleGroupId("G2", 3)
    with pytest.raises(ValueError, match="^E7 has fixed rank 7$"):
        SimpleGroupId("E7", 6)
    with pytest.raises(ValueError, match="^unknown family 'X'$"):
        SimpleGroupId("X", 1)


def test_parse_group():
    assert parse_group("SU(3)") == SU(3)
    assert parse_group("Sp4") == Sp(4)
    assert parse_group("Spin(11)") == Spin(11)
    assert parse_group("G2") == G2
    assert parse_group("B3") == Spin(7)
    with pytest.raises(ValueError):
        parse_group("SO(5)")


@pytest.mark.parametrize("gid,expected", [
    (SU(2), (2,)),
    (SU(4), (2, 3, 4)),
    (SU(8), (2, 3, 4, 5, 6, 7, 8)),
    (Spin(7), (2, 4, 6)),
    (Sp(6), (2, 4, 6)),
    (Spin(8), (2, 4, 4, 6)),
    (Spin(12), (2, 4, 6, 6, 8, 10)),
    (G2, (2, 6)),
    (F4, (2, 6, 8, 12)),
    (E6, (2, 5, 6, 8, 9, 12)),
    (E7, (2, 6, 8, 10, 12, 14, 18)),
    (E8, (2, 8, 12, 14, 18, 20, 24, 30)),
])
def test_degree_table(gid, expected):
    assert degrees_of(gid) == expected


def test_every_group_has_one_degree_two():
    ids = [SimpleGroupId(f, l) for f, lo in (("A", 1), ("B", 3), ("C", 2),
                                             ("D", 4)) for l in range(lo, 9)]
    ids += [G2, F4, E6, E7, E8]
    for gid in ids:
        assert degrees_of(gid).count(2) == 1


def test_max_degree_conventions():
    assert max_degree(SU(5)) == 5
    assert max_degree(Spin(9)) == 8
    assert max_degree(Sp(8)) == 8
    assert max_degree(Spin(12)) == 10  # 2l - 2 with the extra degree l = 6
    assert degrees_of(Spin(12)).count(6) == 2


def test_bc_degree_coincidence_distinct_profiles():
    b, c = Spin(11), Sp(10)
    assert degrees_of(b) == degrees_of(c)
    assert b != c
    assert index_norm(b) != index_norm(c)


def test_degrees_injective_apart_from_bc():
    ids = [SimpleGroupId(f, l) for f, lo in (("A", 1), ("B", 3), ("C", 2),
                                             ("D", 4)) for l in range(lo, 9)]
    seen = {}
    for gid in ids:
        key = degrees_of(gid)
        if key in seen:
            pair = sorted([seen[key].family, gid.family])
            assert pair == ["B", "C"] and seen[key].rank == gid.rank
        else:
            seen[key] = gid


def test_profiles_mark_unavailable_weight_data():
    for gid in (F4, E6, E7, E8):
        with pytest.raises(UnsupportedGroupError,
                           match="^no weight data for %s$" % gid):
            index_norm(gid)
    assert index_norm(G2) == 2
    assert index_norm(Spin(9)) == 2


def test_catalog_degree_bookkeeping_everywhere():
    for rule in catalog_rules():
        indices = set()
        for entry in islice(rule.entries(), 5):
            g = Counter(degrees_of(entry.g))
            g.subtract(Counter(degrees_of(entry.h)))
            signed = Counter(entry.degrees_added)
            signed.subtract(Counter(entry.degrees_removed))
            assert {d: m for d, m in g.items() if m} \
                == {d: m for d, m in signed.items() if m}
            indices.add(entry.dynkin_index)
        # one index per row type: the check catalog-index-column pins it
        # at the first n only
        assert len(indices) == 1, rule.key


def test_catalog_rule_entries_walk_n_upward():
    rules = {r.key: r for r in catalog_rules()}
    fixed = rules["G2/SU(3)"]
    assert fixed.min_n is None
    assert list(fixed.entries()) == [fixed.make()]
    family = rules["SU(n)/SU(n-1)"]
    assert list(islice(family.entries(), 4)) \
        == [family.make(n) for n in range(family.min_n, family.min_n + 4)]
    assert [e.g for e in islice(family.entries(), 3)] == [SU(3), SU(4), SU(5)]


def test_catalog_bookkeeping_check_names_an_off_catalog_row(monkeypatch):
    # SU(3) in SU(6) drops G's top degree 6 and tops out at 3 < 5
    off = CatalogRule("SU(6)/SU(3)", lambda: CatalogEntry(
        SU(6), SU(3), "standard inclusion", 1, "finite-by-A1"))
    check = dict(refchecks.CHECKS)["catalog-degree-bookkeeping"]
    assert check() == (True, "")
    monkeypatch.setattr(refchecks, "catalog_rules",
                        lambda: catalog_rules() + [off])
    assert check() == (False, "SU(6)/SU(3): SU(6)/SU(3)")


@pytest.mark.parametrize("bound", [14, 60, 77, 150])
def test_catalog_rows_respect_the_dimension_bound(bound):
    rows = homogeneous_catalog(bound)
    assert rows and all(group_dimension(e.g) <= bound for e in rows)


def test_spin_rep_rows_disambiguated_from_vector_chain():
    spin15 = catalog_lookup(Spin(9), Spin(7), "spin rep")
    ut8 = [e for e in homogeneous_catalog(60)
           if e.g == Spin(9) and e.h == Spin(7)
           and e.hom_descriptor == "standard inclusion"]
    assert spin15 and spin15[0].quotient_name == "S^15"
    assert ut8 and ut8[0].quotient_name == "UT(S^8)"
    # the two classes differ as catalog rows even with equal ledger columns
    assert spin15[0].hom_descriptor != ut8[0].hom_descriptor


def test_quotient_dimensions():
    e = catalog_lookup(Sp(4), SU(2), "S3V")[0]
    assert e.dimension_of_quotient() == 7
    cap2 = catalog_lookup(F4, Spin(9))[0]
    assert cap2.dimension_of_quotient() == 16
