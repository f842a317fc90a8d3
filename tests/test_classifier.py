import pytest

from biquot.groups import SU, Sp, G2, parse_group, max_degree
from biquot.classifier import (
    rank1_two_sided_search, sp4_su2squared_search, rhs_search,
    rhs_manifold_classes, finiteness_bounds, candidate_g_factors,
)


# -- searches ---------------------------------------------------------------------


def test_rank1_results():
    results, free = rank1_two_sided_search(SU(3))
    assert free == [] and len(results) == 1
    results, free = rank1_two_sided_search(Sp(4))
    assert [(p.left_label, p.right_label) for p in free] == [("V+2C", "2V")]
    orders = {(p.left_label, p.right_label): p.witness_order
              for p in results if not p.free}
    assert orders == {("V+2C", "S3V"): 3, ("2V", "S3V"): 4}
    results, free = rank1_two_sided_search(G2)
    assert [(p.left_label, p.right_label) for p in free] \
        == [("S2V+2V", "2S2V+C")]
    orders = {(p.left_label, p.right_label): p.witness_order
              for p in results if not p.free}
    assert orders == {("2V+3C", "S2V+2V"): 2, ("2V+3C", "2S2V+C"): 3,
                      ("2V+3C", "S6V"): 3, ("S2V+2V", "S6V"): 5,
                      ("2S2V+C", "S6V"): 3}
    modes = {(p.left_label, p.right_label): p.mode for p in results}
    assert modes[("2S2V+C", "S6V")] == "SO(3)"
    with pytest.raises(ValueError):
        rank1_two_sided_search(Sp(6))


def test_sp4_su2squared_search():
    results, free = sp4_su2squared_search()
    pairs = sorted(r["pair"] for r in free)
    assert pairs == [("2V1", "V2+2C"), ("V1+V2", "4C")]
    assert all(str(r["pi3"]) == "0" for r in free)
    # actions free only through a quotient are excluded from the free list
    assert any(r["effective_free"] and not r["genuine_su2xsu2"]
               for r in results)


def test_sp4_doubled_pair_not_free_with_oracle():
    from biquot.freeness import GroupFactor, TwoSidedAction, is_free, \
        brute_force_free
    act = TwoSidedAction(2, [GroupFactor(
        [(1, 0), (-1, 0), (1, 0), (-1, 0)],
        [(0, 1), (0, -1), (0, 1), (0, -1)])])
    v = is_free(act)
    assert not v.free
    b = brute_force_free(act, 12)
    assert b.found_witness and b.witness_order == v.witness_order == 3


def test_finiteness_bounds():
    assert finiteness_bounds(7) == {"max_factors": 7, "max_degree": 14,
                                    "max_pi_odd": 7}
    assert finiteness_bounds(2)["max_factors"] == 2
    with pytest.raises(ValueError):
        finiteness_bounds(1)


def test_candidate_factors_finite_and_bounded():
    cands = candidate_g_factors(11)
    assert all(max_degree(g) <= 22 for g in cands)
    assert parse_group("E7") in cands
    assert parse_group("E8") not in cands  # top degree 30 > 22
    assert SU(22) in cands and SU(23) not in cands
    n7 = candidate_g_factors(7)
    assert parse_group("F4") in n7 and parse_group("E6") in n7
    assert parse_group("E7") not in n7


def test_rhs_search_presentation_counts():
    classes = rhs_manifold_classes(rhs_search(16))
    # several classical presentations of the same sphere collapse
    assert len(classes["S^15"]) == 4
    assert len(classes["S^7"]) == 4
    assert len(classes["UT(S^6)"]) == 2  # one of them lives on G2
    assert {e.presentation for e in classes["UT(S^6)"]} \
        == {"Spin(7)/Sp(4) via standard inclusion",
            "G2/SU(2) via 2V+3C"}
    assert len(classes["S^4"]) == 2
    exotic = classes["Sp(4)//(V+2C|2V)"][0]
    assert not exotic.homogeneous


def test_rhs_search_smaller_dims():
    classes = rhs_manifold_classes(rhs_search(7))
    assert set(classes) == {"S^3", "S^4", "S^5", "S^6", "S^7", "UT(S^4)",
                            "Wu^5", "Berger^7", "Sp(4)//(V+2C|2V)"}
    with pytest.raises(ValueError):
        rhs_search(2)
