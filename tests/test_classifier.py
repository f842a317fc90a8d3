import pytest

from biquot.groups import SU, Sp, G2, parse_group, max_degree
from biquot.weights import su2_homs, su2_power_rep
from biquot.freeness import GroupFactor, TwoSidedAction, is_free, \
    brute_force_free
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
    assert len(results) == 16
    assert [(p.left_label, p.right_label) for p in free] \
        == [("2V1", "V2+2C"), ("V1+V2", "4C")]
    assert all(str(p.pi3) == "0" and p.mode == "SU(2)^2" for p in free)
    # actions free only modulo a trivially acting SU(2) factor or circle
    # are excluded from the free list: exactly those with a rank-1 kernel
    effective = [(p.left_label, p.right_label) for p in results
                 if not p.free and p.witness_order is None]
    assert effective == [("S3V1", "4C"), ("2V1", "V1+2C"), ("2V1", "4C"),
                         ("V1+2C", "4C")]
    classes = {r.label: r for r in su2_homs(Sp(4), 2)}
    classes["4C"] = su2_power_rep([(0, 0)] * 4)
    for left, right in effective:
        v = is_free(TwoSidedAction(2, [GroupFactor(classes[left].weights,
                                                   classes[right].weights)]))
        assert v.free and len(v.kernel.basis) == 1
    assert all(p.witness_order for p in results if not p.free
               and (p.left_label, p.right_label) not in effective)


def test_sp4_doubled_pair_not_free_with_oracle():
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
    assert [(e.added, e.removed, e.homogeneous) for e in classes["S^4"]] \
        == [((4,), (2,), False), ((4,), (2,), True)]
    exotic = classes["Sp(4)//(V+2C|2V)"][0]
    assert not exotic.homogeneous
    assert (exotic.dim, exotic.added, exotic.removed) == (7, (4,), ())
    g2 = classes["G2//(S2V+2V|2S2V+C)"][0]
    assert (g2.dim, g2.added, g2.removed) == (11, (6,), ())


def test_rhs_search_smaller_dims():
    classes = rhs_manifold_classes(rhs_search(7))
    assert set(classes) == {"S^3", "S^4", "S^5", "S^6", "S^7", "UT(S^4)",
                            "Wu^5", "Berger^7", "Sp(4)//(V+2C|2V)"}
    with pytest.raises(ValueError):
        rhs_search(2)
