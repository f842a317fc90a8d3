import json
import random
import time
from fractions import Fraction

import pytest

from biquot.freeness import (
    GroupFactor, SphereFactor, TwoSidedAction, TorusElement, kernel_lattice,
    is_free, brute_force_free, has_fixed_point, acts_trivially,
    action_from_obj, _lattice_verdict, _violating_lattices,
)
from biquot.lattices import LatticeSubgroup
from biquot import freeness
from biquot.cli import main, EXIT_OK
from biquot import constructions as cons
from biquot.refchecks import criterion3_actions
from biquot.groups import SU, Sp, Spin, F4
from biquot.weights import su2_rep_from_label


def su2_action(left, right):
    return TwoSidedAction(1, [GroupFactor(
        su2_rep_from_label(left).weights,
        su2_rep_from_label(right).weights)])


# -- torus elements -----------------------------------------------------------


def test_torus_element_order_and_pairing():
    t = TorusElement((Fraction(1, 3), Fraction(1, 2)))
    assert t.order == 6
    assert t.pair((3, 0)) == 0
    assert t.pair((1, 1)) == Fraction(5, 6)
    assert TorusElement((Fraction(4, 2),)).coords == (0,)


# -- kernel lattice -----------------------------------------------------------


def test_kernel_one_sided_rule():
    act = TwoSidedAction(1, [GroupFactor([(3,), (1,), (-1,), (-3,)],
                                         [(0,)] * 4)])
    # pairwise differences give 2Z, the cross term adds 3: together Z
    assert kernel_lattice(act).is_full()


def test_kernel_detects_central_subgroup():
    act = cons.g2_pair_action(4, 28)
    k = kernel_lattice(act)
    assert k.basis == ((2,),)
    assert acts_trivially(act, TorusElement((Fraction(1, 2),)))


def test_kernel_gromoll_meyer_trivial():
    act = cons.gromoll_meyer_action()
    assert kernel_lattice(act).is_full()


def test_kernel_sphere_factors():
    act = cons.torus_squared_sphere_action(4)
    assert kernel_lattice(act).is_full()


def test_kernel_explicit_override():
    declared = LatticeSubgroup.from_rows(1, [(2,)])
    act = TwoSidedAction(1, [GroupFactor([(1,), (-1,)], [(1,), (-1,)])],
                         trivial_lattice=declared)
    assert kernel_lattice(act) == declared


def test_kernel_empty_action():
    act = TwoSidedAction(2, [])
    assert kernel_lattice(act) == LatticeSubgroup.from_rows(2, [])


# -- verdicts -----------------------------------------------------------------


@pytest.mark.parametrize("target,left,right", [
    (F4, "V", "2C"),                 # no weight data
    (Sp(4), "S2V+C", "V+2C"),        # a real irrep once in Sp(4)
    (SU(3), "V+C", "S2V+V"),         # dimension 5, not 3
])
def test_su2_pair_action_rejects_non_classes(target, left, right):
    with pytest.raises(ValueError):
        cons.su2_pair_action(target, left, right)


def test_identity_action_not_free():
    act = su2_action("2V", "2V")
    v = is_free(act)
    assert not v.free
    # every torus element outside the center has a fixed point
    assert v.witness_order == 3  # order-2 element is central here


def test_trivial_summand_short_circuits():
    # a sphere with a trivial summand never obstructs: same verdict as
    # dropping the factor
    base = cons.gromoll_meyer_action()
    padded = TwoSidedAction(1, list(base.factors)
                            + [SphereFactor([(5,), (0,)])])
    assert padded.factors[-1].has_trivial_summand
    assert is_free(padded).free == is_free(base).free


def test_sphere_factor_constrains_without_trivial_summand():
    # rotation weights (1, 2) on S^3: the order-2 element fixes the second
    # plane pointwise while acting nontrivially on the first
    act = TwoSidedAction(1, [SphereFactor([(1,), (2,)])])
    v = is_free(act)
    assert not v.free and v.witness_order == 2
    # a single plane of weight 2 is effectively free: the only element
    # with a fixed point is the one acting trivially
    act2 = TwoSidedAction(1, [SphereFactor([(2,)])])
    v2 = is_free(act2)
    assert v2.free and v2.kernel.basis == ((2,),)


@pytest.mark.parametrize("act,coords", [
    # kernel 2Z from the weights: 1/2 acts trivially, 1/4 fixes a point
    (TwoSidedAction(1, [SphereFactor([(2,), (4,)])]), (Fraction(1, 4),)),
    # declared kernel of index 2 on an otherwise effective action
    (TwoSidedAction(1, [SphereFactor([(1,), (4,)])],
                    LatticeSubgroup.from_rows(1, [(2,)])), (Fraction(1, 4),)),
    # the criterion-3 Sp(4) action on S3V x 2V, whose kernel has index 2
    (su2_action("S3V", "2V"), (Fraction(1, 4),)),
])
def test_non_effective_actions_keep_composite_witness_orders(act, coords):
    # the order-2 element fixes a point but acts trivially, so the least
    # witness order is 4
    kernel = kernel_lattice(act)
    assert not kernel.is_full()
    v = is_free(act)
    assert not v.free and v.witness_order == 4 and v.witness.coords == coords
    assert v == _lattice_verdict(act, kernel)


def unit_weights(rank):
    return [tuple(int(i == j) for j in range(rank)) for i in range(rank)]


@pytest.mark.parametrize("act,order", [
    # one plane per axis: (0, ..., 0, 1/2) fixes the first plane
    (TwoSidedAction(6, [SphereFactor(unit_weights(6))]), 2),
    (TwoSidedAction(7, [SphereFactor(unit_weights(7))]), 2),
    # every axis fixed except the first, which may turn by a third
    (TwoSidedAction(5, [SphereFactor([(3, 0, 0, 0, 0), (1, 0, 0, 0, 0)])]
                    + [SphereFactor([w]) for w in unit_weights(5)[1:]]), 3),
])
def test_order_two_scan_at_high_rank(act, order):
    # the order-2 scan has no rank bound, only one on the prefixes it walks,
    # and at order 3 is_free falls through to the lattice search
    kernel = kernel_lattice(act)
    assert kernel.is_full()
    want = _lattice_verdict(act, kernel)
    assert not want.free and want.witness_order == order
    assert is_free(act) == want


@pytest.mark.parametrize("act,free", [
    # free: the scan would walk all 2^15 prefixes of order 2
    (TwoSidedAction(16, [SphereFactor([w]) for w in unit_weights(16)]), True),
    # (0, ..., 0, 1/2) under the first prefix
    (TwoSidedAction(16, [SphereFactor(unit_weights(16))]), False),
], ids=["free", "order-2"])
def test_order_two_scan_is_bounded_at_rank_16(act, free):
    start = time.perf_counter()
    verdict = is_free(act)
    assert time.perf_counter() - start < 0.05
    assert verdict.free == free and verdict.kernel.is_full()
    if not free:
        assert verdict.witness.coords == (0,) * 15 + (Fraction(1, 2),)


def _witness_past_the_budget(rank):
    """Actions whose witness (1/2, 0, ..., 0) has order 2 and lies under
    prefix 2^(rank-2)+1 of the scan, past its budget from rank 9 on.  With
    the spheres S(e_i), 0 < i < rank, and S(2e_0, e_0 + e_1) the one
    violating lattice has index 2, so 2 elements of order dividing 2; with
    one sphere S(2e_0, 3e_0) the violating lattice of escape order 2 is
    2e_0*Z, with 2^rank."""
    e = unit_weights(rank)
    return [TwoSidedAction(rank, [SphereFactor([w]) for w in e[1:]] + [
        SphereFactor([(2,) + e[0][1:], e[0][:1] + e[1][1:]])]),
        TwoSidedAction(rank, [SphereFactor([(2,) + e[0][1:],
                                            (3,) + e[0][1:]])])]


@pytest.mark.parametrize("rank", [9, 12, 16])
def test_order_two_witness_past_the_scan_budget(rank):
    # the lattice search gives the witness past the scan's budget, and reads
    # it off as fast for the 2^rank elements of order 2 in Ann(2e_0*Z) as
    # for the 2 of the first action
    few, many = _witness_past_the_budget(rank)
    witness = TorusElement((Fraction(1, 2),) + (0,) * (rank - 1))
    for act in (few, many):
        kernel = kernel_lattice(act)
        before = 2 ** (rank - 2)
        assert freeness._first_hit(act, kernel, 2, stop=before) is None
        assert freeness._first_hit(act, kernel, 2, stop=before + 1) \
            == witness
        assert before >= freeness._ORDER_TWO_PREFIXES
        assert is_free(act) == _lattice_verdict(act, kernel)
        assert is_free(act).witness == witness
    start = time.perf_counter()
    is_free(many)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("rank", [10, 12, 16])
def test_witness_read_off_does_not_list_the_annihilator(rank):
    # the one violating lattice 3e_0*Z escapes at order 3, where Ann(L)[3]
    # has 3^rank elements, far too many to list in time
    act = TwoSidedAction(rank, [SphereFactor([(3,) + (0,) * (rank - 1),
                                              (5,) + (0,) * (rank - 1)])])
    start = time.perf_counter()
    verdict = is_free(act)
    assert time.perf_counter() - start < 0.05
    assert verdict.witness == TorusElement((Fraction(1, 3),)
                                           + (0,) * (rank - 1))


def test_d_family_caveat_flag():
    act = TwoSidedAction(1, [GroupFactor([(1,), (-1,)], [(1,), (-1,)],
                                         d_family=True)])
    v = is_free(act)
    assert not v.free and v.caveats
    # named pair actions set the flag exactly on Spin(2n) targets
    assert cons.su2_pair_action(Spin(8), "2V+4C", "S2V+5C").factors[0].d_family
    assert not cons.su2_pair_action(Spin(7), "2V+3C", "S2V+4C") \
        .factors[0].d_family


def test_hp_sum_action_free_rank3():
    for n in (2, 3):
        assert is_free(cons.hp_sum_action(n)).free


# -- witness soundness ----------------------------------------------------------


def test_witnesses_evaluate_to_fixed_points():
    for act in criterion3_actions():
        v = is_free(act)
        if v.free:
            continue
        assert has_fixed_point(act, v.witness)
        assert not acts_trivially(act, v.witness)
        assert v.witness.order == v.witness_order


def test_brute_force_examples():
    b = brute_force_free(su2_action("S3V", "2V"), 12)
    assert b.found_witness and b.witness_order == 4
    b = brute_force_free(cons.su2_pair_action(SU(3), "V+C", "S2V"), 6)
    assert b.found_witness and b.witness_order == 3
    b = brute_force_free(su2_action("2V", "2V"), 6)
    assert b.found_witness


def test_brute_force_exhaustive_rank3():
    b = brute_force_free(cons.hp_sum_action(2), 30)
    assert b.exhaustive
    assert not b.found_witness
    # and on a non-free rank-3 action it returns is_free's witness
    bad = TwoSidedAction(3, [GroupFactor(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)],
        [(0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0)])])
    b2 = brute_force_free(bad, 30)
    v = is_free(bad)
    assert b2.exhaustive and b2.found_witness
    assert (b2.witness, b2.witness_order) == (v.witness, v.witness_order)
    assert has_fixed_point(bad, b2.witness)


def test_brute_force_sweeps_the_orders_that_can_hold_the_least_witness(
        monkeypatch):
    """Order q = p^a is swept iff p^(a-1) divides the kernel's index: all
    primes on a full kernel, 4 as well at index 2, every prime power below
    full rank."""
    primes = [q for q in range(2, 61) if all(q % d for d in range(2, q))]
    prime_powers = sorted(p ** a for p in primes for a in range(1, 6)
                          if p ** a <= 60)
    swept = []
    monkeypatch.setattr(freeness, "_first_hit",
                        lambda action, kernel, q: swept.append(q))
    factors = [GroupFactor([(1, 0), (0, 1)], [(0, 1), (1, 0)])]
    assert len(primes) == 17
    for rows, want in [([(1, 0), (0, 1)], primes),
                       ([(2, 0), (0, 1)], sorted(primes + [4])),
                       ([(1, 0)], prime_powers)]:
        swept.clear()
        kernel = LatticeSubgroup.from_rows(2, rows)
        b = brute_force_free(TwoSidedAction(2, factors, kernel), 60)
        assert not b.found_witness and swept == want, rows


# -- invariance properties ------------------------------------------------------


def test_conjugation_invariance_weight_permutations():
    rng = random.Random(0)
    for act in criterion3_actions():
        base = is_free(act)
        factors = []
        for f in act.factors:
            if isinstance(f, GroupFactor):
                left = list(f.left)
                right = list(f.right)
                rng.shuffle(left)
                rng.shuffle(right)
                factors.append(GroupFactor(left, right, f.d_family))
            else:
                ws = list(f.weights)
                rng.shuffle(ws)
                factors.append(SphereFactor(ws, f.has_trivial_summand))
        shuffled = TwoSidedAction(act.rank, factors, act.trivial_lattice)
        got = is_free(shuffled)
        assert got.free == base.free
        # the witness is intrinsic to the action, not to the weight order
        assert got.witness == base.witness
        assert got.witness_order == base.witness_order


def _choice_rows(choice):
    """Generator rows of a full choice as is_free reports it."""
    rows = []
    for part in choice:
        if part and part[0] == "sphere weight":
            rows.append(part[1])
        elif part and isinstance(part[0], str):
            continue  # a sphere with a trivial summand adds nothing
        else:
            rows.extend(tuple(a - b for a, b in zip(l, r)) for l, r, _ in part)
    return rows


def test_monotone_pruning_safe():
    # the search prunes a partial lattice once it contains the kernel; that
    # is safe because growing a lattice keeps it containing the kernel.  So
    # the reported choice generates one of the violating lattices, pairs
    # integrally with the witness and has no prefix containing the kernel,
    # and every violating lattice misses the kernel until the kernel is
    # added
    for act in (su2_action("S3V", "2V"), su2_action("2V", "2V"),
                cons.su2_pair_action(SU(3), "V+C", "S2V"),
                cons.g2_pair_action(3, 28)):
        kernel = kernel_lattice(act)
        violations = _violating_lattices(act, kernel)
        assert isinstance(violations, frozenset) and violations
        verdict = is_free(act)
        rows = _choice_rows(verdict.choice)
        assert LatticeSubgroup.from_rows(act.rank, rows).basis in violations
        assert all(verdict.witness.pair(r) == 0 for r in rows)
        for k in range(len(rows) + 1):
            prefix = LatticeSubgroup.from_rows(act.rank, rows[:k])
            assert not prefix.contains(kernel)
        for basis in violations:
            assert not LatticeSubgroup(act.rank, basis).contains(kernel)
            grown = LatticeSubgroup.from_rows(
                act.rank, list(basis) + list(kernel.basis))
            assert grown.contains(kernel)


def test_search_expands_each_state_once(monkeypatch):
    # each of 20 sphere factors picks (2, 0) or (3, 0), 2^20 paths, through
    # at most three partial lattices per factor; the last factor has a
    # trivial summand and only puts (0, 1) in the kernel.  Expanding each
    # state once makes two inserts per state; the count fails fast, before
    # a search that walks the paths would end
    act = TwoSidedAction(2, [SphereFactor([(2, 0), (3, 0)])] * 20
                         + [SphereFactor([(0, 1), (0, 0)])])
    inserts = []
    insert = freeness._hnf_insert

    def counted(basis, g):
        inserts.append(g)
        assert len(inserts) <= 6 * 21
        return insert(basis, g)

    monkeypatch.setattr(freeness, "_hnf_insert", counted)
    got = _violating_lattices(act, kernel_lattice(act))
    assert got == {LatticeSubgroup.from_rows(2, [(d, 0)]).basis
                   for d in (1, 2, 3)}


def test_search_decides_deep_actions(capsys):
    # 400 factors, each with two left classes: a search that recursed per
    # factor and class would pass Python's recursion limit.  The kernel is
    # 2Z, so 1/2 acts trivially and the witness 1/4 has order 4
    factor = {"type": "group", "left": [[1], [-1]], "right": [[3], [-3]]}
    obj = {"rank": 1, "factors": [factor] * 400}
    verdict = is_free(action_from_obj(obj))
    assert not verdict.free and verdict.witness_order == 4
    assert main(["free-check", "--json", json.dumps(obj)]) == EXIT_OK
    assert "order 4" in capsys.readouterr().out


def _with_negated_sum(ws):
    return ws + [[-sum(col) for col in zip(*ws)]]


@pytest.mark.parametrize("left,right", [
    # one class of 1,200 equal weights against 1,200 distinct ones
    ([[0]] * 1200, _with_negated_sum([[i] for i in range(1, 1200)])),
    ([[0]] * 12 + [[100 + 7 * i] for i in range(12)],
     _with_negated_sum([[i] for i in range(1, 24)])),
    ([[0, 0]] * 12 + [[i, 1] for i in range(12)],
     [[i, -1] for i in range(24)]),
    # SU(2) -> SU(28) through V + 26C on the left and S^27 V on the right
    ([[1], [-1]] + [[0]] * 26, [[27 - 2 * i] for i in range(28)]),
], ids=["zeros-1200", "zeros-12-distinct-12", "rank2", "su2-su28"])
def test_search_decides_repeated_weights(left, right):
    # a search that split each class of equal weights over the other side's
    # classes in every way would walk 2^n splits here; one weight per step
    # over classes of the side with fewer distinct weights takes
    # milliseconds
    obj = {"rank": len(left[0]),
           "factors": [{"type": "group", "left": left, "right": right}]}
    start = time.perf_counter()
    verdict = is_free(action_from_obj(obj))
    assert time.perf_counter() - start < 5
    assert verdict.free and verdict.kernel.is_full()


def test_serialization_round_trip():
    for act in criterion3_actions():
        again = action_from_obj(act.to_obj())
        assert again == act
        v = is_free(act)
        obj = v.to_obj()
        assert obj["verdict"] in ("free", "not_free")
        if not v.free:
            assert obj["witness"]["order"] == v.witness_order


def rescale_action(action, basis):
    """Reparameterize the torus along an integer basis matrix (rows are the
    new coordinate directions): weights w become w . basis^T entries."""
    def remap(w):
        return tuple(sum(w[i] * row[i] for i in range(len(w))) for row in basis)

    factors = []
    for f in action.factors:
        if isinstance(f, GroupFactor):
            factors.append(GroupFactor(tuple(remap(w) for w in f.left),
                                       tuple(remap(w) for w in f.right),
                                       f.d_family))
        else:
            factors.append(SphereFactor(tuple(remap(w) for w in f.weights),
                                        f.has_trivial_summand))
    return TwoSidedAction(len(basis), tuple(factors), None)


def test_rescale_action():
    act = cons.torus_squared_sphere_action(2)
    doubled = rescale_action(act, [(2, 0), (0, 1)])
    # the finer parameterization makes the old generator (1,0) an order-2
    # kernel direction escape: (1/2, 0) now acts like the old (1, 0)
    v = is_free(doubled)
    assert v.free == is_free(act).free
