import random
from fractions import Fraction

import pytest

from biquot.freeness import (
    GroupFactor, SphereFactor, TwoSidedAction, TorusElement, kernel_lattice,
    is_free, brute_force_free, has_fixed_point, acts_trivially,
    action_from_obj, _lattice_verdict, _prime_scan, _violating_lattices,
)
from biquot.lattices import LatticeSubgroup
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
    assert kernel_lattice(act) == LatticeSubgroup.zero(2)


# -- verdicts -----------------------------------------------------------------


def test_gromoll_meyer_free():
    assert is_free(cons.gromoll_meyer_action()).free


@pytest.mark.parametrize("left,right,order,coords", [
    ("S3V", "V+2C", 3, (Fraction(1, 3),)),
    ("S3V", "2V", 4, (Fraction(1, 4),)),
])
def test_sp4_witness_orders(left, right, order, coords):
    v = is_free(su2_action(left, right))
    assert not v.free
    assert v.witness_order == order
    assert v.witness.coords == coords


def test_su3_witness():
    v = is_free(cons.su2_pair_action(SU(3), "V+C", "S2V"))
    assert not v.free and v.witness_order == 3


@pytest.mark.parametrize("target,left,right", [
    (F4, "V", "2C"),                 # no weight data
    (Sp(4), "S2V+C", "V+2C"),        # a real irrep once in Sp(4)
    (SU(3), "V+C", "S2V+V"),         # dimension 5, not 3
])
def test_su2_pair_action_rejects_non_classes(target, left, right):
    with pytest.raises(ValueError):
        cons.su2_pair_action(target, left, right)


G2_TABLE = {(1, 3): 2, (1, 4): 3, (1, 28): 3, (3, 4): None, (3, 28): 5,
            (4, 28): 3}


@pytest.mark.parametrize("pair,order", sorted(G2_TABLE.items()))
def test_g2_pair_table(pair, order):
    v = is_free(cons.g2_pair_action(*pair))
    if order is None:
        assert v.free
    else:
        assert not v.free and v.witness_order == order


@pytest.mark.parametrize("n", range(2, 7))
def test_torus_squared_sphere_actions_free(n):
    assert is_free(cons.torus_squared_sphere_action(n)).free


@pytest.mark.parametrize("e", range(1, 4))
def test_circle_su2_sphere_actions_free(e):
    assert is_free(cons.circle_su2_sphere_action(e)).free


def test_sp4_su2xsu2_actions_free():
    for kind in ("block", "split"):
        v = is_free(cons.sp4_su2xsu2_action(kind))
        assert v.free and v.kernel.is_full()


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
    # the prime-order scan is exact only on effective actions: here the
    # order-2 element fixes a point but acts trivially
    kernel = kernel_lattice(act)
    assert not kernel.is_full()
    v = is_free(act)
    assert not v.free and v.witness_order == 4 and v.witness.coords == coords
    assert v == _lattice_verdict(act, kernel)


def unit_weights(rank):
    return [tuple(int(i == j) for j in range(rank)) for i in range(rank)]


@pytest.mark.parametrize("act,scanned,order", [
    # one plane per axis: (0, ..., 0, 1/2) fixes the first plane
    (TwoSidedAction(6, [SphereFactor(unit_weights(6))]), True, 2),
    # the same above the scan's rank bound
    (TwoSidedAction(7, [SphereFactor(unit_weights(7))]), False, 2),
    # every axis fixed except the first, which may turn by a third
    (TwoSidedAction(5, [SphereFactor([(3, 0, 0, 0, 0), (1, 0, 0, 0, 0)])]
                    + [SphereFactor([w]) for w in unit_weights(5)[1:]]),
     False, 3),
])
def test_prime_scan_at_high_rank(act, scanned, order):
    kernel = kernel_lattice(act)
    assert kernel.is_full()
    want = _lattice_verdict(act, kernel)
    assert not want.free and want.witness_order == order
    hit = _prime_scan(act)
    assert (hit is not None) == scanned
    if scanned:
        assert hit == (order, want.witness)
    assert is_free(act) == want


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
