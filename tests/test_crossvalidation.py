"""Randomized cross-validation of the exact decision paths.

The violating-lattice search is fuzzed against element-by-element
eigenvalue evaluation, and is_free, which first tries the oracle's order-2
scan, against the lattice search.  The lattice witness is also checked
against a Fraction reference that walks every element of the witness
order, each lattice's escape order against a direct enumeration of its
annihilator, and torsion generators of annihilators by direct pairing.  The
brute-force oracle is checked against the same reference swept over every
order, and the reference's least witness orders against the lemma by which
the oracle skips orders.  At rank 2 on SU(10) to SU(16) factors, past the
enumeration's reach, verdicts and witnesses are checked against the oracle
swept to a bound on the primes that can divide a choice lattice's index,
where it decides exactly.  At ranks 4 to 6, out of the oracle's reach, the
witness is checked on actions whose fixed-point set is one cyclic group of
large order.  Groebner-based Betti ranks are fuzzed against sympy normal
forms under a different monomial order (graded ranks are intrinsic, so any
correct Groebner basis must produce the same numbers).
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest
import sympy

from biquot.freeness import (GroupFactor, SphereFactor, TwoSidedAction,
                             TorusElement, BruteVerdict, kernel_lattice,
                             is_free, brute_force_free, acts_trivially,
                             has_fixed_point, _numerators_of_order,
                             _annihilator_basis, _least_escape,
                             _escape_order,
                             _violating_lattices, _lattice_verdict,
                             _first_hit, _first_choice, _split_moduli,
                             _hyperplane_normal, _SPLIT_TRIAL_BOUND)
from biquot import freeness
from biquot.lattices import LatticeSubgroup, smith_normal_form
from biquot.polyring import GradedPolyRing
from biquot.cohomology import GradedQuotient
from elimination_hnf import elimination_hnf


def random_group_factor(rng, rank):
    n = rng.choice([2, 3, 4])
    left = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(n)]
    right = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(n)]
    return GroupFactor(left, right)


def random_sphere_factor(rng, rank):
    n = rng.choice([1, 2, 3])
    ws = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(n)]
    return SphereFactor(ws)


def random_action(rng):
    rank = rng.choice([1, 1, 2])
    nf = rng.choice([1, 1, 2])
    factors = []
    for _ in range(nf):
        if rng.random() < 0.7:
            factors.append(random_group_factor(rng, rank))
        else:
            factors.append(random_sphere_factor(rng, rank))
    return TwoSidedAction(rank, factors)


def test_freeness_matches_oracle_on_random_actions():
    rng = random.Random(424242)
    checked_free = checked_witness = 0
    for _ in range(250):
        act = random_action(rng)
        kernel = kernel_lattice(act)
        # the lattice search alone: is_free shares _first_hit with the oracle
        exact = _lattice_verdict(act, kernel)
        brute = brute_force_free(act, 60)
        assert brute.exhaustive
        if exact.free:
            # no witness may exist at any order the oracle can reach
            assert not brute.found_witness, act.to_obj()
            checked_free += 1
        else:
            if exact.witness_order <= 60:
                assert brute.found_witness, act.to_obj()
                assert brute.witness_order == exact.witness_order, act.to_obj()
                # both report the lex-least fixed-point element of that order
                assert brute.witness == exact.witness, act.to_obj()
            # also past the oracle's orders: the Fraction reference
            declared = TwoSidedAction(act.rank, act.factors, kernel)
            assert exact.witness == reference_first_hit(
                declared, exact.witness_order), act.to_obj()
            checked_witness += 1
    assert checked_free > 20 and checked_witness > 50


def test_witness_is_lex_least_on_non_cyclic_annihilator():
    # the order-2 part of the violating lattice's annihilator is (Z/2)^2:
    # both (1/2, 0) and (0, 1/2) fix points, and (0, 1/2) is lex-least
    act = TwoSidedAction(2, [SphereFactor([(-2, 0), (0, 0), (3, 3)]),
                             SphereFactor([(-2, -2), (0, 1), (0, -3)]),
                             SphereFactor([(-3, -3), (2, -2)])])
    exact = is_free(act)
    brute = brute_force_free(act, 24)
    assert not exact.free and exact.witness_order == 2
    assert exact.witness == brute.witness == TorusElement((0, Fraction(1, 2)))


def reference_violating_lattices(action):
    """Difference lattices of every full choice that miss the kernel, from
    all permutations of each group factor's right weights and every weight
    of each sphere factor, with no pruning and no memo, canonicalized by
    gcd elimination rather than the row insertion the search uses."""
    kernel = kernel_lattice(action)
    per_factor = []
    for f in action.factors:
        if isinstance(f, GroupFactor):
            per_factor.append([
                [tuple(a - b for a, b in zip(l, r))
                 for l, r in zip(f.left, perm)]
                for perm in set(itertools.permutations(f.right))])
        elif f.has_trivial_summand:
            per_factor.append([[]])
        else:
            per_factor.append([[w] for w in f.weights])
    out = set()
    for choice in itertools.product(*per_factor):
        basis = tuple(elimination_hnf([r for rows in choice for r in rows],
                                      action.rank))
        if not LatticeSubgroup(action.rank, basis).contains(kernel):
            out.add(basis)
    return out


def split_moduli(index):
    """The moduli the search splits a full-rank lattice of this index by,
    from a full factorization: each prime up to the trial-division bound,
    then the product of the prime powers past it when that is not 1."""
    factors = sympy.factorint(index)
    large = prod(p ** e for p, e in factors.items() if p > _SPLIT_TRIAL_BOUND)
    return sorted(p for p in factors if p <= _SPLIT_TRIAL_BOUND) \
        + [large] * (large > 1)


def split_parts(action, lattices):
    """The lattices that stand for the given violating lattices in the
    search's result: on an effective action each full-rank L becomes
    {L + mZ^r : m in split_moduli([Z^r : L])}, by gcd elimination;
    otherwise L itself."""
    if not kernel_lattice(action).is_full():
        return set(lattices)
    rank, out = action.rank, set()
    for basis in lattices:
        index = LatticeSubgroup(rank, basis).index()
        if not index:
            out.add(basis)
            continue
        for m in split_moduli(index):
            out.add(tuple(elimination_hnf(
                list(basis) + [tuple(m * (i == j) for j in range(rank))
                               for i in range(rank)], rank)))
    return out


def reference_choice(action, witness):
    """The matching is_free reports, from all permutations: per group factor
    the bijection annihilated by the witness whose count vectors (sorted
    left classes over sorted right values) are lex-greatest, as (left,
    right, count) steps; per sphere factor the least annihilated weight."""
    out = []
    for f in action.factors:
        if isinstance(f, SphereFactor):
            out.append(("sphere: trivial summand, no constraint",)
                       if f.has_trivial_summand else ("sphere weight", min(
                           w for w in f.weights if witness.pair(w) == 0)))
            continue
        lvals, rvals = sorted(set(f.left)), sorted(set(f.right))
        best = None
        for perm in set(itertools.permutations(f.right)):
            if any(witness.pair(tuple(a - b for a, b in zip(l, r)))
                   for l, r in zip(f.left, perm)):
                continue
            pairs = Counter(zip(f.left, perm))
            counts = tuple(tuple(pairs[l, r] for r in rvals) for l in lvals)
            best = counts if best is None else max(best, counts)
        out.append(tuple((l, r, best[i][j]) for i, l in enumerate(lvals)
                         for j, r in enumerate(rvals) if best[i][j]))
    return tuple(out)


def su_weights(rng, n, rank):
    """n distinct weights summing to zero: a map into SU(n)."""
    while True:
        ws = {tuple(rng.randint(-3, 3) for _ in range(rank))
              for _ in range(n - 1)}
        if len(ws) < n - 1:
            continue
        last = tuple(-sum(w[i] for w in ws) for i in range(rank))
        if last not in ws:
            return sorted(ws) + [last]


def repeated_weights(rng, n, rank):
    """n weights drawn from a pool of two or three, so classes repeat."""
    pool = [tuple(rng.randint(-2, 2) for _ in range(rank))
            for _ in range(rng.choice([2, 3]))]
    return [rng.choice(pool) for _ in range(n)]


def small_action(rng, rank):
    factors = []
    for _ in range(rng.choice([1, 2, 2, 3])):
        kind = rng.random()
        if kind < 0.4:
            n = rng.choice([2, 3, 4])
            factors.append(GroupFactor(repeated_weights(rng, n, rank),
                                       repeated_weights(rng, n, rank)))
        elif kind < 0.6:
            n = rng.choice([2, 3])
            factors.append(GroupFactor(su_weights(rng, n, rank),
                                       su_weights(rng, n, rank)))
        else:
            ws = [tuple(rng.randint(-2, 2) for _ in range(rank))
                  for _ in range(rng.choice([1, 2, 3]))]
            if rng.random() < 0.3:
                ws.append((0,) * rank)  # a trivial summand
            factors.append(SphereFactor(ws))
    return TwoSidedAction(rank, factors)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_violating_lattices_match_full_enumeration(rank):
    rng = random.Random(2024 + rank)
    seen_free = seen_not_free = 0
    sides = Counter()  # group factors by the side the search steps through
    for _ in range(60):
        act = small_action(rng, rank)
        for f in act.factors:
            if isinstance(f, GroupFactor):
                sides["right" if len(set(f.left)) < len(set(f.right))
                      else "left"] += 1
        want = reference_violating_lattices(act)
        got = _violating_lattices(act, kernel_lattice(act))
        assert got == split_parts(act, want), act.to_obj()
        verdict = is_free(act)
        assert verdict.free == (not want), act.to_obj()
        if want:
            assert verdict.choice == reference_choice(
                act, verdict.witness), act.to_obj()
        seen_free += not want
        seen_not_free += bool(want)
    assert seen_free > 3 and seen_not_free > 3
    assert sides["left"] >= 3 and sides["right"] >= 3, sides


@pytest.mark.parametrize("coords", [
    (Fraction(1, 2), Fraction(1, 4)), (Fraction(3, 4), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(1, 3), Fraction(1, 2), Fraction(5, 6)),
], ids=str)
def test_first_choice_matches_reference_at_composite_orders(coords):
    """The matching of a witness whose coordinates have different
    denominators, each scaled to a numerator over the order by its own
    factor, on random actions of which the witness fixes a point."""
    t = TorusElement(coords)
    rank = len(coords)
    rng = random.Random(str(coords))

    def moved(w):  # w plus a vector that t annihilates
        while True:
            k = tuple(rng.randint(-4, 4) for _ in range(rank))
            if t.pair(k) == 0:
                return tuple(a + b for a, b in zip(w, k))

    for _ in range(40):
        factors = []
        for _ in range(rng.choice([1, 2])):
            pool = [tuple(rng.randint(-2, 2) for _ in range(rank))
                    for _ in range(rng.choice([2, 4]))]
            left = [rng.choice(pool) for _ in range(rng.choice([2, 3, 4]))]
            right = [moved(w) for w in left]
            rng.shuffle(right)
            factors.append(GroupFactor(left, right))
        factors.append(SphereFactor(
            [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in "ab"]
            + [moved((0,) * rank)]))
        act = TwoSidedAction(rank, factors)
        assert has_fixed_point(act, t)
        assert _first_choice(act, t) == reference_choice(act, t), act.to_obj()


@pytest.mark.parametrize("rank,sizes", [
    (2, (6,)), (2, (7,)), (2, (8,)), (3, (5,)), (3, (6,)), (2, (4, 4)),
    (2, (4, 5, "sphere")),
])
def test_violating_lattices_match_full_enumeration_su(rank, sizes):
    """One SU(n) group factor per size; "sphere" adds a sphere factor of
    three distinct nonzero weights, the shape of the benchmark's
    su2x-sphere jobs."""
    groups = [n for n in sizes if n != "sphere"]
    rng = random.Random(sum(groups) * 10 + rank)
    factors = [GroupFactor(su_weights(rng, n, rank), su_weights(rng, n, rank))
               for n in groups]
    if "sphere" in sizes:
        weights = set()
        while len(weights) < 3:
            w = tuple(rng.randint(-2, 2) for _ in range(rank))
            if any(w):
                weights.add(w)
        factors.append(SphereFactor(sorted(weights)))
    act = TwoSidedAction(rank, factors)
    want = reference_violating_lattices(act)
    assert set(_violating_lattices(act, kernel_lattice(act))) \
        == split_parts(act, want)
    assert is_free(act).free == (not want)


def prime_bound(action):
    """B = max |det(u, v)| over the vectors a rank-2 choice can add: the
    group factors' differences l - r and the weights of the sphere factors
    without a trivial summand.  The index of a choice lattice of rank 2
    divides its nonzero 2x2 minors, so every prime dividing it is at most
    B."""
    vectors = set()
    for f in action.factors:
        if isinstance(f, GroupFactor):
            vectors.update(tuple(a - b for a, b in zip(l, r))
                           for l in f.left for r in f.right)
        elif not f.has_trivial_summand:
            vectors.update(f.weights)
    return max((abs(u[0] * v[1] - u[1] * v[0])
                for u, v in itertools.combinations(vectors, 2)), default=0)


def test_rank_two_verdicts_match_the_oracle_to_the_prime_bound():
    """Past the enumeration's reach, on SU(10) to SU(16) factors at rank 2,
    the oracle to order max(B, 2), B the prime bound, decides exactly: the
    least witness of an effective action has prime order, an element of
    which lies in Ann(L) for a violating lattice L; a prime with nonzero
    elements of that order in Ann(L) divides L's index when L has rank 2,
    and every L of rank below 2 has elements of order 2 in Ann(L).  So
    is_free is Free iff the oracle finds no witness, and both give the
    same witness otherwise; so does the lattice search alone."""
    rng = random.Random(3816)
    seen = Counter()
    while sum(seen.values()) < 24:
        n = rng.randint(10, 16)
        act = TwoSidedAction(2, [GroupFactor(su_weights(rng, n, 2),
                                             su_weights(rng, n, 2))])
        kernel = kernel_lattice(act)
        if not kernel.is_full():
            continue
        verdict = is_free(act)
        brute = brute_force_free(act, max(prime_bound(act), 2))
        assert verdict.witness == brute.witness, act.to_obj()
        assert _lattice_verdict(act, kernel) == verdict, act.to_obj()
        seen["free" if verdict.free else
             "order %d" % min(verdict.witness_order, 3)] += 1
    assert min(seen["free"], seen["order 2"], seen["order 3"]) >= 3, seen


def test_split_moduli_match_a_full_factorization():
    rng = random.Random(9091)
    p = sympy.nextprime(_SPLIT_TRIAL_BOUND)
    q = sympy.nextprime(p)
    for n in itertools.chain(range(1, 3000), [p, p * p, p * q, 2 * p * q,
                                              997 * p, 4 * 997, 2 * 997],
                             (rng.randint(1, 10 ** 15) for _ in range(300))):
        assert _split_moduli(n) == split_moduli(n), n
        # the search reads every modulus below this bound as a prime
        assert all(sympy.isprime(m) for m in _split_moduli(n)
                   if m < (_SPLIT_TRIAL_BOUND + 1) ** 2), n


@pytest.mark.parametrize("primes", [(5, 7), "past the bound",
                                    "one prime past the bound"])
def test_violating_lattices_split_past_the_trial_division_bound(
        primes, monkeypatch):
    """Violating lattices of index 2N and 3N, N = PQ or N = P: with small
    primes P and Q they split into parts of index 2, 3, P and Q; with P
    and Q the two primes after the split's trial-division bound, the
    cofactor PQ that trial division leaves gives one part of index PQ, and
    with N = P alone one part of index P.  Either way the parts match the
    enumeration mapped through the same split, and the witness is the
    same; so it is on the rank-1 action whose one violating lattice is
    N*Z, where it has order P.  Every part of prime index is a hyperplane
    mod its prime and is decided without a search; the composite PQ is
    never read as a prime, and its part is searched: on a rank-1 action
    with a factor whose choices add P, it has the completion P*Z.  A part
    decided without a search still meets the factors swept after it."""
    if primes != (5, 7):
        p = sympy.nextprime(_SPLIT_TRIAL_BOUND)
        primes = (p, sympy.nextprime(p)) if primes == "past the bound" \
            else (p,)
    n = prod(primes)
    moduli = set(split_moduli(n))
    hyperplanes = set()  # the moduli at which the pivot rule decided a part

    def hyperplane_normal(basis, p):
        normal = _hyperplane_normal(basis, p)
        if normal is not None:
            hyperplanes.add(p)
        return normal

    monkeypatch.setattr(freeness, "_hyperplane_normal", hyperplane_normal)
    swap = GroupFactor([(0, 0), (1, 0)], [(0, 0), (1, 0)])
    act = TwoSidedAction(2, [SphereFactor([(n, 0)]),
                             SphereFactor([(0, 2), (0, 3)]), swap])
    assert kernel_lattice(act).is_full()
    want = reference_violating_lattices(act)
    assert {LatticeSubgroup(2, b).index() for b in want} \
        == {2, 3, 2 * n, 3 * n}
    got = _violating_lattices(act, kernel_lattice(act))
    assert got == split_parts(act, want) != want
    assert {LatticeSubgroup(2, b).index() for b in got} == {2, 3} | moduli
    assert hyperplanes == {2, 3} | {m for m in moduli if sympy.isprime(m)}
    assert is_free(act) == _lattice_verdict(act, kernel_lattice(act))
    assert is_free(act).witness == TorusElement((0, Fraction(1, 2)))
    # L = <(P, 1), (0, P)> has two pivots divisible by P, yet spans a
    # hyperplane mod P: its part L + PZ^2 is searched, not decided
    hyperplanes.clear()
    act = TwoSidedAction(2, [SphereFactor([(primes[0], 1)]),
                             SphereFactor([(0, primes[0])]), swap])
    want = reference_violating_lattices(act)
    assert want == {((primes[0], 1), (0, primes[0]))}
    assert _violating_lattices(act, kernel_lattice(act)) \
        == split_parts(act, want)
    assert not hyperplanes
    assert is_free(act) == _lattice_verdict(act, kernel_lattice(act))
    swap = GroupFactor([(0,), (1,)], [(0,), (1,)])
    act = TwoSidedAction(1, [SphereFactor([(n,)]), swap])
    want = reference_violating_lattices(act)
    assert want == {((n,),)}
    got = _violating_lattices(act, kernel_lattice(act))
    assert got == split_parts(act, want) == {((m,),) for m in moduli}
    assert is_free(act).witness == TorusElement((Fraction(1, primes[0]),))
    act = TwoSidedAction(1, [SphereFactor([(n,)]), swap, GroupFactor(
        [(0,), (primes[0],)], [(0,), (primes[0],)])])
    want = reference_violating_lattices(act)
    assert want == {((n,),), ((primes[0],),)}
    assert _violating_lattices(act, kernel_lattice(act)) \
        == split_parts(act, want)
    # the parts of n*Z arise before the sphere S(2, 3) is swept, whose
    # weights then reach Z
    act = TwoSidedAction(1, [SphereFactor([(n,)]),
                             SphereFactor([(2,), (3,)])])
    assert reference_violating_lattices(act) == set() \
        == _violating_lattices(act, kernel_lattice(act))


def test_lattice_search_alone_finds_the_order_two_witness():
    """is_free's order-2 scan stops after a fixed number of prefixes and
    leaves the rest to the lattice search, which must give the same
    verdict: on actions of rank 1 to 6 with a witness of order 2, the scan
    stopped after any number of prefixes finds that witness or nothing,
    and the lattice search alone gives the verdict of is_free."""
    seen = Counter()
    for rank in range(1, 7):
        rng = random.Random(8100 + rank)
        while seen[rank] < 12:
            act = small_action(rng, rank)
            kernel = kernel_lattice(act)
            witness = _first_hit(act, kernel, 2)
            if witness is None:
                continue
            hits = [_first_hit(act, kernel, 2, stop=n)
                    for n in range(2 ** (rank - 1) + 1)]
            assert set(hits) == {None, witness}, act.to_obj()
            assert _lattice_verdict(act, kernel).to_obj() \
                == is_free(act).to_obj(), act.to_obj()
            seen[rank] += 1
            seen["not effective"] += not kernel.is_full()
            seen["past the first prefix"] += hits[1] is None
    assert min(seen["not effective"], seen["past the first prefix"]) >= 3, \
        seen


def reference_first_hit(action, q):
    """The lex-least non-trivial fixed-point element of exact order q, from
    Fraction arithmetic, or None.  Declare the kernel lattice in action:
    that spares acts_trivially one HNF per element."""
    for nums in _numerators_of_order(q, action.rank):
        t = TorusElement(tuple(Fraction(a, q) for a in nums))
        if has_fixed_point(action, t) and not acts_trivially(action, t):
            return t
    return None


def reference_brute_force(action, max_order):
    """The oracle's answer from Fraction arithmetic: walk the elements of
    each exact order in lex order, return the first non-trivial one that
    fixes a point."""
    action = TwoSidedAction(action.rank, action.factors,
                            kernel_lattice(action))
    for q in range(2, max_order + 1):
        t = reference_first_hit(action, q)
        if t is not None:
            return BruteVerdict(max_order, t)
    return BruteVerdict(max_order)


def oracle_action(rng, rank):
    """A small action of the given rank, sometimes with a declared kernel, a
    sphere factor flagged as having a trivial summand that is not among its
    weights, or an extra factor with weights (w, -w) on both sides, on
    which elements pairing to 1/2 with w act as the central -1: its kernel
    lattice is generated by 2w alone."""
    act = small_action(rng, rank)
    factors = list(act.factors)
    if rng.random() < 0.15:
        factors.append(SphereFactor([(rng.randint(1, 3),) * rank], True))
    if rng.random() < 0.2:
        w = tuple(rng.randint(-2, 2) for _ in range(rank))
        neg = tuple(-x for x in w)
        factors.append(GroupFactor([w, neg], [w, neg]))
    trivial = None
    if rng.random() < 0.15:
        trivial = LatticeSubgroup.from_rows(
            rank, [tuple(rng.choice([1, 2, 3]) * int(i == j)
                         for j in range(rank)) for i in range(rank)])
    return TwoSidedAction(rank, factors, trivial)


def test_is_free_matches_lattice_search():
    """is_free's order-2 scan gives the lattice search's verdict, also on
    actions that are not effective: order 2 is minimal on every action."""
    seen = Counter()
    for rank in (1, 2, 3):
        rng = random.Random(7000 + rank)
        for _ in range(80):
            act = oracle_action(rng, rank)
            kernel = kernel_lattice(act)
            want = _lattice_verdict(act, kernel)
            assert is_free(act) == want, act.to_obj()
            if want.free:
                seen["free"] += 1
            elif want.witness_order > 2:
                seen["order >= 3"] += 1
            else:
                seen["order 2, " + ("effective" if kernel.is_full()
                                    else "not effective")] += 1
            seen["trivial summand"] += any(
                isinstance(f, SphereFactor) and f.has_trivial_summand
                for f in act.factors)
    kinds = ("free", "order 2, effective", "order 2, not effective",
             "order >= 3", "trivial summand")
    assert min(seen[k] for k in kinds) >= 3, seen


def assert_least_order_lemma(action, verdict):
    """Every power of a least witness t below its order q fixes t's point,
    so acts trivially: q = p^a (t^p1 and t^p2 would generate t), and t^p,
    of order p^(a-1), lies in the trivially-acting subgroup, whose order is
    the kernel's index (0 below full rank)."""
    (p, a), = sympy.factorint(verdict.witness_order).items()
    assert kernel_lattice(action).index() % p ** (a - 1) == 0, (
        action.to_obj(), verdict.witness_order)


def test_brute_force_matches_fraction_reference():
    """The oracle's verdict equals the Fraction reference's, which sweeps
    every order, and the reference's least witness order obeys the lemma
    that lets the oracle skip orders."""
    rng = random.Random(60)
    kinds = Counter()
    # 200 draws at rank 1 or 2, then 18 at rank 3
    for rank in [None] * 200 + [3] * 18:
        act = oracle_action(rng, rank or rng.choice([1, 1, 1, 2]))
        # a clean rank-2 pass to order 24 costs the Fraction reference
        # about half a second, so rank 2 stops at 12 and rank 3 at 6
        if act.rank == 1:
            max_order = rng.choice([12, 24, 40])
        else:
            max_order = 12 if act.rank == 2 else 6
        got = brute_force_free(act, max_order)
        want = reference_brute_force(act, max_order)
        assert got == want, act.to_obj()
        kinds["found" if got.found_witness else "clean"] += 1
        if want.found_witness:
            assert_least_order_lemma(act, want)
            kinds["found, order not prime"] += not sympy.isprime(
                want.witness_order)
        if act.rank == 3:
            kinds["rank 3 found" if got.found_witness else "rank 3 clean"] += 1
        kinds["max_order %d" % max_order] += 1
        kinds["declared kernel"] += act.trivial_lattice is not None
        kinds["proper kernel"] += not kernel_lattice(act).contains(
            LatticeSubgroup.from_rows(act.rank, [
                tuple(int(i == j) for j in range(act.rank))
                for i in range(act.rank)]))
        kinds["trivial summand"] += any(
            isinstance(f, SphereFactor) and f.has_trivial_summand
            for f in act.factors)
    assert min(kinds.values()) > 3, kinds


def test_brute_force_on_a_least_witness_of_order_8():
    """A non-effective rank-3 action (kernel index 4) whose least witness
    has order 8: the oracle sweeps 2, 3, 4, 5, 7, 8 and agrees with the
    reference, which sweeps every order."""
    act = TwoSidedAction(3, [
        GroupFactor([(-2, -1, 1), (2, 1, -1)], [(0, 3, -3), (0, -3, 3)]),
        GroupFactor([(-1, -2, -2), (-1, -2, -2), (0, -1, -1), (0, -1, -1)],
                    [(1, 2, 2), (1, 2, 2), (1, 2, 2), (2, -2, -2)]),
        SphereFactor([(3, 3, 3)], True)])
    assert kernel_lattice(act).index() == 4
    want = reference_brute_force(act, 10)
    assert brute_force_free(act, 10) == want
    assert want.witness_order == 8
    assert_least_order_lemma(act, want)


def anchor_action(rng):
    """A rank-1/2 action whose candidates in the oracle come from one known
    anchor, and that anchor.  The anchor-bearing factor is one sphere factor
    without a trivial summand (weights possibly repeated) or one group
    factor whose left weights are all equal (right weights possibly
    repeated); an action with neither has only a sphere factor with a
    trivial summand, and the zero vector as its anchor.  Last coordinates
    are drawn to be 0 or to share factors with small orders."""
    rank = rng.choice([1, 1, 2])

    def weight():
        w = tuple(rng.randint(-3, 3) for _ in range(rank - 1)) \
            + (rng.choice([0, 1, -1, 2, -2, 3, 4, 6]),)
        return w if any(w) else (1,) * rank

    factors, kind = [], rng.choice(["sphere", "group", "none"])
    if kind == "sphere":
        ws = [weight() for _ in range(rng.choice([1, 2, 3]))]
        if rng.random() < 0.4:
            ws.append(ws[0])
        factors.append(SphereFactor(ws))
        anchor = set(ws)
    elif kind == "group":
        l, n = weight(), rng.choice([2, 3])
        right = [weight() for _ in range(n)]
        if rng.random() < 0.4:
            right[-1] = right[0]
        factors.append(GroupFactor([l] * n, right))
        anchor = {tuple(a - b for a, b in zip(l, r)) for r in right}
    else:
        anchor = {(0,) * rank}
    if kind == "none" or rng.random() < 0.2:
        factors.append(SphereFactor([weight(), (0,) * rank]))
    return TwoSidedAction(rank, factors), anchor


def anchor_cases(anchor, rank, q):
    """How the congruences s*b = -c (mod q), s = d[-1] and c the pairing of
    d[:-1] with the prefix, fall over the prefixes of order q, for the
    non-zero vectors d of the anchor."""
    cases = Counter()
    for prefix in itertools.product(range(q), repeat=rank - 1):
        cases["prefix not coprime to q"] += rank > 1 and gcd(q, *prefix) > 1
        for d in anchor - {(0,) * rank}:
            h = gcd(d[-1], q)
            solvable = sum(a * x for a, x in zip(d[:-1], prefix)) % h == 0
            if h == q:
                cases["last coordinate 0, %s" % (
                    "whole row" if solvable else "no b")] += 1
            elif h > 1:
                cases["last coordinate shares a factor, %s" % (
                    "solvable" if solvable else "unsolvable")] += 1
    return cases


def test_first_hit_on_anchor_edge_cases():
    """Each order's first hit, and the oracle's verdict, on actions built
    to meet the edge cases of the anchor's candidate progressions."""
    rng = random.Random(14)
    seen = Counter()
    for _ in range(40):
        act, anchor = anchor_action(rng)
        max_order = 16 if act.rank == 1 else 6
        kernel = kernel_lattice(act)
        declared = TwoSidedAction(act.rank, act.factors, kernel)
        hits = {}
        for q in range(2, max_order + 1):
            want = reference_first_hit(declared, q)
            assert _first_hit(act, kernel, q) == want, (act.to_obj(), q)
            seen.update(anchor_cases(anchor, act.rank, q))
            if want is not None:
                hits[q] = want
        first = min(hits, default=None)
        assert brute_force_free(act, max_order) == (
            BruteVerdict(max_order) if first is None else
            BruteVerdict(max_order, hits[first]))
        seen["found" if hits else "clean"] += 1
        seen["no anchor"] += anchor == {(0,) * act.rank}
        for f in act.factors:
            if isinstance(f, GroupFactor):
                seen["repeated right weights"] += len(set(f.right)) < len(
                    f.right)
            elif not f.has_trivial_summand:
                seen["duplicate sphere weights"] += len(set(f.weights)) < len(
                    f.weights)
    kinds = ("last coordinate 0, whole row", "last coordinate 0, no b",
             "last coordinate shares a factor, solvable",
             "last coordinate shares a factor, unsolvable",
             "prefix not coprime to q", "repeated right weights",
             "duplicate sphere weights", "no anchor", "found", "clean")
    assert min(seen[k] for k in kinds) >= 3, seen


def lead_action(rng, rank):
    """A rank-2/3 action with a declared kernel of rank below the torus
    rank, whose sphere weights have last coordinates 0 or sharing factors
    with small orders: a fixed point then needs the leading numerators to
    share those factors, or to vanish."""
    def weight():
        return tuple(rng.randint(-3, 3) for _ in range(rank - 1)) \
            + (rng.choice([0, 0, 2, -2, 3, 4, 6]),)

    factors = [SphereFactor([weight() for _ in range(rng.choice([1, 2]))])
               for _ in range(rng.choice([1, 2]))]
    if rng.random() < 0.3:
        factors.append(GroupFactor(repeated_weights(rng, 2, rank),
                                   repeated_weights(rng, 2, rank)))
    rows = [tuple(rng.randint(-2, 2) for _ in range(rank))
            for _ in range(rng.randrange(1, rank))]
    return TwoSidedAction(rank, factors, LatticeSubgroup.from_rows(rank, rows))


def test_first_hit_leads_with_a_divisor_of_the_order():
    """t and u*t, u a unit mod q, generate one cyclic group, so the
    lex-least witness of order q leads with gcd(x, q) for its first nonzero
    numerator x, and the oracle walks only those prefixes.  At composite
    orders the first hit matches the Fraction reference, also where it
    leads with a proper divisor of q, like (2, 1)/4, or with the last
    numerator, (0, ..., 0, 1)/q."""
    rng = random.Random(31)
    seen = Counter()
    for rank in [2] * 20 + [3] * 8:
        act = lead_action(rng, rank)
        kernel = kernel_lattice(act)
        assert not kernel.is_full()
        for q in (4, 6, 8, 9, 12):
            want = reference_first_hit(act, q)
            assert _first_hit(act, kernel, q) == want, (act.to_obj(), q)
            if want is None:
                seen["none"] += 1
                continue
            nums = [c * q for c in want.coords]
            lead = next(x for x in nums if x)
            if not any(nums[:-1]):
                seen["zero prefix, rank %d" % rank] += 1
            else:
                seen["lead %s, rank %d" % (
                    "1" if lead == 1 else "1 < d < q", rank)] += 1
    kinds = ["none"] + ["%s, rank %d" % (k, r) for r in (2, 3) for k in (
        "zero prefix", "lead 1", "lead 1 < d < q")]
    assert min(seen[k] for k in kinds) >= 3, seen


def annihilator(rows, rank, q):
    """Numerators over q of the elements of order dividing q that pair
    integrally with every row, in lex order."""
    return [nums for nums in itertools.product(range(q), repeat=rank)
            if all(sum(a * b for a, b in zip(w, nums)) % q == 0
                   for w in rows)]


def test_kernel_elements_act_trivially_randomized():
    rng = random.Random(77)
    for _ in range(150):
        act = random_action(rng)
        kernel = kernel_lattice(act)
        # every torsion element of the kernel subgroup of orders 2, 3, 4
        for q in (2, 3, 4):
            for nums in annihilator(kernel.basis, act.rank, q):
                t = TorusElement(tuple(Fraction(a, q) for a in nums))
                for f in act.factors:
                    if isinstance(f, GroupFactor):
                        left = sorted(t.pair(w) for w in f.left)
                        right = sorted(t.pair(w) for w in f.right)
                        # equal scalars on both sides: a single eigenvalue
                        assert len(set(left)) == 1 and left == right
                    else:
                        assert all(t.pair(w) == 0 for w in f.weights)


def listed_least_escape(diag, v, q, kernel):
    """The lex-least numerators over q of an element of Ann(L)[q] outside
    Ann(K), L given by its Smith data, by listing all |Ann(L)[q]|
    combinations of the generators of Ann(L)[q]: column j of V over
    gcd(diag[j], q), where that is not 1."""
    gens = [([row[j] * (q // gcd(dj, q)) for row in v], gcd(dj, q))
            for j, dj in enumerate(diag) if gcd(dj, q) > 1]
    combos = (tuple(sum(c * g[i] for c, (g, _) in zip(cs, gens)) % q
                    for i in range(len(v)))
              for cs in itertools.product(*(range(d) for _, d in gens)))
    return min(nums for nums in combos if any(
        sum(a * b for a, b in zip(k, nums)) % q for k in kernel.basis))


def test_least_escape_matches_the_listing():
    """The column-by-column read-off gives the listing's witness at the
    escape order.  Rows of L scaled by 2, 3 or 4 and kernel rows by 2 or 3
    make the escape orders 4 and 9 common; an escape order is a prime power,
    as Ann(L)[ab] = Ann(L)[a] + Ann(L)[b] for coprime a and b."""
    rng = random.Random(3939)
    seen = Counter()
    for _ in range(1000):
        rank = rng.randint(1, 4)
        box, scale = (9, 6, 4, 3)[rank - 1], rng.choice([1, 1, 2, 3, 4])
        lattice = LatticeSubgroup.from_rows(rank, [
            tuple(scale * rng.randint(-box, box) for _ in range(rank))
            for _ in range(rng.randint(0, rank))])
        scale = rng.choice([1, 2, 3])
        kernel = LatticeSubgroup.from_rows(rank, [
            tuple(scale * rng.randint(-3, 3) for _ in range(rank))
            for _ in range(rng.randint(1, rank))])
        if lattice.contains(kernel):
            continue
        diag, v = smith_normal_form(lattice.basis, rank)
        q = _escape_order(diag, v, kernel)
        assert _least_escape(diag, v, q, kernel) \
            == listed_least_escape(diag, v, q, kernel), (
                lattice.basis, kernel.basis)
        assert len(sympy.factorint(q)) == 1, q
        seen["composite"] += not sympy.isprime(q)
        seen["order 9"] += q == 9
        seen["rank-deficient"] += len(lattice.basis) < rank
        seen["non-cyclic"] += sum(gcd(d, q) > 1 for d in diag) > 1
    assert seen["composite"] >= 30, seen
    assert seen["order 9"] >= 3, seen
    assert min(seen["rank-deficient"], seen["non-cyclic"]) >= 30, seen


def test_annihilator_basis_spans_the_whole_annihilator():
    # the HNF rows of the numerators of Ann(L)[q] have their pivots, which
    # divide q, on the diagonal, and their combinations with coefficients
    # below q over each pivot give every element of order dividing q that
    # pairs integrally with the rows of L, each exactly once
    rng = random.Random(6060)
    seen = Counter()
    for _ in range(150):
        n = rng.randint(1, 3)
        rows = [tuple(rng.randint(-6, 6) for _ in range(n))
                for _ in range(rng.randint(0, 3))]
        q = rng.randint(2, 6)
        diag, v = smith_normal_form(rows, n)
        basis = _annihilator_basis(diag, v, q)
        assert len(basis) == n and all(
            not any(row[:i]) and row[i] > 0 and q % row[i] == 0
            for i, row in enumerate(basis)), basis
        spanned = Counter(
            tuple(sum(c * row[j] for c, row in zip(cs, basis)) % q
                  for j in range(n))
            for cs in itertools.product(*(range(q // row[i])
                                          for i, row in enumerate(basis))))
        assert sorted(spanned) == annihilator(rows, n, q), (rows, q)
        assert set(spanned.values()) == {1}, (rows, q)
        seen["proper"] += len(spanned) < q ** n
        seen["non-cyclic"] += sum(gcd(d, q) > 1 for d in diag) > 1
        seen["rank-deficient"] += len(rows) < n
    assert min(seen.values()) > 10, seen


def test_escape_order_matches_annihilator_enumeration():
    # the least q at which Ann(L)[q] has an element outside Ann(K); the
    # enumeration costs about q^(rank + 1) / (rank + 1), so rank 3 draws the
    # rows of L from a smaller box
    rng = random.Random(6060)
    seen, deficient = Counter(), 0
    while sum(seen.values()) < 200:
        rank = rng.randint(1, 3)
        box = (9, 6, 4)[rank - 1]
        lattice = LatticeSubgroup.from_rows(rank, [
            tuple(rng.randint(-box, box) for _ in range(rank))
            for _ in range(rng.randint(0, rank))])
        kernel = LatticeSubgroup.from_rows(rank, [
            tuple(rng.randint(-4, 4) for _ in range(rank))
            for _ in range(rng.randint(1, rank))])
        if lattice.contains(kernel):
            continue
        want = next(q for q in itertools.count(2) if any(
            sum(a * b for a, b in zip(k, nums)) % q
            for nums in annihilator(lattice.basis, rank, q)
            for k in kernel.basis))
        assert _escape_order(*smith_normal_form(lattice.basis, rank),
                             kernel) == want, (
            lattice.basis, kernel.basis)
        seen["rank %d, order %s" % (rank, "2" if want == 2 else
                                    "3 or 4" if want < 5 else ">= 5")] += 1
        deficient += len(lattice.basis) < rank
    assert len(seen) == 9 and min(seen.values()) >= 2, seen
    assert 20 <= deficient <= 180, deficient


def cyclic_fixed_point_action(rng, rank, q):
    """An effective action whose non-trivial fixed-point elements are the
    non-zero multiples of n/q, n a random numerator vector with n_j = 1.

    One one-weight sphere factor per row of a random unimodular mix of the
    basis q*e_j, e_i - n_i*e_j (i != j) of L = {w : w.n = 0 mod q}, whose
    annihilator is generated by n/q, and one sphere factor with weights
    q*e_j and every unit vector, which every element of Ann(L) fixes and
    which makes the kernel lattice full."""
    j = rng.randrange(rank)
    n = [rng.randrange(q) for _ in range(rank)]
    n[j] = 1
    unit = [tuple(int(a == i) for a in range(rank)) for i in range(rank)]
    rows = [[q * x for x in unit[j]]] + [
        [x - n[i] * y for x, y in zip(unit[i], unit[j])]
        for i in range(rank) if i != j]
    for _ in range(2 * rank):
        a, b = rng.sample(range(rank), 2)
        c = rng.choice([-2, -1, 1, 2])
        rows[a] = [x + c * y for x, y in zip(rows[a], rows[b])]
    factors = [SphereFactor([row]) for row in rows]
    factors.append(SphereFactor([tuple(q * x for x in unit[j])] + unit))
    return TwoSidedAction(rank, factors), n


def test_lattice_witness_at_high_rank_and_large_order():
    # the oracle's scan at order q walks q^(rank - 1) prefixes, out of reach
    # here; the witness is the least non-zero multiple of n/q by (order,
    # coordinates), which the lattice search reads off the Hermite form of
    # the numerators of Ann(L) at that order
    rng = random.Random(4646)
    orders = Counter()
    for rank in (4, 5, 6):
        for q in (101, 127, 2 * 53, 3 * 37, 7 * 11, 5 ** 3):
            act, n = cyclic_fixed_point_action(rng, rank, q)
            want = min((TorusElement(tuple(Fraction(k * a, q) for a in n))
                        for k in range(1, q)),
                       key=lambda t: (t.order, t.coords))
            got = is_free(act)
            assert kernel_lattice(act).is_full(), act.to_obj()
            assert not got.free and got.witness == want, act.to_obj()
            assert got.witness_order == want.order
            orders[want.order] += 1
    assert set(orders) == {2, 3, 5, 7, 101, 127}, orders


def sympy_graded_rank(srels, syms, weights, degree):
    """Rank of the weighted-degree-d piece from a sympy Groebner basis."""
    monos = []

    def gen(i, exps, rem):
        if i == len(syms):
            if rem == 0:
                monos.append(tuple(exps))
            return
        e = 0
        while e * weights[i] <= rem:
            gen(i + 1, exps + [e], rem - e * weights[i])
            e += 1

    gen(0, [], degree)
    if not monos:
        return 0
    gb = sympy.groebner(srels, *syms, order="grevlex") if srels else None
    nfs = []
    for exps in monos:
        m = sympy.prod([s ** e for s, e in zip(syms, exps)])
        nfs.append(sympy.Poly(gb.reduce(m)[1] if gb is not None else m, *syms))
    monoms = sorted({mm for p in nfs for mm in p.monoms()})
    mat = sympy.Matrix([[p.coeff_monomial(mm) for mm in monoms] for p in nfs])
    return mat.rank()


def test_betti_matches_sympy_on_mixed_degree_rings():
    rng = random.Random(99)
    x, z = sympy.symbols("x z")
    ring = GradedPolyRing(("x", "z"), (2, 4))
    xg, zg = ring.gens()
    for _ in range(12):
        rels, srels = [], []
        for _ in range(rng.randint(1, 2)):
            # homogeneous in the weighted grading: monomials x^a z^b with
            # 2a + 4b = d
            d = rng.choice([4, 6, 8])
            p = ring.zero()
            sp = sympy.Integer(0)
            for a in range(0, d // 2 + 1):
                rem = d - 2 * a
                if rem % 4:
                    continue
                b = rem // 4
                c = rng.randint(-2, 2)
                p = p + c * xg ** a * zg ** b
                sp += c * x ** a * z ** b
            if p.is_zero():
                continue
            rels.append(p)
            srels.append(sp)
        if not rels:
            continue
        q = GradedQuotient(ring, rels)
        ours = q.betti(16)
        for deg in range(0, 17, 2):
            theirs = sympy_graded_rank(srels, (x, z), (2, 4), deg)
            assert ours[deg] == theirs, (deg, [str(r) for r in rels])


def test_witness_is_minimal_via_exhaustion():
    # independent minimality check: no smaller-order element has a fixed
    # point outside the kernel
    rng = random.Random(31337)
    found = 0
    for _ in range(120):
        act = random_action(rng)
        v = is_free(act)
        if v.free or v.witness_order > 12:
            continue
        found += 1
        b = brute_force_free(act, v.witness_order)
        assert b.found_witness and b.witness_order == v.witness_order
        if v.witness_order > 2:
            b_small = brute_force_free(act, v.witness_order - 1)
            assert not b_small.found_witness
    assert found > 40
