"""Built-in reference-value suite.

Every check pins a concrete published value or verdict this toolkit must
reproduce exactly: degree tables, Dynkin indices, freeness verdicts with
witness orders, cohomology presentations and Betti tables, pi_3 groups, and
the classification search output.  The registry is deterministic and the
checks are independent, so the suite is order-independent.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .groups import (SU, Sp, Spin, G2, F4, E6, E7, E8, SimpleGroupId,
                     degrees_of, group_dimension, catalog_rules,
                     catalog_lookup, UnsupportedGroupError)
from .weights import (standard_rep, spin_rep, su2_rep_from_label, su2_irrep,
                      su2_rep, realify, rep_tensor, rep_sum, restrict_circle,
                      restrict_coords, clebsch_gordan, dynkin_index,
                      catalog_dynkin_index, su2_homs, chern_pullback,
                      euler_class, make_rep, g2_su2_class)
from .freeness import (is_free, brute_force_free, kernel_lattice,
                       TwoSidedAction, SphereFactor)
from .cohomology import (classifying_ring, GradedQuotient, ideal_identities,
                         pi3_cokernel, chi_pi)
from .classifier import (rank1_two_sided_search, sp4_su2squared_search,
                         rhs_search, rhs_manifold_classes, finiteness_bounds,
                         candidate_g_factors)
from . import constructions as cons

CHECKS = []


def check(name):
    def wrap(fn):
        CHECKS.append((name, fn))
        return fn
    return wrap


def _expect(ok, detail=""):
    return bool(ok), detail


# ---------------------------------------------------------------------------
# Degree table and dimensions
# ---------------------------------------------------------------------------

EXPECTED_DEGREES = {
    "A": lambda l: tuple(range(2, l + 2)),
    "B": lambda l: tuple(range(2, 2 * l + 1, 2)),
    "C": lambda l: tuple(range(2, 2 * l + 1, 2)),
    "D": lambda l: tuple(sorted(list(range(2, 2 * l - 1, 2)) + [l])),
}
EXPECTED_EXCEPTIONAL = {
    G2: (2, 6), F4: (2, 6, 8, 12), E6: (2, 5, 6, 8, 9, 12),
    E7: (2, 6, 8, 10, 12, 14, 18), E8: (2, 8, 12, 14, 18, 20, 24, 30),
}
CLASSICAL_DIMENSION = {
    "A": lambda l: (l + 1) ** 2 - 1,
    "B": lambda l: l * (2 * l + 1),
    "C": lambda l: l * (2 * l + 1),
    "D": lambda l: l * (2 * l - 1),
}


@check("degrees-table-classical")
def _(_=None):
    bad = []
    for fam, lo in (("A", 1), ("B", 3), ("C", 2), ("D", 4)):
        for l in range(lo, 9):
            gid = SimpleGroupId(fam, l)
            if degrees_of(gid) != EXPECTED_DEGREES[fam](l):
                bad.append(str(gid))
    return _expect(not bad, "mismatches: %s" % bad)


@check("degrees-table-exceptional")
def _(_=None):
    bad = [str(g) for g, d in EXPECTED_EXCEPTIONAL.items()
           if degrees_of(g) != d]
    return _expect(not bad, "mismatches: %s" % bad)


@check("degrees-su4-spin8")
def _(_=None):
    return _expect(degrees_of(SU(4)) == (2, 3, 4)
                   and degrees_of(Spin(8)) == (2, 4, 4, 6)
                   and degrees_of(SU(2)) == (2,))


@check("dimension-identity")
def _(_=None):
    bad = []
    for fam, lo in (("A", 1), ("B", 3), ("C", 2), ("D", 4)):
        for l in range(lo, 9):
            gid = SimpleGroupId(fam, l)
            if group_dimension(gid) != CLASSICAL_DIMENSION[fam](l):
                bad.append(str(gid))
    for g, dim in ((G2, 14), (F4, 52), (E6, 78), (E7, 133), (E8, 248)):
        if group_dimension(g) != dim:
            bad.append(str(g))
    return _expect(not bad, "mismatches: %s" % bad)


# ---------------------------------------------------------------------------
# Catalog rows and Dynkin indices
# ---------------------------------------------------------------------------

# index column of the homogeneous-pair table: rows killing all but one
# degree, then rows keeping two or more degrees
LOWER_TOP_INDEX_COLUMN = {
    "SU(n)/SU(n-1)": 1, "Sp(2n)/Sp(2n-2)": 1, "Spin(2n+1)/Spin(2n)": 1,
    "Spin(2n+1)/Spin(2n-1)": 1, "Sp(4)/SU(2)i2": 2, "Sp(4)/SU(2)i10": 10,
    "SU(3)/SO(3)": 4, "Spin(9)/Spin(7)spin": 1, "G2/SU(3)": 1,
    "G2/SU(2)i1": 1, "G2/SU(2)i3": 3, "G2/SO(3)i4": 4, "G2/SO(3)i28": 28,
    "F4/Spin(9)": 1,
    "Spin(2n)/Spin(2n-2)": 1, "Spin(2n)/Spin(2n-3)": 1,
    "SU(2n+1)/Sp(2n)": 1, "SU(2n+1)/SO(2n+1)": 2,
    "Spin(10)/Spin(7)spin": 1, "SU(7)/G2": 2, "Spin(9)/G2": 1,
    "Spin(10)/G2": 1,
}


@check("catalog-index-column")
def _(_=None):
    bad = []
    for rule in catalog_rules():
        if rule.key not in LOWER_TOP_INDEX_COLUMN:
            continue
        entry = rule.instantiate(0 if rule.max_n == 0 else rule.min_n)
        if entry.dynkin_index != LOWER_TOP_INDEX_COLUMN[rule.key]:
            bad.append(rule.key)
    missing = set(LOWER_TOP_INDEX_COLUMN) - {r.key for r in catalog_rules()}
    return _expect(not bad and not missing,
                   "bad: %s missing: %s" % (bad, missing))


@check("catalog-index-recomputed-from-weights")
def _(_=None):
    bad, unsupported = [], []
    for rule in catalog_rules():
        ns = [0] if rule.max_n == 0 else list(range(rule.min_n,
                                                    rule.min_n + 3))
        for n in ns:
            entry = rule.instantiate(n)
            try:
                idx = catalog_dynkin_index(entry)
            except UnsupportedGroupError:
                unsupported.append(rule.key)
                continue
            if idx != entry.dynkin_index:
                bad.append((rule.key, n, idx, entry.dynkin_index))
    return _expect(not bad and unsupported == ["E6/F4"] * len(unsupported),
                   "bad: %s unsupported: %s" % (bad, sorted(set(unsupported))))


@check("catalog-degree-bookkeeping")
def _(_=None):
    for rule in catalog_rules():
        ns = [0] if rule.max_n == 0 else list(range(rule.min_n,
                                                    rule.min_n + 4))
        for n in ns:
            rule.instantiate(n).validate()
    return _expect(True)


@check("catalog-lookup-rows")
def _(_=None):
    berger = catalog_lookup(Sp(4), SU(2), "S3V")[0]
    g2so3 = [e for e in catalog_lookup(G2, SU(2)) if e.dynkin_index == 28][0]
    cap2 = catalog_lookup(F4, Spin(9))[0]
    ok = (berger.dynkin_index == 10 and berger.degrees_added == (4,)
          and berger.centralizer == "finite"
          and g2so3.degrees_added == (6,) and g2so3.centralizer == "finite"
          and cap2.degrees_added == (12,) and cap2.degrees_removed == (4,)
          and cap2.quotient_name == "CaP^2" and cap2.dynkin_index == 1)
    return _expect(ok)


@check("dynkin-su2-values")
def _(_=None):
    ok = (dynkin_index(su2_rep_from_label("S3V"), 1) == 10
          and dynkin_index(su2_rep_from_label("2V"), 1) == 2
          and dynkin_index(su2_rep_from_label("V+2C"), 1) == 1
          and dynkin_index(su2_rep_from_label("V+C"), 1) == 1
          and dynkin_index(su2_rep_from_label("S2V"), 1) == 4)
    return _expect(ok)


@check("dynkin-g2-class-set")
def _(_=None):
    vals = sorted(dynkin_index(r, 2) for r in su2_homs(G2))
    return _expect(vals == [1, 3, 4, 28], "got %s" % vals)


@check("su2-homs-counts")
def _(_=None):
    sp4 = [r.label for r in su2_homs(Sp(4))]
    su3 = [r.label for r in su2_homs(SU(3))]
    return _expect(sp4 == ["V+2C", "2V", "S3V"] and su3 == ["V+C", "S2V"],
                   "sp4=%s su3=%s" % (sp4, su3))


@check("g2-class-eigenvalue-patterns")
def _(_=None):
    pats = {
        1: (1, 1, -1, -1, 0, 0, 0),
        3: (2, 1, 1, 0, -1, -1, -2),
        4: (2, 2, 0, 0, 0, -2, -2),
        28: (6, 4, 2, 0, -2, -4, -6),
    }
    for idx, pat in pats.items():
        got = tuple(sorted((w[0] for w in g2_su2_class(idx).weights),
                           reverse=True))
        if got != tuple(sorted(pat, reverse=True)):
            return _expect(False, "index %d: %s" % (idx, got))
    return _expect(True)


# ---------------------------------------------------------------------------
# Representation constructions
# ---------------------------------------------------------------------------


@check("g2-principal-circle-exponents")
def _(_=None):
    rep = restrict_circle(standard_rep(G2), (2, 4))
    got = sorted(w[0] for w in rep.weights)
    return _expect(got == [-6, -4, -2, 0, 2, 4, 6], "got %s" % got)


@check("spin9-restriction-splits")
def _(_=None):
    nine = spin_rep(9)
    split = rep_sum(spin_rep(8, "plus"), spin_rep(8, "minus"))
    return _expect(sorted(nine.weights) == sorted(split.weights)
                   and len(spin_rep(8, "minus").weights) == 8)


@check("spin8-minus-circle-restriction")
def _(_=None):
    rep = restrict_coords(spin_rep(8, "minus"), (0,))
    got = sorted(w[0] for w in rep.weights)
    return _expect(got == [-1] * 4 + [1] * 4 and rep.lattice.scale == 2,
                   "got %s" % got)


@check("realify-standard-su2")
def _(_=None):
    v = su2_irrep(1)
    return _expect(sorted(realify(v).weights) == sorted(((1,), (-1,)) * 2))


@check("tensor-double-cover-weights")
def _(_=None):
    v1 = make_rep(2, [(1, 0), (-1, 0)])
    v2 = make_rep(2, [(0, 1), (0, -1)])
    w12 = rep_tensor(v1, v2)
    return _expect(sorted(w12.weights)
                   == [(-1, -1), (-1, 1), (1, -1), (1, 1)])


@check("clebsch-gordan-small")
def _(_=None):
    ok = (clebsch_gordan(1, 1) == [2, 0] and clebsch_gordan(1, 0) == [1]
          and clebsch_gordan(2, 1) == [3, 1])
    return _expect(ok)


@check("clebsch-gordan-weight-multisets")
def _(_=None):
    for a in range(9):
        for b in range(9):
            tensor = rep_tensor(su2_irrep(a), su2_irrep(b))
            pieces = Counter()
            for k in clebsch_gordan(a, b):
                pieces.update(w[0] for w in su2_irrep(k).weights)
            if Counter(w[0] for w in tensor.weights) != pieces:
                return _expect(False, "a=%d b=%d" % (a, b))
    return _expect(True)


@check("dynkin-symmetric-power-formula")
def _(_=None):
    vals = [dynkin_index(su2_irrep(k), 1) for k in range(1, 7)]
    expect = [k * (k + 1) * (k + 2) // 6 for k in range(1, 7)]
    return _expect(vals == expect, "got %s" % vals)


@check("dynkin-additive-under-sum")
def _(_=None):
    a, b = su2_rep([4, 2]), su2_rep([3, 3, 1])
    lhs = dynkin_index(rep_sum(a, b), 1)
    rhs = dynkin_index(a, 1) + dynkin_index(b, 1)
    return _expect(lhs == rhs)


# ---------------------------------------------------------------------------
# Characteristic classes
# ---------------------------------------------------------------------------


@check("chern-pullback-block-embedding")
def _(_=None):
    ring = classifying_ring(["su2", "su2", "su2"])
    z1, z2, z3 = ring.gens()
    left = make_rep(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)])
    return _expect(chern_pullback(left, 2, ring) == -(z1 + z2)
                   and chern_pullback(left, 4, ring) == z1 * z2)


@check("chern-multiplier-cubic")
def _(_=None):
    ring = classifying_ring(["su2"])
    z, = ring.gens()
    rep = make_rep(1, [(3,), (1,), (-1,), (-3,)])
    # c2 V = -z, so c2(S3 V) = 10 c2 V reads -10 z here
    return _expect(chern_pullback(rep, 2, ring) == -10 * z)


@check("euler-tensor-line")
def _(_=None):
    ring = classifying_ring(["circle", "su2"])
    x, z = ring.gens()
    e, det = euler_class(make_rep(2, [(1, 1), (1, -1)]), ring)
    return _expect(e == x * x - z and det)


@check("euler-sum-line")
def _(_=None):
    ring = classifying_ring(["circle", "su2"])
    x, z = ring.gens()
    e, det = euler_class(make_rep(2, [(0, 1), (0, -1), (1, 0)]), ring)
    return _expect(e == -(z * x) and det)


@check("euler-real-sign-undetermined")
def _(_=None):
    ring = classifying_ring(["su2", "su2", "su2"])
    z1, z2, z3 = ring.gens()
    v3 = make_rep(3, [(0, 0, 1), (0, 0, -1)])
    w12 = make_rep(3, rep_tensor(make_rep(3, [(1, 0, 0), (-1, 0, 0)]),
                                 make_rep(3, [(0, 1, 0), (0, -1, 0)])).weights,
                   reality="real")
    bundle = rep_sum(rep_sum(realify(v3), realify(v3)), w12)  # n = 3
    e, det = euler_class(bundle, ring)
    target = (-z3) ** 2 * (z2 - z1)
    return _expect((e == target or e == -target) and not det,
                   "euler %s" % e)


@check("euler-multiplicative-on-sums")
def _(_=None):
    ring = classifying_ring(["circle", "su2"])
    a = make_rep(2, [(1, 1), (1, -1)])
    b = make_rep(2, [(2, 0)])
    ea, _ = euler_class(a, ring)
    eb, _ = euler_class(b, ring)
    eab, _ = euler_class(rep_sum(a, b), ring)
    return _expect(eab == ea * eb)


# ---------------------------------------------------------------------------
# Freeness verdicts
# ---------------------------------------------------------------------------


@check("free-exotic-pair-sp4")
def _(_=None):
    return _expect(is_free(cons.gromoll_meyer_action()).free)


@check("witness-sp4-cubic-vs-block-order3")
def _(_=None):
    v = is_free(cons.su2_pair_action(Sp(4), "S3V", "V+2C"))
    return _expect(not v.free and v.witness_order == 3
                   and v.witness.coords == (Fraction(1, 3),),
                   "order %s witness %s" % (v.witness_order, v.witness))


@check("witness-sp4-cubic-vs-doubled-order4")
def _(_=None):
    v = is_free(cons.su2_pair_action(Sp(4), "S3V", "2V"))
    return _expect(not v.free and v.witness_order == 4)


@check("witness-su3-order3")
def _(_=None):
    v = is_free(cons.su2_pair_action(SU(3), "V+C", "S2V"))
    return _expect(not v.free and v.witness_order == 3)


G2_WITNESS_TABLE = {(1, 3): 2, (1, 4): 3, (1, 28): 3, (3, 28): 5, (4, 28): 3}


@check("g2-pair-table")
def _(_=None):
    got = {}
    for i, j in ((1, 3), (1, 4), (1, 28), (3, 4), (3, 28), (4, 28)):
        v = is_free(cons.g2_pair_action(i, j))
        got[(i, j)] = None if v.free else v.witness_order
    ok = got.pop((3, 4)) is None and got == G2_WITNESS_TABLE
    return _expect(ok, "got %s" % got)


@check("free-torus-squared-sphere-products")
def _(_=None):
    return _expect(all(is_free(cons.torus_squared_sphere_action(n)).free
                       for n in range(2, 7)))


@check("free-circle-su2-sphere-products")
def _(_=None):
    return _expect(all(is_free(cons.circle_su2_sphere_action(e)).free
                       for e in range(1, 4)))


@check("free-sp4-su2xsu2-both")
def _(_=None):
    va = is_free(cons.sp4_su2xsu2_action("block"))
    vb = is_free(cons.sp4_su2xsu2_action("split"))
    return _expect(va.free and vb.free and va.kernel.is_full()
                   and vb.kernel.is_full())


@check("kernel-torus-squared-trivial")
def _(_=None):
    k = kernel_lattice(cons.torus_squared_sphere_action(3))
    return _expect(k.is_full())


@check("kernel-one-sided-rule")
def _(_=None):
    from .freeness import GroupFactor, TwoSidedAction
    act = TwoSidedAction(1, [GroupFactor([(3,), (1,), (-1,), (-3,)],
                                         [(0,)] * 4)])
    k = kernel_lattice(act)
    return _expect(k.is_full(), "kernel %s" % (k.basis,))


@check("spin9-restricted-to-spin3-sums-of-spin")
def _(_=None):
    # the 16-dimensional spin representation restricted to Spin(3) is a
    # sum of copies of the 4-dimensional real spin representation
    rep = restrict_circle(spin_rep(9), (2, 0, 0, 0))
    got = Counter(w[0] for w in rep.weights)
    return _expect(got == Counter({2: 8, -2: 8})
                   and rep.lattice.scale == 2, "got %s" % got)


@check("spin9-circle-on-s15-unique-free-class")
def _(_=None):
    # among circle subgroups of Spin(9), exactly one conjugacy class acts
    # freely on the unit sphere of the spin representation: the one whose
    # sixteen spin pairings are all +-1 (all other classes leave an
    # element of finite order with a fixed eigenvector)
    from itertools import product as iproduct
    frees = []
    for c in iproduct(range(-2, 3), repeat=4):
        if not any(c):
            continue
        spins = [sum(s * x for s, x in zip(signs, c))
                 for signs in iproduct((1, -1), repeat=4)]
        if any(v % 2 for v in spins):
            continue  # does not lift to a circle in the spin group
        act = TwoSidedAction(1, [SphereFactor([(v // 2,) for v in spins])])
        verdict = is_free(act)
        genuinely_free = verdict.free and verdict.kernel.is_full()
        expected = sorted(map(abs, c)) == [0, 0, 0, 2]
        if genuinely_free != expected:
            return _expect(False, "direction %s" % (c,))
        if genuinely_free:
            frees.append(c)
    return _expect(len(frees) == 8, "free directions: %s" % (frees,))


def criterion3_actions():
    """Every action appearing in the freeness acceptance criterion."""
    acts = [cons.gromoll_meyer_action(),
            cons.su2_pair_action(Sp(4), "S3V", "V+2C"),
            cons.su2_pair_action(Sp(4), "S3V", "2V"),
            cons.su2_pair_action(SU(3), "V+C", "S2V"),
            cons.sp4_su2xsu2_action("block"),
            cons.sp4_su2xsu2_action("split")]
    acts.extend(cons.g2_pair_action(i, j)
                for i, j in ((1, 3), (1, 4), (1, 28), (3, 4), (3, 28),
                             (4, 28)))
    acts.extend(cons.torus_squared_sphere_action(n) for n in range(2, 7))
    acts.extend(cons.circle_su2_sphere_action(e) for e in range(1, 4))
    return acts


@check("oracle-agreement-up-to-60")
def _(_=None):
    for act in criterion3_actions():
        exact = is_free(act)
        brute = brute_force_free(act, 60)
        if not brute.exhaustive:
            return _expect(False, "non-exhaustive oracle run")
        if exact.free != (not brute.found_witness):
            return _expect(False, "verdict disagreement on %s" % (act,))
        if not exact.free and exact.witness_order != brute.witness_order:
            return _expect(False, "witness order disagreement on %s" % (act,))
    return _expect(True)


# ---------------------------------------------------------------------------
# Cohomology
# ---------------------------------------------------------------------------


@check("classifying-ring-conventions")
def _(_=None):
    r1 = classifying_ring(["circle", "circle"])
    r2 = classifying_ring(["su2"] * 3)
    r3 = classifying_ring([])
    return _expect(r1.names == ("u", "v") and r1.degrees == (2, 2)
                   and r2.names == ("z1", "z2", "z3")
                   and r2.degrees == (4, 4, 4) and r3.ngens == 0)


def cp_sum_expected_betti(n):
    ranks = [0] * (2 * n + 1)
    ranks[0] = ranks[2 * n] = 1
    for k in range(1, n):
        ranks[2 * k] = 2
    return ranks


def hp_sum_expected_betti(n):
    ranks = [0] * (4 * n + 1)
    ranks[0] = ranks[4 * n] = 1
    for k in range(1, n):
        ranks[4 * k] = 2
    return ranks


def cp_hp_expected_betti(e):
    dim = 8 * e + 4
    ranks = [0] * (dim + 1)
    for a in range(0, 2 * (4 * e + 2) + 1, 2):
        ranks[a] += 1
    for b in range(1, 2 * e + 1):
        ranks[4 * b] += 1
    return ranks


@check("betti-cp-sums")
def _(_=None):
    for n in range(2, 7):
        q = cons.cp_sum_ring(n)
        if q.betti(2 * n) != cp_sum_expected_betti(n):
            return _expect(False, "n=%d" % n)
    return _expect(True)


@check("betti-hp-sums-via-elimination")
def _(_=None):
    for n in range(2, 5):
        full = cons.hp_sum_full_quotient(n)
        red = full.eliminate_linear("z3")
        if red.betti(4 * n) != hp_sum_expected_betti(n):
            return _expect(False, "n=%d betti" % n)
        ring = red.ring
        a, b = ring.gens()
        target = GradedQuotient(ring, [a * b, a ** n - b ** n])
        if list(red.gb) != list(target.gb):
            return _expect(False, "n=%d normal forms differ" % n)
    return _expect(True)


@check("betti-cp-hp-sums")
def _(_=None):
    for e in (1, 2):
        q = cons.cp_hp_sum_ring(e)
        if q.betti(8 * e + 4) != cp_hp_expected_betti(e):
            return _expect(False, "e=%d" % e)
    return _expect(True)


@check("sp4-presentation-relations")
def _(_=None):
    full = cons.hp_sum_full_quotient(2)
    ring = full.ring
    z1, z2, z3 = ring.gens()
    rels = set(full.relations)
    has_linear = (z3 - z1 - z2 in rels) or (z1 + z2 - z3 in rels)
    has_product = z1 * z2 in rels
    return _expect(has_linear and has_product,
                   "relations %s" % [str(r) for r in full.relations])


@check("ideal-identity-two-circles")
def _(_=None):
    for n in range(2, 9):
        q = cons.cp_sum_ring(n)
        u, v = q.ring.gens()
        cert = ideal_identities(q, (u - v) * (u + v) ** (n - 1),
                                u ** n - v ** n)
        if not (cert.holds and cert.integral):
            return _expect(False, "n=%d" % n)
    return _expect(True)


@check("ideal-identity-circle-su2")
def _(_=None):
    for e in range(1, 5):
        q = cons.cp_hp_sum_ring(e)
        x, z = q.ring.gens()
        cert = ideal_identities(q, (x * x - z) ** (2 * e + 1),
                                x ** (4 * e + 2) - z ** (2 * e + 1))
        if not (cert.holds and cert.integral):
            return _expect(False, "e=%d" % e)
    return _expect(True)


@check("ideal-identity-negative-case")
def _(_=None):
    q = cons.cp_sum_ring(2)
    u, v = q.ring.gens()
    return _expect(not ideal_identities(q, u, v).holds)


@check("spin-bundle-sign-branch")
def _(_=None):
    return _expect(cons.spin_bundle_sign_branches() == [-1])


@check("spin-bundle-ring-betti")
def _(_=None):
    q = cons.spin_bundle_ring()
    b = q.betti(16)
    ok = b[0] == 1 and b[4] == 1 and b[8] == 2 and b[12] == 1 and b[16] == 1 \
        and sum(b) == 6 and q.poincare_symmetric()
    return _expect(ok, "betti %s" % b)


@check("poincare-duality-stock-rings")
def _(_=None):
    rings = [cons.cp_sum_ring(n) for n in range(2, 7)]
    rings += [cons.hp_sum_ring(n) for n in range(2, 5)]
    rings += [cons.cp_hp_sum_ring(e) for e in (1, 2)]
    rings.append(cons.spin_bundle_ring())
    return _expect(all(q.poincare_symmetric() for q in rings))


@check("regular-sequence-rank-prediction")
def _(_=None):
    for n in range(2, 7):
        q = cons.cp_sum_ring(n)
        if q.total_rank() != q.expected_total_rank():
            return _expect(False, "n=%d" % n)
    for e in (1, 2):
        q = cons.cp_hp_sum_ring(e)
        if q.total_rank() != q.expected_total_rank():
            return _expect(False, "e=%d" % e)
    return _expect(True)


# ---------------------------------------------------------------------------
# pi_3 and chi_pi
# ---------------------------------------------------------------------------


@check("pi3-values")
def _(_=None):
    ok = (str(pi3_cokernel([[10]])) == "Z/10"
          and str(pi3_cokernel([[3 - 4]])) == "0"
          and str(pi3_cokernel([[4]])) == "Z/4"
          and str(pi3_cokernel([[28]])) == "Z/28"
          and str(pi3_cokernel([[1 - 2]])) == "0"
          and str(pi3_cokernel([[3]])) == "Z/3")
    return _expect(ok)


@check("chi-pi-values")
def _(_=None):
    return _expect(chi_pi([4], [7]) == 0 and chi_pi([], [9]) == -1
                   and chi_pi([4, 4], [7]) == 1)


# ---------------------------------------------------------------------------
# Classification searches
# ---------------------------------------------------------------------------

RHS_EXPECTED_CLASSES = {
    "S^3": (3, "Z"), "S^4": (4, "0"), "S^5": (5, "0"), "S^6": (6, "0"),
    "S^7": (7, "0"), "S^8": (8, "0"), "S^9": (9, "0"), "S^10": (10, "0"),
    "S^11": (11, "0"), "S^12": (12, "0"), "S^13": (13, "0"),
    "S^14": (14, "0"), "S^15": (15, "0"), "S^16": (16, "0"),
    "UT(S^4)": (7, "Z/2"), "UT(S^6)": (11, "0"), "UT(S^8)": (15, "0"),
    "Wu^5": (5, "Z/4"), "Berger^7": (7, "Z/10"),
    "G2/SU(2)[3]": (11, "Z/3"), "G2/SO(3)[4]": (11, "Z/4"),
    "G2/SO(3)[28]": (11, "Z/28"),
    "Sp(4)//(V+2C|2V)": (7, "0"),
    "G2//(S2V+2V|2S2V+C)": (11, "0"),
}


@check("rhs-search-16")
def _(_=None):
    classes = rhs_manifold_classes(rhs_search(16))
    got = {label: (es[0].dim, str(es[0].pi3))
           for label, es in classes.items()}
    return _expect(got == RHS_EXPECTED_CLASSES,
                   "extra: %s missing: %s" % (
                       sorted(set(got) - set(RHS_EXPECTED_CLASSES)),
                       sorted(set(RHS_EXPECTED_CLASSES) - set(got))))


@check("rhs-chi-pi-nonpositive")
def _(_=None):
    return _expect(all(e.chi_pi() <= 0 for e in rhs_search(16)))


@check("rank1-search-results")
def _(_=None):
    _, su3_free = rank1_two_sided_search(SU(3))
    _, sp4_free = rank1_two_sided_search(Sp(4))
    _, g2_free = rank1_two_sided_search(G2)
    ok = (su3_free == []
          and [(p.left_label, p.right_label) for p in sp4_free]
          == [("V+2C", "2V")]
          and [(p.left_label, p.right_label) for p in g2_free]
          == [("S2V+2V", "2S2V+C")]
          and str(sp4_free[0].pi3) == "0" and str(g2_free[0].pi3) == "0")
    return _expect(ok)


@check("sp4-su2xsu2-search")
def _(_=None):
    _, free = sp4_su2squared_search()
    pairs = sorted((r.left_label, r.right_label) for r in free)
    return _expect(pairs == [("2V1", "V2+2C"), ("V1+V2", "4C")],
                   "got %s" % pairs)


@check("finiteness-bounds")
def _(_=None):
    b7 = finiteness_bounds(7)
    b2 = finiteness_bounds(2)
    cands = candidate_g_factors(11)
    return _expect(b7["max_degree"] == 14 and b2["max_factors"] == 2
                   and b7["max_pi_odd"] == 7
                   and 0 < len(cands) < 100
                   and all(hasattr(c, "family") for c in cands))


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def run_all(names=None):
    """Run the reference suite; returns a list of (name, ok, detail)."""
    results = []
    for name, fn in CHECKS:
        if names and name not in names:
            continue
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure with its message
            ok, detail = False, "exception: %s" % (exc,)
        results.append((name, ok, detail))
    return results
