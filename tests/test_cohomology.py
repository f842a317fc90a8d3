import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from biquot.polyring import GradedPolyRing, Poly, groebner_basis, reduce_poly, \
    poly_from_obj, _buchberger
from biquot.cohomology import (
    classifying_ring, GradedQuotient,
    ideal_identities, pi3_cokernel, chi_pi, FiniteAbelianGroup,
)
from biquot import cohomology, constructions as cons


# -- polynomial layer -----------------------------------------------------------


def test_ring_validation():
    with pytest.raises(ValueError):
        GradedPolyRing(("u", "u"), (2, 2))
    with pytest.raises(ValueError):
        GradedPolyRing(("u",), (3,))


def test_poly_arithmetic_and_order():
    ring = GradedPolyRing(("x", "z"), (2, 4))
    x, z = ring.gens()
    p = (x * x - z) ** 2
    assert p == x ** 4 - 2 * x * x * z + z * z
    assert p.degree() == 8
    # graded order: the degree-4 generator beats the square of the
    # degree-2 generator within the same grading
    assert (x * x - z).leading_monomial() == (0, 1)
    assert str(x * x - z) == "-z + x^2"


def test_homogeneity_checks():
    ring = GradedPolyRing(("u", "v"), (2, 2))
    u, v = ring.gens()
    assert (u + v).is_homogeneous()
    assert not (u + v * v).is_homogeneous()
    with pytest.raises(ValueError):
        (u + v * v).degree()


def test_substitute():
    ring = GradedPolyRing(("y",), (4,))
    y, = ring.gens()
    target = classifying_ring(["circle"])
    x, = target.gens()
    assert (y * y).substitute(target, {"y": -x ** 2}) == x ** 4


def test_poly_serialization_round_trip():
    ring = GradedPolyRing(("u", "v"), (2, 2))
    u, v = ring.gens()
    p = 3 * u * u - 2 * u * v + v * v
    assert poly_from_obj(ring, p.to_obj()) == p


def test_reduce_with_quotients():
    ring = classifying_ring(["circle", "circle"])
    u, v = ring.gens()
    basis = [u * v]
    p = u * u * v + v
    rem, quots = reduce_poly(p, basis, with_quotients=True)
    assert rem == v
    assert quots[0] * basis[0] + rem == p


def test_reduce_with_quotients_keeps_index_past_zero_basis_element():
    ring = classifying_ring(["circle", "circle"])
    u, v = ring.gens()
    rem, quots = reduce_poly(u * v, [ring.zero(), u], with_quotients=True)
    assert rem.is_zero()
    assert quots == [ring.zero(), v]


def test_reduce_rejects_mixed_rings():
    ring = classifying_ring(["circle", "circle"])
    other = GradedPolyRing(("s", "t"), (2, 2))
    with pytest.raises(ValueError, match="mixed rings"):
        reduce_poly(ring.gen("u"), [other.gen("s")])


def _monomials_by_box_filter(ring, degree):
    """Reference enumeration: the whole exponent box, filtered by degree and
    sorted by monomial_key."""
    box = product(*(range(degree // d + 1) for d in ring.degrees))
    return sorted((e for e in box if ring.monomial_degree(e) == degree),
                  key=ring.monomial_key)


def _reduce_by_polys(p, basis):
    """Reference division with one new Poly per step: the leading term by
    max() over all terms, the first divisor in basis order."""
    ring = p.ring
    key = ring.monomial_key
    quot = [ring.zero() for _ in basis]
    rem = ring.zero()
    work = p
    while not work.is_zero():
        m = max(work.terms, key=key)
        c = work.terms[m]
        for i, b in enumerate(basis):
            if b.is_zero():
                continue
            lm = max(b.terms, key=key)
            if all(a <= e for a, e in zip(lm, m)):
                step = Poly(ring, {tuple(e - a for a, e in zip(lm, m)):
                                   Fraction(c, 1) / b.terms[lm]})
                work = work - step * b
                quot[i] = quot[i] + step
                break
        else:
            rem = rem + Poly(ring, {m: c})
            work = work - Poly(ring, {m: c})
    return rem, quot


def test_reduce_poly_matches_reference_division():
    rng = random.Random(2024)
    coeffs = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]

    def random_poly(ring, degrees, nterms):
        pool = [m for d in degrees for m in _monomials_by_box_filter(ring, d)]
        return Poly(ring, {m: rng.choice(coeffs)
                           for m in rng.sample(pool, min(nterms, len(pool)))})

    for degrees in ((2, 2), (2, 4), (2, 2, 4)):
        ring = GradedPolyRing(tuple("uvw"[:len(degrees)]), degrees)
        for case in range(25):
            homogeneous = case % 2 == 0
            top = rng.choice((4, 6, 8))

            def degs(d):
                return (d,) if homogeneous else tuple(range(0, d + 1, 2))

            basis = [random_poly(ring, degs(rng.choice((2, 4))),
                                 rng.randint(1, 4))
                     for _ in range(rng.randint(1, 4))]
            if case % 5 == 0:
                basis.insert(rng.randint(0, len(basis)), ring.zero())
            p = random_poly(ring, degs(top), rng.randint(1, 8))
            rem, quots = reduce_poly(p, basis, with_quotients=True)
            ref_rem, ref_quots = _reduce_by_polys(p, basis)
            assert rem == ref_rem and quots == ref_quots
            assert reduce_poly(p, basis) == rem
            total = rem
            for q, b in zip(quots, basis):
                total = total + q * b
            assert total == p


def test_groebner_of_monomial_ideal_is_itself():
    ring = classifying_ring(["circle", "circle"])
    u, v = ring.gens()
    gb = groebner_basis([u * v])
    assert gb == [u * v]


def test_groebner_vs_sympy_random():
    rng = random.Random(17)
    x, y = sympy.symbols("x y")
    ring = GradedPolyRing(("u", "v"), (2, 2))
    u, v = ring.gens()
    for _ in range(15):
        rels = []
        srels = []
        for _ in range(2):
            deg = rng.randint(1, 3)
            coeffs = [rng.randint(-2, 2) for _ in range(deg + 1)]
            if not any(coeffs):
                coeffs[0] = 1
            p = ring.zero()
            sp = 0
            for i, c in enumerate(coeffs):
                p = p + c * u ** (deg - i) * v ** i
                sp += c * x ** (deg - i) * y ** i
            rels.append(p)
            srels.append(sp)
        if any(r.is_zero() for r in rels):
            continue
        q = GradedQuotient(ring, rels)
        # the rank of each graded piece equals the rank of the sympy
        # normal-form map on the degree's monomials
        gb = sympy.groebner(srels, y, x, order="grlex")
        for deg in range(0, 13, 2):
            k = deg // 2
            monos = [x ** (k - i) * y ** i for i in range(k + 1)]
            nfs = [sympy.Poly(gb.reduce(m)[1], x, y) for m in monos]
            all_monoms = sorted({mm for p in nfs for mm in p.monoms()})
            mat = sympy.Matrix([[p.coeff_monomial(mm) for mm in all_monoms]
                                for p in nfs])
            assert q.betti(deg)[deg] == mat.rank(), \
                (deg, [str(r) for r in rels])


def _count_outside(ring, gens, top):
    """Monomials of each degree 0..top that no generator divides, counted
    over the exponent box filtered by degree."""
    counts = [0] * (top + 1)
    for m in product(*(range(top // d + 1) for d in ring.degrees)):
        degree = ring.monomial_degree(m)
        if degree <= top and not any(all(a <= e for a, e in zip(g, m))
                                     for g in gens):
            counts[degree] += 1
    return counts


def test_betti_matches_monomial_count_on_random_monomial_ideals():
    """Ranks from the Hilbert series against counting the monomials outside
    random monomial ideals: mixed generator degrees, finite quotients (a
    pure power of every generator) and infinite ones, and every fourth
    ideal with 20 to 28 minimal generators."""
    rng = random.Random(32)
    finite = infinite = 0
    for case in range(60):
        large = case % 4 == 0
        n = 3 if large else rng.randint(1, 3)
        degrees = tuple(rng.choice((2, 4, 8)) for _ in range(n))
        ring = GradedPolyRing(("a", "b", "c")[:n], degrees)
        # the monomials of one exponent sum divide none of the others
        level = rng.randint(5, 6) if large else rng.randint(1, 6)
        pool = [e for e in product(range(level + 1), repeat=n)
                if sum(e) == level]
        gens = rng.sample(pool, rng.randint(20 if large else 1, len(pool)))
        if case % 3 == 1:
            # pure powers; a large ideal takes those of its own level,
            # which keep its antichain
            gens += [tuple((level if large else rng.randint(1, 4)) * (j == i)
                           for j in range(n)) for i in range(n)]
        q = GradedQuotient(ring, [Poly(ring, {g: 1}) for g in gens])
        assert len(q.gb) >= 20 or not large
        if q.is_finite_dimensional():
            finite += 1
            top = sum((min(g[i] for g in gens if sum(g) == g[i]) - 1) * d
                      for i, d in enumerate(degrees))
            counts = _count_outside(ring, gens, top)
            assert q.betti(top) == counts, (degrees, gens)
            assert q.top_degree() == max(k for k, c in enumerate(counts) if c)
        else:
            infinite += 1
            assert q.betti(24) == _count_outside(ring, gens, 24), \
                (degrees, gens)
            with pytest.raises(ValueError):
                q.top_degree()
    assert finite >= 10 and infinite >= 10, (finite, infinite)


def test_betti_of_all_monomials_of_one_degree_in_two_variables():
    # 601 generators, which a pivot on the least exponent would peel off
    # one recursion level at a time
    ring = GradedPolyRing(("x", "y"), (2, 2))
    q = GradedQuotient(ring, [Poly(ring, {(a, 600 - a): 1})
                              for a in range(601)])
    b = q.betti(1198)
    assert b[::2] == list(range(1, 601)) and not any(b[1::2])
    assert q.top_degree() == 1198


def test_groebner_basis_equals_sympy_reduced_basis():
    """groebner_basis is the reduced Groebner basis, element by element
    equal to sympy's over QQ (over ZZ sympy does not make it monic).  The
    draws include Buchberger outputs that are not minimal and ones with two
    equal leading monomials, which the reduction must drop."""
    rng = random.Random(29)
    non_minimal = ties = 0
    for _ in range(150):
        n = rng.randint(2, 3)
        ring = GradedPolyRing(("u", "v", "w")[:n], (2,) * n)
        rels = []
        for _ in range(rng.randint(1, 3)):
            monos = _monomials_by_box_filter(ring, 2 * rng.randint(1, 3))
            p = Poly(ring, {m: rng.randint(-2, 2) for m in monos})
            if not p.is_zero():
                rels.append(p)
        gb = groebner_basis(rels)
        gens = sympy.symbols(ring.names)
        ref = sympy.groebner(
            [sum(c * sympy.Mul(*(g ** e for g, e in zip(gens, m)))
                 for m, c in p.terms.items()) for p in rels],
            *reversed(gens), order="grlex", domain="QQ")
        expected = [Poly(ring, {tuple(reversed(m)): Fraction(str(c))
                                for m, c in g.terms()}) for g in ref.polys]
        assert gb == sorted(expected, key=lambda b: ring.monomial_key(
            b.leading_monomial())), [str(r) for r in rels]
        basis = list(rels)
        _buchberger(basis)
        leads = [b.leading_monomial() for b in basis]
        non_minimal += len(gb) < len(basis)
        ties += len(set(leads)) < len(leads)
    assert non_minimal and ties


# -- classifying rings ----------------------------------------------------------


def test_classifying_ring_names():
    assert classifying_ring(["circle"]).names == ("x",)
    assert classifying_ring(["circle", "circle"]).names == ("u", "v")
    assert classifying_ring(["su2"]).names == ("z",)
    assert classifying_ring(["su2"] * 3).names == ("z1", "z2", "z3")
    mixed = classifying_ring(["circle", "su2"])
    assert mixed.names == ("x", "z") and mixed.degrees == (2, 4)
    assert classifying_ring([]).ngens == 0
    with pytest.raises(ValueError):
        classifying_ring(["torus"])


# -- quotient machinery ----------------------------------------------------------


def test_normal_form_idempotent_and_relations_vanish():
    for q in (cons.cp_sum_ring(4), cons.cp_hp_sum_ring(1),
              cons.hp_sum_full_quotient(3), cons.spin_bundle_ring()):
        for r in q.relations:
            assert reduce_poly(r, list(q.gb)).is_zero()
        probe = q.ring.one()
        for g in q.ring.gens():
            probe = probe + g ** 2
        nf = reduce_poly(probe, list(q.gb))
        assert reduce_poly(nf, list(q.gb)) == nf


def test_inhomogeneous_relation_rejected():
    ring = classifying_ring(["circle", "circle"])
    u, v = ring.gens()
    with pytest.raises(ValueError):
        GradedQuotient(ring, [u + v * v])


def test_trivial_quotients():
    ring = classifying_ring(["circle", "circle"])
    u, v = ring.gens()
    q = GradedQuotient(ring, [u, v])
    assert q.betti(6) == [1, 0, 0, 0, 0, 0, 0]
    empty = GradedQuotient(classifying_ring([]), [])
    assert empty.betti(0) == [1]
    assert empty.betti(-1) == []
    zero = empty.ring.zero()
    assert GradedQuotient(empty.ring, [zero, zero]).relations == ()


def test_eliminate_linear_requires_linear_relation():
    q = cons.cp_sum_ring(2)
    with pytest.raises(ValueError):
        q.eliminate_linear("u")


def test_finite_dimensionality_detection():
    q = cons.cp_sum_ring(3)
    assert q.is_finite_dimensional()
    assert q.top_degree() == 6
    ring = classifying_ring(["circle", "circle"])
    u, v = ring.gens()
    open_q = GradedQuotient(ring, [u * v])
    assert not open_q.is_finite_dimensional()
    with pytest.raises(ValueError, match="quotient is not finite-dimensional"):
        open_q.top_degree()
    # ranks still available through any requested degree
    assert open_q.betti(8)[8] == 2


def test_cp_sum_ring_identifies_the_top_classes():
    # modulo uv the second relation (u - v)(u + v)^(n-1) is u^n - v^n: the
    # top classes of the two summands agree, and neither vanishes
    for n in range(2, 7):
        q = cons.cp_sum_ring(n)
        u, v = q.ring.gens()
        assert reduce_poly(u ** n - v ** n, list(q.gb)).is_zero()
        assert not reduce_poly(u ** n, list(q.gb)).is_zero()


@pytest.mark.parametrize("n", range(1, 9))
def test_presentations_read_off_the_actions_are_the_closed_forms(n):
    # relations in order and with their signs: each group factor's
    # c_d(L) - c_d(R), then each sphere factor's Euler class
    u, v = classifying_ring(["circle", "circle"]).gens()
    assert cons.cp_sum_ring(n).relations == (
        u * v, (u - v) * (u + v) ** (n - 1))
    x, z = classifying_ring(["circle", "su2"]).gens()
    assert cons.cp_hp_sum_ring(n).relations == (
        -x * z, (x * x - z) ** (2 * n + 1))
    z1, z2, z3 = classifying_ring(["su2"] * 3).gens()
    assert cons.hp_sum_full_quotient(n).relations == (
        z3 - z1 - z2, z1 * z2, (-z3) ** (n - 1) * (z1 - z2))


def test_reduced_coefficients_are_normalized():
    # an integral coefficient is stored as an int, also in a remainder
    q = cons.cp_sum_ring(3)
    u, v = q.ring.gens()
    terms = reduce_poly(u ** 3 + 2 * v ** 3, list(q.gb)).terms
    assert list(terms.values()) == [3] and type(terms[(3, 0)]) is int


def test_complete_intersection_top_degree():
    # socle degree = sum of relation degrees - sum of generator degrees
    for q in [cons.cp_sum_ring(n) for n in range(2, 7)] + \
             [cons.cp_hp_sum_ring(e) for e in (1, 2)] + \
             [cons.spin_bundle_ring()]:
        predicted = sum(r.degree() for r in q.relations) \
            - sum(q.ring.degrees)
        assert q.top_degree() == predicted


# -- identity certificates -------------------------------------------------------


def test_identity_certificates_integral():
    for n in range(2, 9):
        q = cons.cp_sum_ring(n)
        u, v = q.ring.gens()
        lhs = (u - v) * (u + v) ** (n - 1)
        rhs = u ** n - v ** n
        cert = ideal_identities(q, lhs, rhs)
        assert cert.holds and cert.integral
        total = q.ring.zero()
        for c, r in zip(cert.cofactors, q.relations):
            assert c.is_integral()
            total = total + c * r
        assert total == lhs - rhs
    for e in range(1, 5):
        q = cons.cp_hp_sum_ring(e)
        x, z = q.ring.gens()
        cert = ideal_identities(
            q, (x * x - z) ** (2 * e + 1), x ** (4 * e + 2) - z ** (2 * e + 1))
        assert cert.holds and cert.integral


def test_groebner_basis_is_computed_only_where_it_is_read(monkeypatch):
    calls = []

    def counting(polys):
        calls.append(len(polys))
        return groebner_basis(polys)

    monkeypatch.setattr(cohomology, "groebner_basis", counting)
    cons.hp_sum_ring(3)
    q = cons.cp_sum_ring(4)
    u, v = q.ring.gens()
    assert ideal_identities(q, (u - v) * (u + v) ** 3, u ** 4 - v ** 4).holds
    assert calls == []
    assert q.betti(8) == [1, 0, 2, 0, 2, 0, 2, 0, 1]
    assert calls == [2]
    q.betti(8)
    assert calls == [2]


def test_identity_negative_and_degree_checks():
    q = cons.cp_sum_ring(2)
    u, v = q.ring.gens()
    assert not ideal_identities(q, u, v).holds
    with pytest.raises(ValueError):
        ideal_identities(q, u, v * v)


# -- finite abelian groups -------------------------------------------------------


def test_finite_abelian_group_invariants():
    g = FiniteAbelianGroup((2, 4, 0))
    assert g.free_rank == 1 and g.torsion == (2, 4)
    assert str(g) == "Z/2 + Z/4 + Z"
    with pytest.raises(ValueError):
        FiniteAbelianGroup((4, 2))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1, 2))
    assert str(FiniteAbelianGroup(())) == "0"


def test_cokernel_examples():
    assert str(pi3_cokernel([[1], [1]])) == "0"
    assert str(pi3_cokernel([[1, -2]])) == "Z"
    assert str(pi3_cokernel([], cols=2)) == "Z + Z"


def test_cokernel_diagonal_and_invariance():
    assert pi3_cokernel([[2, 0], [0, 3]]).torsion == (6,)
    rng = random.Random(23)
    for _ in range(40):
        m = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(2)]
        base = pi3_cokernel(m)
        # row operation: add a multiple of one row to the other
        m2 = [list(m[0]), [a + 2 * b for a, b in zip(m[1], m[0])]]
        # column operation
        m3 = [[r[0], r[1] + 3 * r[0], r[2]] for r in m]
        assert pi3_cokernel(m2).invariant_factors == base.invariant_factors
        assert pi3_cokernel(m3).invariant_factors == base.invariant_factors


def test_pi3_cokernel_matches_sympy():
    # k x 1 and k x 2 index matrices, some with a zero column (a free Z)
    rng = random.Random(31)
    seen = set()
    for _ in range(80):
        k, c = rng.randint(1, 4), rng.choice([1, 2])
        m = [[rng.choice([0, rng.randint(-12, 12)]) for _ in range(c)]
             for _ in range(k)]
        if rng.random() < 0.3:
            j = rng.randrange(c)
            for row in m:
                row[j] = 0
        a = sympy.Matrix(m)
        torsion = tuple(abs(int(x)) for x in invariant_factors(a)
                        if abs(x) > 1)
        group = pi3_cokernel(m)
        assert group.invariant_factors == torsion + (0,) * (c - a.rank()), m
        seen.add((c, bool(torsion), group.free_rank,
                  any(not any(col) for col in zip(*m))))
    assert {(1, True, 0, False), (1, False, 1, True), (2, True, 0, False),
            (2, False, 1, True), (2, False, 2, True),
            (2, True, 1, True)} <= seen


def test_chi_pi():
    assert chi_pi([4], [7]) == 0
    assert chi_pi([], [2 * 5 - 1]) == -1
    assert chi_pi([2, 2, 4], [3]) == 2
