"""Graded polynomial quotient rings for classifying spaces and quotients,
Betti-rank extraction, pi_3 through Smith normal form, and the homotopy
Euler characteristic test.

H*(B(S^1)^a x BSU(2)^b) is a polynomial ring with one degree-2 generator
per circle and one degree-4 generator per SU(2).  A two-sided quotient of a
group G contributes one relation per polynomial generator of H*(BG)
(left pullback minus right pullback); a sphere bundle contributes its Euler
class.  Rank extraction runs over the rationals on a Groebner normal-form
basis; integral identities between presentations are certified separately
with explicit integer cofactors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import le

from .groups import degrees_of
from .lattices import smith_normal_form
from .polyring import (GradedPolyRing, Poly, _buchberger, groebner_basis,
                       reduce_poly)


def classifying_ring(kinds):
    """Polynomial ring of B(product of circles and SU(2)s).

    kinds is a sequence of 'circle' / 'su2'.  The names follow the
    usual conventions: a single circle is x, two circles are u, v; a single
    SU(2) is z, several are z1, z2, ...
    """
    kinds = list(kinds)
    for k in kinds:
        if k not in ("circle", "su2"):
            raise ValueError("kinds must be 'circle' or 'su2'")
    n_circ = kinds.count("circle")
    n_su2 = kinds.count("su2")
    circ_names = {1: ["x"], 2: ["u", "v"]}.get(
        n_circ, ["x%d" % (i + 1) for i in range(n_circ)])
    su2_names = ["z"] if n_su2 == 1 else ["z%d" % (i + 1)
                                          for i in range(n_su2)]
    names = []
    ci = si = 0
    for k in kinds:
        if k == "circle":
            names.append(circ_names[ci])
            ci += 1
        else:
            names.append(su2_names[si])
            si += 1
    degrees = tuple(2 if k == "circle" else 4 for k in kinds)
    return GradedPolyRing(tuple(names), degrees)


class GradedQuotient:
    """Quotient of a graded polynomial ring by homogeneous relations.

    Normal forms come from a Groebner basis in the graded order; the
    normal-form monomial basis gives the rank of each graded piece.
    """

    def __init__(self, ring, relations):
        self.ring = ring
        rels = []
        for r in relations:
            if not isinstance(r, Poly):
                raise TypeError("relations must be polynomials")
            if r.is_zero():
                continue
            if not r.is_homogeneous():
                raise ValueError("inhomogeneous relation: %s" % (r,))
            if r.degree() == 0:
                raise ValueError("relation %s is a unit: the quotient would "
                                 "be the zero ring" % (r,))
            rels.append(r)
        self.relations = tuple(rels)
        self.gb = tuple(groebner_basis(list(self.relations)))
        self._by_degree = []

    def _normal_monomials_by_degree(self, max_degree):
        """Normal-form monomials of each degree 0..max_degree, each list in
        monomial_key order.  Degrees already enumerated are kept on the
        instance, so top_degree() followed by betti(top) enumerates once."""
        known = self._by_degree
        if len(known) <= max_degree:
            lead = [g.leading_monomial() for g in self.gb]
            for deg in range(len(known), max_degree + 1):
                known.append([
                    m for m in self.ring.monomials_of_degree(deg)
                    if not any(all(map(le, lm, m)) for lm in lead)])
        return known[:max(max_degree + 1, 0)]

    def betti(self, max_degree):
        """Rank of each graded piece, as a list indexed by degree 0..max."""
        return [len(ms) for ms in self._normal_monomials_by_degree(max_degree)]

    def _pure_powers(self):
        """The least exponent of each generator that is a pure power among
        the Groebner leading monomials, or None when some generator has
        none."""
        powers = [None] * self.ring.ngens
        for lm in (g.leading_monomial() for g in self.gb):
            support = [i for i, e in enumerate(lm) if e]
            if len(support) == 1:
                i, = support
                if powers[i] is None or lm[i] < powers[i]:
                    powers[i] = lm[i]
        return None if None in powers else powers

    def is_finite_dimensional(self):
        """A quotient is finite-dimensional iff every generator has a pure
        power among the Groebner leading monomials."""
        return self._pure_powers() is not None

    def top_degree(self):
        powers = self._pure_powers()
        if powers is None:
            raise ValueError("quotient is not finite-dimensional")
        bound = sum((e - 1) * d for e, d in zip(powers, self.ring.degrees))
        by_degree = self._normal_monomials_by_degree(bound)
        return max(deg for deg, ms in enumerate(by_degree) if ms)

    def total_rank(self):
        return sum(self.betti(self.top_degree()))

    def expected_total_rank(self):
        """Poincare-series prediction when the relations form a regular
        sequence: the product of relation degrees over generator degrees."""
        if len(self.relations) != self.ring.ngens:
            raise ValueError("regular-sequence prediction needs as many "
                             "relations as generators")
        val = Fraction(prod(r.degree() for r in self.relations),
                       prod(self.ring.degrees))
        if val.denominator != 1:
            raise ValueError("degree product ratio is not an integer")
        return int(val)

    def poincare_symmetric(self):
        b = self.betti(self.top_degree())
        return b == b[::-1]

    def eliminate_linear(self, name):
        """Remove a generator using a relation of the form +-(gen - rest).

        Returns the presentation on the remaining generators with the other
        relations rewritten through the substitution.
        """
        i = self.ring.names.index(name)
        use = None
        for r in self.relations:
            unit = tuple(int(j == i) for j in range(self.ring.ngens))
            c = r.terms.get(unit)
            if c in (1, -1) and all(m == unit or m[i] == 0 for m in r.terms):
                use = (r, c)
                break
        if use is None:
            raise ValueError("no linear relation available for %s" % (name,))
        r, c = use
        new_ring = GradedPolyRing(
            tuple(n for j, n in enumerate(self.ring.names) if j != i),
            tuple(d for j, d in enumerate(self.ring.degrees) if j != i))
        rest = Poly(self.ring, {m: -Fraction(v, c) for m, v in r.terms.items()
                                if m[i] == 0})
        images = {}
        for j, n in enumerate(self.ring.names):
            if j == i:
                images[n] = rest.substitute(
                    new_ring, {nn: new_ring.gen(nn) for nn in new_ring.names})
            else:
                images[n] = new_ring.gen(n)
        # the substituted eliminated generator must not reference itself
        return GradedQuotient(new_ring, [other.substitute(new_ring, images)
                                         for other in self.relations
                                         if other is not r])

    def to_obj(self):
        return {
            "generators": [{"name": n, "degree": d}
                           for n, d in zip(self.ring.names, self.ring.degrees)],
            "relations": [r.to_obj() for r in self.relations],
        }

    def __str__(self):
        return "%s / (%s)" % (self.ring,
                              ", ".join(str(r) for r in self.relations))


def biquotient_ring(g, ring, pullbacks):
    """Quotient presentation from one pullback pair per generator of H*(BG).

    The degrees of the group g fix the polynomial generators of H*(BG), one
    per degree d in cohomological degree 2d; pullbacks lists their (left,
    right) images in the classifying ring of H.
    """
    degrees = degrees_of(g)
    if len(pullbacks) != len(degrees):
        raise ValueError("need one pullback pair per degree of %s (%d), got %d"
                         % (g, len(degrees), len(pullbacks)))
    q = GradedQuotient(ring, [left - right for left, right in pullbacks])
    expected = sorted(2 * d for d in degrees)
    for rel in q.relations:
        if rel.degree() not in expected:
            raise ValueError("relation degree %d is not a generator degree "
                             "of H*(BG) (expected %s)"
                             % (rel.degree(), expected))
    return q


# ---------------------------------------------------------------------------
# Integral ideal identities with cofactor certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCertificate:
    holds: bool
    cofactors: tuple = ()
    integral: bool = False

    def __bool__(self):
        return self.holds


def ideal_identities(quotient, lhs, rhs):
    """Check lhs = rhs modulo the relation ideal, over the integers.

    On success the certificate carries one integer-coefficient cofactor per
    relation with lhs - rhs = sum cofactor_i * relation_i, re-verified by
    expansion.  The Groebner elements stay integral with unit leading
    coefficients for every presentation in scope, which makes rational
    membership equivalent to integral membership here.
    """
    if lhs.degree() != rhs.degree():
        raise ValueError("sides have different degrees")
    diff = lhs - rhs
    if diff.is_zero():
        return IdentityCertificate(True, tuple(
            quotient.ring.zero() for _ in quotient.relations), True)
    n = len(quotient.relations)
    gb = list(quotient.relations)
    certs = [[quotient.ring.one() if j == i else quotient.ring.zero()
              for j in range(n)] for i in range(n)]
    _buchberger(gb, certs)
    rem, quots = reduce_poly(diff, gb, with_quotients=True)
    if not rem.is_zero():
        return IdentityCertificate(False)
    cof = [quotient.ring.zero() for _ in range(n)]
    for q, cert in zip(quots, certs):
        for i in range(n):
            cof[i] = cof[i] + q * cert[i]
    check = quotient.ring.zero()
    for c, r in zip(cof, quotient.relations):
        check = check + c * r
    if not (check - diff).is_zero():
        raise AssertionError("cofactor certificate failed to re-verify")
    return IdentityCertificate(True, tuple(cof),
                               all(c.is_integral() for c in cof))


# ---------------------------------------------------------------------------
# pi_3 and the homotopy Euler characteristic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Invariant factors d1 | d2 | ...; a 0 encodes a free Z summand."""

    invariant_factors: tuple

    def __post_init__(self):
        factors = tuple(self.invariant_factors)
        torsion = [d for d in factors if d != 0]
        free = [d for d in factors if d == 0]
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a "
                                 "divisibility chain")
        if any(d == 1 for d in torsion):
            raise ValueError("unit factors should be dropped")
        object.__setattr__(self, "invariant_factors",
                           tuple(torsion) + tuple(free))

    @property
    def free_rank(self):
        return sum(1 for d in self.invariant_factors if d == 0)

    @property
    def torsion(self):
        return tuple(d for d in self.invariant_factors if d != 0)

    @property
    def order(self):
        if self.free_rank:
            return 0
        p = 1
        for d in self.torsion:
            p *= d
        return p

    def __str__(self):
        if not self.invariant_factors:
            return "0"
        parts = ["Z/%d" % d for d in self.torsion] + ["Z"] * self.free_rank
        return " + ".join(parts)

    def to_obj(self):
        return {"invariant_factors": list(self.invariant_factors),
                "name": str(self)}


def pi3_cokernel(index_matrix, cols=None):
    """pi_3 of the quotient from the matrix of net Dynkin indices: the
    cokernel of Z^rows -> Z^cols, the matrix acting by row vectors.

    Rows index the simple factors of the acting group, columns the simple
    factors of the group acted on; each entry is the left index minus the
    right index of that factor's action (an outer twist on one side flips
    no sign in degree 2, so equal indices cancel to zero).  An empty matrix
    needs an explicit column count.
    """
    if cols is None:
        if not index_matrix:
            raise ValueError("empty matrix needs an explicit column count")
        cols = len(index_matrix[0])
    diag, _ = smith_normal_form(list(index_matrix), cols)
    return FiniteAbelianGroup(tuple(d for d in diag if d != 1))


def chi_pi(even_degrees, odd_degrees):
    """dim pi_even - dim pi_odd from multisets of contributing degrees;
    finite-dimensional elliptic spaces need this to be <= 0."""
    return len(list(even_degrees)) - len(list(odd_degrees))
