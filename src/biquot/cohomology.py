"""Graded polynomial quotient rings for classifying spaces and quotients,
Betti-rank extraction, pi_3 through Smith normal form, and the homotopy
Euler characteristic test.

H*(B(S^1)^a x BSU(2)^b) is a polynomial ring with one degree-2 generator
per circle and one degree-4 generator per SU(2).  A two-sided quotient of a
group G contributes one relation per polynomial generator of H*(BG)
(left pullback minus right pullback); a sphere bundle contributes its Euler
class.  Ranks come from the Hilbert series of the Groebner leading terms;
integral identities between presentations are certified separately with
explicit integer cofactors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import prod
from operator import le

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


def _hilbert_numerator(ring, lead):
    """Coefficients, by degree, of N(t) in the Hilbert series N(t) /
    prod(1 - t^d_i) of ring modulo the monomial ideal J minimally generated
    by lead: prod(1 - t^deg m) when no variable divides two generators, else
    N(J + (p)) + t^deg(p) N(J : p) (Bigatti, JPAA 119, 1997).  The pivot
    p = x_i^e, x_i dividing the most generators, takes e the lower median of
    x_i's positive exponents, kept below its pure power so p is not in J."""
    counts = [len(lead) - col.count(0) for col in zip(*lead)]
    if max(counts, default=0) < 2:
        num = [1]
        for m in lead:
            d = ring.monomial_degree(m)
            num = [a - b for a, b in zip(num + [0] * d, [0] * d + num)]
        return num
    i = counts.index(max(counts))
    exps = sorted(m[i] for m in lead if m[i])
    e = min([exps[(len(exps) - 1) // 2]]
            + [m[i] - 1 for m in lead if sum(m) == m[i]])
    plus = [m for m in lead if m[i] < e]
    plus.append(tuple(e if j == i else 0 for j in range(ring.ngens)))
    # J : p is generated by each m with x_i^e divided out; keep the minimal
    colon = []
    for m in sorted({m[:i] + (max(m[i] - e, 0),) + m[i + 1:] for m in lead},
                    key=sum):
        if not any(all(map(le, k, m)) for k in colon):
            colon.append(m)
    shift = [0] * (e * ring.degrees[i]) + _hilbert_numerator(ring, colon)
    num = _hilbert_numerator(ring, plus)
    num = [a + b for a, b in zip_longest(num, shift, fillvalue=0)]
    while num[-1] == 0:
        num.pop()
    return num


class GradedQuotient:
    """Quotient of a graded polynomial ring by homogeneous relations.

    Normal forms come from a Groebner basis in the graded order, computed
    on first read of gb; ranks from the Hilbert series of its leading
    monomials, the same series as the quotient's (Bayer & Stillman, J. Symb.
    Comp. 14, 1992).
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

    @cached_property
    def gb(self):
        return tuple(groebner_basis(list(self.relations)))

    @cached_property
    def _numerator(self):
        return _hilbert_numerator(
            self.ring, [g.leading_monomial() for g in self.gb])

    def betti(self, max_degree):
        """Rank of each graded piece, as a list indexed by degree 0..max:
        N(t) / prod(1 - t^d_i), one prefix-sum pass per generator."""
        size = max(max_degree + 1, 0)
        ranks = (self._numerator + [0] * size)[:size]
        for d in self.ring.degrees:
            for k in range(d, size):
                ranks[k] += ranks[k - d]
        return ranks

    def is_finite_dimensional(self):
        """A quotient is finite-dimensional iff every generator has a pure
        power among the Groebner leading monomials."""
        leads = [g.leading_monomial() for g in self.gb]
        pure = {i for m in leads for i, e in enumerate(m) if e == sum(m)}
        return len(pure) == self.ring.ngens

    def top_degree(self):
        """deg N - sum d_i, the degree of a finite quotient's series."""
        if not self.is_finite_dimensional():
            raise ValueError("quotient is not finite-dimensional")
        return len(self._numerator) - 1 - sum(self.ring.degrees)

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
