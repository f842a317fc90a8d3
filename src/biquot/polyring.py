"""Sparse polynomials over exact coefficients, graded by even generator degrees.

Generators carry a cohomological degree (2 for a circle class, 4 for an
SU(2) class, 8 for an Euler class of a rank-8 bundle, ...).  Monomials are
ordered by that weighted grading first and lexicographically within a
grading, where a generator listed later is the larger variable.  All the
quotient presentations in scope have relations whose leading coefficient is
a unit in this order, so Groebner reductions stay integral.

Division (``reduce_poly``) follows the textbook algorithm (Cox, Little and
O'Shea, *Ideals, Varieties, and Algorithms*, 2.3): it takes the terms of the
dividend in decreasing ``monomial_key`` order, divides each by the first
basis element, in basis order, whose leading monomial divides it, and
otherwise moves it to the remainder.  Arithmetic is exact (int and
Fraction).  Those two rules fix the quotients and the remainder, so any
implementation that keeps them returns the same values term for term.

``groebner_basis`` runs Buchberger's loop once, keeps the minimal basis,
and reduces it in one division pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, le, mul, neg, sub


@dataclass(frozen=True)
class GradedPolyRing:
    """Polynomial ring with named generators in positive even degrees."""

    names: tuple
    degrees: tuple

    def __post_init__(self):
        if len(self.names) != len(self.degrees):
            raise ValueError("names and degrees must align")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be unique")
        for d in self.degrees:
            if d <= 0 or d % 2 != 0:
                raise ValueError("generator degrees must be positive and even")

    @property
    def ngens(self):
        return len(self.names)

    def gen(self, name):
        i = self.names.index(name)
        e = [0] * self.ngens
        e[i] = 1
        return Poly(self, {tuple(e): 1})

    def gens(self):
        return [self.gen(n) for n in self.names]

    def zero(self):
        return Poly(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        if c == 0:
            return self.zero()
        return Poly(self, {(0,) * self.ngens: c})

    def monomial_degree(self, exps):
        return sum(map(mul, exps, self.degrees))

    def monomial_key(self, exps):
        # graded (by cohomological degree), then lex with the last-listed
        # generator dominating
        return (self.monomial_degree(exps), tuple(reversed(exps)))

    def __str__(self):
        gens = ", ".join(
            "%s(%d)" % (n, d) for n, d in zip(self.names, self.degrees)
        )
        return "Z[%s]" % gens


def _as_coeff(c):
    """c as a coefficient: an integral Fraction is stored as its int."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError("coefficients must be int or Fraction, got %r" % (c,))


class Poly:
    """Sparse polynomial: map from exponent tuples to nonzero coefficients.

    A Poly is never mutated after construction, so its leading monomial is
    computed once, on first use.
    """

    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: _as_coeff(c) for m, c in terms.items() if c != 0}
        self._lead = None

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ValueError("mixed rings")
            return other
        return self.ring.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) + c
        return Poly(self.ring, acc)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(self.ring, {m: c * other for m, c in self.terms.items()})
        other = self._coerce(other)
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                acc[m] = acc.get(m, 0) + c1 * c2
        return Poly(self.ring, acc)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return isinstance(other, Poly) and self.ring == other.ring \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    # -- graded structure ----------------------------------------------------

    def degree(self):
        """Graded degree; requires a homogeneous polynomial."""
        degs = {self.ring.monomial_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous: degrees %s" % degs)
        return degs.pop()

    def is_homogeneous(self):
        return len({self.ring.monomial_degree(m) for m in self.terms}) <= 1

    def leading_monomial(self):
        if self._lead is None:
            self._lead = max(self.terms, key=self.ring.monomial_key)
        return self._lead

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def is_integral(self):
        return all(isinstance(c, int) for c in self.terms.values())

    def map_coeffs(self, f):
        return Poly(self.ring, {m: f(c) for m, c in self.terms.items()})

    def substitute(self, target_ring, images):
        """Ring map determined by generator images (a dict name -> Poly)."""
        out = target_ring.zero()
        for m, c in self.terms.items():
            term = target_ring.const(c)
            for name, e in zip(self.ring.names, m):
                if e:
                    term = term * images[name] ** e
            out = out + term
        return out

    # -- display / serialization ----------------------------------------------

    def sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda mc: self.ring.monomial_key(mc[0]),
            reverse=True,
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                ("%s^%d" % (n, e) if e > 1 else n)
                for n, e in zip(self.ring.names, m) if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append("%s*%s" % (c, mono))
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    __repr__ = __str__

    def to_obj(self):
        return [
            {"exps": list(m), "coeff": str(c)} for m, c in self.sorted_terms()
        ]


def poly_from_obj(ring, obj):
    """The Poly of JSON terms [{"exps": [...], "coeff": "p/q"}, ...] (see
    Poly.to_obj).  obj must be a list of such term objects (the empty list
    is zero), each with one non-negative integer exponent per generator and
    a finite rational coefficient, or ValueError is raised.
    """
    if not isinstance(obj, list) or not all(
            isinstance(t, dict) and "exps" in t and "coeff" in t for t in obj):
        raise ValueError('relation %r: expected a list of terms '
                         '{"exps": [...], "coeff": "p/q"}' % (obj,))
    acc = {}
    for term in obj:
        exps = term["exps"]
        # bool is an int subclass; JSON true/false are not exponents
        if not isinstance(exps, list) or len(exps) != ring.ngens or not all(
                isinstance(e, int) and not isinstance(e, bool) and e >= 0
                for e in exps):
            raise ValueError("exps %r: expected %d non-negative integers, "
                             "one per generator" % (exps, ring.ngens))
        try:
            c = Fraction(str(term["coeff"]))
        except ZeroDivisionError:
            raise ValueError("coeff %r: not a finite rational"
                             % (term["coeff"],))
        exps = tuple(exps)
        acc[exps] = acc.get(exps, 0) + c
    return Poly(ring, acc)


# -- division and Groebner bases ----------------------------------------------


def reduce_poly(p, basis, with_quotients=False):
    """Full multivariate division of p by the list basis.

    Returns the remainder (no term divisible by a basis leading monomial),
    and optionally the quotients q_i with p = sum q_i b_i + remainder.
    See the module docstring for the order of the steps.
    """
    ring = p.ring
    degrees = ring.degrees

    def heap_entry(m):
        # heapq pops the least entry; negating monomial_key pops the largest
        return (-sum(map(mul, m, degrees)), tuple(map(neg, reversed(m)))), m

    # zero polynomials divide nothing; i keeps the index into basis
    lead = []
    for i, b in enumerate(basis):
        if b.terms:
            if b.ring is not ring and b.ring != ring:
                raise ValueError("mixed rings")
            lm = b.leading_monomial()
            lead.append((i, lm, b.terms[lm], b.terms))
    quot = [{} for _ in basis]
    rem = {}
    # work maps each monomial still queued to its coefficient, which may
    # cancel to 0 before the monomial is popped
    work = dict(p.terms)
    heap = [heap_entry(m) for m in work]
    heapify(heap)
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
        for i, lm, lc, bterms in lead:
            if all(map(le, lm, m)):
                break
        else:
            rem[m] = c
            continue
        f = Fraction(c, 1) / lc
        mq = tuple(map(sub, m, lm))
        quot[i][mq] = f
        # subtract f * x^mq * b; its leading term cancels c exactly, and
        # every other term is smaller than m, so m never comes back
        for bm, bc in bterms.items():
            if bm == lm:
                continue
            t = tuple(map(add, mq, bm))
            old = work.get(t)
            if old is None:
                work[t] = -(f * bc)
                heappush(heap, heap_entry(t))
            else:
                work[t] = old - f * bc
    rem = Poly(ring, rem)
    if with_quotients:
        return rem, [Poly(ring, q) for q in quot]
    return rem


def _buchberger(basis, certs=None):
    """Buchberger's loop: extend basis (nonzero polynomials) in place to a
    Groebner basis, not inter-reduced.

    certs, when given, holds one row per basis element: its cofactors
    against the input relations.  Each element the loop appends gets the
    row expressing it in the inputs, read off the S-pair terms and the
    division quotients.
    """
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        f, g = basis[i], basis[j]
        mf, mg = f.leading_monomial(), g.leading_monomial()
        lcm = tuple(map(max, mf, mg))
        # Buchberger's coprimality criterion; two terms have S-polynomial 0
        if tuple(map(add, mf, mg)) == lcm or len(f.terms) == len(g.terms) == 1:
            continue
        # S-polynomial tf * f - tg * g with the terms tf = cf * x^uf and
        # tg = cg * x^ug that cancel the leading terms
        uf, cf = tuple(map(sub, lcm, mf)), Fraction(1, 1) / f.leading_coeff()
        ug, cg = tuple(map(sub, lcm, mg)), Fraction(1, 1) / g.leading_coeff()
        s = {tuple(map(add, uf, m)): cf * c for m, c in f.terms.items()}
        for m, c in g.terms.items():
            t = tuple(map(add, ug, m))
            s[t] = s.get(t, 0) - cg * c
        s = Poly(f.ring, s)
        if certs is None:
            r = reduce_poly(s, basis)
        else:
            r, quots = reduce_poly(s, basis, with_quotients=True)
        if r.is_zero():
            continue
        if certs is not None:
            tf = Poly(f.ring, {uf: cf})
            tg = Poly(f.ring, {ug: cg})
            row = [tf * a - tg * b for a, b in zip(certs[i], certs[j])]
            for q, qrow in zip(quots, certs):
                if not q.is_zero():
                    row = [x - q * y for x, y in zip(row, qrow)]
            certs.append(row)
        basis.append(r)
        pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))


def groebner_basis(relations):
    """The reduced Groebner basis of relations in the graded order of their
    common ring: monic, sorted by increasing leading monomial.

    After Buchberger's loop, the minimal basis keeps each element whose
    leading monomial no other element's divides (of equal ones, the first).
    Dividing an element of a minimal basis by the others never moves its
    leading monomial, so one pass, dividing each element by the others (the
    earlier ones already divided), leaves no term divisible by another
    element's leading monomial.  That basis is unique (Cox, Little and
    O'Shea, 2.7).
    """
    basis = [p for p in relations if not p.is_zero()]
    _buchberger(basis)
    leads = [b.leading_monomial() for b in basis]
    minimal = [b for i, b in enumerate(basis) if not any(
        all(map(le, lm, leads[i])) and (k < i or lm != leads[i])
        for k, lm in enumerate(leads))]
    out = []
    for i, b in enumerate(minimal):
        r = reduce_poly(b, out + minimal[i + 1:])
        lc = r.leading_coeff()
        out.append(r.map_coeffs(lambda c: Fraction(c, 1) / lc))
    return sorted(out, key=lambda b: b.ring.monomial_key(b.leading_monomial()))
