"""Sparse polynomials over exact coefficients, graded by even generator degrees.

Generators carry a cohomological degree (2 for a circle class, 4 for an
SU(2) class, 8 for an Euler class of a rank-8 bundle, ...).  Monomials are
ordered by that weighted grading first and lexicographically within a
grading, where a generator listed later is the larger variable.  All the
quotient presentations in scope have relations whose leading coefficient is
a unit in this order, so Groebner reductions stay integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product


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
        return sum(e * d for e, d in zip(exps, self.degrees))

    def monomial_key(self, exps):
        # graded (by cohomological degree), then lex with the last-listed
        # generator dominating
        return (self.monomial_degree(exps), tuple(reversed(exps)))

    def monomials_of_degree(self, degree):
        """All exponent tuples of the given graded degree."""
        out = []
        bounds = [degree // d + 1 for d in self.degrees]
        for exps in product(*(range(b) for b in bounds)):
            if self.monomial_degree(exps) == degree:
                out.append(exps)
        return sorted(out, key=self.monomial_key)

    def __str__(self):
        gens = ", ".join(
            "%s(%d)" % (n, d) for n, d in zip(self.names, self.degrees)
        )
        return "Z[%s]" % gens


def _as_coeff(c):
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError("coefficients must be int or Fraction, got %r" % (c,))


class Poly:
    """Sparse polynomial: map from exponent tuples to nonzero coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: _as_coeff(c) for m, c in terms.items() if c != 0}

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_pairs(ring, pairs):
        acc = {}
        for exps, c in pairs:
            exps = tuple(exps)
            acc[exps] = acc.get(exps, 0) + c
        return Poly(ring, acc)

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
        return max(self.terms, key=self.ring.monomial_key)

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def is_integral(self):
        return all(
            isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1)
            for c in self.terms.values()
        )

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
    pairs = []
    for term in obj:
        c = Fraction(str(term["coeff"]))
        if c.denominator == 1:
            c = int(c)
        pairs.append((tuple(term["exps"]), c))
    return Poly.from_pairs(ring, pairs)


# -- division and Groebner bases ----------------------------------------------


def _monomial_divides(m1, m2):
    return all(a <= b for a, b in zip(m1, m2))


def _monomial_div(m2, m1):
    return tuple(b - a for a, b in zip(m1, m2))


def _monomial_mul(m1, m2):
    return tuple(a + b for a, b in zip(m1, m2))


def reduce_poly(p, basis, with_quotients=False):
    """Full multivariate division of p by the list basis.

    Returns the remainder (no term divisible by a basis leading monomial),
    and optionally the quotients q_i with p = sum q_i b_i + remainder.
    """
    ring = p.ring
    quot = [ring.zero() for _ in basis] if with_quotients else None
    rem = ring.zero()
    work = Poly(ring, dict(p.terms))
    # zero polynomials divide nothing; i keeps the index into basis
    lead = [(i, b.leading_monomial(), b.leading_coeff(), b)
            for i, b in enumerate(basis) if not b.is_zero()]
    while not work.is_zero():
        m = work.leading_monomial()
        c = work.terms[m]
        hit = None
        for i, lm, lc, b in lead:
            if _monomial_divides(lm, m):
                hit = (i, lm, lc, b)
                break
        if hit is None:
            rem = rem + Poly(ring, {m: c})
            work = work - Poly(ring, {m: c})
            continue
        i, lm, lc, b = hit
        factor = Poly(ring, {_monomial_div(m, lm): Fraction(c, 1) / lc})
        work = work - factor * b
        if with_quotients:
            quot[i] = quot[i] + factor
    if with_quotients:
        return rem, quot
    return rem


def _normalize_int_coeffs(p):
    if all(isinstance(c, int) for c in p.terms.values()):
        return p
    if p.is_integral():
        return p.map_coeffs(lambda c: int(c))
    return p


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
        lcm = tuple(max(a, b) for a, b in zip(mf, mg))
        # Buchberger's coprimality criterion
        if _monomial_mul(mf, mg) == lcm:
            continue
        tf = Poly(f.ring, {_monomial_div(lcm, mf):
                           Fraction(1, 1) / f.leading_coeff()})
        tg = Poly(f.ring, {_monomial_div(lcm, mg):
                           Fraction(1, 1) / g.leading_coeff()})
        s = tf * f - tg * g
        if certs is None:
            r = reduce_poly(s, basis)
        else:
            r, quots = reduce_poly(s, basis, with_quotients=True)
        if r.is_zero():
            continue
        if certs is not None:
            row = [tf * a - tg * b for a, b in zip(certs[i], certs[j])]
            for q, qrow in zip(quots, certs):
                if not q.is_zero():
                    row = [x - q * y for x, y in zip(row, qrow)]
            certs.append(row)
        basis.append(r)
        pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))


def groebner_basis(relations):
    """Buchberger's algorithm in the graded order of the common ring.

    The result is inter-reduced and normalized to leading coefficient +-1
    when integral (true for every presentation in scope).
    """
    basis = [p for p in relations if not p.is_zero()]
    _buchberger(basis)
    # inter-reduce
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = [b for k, b in enumerate(basis) if k != i and not b.is_zero()]
            r = reduce_poly(basis[i], others)
            if r.terms != basis[i].terms:
                basis[i] = r
                changed = True
        basis = [b for b in basis if not b.is_zero()]
    out = []
    for b in basis:
        lc = b.leading_coeff()
        b = b.map_coeffs(lambda c: Fraction(c, 1) / lc)
        out.append(_normalize_int_coeffs(b))
    return sorted(out, key=lambda b: b.ring.monomial_key(b.leading_monomial()))
