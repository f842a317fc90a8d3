"""Exact integer lattice algorithms: Hermite and Smith normal forms.

Lattices here are subgroups of Z^r presented by generator row vectors.
Everything runs on arbitrary-precision Python ints.  The Hermite form is
built by one-row insertion: each row is combined into the HNF basis of the
rows before it by extended gcds on its leading columns (Cohen, A Course in
Computational Algebraic Number Theory, 1993, section 2.4); it is the one
elimination routine.  The Smith form alternates row and column Hermite
forms and also returns the unimodular column transform, which the freeness
machinery needs to build torsion elements of the dual torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod


def hnf(rows, rank=None):
    """Row Hermite normal form of the lattice spanned by the given rows.

    Returns a canonical basis: echelon rows with positive pivots and entries
    above each pivot reduced into [0, pivot).  The result depends only on
    the spanned lattice, making it a lattice-equality certificate.  The
    rows are inserted one at a time (see _hnf_insert), and the insertion
    stops once the basis is the identity: the lattice is then Z^rank, which
    no further row changes.  Every row's length is checked first.
    """
    if rank is None:
        if not rows:
            raise ValueError("empty generator list needs an explicit rank")
        rank = len(rows[0])
    if any(len(r) != rank for r in rows):
        raise ValueError("generator length does not match ambient rank")
    basis = ()
    for r in rows:
        basis = _hnf_insert(basis, r)
        if len(basis) == rank and all(
                row[i] == 1 for i, row in enumerate(basis)):
            break
    return list(basis)


def _lead(row):
    """Column of the first nonzero entry (the pivot of an HNF row)."""
    for k, x in enumerate(row):
        if x:
            return k


def _reduce(v, basis):
    """The canonical representative of v modulo the lattice of an HNF basis:
    every pivot-column entry reduced into [0, pivot), in pivot order.
    Vectors agree modulo the lattice iff their representatives are equal."""
    for row in basis:
        pcol = _lead(row)
        q = v[pcol] // row[pcol]
        if q:
            v = tuple(a - q * b for a, b in zip(v, row))
    return v


def _hnf_insert(basis, v):
    """The HNF of the lattice an HNF basis spans together with one more row.

    Column by column, v is combined with the pivot row of its leading
    column by an extended gcd, which clears that column of v, until v
    vanishes or takes the place of a missing pivot; then the entries above
    the changed pivots are reduced again.
    The basis itself comes back when v lies in its lattice.
    """
    rows = [list(r) for r in basis]
    leads = [_lead(r) for r in rows]
    rank = len(v)
    v = list(v)
    first = None  # the first row that changed
    i = 0
    for col in range(rank):
        b = v[col]
        if not b:
            continue
        while i < len(rows) and leads[i] < col:
            i += 1
        if i == len(rows) or leads[i] > col:  # no pivot in this column yet
            rows.insert(i, v if b > 0 else [-x for x in v])
            leads.insert(i, col)
            first = i if first is None else first
            break
        row = rows[i]
        p = row[col]
        if b % p == 0:
            q = b // p
            v = [x - q * y for x, y in zip(v, row)]
        else:
            g, x, y = _xgcd(p, b)
            rows[i] = [x * s + y * t for s, t in zip(row, v)]
            v = [p // g * t - b // g * s for s, t in zip(row, v)]
            first = i if first is None else first
        i += 1
    if first is None:
        return basis
    # reduce entries above pivots in ascending pivot order, so that later
    # reductions (touching only later columns) cannot undo earlier ones; the
    # rows before the first change are reduced against each other already
    for i in range(first, len(rows)):
        pcol, row = leads[i], rows[i]
        p = row[pcol]
        for above in rows[:i]:
            q = above[pcol] // p
            if q:
                for k in range(pcol, rank):
                    above[k] -= q * row[k]
    return tuple(map(tuple, rows))


def smith_normal_form(rows, rank=None):
    """Smith normal form of the matrix M with the given rows: (diag, V).

    diag[j] is the j-th invariant factor (d1 | d2 | ... >= 0), 0 past the
    rank of M; V is unimodular and M*V = U*D for some unimodular U, D the
    diagonal matrix of diag.  Row and column Hermite forms alternate until
    the matrix is diagonal (Kannan and Bachem, SIAM J. Comput. 8(4), 1979);
    the column form is the row form of [M^T | V^T], whose right block
    carries V.  Where d_i does not divide d_{i+1}, column i+1 is added to
    column i and the matrix diagonalized again, which puts gcd and lcm in
    their place.  Empty inputs need an explicit column count.
    """
    a = hnf(rows, rank)
    rank = len(rows[0]) if rank is None else rank
    vt = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]  # V^T
    while True:
        if all(x == 0 or i == j for i, row in enumerate(a)
               for j, x in enumerate(row)):
            diag = [row[i] for i, row in enumerate(a)]
            i = next((i for i in range(len(diag) - 1)
                      if diag[i + 1] % diag[i]), None)
            if i is None:
                break
            # add column i + 1 to column i: only row i + 1 has an entry there
            a[i + 1] = a[i + 1][:i] + (diag[i + 1],) + a[i + 1][i + 1:]
            vt[i] = tuple(x + y for x, y in zip(vt[i], vt[i + 1]))
        else:
            m = len(a)
            t = hnf([tuple(row[j] for row in a) + vt[j]
                     for j in range(rank)], m + rank)
            vt = [row[m:] for row in t]
            a = [[row[i] for row in t] for i in range(m)]
        a = hnf(a, rank)
    v = [[row[i] for row in vt] for i in range(rank)]
    return diag + [0] * (rank - len(diag)), v


def _xgcd(p, q):
    if q == 0:
        return (abs(p), 1 if p >= 0 else -1, 0)
    g, x, y = _xgcd(q, p % q)
    return (g, y, x - (p // q) * y)


@dataclass(frozen=True)
class LatticeSubgroup:
    """Subgroup of Z^rank given by generator rows, canonicalized by HNF."""

    rank: int
    basis: tuple

    @staticmethod
    def from_rows(rank, rows):
        return LatticeSubgroup(rank, tuple(hnf(rows, rank)))

    def contains_vector(self, v):
        """Exact membership: v reduces to zero modulo the HNF basis."""
        if len(v) != self.rank:
            raise ValueError("ambient rank mismatch")
        return not any(_reduce(v, self.basis))

    def contains(self, other):
        if other.rank != self.rank:
            raise ValueError("ambient rank mismatch")
        return all(self.contains_vector(g) for g in other.basis)

    def index(self):
        """[Z^rank : self]: the product of the HNF pivots, 0 below full rank."""
        if len(self.basis) < self.rank:
            return 0
        return prod(row[i] for i, row in enumerate(self.basis))

    def is_full(self):
        return self.index() == 1

    def to_obj(self):
        return {"rank": self.rank, "generators": [list(r) for r in self.basis]}
