"""Exact integer lattice algorithms: Hermite and Smith normal forms.

Lattices here are subgroups of Z^r presented by generator row vectors.
Everything runs on arbitrary-precision Python ints.  The Hermite form is
built by one-row insertion: each row is combined into the HNF basis of the
rows before it by extended gcds on its leading columns (Cohen, A Course in
Computational Algebraic Number Theory, 1993, section 2.4).  The Smith form
also returns the unimodular transforms, which the freeness machinery needs
to build torsion elements of the dual torus.
"""

from __future__ import annotations

from dataclasses import dataclass


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hnf(rows, rank=None):
    """Row Hermite normal form of the lattice spanned by the given rows.

    Returns a canonical basis: echelon rows with positive pivots and entries
    above each pivot reduced into [0, pivot).  The result depends only on
    the spanned lattice, making it a lattice-equality certificate.  The
    rows are inserted one at a time (see _hnf_insert).
    """
    if rank is None:
        if not rows:
            raise ValueError("empty generator list needs an explicit rank")
        rank = len(rows[0])
    basis = ()
    for r in rows:
        if len(r) != rank:
            raise ValueError("generator length does not match ambient rank")
        basis = _hnf_insert(basis, r)
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
    """Smith normal form with transforms: returns (D, U, V), D = U*M*V.

    D is diagonal with d1 | d2 | ... >= 0; U and V are unimodular.  M is the
    input matrix (list of rows); empty inputs need an explicit column count.
    """
    if rank is None:
        if not rows:
            raise ValueError("empty matrix needs an explicit rank")
        rank = len(rows[0])
    m = len(rows)
    a = [list(r) for r in rows]
    u = _identity(m)
    v = _identity(rank)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, q):
        for k in range(rank):
            a[dst][k] += q * a[src][k]
        for k in range(m):
            u[dst][k] += q * u[src][k]

    def addmul_col(dst, src, q):
        for r in a:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, rank):
        # find a pivot
        piv = None
        for i in range(t, m):
            for j in range(t, rank):
                if a[i][j] != 0:
                    if piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    addmul_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, rank):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    addmul_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(j, t)
                        dirty = True
            if not dirty:
                break
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            if a[i + 1][i + 1] % a[i][i] != 0:
                # standard trick: add column i+1 to column i, then redo the
                # local elimination
                addmul_col(i, i + 1, 1)
                g, x, y = _xgcd(a[i][i], a[i + 1][i])
                # row combination bringing gcd to position (i, i)
                _combine_rows(a, u, i, i + 1, x, y,
                              a[i][i] // g, a[i + 1][i] // g)
                # clear the off-diagonal remainders
                q = a[i + 1][i] // a[i][i]
                addmul_row(i + 1, i, -q)
                q = a[i][i + 1] // a[i][i]
                addmul_col(i + 1, i, -q)
                if a[i][i] < 0:
                    negate_row(i)
                if a[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
    d = [[a[i][j] if i == j else 0 for j in range(rank)] for i in range(m)]
    # a should already be diagonal; assert cheaply
    for i in range(m):
        for j in range(rank):
            if i != j and a[i][j] != 0:
                raise AssertionError("Smith reduction left a nonzero entry")
    return d, u, v


def _xgcd(p, q):
    if q == 0:
        return (abs(p), 1 if p >= 0 else -1, 0)
    g, x, y = _xgcd(q, p % q)
    return (g, y, x - (p // q) * y)


def _combine_rows(a, u, i, j, x, y, alpha, beta):
    """Unimodular [x y; -beta alpha] acting on rows i, j (x*alpha+y*beta=1)."""
    ai, aj = a[i][:], a[j][:]
    ui, uj = u[i][:], u[j][:]
    a[i] = [x * p + y * q for p, q in zip(ai, aj)]
    a[j] = [-beta * p + alpha * q for p, q in zip(ai, aj)]
    u[i] = [x * p + y * q for p, q in zip(ui, uj)]
    u[j] = [-beta * p + alpha * q for p, q in zip(ui, uj)]


def invariant_factors(rows, rank=None):
    d, _, _ = smith_normal_form(rows, rank)
    n = min(len(d), rank if rank is not None else len(d[0]))
    return [d[i][i] for i in range(n) if d[i][i] != 0]


@dataclass(frozen=True)
class LatticeSubgroup:
    """Subgroup of Z^rank given by generator rows, canonicalized by HNF."""

    rank: int
    basis: tuple

    @staticmethod
    def from_rows(rank, rows):
        return LatticeSubgroup(rank, tuple(hnf(rows, rank)))

    @staticmethod
    def full(rank):
        return LatticeSubgroup.from_rows(
            rank, [tuple(int(i == j) for j in range(rank)) for i in range(rank)])

    @staticmethod
    def zero(rank):
        return LatticeSubgroup(rank, ())

    def contains_vector(self, v):
        """Exact membership: v reduces to zero modulo the HNF basis."""
        if len(v) != self.rank:
            raise ValueError("ambient rank mismatch")
        return not any(_reduce(v, self.basis))

    def contains(self, other):
        if other.rank != self.rank:
            raise ValueError("ambient rank mismatch")
        return all(self.contains_vector(g) for g in other.basis)

    def is_full(self):
        # the HNF of Z^rank is the identity: rank rows with pivots 1
        return (len(self.basis) == self.rank
                and all(row[i] == 1 for i, row in enumerate(self.basis)))

    def to_obj(self):
        return {"rank": self.rank, "generators": [list(r) for r in self.basis]}
