"""Reference Hermite normal form by gcd elimination, for the tests.

An algorithm independent of ``lattices.hnf`` (which inserts rows one at a
time): column by column, the rows with a nonzero entry are reduced against
the one of least absolute entry until one is left, which becomes the pivot
row; the entries above the pivots are reduced at the end.
"""


def elimination_hnf(rows, rank):
    """Row HNF, as lattices.hnf: echelon rows with positive pivots and the
    entries above each pivot reduced into [0, pivot)."""
    work = [list(r) for r in rows if any(r)]
    basis = []
    col = 0
    while col < rank and work:
        while True:
            nonzero = [r for r in work if r[col] != 0]
            if len(nonzero) <= 1:
                break
            nonzero.sort(key=lambda r: abs(r[col]))
            piv = nonzero[0]
            for r in nonzero[1:]:
                q = r[col] // piv[col]
                for k in range(rank):
                    r[k] -= q * piv[k]
        pivs = [r for r in work if r[col] != 0]
        if pivs:
            piv = pivs[0]
            work.remove(piv)
            if piv[col] < 0:
                piv = [-x for x in piv]
            basis.append(piv)
        work = [r for r in work if any(r)]
        col += 1
    # reduce entries above pivots, in ascending pivot order so that later
    # reductions (touching only later columns) cannot undo earlier ones
    for i in range(len(basis)):
        pcol = next(k for k, x in enumerate(basis[i]) if x)
        p = basis[i][pcol]
        for j in range(i):
            q = basis[j][pcol] // p
            if q:
                for k in range(rank):
                    basis[j][k] -= q * basis[i][k]
    return [tuple(r) for r in basis]
