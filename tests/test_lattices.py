import random
from collections import Counter
from math import prod

import pytest
import sympy
from sympy.matrices.normalforms import (hermite_normal_form,
                                        invariant_factors as sympy_invariants)

from biquot.lattices import (
    hnf, _hnf_insert, smith_normal_form, LatticeSubgroup,
)
from elimination_hnf import elimination_hnf


def random_matrix(rng, rows, cols, bound=6):
    return [tuple(rng.randint(-bound, bound) for _ in range(cols))
            for _ in range(rows)]


def det_unimodular(mat):
    """Determinant via fraction-free Gaussian elimination (Bareiss)."""
    n = len(mat)
    a = [list(r) for r in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def assert_smith_contract(rows, n):
    """M*V and the diagonal D span the same row lattice, V is unimodular,
    and the diagonal is a divisibility chain of non-negative entries with
    the zeros last; returns the diagonal."""
    diag, v = smith_normal_form(rows, n)
    assert len(diag) == n and len(v) == n
    mv = [[sum(r[k] * v[k][j] for k in range(n)) for j in range(n)]
          for r in rows]
    d = [[diag[i] * (i == j) for j in range(n)] for i in range(n)]
    assert hnf(mv, n) == hnf(d, n)
    assert abs(det_unimodular(v)) == 1
    nz = [x for x in diag if x]
    assert all(x > 0 for x in nz) and diag == nz + [0] * (n - len(nz))
    for a1, a2 in zip(nz, nz[1:]):
        assert a2 % a1 == 0
    return diag


def test_snf_examples():
    for rows, n, want in [
            ([[1, -2]], 2, [1, 0]),
            ([[10]], 1, [10]),
            ([], 3, [0, 0, 0]),                      # empty, explicit rank
            ([[0, 0], [0, 0]], 2, [0, 0]),           # zero rows
            ([[2, 4], [6, 8], [4, 4]], 2, [2, 4]),   # more rows than columns
            ([[2, 0], [0, 3]], 2, [1, 6]),           # the chain fold
            ([[4, 0], [0, 6]], 2, [2, 12]),
            ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], 3, [1, 30, 30])]:
        assert assert_smith_contract(rows, n) == want, rows


def test_snf_transform_contract():
    rng = random.Random(7)
    for _ in range(150):
        m = rng.randint(0, 4)
        n = rng.randint(1, 4)
        assert_smith_contract(random_matrix(rng, m, n), n)


def test_invariant_factors_match_sympy():
    rng = random.Random(11)
    for _ in range(80):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        ours = [x for x in smith_normal_form(a, n)[0] if x]
        theirs = [int(x) for x in sympy_invariants(sympy.Matrix(a)) if x != 0]
        assert ours == theirs


def test_hnf_canonical_for_equal_lattices():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = random_matrix(rng, rng.randint(1, 4), n)
        basis = hnf(rows, n)
        # shuffling and adding integer combinations leaves the HNF fixed
        combo = list(rows)
        if len(rows) >= 2:
            combo.append(tuple(3 * a - 2 * b for a, b in zip(rows[0], rows[1])))
        rng.shuffle(combo)
        assert hnf(combo, n) == basis
        # idempotent
        assert hnf(basis, n) == basis


def test_hnf_matches_sympy():
    # sympy's column HNF of the transposed rows spans the same lattice, so
    # its columns have the same row HNF
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = random_matrix(rng, rng.randint(1, 5), n)
        h = hermite_normal_form(sympy.Matrix(rows).T)
        cols = [tuple(int(x) for x in h[:, j]) for j in range(h.cols)]
        assert hnf(rows, n) == hnf(cols, n), rows


def test_hnf_input_errors():
    with pytest.raises(ValueError):
        hnf([])
    with pytest.raises(ValueError):
        hnf([(1, 2), (3,)], 2)
    assert hnf([], 3) == []


def _pivot_columns(basis):
    return [next(k for k, x in enumerate(r) if x) for r in basis]


def test_hnf_insert_matches_batch_hnf():
    # one-row insertion must give the unique HNF that gcd elimination
    # computes from scratch; the cases cover the zero vector, members
    # (basis unchanged), negative leading entries, a new pivot before,
    # between or after the old ones, and bases whose lattice misses some
    # pivot columns
    rng = random.Random(17)
    seen = set()
    for _ in range(800):
        n = rng.randint(1, 4)
        basis = tuple(elimination_hnf(
            random_matrix(rng, rng.randint(0, n), n), n))
        kind = rng.choice(("zero", "member", "random", "random"))
        if kind == "zero":
            v = (0,) * n
        elif kind == "member":
            coeffs = [rng.randint(-3, 3) for _ in basis]
            v = tuple(sum(c * r[j] for c, r in zip(coeffs, basis))
                      for j in range(n))
        else:
            zeros = rng.randint(0, n - 1)  # moves the leading column right
            v = (0,) * zeros + tuple(rng.randint(-9, 9)
                                     for _ in range(n - zeros))
        got = _hnf_insert(basis, v)
        assert got == tuple(elimination_hnf(list(basis) + [v], n)), (basis, v)
        if kind in ("zero", "member"):
            assert got == basis
            seen.add(kind)
        if any(v) and next(x for x in v if x) < 0:
            seen.add("negative lead")
        old = _pivot_columns(basis)
        if 0 < len(old) < n:
            seen.add("non-pivot columns")
        for col in set(_pivot_columns(got)) - set(old):
            if old and col < min(old):
                seen.add("pivot before")
            elif old and col > max(old):
                seen.add("pivot after")
            elif old:
                seen.add("pivot between")
    assert seen == {"zero", "member", "negative lead", "non-pivot columns",
                    "pivot before", "pivot between", "pivot after"}


def test_membership_agrees_with_exact_solving():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 4)
        rows = random_matrix(rng, rng.randint(1, n), n)
        lat = LatticeSubgroup.from_rows(n, rows)
        coeffs = [rng.randint(-3, 3) for _ in rows]
        vec = tuple(sum(c * r[j] for c, r in zip(coeffs, rows))
                    for j in range(n))
        assert lat.contains_vector(vec)
        # a vector escaping mod a prime cannot be a member
        if lat.basis:
            probe = tuple(x + 1 for x in lat.basis[0])
            member = lat.contains_vector(probe)
            # compare against solving over Q + integrality of the solution
            mat = sympy.Matrix(list(lat.basis)).T
            sol = mat.gauss_jordan_solve(sympy.Matrix(probe))[0] \
                if mat.rank() == sympy.Matrix(
                    list(lat.basis) + [probe]).T.rank() else None
            if sol is None:
                assert not member
            else:
                feasible = all(x.is_integer for x in sol) \
                    if not sol.free_symbols else None
                if feasible is not None:
                    assert member == feasible


def test_lattice_contains_examples():
    l1 = LatticeSubgroup.from_rows(2, [(2, 0), (0, 2)])
    assert l1.contains(LatticeSubgroup.from_rows(2, [(2, 2)]))
    assert not l1.contains(LatticeSubgroup.from_rows(2, [(1, 1)]))
    l2 = LatticeSubgroup.from_rows(2, [(1, -2)])
    assert l2.contains(LatticeSubgroup.from_rows(2, [(3, -6)]))


def test_sum_and_full():
    a = LatticeSubgroup.from_rows(2, [(2, 0)])
    b = LatticeSubgroup.from_rows(2, [(0, 3), (1, 1)])
    ab = LatticeSubgroup.from_rows(2, a.basis + b.basis)
    assert ab.rank == 2
    assert ab.contains(a) and ab.contains(b)
    full3 = LatticeSubgroup.from_rows(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert full3.contains(LatticeSubgroup.from_rows(3, [(5, -7, 11)]))
    assert ab.is_full() and not a.is_full()
    assert not LatticeSubgroup.from_rows(2, [(2, 0), (0, 1)]).is_full()
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 4)
        rows = random_matrix(rng, rng.randint(1, n + 1), n, bound=2)
        lat = LatticeSubgroup.from_rows(n, rows)
        full = LatticeSubgroup.from_rows(
            n, [tuple(int(i == j) for j in range(n)) for i in range(n)])
        assert lat.is_full() == lat.contains(full)


def test_index_is_the_product_of_invariant_factors():
    """[Z^n : L] is the product of the Smith invariant factors, 0 below
    full rank, and |det| of a square generator matrix."""
    assert LatticeSubgroup.from_rows(2, [(2, 0), (1, 3)]).index() == 6
    assert LatticeSubgroup.from_rows(2, [(2, 4)]).index() == 0
    rng = random.Random(12)
    kinds = Counter()
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = random_matrix(rng, rng.randint(1, n + 1), n, bound=3)
        index = LatticeSubgroup.from_rows(n, rows).index()
        assert index == prod(smith_normal_form(rows, n)[0]), rows
        if len(rows) == n:
            assert index == abs(sympy.Matrix(rows).det()), rows
        kinds["full rank" if index else "below full rank"] += 1
        kinds["index > 1"] += index > 1
    assert min(kinds.values()) >= 20, kinds


def test_hnf_checks_every_row_length_past_the_full_lattice():
    # the first two rows span Z^2, where the insertion stops; a later row
    # of the wrong length is still refused, and a later row of the right
    # length changes nothing
    with pytest.raises(ValueError):
        hnf([(1, 0), (0, 1), (1, 2, 3)])
    with pytest.raises(ValueError):
        hnf([(1, 0), (0, 1), (1,)], 2)
    assert hnf([(3, 1), (1, 0), (5, 7)]) == [(1, 0), (0, 1)]
