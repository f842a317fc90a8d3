"""Exact freeness decisions for two-sided actions of a torus-covered group.

The acting group H is a product of circles and SU(2)s (or a finite quotient
of one), so every element is conjugate into the maximal torus T = R^r/Z^r
and it suffices to test torus elements.  H acts on a product of group
factors (two-sided translation on a group G through a pair of weight
multisets of G's defining representation) and sphere factors (the unit
sphere of a linear representation).

A torus element t fixes a point of a group factor iff its left and right
images have equal eigenvalue multisets, i.e. iff some bijection sigma
between the weight multisets has all differences w - w' pairing integrally
with t.  It fixes a point of a sphere factor iff some weight pairs
integrally (always, if the representation has a trivial summand).  Every
such condition cuts out the annihilator of an integer lattice, so the
effective action is free iff for every choice of sigma/weight per factor
the resulting difference lattice contains the kernel lattice.

Only the lattice a choice generates matters, not the choice.  The search
therefore matches one weight at a time, from the side with more distinct
weights, to a class of the other side's remaining weights, keeps the
Hermite normal form of the partial lattice L (growing it one row at a
time), and stops as soon as L contains the kernel (every completion then
does too).  As L + <l - r> depends on r only modulo L, the weights left to
match are kept reduced modulo L, so weights that agree modulo L merge into
one class.  A sphere factor is one such step, matching 0 to a class of
its weights.  The search sweeps the factors breadth first, fewest choices
first (sphere factors, then group factors, each by number of weights), one
weight per step, over the set of distinct states (remaining classes mod L,
HNF of L); at each factor boundary only the HNF bases remain.  On an
effective action (kernel lattice Z^r) a partial lattice L of full rank and
index N is replaced by its parts L + mZ^r, one per prime m | N found by
trial division and one for the cofactor it leaves: a completion L' of L is
Z^r iff L' + mZ^r is for every such m (Atiyah and Macdonald, Introduction
to Commutative Algebra, 1969, ch. 2-3), and equal parts of different
states merge.  A part of prime index p where p divides exactly one
Hermite pivot of L, so that L mod p spans a hyperplane of F_p^r with
normal n, is decided on the spot: its only proper completion is itself,
so it stands for a violating lattice iff n/p fixes a point.  Every other
part is searched; the result is the same set.
The lattices of an action that is not effective stay whole.  The search's
cost follows the number of distinct partial lattices and reduced
multisets rather than the n! bijections of an SU(n) factor, or the splits
of a run of equal weights.

The witness of a non-free action is the lex-least non-trivial fixed-point
element of minimal order.  Order 2 is the least order of a non-trivial
element, so is_free first runs the oracle's scan of the elements of order 2
(see _first_hit) over a bounded number of prefixes.  Otherwise every
non-trivial fixed-point element lies in Ann(L) outside Ann(K) for some
violating lattice L, K the kernel lattice, and one Smith form per L gives
the witness: with the invariant factors d_j of L and a unimodular V such
that L*V and the diagonal of the d_j span the same lattice, the elements of
order dividing q in Ann(L) are generated by the columns j of V over
gcd(d_j, q), with d_j = 0 past the rank of L (Cohen, A Course in
Computational Algebraic Number Theory, 1993, section 2.4).  They give the
escape order of L, the least q at which Ann(L)[q] leaves Ann(K).  At the
least escape order over all L the witness is read off the Hermite form of
the numerators of Ann(L)[q], one column at a time, each entry the least
that still leaves an element outside Ann(K).  The eigenvalue matching
reported with the witness is read off the witness alone: the first full
choice whose generators the witness annihilates, with left classes and
right values sorted and the lex-greatest count vector first.

For Spin(2n) group factors the eigenvalue test is coarser than conjugacy
in the group itself; Free verdicts remain sound, and NotFree verdicts are
flagged with a caveat.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, islice, product
from math import gcd, isqrt, lcm

from .lattices import (LatticeSubgroup, _hnf_insert, _reduce, hnf,
                       smith_normal_form)

D_FAMILY_CAVEAT = ("D-family factor present: eigenvalue conjugacy is coarser "
                   "than Spin conjugacy, so this witness may not be sharp")


@dataclass(frozen=True)
class GroupFactor:
    """Two-sided translation on one simple group factor.

    left and right are the weight multisets of the composed representations
    H -> G -> U(defining rep), as integer vectors on H's torus lattice.
    """

    left: tuple
    right: tuple
    d_family: bool = False

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(tuple(w) for w in self.left))
        object.__setattr__(self, "right", tuple(tuple(w) for w in self.right))
        if len(self.left) != len(self.right):
            raise ValueError("factors: left and right weight multisets "
                             "must have equal size (same defining "
                             "representation)")

    @property
    def rank(self):
        return len(self.left[0])


@dataclass(frozen=True)
class SphereFactor:
    """Unit sphere of a linear representation, one weight per rotation plane.

    A trivial summand (or an explicit flag) means every element fixes a
    point, so the factor never constrains freeness.
    """

    weights: tuple
    has_trivial_summand: bool = False

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(tuple(w) for w in self.weights))
        if any(all(x == 0 for x in w) for w in self.weights):
            object.__setattr__(self, "has_trivial_summand", True)

    @property
    def rank(self):
        return len(self.weights[0])


@dataclass(frozen=True)
class TwoSidedAction:
    rank: int
    factors: tuple
    trivial_lattice: LatticeSubgroup = None

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for f in self.factors:
            if f.rank != self.rank:
                raise ValueError("factor rank disagrees with action rank")

    def to_obj(self):
        factors = []
        for f in self.factors:
            if isinstance(f, GroupFactor):
                factors.append({"type": "group",
                                "left": [list(w) for w in f.left],
                                "right": [list(w) for w in f.right],
                                "d_family": f.d_family})
            else:
                factors.append({"type": "sphere",
                                "weights": [list(w) for w in f.weights],
                                "trivial_summand": f.has_trivial_summand})
        obj = {"rank": self.rank, "factors": factors}
        if self.trivial_lattice is not None:
            obj["trivial_lattice"] = self.trivial_lattice.to_obj()
        return obj


def _weights_from_obj(ws, rank):
    """A non-empty list of integer weight vectors, each of length rank."""
    if not isinstance(ws, (list, tuple)) or not ws:
        raise ValueError("weights must be a non-empty list")
    for w in ws:
        if not isinstance(w, (list, tuple)) or len(w) != rank:
            raise ValueError("weight %r is not a vector of length %d"
                             % (w, rank))
        # bool is an int subclass; JSON true/false are not weights
        if not all(isinstance(x, int) and not isinstance(x, bool)
                   for x in w):
            raise ValueError("weight %r has a non-integer entry" % (w,))
    return tuple(map(tuple, ws))


def _flag_from_obj(f, name):
    """An optional JSON boolean of a factor; absent means false."""
    value = f.get(name, False)
    if not isinstance(value, bool):
        raise ValueError("%s: must be true or false, got %r" % (name, value))
    return value


# The largest torus rank accepted from JSON: far past every documented
# action (rank 22 is the largest in the tests), so that no vector or matrix
# is sized from an unchecked integer.
_MAX_RANK = 1000

_FACTOR_KEYS = {"group": ("left", "right"), "sphere": ("weights",)}
_FACTOR_SHAPE = ('{"type": "group", "left": [...], "right": [...]} or '
                 '{"type": "sphere", "weights": [...]}')


def action_from_obj(obj):
    """A TwoSidedAction from its JSON object (see TwoSidedAction.to_obj).

    Every ValueError starts with "<field>: " (input, rank, factors,
    trivial_lattice, d_family or trivial_summand) so callers can name the
    field.
    """
    if not isinstance(obj, dict):
        raise ValueError("input: expected a JSON object, got %s"
                         % type(obj).__name__)
    if "rank" not in obj:
        raise ValueError("rank: missing")
    rank = obj["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) \
            or not 1 <= rank <= _MAX_RANK:
        raise ValueError("rank: must be an integer from 1 to %d, got %r"
                         % (_MAX_RANK, rank))
    if "factors" not in obj:
        raise ValueError("factors: missing")
    if not isinstance(obj["factors"], list):
        raise ValueError("factors: must be a list, got %r" % (obj["factors"],))
    factors = []
    for f in obj["factors"]:
        kind = f.get("type") if isinstance(f, dict) else None
        keys = _FACTOR_KEYS.get(kind) if isinstance(kind, str) else None
        if keys is None or any(k not in f for k in keys):
            raise ValueError("factors: each factor must be %s; got %r"
                             % (_FACTOR_SHAPE, f))
        try:
            weights = [_weights_from_obj(f[k], rank) for k in keys]
        except ValueError as exc:
            raise ValueError("factors: %s" % exc)
        if kind == "group":
            factors.append(GroupFactor(*weights,
                                       _flag_from_obj(f, "d_family")))
        else:
            factors.append(SphereFactor(*weights,
                                        _flag_from_obj(f, "trivial_summand")))
    trivial = None
    if "trivial_lattice" in obj:
        trivial = _trivial_lattice_from_obj(obj["trivial_lattice"], rank)
    return TwoSidedAction(rank, tuple(factors), trivial)


def _trivial_lattice_from_obj(t, rank):
    """A declared kernel lattice: {"rank": rank, "generators": [...]}.

    Errors start with "trivial_lattice: " so callers can name the field.
    """
    if not isinstance(t, dict) or t.get("rank") != rank \
            or isinstance(t.get("rank"), bool):
        raise ValueError("trivial_lattice: expected an object with rank %d "
                         "and a list of generators" % rank)
    gens = t.get("generators")
    try:
        rows = _weights_from_obj(gens, rank) if gens != [] else ()
    except ValueError as exc:
        raise ValueError("trivial_lattice: %s" % exc)
    return LatticeSubgroup.from_rows(rank, rows)


@dataclass(frozen=True)
class TorusElement:
    coords: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "coords", tuple(Fraction(c) % 1 for c in self.coords))

    @property
    def order(self):
        return lcm(*(c.denominator for c in self.coords)) if self.coords else 1

    def pair(self, weight):
        return sum(w * c for w, c in zip(weight, self.coords)) % 1

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def to_obj(self):
        return {"coords": [str(c) for c in self.coords], "order": self.order}


@dataclass(frozen=True)
class Verdict:
    free: bool
    kernel: LatticeSubgroup
    witness: TorusElement = None
    choice: tuple = None
    caveats: tuple = ()

    @property
    def witness_order(self):
        return None if self.witness is None else self.witness.order

    def to_obj(self):
        obj = {"verdict": "free" if self.free else "not_free",
               "kernel_lattice": self.kernel.to_obj(),
               "caveats": list(self.caveats)}
        if not self.free:
            obj["witness"] = self.witness.to_obj()
            obj["choice"] = [_describe_choice(c) for c in self.choice]
        return obj


def _describe_choice(per_factor):
    if per_factor and per_factor[0] == "sphere weight":
        return "sphere weight %s" % (list(per_factor[1]),)
    if per_factor and isinstance(per_factor[0], str):
        return per_factor[0]
    return ["%s -> %s (x%d)" % (list(l), list(r), m)
            for l, r, m in per_factor]


def kernel_lattice(action):
    """Characters vanishing exactly on the trivially-acting subgroup of T.

    Per group factor: all left differences, all right differences, and one
    left-right cross difference (the element must map to equal scalars on
    both sides).  Per sphere factor: the full weight lattice (the element
    must rotate every plane trivially).  An action with no factors leaves
    the whole torus acting trivially.
    """
    if action.trivial_lattice is not None:
        return action.trivial_lattice
    rows = []
    for f in action.factors:
        if isinstance(f, GroupFactor):
            l0, r0 = f.left[0], f.right[0]
            rows.extend(tuple(a - b for a, b in zip(w, l0)) for w in f.left[1:])
            rows.extend(tuple(a - b for a, b in zip(w, r0)) for w in f.right[1:])
            rows.append(tuple(a - b for a, b in zip(l0, r0)))
        else:
            rows.extend(f.weights)
    return LatticeSubgroup.from_rows(action.rank, rows)


# ---------------------------------------------------------------------------
# Choice search on lattice state (multiset bijections per group factor, one
# weight per sphere factor): a frontier sweep over the distinct partial
# lattices' HNFs with the weights left to match, reduced modulo that
# lattice, pruned once the partial lattice contains the kernel.
# ---------------------------------------------------------------------------


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


# The trial-division bound of the per-prime split: the primes up to it that
# divide an index get one part each, and what they leave of the index one
# more, so that a huge index costs at most this many divisions.
_SPLIT_TRIAL_BOUND = 1000


def _split_moduli(n):
    """Pairwise coprime moduli m > 1 whose product has the prime divisors
    of n >= 1: each prime up to _SPLIT_TRIAL_BOUND that divides n, then the
    cofactor trial division leaves, when that is not 1.  Every modulus
    below (_SPLIT_TRIAL_BOUND + 1)^2 is prime: the cofactor has no prime
    factor up to the bound, so a composite one is at least 1009^2."""
    moduli, d = [], 2
    while d <= _SPLIT_TRIAL_BOUND and d * d <= n:
        if n % d == 0:
            moduli.append(d)
            while n % d == 0:
                n //= d
        d += 1 + (d > 2)  # 2, then the odd numbers
    return moduli + [n] * (n > 1)


def _hyperplane_normal(basis, m):
    """The normal n of the hyperplane L mod m when the modulus m is below
    (_SPLIT_TRIAL_BOUND + 1)^2, so prime, and divides exactly one pivot of
    the full-rank HNF basis of L; else None.  With f that pivot's column,
    n_f = 1, n_j = 0 for j > f, and for i = f - 1 down to 0
    back-substitution gives
    n_i = -(sum of basis[i][j]*n_j over i < j <= f) / basis[i][i] mod m."""
    if m >= (_SPLIT_TRIAL_BOUND + 1) ** 2:
        return None
    zeros = [i for i, row in enumerate(basis) if row[i] % m == 0]
    if len(zeros) != 1:
        return None
    f = zeros[0]
    n = [0] * len(basis)
    n[f] = 1
    for i in reversed(range(f)):
        row = basis[i]
        n[i] = -sum(row[j] * n[j] for j in range(i + 1, f + 1)) \
            * pow(row[i], -1, m) % m
    return tuple(n)


def _violating_lattices(action, kernel):
    """A frozenset of HNF bases that stands for the violating lattices: the
    lattices generated by a full choice that do not contain the kernel.

    On an effective action (kernel Z^r) each violating lattice L of full
    rank r and index N is stood for by its parts L + mZ^r, m in
    _split_moduli(N): the primes up to _SPLIT_TRIAL_BOUND dividing N and
    the cofactor they leave.  Every other violating lattice stands for
    itself.  A completion L' of a partial lattice L is Z^r iff
    L' + mZ^r = Z^r for every such m (local-global: the moduli are
    pairwise coprime, their product has the prime divisors of N, and
    N*Z^r lies in L'), so a full-rank partial lattice is replaced by its
    parts, which merge with equal parts of other states.  The witness is
    the same: an effective action's least witness has prime order p, and
    Ann(L')[p] = Ann(L' + mZ^r)[p] for the modulus m that p divides, as
    Ann(L' + mZ^r) = Ann(L')[m].

    A part M = L + pZ^r of prime index p is decided where it arises, with
    no search of its completions, when p is a prime modulus (every modulus
    below (_SPLIT_TRIAL_BOUND + 1)^2 is) that divides exactly one HNF
    pivot of L.  Then L mod p spans the hyperplane {v : n.v = 0 mod p} of
    F_p^r, n from _hyperplane_normal, and M is its preimage, of index p;
    a completion L' of L has L' + pZ^r = M or Z^r, so M stands for some
    violating lattice iff some completion adds only vectors of M, that is
    iff the element t = n/p, which pairs integrally with exactly the
    vectors of M, fixes a point.  That is one test on the whole action:
    equal multisets of pairings with n mod p on the two sides of every
    group factor (the pairs matched so far agree, as their differences lie
    in L), and on every sphere factor without a trivial summand a weight
    that pairs to 0 mod p.  The test is cached per (p, n).  Every other
    part is searched as a state, a hyperplane with two or more pivots
    divisible by p included; a searched M stays in the result iff it
    passes the same test, so the result is the same set.

    The search is a sweep over the factors that keeps the set of HNF bases
    of the partial lattices L at the factor boundary, as the lattices
    reachable from there depend on L alone.  The factors are swept fewest
    choices first, sphere factors before group factors and each kind by its
    number of weights: a violating lattice is a sum of one choice lattice
    per factor, and the set of these sums does not depend on the order in
    which the factors are summed.  Each factor sweeps a frontier of states
    (remaining classes, HNF basis of L) through its steps and collapses it
    back to its bases.  Each step takes one weight s of one side and
    matches it to one class of the other side's remaining weights; a
    sphere factor without a trivial summand is one step, 0 matched to a
    class of its weights, which adds L + <w> for one weight w.
    Only s - c mod L matters for L + <s - c>, so the remaining weights are
    kept as their canonical representatives mod L (reduced by the HNF pivot
    rows) with multiplicities, and each step branches over these classes:
    weights that agree mod L merge into one class.  The side of a group
    factor with more distinct weights supplies the steps and the other the
    classes, so a run of equal weights is one class and never a choice
    among its splits.  Swapping the sides keeps the set of lattices: a
    bijection read backwards is a bijection, and <l - r> = <r - l>.  The
    order of the steps does not change it either: every order reaches the
    lattices of the same bijections, and the result is a set.  A state is
    a set member, so equal states reached in another order merge and each
    is expanded once, and states whose L contains the kernel are dropped,
    as every completion contains it too.
    """
    rank = action.rank
    reduced = {}  # basis -> {value: its canonical representative mod L}
    covers = {}  # basis -> whether L contains the kernel
    parts = {}  # full-rank basis -> the bases of its parts left to search
    hyperplanes = {}  # (m, normal n mod m) -> HNF of the part, or False
    effective = kernel.is_full()

    def covered(basis):
        if basis not in covers:
            covers[basis] = LatticeSubgroup(rank, basis).contains(kernel)
        return covers[basis]

    def fixes(m, n):
        """Whether the element n/m fixes a point."""

        def pair(w):
            return sum(a * b for a, b in zip(n, w)) % m

        for g in action.factors:
            if isinstance(g, GroupFactor):
                if sorted(map(pair, g.left)) != sorted(map(pair, g.right)):
                    return False
            elif not g.has_trivial_summand and all(map(pair, g.weights)):
                return False
        return True

    def part(basis, m):
        """The HNF of L + mZ^r."""
        return reduce(_hnf_insert, [tuple(m * (i == j) for j in range(rank))
                                    for i in range(rank)], basis)

    def split(basis):
        """The bases of the states that stand for an uncovered L: its parts
        L + mZ^r where they apply, else L alone.  A part of prime index
        that _hyperplane_normal reads off the pivots is decided here and
        stands for no state."""
        if not effective or len(basis) < rank:
            return (basis,)
        if basis not in parts:
            states = []
            for m in _split_moduli(LatticeSubgroup(rank, basis).index()):
                n = _hyperplane_normal(basis, m)
                if n is None:
                    states.append(part(basis, m))
                elif (m, n) not in hyperplanes:
                    hyperplanes[m, n] = fixes(m, n) and part(basis, m)
            parts[basis] = tuple(states)
        return parts[basis]

    def classes(values, basis):
        """Sorted (representative mod L, multiplicity) of (value, count)."""
        cache = reduced.setdefault(basis, {})
        out = {}
        for v, m in values:
            if v not in cache:
                cache[v] = _reduce(v, basis)
            out[cache[v]] = out.get(cache[v], 0) + m
        return tuple(sorted(out.items()))

    def choices(f):
        if isinstance(f, GroupFactor):
            return True, len(f.left)
        return False, len(f.weights)

    bases = set() if covered(()) else {()}
    for f in sorted(action.factors, key=choices):
        if isinstance(f, GroupFactor):
            steps, bins = f.left, f.right
            if len(set(steps)) < len(set(bins)):
                steps, bins = bins, steps
        elif f.has_trivial_summand:
            continue
        else:
            steps, bins = [(0,) * rank], f.weights
        counts = tuple(Counter(bins).items())
        frontier = {(classes(counts, b), b) for b in bases}
        for step in sorted(steps):
            grown_states = set()
            for rest, basis in frontier:
                for j, (v, m) in enumerate(rest):
                    grown = _hnf_insert(basis, _sub(step, v))
                    if covered(grown):
                        continue
                    shrunk = rest[:j] + ((v, m - 1),) * (m > 1) + rest[j + 1:]
                    if grown is basis:
                        grown_states.add((shrunk, grown))
                    else:
                        grown_states.update((classes(shrunk, g), g)
                                            for g in split(grown))
            frontier = grown_states
        bases = {b for _, b in frontier}
    return frozenset(bases).union(filter(None, hyperplanes.values()))


def _first_choice(action, witness):
    """The first full choice, with left classes and right values sorted and
    the lex-greatest count vector first, whose generators the witness
    annihilates: per group factor its (left, right, multiplicity) steps, per
    sphere factor its step.

    Each left class goes greedily to the right values with the same pairing
    with the witness, as many to each as it still has.  The witness fixes a
    point, so on a group factor the left and right pairings are equal
    multisets and every greedy step can be completed; the greedy fill is
    the lex-greatest feasible count vector.  Pairings are only compared,
    so they are taken as integers mod the witness's order q, from the
    witness's numerators over q.
    """
    q = witness.order
    nums = [c.numerator * (q // c.denominator) for c in witness.coords]

    def pair(w):
        return sum(a * n for a, n in zip(w, nums)) % q

    choice = []
    for f in action.factors:
        if not isinstance(f, GroupFactor):
            choice.append(
                ("sphere: trivial summand, no constraint",)
                if f.has_trivial_summand else ("sphere weight", min(
                    w for w in f.weights if pair(w) == 0)))
            continue
        rclasses = sorted(Counter(f.right).items())
        remaining, steps = [m for _, m in rclasses], []
        rpairs = [pair(r) for r, _ in rclasses]
        for lval, lcount in sorted(Counter(f.left).items()):
            p = pair(lval)
            for j, (r, _) in enumerate(rclasses):
                d = min(lcount, remaining[j]) if rpairs[j] == p else 0
                if d:
                    steps.append((lval, r, d))
                    remaining[j] -= d
                    lcount -= d
        if any(remaining):
            raise AssertionError("the witness fixes no point of a factor")
        choice.append(tuple(steps))
    return tuple(choice)


# ---------------------------------------------------------------------------
# Witness construction
# ---------------------------------------------------------------------------


def _escape_order(diag, v, kernel):
    """The escape order of a violating lattice L, given by its Smith data:
    the least q such that some element of order dividing q in Ann(L) lies
    outside Ann(K), K the kernel lattice (which L does not contain).

    With L*V = U*D, D the diagonal of diag, Ann(L)[q] is generated by
    column j of V over gcd(diag[j], q) (with diag[j] = 0 past the rank of
    L), so a kernel row k pairs non-integrally with some element of
    Ann(L)[q] iff some (k*V)_j is not 0 mod gcd(diag[j], q).
    """
    rank = len(v)
    ys = [[sum(k[i] * v[i][j] for i in range(rank)) for j in range(rank)]
          for k in kernel.basis]
    # y_j escapes at c = diag[j] if that is not 0, else at c = |y_j| + 1,
    # iff c does not divide y_j (gcd(diag[j], c) = c); the least such c
    # bounds q
    bound = min((c for y in ys for yj, dj in zip(y, diag)
                 for c in [dj or abs(yj) + 1] if yj % c), default=1)
    q = next((q for q in range(2, bound + 1) if any(
        yj % gcd(dj, q) for y in ys for yj, dj in zip(y, diag))), None)
    if q is None:
        raise AssertionError("no kernel row escapes the violating lattice")
    return q


def _annihilator_basis(diag, v, q):
    """The HNF rows of the lattice of numerators over q of Ann(L)[q], L
    given by its Smith data: column j of V times q/gcd(diag[j], q), and
    q*e_i for each i.  As it contains qZ^r, row i has its pivot, a divisor
    of q, in column i."""
    rank = len(v)
    return hnf([tuple(row[j] * (q // gcd(dj, q)) for row in v)
                for j, dj in enumerate(diag)]
               + [tuple(q * (i == j) for j in range(rank))
                  for i in range(rank)], rank)


def _least_escape(diag, v, q, kernel):
    """Numerators over q of the lex-least element of Ann(L)[q] outside
    Ann(K), L given by its Smith data and q its escape order.

    Column by column, entry i takes the least value in [0, q) that keeps an
    element outside Ann(K) among the completions.  With the rows of
    _annihilator_basis, the elements that agree with the vector x built so
    far before column i form the coset x + S, S spanned by the rows from i
    on, and entry i ranges over the values congruent to x_i mod the pivot
    h_i of row i.  A coset x + S lies in Ann(K) iff x and S both do, so
    a value is kept when some later row, or the vector it gives, pairs
    non-zero mod q with a kernel row.  By the minimality of q the elements
    outside Ann(K) all have order q.
    """
    rows = _annihilator_basis(diag, v, q)

    def escapes(x):
        return any(sum(a * b for a, b in zip(k, x)) % q for k in kernel.basis)

    later = [any(map(escapes, rows[i + 1:])) for i in range(len(rows))]
    x = [0] * len(rows)
    for i, row in enumerate(rows):
        for value in range(x[i] % row[i], q, row[i]):
            y = [(a + (value - x[i]) // row[i] * b) % q
                 for a, b in zip(x, row)]
            if later[i] or escapes(y):
                x = y
                break
    if not escapes(x):
        raise AssertionError("no witness found despite escape")
    return tuple(x)


def _element(nums, q):
    """The torus element with the given numerators over q."""
    return TorusElement(tuple(Fraction(a, q) for a in nums))


def _not_free(action, kernel, witness):
    """The NotFree verdict of a witness."""
    caveats = tuple([D_FAMILY_CAVEAT] if any(
        isinstance(f, GroupFactor) and f.d_family for f in action.factors)
        else [])
    return Verdict(free=False, kernel=kernel, witness=witness,
                   choice=_first_choice(action, witness), caveats=caveats)


def _lattice_verdict(action, kernel):
    """The verdict of the violating-lattice search: Free when there is no
    violating lattice, else the lex-least element of the least escape order
    over them that leaves Ann(K)."""
    violations = _violating_lattices(action, kernel)
    if not violations:
        return Verdict(free=True, kernel=kernel)
    smiths = [smith_normal_form(basis, action.rank) for basis in violations]
    orders = [_escape_order(diag, v, kernel) for diag, v in smiths]
    q = min(orders)
    nums = min(_least_escape(diag, v, q, kernel)
               for (diag, v), order in zip(smiths, orders) if order == q)
    return _not_free(action, kernel, _element(nums, q))


# The most prefixes is_free's scan of the elements of order 2 walks before
# the lattice search decides: all 2^(rank - 1) of them up to rank 8.  On 2
# cores with Python 3.11, the free T^16 action on (S^1)^16 takes 5 ms, where
# the whole scan takes 0.4 s; with the witness (1/2, 0, ..., 0) under prefix
# 2^14 + 1 (spheres S(e_i), 0 < i < 16, and S(2e_0, e_0 + e_1); or the one
# sphere S(2e_0, 3e_0)) it takes 13 or 2 ms, the scan 0.21 or 0.16 s.
# Within the budget the scan is the faster path: without it a pass over
# perfbench's freeness-scale jobs takes 0.053 s, not 0.012 s.
_ORDER_TWO_PREFIXES = 128


def is_free(action):
    """Decide effective freeness of the action, with an exact certificate.

    The verdict concerns H modulo its trivially-acting subgroup (read off
    the kernel lattice: a full kernel lattice means H itself acts
    effectively).  NotFree verdicts carry a minimal-order witness (the
    lex-least non-trivial fixed-point element of minimal order), the first
    choice in sorted order whose generators it annihilates, and a caveat
    when a D-family factor is involved.

    Order 2 is minimal, so the first non-trivial fixed-point element of
    order 2, if any, is the witness.  The scan for it stops after
    _ORDER_TWO_PREFIXES prefixes, as it walks 2^(rank - 1) of them on an
    action without one; the prefixes go in lex order, so a hit within them
    is still the lex-least.  Every other verdict, Free ones included, comes
    from the violating-lattice search, which gives the same witness.
    """
    kernel = kernel_lattice(action)
    witness = _first_hit(action, kernel, 2, stop=_ORDER_TWO_PREFIXES)
    if witness is not None:
        return _not_free(action, kernel, witness)
    return _lattice_verdict(action, kernel)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BruteVerdict:
    max_order: int
    witness: TorusElement = None
    exhaustive = True  # every order up to max_order is covered

    @property
    def found_witness(self):
        return self.witness is not None

    @property
    def witness_order(self):
        return None if self.witness is None else self.witness.order

    def to_obj(self):
        obj = {"found_witness": self.found_witness,
               "max_order": self.max_order,
               "exhaustive": self.exhaustive}
        if self.found_witness:
            obj["witness"] = self.witness.to_obj()
        return obj


def has_fixed_point(action, t):
    """Direct evaluation: equal eigenvalue multisets on every group factor,
    and a unit eigenvalue on every sphere factor."""
    for f in action.factors:
        if isinstance(f, GroupFactor):
            left = sorted(t.pair(w) for w in f.left)
            right = sorted(t.pair(w) for w in f.right)
            if left != right:
                return False
        else:
            if f.has_trivial_summand:
                continue
            if all(t.pair(w) != 0 for w in f.weights):
                return False
    return True


def acts_trivially(action, t):
    return all(t.pair(g) == 0 for g in kernel_lattice(action).basis)


def _numerators_of_order(q, rank):
    """Numerator vectors of the torus elements of exact order q, lex order."""
    return (n for n in product(range(q), repeat=rank) if gcd(q, *n) == 1)


def _first_hit(action, kernel, q, stop=None):
    """The lex-least non-trivial fixed-point element of exact order q, or
    None.  When the kernel lattice is 0 every element acts trivially, so
    None comes back at once.  Given stop, only the first stop prefixes (see
    below) are walked, and None also means none of them holds one.

    For a unit u mod q, t and u*t generate one cyclic group, so they fix
    the same points and act trivially or not together: every pairing is
    multiplied by u, which keeps zero pairings zero, permutes Z/q (equal
    sorted pairings stay equal) and keeps a nonzero kernel pairing nonzero.
    The units carry the first nonzero numerator x of t to every y with
    gcd(y, q) = gcd(x, q), the least of which is gcd(x, q).  So the lex-least
    witness leads with a divisor of q, and only the prefixes whose first
    nonzero numerator divides q are walked, the divisors found by trial
    division up to sqrt(q); under the zero prefix b leads, so only b = 1.
    At a prime q that is 1 + (q^(rank-1) - 1)/(q - 1) prefixes, one per
    cyclic subgroup, in place of q^(rank-1); at q = 2 none is skipped.

    The last numerator b varies fastest.  Under each prefix of the others
    (lex order), a vector d pairs to (c + s*b) mod q, with s = d[-1] and c
    the pairing of the prefix with d[:-1].  The candidates for b come from
    an anchor: a set of vectors of which a fixed point must annihilate one,
    either the distinct weights of a sphere factor without a trivial
    summand, or l - r over the distinct right weights r of a group factor
    for one of its left weights l (equal eigenvalue multisets give l's
    eigenvalue to some r).  s*b = -c (mod q) is solvable iff h = gcd(s, q)
    divides c, and its solutions are one residue mod q/h, about gcd(q, *d)
    values of b per prefix on average.  The anchor with the least sum of
    these is taken, the first on a tie (spheres, then each group factor's
    distinct left weights).  A group anchor's sum is scored by residue
    class: gcd(q, *(l - r)) depends on l and r only mod q, so the distinct
    right weights are counted by residue mod q, each distinct left residue
    is scored once against those counts, and only the winner's differences
    are built.  An action with no anchor (only spheres with a trivial
    summand) takes the zero vector, which every b annihilates.  The anchor
    is only a necessary condition (one left weight, or one factor), so the
    candidates of exact order q still go through every condition in turn:
    a zero pairing on every sphere factor without a trivial summand, equal
    sorted pairings left and right on every group factor (factor by
    factor), and last a nonzero pairing with some kernel generator
    (outside the trivially-acting subgroup).  The first survivor under the
    first prefix that has one is the answer.
    """
    if not kernel.basis:
        return None  # every element acts trivially
    spheres = [set(f.weights) for f in action.factors
               if isinstance(f, SphereFactor) and not f.has_trivial_summand]
    groups = [(f.left, f.right) for f in action.factors
              if isinstance(f, GroupFactor)]
    anchor, least, winner = {(0,) * action.rank}, None, None
    for ws in spheres:
        score = sum(gcd(q, *d) for d in ws)
        if least is None or score < least:
            anchor, least = ws, score
    for left, right in groups:
        rights = Counter(tuple(x % q for x in r) for r in set(right))
        scores = {}  # left residue mod q -> score
        for l in set(left):
            lq = tuple(x % q for x in l)
            if lq not in scores:
                scores[lq] = sum(m * gcd(q, *_sub(lq, r))
                                 for r, m in rights.items())
            if least is None or scores[lq] < least:
                winner, least = (l, right), scores[lq]
    if winner:
        l, right = winner
        anchor = {_sub(l, r) for r in right}
    progressions = []  # (d[:-1], h, q/h, inverse of s/h mod q/h) per d
    for d in anchor:
        h = gcd(d[-1], q)
        progressions.append((d[:-1], h, q // h, pow(d[-1] // h, -1, q // h)))

    def pairings(ws, prefix, bs):
        # per candidate b, the tuple of the weights' pairings mod q
        if not bs:  # nothing left to filter under this prefix
            return ()
        rows = []
        for w in ws:
            c, s = sum(a * x for a, x in zip(w, prefix)), w[-1]
            rows.append([(c + s * b) % q for b in bs])
        return zip(*rows)

    n = action.rank - 1
    small = [d for d in range(1, isqrt(q) + 1) if q % d == 0]
    heads = small + [q // d for d in reversed(small) if 1 < d and d * d < q]
    # the divisors of q below q, ascending, lead every prefix but the zero
    # one; in lex order, prefixes with more leading zeros come first
    prefixes = chain([(0,) * n], *(
        product(*[(0,)] * z, heads, *[range(q)] * (n - 1 - z))
        for z in reversed(range(n))))
    for prefix in islice(prefixes, stop):
        g = gcd(q, *prefix)
        bs = set()
        for head, h, step, inv in progressions:
            c = sum(a * x for a, x in zip(head, prefix))
            if c % h == 0:
                bs.update(range(-c // h * inv % step, q, step))
        if g == q:  # the zero prefix: b leads, and the unit dividing q is 1
            bs &= {1}
        bs = sorted(b for b in bs if gcd(g, b) == 1)
        for ws in spheres:
            bs = [b for b, p in zip(bs, pairings(ws, prefix, bs))
                  if not all(p)]
        for left, right in groups:
            bs = [b for b, pl, pr in zip(bs, pairings(left, prefix, bs),
                                         pairings(right, prefix, bs))
                  if sorted(pl) == sorted(pr)]
        # few elements fix a point, so the kernel test comes last
        bs = [b for b, p in zip(bs, pairings(kernel.basis, prefix, bs))
              if any(p)]
        if bs:
            return _element(prefix + (bs[0],), q)
    return None


def brute_force_free(action, max_order):
    """Independent oracle: evaluate eigenvalue multisets element by element.

    Covers every torus element of order <= max_order at every rank by
    visiting only the orders that can hold the least witness: its powers of
    smaller order fix its point, so act trivially, which forces its order to
    be p^a with p^(a-1) dividing the order of the trivially-acting subgroup,
    the kernel lattice's index (0 below full rank).  A clean pass is
    reported as "no witness up to max_order", never as a proof of freeness.
    Within one order q the pass goes through the numerator vectors in lex
    order, per prefix of all but the last numerator, and walks only the
    prefixes that lead with a divisor of q, as the least generator of each
    cyclic subgroup does (see _first_hit).  Under a prefix the last
    numerators come from the solutions of one linear congruence per vector
    of an anchor, a factor's condition that a fixed point needs but that
    does not imply one; each candidate is then tested on every factor and
    against the kernel.  The pass stops at the first
    survivor, which is the lex-least non-trivial fixed-point element of the
    smallest order.  Each order's least prime factor comes from trial
    division up to its square root.  On an effective action only the primes
    are visited, and the cost grows about as
    max_order^(rank-1) / ((rank-1) log max_order) prefixes: on 2 cores with
    Python 3.11 a clean pass on the rank-3 hp_sum_action(3) takes about
    0.006 s to order 60, 0.05 s to order 200 and 0.9 s to order 1,000
    (0.2 s to order 60 and 7 s to order 200 while every prefix was
    walked).
    """
    kernel = kernel_lattice(action)
    index = kernel.index()
    for q in range(2, max_order + 1):
        p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
        if pow(p, q, q) or index % (q // p):  # not p^a with p^(a-1) | index
            continue
        w = _first_hit(action, kernel, q)
        if w is not None:
            return BruteVerdict(max_order, w)
    return BruteVerdict(max_order)
