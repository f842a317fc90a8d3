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
therefore adds the differences of one left weight class at a time, keeps
the Hermite normal form of the partial lattice L (growing it one row at a
time), and stops as soon as L contains the kernel (every completion then
does too).  As L + <l - r> depends on r only modulo L, the right weights
left to match are kept reduced modulo L, so weights that agree modulo L
merge into one class.  A first phase memoizes on (factor, left class,
remaining right classes mod L, HNF of L) and collects the violating
lattices; its cost follows the number of distinct partial lattices and
reduced multisets rather than the n! bijections of an SU(n) factor.  A
second phase walks the choices in depth-first order to recover each
violating lattice's first choice.  The witness of a non-free action is the
lex-least non-trivial fixed-point element of minimal order, found from the
Smith normal form of each violating lattice; lattices tied on it are taken
in the depth-first order of their first choices, and the first one's
choice is reported.

For Spin(2n) group factors the eigenvalue test is coarser than conjugacy
in the group itself; Free verdicts remain sound, and NotFree verdicts are
flagged with a caveat.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm
import random

from .lattices import (LatticeSubgroup, _hnf_insert, _reduce,
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
            raise ValueError("left and right weight multisets must have "
                             "equal size (same defining representation)")

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
    # auto_center derives the trivially-acting subgroup from the weights;
    # an explicit lattice overrides it (for declared central subgroups).

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


def action_from_obj(obj):
    """A TwoSidedAction from its JSON object (see TwoSidedAction.to_obj).

    Errors about the top level, rank, trivial_lattice, d_family and
    trivial_summand start with "<field>: " so callers can name the field.
    """
    if not isinstance(obj, dict):
        raise ValueError("input: expected a JSON object, got %s"
                         % type(obj).__name__)
    if "rank" not in obj:
        raise ValueError("rank: missing")
    rank = obj["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise ValueError("rank: must be an integer >= 1, got %r" % (rank,))
    factors = []
    for f in obj["factors"]:
        if f["type"] == "group":
            factors.append(GroupFactor(_weights_from_obj(f["left"], rank),
                                       _weights_from_obj(f["right"], rank),
                                       _flag_from_obj(f, "d_family")))
        elif f["type"] == "sphere":
            factors.append(SphereFactor(_weights_from_obj(f["weights"], rank),
                                        _flag_from_obj(f, "trivial_summand")))
        else:
            raise ValueError("unknown factor type %r" % (f["type"],))
    trivial = None
    if obj.get("trivial_lattice"):
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

    def is_identity(self):
        return all(c == 0 for c in self.coords)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def to_obj(self):
        return {"coords": [str(c) for c in self.coords], "order": self.order}


@dataclass(frozen=True)
class Verdict:
    free: bool
    kernel: LatticeSubgroup
    witness: TorusElement = None
    witness_order: int = None
    choice: tuple = None
    caveats: tuple = ()

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
# weight per sphere factor), pruned once the partial lattice contains the
# kernel and memoized on the partial lattice's HNF together with the right
# weights left to match, reduced modulo that lattice.
# ---------------------------------------------------------------------------


def _distributions(total, caps, start=0):
    """Yield the ways to put total items into bins of capacities caps, as
    ((bin, count), ...) with every count positive, in decreasing
    lexicographic order of the full count vector."""
    if total == 0:
        yield ()
        return
    for j in range(start, len(caps)):
        for d in range(min(total, caps[j]), 0, -1):
            for rest in _distributions(total - d, caps, j + 1):
                yield ((j, d),) + rest


def _factor_plan(f):
    """(left classes, right values, right multiplicities) of a group factor;
    None for a sphere factor, which the search takes in one step."""
    if not isinstance(f, GroupFactor):
        return None
    rclasses = sorted(Counter(f.right).items())
    return (sorted(Counter(f.left).items()), [v for v, _ in rclasses],
            tuple(c for _, c in rclasses))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _moves(f, plan, ci, remaining):
    """Yield (generators, step description, remaining after) per option of
    the step at left class ci of a group factor, or of a sphere factor."""
    if plan is None:
        if f.has_trivial_summand:
            yield [], ("sphere: trivial summand, no constraint",), ()
            return
        for w in sorted(set(f.weights)):
            yield [w], ("sphere weight", w), ()
        return
    lclasses, rvals, _ = plan
    lval, lcount = lclasses[ci]
    for dist in _distributions(lcount, remaining):
        rest = list(remaining)
        for j, d in dist:
            rest[j] -= d
        yield ([_sub(lval, rvals[j]) for j, _ in dist],
               tuple((lval, rvals[j], d) for j, d in dist), tuple(rest))


def _violating_lattices(action, kernel):
    """Ordered map {HNF basis of a violating lattice: its first full choice}.

    A lattice is violating when it is generated by a full choice and does
    not contain the kernel.  Keys and choices come in depth-first order of
    the choices (right values sorted, then _distributions order), so the
    first key belongs to the first violating choice.

    Phase 1 collects the violating lattices.  Its memo maps a state
    (factor, left class, remaining right classes, HNF basis of the partial
    lattice L) to the frozenset of violating lattices reachable from it.
    Only l - r mod L matters for L + <l - r>, so the remaining right values
    are kept as their canonical representatives mod L (reduced by the HNF
    pivot rows) with multiplicities, and moves branch over these classes:
    right weights that agree mod L merge into one class.
    Phase 2 recovers each lattice's first choice: a walk through the moves
    in depth-first order, with the actual weights, that takes at each step
    the first move whose state (looked up by its reduced key) can still
    reach the lattice.  The lattices are then ordered by the move indices
    of their walks, which is the order is_free breaks witness ties in.
    """
    rank = action.rank
    factors = action.factors
    plans = [_factor_plan(f) for f in factors]
    reduced = {}  # basis -> {value: its canonical representative mod L}
    covers = {}  # basis -> whether L contains the kernel
    memo = {}

    def reduce(v, basis):
        cache = reduced.get(basis)
        if cache is None:
            cache = reduced[basis] = {}
        r = cache.get(v)
        if r is None:
            r = cache[v] = _reduce(v, basis)
        return r

    def classes(values, basis):
        """Sorted (representative mod L, multiplicity) of (value, count)."""
        out = {}
        for v, m in values:
            r = reduce(v, basis)
            out[r] = out.get(r, 0) + m
        return tuple(sorted(out.items()))

    def grow(basis, gens):
        for g in gens:
            basis = _hnf_insert(basis, g)
        return basis

    def enter(fi, basis):
        """The reachable violating lattices from the start of factor fi."""
        plan = plans[fi] if fi < len(factors) else None
        rights = classes(zip(plan[1], plan[2]), basis) if plan else ()
        return reach(fi, 0, rights, basis)

    def reach(fi, ci, rights, basis):
        key = (fi, ci, rights, basis)
        out = memo.get(key)
        if out is not None:
            return out
        if basis not in covers:
            covers[basis] = LatticeSubgroup(rank, basis).contains(kernel)
        if covers[basis]:  # so does every completion: prune
            out = frozenset()
        elif fi == len(factors):
            out = frozenset([basis])
        elif plans[fi] is None:
            out = frozenset().union(*(
                enter(fi + 1, grow(basis, gens))
                for gens, _, _ in _moves(factors[fi], None, ci, ())))
        else:
            lclasses = plans[fi][0]
            lval, lcount = lclasses[ci]
            parts = []
            for dist in _distributions(lcount, [m for _, m in rights]):
                grown = grow(basis, [_sub(lval, rights[j][0])
                                     for j, _ in dist])
                if ci + 1 == len(lclasses):
                    parts.append(enter(fi + 1, grown))
                    continue
                rest = list(rights)
                for j, d in dist:
                    rest[j] = (rest[j][0], rest[j][1] - d)
                rest = tuple(c for c in rest if c[1])
                if grown is not basis:
                    rest = classes(rest, grown)
                parts.append(reach(fi, ci + 1, rest, grown))
            out = frozenset().union(*parts)
        memo[key] = out
        return out

    def first_choice(target):
        """(move indices, steps) of the first choice generating target."""
        basis, indices, steps = (), [], []
        for fi, f in enumerate(factors):
            plan = plans[fi]
            remaining = plan[2] if plan else ()
            for ci in range(len(plan[0]) if plan else 1):
                last = plan is None or ci + 1 == len(plan[0])
                for k, (gens, step, rest) in enumerate(
                        _moves(f, plan, ci, remaining)):
                    if any(any(reduce(g, target)) for g in gens):
                        continue  # a generator outside the target
                    grown = grow(basis, gens)
                    sub = (enter(fi + 1, grown) if last else
                           reach(fi, ci + 1, classes(
                               [(v, m) for v, m in zip(plan[1], rest) if m],
                               grown), grown))
                    if target in sub:
                        break
                else:
                    raise AssertionError("violating lattice not reached")
                basis, remaining = grown, rest
                indices.append(k)
                steps.append(step)
        return indices, steps

    def per_factor(steps):
        # a group factor took one step per left class, a sphere factor one
        out, i = [], 0
        for plan in plans:
            k = 1 if plan is None else len(plan[0])
            out.append(sum(steps[i:i + k], ()))
            i += k
        return tuple(out)

    walks = sorted(first_choice(target) + (target,)
                   for target in enter(0, ()))
    return {target: per_factor(steps) for _, steps, target in walks}


# ---------------------------------------------------------------------------
# Witness construction
# ---------------------------------------------------------------------------


def _membership_data(rows, rank):
    """(diag, V, k) such that w in L iff (wV)_i = 0 mod d_i and = 0 beyond k."""
    if not rows:
        ident = [[int(i == j) for j in range(rank)] for i in range(rank)]
        return [], ident, 0
    d, _, v = smith_normal_form(list(rows), rank)
    k = min(len(rows), rank)
    diag = [d[i][i] for i in range(k) if d[i][i] != 0]
    return diag, v, len(diag)


def _apply_v(w, v):
    return [sum(w[i] * v[i][j] for i in range(len(w))) for j in range(len(v[0]))]


def _min_order_outside(rows, kernel, rank):
    """Smallest q >= 2 such that some kernel generator escapes L + q*Z^rank."""
    diag, v, k = _membership_data(rows, rank)
    lat = LatticeSubgroup.from_rows(rank, rows)
    best = None
    for kg in kernel.basis:
        if lat.contains_vector(kg):
            continue
        y = _apply_v(kg, v)
        bound = 2
        for i in range(k):
            if y[i] % diag[i] != 0:
                bound = max(bound, diag[i])
        for j in range(k, rank):
            if y[j] != 0:
                bound = max(bound, abs(y[j]) + 1)
        for q in range(2, bound + 1):
            escaped = any(y[i] % gcd(diag[i], q) != 0 for i in range(k)) or \
                any(y[j] % q != 0 for j in range(k, rank))
            if escaped:
                if best is None or q < best:
                    best = q
                break
    return best


def _torsion_generators(rows, q, rank):
    """Generators of the q-torsion of the annihilator of the row lattice."""
    stacked = list(rows) + [tuple(q * int(i == j) for j in range(rank))
                            for i in range(rank)]
    d, _, v = smith_normal_form(stacked, rank)
    gens = []
    for i in range(rank):
        di = d[i][i]
        if di > 1:
            gens.append((tuple(Fraction(v[j][i], di) % 1 for j in range(rank)),
                         di))
    return gens


def _in_annihilator(t, lattice):
    return all(t.pair(g) == 0 for g in lattice.basis)


def _best_witness(basis, kernel, rank):
    """Witness (q, t) of a violating lattice L, given by its HNF basis.

    t is the lex-least element of minimal order q in Ann(L) outside Ann(K),
    K the kernel lattice (which L does not contain).  q is the smallest
    order at which a kernel generator escapes L + qZ^rank, and every
    combination of the torsion generators of Ann(L)[q] = Ann(L + qZ^rank),
    at most q^rank elements, is a candidate; by the minimality of q the
    candidates outside Ann(K) all have order q.
    The answer depends on L alone, so the least one over all violating
    lattices is the lex-least non-trivial fixed-point element of minimal
    order: the element the exhaustive oracle returns at rank <= 2.
    """
    q = _min_order_outside(basis, kernel, rank)
    tors = _torsion_generators(basis, q, rank)
    # numerators over q: a generator of order d divides q
    gens = [[int(x * q) for x in coords] for coords, _ in tors]
    best = None
    for cs in product(*(range(d) for _, d in tors)):
        nums = tuple(sum(c * g[j] for c, g in zip(cs, gens)) % q
                     for j in range(rank))
        if best is not None and nums >= best:
            continue
        if any(sum(k[j] * nums[j] for j in range(rank)) % q
               for k in kernel.basis):
            best = nums
    if best is None:
        raise AssertionError("no witness found despite escape")
    return q, TorusElement(tuple(Fraction(n, q) for n in best))


def is_free(action):
    """Decide effective freeness of the action, with an exact certificate.

    The verdict concerns H modulo its trivially-acting subgroup (read off
    the kernel lattice: a full kernel lattice means H itself acts
    effectively).  NotFree verdicts carry a minimal-order witness, the
    first violating choice (in search order) whose lattice holds it, and a
    caveat when a D-family factor is involved.
    """
    kernel = kernel_lattice(action)
    violations = _violating_lattices(action, kernel)
    caveats = tuple([D_FAMILY_CAVEAT] if any(
        isinstance(f, GroupFactor) and f.d_family for f in action.factors)
        else [])
    if not violations:
        return Verdict(free=True, kernel=kernel)
    best = None
    for basis, choice in violations.items():
        q, t = _best_witness(basis, kernel, action.rank)
        key = (q, t.coords)
        if best is None or key < best[0]:
            best = (key, t, q, choice)
    _, witness, order, choice = best
    return Verdict(free=False, kernel=kernel, witness=witness,
                   witness_order=order, choice=choice, caveats=caveats)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BruteVerdict:
    found_witness: bool
    max_order: int
    exhaustive: bool
    witness: TorusElement = None
    witness_order: int = None

    @property
    def free(self):
        # only meaningful as "no witness up to max_order" unless exhaustive
        # over the whole torsion range of interest
        return not self.found_witness

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
    return _in_annihilator(t, kernel_lattice(action))


def _prefixes(q, length):
    """Yield (nums, gcd(q, *nums)) over range(q)^length in lex order."""
    def rec(acc, g):
        if len(acc) == length:
            yield acc, g
            return
        for a in range(q):
            yield from rec(acc + (a,), gcd(g, a))

    yield from rec((), q)


def _numerators_of_order(q, rank):
    """Numerator vectors of the torus elements of exact order q, lex order."""
    return (nums for nums, g in _prefixes(q, rank) if g == 1)


def _fixed_point_mod(action, nums, q):
    """has_fixed_point for t = nums/q, in integer arithmetic mod q."""
    for f in action.factors:
        if isinstance(f, GroupFactor):
            left = sorted(sum(w[i] * nums[i] for i in range(len(nums))) % q
                          for w in f.left)
            right = sorted(sum(w[i] * nums[i] for i in range(len(nums))) % q
                           for w in f.right)
            if left != right:
                return False
        else:
            if f.has_trivial_summand:
                continue
            if all(sum(w[i] * nums[i] for i in range(len(nums))) % q
                   for w in f.weights):
                return False
    return True


def _first_hit(action, kernel, q):
    """Lex-least numerators of a non-trivial fixed-point element of exact
    order q, or None.

    The last numerator b varies fastest.  Under each prefix of the others
    (lex order), a weight w pairs to (c + w[-1]*b) mod q, c the pairing of
    the prefix with the rest of w, and the candidate list of b is filtered
    condition by condition: exact order q, a zero pairing on every sphere
    factor without a trivial summand, equal sorted pairings left and right
    on every group factor (factor by factor), and last a nonzero pairing
    with some kernel generator (outside the trivially-acting subgroup).
    The first survivor under the first prefix that has one is the answer.
    """
    if action.rank == 0:
        return None  # the zero-dimensional torus has no element of order q
    spheres = [f.weights for f in action.factors
               if isinstance(f, SphereFactor) and not f.has_trivial_summand]
    groups = [(f.left, f.right) for f in action.factors
              if isinstance(f, GroupFactor)]

    def pairings(ws, prefix, bs):
        # per candidate b, the tuple of the weights' pairings mod q
        rows = []
        for w in ws:
            c, s = sum(a * x for a, x in zip(w, prefix)), w[-1]
            rows.append([(c + s * b) % q for b in bs])
        return zip(*rows)

    coprime = {}  # gcd of q and the prefix -> the b giving exact order q
    for prefix, g in _prefixes(q, action.rank - 1):
        if g not in coprime:
            coprime[g] = [b for b in range(q) if gcd(g, b) == 1]
        bs = coprime[g]
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
            return prefix + (bs[0],)
    return None


def brute_force_free(action, max_order, samples=20000, seed=0):
    """Independent oracle: evaluate eigenvalue multisets element by element.

    Exhaustive over all torus elements of order <= max_order when the rank
    is at most 2; documented random sampling otherwise.  A clean pass is
    reported as "no witness up to max_order", never as a proof of freeness.
    The exhaustive pass goes through the orders q = 2, 3, ... in turn and
    within one order through the numerator vectors in lex order, per prefix
    of all but the last numerator, factor by factor (see _first_hit); it
    stops at the first survivor, which is the lex-least non-trivial
    fixed-point element of the smallest order.
    """
    kernel = kernel_lattice(action)
    if action.rank <= 2:
        for q in range(2, max_order + 1):
            nums = _first_hit(action, kernel, q)
            if nums is not None:
                w = TorusElement(tuple(Fraction(a, q) for a in nums))
                return BruteVerdict(True, max_order, True, w, q)
        return BruteVerdict(False, max_order, True)
    rng = random.Random(seed)
    for _ in range(samples):
        q = rng.randint(2, max_order)
        nums = tuple(rng.randrange(q) for _ in range(action.rank))
        if all(a == 0 for a in nums):
            continue
        if all(sum(g[i] * nums[i] for i in range(len(nums))) % q == 0
               for g in kernel.basis):
            continue
        if _fixed_point_mod(action, nums, q):
            t = TorusElement(tuple(Fraction(a, q) for a in nums))
            return BruteVerdict(True, max_order, False, t, t.order)
    return BruteVerdict(False, max_order, False)

