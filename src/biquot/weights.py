"""Representations of tori, and of products of circles and SU(2)s, as exact
integer weight multisets.

A weight is an integer vector on the character lattice of the torus, stored
scaled: a lattice of scale 2 holds half-integer spin weights as integers.
Real representations are stored through their complexified weight multiset
(so the stored length is the real dimension), together with a choice of one
weight per (w, -w) pair used for Euler classes; the choice is canonical for
realifications of complex representations and only sign-ambiguous for
genuinely real ones.

Dynkin indices are computed on a rank-1 restriction as half the sum of
squared weights, divided by the normalization of the target group's
defining representation (1 for SU and Sp, 2 for Spin(m) with m >= 5 and for
the 7-dimensional representation of G2).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

from .groups import SimpleGroupId, SU, Sp, Spin, G2, UnsupportedGroupError, \
    has_weight_data, index_norm
from .polyring import Poly

COMPLEX = "complex"
REAL = "real"


@dataclass(frozen=True)
class TorusLattice:
    rank: int
    scale: int = 1

    def __post_init__(self):
        if self.scale not in (1, 2):
            raise ValueError("scale must be 1 or 2")
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")


def _canonical_half(weights):
    """One representative per (w, -w) pair, preferring the lex-larger one."""
    pool = Counter(weights)
    half = []
    for w in sorted(pool, reverse=True):
        neg = tuple(-x for x in w)
        if w <= neg:
            continue
        while pool[w] > 0:
            if pool[neg] <= 0:
                raise ValueError("real representation weights are not "
                                 "closed under negation: %s" % (weights,))
            pool[w] -= 1
            pool[neg] -= 1
            half.append(w)
    for w, m in pool.items():
        if m and any(x != 0 for x in w):
            raise ValueError("real representation weights are not closed "
                             "under negation: %s" % (weights,))
    return tuple(sorted(half, reverse=True))


@dataclass(frozen=True)
class WeightRep:
    lattice: TorusLattice
    weights: tuple
    reality: str = COMPLEX
    label: str = ""
    half: tuple = None
    oriented: bool = True

    def __post_init__(self):
        for w in self.weights:
            if len(w) != self.lattice.rank:
                raise ValueError("weight length does not match lattice rank")
        if self.reality == REAL and self.half is None:
            object.__setattr__(self, "half", _canonical_half(self.weights))
            object.__setattr__(self, "oriented", False)

    @property
    def dim(self):
        """Complex dimension for complex reps, real dimension for real ones."""
        return len(self.weights)

    def sorted_weights(self):
        return tuple(sorted(self.weights))

    def zero_weight_count(self):
        zero = (0,) * self.lattice.rank
        return sum(1 for w in self.weights if w == zero)

    def relabel(self, label):
        return WeightRep(self.lattice, self.weights, self.reality, label,
                         self.half, self.oriented)


def make_rep(rank, weights, reality=COMPLEX, scale=1, label=""):
    return WeightRep(TorusLattice(rank, scale), tuple(tuple(w) for w in weights),
                     reality, label)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def su2_irrep(k):
    """Sym^k of the standard SU(2) representation; weights k, k-2, ..., -k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return su2_power_rep([(k,)])


def _irrep_label(a):
    """C, V, S3V for Sym^a of SU(2); V1, S3V2, V1*V2 for the irrep
    Sym^a1 x ... x Sym^ak of SU(2)^k (C when trivial)."""
    names = ["%sV%s" % ("" if x == 1 else "S%d" % x,
                        "" if len(a) == 1 else i + 1)
             for i, x in enumerate(a) if x]
    return "*".join(names) or "C"


def su2_power_rep(irreps, reality=COMPLEX):
    """Sum of irreps Sym^a1 x ... x Sym^ak of SU(2)^k, one tuple (a1..ak)
    per summand, largest first, labeled like S3V, V+2C at k = 1 and 2V1,
    V1+V2, V2+2C at k = 2."""
    irreps = sorted(irreps, reverse=True)
    weights = [w for a in irreps
               for w in product(*(range(x, -x - 1, -2) for x in a))]
    c = Counter(irreps)
    label = "+".join(("%d" % c[a] if c[a] > 1 else "") + _irrep_label(a)
                     for a in sorted(c, reverse=True))
    return make_rep(len(irreps[0]), weights, reality=reality, label=label)


def su2_rep(parts, reality=COMPLEX):
    """Sum of SU(2) irreps given by dimensions (partition parts)."""
    return su2_power_rep([(d - 1,) for d in parts], reality)


_LABEL_PIECE = re.compile(r"^(\d*)(C|V|S(\d+)V)$")


def _label_parts(label):
    """Multiplicity of each SU(2) irrep dimension a label like 'V+2C' or
    'S3V' names, as a Counter; nothing is expanded, so a huge multiplicity
    costs nothing."""
    parts = Counter()
    for piece in label.split("+"):
        m = _LABEL_PIECE.match(piece.strip())
        if not m:
            raise ValueError("bad label piece %r" % (piece,))
        mult = int(m.group(1)) if m.group(1) else 1
        if mult == 0:
            raise ValueError("zero multiplicity in label piece %r" % (piece,))
        if m.group(2) == "C":
            d = 1
        elif m.group(2) == "V":
            d = 2
        else:
            d = int(m.group(3)) + 1
        parts[d] += mult
    return parts


def su2_rep_from_label(label, reality=COMPLEX):
    """Parse labels like 'V+2C', 'S3V', '2S2V+C' back into a weight rep."""
    return su2_rep(_label_parts(label).elements(), reality=reality)


def zero_weights(rank, count):
    return [(0,) * rank] * count


def standard_rep(gid):
    """Weights of the defining representation on the maximal torus.

    SU(n): e_1..e_{n-1} and -(e_1+...+e_{n-1}) on the rank n-1 lattice;
    Sp(2n): +-e_i; Spin(m): +-e_i plus a zero weight for odd m; G2: the
    7-dimensional representation with short-root weights.
    """
    f, l = gid.family, gid.rank
    if f == "A":
        n = l + 1
        ws = [tuple(int(i == j) for j in range(l)) for i in range(l)]
        ws.append(tuple(-1 for _ in range(l)))
        return make_rep(l, ws, label="std(SU(%d))" % n)
    if f in ("B", "C", "D"):
        ws = []
        for i in range(l):
            e = tuple(int(i == j) for j in range(l))
            ws.extend([e, tuple(-x for x in e)])
        if f == "C":
            return make_rep(l, ws, label="std(Sp(%d))" % (2 * l))
        if f == "B":
            ws.append((0,) * l)
        return make_rep(l, ws, reality=REAL, label="vec(Spin(%d))" % len(ws))
    if f == "G2":
        ws = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
        return make_rep(2, ws, reality=REAL, label="fund7(G2)")
    raise UnsupportedGroupError("no weight data for %s" % (gid,))


def spin_vector_rep(m):
    """Vector representation of Spin(m) on the torus of its alias group.

    For m >= 7 this is standard_rep of the B/D group; the low-rank aliases
    need a translation: Spin(3) = SU(2) has vector rep S2V, Spin(5) = Sp(4)
    has the reduced exterior square of the standard rep, Spin(6) = SU(4)
    has the full exterior square.
    """
    if m >= 7:
        return standard_rep(Spin(m))
    if m == 3:
        return su2_rep([3], reality=REAL).relabel("vec(Spin(3))")
    if m == 5:
        ws = list(exterior_square(standard_rep(Sp(4))).weights)
        ws.remove((0, 0))
        return make_rep(2, ws, reality=REAL, label="vec(Spin(5))")
    if m == 6:
        wedge = exterior_square(standard_rep(SU(4)))
        return make_rep(3, wedge.weights, reality=REAL, label="vec(Spin(6))")
    raise ValueError("no simple spin group of vector size %d" % (m,))


def _spin_size(h):
    """Vector size m with h = Spin(m), decoding the low-rank aliases."""
    if h.family == "B":
        return 2 * h.rank + 1
    if h.family == "D":
        return 2 * h.rank
    alias = {SU(2): 3, Sp(4): 5, SU(4): 6}
    if h in alias:
        return alias[h]
    raise ValueError("%s is not a spin group" % (h,))


def spin_rep(m, chirality=None):
    """Spin representation of Spin(m): all (+-1/2, ..., +-1/2) vectors.

    Stored on a scale-2 lattice.  For even m >= 6, chirality 'plus' selects
    an even number of minus signs and 'minus' an odd number.
    """
    if m < 3:
        raise ValueError("spin_rep needs m >= 3")
    k = m // 2
    if m % 2 == 0:
        if m < 6:
            raise ValueError("chirality-split spin representations need m >= 6")
        if chirality not in ("plus", "minus"):
            raise ValueError("even m needs chirality 'plus' or 'minus'")
    elif chirality is not None:
        raise ValueError("odd m has a single spin representation")
    ws = []
    for mask in range(2 ** k):
        signs = [1 if (mask >> i) & 1 == 0 else -1 for i in range(k)]
        minus = sum(1 for s in signs if s < 0)
        if m % 2 == 0 and (minus % 2 == 0) != (chirality == "plus"):
            continue
        ws.append(tuple(signs))
    label = "spin(%d)" % m if m % 2 else "spin%s(%d)" % (
        "+" if chirality == "plus" else "-", m)
    return make_rep(k, ws, reality=REAL, scale=2, label=label)


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------


def _unify_scale(a, b):
    if a.lattice.rank != b.lattice.rank:
        raise ValueError("lattice rank mismatch: %d vs %d"
                         % (a.lattice.rank, b.lattice.rank))
    if a.lattice.scale == b.lattice.scale:
        return a, b
    if a.lattice.scale == 1:
        a = _rescale(a, 2)
    else:
        b = _rescale(b, 2)
    return a, b


def _rescale(rep, scale):
    f = scale // rep.lattice.scale
    return WeightRep(
        TorusLattice(rep.lattice.rank, scale),
        tuple(tuple(f * x for x in w) for w in rep.weights),
        rep.reality, rep.label,
        None if rep.half is None else tuple(tuple(f * x for x in w)
                                            for w in rep.half),
        rep.oriented)


def rep_sum(a, b):
    a, b = _unify_scale(a, b)
    label = "+".join(x for x in (a.label, b.label) if x)
    if a.reality == COMPLEX and b.reality == COMPLEX:
        return WeightRep(a.lattice, a.weights + b.weights, COMPLEX, label)
    if a.reality == COMPLEX:
        a = realify(a)
    if b.reality == COMPLEX:
        b = realify(b)
    return WeightRep(a.lattice, a.weights + b.weights, REAL, label,
                     tuple(sorted(a.half + b.half, reverse=True)),
                     a.oriented and b.oriented)


def rep_tensor(a, b):
    a, b = _unify_scale(a, b)
    if a.reality != COMPLEX or b.reality != COMPLEX:
        raise ValueError("tensor is implemented for complex representations")
    ws = tuple(tuple(x + y for x, y in zip(wa, wb))
               for wa in a.weights for wb in b.weights)
    label = "(%s)x(%s)" % (a.label, b.label) if a.label and b.label else ""
    return WeightRep(a.lattice, ws, COMPLEX, label)


def rep_dual(a):
    ws = tuple(tuple(-x for x in w) for w in a.weights)
    return WeightRep(a.lattice, ws, a.reality, a.label and a.label + "*",
                     a.half, a.oriented)


def realify(a):
    """Underlying real representation of a complex one: weights of V + V*.

    The complex structure orients it; the Euler class is the top Chern class
    of V, so the stored half is exactly V's weight multiset.
    """
    if a.reality != COMPLEX:
        raise ValueError("realify expects a complex representation")
    dual = tuple(tuple(-x for x in w) for w in a.weights)
    return WeightRep(a.lattice, a.weights + dual, REAL,
                     a.label and "(%s)_R" % a.label,
                     tuple(sorted(a.weights, reverse=True)), True)


def complexify(a):
    """W tensor C for real W; the weight multiset is kept as stored."""
    if a.reality != REAL:
        raise ValueError("complexify expects a real representation")
    return WeightRep(a.lattice, a.weights, COMPLEX,
                     a.label and "(%s)_C" % a.label)


def exterior_square(a):
    if a.reality != COMPLEX:
        raise ValueError("exterior_square expects a complex representation")
    ws = []
    n = len(a.weights)
    for i in range(n):
        for j in range(i + 1, n):
            ws.append(tuple(x + y for x, y in zip(a.weights[i], a.weights[j])))
    return WeightRep(a.lattice, tuple(ws), COMPLEX,
                     a.label and "L2(%s)" % a.label)


def restrict_coords(rep, coords):
    """Restrict along the subtorus spanned by the given coordinates."""
    ws = tuple(tuple(w[i] for i in coords) for w in rep.weights)
    return WeightRep(TorusLattice(len(coords), rep.lattice.scale), ws,
                     rep.reality, rep.label)


def restrict_circle(rep, direction):
    """Restrict along the circle with the given integer direction vector."""
    if len(direction) != rep.lattice.rank:
        raise ValueError("direction length mismatch")
    ws = tuple((sum(x * d for x, d in zip(w, direction)),) for w in rep.weights)
    return WeightRep(TorusLattice(1, rep.lattice.scale), ws, rep.reality,
                     rep.label)


# ---------------------------------------------------------------------------
# Clebsch-Gordan
# ---------------------------------------------------------------------------


def clebsch_gordan(a, b):
    """Sym^a V tensor Sym^b V = sum of Sym^(a+b-2i), i = 0..min(a, b).

    Returns the list of symmetric-power indices, largest first.
    """
    if a < 0 or b < 0:
        raise ValueError("labels must be nonnegative")
    return [a + b - 2 * i for i in range(min(a, b) + 1)]


# ---------------------------------------------------------------------------
# Dynkin indices
# ---------------------------------------------------------------------------


def dynkin_index(rep, norm):
    """(1/2) sum of squared weights of a rank-1 restriction, over norm.

    A non-integral result signals a wrong normalization for the target.
    """
    if rep.lattice.rank != 1:
        raise ValueError("dynkin_index expects a rank-1 restriction")
    if norm <= 0:
        raise UnsupportedGroupError("no Dynkin normalization available")
    q = Fraction(sum(w[0] * w[0] for w in rep.weights),
                 2 * rep.lattice.scale ** 2)
    val = q / norm
    if val.denominator != 1:
        raise ValueError("non-integral index %s: wrong normalization?" % (val,))
    return int(val)


def _circle_energy(rep, direction):
    return Fraction(
        sum(sum(x * d for x, d in zip(w, direction)) ** 2 for w in rep.weights),
        rep.lattice.scale ** 2)


def dynkin_index_of_hom(h_faithful, composed, h_norm, g_norm):
    """Index of H -> G from the pulled-back defining representation of G.

    Both representations live on H's torus; the index is the ratio of the
    two circle energies along the first coordinate circle on which the
    faithful weights do not all vanish, each divided by its group's
    normalization.
    """
    rank = h_faithful.lattice.rank
    direction = next(
        d for d in (tuple(int(i == j) for j in range(rank))
                    for i in range(rank))
        if _circle_energy(h_faithful, d) != 0)
    qh = _circle_energy(h_faithful, direction)
    qg = _circle_energy(composed, direction)
    val = (qg / g_norm) / (qh / h_norm)
    if val.denominator != 1:
        raise ValueError("non-integral index %s" % (val,))
    return int(val)


def so9_adjoint_rep():
    """Adjoint representation of Spin(9) as Lambda^2 of the vector rep."""
    return exterior_square(complexify(standard_rep(Spin(9))))


def catalog_dynkin_index(entry):
    """Recompute a catalog row's Dynkin index from weight data.

    Works for every row whose target carries weight data.  The one row with
    an F4 target goes through the adjoint representation instead, which
    restricts to the adjoint of Spin(9) plus the 16-dimensional spin
    representation and carries normalization 18 (twice the dual Coxeter
    number).
    """
    g, h = entry.g, entry.h
    if g == SimpleGroupId("F4", 4):
        if h != Spin(9):
            raise UnsupportedGroupError("no weight data for %s" % (g,))
        composed = rep_sum(so9_adjoint_rep(), complexify(spin_rep(9)))
        return dynkin_index_of_hom(
            complexify(standard_rep(Spin(9))), composed, h_norm=2, g_norm=18)
    if not has_weight_data(g) or not has_weight_data(h):
        raise UnsupportedGroupError("no weight data for %s -> %s" % (h, g))
    g_norm = index_norm(g)
    h_norm = index_norm(h)
    h_faithful = standard_rep(h)
    if h_faithful.reality == REAL:
        h_faithful = complexify(h_faithful)
    composed = _composed_rep(entry)
    return dynkin_index_of_hom(h_faithful, composed, h_norm, g_norm)


def _pad_with_zeros(rep, target_dim):
    extra = target_dim - rep.dim
    if extra < 0:
        raise ValueError("composed representation too large")
    if extra == 0:
        return rep
    pad = make_rep(rep.lattice.rank, zero_weights(rep.lattice.rank, extra),
                   scale=rep.lattice.scale)
    return rep_sum(rep, pad)


def _composed_rep(entry):
    """Pullback of G's defining representation along the catalog hom."""
    g, h, hom = entry.g, entry.h, entry.hom_descriptor
    g_dim = standard_rep(g).dim
    if h == SU(2):
        label = "V" if hom == "standard inclusion" else hom
        return _pad_with_zeros(su2_rep_from_label(label), g_dim)
    if hom == "standard inclusion":
        if g.family == "G2":
            # the 7-dim rep of G2 restricted to SU(3) is std + dual + trivial
            std3 = standard_rep(SU(3))
            return _pad_with_zeros(rep_sum(std3, rep_dual(std3)), g_dim)
        if g.family in ("B", "D"):
            # orthogonal inclusion: H enters through its vector rep, which
            # for aliased low-rank spin groups is not the standard rep
            hrep = complexify(spin_vector_rep(_spin_size(h)))
            return _pad_with_zeros(hrep, g_dim)
        hrep = standard_rep(h)
        if hrep.reality == REAL:
            hrep = complexify(hrep)
        return _pad_with_zeros(hrep, g_dim)
    if hom == "vector":
        return _pad_with_zeros(complexify(spin_vector_rep(_spin_size(h))),
                               g_dim)
    if hom == "spin rep":
        return _pad_with_zeros(complexify(spin_rep(2 * h.rank + 1)), g_dim)
    if hom == "fundamental-7":
        return _pad_with_zeros(complexify(standard_rep(G2)), g_dim)
    raise UnsupportedGroupError("no composed-rep recipe for %r" % (hom,))


# ---------------------------------------------------------------------------
# Homomorphisms SU(2)^k -> G, by conjugacy class
# ---------------------------------------------------------------------------


# the nontrivial classes SU(2) -> G2, by the restriction of the 7-dim rep
_G2_SU2_LABELS = ("2V+3C", "S2V+2V", "2S2V+C", "S6V")

# per classical family: the defining dimension a*rank + b as (a, b), the
# reality of standard_rep, and the parity of a1 + ... + ak of the irreps the
# family needs in even multiplicity (None: no constraint)
_CLASSICAL = {"A": ((1, 1), COMPLEX, None), "C": ((2, 0), COMPLEX, 0),
              "B": ((2, 1), REAL, 1), "D": ((2, 0), REAL, 1)}


def _classical_shape(target):
    """Defining dimension, reality and paired parity of a classical target,
    read off its family and rank without building standard_rep."""
    if target.family not in _CLASSICAL:
        raise UnsupportedGroupError("no classical weight data for %s"
                                    % (target,))
    (a, b), reality, parity = _CLASSICAL[target.family]
    return a * target.rank + b, reality, parity


def defining_dimension(gid):
    """The dimension of standard_rep(gid), without building it."""
    return 7 if gid.family == "G2" else _classical_shape(gid)[0]


def _paired(irreps, parity):
    """Whether each irrep whose a1 + ... + ak has the given parity comes in
    even multiplicity; irreps is a sequence or a mapping to multiplicities."""
    c = Counter(irreps)
    return all(m % 2 == 0 for a, m in c.items() if sum(a) % 2 == parity)


def _multisets(irreps, n):
    """Multisets of the given irreps with total dimension n."""
    if n == 0:
        yield ()
    for i, a in enumerate(irreps):
        d = prod(x + 1 for x in a)
        if d <= n:
            yield from ((a,) + rest for rest in _multisets(irreps[i:], n - d))


def is_su2_class(target, label):
    """Whether a label names a class of homomorphisms SU(2) -> target: for
    G2 one of its four classes or the trivial one, otherwise a
    representation of the defining dimension that passes su2_homs' parity
    rule.  Raises ValueError on a malformed label or an unsupported target.
    """
    parts = _label_parts(label)
    if target == G2:
        return parts in [_label_parts(lab) for lab in ("7C",) + _G2_SU2_LABELS]
    n, _, parity = _classical_shape(target)
    return (sum(d * m for d, m in parts.items()) == n
            and _paired({(d - 1,): m for d, m in parts.items()}, parity))


def su2_homs(target, k=1):
    """Conjugacy classes of nontrivial homomorphisms SU(2)^k -> target.

    A classical target's classes are the multisets of irreps
    Sym^a1 x ... x Sym^ak that fill its defining representation.  An irrep
    is quaternionic when a1 + ... + ak is odd and real otherwise; Sp(2n)
    needs its real irreps, and Spin(m) its quaternionic irreps, in even
    multiplicity.  The classes come sorted by their Dynkin indices on the
    k factors, then by label.  The four G2 classes (k = 1 only) are fixed
    labels, in the order of their Dynkin indices 1, 3, 4, 28.

    A very even class of Spin(2n) (even-dimensional irreps only) is listed
    once, though SO(2n) splits it in two: Spin(8) lists 4V and 2S3V once.
    """
    if target == G2 and k == 1:
        return [su2_rep_from_label(lab, reality=REAL) for lab in _G2_SU2_LABELS]
    n, reality, parity = _classical_shape(target)
    out = [su2_power_rep(c, reality)
           for c in _multisets(list(product(range(n), repeat=k)), n)
           if c != ((0,) * k,) * n and _paired(c, parity)]
    norm = index_norm(target)
    return sorted(out, key=lambda r: (
        [dynkin_index(restrict_coords(r, (i,)), norm) for i in range(k)],
        r.label))


def g2_su2_class(index):
    """The SU(2) -> G2 class with the given Dynkin index (1, 3, 4, or 28)."""
    for rep in su2_homs(G2):
        if dynkin_index(rep, index_norm(G2)) == index:
            return rep
    raise ValueError("no SU(2) -> G2 class of index %d" % (index,))


# ---------------------------------------------------------------------------
# Characteristic classes
# ---------------------------------------------------------------------------
#
# Weights are linear forms in formal degree-2 roots, one root per torus
# coordinate.  A degree-2 ring generator equals its root (x = c_1 L); a
# degree-4 generator equals the square of its root (z = -c_2 V, with V of
# SU(2) having roots +-root).  Symmetric functions of the weight forms are
# computed in root-exponent space and rewritten in the generators at the
# end, which requires even root powers on every degree-4 coordinate.


def _times_form(poly, w, plus):
    """poly * w + plus in root-exponent space, w a linear form in the roots,
    without zero terms."""
    acc = dict(plus)
    for m, c in poly.items():
        for i, x in enumerate(w):
            if x == 0:
                continue
            mm = m[:i] + (m[i] + 1,) + m[i + 1:]
            acc[mm] = acc.get(mm, 0) + c * x
    return {m: c for m, c in acc.items() if c != 0}


def _elementary_symmetric(weights, k, rank):
    """Polynomials e_0..e_k of the weight forms, in root-exponent space."""
    es = [{(0,) * rank: 1}] + [dict() for _ in range(k)]
    for w in weights:
        for j in range(k, 0, -1):
            es[j] = _times_form(es[j - 1], w, es[j])
    return es


def _product_of_roots(roots, rank):
    poly = {(0,) * rank: 1}
    for w in roots:
        poly = _times_form(poly, w, {})
        if not poly:
            break
    return poly


def _roots_to_poly(ring, root_poly):
    out = ring.zero()
    for mono, c in root_poly.items():
        exps = []
        for e, d in zip(mono, ring.degrees):
            if d == 2:
                exps.append(e)
            elif d == 4:
                if e % 2 != 0:
                    raise ValueError(
                        "weight multiset is not invariant: odd root power "
                        "on a degree-4 generator")
                exps.append(e // 2)
            else:
                raise ValueError("generators must have degree 2 or 4 here")
        out = out + Poly(ring, {tuple(exps): c})
    return out


def chern_pullback(rep, k, ring):
    """k-th Chern class of the weight multiset, in invariant generators.

    The ring must have one generator per torus coordinate: degree 2 for a
    circle coordinate (x = c_1 L), degree 4 for an SU(2) coordinate
    (z = -c_2 V).  Raises if the result is not expressible, which signals a
    non-equivariant weight multiset.
    """
    if ring.ngens != rep.lattice.rank:
        raise ValueError("ring generators must match the torus rank")
    if rep.lattice.scale != 1:
        raise ValueError("characteristic classes need an integral lattice")
    es = _elementary_symmetric(rep.weights, k, rep.lattice.rank)
    return _roots_to_poly(ring, es[k])


def euler_class(rep, ring):
    """Euler class as a product of roots; returns (poly, sign_determined).

    Complex representations multiply all weights (the complex orientation
    determines the sign).  Real representations multiply one root per
    (w, -w) pair; the sign is determined only when the pairing came from a
    complex structure.  A zero weight in a real representation forces Euler
    class zero, reported with a determined sign.
    """
    if ring.ngens != rep.lattice.rank:
        raise ValueError("ring generators must match the torus rank")
    if rep.lattice.scale != 1:
        raise ValueError("characteristic classes need an integral lattice")
    if rep.reality == COMPLEX:
        roots = rep.weights
        determined = True
    else:
        if rep.zero_weight_count():
            return ring.zero(), True
        roots = rep.half
        determined = rep.oriented
    return _roots_to_poly(ring, _product_of_roots(roots, rep.lattice.rank)), \
        determined
