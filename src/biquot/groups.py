"""Static exact data for the simply connected simple compact groups.

Covers the degree multisets (exponents + 1 of the Weyl group), dimensions,
centers, and the two catalogs of homogeneous pairs H -> G used by the
classification machinery: the pairs where H keeps the top degree of G, and
the pairs where the top degree of H reaches at least the second-largest
degree of G.  Catalog rows parameterized by n are stored as closed-form
rules and instantiated on demand.

Low-rank coincidences are handled by aliasing: Spin(3) = SU(2) = Sp(2),
Spin(5) = Sp(4), Spin(6) = SU(4).  Profiles are keyed by (family, rank), so
the B/C degree coincidence never aliases two distinct groups.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

FAMILIES = ("A", "B", "C", "D", "G2", "F4", "E6", "E7", "E8")

_EXCEPTIONAL_RANK = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}
_EXCEPTIONAL_DEGREES = {
    "G2": (2, 6),
    "F4": (2, 6, 8, 12),
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
}
_MIN_RANK = {"A": 1, "B": 3, "C": 2, "D": 4}


class UnsupportedGroupError(ValueError):
    """Raised when an operation needs representation data we do not carry."""


@dataclass(frozen=True, order=True)
class SimpleGroupId:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("unknown family %r" % (self.family,))
        if self.family in _EXCEPTIONAL_RANK:
            if self.rank != _EXCEPTIONAL_RANK[self.family]:
                raise ValueError(
                    "%s has fixed rank %d" % (self.family, _EXCEPTIONAL_RANK[self.family]))
        elif self.rank < _MIN_RANK[self.family]:
            raise ValueError(
                "%s_l requires l >= %d (smaller ranks alias other families)"
                % (self.family, _MIN_RANK[self.family]))

    def __str__(self):
        if self.family in _EXCEPTIONAL_RANK:
            return self.family
        return "%s%d" % (self.family, self.rank)

    @property
    def name(self):
        """Conventional compact-group name."""
        if self.family == "A":
            return "SU(%d)" % (self.rank + 1)
        if self.family == "B":
            return "Spin(%d)" % (2 * self.rank + 1)
        if self.family == "C":
            return "Sp(%d)" % (2 * self.rank)
        if self.family == "D":
            return "Spin(%d)" % (2 * self.rank)
        return self.family


def SU(n):
    """SU(n), n >= 2, as a SimpleGroupId (type A_{n-1})."""
    if n < 2:
        raise ValueError("SU(n) needs n >= 2")
    return SimpleGroupId("A", n - 1)


def Sp(m):
    """The simply connected group of 2m x 2m symplectic matrices, given m even.

    The argument is the matrix size (Sp(4) is the rank-2 group of type C2);
    Sp(2) aliases SU(2).
    """
    if m % 2 != 0 or m < 2:
        raise ValueError("Sp(m) needs even m >= 2")
    if m == 2:
        return SU(2)
    return SimpleGroupId("C", m // 2)


def Spin(m):
    """Spin(m) for m >= 3, redirected to its alias for m in {3, 5, 6}."""
    if m < 3:
        raise ValueError("Spin(m) needs m >= 3")
    if m == 3:
        return SU(2)
    if m == 4:
        raise ValueError("Spin(4) is not simple (it is SU(2) x SU(2))")
    if m == 5:
        return Sp(4)
    if m == 6:
        return SU(4)
    if m % 2 == 1:
        return SimpleGroupId("B", m // 2)
    return SimpleGroupId("D", m // 2)


G2 = SimpleGroupId("G2", 2)
F4 = SimpleGroupId("F4", 4)
E6 = SimpleGroupId("E6", 6)
E7 = SimpleGroupId("E7", 7)
E8 = SimpleGroupId("E8", 8)


def parse_group(text):
    """Parse names like 'SU(3)', 'Sp4', 'Spin(9)', 'G2', 'A3'."""
    text = text.strip()
    if text in _EXCEPTIONAL_RANK:
        return SimpleGroupId(text, _EXCEPTIONAL_RANK[text])
    for prefix, ctor in (("Spin", Spin), ("SU", SU), ("Sp", Sp)):
        if text.startswith(prefix):
            num = text[len(prefix):].strip("()")
            if num.isdigit():
                return ctor(int(num))
    if text[:1] in ("A", "B", "C", "D") and text[1:].isdigit():
        return SimpleGroupId(text[0], int(text[1:]))
    raise ValueError("cannot parse group name %r" % (text,))


def degrees_of(gid):
    """The degree multiset, as a sorted tuple."""
    f, l = gid.family, gid.rank
    if f == "A":
        return tuple(range(2, l + 2))
    if f in ("B", "C"):
        return tuple(range(2, 2 * l + 1, 2))
    if f == "D":
        return tuple(sorted(list(range(2, 2 * l - 1, 2)) + [l]))
    return _EXCEPTIONAL_DEGREES[f]


def max_degree(gid):
    return max(degrees_of(gid))


def group_dimension(gid):
    """dim G = sum over degrees d of (2d - 1)."""
    return sum(2 * d - 1 for d in degrees_of(gid))


def center_order(gid):
    f, l = gid.family, gid.rank
    if f == "A":
        return l + 1
    if f in ("B", "C", "E7"):
        return 2
    if f == "D":
        return 4
    if f == "E6":
        return 3
    return 1


# Dynkin normalization of the reference faithful representation: the value
# of (1/2) sum w^2 on a coroot circle for the defining representation.
_VECTOR_INDEX_NORM = {"A": 1, "B": 2, "C": 1, "D": 2, "G2": 2}

_FAITHFUL_REP = {
    "A": "standard",
    "B": "vector",
    "C": "standard",
    "D": "vector",
    "G2": "fundamental-7",
}


@dataclass(frozen=True)
class GroupProfile:
    id: SimpleGroupId
    degrees: tuple
    max_degree: int
    dimension: int
    center_order: int
    faithful_rep: str
    vector_index_norm: int

    @property
    def rank(self):
        return self.id.rank


def profile(gid):
    f = gid.family
    rep = _FAITHFUL_REP.get(f)
    norm = _VECTOR_INDEX_NORM.get(f)
    return GroupProfile(
        id=gid,
        degrees=degrees_of(gid),
        max_degree=max_degree(gid),
        dimension=group_dimension(gid),
        center_order=center_order(gid),
        faithful_rep=rep if rep is not None else "unavailable",
        vector_index_norm=norm if norm is not None else 0,
    )


def has_weight_data(gid):
    return gid.family in _FAITHFUL_REP


# ---------------------------------------------------------------------------
# Homogeneous-pair catalogs
# ---------------------------------------------------------------------------

CENTRALIZER_FINITE = "finite"
CENTRALIZER_S1 = "finite-by-S1"
CENTRALIZER_A1 = "finite-by-A1"


@dataclass(frozen=True)
class CatalogEntry:
    """One conjugacy class of homomorphisms H -> G with its ledger data.

    degrees_added are the degrees of G not occurring in H, degrees_removed
    the degrees of H not occurring in G, both with multiplicity; their
    signed difference always equals degrees(G) - degrees(H).
    """

    g: SimpleGroupId
    h: SimpleGroupId
    hom_descriptor: str
    dynkin_index: int
    degrees_added: tuple
    degrees_removed: tuple
    centralizer: str
    quotient_name: str = ""
    top_degree_equal: bool = False
    n: int = 0

    def validate(self):
        want = degree_ledger(degrees_of(self.g), degrees_of(self.h))
        got = degree_ledger(self.degrees_added, self.degrees_removed)
        if want != got:
            raise AssertionError("degree bookkeeping off for %s: %s vs %s"
                                 % (self, want, got))
        return True

    def dimension_of_quotient(self):
        return group_dimension(self.g) - group_dimension(self.h)

    def to_obj(self):
        return {
            "g": str(self.g), "g_name": self.g.name,
            "h": str(self.h), "h_name": self.h.name,
            "hom": self.hom_descriptor,
            "dynkin_index": self.dynkin_index,
            "degrees_added": list(self.degrees_added),
            "degrees_removed": list(self.degrees_removed),
            "centralizer": self.centralizer,
            "quotient_name": self.quotient_name,
        }


def _entry(g, h, hom, index, added, removed, centralizer, name="",
           top_equal=False, n=0):
    e = CatalogEntry(g, h, hom, index, tuple(sorted(added)),
                     tuple(sorted(removed)), centralizer, name, top_equal, n)
    e.validate()
    return e


@dataclass(frozen=True)
class CatalogRule:
    """A parameterized catalog row; instantiate(n) yields a CatalogEntry."""

    key: str
    min_n: int
    make: callable = field(compare=False)
    max_n: int | None = None

    def instantiate(self, n):
        if n < self.min_n or (self.max_n is not None and n > self.max_n):
            raise ValueError("%s requires n in [%s, %s]"
                             % (self.key, self.min_n, self.max_n))
        return self.make(n)


def _fixed(key, entry):
    return CatalogRule(key, 0, lambda n: entry, 0)


def degree_ledger(plus, minus):
    """The signed multiset plus - minus as its positive and negative parts,
    each sorted.  For plus = degrees(G) and minus = degrees(H) these are the
    degrees a quotient G/H adds and removes."""
    c = Counter(plus)
    c.subtract(minus)
    return (tuple(sorted(d for d, m in c.items() for _ in range(m))),
            tuple(sorted(d for d, m in c.items() for _ in range(-m))))


def _removed_degrees(g, h, added):
    """Solve for degrees_removed from the signed-multiset identity."""
    removed, short = degree_ledger(degrees_of(h) + tuple(added), degrees_of(g))
    if short:
        raise AssertionError("inconsistent added-degree data")
    return removed


def _e(g, h, hom, index, added, centralizer, name="", top_equal=False, n=0):
    return _entry(g, h, hom, index, added, _removed_degrees(g, h, added),
                  centralizer, name, top_equal, n)


def catalog_rules():
    """All catalog rows, parameterized rows as rules of n."""
    rules = []

    # --- pairs with equal maximal degree -----------------------------------
    rules.append(CatalogRule("Spin(2n)/Spin(2n-1)", 4, lambda n: _e(
        Spin(2 * n), Spin(2 * n - 1), "standard inclusion", 1, [n],
        CENTRALIZER_FINITE, "S^%d" % (2 * n - 1), top_equal=True, n=n)))
    rules.append(CatalogRule("SU(2n)/Sp(2n)", 2, lambda n: _e(
        SU(2 * n), Sp(2 * n), "standard inclusion", 1,
        list(range(3, 2 * n, 2)), CENTRALIZER_FINITE,
        "S^5" if n == 2 else "", top_equal=True, n=n)))
    rules.append(_fixed("Spin(7)/G2", _e(
        Spin(7), G2, "fundamental-7", 1, [4], CENTRALIZER_FINITE, "S^7",
        top_equal=True)))
    rules.append(_fixed("Spin(8)/G2", _e(
        Spin(8), G2, "fundamental-7", 1, [4, 4], CENTRALIZER_FINITE,
        "S^7xS^7", top_equal=True)))
    rules.append(_fixed("E6/F4", _e(
        E6, F4, "standard inclusion", 1, [5, 9], CENTRALIZER_FINITE, "",
        top_equal=True)))

    # --- pairs where H kills all but one degree of G -----------------------
    rules.append(CatalogRule("SU(n)/SU(n-1)", 3, lambda n: _e(
        SU(n), SU(n - 1), "standard inclusion", 1, [n], CENTRALIZER_S1,
        "S^%d" % (2 * n - 1), n=n)))
    rules.append(CatalogRule("Sp(2n)/Sp(2n-2)", 2, lambda n: _e(
        Sp(2 * n), Sp(2 * n - 2), "standard inclusion", 1, [2 * n],
        CENTRALIZER_A1, "S^%d" % (4 * n - 1), n=n)))
    rules.append(CatalogRule("Spin(2n+1)/Spin(2n)", 3, lambda n: _e(
        Spin(2 * n + 1), Spin(2 * n), "standard inclusion", 1, [2 * n],
        CENTRALIZER_FINITE, "S^%d" % (2 * n), n=n)))
    rules.append(CatalogRule("Spin(2n+1)/Spin(2n-1)", 3, lambda n: _e(
        Spin(2 * n + 1), Spin(2 * n - 1), "standard inclusion", 1, [2 * n],
        CENTRALIZER_S1, "UT(S^%d)" % (2 * n), n=n)))
    rules.append(_fixed("Sp(4)/SU(2)i2", _e(
        Sp(4), SU(2), "V+V", 2, [4], CENTRALIZER_S1, "UT(S^4)")))
    rules.append(_fixed("Sp(4)/SU(2)i10", _e(
        Sp(4), SU(2), "S3V", 10, [4], CENTRALIZER_FINITE, "Berger^7")))
    rules.append(_fixed("SU(3)/SO(3)", _e(
        SU(3), SU(2), "S2V", 4, [3], CENTRALIZER_FINITE, "Wu^5")))
    rules.append(_fixed("Spin(9)/Spin(7)spin", _e(
        Spin(9), Spin(7), "spin rep", 1, [8], CENTRALIZER_FINITE, "S^15")))
    rules.append(_fixed("G2/SU(3)", _e(
        G2, SU(3), "standard inclusion", 1, [6], CENTRALIZER_FINITE, "S^6")))
    rules.append(_fixed("G2/SU(2)i1", _e(
        G2, SU(2), "2V+3C", 1, [6], CENTRALIZER_A1, "UT(S^6)")))
    rules.append(_fixed("G2/SU(2)i3", _e(
        G2, SU(2), "S2V+2V", 3, [6], CENTRALIZER_A1)))
    rules.append(_fixed("G2/SO(3)i4", _e(
        G2, SU(2), "2S2V+C", 4, [6], CENTRALIZER_FINITE)))
    rules.append(_fixed("G2/SO(3)i28", _e(
        G2, SU(2), "S6V", 28, [6], CENTRALIZER_FINITE)))
    rules.append(_fixed("F4/Spin(9)", _e(
        F4, Spin(9), "standard inclusion", 1, [12], CENTRALIZER_FINITE,
        "CaP^2")))

    # --- pairs where H keeps two or more degrees of G ----------------------
    rules.append(CatalogRule("Spin(2n)/Spin(2n-2)", 4, lambda n: _e(
        Spin(2 * n), Spin(2 * n - 2), "standard inclusion", 1,
        [n, 2 * n - 2], CENTRALIZER_S1, "UT(S^%d)" % (2 * n - 1), n=n)))
    rules.append(CatalogRule("Spin(2n)/Spin(2n-3)", 4, lambda n: _e(
        Spin(2 * n), Spin(2 * n - 3), "standard inclusion", 1,
        [n, 2 * n - 2], CENTRALIZER_A1, "", n=n)))
    rules.append(CatalogRule("SU(2n+1)/Sp(2n)", 2, lambda n: _e(
        SU(2 * n + 1), Sp(2 * n), "standard inclusion", 1,
        list(range(3, 2 * n + 2, 2)), CENTRALIZER_S1, "", n=n)))
    rules.append(CatalogRule("SU(2n+1)/SO(2n+1)", 2, lambda n: _e(
        SU(2 * n + 1), Spin(2 * n + 1), "vector", 2,
        list(range(3, 2 * n + 2, 2)), CENTRALIZER_FINITE, "", n=n)))
    rules.append(_fixed("Spin(10)/Spin(7)spin", _e(
        Spin(10), Spin(7), "spin rep", 1, [5, 8], CENTRALIZER_S1)))
    rules.append(_fixed("SU(7)/G2", _e(
        SU(7), G2, "fundamental-7", 2, [3, 4, 5, 7], CENTRALIZER_FINITE)))
    rules.append(_fixed("Spin(9)/G2", _e(
        Spin(9), G2, "fundamental-7", 1, [4, 8], CENTRALIZER_S1)))
    rules.append(_fixed("Spin(10)/G2", _e(
        Spin(10), G2, "fundamental-7", 1, [4, 5, 8], CENTRALIZER_A1)))
    return rules


def homogeneous_catalog(max_g_dimension=300):
    """Instantiate every catalog row with dim G at most the given bound."""
    out = []
    for rule in catalog_rules():
        n = rule.min_n
        while True:
            entry = rule.instantiate(n)
            if group_dimension(entry.g) > max_g_dimension:
                break
            out.append(entry)
            if n == rule.max_n:
                break
            n += 1
    return out


def catalog_lookup(g, h, hom_descriptor=None, max_g_dimension=None):
    """All catalog entries for the pair (G, H), optionally one hom class."""
    bound = max_g_dimension or max(300, group_dimension(g))
    hits = [e for e in homogeneous_catalog(bound)
            if e.g == g and e.h == h
            and (hom_descriptor is None or e.hom_descriptor == hom_descriptor)]
    return hits
