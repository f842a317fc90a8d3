"""Static exact data for the simply connected simple compact groups.

Covers the degree multisets (exponents + 1 of the Weyl group), which fix
rank and dimension, the Dynkin normalization of each defining
representation that carries weight data, and the two catalogs of
homogeneous pairs H -> G used by the classification machinery: the pairs
where H keeps the top degree of G, and the pairs where the top degree of H
reaches at least the second-largest degree of G.  Catalog rows
parameterized by n are stored as closed-form rules whose entries() walk n
upward; every entry derives its degree ledger from the degree table.

Low-rank coincidences are handled by aliasing: Spin(3) = SU(2) = Sp(2),
Spin(5) = Sp(4), Spin(6) = SU(4).  Groups are keyed by (family, rank), so
the B/C degree coincidence never aliases two distinct groups.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import count, takewhile

# an exceptional group has fixed rank: one degree per rank
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
        if self.family in _EXCEPTIONAL_DEGREES:
            rank = len(_EXCEPTIONAL_DEGREES[self.family])
            if self.rank != rank:
                raise ValueError("%s has fixed rank %d" % (self.family, rank))
        elif self.family not in _MIN_RANK:
            raise ValueError("unknown family %r" % (self.family,))
        elif self.rank < _MIN_RANK[self.family]:
            raise ValueError(
                "%s_l requires l >= %d (smaller ranks alias other families)"
                % (self.family, _MIN_RANK[self.family]))

    def __str__(self):
        if self.family in _EXCEPTIONAL_DEGREES:
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
    if text in _EXCEPTIONAL_DEGREES:
        return SimpleGroupId(text, len(_EXCEPTIONAL_DEGREES[text]))
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


# Dynkin normalization of the defining representation (weights.standard_rep):
# the value of (1/2) sum w^2 on a coroot circle.  The families listed here
# are exactly those that carry weight data.
_VECTOR_INDEX_NORM = {"A": 1, "B": 2, "C": 1, "D": 2, "G2": 2}


def index_norm(gid):
    """The Dynkin normalization of gid's defining representation."""
    if gid.family not in _VECTOR_INDEX_NORM:
        raise UnsupportedGroupError("no weight data for %s" % (gid,))
    return _VECTOR_INDEX_NORM[gid.family]


def has_weight_data(gid):
    return gid.family in _VECTOR_INDEX_NORM


# ---------------------------------------------------------------------------
# Homogeneous-pair catalogs
# ---------------------------------------------------------------------------

CENTRALIZER_FINITE = "finite"
CENTRALIZER_S1 = "finite-by-S1"
CENTRALIZER_A1 = "finite-by-A1"


def degree_ledger(plus, minus):
    """The signed multiset plus - minus as its positive and negative parts,
    each sorted.  For plus = degrees(G) and minus = degrees(H) these are the
    degrees a quotient G/H adds and removes."""
    c = Counter(plus)
    c.subtract(minus)
    return (tuple(sorted(d for d, m in c.items() for _ in range(m))),
            tuple(sorted(d for d, m in c.items() for _ in range(-m))))


@dataclass(frozen=True)
class CatalogEntry:
    """One conjugacy class of homomorphisms H -> G with its ledger data.

    degrees_added are the degrees of G not occurring in H, degrees_removed
    the degrees of H not occurring in G, both with multiplicity: the
    degree_ledger of degrees(G) and degrees(H).
    """

    g: SimpleGroupId
    h: SimpleGroupId
    hom_descriptor: str
    dynkin_index: int
    degrees_added: tuple = field(init=False)
    degrees_removed: tuple = field(init=False)
    centralizer: str
    quotient_name: str = ""

    def __post_init__(self):
        added, removed = degree_ledger(degrees_of(self.g), degrees_of(self.h))
        object.__setattr__(self, "degrees_added", added)
        object.__setattr__(self, "degrees_removed", removed)

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


@dataclass(frozen=True)
class CatalogRule:
    """A catalog row: make() builds a fixed row's entry; a family row
    (min_n set) has one entry make(n) for each n >= min_n."""

    key: str
    make: callable = field(compare=False)
    min_n: int | None = None

    def entries(self):
        """The row's entries in order of n; endless for a family."""
        if self.min_n is None:
            return iter((self.make(),))
        return map(self.make, count(self.min_n))


def _fixed(key, *row):
    return CatalogRule(key, lambda: CatalogEntry(*row))


def catalog_rules():
    """All catalog rows, parameterized rows as rules of n."""
    return [
        # --- pairs with equal maximal degree -------------------------------
        CatalogRule("Spin(2n)/Spin(2n-1)", lambda n: CatalogEntry(
            Spin(2 * n), Spin(2 * n - 1), "standard inclusion", 1,
            CENTRALIZER_FINITE, "S^%d" % (2 * n - 1)), 4),
        CatalogRule("SU(2n)/Sp(2n)", lambda n: CatalogEntry(
            SU(2 * n), Sp(2 * n), "standard inclusion", 1,
            CENTRALIZER_FINITE, "S^5" if n == 2 else ""), 2),
        _fixed("Spin(7)/G2", Spin(7), G2, "fundamental-7", 1,
               CENTRALIZER_FINITE, "S^7"),
        _fixed("Spin(8)/G2", Spin(8), G2, "fundamental-7", 1,
               CENTRALIZER_FINITE, "S^7xS^7"),
        _fixed("E6/F4", E6, F4, "standard inclusion", 1, CENTRALIZER_FINITE),

        # --- pairs where H kills all but one degree of G -------------------
        CatalogRule("SU(n)/SU(n-1)", lambda n: CatalogEntry(
            SU(n), SU(n - 1), "standard inclusion", 1, CENTRALIZER_S1,
            "S^%d" % (2 * n - 1)), 3),
        CatalogRule("Sp(2n)/Sp(2n-2)", lambda n: CatalogEntry(
            Sp(2 * n), Sp(2 * n - 2), "standard inclusion", 1,
            CENTRALIZER_A1, "S^%d" % (4 * n - 1)), 2),
        CatalogRule("Spin(2n+1)/Spin(2n)", lambda n: CatalogEntry(
            Spin(2 * n + 1), Spin(2 * n), "standard inclusion", 1,
            CENTRALIZER_FINITE, "S^%d" % (2 * n)), 3),
        CatalogRule("Spin(2n+1)/Spin(2n-1)", lambda n: CatalogEntry(
            Spin(2 * n + 1), Spin(2 * n - 1), "standard inclusion", 1,
            CENTRALIZER_S1, "UT(S^%d)" % (2 * n)), 3),
        _fixed("Sp(4)/SU(2)i2", Sp(4), SU(2), "V+V", 2, CENTRALIZER_S1,
               "UT(S^4)"),
        _fixed("Sp(4)/SU(2)i10", Sp(4), SU(2), "S3V", 10, CENTRALIZER_FINITE,
               "Berger^7"),
        _fixed("SU(3)/SO(3)", SU(3), SU(2), "S2V", 4, CENTRALIZER_FINITE,
               "Wu^5"),
        _fixed("Spin(9)/Spin(7)spin", Spin(9), Spin(7), "spin rep", 1,
               CENTRALIZER_FINITE, "S^15"),
        _fixed("G2/SU(3)", G2, SU(3), "standard inclusion", 1,
               CENTRALIZER_FINITE, "S^6"),
        _fixed("G2/SU(2)i1", G2, SU(2), "2V+3C", 1, CENTRALIZER_A1,
               "UT(S^6)"),
        _fixed("G2/SU(2)i3", G2, SU(2), "S2V+2V", 3, CENTRALIZER_A1),
        _fixed("G2/SO(3)i4", G2, SU(2), "2S2V+C", 4, CENTRALIZER_FINITE),
        _fixed("G2/SO(3)i28", G2, SU(2), "S6V", 28, CENTRALIZER_FINITE),
        _fixed("F4/Spin(9)", F4, Spin(9), "standard inclusion", 1,
               CENTRALIZER_FINITE, "CaP^2"),

        # --- pairs where H keeps two or more degrees of G ------------------
        CatalogRule("Spin(2n)/Spin(2n-2)", lambda n: CatalogEntry(
            Spin(2 * n), Spin(2 * n - 2), "standard inclusion", 1,
            CENTRALIZER_S1, "UT(S^%d)" % (2 * n - 1)), 4),
        CatalogRule("Spin(2n)/Spin(2n-3)", lambda n: CatalogEntry(
            Spin(2 * n), Spin(2 * n - 3), "standard inclusion", 1,
            CENTRALIZER_A1), 4),
        CatalogRule("SU(2n+1)/Sp(2n)", lambda n: CatalogEntry(
            SU(2 * n + 1), Sp(2 * n), "standard inclusion", 1,
            CENTRALIZER_S1), 2),
        CatalogRule("SU(2n+1)/SO(2n+1)", lambda n: CatalogEntry(
            SU(2 * n + 1), Spin(2 * n + 1), "vector", 2,
            CENTRALIZER_FINITE), 2),
        _fixed("Spin(10)/Spin(7)spin", Spin(10), Spin(7), "spin rep", 1,
               CENTRALIZER_S1),
        _fixed("SU(7)/G2", SU(7), G2, "fundamental-7", 2, CENTRALIZER_FINITE),
        _fixed("Spin(9)/G2", Spin(9), G2, "fundamental-7", 1, CENTRALIZER_S1),
        _fixed("Spin(10)/G2", Spin(10), G2, "fundamental-7", 1,
               CENTRALIZER_A1),
    ]


def homogeneous_catalog(max_g_dimension):
    """Every catalog entry with dim G at most the given bound."""
    return [e for rule in catalog_rules()
            for e in takewhile(lambda e: group_dimension(e.g)
                               <= max_g_dimension, rule.entries())]


def catalog_lookup(g, h, hom_descriptor=None):
    """All catalog entries for the pair (G, H), optionally one hom class."""
    return [e for e in homogeneous_catalog(group_dimension(g))
            if e.g == g and e.h == h
            and (hom_descriptor is None or e.hom_descriptor == hom_descriptor)]
