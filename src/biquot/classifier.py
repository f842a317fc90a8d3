"""Classification searches over catalog degree data.

Each homogeneous catalog row carries the degrees its quotient adds (degrees
of G that survive: odd rational homotopy) and removes (degrees of H left
unused: even rational homotopy).  A rational homology sphere needs exactly
one added degree, with at most one removed degree d paired as added = {2d};
rhs_search reads those columns directly.

The searches enumerate the candidate structures the degree bounds allow:
homogeneous catalog pairs, and two-sided SU(2)^k actions by the classes of
weights.su2_homs (SU(2) on the rank-2 groups, SU(2) x SU(2) on Sp(4)).
One pair loop decides freeness exactly by the lattice method and reads
pi_3 off the net Dynkin index of each SU(2) factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .groups import (SimpleGroupId, SU, Sp, G2, group_dimension, max_degree,
                     profile, catalog_rules, degree_ledger, degrees_of)
from .weights import su2_homs, su2_power_rep, dynkin_index, restrict_coords
from .freeness import GroupFactor, TwoSidedAction, is_free
from .cohomology import pi3_cokernel, chi_pi, FiniteAbelianGroup


# ---------------------------------------------------------------------------
# Searches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairVerdict:
    left_label: str
    right_label: str
    free: bool
    mode: str                # effective group: 'SU(2)' or 'SO(3)' at k = 1
    witness_order: int = None
    witness: str = ""
    pi3: FiniteAbelianGroup = None

    def to_obj(self):
        obj = {"pair": [self.left_label, self.right_label],
               "free": self.free, "mode": self.mode}
        if not self.free:
            obj["witness_order"] = self.witness_order
            obj["witness"] = self.witness
        if self.pi3 is not None:
            obj["pi3"] = str(self.pi3)
        return obj


def _pair_search(g, pairs):
    """Exact verdicts on SU(2)^k acting on both sides of g, one per pair of
    classes; returns (all, free).  A pair is free when the action is free
    modulo a finite kernel (a kernel lattice of rank k); the mode names the
    effective group (SU(2)^k if the kernel lattice is full, else a quotient:
    SO(3) at k = 1); pi_3 is the cokernel of the net Dynkin index of each
    SU(2) factor."""
    norm = profile(g).vector_index_norm
    results = []
    for a, b in pairs:
        k = a.lattice.rank
        verdict = is_free(TwoSidedAction(
            k, [GroupFactor(a.weights, b.weights, g.family == "D")]))
        free = verdict.free and len(verdict.kernel.basis) == k
        h = "SU(2)" if k == 1 else "SU(2)^%d" % k
        if not verdict.kernel.is_full():
            h = "SO(3)" if k == 1 else h + "/kernel"
        net = [[dynkin_index(restrict_coords(a, (i,)), norm)
                - dynkin_index(restrict_coords(b, (i,)), norm)]
               for i in range(k)]
        results.append(PairVerdict(
            a.label, b.label, free, h, verdict.witness_order,
            "" if verdict.free else str(verdict.witness),
            pi3_cokernel(net) if free else None))
    return results, [r for r in results if r.free]


def rank1_two_sided_search(g):
    """All unordered pairs of distinct SU(2) classes acting on both sides
    of a rank-2 group, with exact verdicts; returns (all, free)."""
    if g not in (SU(3), Sp(4), G2):
        raise ValueError("two-sided rank-1 search runs on the rank-2 groups "
                         "SU(3), Sp(4), G2")
    return _pair_search(g, combinations(su2_homs(g), 2))


_SP4_TRIVIAL = su2_power_rep([(0, 0)] * 4)


def sp4_su2squared_search():
    """SU(2)^2 acting on both sides of Sp(4); returns (all, free).  Each
    pair of distinct classes (the trivial one included, all sorted by
    weights) is taken once up to swapping the sides and the two factors.
    Expected free: the one-sided block embedding and the split pair."""
    def weights(rep, swap):
        return tuple(sorted(w[::-1] if swap else w for w in rep.weights))

    classes = sorted(su2_homs(Sp(4), 2) + [_SP4_TRIVIAL],
                     key=lambda r: weights(r, False))
    pairs = {}
    for a, b in combinations(classes, 2):
        # keep the first pair of each orbit under swapping the two factors
        orbit = min(tuple(sorted((weights(a, s), weights(b, s))))
                    for s in (False, True))
        pairs.setdefault(orbit, (a, b))
    return _pair_search(Sp(4), pairs.values())


def finiteness_bounds(n):
    """Bounds forcing finiteness in a given quotient dimension n: at most n
    simple factors, top degree at most 2n, odd rational homotopy at most n
    dimensions in total."""
    if n < 2:
        raise ValueError("bounds need n >= 2")
    return {"max_factors": n, "max_degree": 2 * n, "max_pi_odd": n}


def candidate_g_factors(n):
    """All simple groups usable as factors in dimension n: top degree <= 2n."""
    bound = 2 * n
    out = []
    l = 1
    while l + 1 <= bound:
        out.append(SimpleGroupId("A", l))
        l += 1
    for fam, lo in (("B", 3), ("C", 2)):
        l = lo
        while 2 * l <= bound:
            out.append(SimpleGroupId(fam, l))
            l += 1
    l = 4
    while 2 * l - 2 <= bound:
        out.append(SimpleGroupId("D", l))
        l += 1
    for gid in (G2, SimpleGroupId("F4", 4), SimpleGroupId("E6", 6),
                SimpleGroupId("E7", 7), SimpleGroupId("E8", 8)):
        if max_degree(gid) <= bound:
            out.append(gid)
    return out


# ---------------------------------------------------------------------------
# Rational homology sphere search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RHSEntry:
    label: str
    presentation: str
    dim: int
    pi3: FiniteAbelianGroup
    added: tuple
    removed: tuple
    homogeneous: bool

    def chi_pi(self):
        return chi_pi([2 * d for d in self.removed],
                      [2 * d - 1 for d in self.added])

    def to_obj(self):
        return {"label": self.label, "presentation": self.presentation,
                "dim": self.dim, "pi3": str(self.pi3),
                "added": list(self.added), "removed": list(self.removed),
                "homogeneous": self.homogeneous,
                "chi_pi": self.chi_pi()}


def _rhs_profile_ok(added, removed):
    if len(added) != 1:
        return False
    if len(removed) == 0:
        return True
    return len(removed) == 1 and added[0] == 2 * removed[0]


def _entry_label(entry):
    if entry.quotient_name:
        return entry.quotient_name
    return "%s/%s[%d]" % (entry.g.name,
                          "SO(3)" if entry.h == SU(2)
                          and entry.dynkin_index in (4, 28)
                          else entry.h.name,
                          entry.dynkin_index)


def _two_sided_profile(g, k):
    """Dimension and (added, removed) degrees of g//SU(2)^k."""
    return ((group_dimension(g) - k * group_dimension(SU(2)),)
            + degree_ledger(degrees_of(g), degrees_of(SU(2)) * k))


def rhs_search(max_dim):
    """Biquotients that are simply connected rational homology spheres of
    dimension 3..max_dim, up to relabeling presentations.

    G must be simple (each simple factor contributes odd homotopy), and H
    is semisimple (dimension at least 3 forces trivial pi_2).  Candidates:
    H trivial; one-sided homogeneous pairs from the catalog; two-sided
    SU(2) classes on the rank-2 groups; SU(2) x SU(2) on Sp(4).  Two-sided
    candidates run through the exact freeness decision.
    """
    if max_dim < 3:
        raise ValueError("search needs max_dim >= 3")
    entries = []

    # G = SU(2) with H trivial is the 3-sphere
    entries.append(RHSEntry("S^3", "SU(2)", 3,
                            pi3_cokernel([], cols=1), (2,), (), True))

    # homogeneous pairs
    for rule in catalog_rules():
        n = rule.min_n
        while True:
            entry = rule.instantiate(n)
            dim = entry.dimension_of_quotient()
            if dim > max_dim:
                break
            if dim >= 3 and _rhs_profile_ok(entry.degrees_added,
                                            entry.degrees_removed):
                pi3 = pi3_cokernel([[entry.dynkin_index]])
                entries.append(RHSEntry(
                    _entry_label(entry),
                    "%s/%s via %s" % (entry.g.name, entry.h.name,
                                      entry.hom_descriptor),
                    dim, pi3, entry.degrees_added, entry.degrees_removed,
                    True))
            if n == rule.max_n:
                break
            n += 1

    # two-sided SU(2) on the rank-2 groups
    for g in (SU(3), Sp(4), G2):
        dim, added, removed = _two_sided_profile(g, 1)
        if dim > max_dim:
            continue
        for pv in rank1_two_sided_search(g)[1]:
            entries.append(RHSEntry(
                "%s//(%s|%s)" % (g.name, pv.left_label, pv.right_label),
                "%s two-sided SU(2) (%s, %s)" % (g.name, pv.left_label,
                                                 pv.right_label),
                dim, pv.pi3, added, removed, False))

    # SU(2) x SU(2) on Sp(4): quotient is rationally the 4-sphere
    dim, added, removed = _two_sided_profile(Sp(4), 2)
    if dim <= max_dim:
        for pv in sp4_su2squared_search()[1]:
            entries.append(RHSEntry(
                "S^4", "Sp(4)/(SU(2)xSU(2)) (%s | %s)" % (pv.left_label,
                                                         pv.right_label),
                dim, pv.pi3, added, removed,
                _SP4_TRIVIAL.label in (pv.left_label, pv.right_label)))

    return sorted(entries, key=lambda e: (e.dim, e.label, e.presentation))


def rhs_manifold_classes(entries):
    """Collapse presentations of the same manifold class to one label."""
    by_label = {}
    for e in entries:
        by_label.setdefault(e.label, []).append(e)
    return by_label
