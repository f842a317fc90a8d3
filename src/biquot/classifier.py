"""Classification searches over catalog degree data.

Each homogeneous catalog row carries the degrees its quotient adds (degrees
of G that survive: odd rational homotopy) and removes (degrees of H left
unused: even rational homotopy).  A rational homology sphere needs exactly
one added degree, with at most one removed degree d paired as added = {2d};
rhs_search reads those columns directly.

The searches enumerate the candidate structures the degree bounds allow:
homogeneous catalog pairs, and two-sided SU(2)^k actions by the classes of
weights.su2_homs on each group of candidate_g_factors whose degrees fit.
One pair loop decides freeness exactly by the lattice method and reads
pi_3 off the net Dynkin index of each SU(2) factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count, permutations, takewhile

from .groups import (_MIN_RANK, SimpleGroupId, SU, Sp, G2, F4, E6, E7, E8,
                     group_dimension, max_degree, index_norm, catalog_rules,
                     degree_ledger, degrees_of)
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
    one_sided: bool = False  # one side is the trivial class: G/H homogeneous

    def to_obj(self):
        obj = {"pair": [self.left_label, self.right_label],
               "free": self.free, "mode": self.mode}
        if not self.free:
            obj["witness_order"] = self.witness_order
            obj["witness"] = self.witness
        if self.pi3 is not None:
            obj["pi3"] = str(self.pi3)
        return obj


def two_sided_search(g, k=1):
    """SU(2)^k on both sides of g, by pairs of distinct su2_homs classes,
    with exact verdicts; returns (all, free).

    At k >= 2 the trivial class joins (one-sided pairs: homogeneous G/H)
    and the classes are sorted by weights; at k = 1 the catalog lists the
    one-sided quotients.  Each pair is taken once up to permuting the k
    factors.  A pair is free when the action is free modulo a finite kernel
    (a kernel lattice of rank k); the mode names the effective group
    (SU(2)^k if the kernel lattice is full, else a quotient: SO(3) at
    k = 1); pi_3 is the cokernel of the net Dynkin index of each factor.
    """
    classes = su2_homs(g, k)
    trivial = su2_power_rep([(0,) * k] * classes[0].dim)
    if k > 1:
        classes = sorted(classes + [trivial], key=lambda r: r.sorted_weights())

    permuted = [(r, [tuple(sorted(tuple(w[i] for i in p) for w in r.weights))
                     for p in permutations(range(k))]) for r in classes]
    pairs = {}
    for (a, pa), (b, pb) in combinations(permuted, 2):
        # keep the first pair of each orbit under permuting the k factors:
        # permuted holds each class's weights under every permutation
        orbit = min(tuple(sorted(ws)) for ws in zip(pa, pb))
        pairs.setdefault(orbit, (a, b))
    norm = index_norm(g)
    results = []
    for a, b in pairs.values():
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
            pi3_cokernel(net) if free else None, trivial in (a, b)))
    return results, [r for r in results if r.free]


def rank1_two_sided_search(g):
    """All unordered pairs of distinct SU(2) classes acting on both sides
    of a rank-2 group, with exact verdicts; returns (all, free)."""
    if g not in (SU(3), Sp(4), G2):
        raise ValueError("two-sided rank-1 search runs on the rank-2 groups "
                         "SU(3), Sp(4), G2")
    return two_sided_search(g)


def sp4_su2squared_search():
    """SU(2)^2 acting on both sides of Sp(4); returns (all, free).
    Expected free: the one-sided block embedding and the split pair."""
    return two_sided_search(Sp(4), 2)


def finiteness_bounds(n):
    """Bounds forcing finiteness in a given quotient dimension n: at most n
    simple factors, top degree at most 2n, odd rational homotopy at most n
    dimensions in total."""
    if n < 2:
        raise ValueError("bounds need n >= 2")
    return {"max_factors": n, "max_degree": 2 * n, "max_pi_odd": n}


def candidate_g_factors(n):
    """All simple groups usable as factors in dimension n: top degree at
    most finiteness_bounds(n)["max_degree"], by family, then by rank."""
    bound = finiteness_bounds(n)["max_degree"]
    families = [(f, count(lo)) for f, lo in _MIN_RANK.items()]
    families += [(gid.family, [gid.rank]) for gid in (G2, F4, E6, E7, E8)]
    return [gid for f, ranks in families
            for gid in takewhile(lambda g: max_degree(g) <= bound,
                                 (SimpleGroupId(f, l) for l in ranks))]


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


def rhs_search(max_dim):
    """Biquotients that are simply connected rational homology spheres of
    dimension 3..max_dim, up to relabeling presentations, within a scope.

    G is simple (each simple factor contributes odd homotopy) and H is
    semisimple (dimension at least 3 forces trivial pi_2).  Searched: H
    trivial; the catalog's homogeneous pairs; and H = SU(2)^k on both
    sides, k <= min(rank G, 3), for G in candidate_g_factors(max_dim)
    whose degrees less k 2s fit the sphere profile.  Other H, and G
    without weight data, are not searched.  The profile passes SU(3),
    Sp(4), G2 at k = 1 and Sp(4) at k = 2 only: no D-family group, so
    su2_homs listing a very even class of Spin(2n) once cannot matter.
    Two-sided candidates run through the exact freeness decision.
    """
    if max_dim < 3:
        raise ValueError("search needs max_dim >= 3")
    entries = []

    # G = SU(2) with H trivial is the 3-sphere
    entries.append(RHSEntry("S^3", "SU(2)", 3, pi3_cokernel([], cols=1),
                            *degree_ledger(degrees_of(SU(2)), ()), True))

    # homogeneous pairs
    for rule in catalog_rules():
        for entry in takewhile(lambda e: e.dimension_of_quotient() <= max_dim,
                               rule.entries()):
            dim = entry.dimension_of_quotient()
            if dim >= 3 and _rhs_profile_ok(entry.degrees_added,
                                            entry.degrees_removed):
                pi3 = pi3_cokernel([[entry.dynkin_index]])
                entries.append(RHSEntry(
                    _entry_label(entry),
                    "%s/%s via %s" % (entry.g.name, entry.h.name,
                                      entry.hom_descriptor),
                    dim, pi3, entry.degrees_added, entry.degrees_removed,
                    True))

    # two-sided SU(2)^k on every candidate G whose degrees allow a sphere
    for g in candidate_g_factors(max_dim):
        g_dim = group_dimension(g)
        for k in range(1, min(g.rank, 3) + 1):
            dim = g_dim - k * group_dimension(SU(2))
            if dim > max_dim:
                continue
            added, removed = degree_ledger(degrees_of(g),
                                           degrees_of(SU(2)) * k)
            if not _rhs_profile_ok(added, removed):
                continue
            h = "x".join(["SU(2)"] * k)
            # a removed degree means degrees (2, 4) less two 2s: a simply
            # connected rational homology 4-sphere, which is S^4
            pres = ("%s/(%s) (%s | %s)" if removed
                    else "%s two-sided %s (%s, %s)")
            for pv in two_sided_search(g, k)[1]:
                l, r = pv.left_label, pv.right_label
                entries.append(RHSEntry(
                    "S^%d" % dim if removed
                    else "%s//(%s|%s)" % (g.name, l, r),
                    pres % (g.name, h, l, r), dim, pv.pi3, added, removed,
                    pv.one_sided))

    return sorted(entries, key=lambda e: (e.dim, e.label, e.presentation))


def rhs_manifold_classes(entries):
    """Collapse presentations of the same manifold class to one label."""
    by_label = {}
    for e in entries:
        by_label.setdefault(e.label, []).append(e)
    return by_label
