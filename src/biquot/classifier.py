"""Classification searches over catalog degree data.

Each homogeneous catalog row carries the degrees its quotient adds (degrees
of G that survive: odd rational homotopy) and removes (degrees of H left
unused: even rational homotopy).  A rational homology sphere needs exactly
one added degree, with at most one removed degree d paired as added = {2d};
rhs_search reads those columns directly.

The searches enumerate the candidate structures the degree bounds allow:
homogeneous catalog pairs, two-sided SU(2) actions on the rank-2 groups,
and SU(2) x SU(2) actions on Sp(4), with freeness decided exactly by the
lattice method and pi_3 read off the net Dynkin index matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .groups import (SimpleGroupId, SU, Sp, G2, group_dimension, max_degree,
                     profile, catalog_rules)
from .weights import su2_homs, dynkin_index
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
    mode: str                            # 'SU(2)' or 'SO(3)' effective group
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


def _su2_action_on(g, left_rep, right_rep):
    d_family = g.family == "D"
    return TwoSidedAction(1, [GroupFactor(left_rep.weights, right_rep.weights,
                                          d_family)])


def rank1_two_sided_search(g):
    """All unordered pairs of distinct SU(2) classes acting on both sides
    of a rank-2 group, with exact verdicts; returns (all, free)."""
    if g not in (SU(3), Sp(4), G2):
        raise ValueError("two-sided rank-1 search runs on the rank-2 groups "
                         "SU(3), Sp(4), G2")
    norm = profile(g).vector_index_norm
    homs = su2_homs(g)
    results = []
    for a, b in combinations(homs, 2):
        action = _su2_action_on(g, a, b)
        verdict = is_free(action)
        kernel_full = verdict.kernel.is_full()
        mode = "SU(2)" if kernel_full else "SO(3)"
        ia, ib = dynkin_index(a, norm), dynkin_index(b, norm)
        pi3 = pi3_cokernel([[ia - ib]]) if verdict.free else None
        results.append(PairVerdict(
            a.label, b.label, verdict.free, mode,
            verdict.witness_order if not verdict.free else None,
            str(verdict.witness) if not verdict.free else "",
            pi3))
    free = [r for r in results if r.free]
    return results, free


def _su2xsu2_sp4_homs():
    """Nontrivial homomorphisms SU(2)^2 -> Sp(4) by 4-dim quaternionic data.

    Irreducibles Sym^a x Sym^b embed symplectically iff a + b is odd;
    orthogonal irreducibles (a + b even) need even multiplicity.
    """
    irreps = []
    for a in range(4):
        for b in range(4):
            if (a + 1) * (b + 1) <= 4:
                irreps.append((a, b))

    def weights_of(a, b):
        return [(a - 2 * i, b - 2 * j) for i in range(a + 1)
                for j in range(b + 1)]

    homs = {}

    def rec(pool, total, acc):
        if total == 4:
            c = Counter(acc)
            if all((a + b) % 2 == 1 or m % 2 == 0
                   for (a, b), m in c.items()):
                ws = []
                for (a, b) in acc:
                    ws.extend(weights_of(a, b))
                label = _su2xsu2_label(acc)
                homs[tuple(sorted(ws))] = (label, tuple(sorted(acc)))
            return
        if total > 4 or not pool:
            return
        head, rest = pool[0], pool[1:]
        dim = (head[0] + 1) * (head[1] + 1)
        rec(rest, total, acc)
        if total + dim <= 4:
            rec(pool, total + dim, acc + [head])

    rec(irreps, 0, [])
    out = []
    for ws, (label, parts) in sorted(homs.items()):
        nontrivial = any(p != (0, 0) for p in parts)
        out.append((label, ws, nontrivial))
    return out


def _pair_label(a, b):
    if (a, b) == (0, 0):
        return "C"
    parts = []
    if a:
        parts.append("V1" if a == 1 else "S%dV1" % a)
    if b:
        parts.append("V2" if b == 1 else "S%dV2" % b)
    return "*".join(parts) if parts else "C"


def _su2xsu2_label(acc):
    c = Counter(acc)
    out = []
    for (a, b) in sorted(c, key=lambda p: (-p[0], -p[1])):
        lab = _pair_label(a, b)
        out.append(lab if c[(a, b)] == 1 else "%d%s" % (c[(a, b)], lab))
    return "+".join(out)


def sp4_su2squared_search():
    """Free SU(2)^2 actions on Sp(4), up to swapping sides and factors.

    A genuine action of the full SU(2)^2 needs a full kernel lattice (no
    subgroup acting trivially).  Expected: the one-sided standard block
    embedding and the split standard/doubled-standard pair.
    """
    homs = _su2xsu2_sp4_homs()
    seen = {}
    results = []
    for (ll, lw, lnt) in homs:
        for (rl, rw, rnt) in homs:
            if not (lnt or rnt):
                continue
            key = _sp4_pair_key(lw, rw)
            if key in seen:
                continue
            seen[key] = True
            action = TwoSidedAction(2, [GroupFactor(lw, rw)])
            verdict = is_free(action)
            genuine = verdict.kernel.is_full()
            matrix = [[_factor_energy(lw, k) - _factor_energy(rw, k)]
                      for k in range(2)]
            results.append({
                "pair": (ll, rl),
                "free": bool(verdict.free and genuine),
                "effective_free": verdict.free,
                "genuine_su2xsu2": genuine,
                "witness_order": verdict.witness_order,
                "one_sided": all(all(x == 0 for x in w) for w in rw)
                or all(all(x == 0 for x in w) for w in lw),
                "pi3": pi3_cokernel(matrix) if verdict.free else None,
            })
    free = [r for r in results if r["free"]]
    return results, free


def _factor_energy(weights, k):
    """Dynkin index of the restriction to the k-th SU(2) factor."""
    val = sum(w[k] * w[k] for w in weights)
    if val % 2 != 0:
        raise AssertionError("odd weight-square sum on an SU(2) factor")
    return val // 2


def _sp4_pair_key(lw, rw):
    def swap(ws):
        return tuple(sorted((b, a) for a, b in ws))

    variants = []
    for l, r in ((lw, rw), (rw, lw)):
        variants.append((tuple(sorted(l)), tuple(sorted(r))))
        variants.append((swap(l), swap(r)))
    return min(variants)


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
        dim = group_dimension(g) - 3
        if dim > max_dim:
            continue
        _, free = rank1_two_sided_search(g)
        for pv in free:
            entries.append(RHSEntry(
                "%s//(%s|%s)" % (g.name, pv.left_label, pv.right_label),
                "%s two-sided SU(2) (%s, %s)" % (g.name, pv.left_label,
                                                 pv.right_label),
                dim, pv.pi3, (max_degree(g),), (), False))

    # SU(2) x SU(2) on Sp(4): quotient is rationally the 4-sphere
    if 4 <= max_dim:
        _, free = sp4_su2squared_search()
        for r in free:
            left, right = r["pair"]
            entries.append(RHSEntry(
                "S^4", "Sp(4)/(SU(2)xSU(2)) (%s | %s)" % (left, right),
                4, r["pi3"], (4,), (2,), r["one_sided"]))

    return sorted(entries, key=lambda e: (e.dim, e.label, e.presentation))


def rhs_manifold_classes(entries):
    """Collapse presentations of the same manifold class to one label."""
    by_label = {}
    for e in entries:
        by_label.setdefault(e.label, []).append(e)
    return by_label
