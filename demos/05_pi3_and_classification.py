"""pi_3 bookkeeping and the rational homology sphere classification.

pi_3 of a quotient G/H is the cokernel of the net Dynkin index matrix of
the action.  Combining the catalog's degree columns with the exact
freeness decision classifies all quotients that are simply connected
rational homology spheres: besides the homogeneous families, exactly one
exotic pair on Sp(4) and one on G2 survive.
"""

from biquot import SU, Sp, G2, pi3_cokernel
from biquot.classifier import (rank1_two_sided_search, sp4_su2squared_search,
                               rhs_search, rhs_manifold_classes,
                               finiteness_bounds, candidate_g_factors)

print("pi_3 from net index matrices:")
for label, matrix in (("index 10, one-sided", [[10]]),
                      ("indices 1 vs 2", [[1 - 2]]),
                      ("indices 3 vs 4", [[3 - 4]]),
                      ("index 4, one-sided", [[4]]),
                      ("index 28, one-sided", [[28]])):
    print("  %-22s -> %s" % (label, pi3_cokernel(matrix)))

print()
print("two-sided SU(2) searches on the rank-2 groups:")
for g in (SU(3), Sp(4), G2):
    results, free = rank1_two_sided_search(g)
    frees = [(p.left_label, p.right_label) for p in free]
    print("  %-6s %d pairs, free: %s" % (g.name, len(results), frees or "none"))

print()
print("free SU(2) x SU(2) classes on Sp(4):")
_, free = sp4_su2squared_search()
for r in free:
    print("  (%s | %s)  pi3 = %s" % (r.left_label, r.right_label, r.pi3))

print()
print("finiteness bounds in ambient dimension 7:", finiteness_bounds(7))
print("candidate simple factors in dimension 11:",
      len(candidate_g_factors(11)), "groups")

print()
print("rational homology sphere quotients through dimension 16:")
classes = rhs_manifold_classes(rhs_search(16))
for label in sorted(classes, key=lambda l: (classes[l][0].dim, l)):
    entries = classes[label]
    tag = "homogeneous" if all(e.homogeneous for e in entries) else "two-sided"
    print("  %-24s dim %2d  pi3 %-5s  %d presentation(s), %s"
          % (label, entries[0].dim, entries[0].pi3, len(entries), tag))
