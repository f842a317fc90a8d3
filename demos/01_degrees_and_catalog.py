"""Degrees of the simple compact groups, and the homogeneous-pair catalog.

Every simply connected simple compact group G has rational homotopy
concentrated in odd dimensions 2d - 1; the multiset of d's is the group's
degree multiset, and dim G = sum (2d - 1) over it.  The catalog lists the
conjugacy classes of homomorphisms H -> G whose quotients carry almost all
of G's degrees, each with its Dynkin index and degree bookkeeping.
"""

from biquot import (SU, Sp, Spin, G2, F4, E8, degrees_of, group_dimension,
                    index_norm, homogeneous_catalog, catalog_lookup,
                    UnsupportedGroupError)

print("degree multisets:")
for g in (SU(4), Sp(6), Spin(8), Spin(9), G2, F4):
    print("  %-9s %-18s dim %3d  (= sum of 2d-1)"
          % (g, degrees_of(g), group_dimension(g)))

print()
print("one degree per rank, and dim G = sum of 2d-1; the Dynkin index of")
print("H -> G is normalized by G's defining representation:")
for g in (SU(8), Spin(17), Sp(16), Spin(16), E8):
    degrees = degrees_of(g)
    assert len(degrees) == g.rank
    try:
        norm = "index norm %d" % index_norm(g)
    except UnsupportedGroupError:
        norm = "no weight data"
    print("  %-9s rank %d, dim %3d = %-37s %s"
          % (g.name, g.rank, group_dimension(g),
             " + ".join(str(2 * d - 1) for d in degrees), norm))

print()
print("catalog rows for the pair (Sp(4), SU(2)) - three conjugacy classes:")
for entry in catalog_lookup(Sp(4), SU(2)):
    print("  index %-3d via %-6s adds degrees %-6s -> %s"
          % (entry.dynkin_index, entry.hom_descriptor,
             entry.degrees_added, entry.quotient_name or "(no classical name)"))

print()
rows = homogeneous_catalog(150)
print("%d catalog rows with dim G <= 150; each takes its ledger from the"
      % len(rows))
print("degree table, (added, removed) = degrees(G) - degrees(H):")
for entry in (catalog_lookup(F4, Spin(9))[0], catalog_lookup(Spin(8), G2)[0]):
    print("  %-9s %-14s - %-8s %-14s = added %s, removed %s"
          % (entry.g.name, degrees_of(entry.g), entry.h.name,
             degrees_of(entry.h), entry.degrees_added, entry.degrees_removed))
