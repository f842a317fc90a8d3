"""Exact toolkit for two-sided compact group actions on groups and spheres:
freeness certificates from integer-lattice reductions, quotient cohomology
rings over exact coefficients, pi_3 through Smith normal form, and
classification searches driven by degree bookkeeping."""

from .groups import (
    SimpleGroupId, SU, Sp, Spin, G2, F4, E6, E7, E8,
    degrees_of, group_dimension, max_degree, index_norm, parse_group,
    homogeneous_catalog, catalog_lookup, catalog_rules, CatalogEntry,
    UnsupportedGroupError,
)
from .lattices import LatticeSubgroup, hnf, smith_normal_form
from .polyring import GradedPolyRing, Poly
from .weights import (
    TorusLattice, WeightRep, su2_irrep, su2_rep, standard_rep,
    spin_rep, rep_sum, rep_tensor, rep_dual, realify, complexify,
    restrict_coords, restrict_circle, clebsch_gordan,
    dynkin_index, dynkin_index_of_hom, catalog_dynkin_index, su2_homs,
    g2_su2_class, chern_pullback, euler_class,
)
from .freeness import (
    GroupFactor, SphereFactor, TwoSidedAction, TorusElement, Verdict,
    kernel_lattice, is_free, brute_force_free, has_fixed_point,
)
from .cohomology import (
    classifying_ring, GradedQuotient,
    ideal_identities, FiniteAbelianGroup, pi3_cokernel, chi_pi,
)

__version__ = "0.1.0"
