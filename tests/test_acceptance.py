"""Acceptance suite: one test per criterion, exact values, zero tolerance.

Every reference value lives in one place, a check of `refchecks.CHECKS`;
each criterion names the checks that belong to it and reads their results
from one session run of the suite.  Run with
`pytest -s tests/test_acceptance.py` to see one PASS line per criterion;
any failing check marks its criterion failed.
"""

import sys

from biquot.refchecks import CHECKS

CRITERIA = {
    1: ("degrees table", (
        "degrees-table-classical", "degrees-table-exceptional",
        "degrees-su4-spin8", "dimension-identity")),
    2: ("Dynkin indices", (
        "catalog-index-column", "catalog-index-recomputed-from-weights",
        "catalog-degree-bookkeeping", "catalog-lookup-rows",
        "dynkin-su2-values", "dynkin-g2-class-set", "su2-homs-counts",
        "g2-class-eigenvalue-patterns", "g2-principal-circle-exponents",
        "spin9-restriction-splits", "spin8-minus-circle-restriction",
        "realify-standard-su2", "tensor-double-cover-weights",
        "clebsch-gordan-small")),
    3: ("freeness verdicts", (
        "free-exotic-pair-sp4", "witness-sp4-cubic-vs-block-order3",
        "witness-sp4-cubic-vs-doubled-order4", "witness-su3-order3",
        "g2-pair-table", "free-torus-squared-sphere-products",
        "free-circle-su2-sphere-products", "free-sp4-su2xsu2-both",
        "kernel-torus-squared-trivial", "kernel-one-sided-rule",
        "spin9-restricted-to-spin3-sums-of-spin",
        "spin9-circle-on-s15-unique-free-class")),
    # the order-60 sweep over criterion3_actions(): an exhaustive oracle
    # run per action that agrees with is_free on the verdict and the
    # witness order
    4: ("oracle equivalence", ("oracle-agreement-up-to-60",)),
    5: ("cohomology rings", (
        "chern-pullback-block-embedding", "chern-multiplier-cubic",
        "euler-tensor-line", "euler-sum-line",
        "euler-real-sign-undetermined", "euler-multiplicative-on-sums",
        "classifying-ring-conventions", "betti-cp-sums",
        "betti-hp-sums-via-elimination", "betti-cp-hp-sums",
        "sp4-presentation-relations", "ideal-identity-two-circles",
        "ideal-identity-circle-su2", "ideal-identity-negative-case",
        "spin-bundle-sign-branch", "spin-bundle-ring-betti")),
    6: ("pi3 values", ("pi3-values", "chi-pi-values")),
    7: ("classification reproduction", (
        "rhs-search-16", "rank1-search-results", "sp4-su2xsu2-search",
        "finiteness-bounds")),
    8: ("property suites", (
        "clebsch-gordan-weight-multisets", "dynkin-symmetric-power-formula",
        "dynkin-additive-under-sum", "poincare-duality-stock-rings",
        "regular-sequence-rank-prediction", "rhs-chi-pi-nonpositive")),
}


def assert_criterion(n, reference_results):
    name, checks = CRITERIA[n]
    results = {check: (ok, detail) for check, ok, detail in reference_results}
    for check in checks:
        ok, detail = results[check]
        assert ok, "%s: %s" % (check, detail)
    print("ACCEPTANCE %d %-28s PASS" % (n, name), file=sys.stderr)


def test_every_check_in_exactly_one_criterion():
    listed = [check for _, checks in CRITERIA.values() for check in checks]
    assert sorted(listed) == sorted(name for name, _ in CHECKS)


def test_criterion_1_degrees_table(reference_results):
    assert_criterion(1, reference_results)


def test_criterion_2_dynkin_indices(reference_results):
    assert_criterion(2, reference_results)


def test_criterion_3_freeness_verdicts(reference_results):
    assert_criterion(3, reference_results)


def test_criterion_4_oracle_equivalence(reference_results):
    assert_criterion(4, reference_results)


def test_criterion_5_cohomology_rings(reference_results):
    assert_criterion(5, reference_results)


def test_criterion_6_pi3_values(reference_results):
    assert_criterion(6, reference_results)


def test_criterion_7_classification(reference_results):
    assert_criterion(7, reference_results)


def test_criterion_8_property_suites(reference_results):
    assert_criterion(8, reference_results)
