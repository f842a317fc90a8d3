"""Property-based tests.

Each property is derandomized and keeps no example database, so it runs
the same fixed examples on every run; max_examples keeps tier-1 cheap.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from biquot.cohomology import GradedQuotient  # noqa: E402
from biquot.polyring import GradedPolyRing, Poly  # noqa: E402

FIXED = settings(derandomize=True, database=None, deadline=None,
                 max_examples=40)

RINGS = (GradedPolyRing(("u", "v"), (2, 2)),
         GradedPolyRing(("x", "z"), (2, 4)),
         GradedPolyRing(("u", "v", "w"), (2, 2, 2)))


@st.composite
def presentations(draw):
    """A ring, homogeneous relations on it, and a second presentation of the
    same ideal: the relations permuted, each scaled by +-1, and one relation
    added to another of the same degree."""
    ring = draw(st.sampled_from(RINGS))
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        monos = ring.monomials_of_degree(draw(st.sampled_from((2, 4))))
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(monos),
                               max_size=len(monos)))
        rel = Poly(ring, dict(zip(monos, coeffs)))
        if not rel.is_zero():
            rels.append(rel)
    order = draw(st.permutations(range(len(rels))))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(rels),
                          max_size=len(rels)))
    other = [signs[k] * rels[i] for k, i in enumerate(order)]
    same_degree = [(i, j) for i in range(len(other))
                   for j in range(len(other))
                   if i != j and other[i].degree() == other[j].degree()]
    pair = draw(st.sampled_from([None] + same_degree))
    if pair is not None:
        i, j = pair
        other[i] = other[i] + other[j]
    return ring, rels, other


@FIXED
@given(presentations())
def test_betti_ranks_do_not_depend_on_the_presentation(case):
    ring, rels, other = case
    q, q_other = GradedQuotient(ring, rels), GradedQuotient(ring, other)
    assert q.is_finite_dimensional() == q_other.is_finite_dimensional()
    assert q.betti(12) == q_other.betti(12)
    if q.is_finite_dimensional():
        assert q.top_degree() == q_other.top_degree()
