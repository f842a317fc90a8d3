"""Named constructions: the standard free actions and quotient presentations.

Each builder returns exact data (a TwoSidedAction or a GradedQuotient) for
one of the stock examples: the exotic 7-sphere action on Sp(4), the
two-sided SU(2) actions on G2, torus actions on products of spheres whose
quotients are connected sums of projective spaces, and the cohomology
presentations of those sums, read off the stock actions.
"""

from __future__ import annotations

from .groups import Sp, degrees_of
from .weights import (make_rep, su2_rep_from_label, su2_power_rep,
                      chern_pullback, euler_class, g2_su2_class, is_su2_class)
from .freeness import GroupFactor, SphereFactor, TwoSidedAction
from .cohomology import classifying_ring, GradedQuotient
from .polyring import GradedPolyRing


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def su2_pair_action(target, left_label, right_label):
    """SU(2) acting on both sides of a rank-2 group by labeled classes.

    Labels name composed representations into the defining representation
    of the target, e.g. 'V+2C', '2V', 'S3V' for Sp(4); 'V+C', 'S2V' for
    SU(3); '2V+3C', 'S2V+2V', '2S2V+C', 'S6V' for G2.  Raises ValueError
    when a label is not a class of the target (see weights.is_su2_class).
    """
    for label in (left_label, right_label):
        if not is_su2_class(target, label):
            raise ValueError("%s is not a class of homomorphisms SU(2) -> %s"
                             % (label, target.name))
    left = su2_rep_from_label(left_label)
    right = su2_rep_from_label(right_label)
    return TwoSidedAction(1, [GroupFactor(left.weights, right.weights,
                                          target.family == "D")])


def gromoll_meyer_action():
    """The free two-sided SU(2) action on Sp(4) with exotic quotient."""
    return su2_pair_action(Sp(4), "V+2C", "2V")


def g2_pair_action(index_left, index_right):
    """Two-sided SU(2) action on G2 by classes named by Dynkin index."""
    left = g2_su2_class(index_left)
    right = g2_su2_class(index_right)
    return TwoSidedAction(1, [GroupFactor(left.weights, right.weights)])


def torus_squared_sphere_action(n):
    """(S^1)^2 on S^3 x S^(2n-1) by (x, y) and (x y^-1, x y, ..., x y).

    Free for every n >= 1; the quotient is the connected sum of two copies
    of complex projective n-space.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    s3 = SphereFactor([(1, 0), (0, 1)])
    s2n1 = SphereFactor([(1, -1)] + [(1, 1)] * (n - 1))
    return TwoSidedAction(2, [s3, s2n1])


def circle_su2_sphere_action(e):
    """S^1 x SU(2) on S^5 x S^(8e+3): V + L on the first sphere and
    (V tensor L)*(2e+1) on the second; coordinates (circle, SU(2))."""
    if e < 1:
        raise ValueError("need e >= 1")
    s5 = SphereFactor([(0, 1), (0, -1), (1, 0)])
    s8e3 = SphereFactor([(1, 1)] * (2 * e + 1) + [(1, -1)] * (2 * e + 1))
    return TwoSidedAction(2, [s5, s8e3])


def sp4_su2xsu2_action(kind):
    """The two free SU(2) x SU(2) actions on Sp(4).

    kind 'block' is (V1 + V2 | trivial): the one-sided standard block
    embedding with quotient S^4.  kind 'split' is (V1 + C^2 | V2 + V2),
    also with quotient S^4.  Each side is the su2_power_rep of its
    summands Sym^a1 x Sym^a2, given as (a1, a2).
    """
    classes = {"block": ([(1, 0), (0, 1)], [(0, 0)] * 4),  # V1+V2 | 4C
               # V1+2C | 2V2
               "split": ([(1, 0), (0, 0), (0, 0)], [(0, 1)] * 2)}
    if kind not in classes:
        raise ValueError("kind must be 'block' or 'split'")
    left, right = map(su2_power_rep, classes[kind])
    return TwoSidedAction(2, [GroupFactor(left.weights, right.weights)])


def hp_sum_action(n):
    """SU(2)^3 on Sp(4) x S^(4n-1): (V1 + V2 | V3 + C^2) on the group and
    (V3)_R^(n-1) + W12 on the sphere.

    Free for every n >= 1; the quotient is the connected sum of two copies
    of quaternionic projective n-space (S^4 at n = 1).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    group = GroupFactor(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)],
        [(0, 0, 1), (0, 0, -1), (0, 0, 0), (0, 0, 0)])
    # sphere rotation planes: one weight per plane of the real representation;
    # each copy of V3 spans the planes +e3 and -e3, so its Euler class is -z3
    sphere = SphereFactor([(0, 0, 1), (0, 0, -1)] * (n - 1)
                          + [(1, 1, 0), (1, -1, 0)])
    return TwoSidedAction(3, [group, sphere])


# ---------------------------------------------------------------------------
# Cohomology presentations
# ---------------------------------------------------------------------------


def _action_ring(action, kinds, groups=()):
    """H*(BH) modulo the relations of a free action (Eschenburg 1992).

    kinds names each torus coordinate 'circle' or 'su2' (see
    classifying_ring) and groups gives the group of each GroupFactor, in
    order.  A group factor contributes c_d(L) - c_d(R) for each degree d of
    its group; a sphere factor contributes the Euler class of its weights.
    """
    ring = classifying_ring(kinds)
    groups = iter(groups)
    relations = []
    for f in action.factors:
        if isinstance(f, SphereFactor):
            relations.append(euler_class(make_rep(action.rank, f.weights),
                                         ring)[0])
            continue
        g = next(groups)
        left, right = (make_rep(action.rank, ws) for ws in (f.left, f.right))
        relations.extend(chern_pullback(left, d, ring)
                         - chern_pullback(right, d, ring)
                         for d in degrees_of(g))
    return GradedQuotient(ring, relations)


def cp_sum_ring(n):
    """Z[u, v]/(uv, (u - v)(u + v)^(n-1)): the connected sum of two copies
    of complex projective n-space, from the torus action on S^3 x S^(2n-1)."""
    return _action_ring(torus_squared_sphere_action(n), ["circle", "circle"])


def hp_sum_full_quotient(n):
    """Z[z1, z2, z3]/(z3 - z1 - z2, z1 z2, (-z3)^(n-1)(z1 - z2)): the SU(2)^3
    presentation of hp_sum_action, before eliminating the linear relation."""
    return _action_ring(hp_sum_action(n), ["su2"] * 3, [Sp(4)])


def hp_sum_ring(n):
    """Z[z1, z2]/(z1 z2, z1^n = z2^n) computed through the SU(2)^3
    presentation and linear elimination."""
    return hp_sum_full_quotient(n).eliminate_linear("z3")


def cp_hp_sum_ring(e):
    """Z[x, z]/(xz, (x^2 - z)^(2e+1)): the connected sum of complex
    projective (4e+2)-space and quaternionic projective (2e+1)-space."""
    return _action_ring(circle_su2_sphere_action(e), ["circle", "su2"])


def spin_bundle_ring():
    """Z[y, chi]/((chi + y^2)^2, chi y): the rank-8 spin-bundle quotient in
    dimension 16 (y in degree 4, chi in degree 8)."""
    ring = GradedPolyRing(("y", "chi"), (4, 8))
    y, chi = ring.gens()
    return GradedQuotient(ring, [(chi + y * y) ** 2, chi * y])


def spin_bundle_sign_branches():
    """Restrict (chi + y^2)^2 along y -> -x^2, chi -> s*x^4 for both signs;
    returns the sign s for which the relation restricts to zero."""
    ring = GradedPolyRing(("y", "chi"), (4, 8))
    y, chi = ring.gens()
    rel = (chi + y * y) ** 2
    target = classifying_ring(["circle"])
    x, = target.gens()
    vanishing = [s for s in (1, -1)
                 if rel.substitute(target, {"y": -x ** 2,
                                            "chi": s * x ** 4}).is_zero()]
    return vanishing
