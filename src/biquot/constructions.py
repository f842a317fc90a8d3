"""Named constructions: the standard free actions and quotient presentations.

Each builder returns exact data (a TwoSidedAction or a GradedQuotient) for
one of the stock examples: the exotic 7-sphere action on Sp(4), the
two-sided SU(2) actions on G2, torus actions on products of spheres whose
quotients are connected sums of projective spaces, and the corresponding
cohomology presentations.
"""

from __future__ import annotations

from .groups import Sp, profile
from .weights import (make_rep, su2_rep_from_label, realify, rep_tensor,
                      rep_sum, chern_pullback, euler_class, g2_su2_class,
                      is_su2_class)
from .freeness import GroupFactor, SphereFactor, TwoSidedAction
from .cohomology import (classifying_ring, GradedQuotient, biquotient_ring,
                         bundle_quotient_ring)
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

    Free for every n >= 2; the quotient is the connected sum of two copies
    of complex projective n-space.
    """
    if n < 2:
        raise ValueError("need n >= 2")
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
    also with quotient S^4.
    """
    if kind == "block":
        left = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        right = [(0, 0)] * 4
    elif kind == "split":
        left = [(1, 0), (-1, 0), (0, 0), (0, 0)]
        right = [(0, 1), (0, -1), (0, 1), (0, -1)]
    else:
        raise ValueError("kind must be 'block' or 'split'")
    return TwoSidedAction(2, [GroupFactor(left, right)])


def hp_sum_action(n):
    """SU(2)^3 on Sp(4) x S^(4n-1): (V1 + V2 | V3 + C^2) on the group and
    (V3)_R^(n-1) + W12 on the sphere; the quotient is the connected sum of
    two copies of quaternionic projective n-space."""
    if n < 2:
        raise ValueError("need n >= 2")
    group = GroupFactor(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)],
        [(0, 0, 1), (0, 0, -1), (0, 0, 0), (0, 0, 0)])
    # sphere rotation planes: one weight per plane of the real representation
    sphere = SphereFactor([(0, 0, 1)] * (2 * (n - 1)) + [(1, 1, 0), (1, -1, 0)])
    return TwoSidedAction(3, [group, sphere])


# ---------------------------------------------------------------------------
# Cohomology presentations
# ---------------------------------------------------------------------------


def cp_sum_ring(n):
    """Z[u, v]/(uv, (u - v)(u + v)^(n-1)): the connected sum of two copies
    of complex projective n-space, from the torus action on S^3 x S^(2n-1)."""
    ring = classifying_ring(["circle", "circle"])
    u, v = ring.gens()
    return GradedQuotient(ring, [u * v, (u - v) * (u + v) ** (n - 1)])


def hp_sum_full_quotient(n):
    """The SU(2)^3 presentation on three degree-4 generators, before
    eliminating the linear relation."""
    ring = classifying_ring(["su2", "su2", "su2"])
    left = make_rep(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)])
    right = make_rep(3, [(0, 0, 1), (0, 0, -1), (0, 0, 0), (0, 0, 0)])
    pullbacks = [
        (chern_pullback(left, 2, ring), chern_pullback(right, 2, ring)),
        (chern_pullback(left, 4, ring), chern_pullback(right, 4, ring)),
    ]
    base = biquotient_ring(profile(Sp(4)), ring, pullbacks)
    v3 = make_rep(3, [(0, 0, 1), (0, 0, -1)])
    v1 = make_rep(3, [(1, 0, 0), (-1, 0, 0)])
    v2 = make_rep(3, [(0, 1, 0), (0, -1, 0)])
    w12 = make_rep(3, rep_tensor(v1, v2).weights, reality="real")
    bundle = realify(v3)
    for _ in range(n - 2):
        bundle = rep_sum(bundle, realify(v3))
    bundle = rep_sum(bundle, w12)
    e, _sign_known = euler_class(bundle, ring)
    return bundle_quotient_ring(base, [e])


def hp_sum_ring(n):
    """Z[z1, z2]/(z1 z2, z1^n = z2^n) computed through the SU(2)^3
    presentation and linear elimination."""
    return hp_sum_full_quotient(n).eliminate_linear("z3")


def cp_hp_sum_ring(e):
    """Z[x, z]/(xz, (x^2 - z)^(2e+1)): the connected sum of complex
    projective (4e+2)-space and quaternionic projective (2e+1)-space."""
    ring = classifying_ring(["circle", "su2"])
    x, z = ring.gens()
    v_plus_l = make_rep(2, [(0, 1), (0, -1), (1, 0)])
    v_tensor_l = make_rep(2, [(1, 1), (1, -1)])
    e1, d1 = euler_class(v_plus_l, ring)
    bundle = v_tensor_l
    for _ in range(2 * e):
        bundle = rep_sum(bundle, v_tensor_l)
    e2, d2 = euler_class(bundle, ring)
    assert d1 and d2
    return GradedQuotient(ring, [e1, e2])


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
