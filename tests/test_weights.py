from collections import Counter

import pytest

from biquot.groups import (SU, Sp, Spin, G2, F4, UnsupportedGroupError,
                           catalog_rules)
from biquot.weights import (
    make_rep, su2_irrep, su2_rep, su2_rep_from_label, su2_power_rep,
    standard_rep, spin_rep, spin_vector_rep, rep_sum, rep_tensor, rep_dual,
    realify, complexify, exterior_square, restrict_coords,
    dynkin_index, dynkin_index_of_hom, catalog_dynkin_index,
    su2_homs, is_su2_class, g2_su2_class, chern_pullback, euler_class,
    so9_adjoint_rep, defining_dimension, _classical_shape,
)
from biquot.cohomology import classifying_ring


def weights_multiset(rep):
    return Counter(rep.weights)


# -- constructors -----------------------------------------------------------


def test_standard_reps():
    assert sorted(standard_rep(SU(2)).weights) == [(-1,), (1,)]
    assert sorted(standard_rep(Sp(4)).weights) \
        == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    b2 = standard_rep(Spin(7))
    assert b2.dim == 7 and b2.zero_weight_count() == 1
    d4 = standard_rep(Spin(8))
    assert d4.dim == 8 and d4.zero_weight_count() == 0
    g2 = standard_rep(G2)
    assert g2.dim == 7 and g2.reality == "real"
    with pytest.raises(UnsupportedGroupError):
        standard_rep(F4)


def test_spin_rep_dimensions_and_parity():
    minus = spin_rep(8, "minus")
    assert minus.dim == 8 and minus.lattice.scale == 2
    assert all(sum(1 for x in w if x < 0) % 2 == 1 for w in minus.weights)
    plus = spin_rep(8, "plus")
    assert all(sum(1 for x in w if x < 0) % 2 == 0 for w in plus.weights)
    assert spin_rep(9).dim == 16
    assert spin_rep(7).dim == 8
    with pytest.raises(ValueError):
        spin_rep(8)
    with pytest.raises(ValueError):
        spin_rep(2)


def test_spin9_restricts_to_sum_of_spin8_halves():
    nine = spin_rep(9)
    both = rep_sum(spin_rep(8, "plus"), spin_rep(8, "minus"))
    assert weights_multiset(nine) == weights_multiset(both)


def test_spin8_restriction_to_circle():
    res = restrict_coords(spin_rep(8, "minus"), (0,))
    assert Counter(w[0] for w in res.weights) == Counter({1: 4, -1: 4})
    assert res.lattice.scale == 2


def test_spin_vector_rep_aliases():
    assert Counter(w[0] for w in spin_vector_rep(3).weights) \
        == Counter({2: 1, 0: 1, -2: 1})
    v5 = spin_vector_rep(5)
    assert v5.dim == 5 and v5.zero_weight_count() == 1
    v6 = spin_vector_rep(6)
    assert v6.dim == 6 and v6.zero_weight_count() == 0
    assert spin_vector_rep(9).dim == 9


def test_labels_round_trip():
    for parts in [(4,), (2, 2), (2, 1, 1), (3, 3, 1), (7,), (3, 2, 2)]:
        lab = su2_rep(parts).label
        back = su2_rep_from_label(lab)
        assert weights_multiset(back) == weights_multiset(su2_rep(parts))


# -- combinators --------------------------------------------------------------


def test_sum_and_tensor():
    v = su2_irrep(1)
    v2 = make_rep(2, [(0, 1), (0, -1)])
    l2 = make_rep(2, [(1, 0)])
    t = rep_tensor(v2, l2)
    assert sorted(t.weights) == [(1, -1), (1, 1)]
    s = rep_sum(v, rep_dual(v))
    assert s.dim == 4
    assert rep_sum(v, v).dim == 4
    assert rep_tensor(v, v).dim == 4
    assert rep_dual(v).dim == 2
    with pytest.raises(ValueError):
        rep_sum(v, v2)


def test_realify_is_v_plus_dual():
    v = su2_irrep(1)
    r = realify(v)
    assert r.reality == "real" and r.oriented
    assert weights_multiset(r) == Counter({(1,): 2, (-1,): 2})
    # the oriented half is exactly V's weight multiset
    assert Counter(r.half) == Counter(v.weights)


def test_complexify_round_trip():
    g2 = standard_rep(G2)
    c = complexify(g2)
    assert c.reality == "complex" and c.dim == 7
    assert weights_multiset(c) == weights_multiset(g2)


def test_tensor_double_cover():
    v1 = make_rep(2, [(1, 0), (-1, 0)])
    v2 = make_rep(2, [(0, 1), (0, -1)])
    w12 = rep_tensor(v1, v2)
    assert sorted(w12.weights) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_scale_unification():
    half = spin_rep(7)
    vec = complexify(standard_rep(Spin(7)))
    s = rep_sum(complexify(half), vec)
    assert s.lattice.scale == 2
    assert s.dim == 15
    # the integral weights got doubled onto the scale-2 lattice
    assert Counter(s.weights)[(2, 0, 0)] == 1


def test_real_closure_validation():
    with pytest.raises(ValueError):
        make_rep(1, [(1,), (1,)], reality="real")


# -- Dynkin indices -----------------------------------------------------------


def test_dynkin_index_values():
    assert dynkin_index(su2_rep_from_label("S3V"), 1) == 10
    assert dynkin_index(su2_rep_from_label("2V"), 1) == 2
    assert dynkin_index(su2_rep_from_label("V+2C"), 1) == 1
    assert dynkin_index(su2_rep_from_label("S6V"), 2) == 28


def test_dynkin_index_normalization_error():
    # an odd-squares sum cannot be divided by norm 2 exactly
    with pytest.raises(ValueError):
        dynkin_index(su2_irrep(1), 2)


def test_index_additivity():
    import random
    rng = random.Random(1)
    for _ in range(30):
        a = su2_rep([rng.randint(1, 5) for _ in range(rng.randint(1, 3))])
        b = su2_rep([rng.randint(1, 5) for _ in range(rng.randint(1, 3))])
        assert dynkin_index(rep_sum(a, b), 1) \
            == dynkin_index(a, 1) + dynkin_index(b, 1)


def test_f4_row_adjoint_route():
    # the one exceptional-target row checks through the adjoint rep
    f4row = [r for r in catalog_rules() if r.key == "F4/Spin(9)"][0]
    assert catalog_dynkin_index(next(f4row.entries())) == 1
    adj = so9_adjoint_rep()
    assert adj.dim == 36
    assert adj.dim + spin_rep(9).dim == 52


def test_dynkin_index_of_hom_ratio():
    # SO(2n+1) inside SU(2n+1) doubles pi_3
    vec = complexify(standard_rep(Spin(7)))
    idx = dynkin_index_of_hom(vec, vec, h_norm=2, g_norm=1)
    assert idx == 2


# -- SU(2) conjugacy classes ----------------------------------------------------


def test_su2_homs_counts_and_labels():
    assert [r.label for r in su2_homs(Sp(4))] == ["V+2C", "2V", "S3V"]
    assert [r.label for r in su2_homs(SU(3))] == ["V+C", "S2V"]
    assert [r.label for r in su2_homs(G2)] \
        == ["2V+3C", "S2V+2V", "2S2V+C", "S6V"]


def test_su2_homs_parity_constraints():
    # odd-dimensional irreps must pair up inside a symplectic group
    sp6 = [r.label for r in su2_homs(Sp(6))]
    assert "S2V+S2V" in sp6 or "2S2V" in sp6
    assert all("S2V" not in lab or lab.count("S2V") != 1 or "2S2V" in lab
               for lab in sp6)
    # even-dimensional irreps must pair up inside an orthogonal group
    so7 = su2_homs(Spin(7))
    for r in so7:
        c = Counter(w[0] for w in r.weights)
        assert all(c[k] == c[-k] for k in c)
    labels = {r.label for r in so7}
    assert "S6V" in labels and "2V+3C" in labels


def test_g2_class_lookup():
    for index, label in ((1, "2V+3C"), (3, "S2V+2V"), (4, "2S2V+C"),
                         (28, "S6V")):
        assert g2_su2_class(index).label == label
    with pytest.raises(ValueError):
        g2_su2_class(2)


def _partition_reps(n, constraint, reality, norm):
    """The partition enumeration su2_homs used at k = 1 before it took k:
    (label, weights, reality) of each nontrivial class, by (index, label)."""
    def partitions(m, top):
        if m == 0:
            yield ()
        for first in range(min(m, top), 0, -1):
            for rest in partitions(m - first, first):
                yield (first,) + rest

    out = []
    for parts in partitions(n, n):
        c = Counter(parts)
        if all(p == 1 for p in parts):
            continue
        if constraint == "odd-even" and any(p % 2 == 1 and m % 2 == 1
                                            for p, m in c.items()):
            continue
        if constraint == "even-even" and any(p % 2 == 0 and m % 2 == 1
                                             for p, m in c.items()):
            continue
        weights = tuple((d - 1 - 2 * i,) for d in parts for i in range(d))
        label = "+".join(
            ("%d" % c[d] if c[d] > 1 else "")
            + {1: "C", 2: "V"}.get(d, "S%dV" % (d - 1))
            for d in sorted(c, reverse=True))
        index = sum(w[0] ** 2 for w in weights) // 2 // norm
        out.append((index, label, weights, reality))
    return [entry[1:] for entry in sorted(out)]


@pytest.mark.parametrize("target,constraint,reality,norm", [
    *((SU(n), None, "complex", 1) for n in range(2, 10)),
    *((Sp(n), "odd-even", "complex", 1) for n in (4, 6, 8)),
    *((Spin(m), "even-even", "real", 2) for m in (7, 8, 9)),
])
def test_su2_homs_match_partition_enumeration(target, constraint, reality,
                                              norm):
    got = [(r.label, r.weights, r.reality) for r in su2_homs(target)]
    assert got == _partition_reps(standard_rep(target).dim, constraint,
                                  reality, norm)


def test_su2_homs_su2_squared_on_sp4():
    # the seven classes SU(2)^2 -> Sp(4) as first listed by hand
    expected = {
        "S3V1": ((-3, 0), (-1, 0), (1, 0), (3, 0)),
        "2V1": ((-1, 0), (-1, 0), (1, 0), (1, 0)),
        "V1+V2": ((-1, 0), (0, -1), (0, 1), (1, 0)),
        "V1+2C": ((-1, 0), (0, 0), (0, 0), (1, 0)),
        "S3V2": ((0, -3), (0, -1), (0, 1), (0, 3)),
        "2V2": ((0, -1), (0, -1), (0, 1), (0, 1)),
        "V2+2C": ((0, -1), (0, 0), (0, 0), (0, 1)),
    }
    homs = su2_homs(Sp(4), 2)
    assert len(homs) == 7
    assert {r.label: r.sorted_weights() for r in homs} == expected
    assert su2_power_rep([(1, 1), (0, 2), (0, 0)]).label == "V1*V2+S2V2+C"
    with pytest.raises(UnsupportedGroupError):
        su2_homs(G2, 2)


def test_is_su2_class():
    # the defining dimension, and the parity rule of su2_homs
    assert is_su2_class(Sp(4), "V+2C") and is_su2_class(Sp(4), "V+V")
    assert not is_su2_class(Sp(4), "S2V+C")      # a real irrep, once
    assert not is_su2_class(SU(3), "S2V+V+V")    # dimension 7, not 3
    assert not is_su2_class(Spin(8), "2V")       # dimension 4, not 8
    assert not is_su2_class(Spin(8), "V+6C")     # a quaternionic irrep, once
    assert is_su2_class(Spin(8), "2V+4C") and is_su2_class(Spin(7), "S6V")
    # large targets are decided without enumerating their classes
    assert is_su2_class(SU(100), "S99V") and is_su2_class(SU(100), "S2V+97C")
    assert not is_su2_class(Sp(100), "S2V+97C")
    assert is_su2_class(Sp(100), "S99V") and is_su2_class(Spin(99), "S98V")
    # G2: the four classes in any spelling, and the trivial one
    assert all(is_su2_class(G2, lab)
               for lab in ("2V+3C", "V+V+3C", "S2V+2V", "2S2V+C", "S6V", "7C"))
    assert not is_su2_class(G2, "S4V+2C") and not is_su2_class(G2, "S2V+4C")
    # the trivial class of a classical target
    assert is_su2_class(Sp(4), "4C") and is_su2_class(SU(3), "3C")
    with pytest.raises(ValueError):
        is_su2_class(Sp(4), "XYZ")
    with pytest.raises(UnsupportedGroupError):
        is_su2_class(F4, "V+24C")


# -- characteristic classes ---------------------------------------------------


def test_chern_pullback_examples():
    ring = classifying_ring(["su2", "su2", "su2"])
    z1, z2, z3 = ring.gens()
    left = make_rep(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)])
    assert chern_pullback(left, 2, ring) == -(z1 + z2)
    assert chern_pullback(left, 4, ring) == z1 * z2
    assert chern_pullback(left, 1, ring).is_zero()
    assert chern_pullback(left, 3, ring).is_zero()


def test_chern_multiplier_facts():
    ring = classifying_ring(["su2"])
    z, = ring.gens()
    # c2(S2 V) = 4 c2 V and c2(S3 V) = 10 c2 V, with c2 V = -z
    assert chern_pullback(su2_rep_from_label("S2V"), 2, ring) == -4 * z
    assert chern_pullback(su2_rep_from_label("S3V"), 2, ring) == -10 * z


def test_chern_rejects_nonequivariant_multiset():
    ring = classifying_ring(["su2"])
    bad = make_rep(1, [(1,), (0,)])
    with pytest.raises(ValueError):
        chern_pullback(bad, 1, ring)


def test_euler_classes():
    ring = classifying_ring(["circle", "su2"])
    x, z = ring.gens()
    e, det = euler_class(make_rep(2, [(1, 1), (1, -1)]), ring)
    assert e == x * x - z and det
    e, det = euler_class(make_rep(2, [(0, 1), (0, -1), (1, 0)]), ring)
    assert e == -(z * x) and det
    # odd-rank real representation has a zero weight: Euler class zero
    vec = make_rep(1, [(2,), (0,), (-2,)], reality="real")
    ring1 = classifying_ring(["su2"])
    e, det = euler_class(vec, ring1)
    assert e.is_zero() and det


def test_euler_sign_flag_and_multiplicativity():
    ring = classifying_ring(["su2", "su2"])
    z1, z2 = ring.gens()
    w12 = make_rep(2, [(1, 1), (1, -1), (-1, 1), (-1, -1)], reality="real")
    e, det = euler_class(w12, ring)
    assert not det and e in (z1 - z2, z2 - z1)
    v1r = realify(make_rep(2, [(1, 0), (-1, 0)]))
    es, dets = euler_class(rep_sum(v1r, w12), ring)
    ev, _ = euler_class(v1r, ring)
    assert not dets and es in (ev * e, -(ev * e))


def test_euler_top_chern_agreement():
    ring = classifying_ring(["circle", "su2"])
    rep = make_rep(2, [(1, 1), (1, -1), (2, 0)])
    e, det = euler_class(rep, ring)
    assert det and e == chern_pullback(rep, 3, ring)


def test_exterior_square():
    lam = exterior_square(complexify(standard_rep(Spin(9))))
    assert lam.dim == 36  # dim so(9)


@pytest.mark.parametrize("g", [SU(n) for n in range(2, 7)]
                         + [Sp(2 * n) for n in range(2, 5)]
                         + [Spin(m) for m in range(7, 13)] + [G2],
                         ids=str)
def test_defining_shape_read_off_family_and_rank(g):
    rep = standard_rep(g)
    assert defining_dimension(g) == rep.dim
    if g != G2:
        assert _classical_shape(g)[:2] == (rep.dim, rep.reality)
