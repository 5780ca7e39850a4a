from fractions import Fraction

import pytest

from comitant.maps import (
    HAMMOND_VARS,
    MapError,
    RationalMapP1,
    c35_jacobian,
    compose,
    descend_map,
    hammond_image_polys,
    hammond_path_comparison,
    hammond_relations_symbolic,
    hesse_cover,
    hesse_self_map,
    quartic_cover,
    quartic_self_map,
)
from comitant.comitants import Form
from comitant.poly import Poly, normalize_jointly, poly_ring
from comitant.scalars import GF, QQ, Fp


def pencil():
    return poly_ring(("t0", "t1"), QQ)


# ------------------------------------------------------------ RationalMapP1

def test_common_factor_is_cancelled():
    t0, t1 = pencil()
    m = RationalMapP1(t0**2 * t1, t0 * t1**2)
    assert m == RationalMapP1(t0, t1)
    assert m.degree == 1


def test_joint_primitive_normalization():
    t0, t1 = pencil()
    m = RationalMapP1(t0 * Fraction(-2, 3), t1 * Fraction(4, 3))
    # one scalar for the pair: integral, coprime, positive leading entry
    assert (str(m.num), str(m.den)) == ("t0", "-2*t1")


def test_map_validation_errors():
    t0, t1 = pencil()
    x, y, z = poly_ring(("x", "y", "z"), QQ)
    zero = Poly.zero(("t0", "t1"), QQ)
    with pytest.raises(MapError, match="zero map"):
        RationalMapP1(zero, zero)
    with pytest.raises(MapError, match="degrees differ"):
        RationalMapP1(t0**2, t1)
    with pytest.raises(MapError, match="homogeneous"):
        RationalMapP1(t0 + 1, t1)
    with pytest.raises(MapError, match="2-variable"):
        RationalMapP1(x, y)


def test_value_at_and_indeterminacy():
    t0, t1 = pencil()
    m = RationalMapP1(t0 * t1, t1**2)  # reduces to [t0 : t1]
    assert m.value_at((2, 4)) == (1, 2)
    m2 = RationalMapP1(t0**2, t1**2)
    assert m2.value_at((Fraction(1, 2), Fraction(1, 3))) == (9, 4)
    m3 = RationalMapP1(t0**2 - t1**2, t0 * t1)
    assert m3.value_at((1, 1)) == (0, 1)
    assert m3.value_at((0, 0)) == (0, 0)


def test_value_at_mod_p():
    t0, t1 = poly_ring(("t0", "t1"), GF(7))
    m = RationalMapP1(t0 + t1, t0 - t1)
    v = m.value_at((Fp(3, 7), Fp(1, 7)))
    assert v == (Fp(2, 7), Fp(1, 7))  # last coordinate normalized to 1


def test_value_at_an_fp_point_of_a_rational_map():
    # the QQ map reduces mod 7 at an F_7 point: its QQ value (-24, 17)
    # reduced, not a ring mismatch
    m = hesse_self_map()
    assert m.value_at((1, 2)) == (-24, 17)
    assert m.value_at((Fp(1, 7), Fp(2, 7))) == (Fp(6, 7), Fp(1, 7))
    # the last nonzero entry is the one made 1, not the first
    t0, t1 = pencil()
    assert RationalMapP1(t0, t1).value_at((Fp(3, 7), Fp(2, 7))) == (
        Fp(5, 7), Fp(1, 7))


def test_normalize_point():
    # a point of P^1 is scaled at its last nonzero coordinate, as
    # `value_at` and `ProjectivePoint.normalized` do
    assert normalize_jointly([Fraction(1, 2), Fraction(1, 3)], 1) == [3, 2]
    assert normalize_jointly([-2, -4], 1) == [1, 2]
    assert normalize_jointly([0, 0], 1) == [0, 0]
    assert normalize_jointly([Fp(3, 5), Fp(2, 5)], 1) == [Fp(4, 5),
                                                          Fp(1, 5)]


def test_identity_and_compose_degrees():
    t0, t1 = pencil()
    m = RationalMapP1(t0**2 + t1**2, t0 * t1)
    identity = RationalMapP1(t0, t1)
    assert compose(identity, m) == m
    assert compose(m, identity) == m
    assert compose(m, m).degree == 4


def test_compose_ring_mismatch():
    t0, t1 = pencil()
    s0, s1 = poly_ring(("t0", "t1"), GF(5))
    with pytest.raises(MapError, match="different rings"):
        compose(RationalMapP1(t0, t1), RationalMapP1(s0, s1))


# --------------------------------------------------------- the pencil maps

def test_hesse_self_map_is_the_hessian_reading():
    t0, t1 = pencil()
    m = hesse_self_map()
    assert m == RationalMapP1(6 * t0 * t1**2, -(t0**3) - 2 * t1**3)
    assert m.degree == 3


def test_quartic_self_map_is_the_hessian_reading():
    t0, t1 = pencil()
    m = quartic_self_map()
    assert m == RationalMapP1(6 * t0 * t1, t0**2 - 3 * t1**2)
    assert m.degree == 2


def test_cover_degrees():
    assert hesse_cover().degree == 12
    assert quartic_cover().degree == 6


def test_hesse_descent():
    composite = compose(hesse_cover(), hesse_self_map())
    assert composite.degree == 36
    r = descend_map(hesse_cover(), composite, 3)
    assert r.degree == 3
    assert compose(r, hesse_cover()) == composite


def test_quartic_descent_closed_form():
    t0, t1 = pencil()
    composite = compose(quartic_cover(), quartic_self_map())
    assert composite.degree == 12
    r = descend_map(quartic_cover(), composite, 2)
    assert r == RationalMapP1(27 * t0**2,
                              t0**2 - 108 * t0 * t1 + 2916 * t1**2)


def test_descend_identity():
    t0, t1 = pencil()
    assert descend_map(quartic_cover(), quartic_cover(), 1) == \
        RationalMapP1(t0, t1)


def test_descend_over_prime_field():
    t0, t1 = poly_ring(("t0", "t1"), GF(7))
    cover = RationalMapP1(t0**2, t1**2)
    r = RationalMapP1(t0, t0 + t1)
    assert descend_map(cover, compose(r, cover), 1) == r
    with pytest.raises(MapError, match="does not factor"):
        descend_map(cover, compose(cover, r), 1)


def test_descend_over_gfp_matches_reduced_qq_quotient():
    ring = GF(10007)

    def reduce(m):
        gens = poly_ring(m.num.vars, ring)
        return RationalMapP1(m.num.substitute(gens), m.den.substitute(gens))

    composite = compose(quartic_cover(), quartic_self_map())
    quotient = descend_map(quartic_cover(), composite, 2)
    assert descend_map(reduce(quartic_cover()), reduce(composite), 2) \
        == reduce(quotient)


def test_descend_over_a_prime_past_int64_products():
    # (p - 1)^2 >= 2^63: the kernel is eliminated on Python-int residues
    ring = GF(2**61 - 1)

    def reduce(m):
        gens = poly_ring(m.num.vars, ring)
        return RationalMapP1(m.num.substitute(gens), m.den.substitute(gens))

    composite = compose(quartic_cover(), quartic_self_map())
    got = descend_map(reduce(quartic_cover()), reduce(composite), 2)
    assert got == reduce(descend_map(quartic_cover(), composite, 2))
    t0, t1 = poly_ring(("t0", "t1"), ring)
    assert got == RationalMapP1(
        t0**2, t0**2 * 1451827079875288784
        + t0 * t1 * 2305843009213693947 + t1**2 * 108)


def test_descend_failure_modes():
    with pytest.raises(MapError, match="does not factor"):
        descend_map(quartic_cover(), quartic_self_map(), 1)
    with pytest.raises(MapError, match="negative degree"):
        descend_map(quartic_cover(), quartic_cover(), -1)


# ------------------------------------------------------------- Hammond slice

def test_image_polys_frozen_formulas():
    a, b, e, f = poly_ring(HAMMOND_VARS, QQ)
    c5, c4, c3, c2, c1, c0 = hammond_image_polys()
    assert c5 == (a * f - 5 * b * e) * a
    assert c4 == (5 * a * f - 9 * b * e) * b
    assert c3 == 8 * b**2 * f
    assert c2 == -8 * a * e**2
    assert c1 == (5 * a * f - 9 * b * e) * e
    assert c0 == -(a * f - 5 * b * e) * f


def test_hammond_c35_mod_p():
    # the image polynomials reduce mod 11 at an Fp point: Fp values, the
    # QQ values at the same integers, reduced
    point = (2, 1, 3, 5)
    over_qq = [c.evaluate([Fraction(v) for v in point])
               for c in hammond_image_polys()]
    over_f11 = [c.evaluate([Fp(v, 11) for v in point])
                for c in hammond_image_polys()]
    assert all(isinstance(c, Fp) and c.p == 11 for c in over_f11)
    assert over_f11 == [Fp(int(c), 11) for c in over_qq]


def test_hammond_relations():
    # a*c0 + f*c5 = 0 and e*c4 - b*c1 = 0 at one point over QQ and GF(11),
    # and as identities in (a, b, e, f)
    for a, b, e, f in ([Fraction(v) for v in (3, 1, -2, 7)],
                       [Fp(v, 11) for v in (3, 1, -2, 7)]):
        c5, c4, c3, c2, c1, c0 = (c.evaluate([a, b, e, f])
                                  for c in hammond_image_polys())
        assert a * c0 + f * c5 == 0 and e * c4 - b * c1 == 0
    assert hammond_relations_symbolic()


def test_path_comparison_scalar_and_flip():
    cmp = hammond_path_comparison()
    assert cmp["scalar"] == 10
    assert cmp["flipped"] == ((1, 4),)


def test_c35_jacobian_degree_guard():
    x, y = poly_ring(("x", "y"), QQ)
    with pytest.raises(MapError, match="binary quintics"):
        c35_jacobian(Form(x**4 + y**4, 4))
    out = c35_jacobian(Form(x**5 + y**5, 5))
    assert out.degree == 5
