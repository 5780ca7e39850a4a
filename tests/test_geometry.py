import random
from fractions import Fraction

import pytest

from comitant.comitants import Form
from comitant.geometry import (
    Conic,
    GeometryError,
    PointPair,
    ProjectivePoint,
    STANDARD_CONIC,
    bracket,
    bracket_factorizations,
    coble_identity_check,
    coble_matrix,
    conic_fit,
    conic_through,
    harmonic_pairing,
    harmonic_partner,
    is_harmonic,
    is_tangency_pair,
    line_pole,
    pair_triples_match,
    pair_vertex,
    polar_line,
    proportional,
    q_construction,
    richelot_forward,
    richelot_inverse,
    sigma_map,
    symbolic_conic,
    tangency_pair,
    triple_invariants,
)
from comitant.poly import Poly, poly_ring
from comitant.scalars import GF, QQ, Fp

P = PointPair.from_coefficients


def conic_point(s, t):
    """[s^2 : st : t^2], the standard parametrization."""
    return ProjectivePoint((s * s, s * t, t * t))


# ------------------------------------------------------------------ pairs

def test_point_pair_roundtrip_and_equality():
    p = P(1, 0, -1)
    assert p.coefficients() == (1, 0, -1)
    assert p == P(-2, 0, 2)  # projective
    assert p != P(1, 0, 1)
    assert not p.is_double_point()
    assert P(1, 2, 1).is_double_point()


def test_point_pair_guards():
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    with pytest.raises(GeometryError, match="degree-2"):
        PointPair(Form(t0**3, 3))
    with pytest.raises(GeometryError, match="zero form"):
        PointPair(Form(Poly.zero(("t0", "t1"), QQ), 2))
    with pytest.raises(TypeError, match="unhashable"):
        hash(P(1, 0, -1))


def test_normalized_representative():
    # integral, coprime, last nonzero entry positive
    assert P(Fraction(1, 2), 0, Fraction(-3, 2)).normalized(
        ).coefficients() == (-1, 0, 3)


def test_harmonic_pairing_values():
    # {0, oo} against {1, -1}: harmonic
    assert harmonic_pairing(P(0, 1, 0), P(1, 0, -1)) == 0
    assert is_harmonic(P(0, 1, 0), P(1, 0, -1))
    # {0, oo} against itself: the pairing is -B*B'/2 = -1/2
    assert harmonic_pairing(P(0, 1, 0), P(0, 1, 0)) == Fraction(-1, 2)
    assert not is_harmonic(P(0, 1, 0), P(0, 1, 0))
    # the same pairs over F_7, where 1/2 = 4
    F7 = [P(*c, ring=GF(7)) for c in ((0, 1, 0), (1, 0, -1))]
    assert is_harmonic(*F7)
    assert harmonic_pairing(F7[0], F7[0]) == Fp(-4, 7)


def test_harmonic_partner():
    pair = P(0, 1, 0)  # roots 0 and infinity
    q = harmonic_partner(pair, (1, 1))
    # partner of 1 in a harmonic set with {0, oo} is -1
    assert ProjectivePoint(q) == ProjectivePoint((-1, 1))
    with pytest.raises(GeometryError, match="no harmonic partner"):
        harmonic_partner(pair, (0, 1))


def test_harmonic_partner_is_an_involution():
    pair = P(2, 3, -1)
    pt = (5, 7)
    q = harmonic_partner(pair, pt)
    back = harmonic_partner(pair, q)
    assert ProjectivePoint(back) == ProjectivePoint(pt)


# ----------------------------------------------------------------- points

def test_projective_point_basics():
    assert ProjectivePoint((2, 4, 6)) == ProjectivePoint((1, 2, 3))
    assert ProjectivePoint((1, 0)) != ProjectivePoint((0, 1))
    assert ProjectivePoint((2, -4, 6)).normalized() == (1, -2, 3)
    with pytest.raises(GeometryError, match="all-zero"):
        ProjectivePoint((0, 0, 0))
    with pytest.raises(GeometryError, match="line or in the plane"):
        ProjectivePoint((1, 2, 3, 4))


# ----------------------------------------------------------------- conics

def test_conic_value_and_det():
    c = STANDARD_CONIC
    assert c.value_at((1, 1, 1)) == 0  # [1:1:1] = conic_point(1, 1)
    assert c.value_at((1, 0, 0)) == 0
    assert c.value_at((0, 1, 0)) == -2
    assert c.is_nonsingular()
    assert not Conic(1, 1, 0, 0, 0, 0).is_nonsingular()


def test_coordinate_restriction():
    c = Conic(1, 2, 3, 4, 5, 6)
    # on x = 0 the conic cuts b*y^2 + 2f*yz + c*z^2
    assert c.coordinate_restriction(0).coefficients() == (2, 12, 3)
    assert c.coordinate_restriction(2).coefficients() == (1, 8, 2)


def test_q_construction_table():
    a, b, c, d, e, f = 1, 2, 3, 4, 5, 6
    qs = q_construction(Conic(a, b, c, d, e, f))
    table = [(0, f, -b), (0, -c, f), (-c, 0, e),
             (e, 0, -a), (d, -a, 0), (-b, d, 0)]
    assert list(qs) == [ProjectivePoint(t) for t in table]
    assert qs[0].normalized() == (0, -3, 1)
    assert qs[5].normalized() == (-1, 2, 0)


def test_q_construction_symbolic_lies_on_a_conic():
    qs = q_construction(symbolic_conic())
    assert conic_through(qs)


def test_q_construction_degenerate_conic():
    # b = f = 0 makes the restriction to x = 0 contain the vertex [1, 0]
    with pytest.raises(GeometryError, match="degenerate conic"):
        q_construction(Conic(1, 0, 1, 0, 0, 0))


def test_bracket_on_numeric_matrix():
    m = [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]]
    assert bracket(m, 1, 2, 3) == 1
    assert bracket(m, 1, 2, 4) == 0


def test_coble_identity():
    assert coble_identity_check()
    # spot-check one closed form against the actual minor
    m = coble_matrix()
    a, b, c, d, e, f = poly_ring(("a", "b", "c", "d", "e", "f"), QQ)
    assert bracket(m, 1, 2, 3) == -c * (f * f - b * c)
    assert bracket_factorizations()[(4, 5, 6)] == -a * (d * d - a * b)


def test_conic_through_parametrized_points():
    pts = [conic_point(*st) for st in
           ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (3, 1))]
    assert conic_through(pts)
    pts[5] = ProjectivePoint((1, 1, 2))  # off the conic
    assert not conic_through(pts)
    with pytest.raises(GeometryError, match="six points"):
        conic_through(pts[:5])


def test_conic_fit_recovers_standard_conic():
    pts = [conic_point(*st) for st in
           ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1))]
    fitted = conic_fit(pts)
    # proportional to x*z - y^2
    k = fitted.e
    assert (fitted.a, fitted.b, fitted.c, fitted.d, fitted.f) == (
        0, -2 * k, 0, 0, 0)
    assert fitted.value_at((9, 3, 1)) == 0


def test_conic_fit_special_position():
    pts = [ProjectivePoint(p) for p in
           ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1))]
    with pytest.raises(GeometryError, match="special position"):
        conic_fit(pts)


# ------------------------------------------------- poles, polars, tangency

def test_polar_pole_duality():
    pt = (3, 1, 2)
    L = polar_line(pt)
    assert ProjectivePoint(line_pole(L)) == ProjectivePoint(pt)


def test_tangency_pair_duality():
    v = (1, 1, 3)  # off the conic: 1*3 - 1 != 0
    pair = tangency_pair(v)
    assert is_tangency_pair(v, pair)
    assert ProjectivePoint(pair_vertex(pair)) == ProjectivePoint(v)
    # both touch points satisfy the polar-line incidence
    with pytest.raises(GeometryError, match="lies on the conic"):
        tangency_pair((1, 1, 1))


# ---------------------------------------------------------------- richelot

def test_richelot_forward_fixture():
    ps = [P(0, 1, 0), P(1, 0, -1), P(1, 0, -4)]
    fwd = richelot_forward(ps)
    expect = [P(0, 1, 0), P(1, 0, 4), P(1, 0, 1)]
    assert all(a == b for a, b in zip(fwd, expect))


def test_richelot_inverse_roundtrip():
    ps = [P(0, 1, 0), P(1, 0, -1), P(1, 0, -4)]
    assert pair_triples_match(richelot_inverse(richelot_forward(ps)), ps)
    qs = [P(1, 1, -1), P(2, -1, -1), P(1, 3, 1)]
    assert pair_triples_match(richelot_inverse(richelot_forward(qs)), qs)


def test_richelot_output_is_tangency_triple():
    ps = [P(1, 1, -1), P(2, -1, -1), P(1, 3, 1)]
    out = richelot_forward(ps)
    chords = [p.coefficients() for p in ps]
    for i, o in enumerate(out):
        v = pair_vertex(o)
        for j, L in enumerate(chords):
            incid = sum(a * b for a, b in zip(L, v))
            assert (incid == 0) == (i != j)


def test_richelot_inverse_is_the_forward_move():
    # pole-polar duality makes the two moves one involution: where both
    # are defined they agree coefficient for coefficient
    rng = random.Random(14)
    agreed = 0
    for _ in range(200):
        coeffs = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        if not all(map(any, coeffs)):
            continue
        ps = [P(*c) for c in coeffs]
        try:
            fwd, inv = richelot_forward(ps), richelot_inverse(ps)
        except GeometryError:
            continue
        assert [p.coefficients() for p in inv] == \
            [p.coefficients() for p in fwd]
        agreed += 1
    assert agreed > 100


def test_richelot_domains_differ_at_double_points():
    # a double-point input: the forward move accepts it, the inverse
    # refuses it
    ps = [P(1, 2, 1), P(1, 0, -4), P(0, 1, 0)]
    assert ps[0].is_double_point()
    assert len(richelot_forward(ps)) == 3
    with pytest.raises(GeometryError, match="double point pair"):
        richelot_inverse(ps)
    # chords st and st + t^2 meet at (1, 0, 0), on the conic: the forward
    # move refuses the double-point output, the inverse returns it
    qs = [P(0, 1, 0), P(0, 1, 1), P(1, 0, -1)]
    with pytest.raises(GeometryError, match="lies on the conic"):
        richelot_forward(qs)
    out = richelot_inverse(qs)
    assert out[2] == P(0, 0, 1) and out[2].is_double_point()


def test_richelot_over_gf7_is_an_involution():
    def F7(*coeffs):
        return P(*(Fp(c, 7) for c in coeffs), ring=GF(7))

    ps = [F7(0, 1, 0), F7(1, 0, 6), F7(1, 0, 3)]
    fwd = richelot_forward(ps)
    assert all(p.form.poly.ring == GF(7) for p in fwd)
    assert pair_triples_match(fwd, [F7(0, 1, 0), F7(2, 0, 1), F7(1, 0, 1)])
    assert pair_triples_match(richelot_inverse(fwd), ps)


def test_parametric_richelot_specialises_to_the_scalar_move():
    # pairs st, s^2 - a t^2 and s^2 - 4t^2 over QQ[a]; at a = -1 the
    # forward move must be that of st, s^2 + t^2 and s^2 - 4t^2
    (a,) = poly_ring(("a",), QQ)
    one, zero = a**0, a * 0
    fwd = richelot_forward([P(zero, one, zero), P(one, zero, -a),
                            P(one, zero, -4 * one)])
    assert all(p.form.poly.vars == ("a", "t0", "t1") for p in fwd)
    at = [[c.evaluate([Fraction(-1)]) for c in p.coefficients()]
          for p in fwd]
    scalar = richelot_forward([P(0, 1, 0), P(1, 0, 1), P(1, 0, -4)])
    assert all(P(*c) == q for c, q in zip(at, scalar))


def test_richelot_degeneracies():
    concurrent = [P(1, 0, 0), P(0, 0, 1), P(1, 0, -1)]
    with pytest.raises(GeometryError, match="degenerate chord triangle"):
        richelot_forward(concurrent)
    with pytest.raises(GeometryError, match="double point"):
        richelot_inverse([P(1, 2, 1), P(1, 0, -1), P(1, 0, -4)])
    with pytest.raises(GeometryError, match="three pairs"):
        richelot_forward([P(1, 0, -1)])


# ------------------------------------------------------------------- sigma

def sigma_probe():
    return [P(1, 1, -1), P(2, -1, -1), P(1, 3, 1)]


def test_sigma_produces_pairs():
    out = sigma_map(sigma_probe())
    assert len(out) == 3
    assert all(isinstance(p, PointPair) for p in out)
    assert [p.coefficients() for p in out] == [
        (0, -13, 15), (-13, 18, 0), (2, -5, 3)]


def test_sigma_commutes_with_reparametrization():
    t0, t1 = poly_ring(("t0", "t1"), QQ)

    def reparam(p, a, b, c, d):
        q = p.form.poly.substitute([t0 * a + t1 * b, t0 * c + t1 * d])
        return PointPair(Form(q, 2, (0, 1)))

    base = triple_invariants(sigma_map(sigma_probe()))
    for g in ((1, 2, 1, -1), (0, 1, 1, 0), (3, 1, 5, 2)):
        moved = [reparam(p, *g) for p in sigma_probe()]
        assert triple_invariants(sigma_map(moved)) == base


def test_sigma_rejects_degenerate_input():
    # this triple makes two of the six derived points collide
    ps = [P(0, 1, 0), P(1, 0, -1), P(1, 0, -4)]
    with pytest.raises(GeometryError, match="degenerates"):
        sigma_map(ps)


def test_triple_invariants_are_invariant():
    ps = sigma_probe()
    base = triple_invariants(ps)
    scaled = [P(*(c * Fraction(5, 3) for c in p.coefficients()))
              for p in ps]
    assert triple_invariants(scaled) == base
    with pytest.raises(GeometryError, match="double point"):
        triple_invariants([P(1, 2, 1), P(1, 0, -1), P(0, 1, 0)])


def test_proportional():
    assert proportional((1, 2, 3), (-2, -4, -6))
    assert not proportional((1, 2, 3), (1, 2, 4))
    x, y = poly_ring(("x", "y"), QQ)
    assert proportional((x, y), (x * y, y * y))
    assert not proportional((x, y), (y, x))
    # mismatched lengths are never proportional, even with zero padding
    assert not proportional((1, 2), (1, 2, 0))
    assert not proportional((1, 2, 0), (1, 2))
    assert not proportional((), (0,))
