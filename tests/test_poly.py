from fractions import Fraction

import pytest

from comitant.invariants import generic_form
from comitant.poly import Poly, divexact, poly_ring, univariate_gcd
from comitant.scalars import GF, QQ, Fp


def test_ring_construction_and_repr():
    x, y = poly_ring(("x", "y"), QQ)
    p = x**2 + y * 2 - 1
    assert str(p) == "x^2 + 2*y - 1"
    assert p.total_degree() == 2
    assert not p.is_homogeneous()


def test_poly_ring_accepts_comma_string():
    x, y = poly_ring("x,y")
    assert str(x * y) == "x*y"


def test_arithmetic_basics():
    x, y = poly_ring(("x", "y"), QQ)
    assert (x + y) * (x - y) == x**2 - y**2
    assert (x + y)**3 == x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3
    assert (x - x).is_zero()
    assert x * 0 == Poly.zero(("x", "y"), QQ)
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x


def test_scalar_coercion_in_both_orders():
    (t,) = poly_ring(("t",), QQ)
    assert 2 * t == t * 2
    assert 1 - t == -(t - 1)


def test_substitute_and_evaluate():
    x, y = poly_ring(("x", "y"), QQ)
    p = x**2 + y**2
    q = p.substitute([x + y, x - y])
    assert q == 2 * x**2 + 2 * y**2
    assert p.evaluate([Fraction(3), Fraction(4)]) == 25


def test_partial_derivatives():
    x, y = poly_ring(("x", "y"), QQ)
    p = x**3 * y + y**2
    assert p.partial(0) == 3 * x**2 * y
    assert p.partial(1) == x**3 + 2 * y


def test_coefficients_in_splits_parameters():
    a, x, y = poly_ring(("a", "x", "y"), QQ)
    p = a * x**2 + (a**2 + 1) * y**2
    groups = p.coefficients_in((1, 2))
    assert set(groups) == {(2, 0), (0, 2)}
    (a_only,) = poly_ring(("a",), QQ)
    assert groups[(2, 0)] == a_only
    assert groups[(0, 2)] == a_only**2 + 1


def test_extend_to_superset_and_permutation():
    x, y = poly_ring(("x", "y"), QQ)
    p = x * y + x**2
    q = p.extend_to(("a", "x", "y"))
    assert q.vars == ("a", "x", "y")
    assert q.coefficient({0: 0}) == p  # nothing rides on the new variable
    r = p.extend_to(("y", "x"))
    assert r.vars == ("y", "x")
    # same polynomial, stored over permuted names
    assert r.extend_to(("x", "y")) == p
    assert r.evaluate([Fraction(3), Fraction(2)]) == p.evaluate(
        [Fraction(2), Fraction(3)])


def test_to_ring_reduction():
    x, y = poly_ring(("x", "y"), QQ)
    p = x * 7 + y * Fraction(1, 2)
    q = p.to_ring(GF(7))
    assert q == Poly.variable("y", ("x", "y"), GF(7)) * Fp(4, 7)


def test_divexact_success_and_failure():
    x, y = poly_ring(("x", "y"), QQ)
    assert divexact(x**2 - y**2, x - y) == x + y
    with pytest.raises(ValueError, match="inexact"):
        divexact(x**2 + y**2, x - y)
    with pytest.raises(ZeroDivisionError):
        divexact(x, Poly.zero(("x", "y"), QQ))


def test_content_and_primitive():
    x, y = poly_ring(("x", "y"), QQ)
    p = x * 6 + y * 9
    assert p.primitive() == x * 2 + y * 3


def test_homogeneity_checks():
    x, y = poly_ring(("x", "y"), QQ)
    assert (x**3 + x * y**2).is_homogeneous()
    assert not (x**3 + y).is_homogeneous()
    assert Poly.zero(("x", "y"), QQ).is_homogeneous()


def test_univariate_gcd():
    x, y = poly_ring(("x", "y"), QQ)
    g = univariate_gcd((x - y) * (x + y), (x - y) * x)
    assert divexact(g, x - y).total_degree() == 0


def test_str_ordering_is_stable():
    x, y = poly_ring(("x", "y"), QQ)
    p = y**2 - x * y + x**2 * Fraction(1, 3)
    assert str(p) == "1/3*x^2 - x*y + y^2"


def test_binomial():
    # the binary universal form carries the binomial weights 1, 4, 6, 4, 1
    a0, a1, a2, a3, a4, x, y = poly_ring(generic_form(2, 4).vars, QQ)
    assert generic_form(2, 4) == (a0 * x**4 + 4 * a1 * x**3 * y
                                  + 6 * a2 * x**2 * y**2 + 4 * a3 * x * y**3
                                  + a4 * y**4)


def test_rename_vars():
    x, y = poly_ring(("x", "y"), QQ)
    p = (x + y) ** 2
    q = p.rename_vars(("u", "v"))
    u, v = poly_ring(("u", "v"), QQ)
    assert q == (u + v) ** 2
