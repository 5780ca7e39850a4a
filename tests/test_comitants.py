from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from comitant.associated import AssociatedFormError, associated_form
from comitant.comitants import (
    Form,
    FormError,
    hessian,
    jacobian,
    polar,
    restrict_to_line,
    transvectant,
)
from comitant.invariants import (InvariantError, evaluate_invariant,
                                 invariant_S)
from comitant.poly import Poly, poly_ring
from comitant.scalars import GF, QQ
from test_poly import _coefficients, _from_sympy, _to_sympy


def bform(text, degree, variables=("x", "y")):
    from comitant.grammar import parse_poly
    return Form(parse_poly(text, variables), degree,
                (len(variables) - 2, len(variables) - 1))


def tform(text, degree, variables=("X", "Y", "Z")):
    from comitant.grammar import parse_poly
    return Form(parse_poly(text, variables), degree,
                (len(variables) - 3, len(variables) - 2, len(variables) - 1))


# ---------------------------------------------------------------- form types

def test_binary_form_rejects_inhomogeneous():
    x, y = poly_ring(("x", "y"), QQ)
    with pytest.raises(FormError, match="not homogeneous"):
        Form(x**2 + y, 2)


def test_binary_form_rejects_wrong_declared_degree():
    x, y = poly_ring(("x", "y"), QQ)
    with pytest.raises(FormError, match="declared degree"):
        Form(x**2, 3)


def test_zero_form_keeps_declared_degree():
    f = Form(Poly.zero(("x", "y"), QQ), 5)
    assert f.degree == 5
    assert f.poly.is_zero()


def test_ternary_form_needs_three_indices():
    # a 2-index Form is a binary form; ternary consumers reject it
    x, y = poly_ring(("x", "y"), QQ)
    with pytest.raises(InvariantError, match="2 form variables"):
        evaluate_invariant(invariant_S(), Form(x**3 + y**3, 3, (0, 1)))
    with pytest.raises(AssociatedFormError, match="degree must be 4"):
        associated_form(Form(x**3 + y**3, 3, (0, 1)))


def test_extra_variables_act_as_coefficients():
    # a*x^2 + y^2 is a perfectly good binary quadric in (x, y).
    a, x, y = poly_ring(("a", "x", "y"), QQ)
    f = Form(a * x**2 + y**2, 2, (1, 2))
    assert f.degree == 2


def test_form_coefficients_in_the_parameters():
    # the form variables sit between the parameters, which keep their order
    s, x, t, y = poly_ring(("s", "x", "t", "y"), QQ)
    f = Form((s + t) * x**2 - s * t * y**2, 2, (1, 3))
    assert f.params == ("s", "t")
    s1, t1 = poly_ring(("s", "t"), QQ)
    # the absent x*y gets the zero Poly in the parameters
    assert f.coefficients([(2, 0), (1, 1), (0, 2)]) == [
        s1 + t1, Poly.zero(("s", "t"), QQ), -(s1 * t1)]
    assert f.coefficients([]) == []


def test_form_coefficients_without_parameters_and_over_gf():
    # a parameter-free form gives constant Polys in no variables, and the
    # ring comes along
    x, y = poly_ring(("x", "y"), GF(5))
    f = Form(x**3 * 2 + y**3, 3)
    assert f.params == ()
    got = f.coefficients([(3, 0), (2, 1), (0, 3)])
    assert got == [Poly.constant(2, (), GF(5)), Poly.zero((), GF(5)),
                   Poly.constant(1, (), GF(5))]
    assert all(c.vars == () and c.ring == GF(5) for c in got)


# -------------------------------------------------------------- transvectant

def test_first_transvectant_of_squares():
    # (x^2, y^2)_1 = 1/4 * (2x * 2y - 0) = x*y
    f = bform("x^2", 2)
    g = bform("y^2", 2)
    h = transvectant(f, g, 1)
    assert str(h.poly) == "x*y"
    assert h.degree == 2


def test_second_transvectant_is_twice_discriminant():
    # For q = a*x^2 + 2b*x*y + c*y^2 one has (q, q)_2 = 2(ac - b^2).
    f = bform("x^2 + y^2", 2)
    assert transvectant(f, f, 2).poly == Poly.constant(2, ("x", "y"), QQ)
    g = bform("x*y", 2)
    assert transvectant(g, g, 2).poly == Poly.constant(Fraction(-1, 2),
                                                       ("x", "y"), QQ)


def test_zeroth_transvectant_is_product():
    f = bform("x^2 - y^2", 2)
    g = bform("x + y", 1)
    assert transvectant(f, g, 0).poly == f.poly * g.poly


def test_odd_self_transvectant_vanishes():
    f = bform("x^4 + 3*x^2*y^2 - y^4", 4)
    assert transvectant(f, f, 1).poly.is_zero()
    assert transvectant(f, f, 3).poly.is_zero()


def test_transvectant_index_range():
    f = bform("x^2", 2)
    with pytest.raises(FormError, match="out of range"):
        transvectant(f, f, 3)
    with pytest.raises(FormError, match="out of range"):
        transvectant(f, f, -1)


def test_transvectant_ring_mismatch():
    f = bform("x^2", 2)
    g = bform("s^2", 2, ("s", "t"))
    with pytest.raises(FormError, match="different rings"):
        transvectant(f, g, 1)


def test_transvectant_with_parameters():
    # (f, f)_4 of x^4 + 6a x^2 y^2 + y^4 is the quadratic invariant 2(1+3a^2)
    f = bform("x^4 + 6*a*x^2*y^2 + y^4", 4, ("a", "x", "y"))
    i2 = transvectant(f, f, 4).poly
    a, x, y = poly_ring(("a", "x", "y"), QQ)
    assert i2 == (1 + a**2 * 3) * 2


@st.composite
def _forms(draw, n, degree):
    """A form of the given degree in the last n of ("a", "x", "y", "z");
    the parameter a rides along in the coefficients."""
    names = ("a", "x", "y", "z")[:n + 1]
    monos = [e for e in product(range(degree + 1), repeat=n)
             if sum(e) == degree]
    terms = {}
    for e in draw(st.lists(st.sampled_from(monos), max_size=4, unique=True)):
        terms[(draw(st.integers(0, 2)),) + e] = draw(_coefficients(QQ))
    return Poly(names, terms, QQ)


def test_transvectant_matches_sympy_omega_process():
    # (f, g)_k = (m-k)!(n-k)!/(m! n!) * Omega^k (f(x1, y1) g(x2, y2)) on the
    # diagonal, Omega = d^2/dx1 dy2 - d^2/dy1 dx2 (Cayley's process)
    sympy = pytest.importorskip("sympy")
    a, x, y, x1, y1, x2, y2 = sympy.symbols("a x y x1 y1 x2 y2")

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def check(data):
        m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        k = data.draw(st.integers(0, min(m, n)))
        f, g = data.draw(_forms(2, m)), data.draw(_forms(2, n))
        h = sympy.expand(_to_sympy(sympy, f, (a, x1, y1))
                         * _to_sympy(sympy, g, (a, x2, y2)))
        for _ in range(k):
            h = sympy.diff(h, x1, y2) - sympy.diff(h, y1, x2)
        h = h.subs({x1: x, x2: x, y1: y, y2: y}) * sympy.Rational(
            factorial(m - k) * factorial(n - k), factorial(m) * factorial(n))
        got = transvectant(Form(f, m, (1, 2)), Form(g, n, (1, 2)), k)
        assert got.degree == m + n - 2 * k
        assert got.poly.terms == _from_sympy(sympy, h, (a, x, y))

    check()


# ------------------------------------------------------- hessian and friends

def test_hessian_matches_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def check(data):
        n = data.draw(st.sampled_from([2, 3]))
        f = data.draw(_forms(n, data.draw(st.integers(1, 6 - n))))
        syms = sympy.symbols(f.vars)
        want = sympy.hessian(_to_sympy(sympy, f, syms), syms[1:]).det(
            method="berkowitz")
        assert hessian(f, indices=range(1, n + 1)).terms == _from_sympy(
            sympy, want, syms)

    check()


def test_binary_hessian():
    x, y = poly_ring(("x", "y"), QQ)
    assert hessian(x**3 + y**3) == 36 * x * y


def test_ternary_hessian_of_fermat_cubic():
    X, Y, Z = poly_ring(("X", "Y", "Z"), QQ)
    assert hessian(X**3 + Y**3 + Z**3) == 216 * X * Y * Z


def test_hessian_respects_index_subset():
    # Differentiate in (x, y) only; `a` rides along as a coefficient.
    a, x, y = poly_ring(("a", "x", "y"), QQ)
    h = hessian(a * x**2 + y**2, indices=(1, 2))
    assert h == 4 * a


def test_jacobian_pair():
    x, y = poly_ring(("x", "y"), QQ)
    assert jacobian([x**2 + y**2, x * y]) == 2 * x**2 - 2 * y**2


def test_jacobian_of_dependent_polys_vanishes():
    x, y = poly_ring(("x", "y"), QQ)
    assert jacobian([x * y, x**2 * y**2]).is_zero()


# --------------------------------------------------------------------- polar

def test_polar_of_quadric_is_polarity():
    f = tform("X^2 + Y^2 + Z^2", 2)
    p = polar(f)
    vars6 = ("X", "Y", "Z", "p1", "p2", "p3")
    X, Y, Z, p1, p2, p3 = poly_ring(vars6, QQ)
    assert p == 2 * (p1 * X + p2 * Y + p3 * Z)


def test_polar_point_variable_collision():
    f = tform("X^3 + Y^3 + Z^3", 3)
    with pytest.raises(FormError, match="collides"):
        polar(f, point_vars=("X", "q2", "q3"))


def test_polar_of_constant_rejected():
    f = Form(Poly.constant(1, ("X", "Y", "Z"), QQ), 0)
    with pytest.raises(FormError, match="constant"):
        polar(f)


# --------------------------------------------------------- restrict_to_line

def test_restrict_linear_form_all_charts():
    f = tform("X", 1)
    vars_out = ("x", "y", "u", "v", "w")
    x, y, u, v, w = poly_ring(vars_out, QQ)
    assert restrict_to_line(f, 2).poly == w * x
    assert restrict_to_line(f, 0).poly == -(v * x) - w * y
    assert restrict_to_line(f, 1).poly == v * x


def test_restriction_lands_on_the_line():
    # The chart images of (X, Y, Z) satisfy u*X + v*Y + w*Z = 0.
    x, y, u, v, w = poly_ring(("x", "y", "u", "v", "w"), QQ)
    for chart in (0, 1, 2):
        rX, rY, rZ = (restrict_to_line(tform(n, 1), chart).poly
                      for n in ("X", "Y", "Z"))
        assert (u * rX + v * rY + w * rZ).is_zero()


def test_restriction_degrees():
    f = tform("X^3 + Y^3 + Z^3", 3)
    g = restrict_to_line(f, 2)
    assert g.degree == 3
    assert g.indices == (0, 1)
    # each coefficient of x^i y^j is homogeneous of degree 3 in (u, v, w)
    assert g.poly.is_homogeneous((2, 3, 4))
    assert g.poly.degree_in((2, 3, 4)) == 3


def test_restrict_parameterized_form():
    f = tform("t*X^3 + Y^3 + Z^3", 3, ("t", "X", "Y", "Z"))
    g = restrict_to_line(f, 2)
    assert g.poly.vars == ("t", "x", "y", "u", "v", "w")
    assert g.indices == (1, 2)
    t, x, y, u, v, w = poly_ring(g.poly.vars, QQ)
    expected = t * (w * x)**3 + (w * y)**3 + (-(u * x) - v * y)**3
    assert g.poly == expected


def test_restrict_rejects_bad_chart_and_collisions():
    f = tform("X^2 + Y*Z", 2)
    with pytest.raises(FormError, match="chart"):
        restrict_to_line(f, 3)
    # a parameter named like a line variable
    g = tform("x*X^2 + Y*Z", 2, ("x", "X", "Y", "Z"))
    with pytest.raises(FormError, match="'x' collides"):
        restrict_to_line(g, 2)
