from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from comitant.grammar import ParseError, parse_poly, parse_poly_file
from comitant.poly import Poly, poly_ring
from comitant.scalars import QQ


def test_basic_form():
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    assert parse_poly("t0^3*t1 - t1^4", ("t0", "t1")) == t0**3 * t1 - t1**4


def test_zero_and_constants():
    assert parse_poly("0", ("x",)).is_zero()
    p = parse_poly("3/2", ("x",))
    assert p.total_degree() == 0
    assert p.terms[(0,)] == Fraction(3, 2)


def test_omitted_coefficient_and_exponent():
    x, y = poly_ring(("x", "y"), QQ)
    assert parse_poly("x*y + y", ("x", "y")) == x * y + y


def test_fractional_coefficients():
    x, y = poly_ring(("x", "y"), QQ)
    assert parse_poly("3/2*x^3 - 1/3*y", ("x", "y")) == \
        x**3 * Fraction(3, 2) - y * Fraction(1, 3)


def test_dangling_operator_position():
    with pytest.raises(ParseError) as info:
        parse_poly("x + ", ("x",))
    assert info.value.line == 1
    assert info.value.col == 4
    assert "column 4" in str(info.value)


def test_undeclared_variable():
    with pytest.raises(ParseError, match="undeclared variable 'z'"):
        parse_poly("x + z", ("x", "y"))


def test_variable_declared_twice():
    # the name table would keep only the last position of x, so the
    # first declaration would be silently ignored
    for variables in (("x", "x", "y"), ("t", "t")):
        with pytest.raises(ValueError, match="declared twice"):
            parse_poly("x", variables)


def test_zero_denominator():
    with pytest.raises(ParseError, match="zero denominator"):
        parse_poly("1/0*x", ("x",))


def test_error_line_numbers_span_lines():
    with pytest.raises(ParseError) as info:
        parse_poly("x +\n y + $", ("x", "y"))
    assert info.value.line == 2


def test_file_round_trip(tmp_path):
    path = tmp_path / "form.txt"
    path.write_text("x^4 + 6*a*x^2*y^2 + y^4\n", encoding="utf-8")
    a, x, y = poly_ring(("a", "x", "y"), QQ)
    assert parse_poly_file(str(path), ("a", "x", "y")) == \
        x**4 + a * x**2 * y**2 * 6 + y**4


@st.composite
def _polys(draw):
    names = ("x", "y", "z")
    gens = poly_ring(names, QQ)
    n_terms = draw(st.integers(0, 6))
    p = Poly.zero(names, QQ)
    for _ in range(n_terms):
        num = draw(st.integers(-30, 30))
        den = draw(st.integers(1, 9))
        mono = Poly.constant(Fraction(num, den), names, QQ)
        for g in gens:
            mono = mono * g ** draw(st.integers(0, 4))
        p = p + mono
    return p


@given(_polys())
def test_print_parse_round_trip(p):
    assert parse_poly(str(p), p.vars) == p
