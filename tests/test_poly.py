import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from comitant import poly as poly_module
from comitant.comitants import Form
from comitant.invariants import generic_form
from comitant.linalg import poly_det
from comitant.poly import (Poly, constant_ratio, divexact, poly_ring,
                           univariate_gcd)
from comitant.quartic import generic_salmon, salmon_contravariant
from comitant.scalars import (GF, QQ, Fp, RingMismatchError, as_scalar,
                              is_prime, ring_zero)


def _reduce(p, ring):
    """QQ -> GF(p) reduction: substitute the GF(p) generators."""
    return p.substitute(poly_ring(p.vars, ring))


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


@pytest.mark.parametrize("ring", [QQ, GF(7)])
def test_numpy_integer_operands_in_both_orders(ring):
    (t,) = poly_ring(("t",), ring)
    three, one = np.int64(3), np.int64(1)
    for got, want in ((t * three, 3 * t), (three * t, 3 * t),
                      (t + one, t + 1), (one + t, t + 1),
                      (t - one, t - 1), (one - t, 1 - t)):
        assert got == want
        assert all(type(c) is type(ring_zero(ring)) for c in got.terms.values())


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_float_operands_are_refused_in_both_orders(op):
    (t,) = poly_ring(("t",), QQ)
    for left, right in ((t, 0.5), (0.5, t)):
        with pytest.raises(TypeError, match="unsupported operand"):
            op(left, right)


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
    # nothing rides on the new variable
    assert q.coefficients_in((0,))[(0,)] == p
    r = p.extend_to(("y", "x"))
    assert r.vars == ("y", "x")
    # same polynomial, stored over permuted names
    assert r.extend_to(("x", "y")) == p
    assert r.evaluate([Fraction(3), Fraction(2)]) == p.evaluate(
        [Fraction(2), Fraction(3)])


def test_to_ring_reduction():
    x, y = poly_ring(("x", "y"), QQ)
    p = x * 7 + y * Fraction(1, 2)
    q = _reduce(p, GF(7))
    assert q == Poly.variable("y", ("x", "y"), GF(7)) * Fp(4, 7)


def test_divexact_success_and_failure():
    x, y = poly_ring(("x", "y"), QQ)
    assert divexact(x**2 - y**2, x - y) == x + y
    with pytest.raises(ValueError, match="inexact"):
        divexact(x**2 + y**2, x - y)
    with pytest.raises(ZeroDivisionError):
        divexact(x, Poly.zero(("x", "y"), QQ))


def test_zero_coefficients_are_dropped():
    zero = Poly(("x", "y"), {(0, 0): Fraction(0)})
    assert zero.is_zero() and not zero and zero == Poly.zero(("x", "y"))
    mixed = Poly(("x", "y"), {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert mixed.terms == {(0, 1): 2} and mixed.total_degree() == 1
    assert Poly(("x",), {(3,): Fp(7, 7)}, GF(7)).total_degree() == -1


def test_content_and_primitive():
    x, y = poly_ring(("x", "y"), QQ)
    p = x * 6 + y * 9
    assert p.primitive() == x * 2 + y * 3


def test_content_of_the_zero_polynomial_is_one():
    zero = Poly.zero(("x", "y"), QQ)
    assert zero.content() == 1 and zero.primitive() == zero
    x, y = poly_ring(("x", "y"), QQ)
    assert (x * Fraction(-6, 5) + y * Fraction(9, 10)).content() \
        == Fraction(3, 10)
    assert (x * Fraction(-6, 5)).primitive() == x


def test_constant_ratio():
    x, y = poly_ring(("x", "y"), QQ)
    zero = Poly.zero(("x", "y"), QQ)
    p = x**2 - 3 * x * y + Fraction(1, 2)
    assert constant_ratio(p, p * Fraction(-2, 3)) == Fraction(-2, 3)
    assert constant_ratio(p, p) == 1
    # a zero side has no ratio, not even 0
    assert constant_ratio(p, zero) is None
    assert constant_ratio(zero, p) is None
    assert constant_ratio(zero, zero) is None
    # different supports
    assert constant_ratio(p, x**2 - 3 * x * y) is None
    assert constant_ratio(p, p + y**2) is None
    # same support, coefficients not proportional
    assert constant_ratio(p, x**2 - 3 * x * y + 1) is None
    assert constant_ratio(x + y, x * 2 + y * 3) is None
    u, v = poly_ring(("x", "y"), GF(7))
    q = u * v + u**2 * 3
    assert constant_ratio(q, q * Fp(5, 7)) == Fp(5, 7)
    assert constant_ratio(q, u * v * 2 + u**2) is None
    with pytest.raises(RingMismatchError):
        constant_ratio(p, q)


def test_homogeneity_checks():
    x, y = poly_ring(("x", "y"), QQ)
    assert (x**3 + x * y**2).is_homogeneous()
    assert not (x**3 + y).is_homogeneous()
    assert Poly.zero(("x", "y"), QQ).is_homogeneous()


def test_univariate_gcd():
    x, y = poly_ring(("x", "y"), QQ)
    g = univariate_gcd((x - y) * (x + y), (x - y) * x)
    assert divexact(g, x - y).total_degree() == 0


def test_univariate_gcd_refuses_two_variables_out_of_homogeneity():
    # dehomogenizing at x reads each pair as having gcd x + y; the gcds
    # are x + y^2, x*y + 1 and x + 1
    x, y = poly_ring(("x", "y"), QQ)
    for f, g in [(x + y**2, x + y**2), (x * y + 1, x * y + 1),
                 ((x + 1) * (y + 2), (x + 1) * (y + 3))]:
        with pytest.raises(ValueError, match="homogeneous"):
            univariate_gcd(f, g)


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


# ---------------------------------------------------------------------------
# differential tests of substitute


def _substitute_reference(f, images):
    """Term-by-term substitution with Poly products, the algorithm the
    integer kernel of Poly.substitute replaced."""
    tvars, tring = images[0].vars, images[0].ring
    acc = Poly.zero(tvars, tring)
    for e, c in f.terms.items():
        if f.ring == QQ and tring != QQ:
            c = as_scalar(c.numerator, tring) / c.denominator
        term = Poly.constant(c, tvars, tring)
        for im, k in zip(images, e):
            if k:
                term = term * im**k
        acc = acc + term
    return acc


SOURCE = ("x0", "x1", "x2")
TARGET = ("u0", "u1", "u2")


def _coefficients(ring):
    if ring == QQ:
        # denominators 1..4 stay invertible mod the primes used below
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.builds(Fp, st.integers(0, ring[1] - 1), st.just(ring[1]))


def _polys(names, ring, max_exp=3, max_terms=5):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(names))
    return st.dictionaries(exps, _coefficients(ring), max_size=max_terms).map(
        lambda terms: Poly(names, terms, ring))


def _one_term_images(names, ring):
    """c * (a monomial in several target variables); over QQ c has a
    denominator 2..4, so the fold has a denominator to carry."""
    if ring == QQ:
        coefficient = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                                st.integers(2, 4))
    else:
        coefficient = st.builds(Fp, st.integers(1, ring[1] - 1),
                                st.just(ring[1]))
    exps = st.tuples(*[st.integers(0, 2)] * len(names))
    return st.builds(lambda e, c: Poly(names, {e: c}, ring), exps,
                     coefficient)


def _images(names, ring):
    """Multi-term, one-term, constant and zero images, mixed."""
    return st.one_of(
        _polys(names, ring, max_exp=2, max_terms=3),
        _one_term_images(names, ring),
        _coefficients(ring).map(lambda c: Poly.constant(c, names, ring)),
        st.just(Poly.zero(names, ring)))


@st.composite
def _substitutions(draw, source_ring, target_ring):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    f = draw(_polys(SOURCE[:n], source_ring))
    image = _images(TARGET[:m], target_ring)
    images = [draw(image) for _ in range(n)]
    return f, images


WIDE_SOURCE = tuple(f"x{i}" for i in range(16))


@st.composite
def _wide_substitutions(draw, source_ring, target_ring):
    """16 source variables, each term in at most three of them, as in a
    generic formula specialised at a form's coefficients."""
    m = draw(st.integers(1, 3))
    exps = st.dictionaries(st.integers(0, len(WIDE_SOURCE) - 1),
                           st.integers(1, 3), max_size=3).map(
        lambda d: tuple(d.get(i, 0) for i in range(len(WIDE_SOURCE))))
    terms = draw(st.dictionaries(exps, _coefficients(source_ring),
                                 max_size=6))
    f = Poly(WIDE_SOURCE, terms, source_ring)
    image = _images(TARGET[:m], target_ring)
    return f, [draw(image) for _ in WIDE_SOURCE]


@settings(max_examples=80, deadline=None)
@given(_substitutions(QQ, QQ))
def test_substitute_matches_reference_over_qq(case):
    f, images = case
    assert f.substitute(images) == _substitute_reference(f, images)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 7, 101]).flatmap(
    lambda p: _substitutions(GF(p), GF(p))))
def test_substitute_matches_reference_over_gfp(case):
    f, images = case
    assert f.substitute(images) == _substitute_reference(f, images)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([7, 11, 101]).flatmap(
    lambda p: _substitutions(QQ, GF(p))))
def test_substitute_migrates_qq_to_gfp(case):
    f, images = case
    got = f.substitute(images)
    assert got.ring == images[0].ring
    assert got == _substitute_reference(f, images)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(QQ, QQ), (GF(7), GF(7)), (QQ, GF(101))]).flatmap(
    lambda rings: _wide_substitutions(*rings)))
def test_substitute_matches_reference_on_many_variables(case):
    f, images = case
    got = f.substitute(images)
    assert got.ring == images[0].ring
    assert got == _substitute_reference(f, images)


def _count_products(monkeypatch):
    """Count the polynomial products the substitution kernel makes."""
    calls = []
    real = poly_module._packed_mul

    def counting(a, b, p):
        calls.append(1)
        return real(a, b, p)

    monkeypatch.setattr(poly_module, "_packed_mul", counting)
    return calls


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([QQ, GF(7)]).flatmap(lambda ring: st.tuples(
    _polys(SOURCE, ring, max_exp=4),
    st.lists(st.one_of(_one_term_images(TARGET, ring),
                       st.just(Poly.zero(TARGET, ring))),
             min_size=3, max_size=3))))
def test_one_term_images_make_no_products(case):
    f, images = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _count_products(monkeypatch)
        got = f.substitute(images)
    assert not calls
    assert got == _substitute_reference(f, images)


def test_salmon_specialisation_makes_no_products(monkeypatch):
    generic_salmon()  # built (with products) once, outside the count
    rng = random.Random(13)
    X, Y, Z = poly_ring(("X", "Y", "Z"), QQ)
    F = sum((X**a * Y**b * Z**(4 - a - b)
             * Fraction(rng.randint(-9, 9), rng.randint(1, 3))
             for a in range(5) for b in range(5 - a)), Poly.zero(
                 ("X", "Y", "Z"), QQ))
    calls = _count_products(monkeypatch)
    salmon_contravariant(Form(F, 4))
    assert not calls
    # two-term images do go through the product tree
    u0, u1 = poly_ring(TARGET[:2], QQ)
    (X**2 * Y).substitute([u0 + u1, u0 - u1, u1])
    assert calls


def _evaluate_reference(f, values):
    """Term-by-term evaluation with scalar powers, the loop Poly.evaluate
    ran before it went through the integer kernel of substitute."""
    values = [as_scalar(v, f.ring) for v in values]
    acc = ring_zero(f.ring)
    for e, c in f.terms.items():
        t = c
        for v, k in zip(values, e):
            if k:
                t = t * v ** k
        acc = acc + t
    return acc


@st.composite
def _evaluations(draw):
    ring = draw(st.sampled_from([QQ, GF(2), GF(7), GF(101)]))
    n = draw(st.integers(0, 3))
    # often the zero polynomial or a constant, often zero coordinates
    f = draw(st.one_of(
        st.just(Poly.zero(SOURCE[:n], ring)),
        _coefficients(ring).map(lambda c: Poly.constant(c, SOURCE[:n], ring)),
        _polys(SOURCE[:n], ring, max_exp=4)))
    value = st.one_of(st.just(ring_zero(ring)), _coefficients(ring))
    return f, [draw(value) for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(_evaluations())
def test_evaluate_matches_reference(case):
    f, values = case
    got = f.evaluate(values)
    want = _evaluate_reference(f, values)
    assert got == want and type(got) is type(as_scalar(want, f.ring))


def _mixed_coefficients():
    """QQ coefficients as they circulate: ints and reduced Fractions."""
    return st.one_of(st.integers(-6, 6),
                     st.builds(Fraction, st.integers(-6, 6),
                               st.integers(1, 4)).map(
                                   lambda c: as_scalar(c, QQ)))


def _mixed_polys(names):
    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    return st.dictionaries(exps, _mixed_coefficients(), max_size=4).map(
        lambda terms: Poly(names, terms, QQ))


def _exact(value) -> bool:
    """An int, or a Fraction of ints: no float, no numpy scalar."""
    return (type(value) in (int, Fraction) and type(value.numerator) is int
            and type(value.denominator) is int)


def _partial_reference(f, values, i):
    """The value of d f / d x_i, differentiated term by term."""
    acc = Fraction(0)
    for e, c in f.terms.items():
        if e[i]:
            t = Fraction(c) * e[i]
            for j, (v, k) in enumerate(zip(values, e)):
                t *= Fraction(v) ** (k - (j == i))
            acc += t
    return acc


@settings(max_examples=100, deadline=None)
@given(_mixed_polys(SOURCE[:2]), _mixed_polys(SOURCE[:2]),
       _mixed_polys(SOURCE[:2]),
       st.lists(_mixed_coefficients(), min_size=2, max_size=2),
       _mixed_coefficients().filter(bool))
def test_mixed_int_fraction_coefficients_stay_exact(f, g, h, point, c):
    # every operation on int/Fraction coefficients gives exact coefficients
    # and values, equal to the term-by-term Fraction oracle at the point
    def value(p):
        return _evaluate_reference(p, point)

    results = [
        (f + g, value(f) + value(g)),
        (f * g, value(f) * value(g)),
        (f.partial(0), _partial_reference(f, point, 0)),
        (f.substitute([g, h]),
         _evaluate_reference(f, [value(g), value(h)])),
        (f.scale_div(c), Fraction(value(f)) / c),
        (poly_det([[f, g], [h, f]]), value(f) ** 2 - value(g) * value(h)),
    ]
    if g:
        results.append((divexact(f * g, g), value(f)))
    for p, want in results:
        assert all(map(_exact, p.terms.values()))
        got = p.evaluate(point)
        assert _exact(got) and type(got) is type(as_scalar(got, QQ))
        assert got == want
    det = poly_det([[c, point[0]], [point[1], c]])
    assert type(det) is type(as_scalar(det, QQ))
    assert det == Fraction(c) ** 2 - Fraction(point[0]) * point[1]


def test_evaluate_edge_cases():
    x, y = poly_ring(("x", "y"), QQ)
    f = x**2 * 3 + y + 5
    # 0^0 = 1: the constant survives a zero point, x^2 and y do not
    assert f.evaluate([0, 0]) == 5
    assert f.evaluate([Fraction(1, 2), 0]) == Fraction(23, 4)
    assert Poly.zero(("x", "y"), QQ).evaluate([1, 2]) == 0
    assert Poly.constant(Fraction(7, 3), (), QQ).evaluate([]) \
        == Fraction(7, 3)
    assert Poly.constant(4, (), GF(5)).evaluate([]) == Fp(4, 5)
    # a QQ polynomial at GF(p) values reduces mod p, as under substitute
    g = x * Fraction(1, 2) + y**3
    assert g.evaluate([Fp(3, 7), Fp(2, 7)]) \
        == _reduce(g, GF(7)).evaluate([3, 2]) == Fp(6, 7)
    with pytest.raises(ValueError, match="value count"):
        f.evaluate([1])
    with pytest.raises(RingMismatchError):
        _reduce(g, GF(7)).evaluate([Fp(1, 5), 1])


def test_substitute_cancels_to_zero():
    x0, x1, x2 = poly_ring(SOURCE, QQ)
    u0, u1, u2 = poly_ring(TARGET, QQ)
    f = x0**2 * x1 * Fraction(1, 3) - x1**2 * x0 * Fraction(1, 3) + x2
    got = f.substitute([u0 + u1, u0 + u1, Poly.zero(TARGET, QQ)])
    assert got.is_zero() and got.vars == TARGET
    # a surviving term next to cancelling ones keeps its exact coefficient
    got = (f + Fraction(2, 7)).substitute([u1 * Fraction(1, 2)] * 2 + [u2])
    assert got == u2 + Fraction(2, 7)


def test_substitute_reaches_the_packing_radix():
    # images of degree 2 and 3 into a cubic: the radix is 1 + 3 * 3 = 10,
    # and x1^3 -> (u2^3 + u0*u1)^3 carries u2^9, the largest digit the
    # packing allows, in the last (least significant) position, next to
    # mixed terms and to the folded one-term image u2^2
    x0, x1 = poly_ring(SOURCE[:2], QQ)
    u0, u1, u2 = poly_ring(TARGET, QQ)
    f = x0**2 * x1 + x1**3 * Fraction(1, 2)
    images = [u2**2, u2**3 + u0 * u1]
    got = f.substitute(images)
    assert got == (u2**7 + u0 * u1 * u2**4
                   + (u2**3 + u0 * u1)**3 * Fraction(1, 2))
    assert max(e[2] for e in got.terms) == 9
    assert got == _substitute_reference(f, images)
    # over GF(p) the same digits, with residues
    g = _reduce(f, GF(5))
    images5 = [_reduce(im, GF(5)) for im in images]
    assert g.substitute(images5) == _substitute_reference(g, images5)


def _to_sympy(sympy, poly, syms):
    return sympy.Add(*[
        (sympy.Integer(c.val) if isinstance(c, Fp)
         else sympy.Rational(c.numerator, c.denominator))
        * sympy.Mul(*[s**k for s, k in zip(syms, e)])
        for e, c in poly.terms.items()])


def _from_sympy(sympy, expr, syms):
    got = sympy.Poly(sympy.expand(expr), *syms, domain="QQ").as_dict()
    return {e: Fraction(int(c.p), int(c.q)) for e, c in got.items() if c}


def test_substitute_matches_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=40, deadline=None)
    @given(_substitutions(QQ, QQ))
    def check(case):
        f, images = case
        src = sympy.symbols(f.vars)
        tgt = sympy.symbols(images[0].vars)
        expr = _to_sympy(sympy, f, src).xreplace(
            {s: _to_sympy(sympy, im, tgt) for s, im in zip(src, images)})
        assert f.substitute(images).terms == _from_sympy(sympy, expr, tgt)

    check()


def _poly_pairs(max_exp=3):
    names = st.integers(1, 3).map(lambda n: SOURCE[:n])
    return names.flatmap(lambda vs: st.tuples(_polys(vs, QQ, max_exp),
                                              _polys(vs, QQ, max_exp)))


def test_mul_matches_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=60, deadline=None)
    @given(_poly_pairs())
    def check(pair):
        f, g = pair
        syms = sympy.symbols(f.vars)
        want = _from_sympy(
            sympy, _to_sympy(sympy, f, syms) * _to_sympy(sympy, g, syms), syms)
        assert (f * g).terms == want

    check()


@st.composite
def _gcd_cases(draw):
    # f = a*c and g = b*c share the factor c; binary forms are homogeneous
    # in their two active variables, and the idle variable "a" sits before
    # or between the active ones
    vars = draw(st.sampled_from([("x",), ("x", "y"), ("a", "x"),
                                 ("x", "a", "y")]))
    ring = draw(st.sampled_from([QQ, GF(5), GF(7), GF(101)]))
    active = [i for i, v in enumerate(vars) if v != "a"]
    # over QQ, sometimes integers past the moduli of the modular gcd, so
    # images are joined by CRT
    coefficient = (st.integers(-2**80, 2**80)
                   if ring == QQ and draw(st.booleans())
                   else _coefficients(ring))

    def form(deg):
        cs = draw(st.lists(coefficient, min_size=deg + 1, max_size=deg + 1))
        exps = []
        for i in range(deg + 1):
            e = [0] * len(vars)
            e[active[0]], e[active[-1]] = deg - i, i    # one active: e = i
            exps.append(tuple(e))
        return Poly(vars, dict(zip(exps, cs)), ring)

    a, b, c = (form(draw(st.integers(0, 3))) for _ in range(3))
    return a * c, b * c


def test_univariate_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=120, deadline=None)
    @given(_gcd_cases())
    def check(pair):
        f, g = pair
        if f.is_zero() and g.is_zero():
            with pytest.raises(ValueError, match="undefined"):
                univariate_gcd(f, g)
            return
        syms = sympy.symbols(f.vars)
        fs, gs = _to_sympy(sympy, f, syms), _to_sympy(sympy, g, syms)
        if f.ring == QQ:
            # primitive: integer coefficients, content 1, positive lead
            want = Poly(f.vars, _from_sympy(sympy, sympy.gcd(fs, gs), syms)
                        ).primitive()
        else:
            p = f.ring[1]
            monic = sympy.Poly(sympy.gcd(fs, gs, modulus=p), *syms,
                               modulus=p).monic()
            want = Poly(f.vars, {e: Fp(int(c), p)
                                 for e, c in monic.as_dict().items()}, f.ring)
        assert univariate_gcd(f, g) == want

    check()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([GF(2), GF(7), GF(101)]).flatmap(
    lambda ring: st.tuples(_polys(SOURCE, ring), _polys(SOURCE, ring))))
def test_divexact_over_gfp_divides_products_back(pair):
    f, g = pair
    if g.is_zero():
        return
    assert divexact(f * g, g) == f
    if g.total_degree() > 0:
        with pytest.raises(ValueError, match="inexact"):
            divexact(f * g + 1, g)


def _moduli_used(monkeypatch):
    """The moduli of every `_euclid_mod` call, in order."""
    used = []
    euclid_mod = poly_module._euclid_mod

    def spy(u, v, q):
        used.append(q)
        return euclid_mod(u, v, q)

    monkeypatch.setattr(poly_module, "_euclid_mod", spy)
    return used


def test_gcd_moduli_are_the_largest_primes_below_2_62():
    moduli = poly_module._MODULI
    assert list(moduli) == sorted(moduli, reverse=True)
    assert all(map(is_prime, moduli))
    assert not any(is_prime(q) for q in range(moduli[-1] + 1, 2**62)
                   if q not in moduli)


def test_gcd_discards_an_unlucky_prime(monkeypatch):
    # mod q0, x + q0 is x: that image has degree 1, the next degree 0
    used = _moduli_used(monkeypatch)
    x, = poly_ring(("x",), QQ)
    q0 = poly_module._MODULI[0]
    assert univariate_gcd(x + q0, x) == Poly.constant(1, ("x",), QQ)
    assert used == list(poly_module._MODULI[:2])


@pytest.mark.parametrize("sign", [1, -1])
def test_gcd_joins_images_by_crt(monkeypatch, sign):
    # 2^70 is past q0 / 2: one image lifts to a wrong candidate, which
    # fails the division, and two images join to the gcd
    used = _moduli_used(monkeypatch)
    x, y = poly_ring(("x", "y"), QQ)
    g = x + 2**70 * y
    assert univariate_gcd(g * (x + sign * y), g * (x - 3 * y)) == g
    assert used == list(poly_module._MODULI[:2])


def test_gcd_skips_a_modulus_dividing_a_leading_coefficient(monkeypatch):
    used = _moduli_used(monkeypatch)
    x, = poly_ring(("x",), QQ)
    q0 = poly_module._MODULI[0]
    f = (q0 * x + 1) * (2 * x + 3)
    assert univariate_gcd(f, (2 * x + 3) * (x - 5)) == 2 * x + 3
    assert used[0] == poly_module._MODULI[1]
    # over QQ the gcd is proved by division: x + 3 divides both
    assert univariate_gcd(f * Fraction(1, 6), (x - 5) * 4) \
        == Poly.constant(1, ("x",), QQ)


def test_divexact_builds_only_the_quotient(monkeypatch):
    x, y, z, w = poly_ring(("x", "y", "z", "w"), QQ)
    q = (x + 2 * y - z + 3 * w + 1) ** 4
    d = (x - y + Fraction(1, 2) * z - w + 3) ** 3
    product = q * d
    assert len(product.terms) > 300
    built = []
    init = Poly.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Poly, "__init__", counting)
    quotient = divexact(product, d)
    assert len(built) == 1
    assert quotient == q


@st.composite
def _poly_matrices(draw):
    n = draw(st.integers(1, 4))
    entry = _polys(SOURCE[:2], QQ, max_exp=2, max_terms=3)
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


def test_poly_det_matches_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=40, deadline=None)
    @given(_poly_matrices())
    def check(rows):
        syms = sympy.symbols(rows[0][0].vars)
        m = sympy.Matrix([[_to_sympy(sympy, e, syms) for e in row]
                          for row in rows])
        want = _from_sympy(sympy, m.det(method="berkowitz"), syms)
        assert poly_det(rows).terms == want

    check()


def test_divexact_matches_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=60, deadline=None)
    @given(_poly_pairs(max_exp=2))
    def check(pair):
        f, g = pair
        if g.is_zero():
            return
        syms = sympy.symbols(f.vars)
        F, G = _to_sympy(sympy, f, syms), _to_sympy(sympy, g, syms)
        # a product sympy formed divides back to f
        product = Poly(f.vars, _from_sympy(sympy, F * G, syms))
        assert divexact(product, g) == f
        # and f itself divides exactly when sympy leaves no remainder
        q, r = sympy.div(sympy.Poly(F, *syms, domain="QQ"),
                         sympy.Poly(G, *syms, domain="QQ"))
        if r.is_zero:
            assert divexact(f, g).terms == _from_sympy(sympy, q.as_expr(),
                                                       syms)
        else:
            with pytest.raises(ValueError, match="inexact"):
                divexact(f, g)

    check()
