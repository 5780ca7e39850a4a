from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from comitant.associated import (
    AssociatedFormError,
    associated_form,
    associated_selfmap_degree,
    associated_slice_map,
    congruence_holds,
)
from comitant.comitants import Form, hessian
from comitant.linalg import Matrix
from comitant.maps import RationalMapP1
from comitant.poly import Poly, poly_ring
from comitant.scalars import QQ


def test_associated_form_of_fermat_quartic():
    x, y = poly_ring(("x", "y"), QQ)
    u, v = poly_ring(("u", "v"), QQ)
    res = associated_form(Form(x**4 + y**4, 4))
    assert res.form == u**2 * v**2
    assert res.scale == 24
    assert res.space == (2, 4)


def test_associated_form_of_fermat_cubic():
    X, Y, Z = poly_ring(("X", "Y", "Z"), QQ)
    u, v, w = poly_ring(("u", "v", "w"), QQ)
    res = associated_form(Form(X**3 + Y**3 + Z**3, 3))
    assert res.form == u * v * w
    assert res.scale == 36


def test_associated_form_nontrivial_binary():
    x, y = poly_ring(("x", "y"), QQ)
    u, v = poly_ring(("u", "v"), QQ)
    res = associated_form(Form(x**4 + x * y**3, 4))
    assert res.form == u**3 * v - v**4
    assert res.scale == 27


def test_congruence_at_concrete_lines():
    x, y = poly_ring(("x", "y"), QQ)
    form = Form(x**4 + x * y**3, 4)
    res = associated_form(form)
    for ell in ((1, 0), (0, 1), (1, 1), (2, -3), (Fraction(1, 2), 5)):
        assert congruence_holds(res, form, ell)


def test_congruence_ternary():
    X, Y, Z = poly_ring(("X", "Y", "Z"), QQ)
    form = Form(X**3 + Y**3 + Z**3, 3)
    res = associated_form(form)
    for ell in ((1, 0, 0), (1, 1, 1), (2, -1, 3)):
        assert congruence_holds(res, form, ell)


def test_congruence_detects_wrong_form():
    x, y = poly_ring(("x", "y"), QQ)
    u, v = poly_ring(("u", "v"), QQ)
    form = Form(x**4 + x * y**3, 4)
    res = associated_form(form)
    # tamper with the answer; the membership determinant must notice
    bad = type(res)((2, 4), res.form + u**4, res.scale)
    assert not congruence_holds(bad, form, (1, 1))


def test_associated_form_follows_the_declared_variable_order():
    # with indices (1, 0) the first form variable is y, so ell = u*y + v*x
    # and as(f) comes out with u and v swapped
    x, y = poly_ring(("x", "y"), QQ)
    f = x**4 + 2 * x**3 * y - x * y**3 + 3 * y**4
    form, swapped = Form(f, 4), Form(f, 4, (1, 0))
    res, res_swapped = associated_form(form), associated_form(swapped)
    assert res_swapped.form == res.form.substitute(
        list(reversed(poly_ring(("u", "v"), QQ))))
    assert res_swapped.form != res.form
    assert res_swapped.scale == res.scale
    for ell in ((1, 0), (1, 1), (2, -3), (Fraction(1, 2), 5)):
        assert congruence_holds(res_swapped, swapped, ell)
        assert congruence_holds(res, form, ell[::-1])
    # the unswapped as(f) does not satisfy the swapped congruence
    assert not congruence_holds(res, swapped, (2, -3))


def test_congruence_rejects_long_ell():
    x, y = poly_ring(("x", "y"), QQ)
    form = Form(x**4 + y**4, 4)
    with pytest.raises(AssociatedFormError, match="ell needs 2"):
        congruence_holds(associated_form(form), form, (1, 2, 3))


def test_congruence_rejects_short_ell():
    x, y = poly_ring(("x", "y"), QQ)
    form = Form(x**4 + y**4, 4)
    with pytest.raises(AssociatedFormError, match="ell needs 2"):
        congruence_holds(associated_form(form), form, (1,))


def test_congruence_rejects_a_result_of_another_space():
    x, y = poly_ring(("x", "y"), QQ)
    X, Y, Z = poly_ring(("X", "Y", "Z"), QQ)
    binary = associated_form(Form(x**4 + y**4, 4))
    with pytest.raises(AssociatedFormError, match="space"):
        congruence_holds(binary, Form(X**3 + Y**3 + Z**3, 3), (1, 1, 1))


def test_congruence_rejects_a_degenerate_form():
    # J(x^4)_4 has codimension 2, where det([lhs | J]) = 0 says nothing
    x, y = poly_ring(("x", "y"), QQ)
    res = associated_form(Form(x**4 + y**4, 4))
    with pytest.raises(AssociatedFormError, match="degenerate"):
        congruence_holds(res, Form(x**4, 4), (1, 1))


def test_degenerate_forms_rejected():
    x, y = poly_ring(("x", "y"), QQ)
    with pytest.raises(AssociatedFormError, match="degenerate"):
        associated_form(Form(x**4, 4))  # J(f) too small
    with pytest.raises(AssociatedFormError, match="degenerate"):
        associated_form(Form(x**2 * y**2, 4))


def test_wrong_degree_rejected():
    x, y = poly_ring(("x", "y"), QQ)
    with pytest.raises(AssociatedFormError, match="degree must be 4"):
        associated_form(Form(x**3 + y**3, 3))
    with pytest.raises(AssociatedFormError, match="binary quartic"):
        associated_form("x^4")


def test_parameterized_form_rejected():
    a, x, y = poly_ring(("a", "x", "y"), QQ)
    f = Form(x**4 + a * x**2 * y**2 + y**4, 4, (1, 2))
    with pytest.raises(AssociatedFormError, match="parameter-free"):
        associated_form(f)


def test_slice_map_closed_form():
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    m = associated_slice_map()
    assert m == RationalMapP1(3 * t1, -t0)
    assert m.degree == 1


def test_selfmap_degree_is_one():
    assert associated_selfmap_degree() == 1


# -- an oracle by Gauss-Jordan rank, apart from the socle determinant ------

def _monomials(n, N):
    return [e for e in product(range(N + 1), repeat=n) if sum(e) == N]


def _jacobian_columns(form):
    """N = n(d-2), the degree-N monomials and the coefficient vectors of
    the m * df/dx_i that span J(f)_N, built apart from the package."""
    f, d = form.poly, form.degree
    n = len(f.vars)
    N = n * (d - 2)
    monomials = _monomials(n, N)
    jac = [Poly.monomial(1, m, f.vars, QQ) * f.partial(i)
           for m in _monomials(n, N - (d - 1)) for i in range(n)]
    return N, monomials, [[p.terms.get(e, 0) for e in monomials] for p in jac]


@st.composite
def _forms_and_lines(draw):
    n = draw(st.sampled_from([2, 3]))
    d = 4 if n == 2 else 3
    monomials = _monomials(n, d)
    coeffs = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, -3]),
                           min_size=len(monomials), max_size=len(monomials)))
    f = Poly(("x", "y") if n == 2 else ("X", "Y", "Z"),
             {e: Fraction(c) for e, c in zip(monomials, coeffs) if c}, QQ)
    ells = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                         min_size=1, max_size=3))
    return Form(f, d), ells


_x, _y = poly_ring(("x", "y"), QQ)


@settings(max_examples=60, deadline=None)
@given(_forms_and_lines())
@example((Form(_x**4, 4), [(1, 1)]))
@example((Form(_x**2 * _y**2, 4), [(1, 2)]))
@example((Form(_x**4 + _x * _y**3, 4), [(1, 0), (2, -3)]))
def test_associated_form_satisfies_the_congruence_by_rank(case):
    form, ells = case
    f = form.poly
    he = hessian(f)
    N, monomials, jcols = _jacobian_columns(form)

    def rank(*extra):
        return Matrix(jcols + [[p.terms.get(e, 0) for e in monomials]
                               for p in extra], QQ).rank()

    try:
        res = associated_form(form)
    except AssociatedFormError:
        # degenerate: J(f)_N and He(f) do not span the degree-N forms
        assert rank(he) < len(monomials)
        return
    assert rank() == len(monomials) - 1
    gens = poly_ring(f.vars, QQ)
    for ell in ells:
        line = sum((g * c for g, c in zip(gens, ell)), Poly.zero(f.vars, QQ))
        lhs = line**N * res.scale - he * res.form.evaluate(list(ell))
        assert rank(lhs) == len(monomials) - 1
