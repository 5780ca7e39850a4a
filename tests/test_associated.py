from fractions import Fraction

import pytest

from comitant.associated import (
    AssociatedFormError,
    associated_form,
    associated_selfmap_degree,
    associated_slice_map,
    congruence_holds,
)
from comitant.comitants import Form
from comitant.maps import RationalMapP1
from comitant.poly import poly_ring
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
    # tamper with the answer; the independent membership solve must notice
    bad = type(res)((2, 4), res.form + u**4, res.scale)
    assert not congruence_holds(bad, form, (1, 1))


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
