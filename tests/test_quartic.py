import random

import pytest

from comitant.comitants import Form, FormError
from comitant.invariants import (generic_form, random_substitution,
                                 substituted_form)
from comitant.linalg import LinearSubstitution, Matrix
from comitant.poly import Poly, poly_ring
from comitant.quartic import (
    QuarticError,
    clebsch_covariant,
    clebsch_pencil,
    contragredient,
    salmon_contravariant,
)
from comitant.scalars import QQ


def fermat():
    X, Y, Z = poly_ring(("X", "Y", "Z"), QQ)
    return Form(X**4 + Y**4 + Z**4, 4)


def perturbed():
    X, Y, Z = poly_ring(("X", "Y", "Z"), QQ)
    return Form(X**4 + Y**4 + Z**4 + 6 * X**2 * Y * Z, 4)


# ---------------------------------------------------------------- covariant

def test_clebsch_vanishes_on_fermat():
    assert clebsch_covariant(fermat()).poly.is_zero()


def test_clebsch_on_perturbed_fermat():
    X, Y, Z = poly_ring(("X", "Y", "Z"), QQ)
    cov = clebsch_covariant(perturbed())
    assert cov.poly == -16 * X**4 + 128 * X**2 * Y * Z - 64 * Y**2 * Z**2
    assert cov.degree == 4


def test_clebsch_rejects_non_quartic():
    X, Y, Z = poly_ring(("X", "Y", "Z"), QQ)
    with pytest.raises(QuarticError, match="ternary quartic"):
        clebsch_covariant(Form(X**3 + Y**3 + Z**3, 3))


def test_clebsch_covariance_spot_check():
    rng = random.Random(5)
    F = perturbed()
    g = random_substitution(3, rng)
    while abs(g.matrix.det()) == 1:
        g = random_substitution(3, rng)
    moved = clebsch_covariant(substituted_form(F, g))
    target = substituted_form(clebsch_covariant(F), g)
    # degree 4, order 4: weight (4*4 - 4)/3 = 4
    det = g.matrix.det()
    ratio = None
    for w in range(0, 20):
        if target.poly * det**w == moved.poly:
            ratio = w
            break
    assert ratio == 4


def test_clebsch_pencil_shape():
    F = perturbed()
    cov = clebsch_covariant(F)
    member = clebsch_pencil(F, 3, 2)
    assert member.degree == 4
    # c2 = 0 gives a multiple of the covariant, c = 0 one of F itself
    assert clebsch_pencil(F, 1, 0).poly == cov.poly
    only_f = clebsch_pencil(F, 0, 1)
    from comitant.poly import divexact
    ratio = divexact(only_f.poly, F.poly.extend_to(only_f.poly.vars))
    assert ratio.total_degree() == 0


# ------------------------------------------------------------- contravariant

def test_salmon_on_fermat():
    u, v, w = poly_ring(("u", "v", "w"), QQ)
    om = salmon_contravariant(fermat())
    assert om.poly == u**4 + v**4 + w**4
    assert om.degree == 4
    assert om.poly.evaluate([0, 0, 1]) == 1


def test_salmon_vanishes_on_pure_power():
    X, Y, Z = poly_ring(("X", "Y", "Z"), QQ)
    om = salmon_contravariant(Form(X**4, 4))
    assert om.poly.is_zero()


def test_salmon_on_generic_quartic():
    gen = generic_form(3, 4)
    k = len(gen.vars) - 3
    F = Form(gen, 4, (k, k + 1, k + 2))
    om = salmon_contravariant(F)
    assert len(om.poly.terms) == 63
    # quadratic in the quartic's coefficients, quartic in the line
    assert om.poly.degree_in(tuple(range(k))) == 2
    assert om.poly.degree_in(om.indices) == 4


def test_salmon_contragredience_spot_check():
    rng = random.Random(11)
    F = perturbed()
    g = random_substitution(3, rng)
    while abs(g.matrix.det()) == 1:
        g = random_substitution(3, rng)
    moved = salmon_contravariant(substituted_form(F, g)).poly
    gdual = contragredient(g)
    target = gdual.apply(salmon_contravariant(F).poly, (0, 1, 2))
    det = g.matrix.det()
    weight = next(w for w in range(20) if target * det**w == moved)
    assert weight == 4


def test_salmon_rejects_non_quartic():
    X, Y, Z = poly_ring(("X", "Y", "Z"), QQ)
    with pytest.raises(QuarticError, match="ternary quartic"):
        salmon_contravariant(Form(X**2 + Y * Z, 2))


# ----------------------------------------------------------------- plumbing

def test_dual_form_validation():
    u, v, w = poly_ring(("u", "v", "w"), QQ)
    with pytest.raises(FormError, match="not homogeneous"):
        Form(u**2 + v, 2)
    with pytest.raises(FormError, match="declared degree"):
        Form(u**2, 3)
    f = Form(u * v - w**2, 2)
    assert f.poly.evaluate([1, 1, 1]) == 0
    assert f == Form(u * v - w**2, 2)


def test_contragredient_is_inverse_transpose():
    from fractions import Fraction
    m = Matrix([[Fraction(1), Fraction(2), Fraction(0)],
                [Fraction(0), Fraction(1), Fraction(0)],
                [Fraction(1), Fraction(0), Fraction(3)]], QQ)
    g = LinearSubstitution(m)
    gd = contragredient(g)
    prod = m.transpose() * gd.matrix
    assert prod.entries == Matrix.identity(3, QQ).entries
