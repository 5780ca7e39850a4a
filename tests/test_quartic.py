import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

import gauss_jordan
from comitant import quartic
from comitant.comitants import Form, FormError
from comitant.invariants import (GenericComitant, generic_form,
                                 random_substitution, substituted_form)
from comitant.linalg import LinearSubstitution
from comitant.poly import Poly, poly_ring
from comitant.quartic import (
    QuarticError,
    _omega_in_chart,
    clebsch_covariant,
    contragredient,
    generic_salmon,
    salmon_contravariant,
)
from comitant.scalars import GF, QQ
from comitant.verify import PASS, run_verifications


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
    while abs(g.det) == 1:
        g = random_substitution(3, rng)
    moved = clebsch_covariant(substituted_form(F, g))
    target = substituted_form(clebsch_covariant(F), g)
    # degree 4, order 4: weight (4*4 - 4)/3 = 4
    det = g.det
    ratio = None
    for w in range(0, 20):
        if target.poly * det**w == moved.poly:
            ratio = w
            break
    assert ratio == 4


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
    while abs(g.det) == 1:
        g = random_substitution(3, rng)
    moved = salmon_contravariant(substituted_form(F, g)).poly
    gdual = contragredient(g)
    target = gdual.apply(salmon_contravariant(F).poly, (0, 1, 2))
    det = g.det
    weight = next(w for w in range(20) if target * det**w == moved)
    assert weight == 4


def test_salmon_rejects_non_quartic():
    X, Y, Z = poly_ring(("X", "Y", "Z"), QQ)
    with pytest.raises(QuarticError, match="ternary quartic"):
        salmon_contravariant(Form(X**2 + Y * Z, 2))


def test_salmon_refuses_a_dual_variable_in_the_form_ring():
    for name in ("u", "v", "w"):
        s, X, Y, Z = poly_ring((name, "X", "Y", "Z"), QQ)
        F = Form(X**4 + s * Y**4 + Z**4, 4, (1, 2, 3))
        with pytest.raises(FormError, match="collides"):
            salmon_contravariant(F)


def _quartic_terms(coeffs):
    exps = [tuple(combo.count(i) for i in range(3))
            for combo in combinations_with_replacement(range(3), 4)]
    return dict(zip(exps, coeffs))


def _assert_matches_every_chart(F):
    om = salmon_contravariant(F)
    for chart in (0, 1, 2):
        assert om.poly == _omega_in_chart(F, chart)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=15, max_size=15))
def test_salmon_matches_the_per_chart_reference(coeffs):
    terms = {e: Fraction(c) for e, c in _quartic_terms(coeffs).items()}
    _assert_matches_every_chart(Form(Poly(("X", "Y", "Z"), terms, QQ), 4))


def test_salmon_matches_the_per_chart_reference_with_parameters():
    s, t, X, Y, Z = poly_ring(("s", "t", "X", "Y", "Z"), QQ)
    F = Form(s * X**4 + t * Y**4 - Z**4 + (s + 2 * t) * X * Y * Z**2
             + s * t * X**3 * Z - 3 * Y**2 * Z**2, 4, (2, 3, 4))
    _assert_matches_every_chart(F)
    assert salmon_contravariant(F).poly.vars == ("s", "t", "u", "v", "w")


def test_salmon_matches_the_per_chart_reference_over_gf7():
    X, Y, Z = poly_ring(("X", "Y", "Z"), GF(7))
    F = Form(X**4 + 3 * Y**4 + Z**4 + 5 * X * Y * Z**2 + 2 * X**3 * Y, 4)
    _assert_matches_every_chart(F)
    assert salmon_contravariant(F).poly.ring == GF(7)


def test_salmon_builds_the_charts_once_per_process(monkeypatch):
    calls = []

    def counted(F, chart):
        calls.append(chart)
        return _omega_in_chart(F, chart)

    monkeypatch.setattr(quartic, "_omega_in_chart", counted)
    generic_salmon.cache_clear()
    try:
        report = run_verifications(only=["17-equivariance-salmon-dual",
                                         "23-salmon-chart-consistency",
                                         "24-salmon-fermat-values"])
    finally:
        generic_salmon.cache_clear()
    assert [e.status for e in report.entries] == [PASS] * 3
    # claim 17 specialises the generic Omega, claim 24 makes two Salmon
    # calls: one generic build
    assert sorted(calls) == [0, 1, 2]


def test_salmon_compiles_omega_once_per_build(monkeypatch):
    compiled = []

    def counted(*args):
        compiled.append(args)
        return GenericComitant(*args)

    monkeypatch.setattr(quartic, "GenericComitant", counted)
    generic_salmon.cache_clear()
    try:
        salmon_contravariant(fermat())
        salmon_contravariant(perturbed())
        assert len(compiled) == 1
        # clearing the generic Omega drops its compiled comitant too
        generic_salmon.cache_clear()
        assert salmon_contravariant(fermat()).poly == (
            salmon_contravariant(fermat()).poly)
    finally:
        generic_salmon.cache_clear()
    assert len(compiled) == 2


def test_claim_17_reuses_the_compiled_omega(monkeypatch):
    # counted at the class, so a compile anywhere shows, whatever binds it
    compiled = []
    init = GenericComitant.__init__

    def counted(self, formula, spaces):
        compiled.append(formula)
        init(self, formula, spaces)

    monkeypatch.setattr(GenericComitant, "__init__", counted)
    generic_salmon.cache_clear()
    try:
        for _ in range(2):
            report = run_verifications(only=["17-equivariance-salmon-dual"])
            assert [e.status for e in report.entries] == [PASS]
        assert compiled == [generic_salmon().poly]
    finally:
        generic_salmon.cache_clear()


def test_salmon_refuses_an_inexact_chart_division(monkeypatch):
    # each chart value has a term of degree 4 in the chart variable, so
    # its fifth power does not divide it
    monkeypatch.setattr(quartic, "CHART_DIVISOR_POWER", 5)
    generic_salmon.cache_clear()
    try:
        with pytest.raises(QuarticError, match="not exact"):
            generic_salmon()
    finally:
        generic_salmon.cache_clear()


# ------------------------------------------------------ small characteristics

def _quartic_mod(p):
    """X^4 + Y^4 + Z^4 + XYZ^2 + 2X^3Y over QQ (p = None) or GF(p)."""
    X, Y, Z = poly_ring(("X", "Y", "Z"), QQ if p is None else GF(p))
    return Form(X**4 + Y**4 + Z**4 + X * Y * Z**2 + 2 * X**3 * Y, 4)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("comitant",
                         [salmon_contravariant, clebsch_covariant])
def test_small_characteristic_is_refused_up_front(comitant, p):
    # the generic Omega has denominators 2, 3, 4, 6, 12 and the cubic
    # invariant S behind the covariant has 6 and 9
    with pytest.raises(QuarticError, match=f"{comitant.__name__} is "
                       f"undefined in characteristic {p}: {p} divides"):
        comitant(_quartic_mod(p))


@pytest.mark.parametrize("p", [5, 7])
def test_larger_characteristic_reduces_the_rational_comitant(p):
    for comitant in (salmon_contravariant, clebsch_covariant):
        want = comitant(_quartic_mod(None)).poly
        got = comitant(_quartic_mod(p)).poly
        assert got == want.substitute(poly_ring(want.vars, GF(p)))


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
    rows = [[1, 2, 0], [0, 1, 0], [1, 0, 3]]
    want = [list(col) for col in zip(*gauss_jordan.inverse(rows))]
    assert contragredient(LinearSubstitution(rows)).matrix == want
    # over GF(7) too, and on a random integer matrix
    assert contragredient(LinearSubstitution(rows, GF(7))).matrix == [
        list(col) for col in zip(*gauss_jordan.inverse(rows, GF(7)))]
    g = random_substitution(3, random.Random(5))
    assert contragredient(g).matrix == [
        list(col) for col in zip(*gauss_jordan.inverse(g.matrix))]
