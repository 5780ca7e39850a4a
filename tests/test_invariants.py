"""Invariant-basis computation and the named calibrated invariants."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from comitant import invariants
from comitant.grammar import parse_poly
from comitant.comitants import Form
from comitant.invariants import (
    InvariantError,
    canonical_quartic,
    evaluate_invariant,
    find_invariants,
    generic_form,
    hesse_pencil,
    invariant_S_quartic,
    measured_weight,
    named_invariant,
    quartic_pencil,
    quintic_invariants,
    random_substitution,
    substituted_form,
)
from comitant.linalg import Matrix
from comitant.poly import Poly, poly_ring
from comitant.scalars import QQ


# ----------------------------------------------------------- space dimensions

def test_binary_quartic_invariant_dimensions():
    assert len(find_invariants(2, 4, 2)) == 1
    assert len(find_invariants(2, 4, 3)) == 1
    assert find_invariants(2, 4, 1) == []


def test_ternary_cubic_degree_four_dimension():
    assert len(find_invariants(3, 3, 4)) == 1


def test_binary_cubic_discriminant_dimension():
    # the degree-4 invariant of a binary cubic is the discriminant, dim 1
    assert len(find_invariants(2, 3, 4)) == 1


def test_size_guard():
    with pytest.raises(InvariantError, match="too large"):
        find_invariants(3, 6, 12)


@pytest.mark.parametrize("r", [-1, 1.5, True, "2", None])
def test_bad_degree_rejected(r):
    with pytest.raises(InvariantError, match="nonnegative integer"):
        find_invariants(2, 4, r)


@pytest.mark.parametrize("n,d", [(2, 4.5), (2.0, 4), (2, True), (True, 4),
                                 ("2", 4), (2, None)])
def test_bad_space_rejected(n, d):
    with pytest.raises(InvariantError, match="must be an integer"):
        find_invariants(n, d, 2)


@pytest.mark.parametrize("n,d", [(2, 4.5), (2.0, 4), (2, True), (True, 4),
                                 ([2], 4)])
def test_generic_form_rejects_bad_space(n, d):
    # the V(2,4) and V(2,1) spaces are cached first: 2.0 and True must not
    # hit their entries
    generic_form(2, 4), generic_form(2, 1)
    with pytest.raises(InvariantError, match="must be an integer"):
        generic_form(n, d)


def test_binary_octic_degree_six_dimension():
    # four independent sextic invariants of the binary octic; the kernel
    # mod one prime does not reconstruct, two primes do
    assert len(find_invariants(2, 8, 6)) == 4


def test_no_elimination_over_qq(monkeypatch):
    def refuse(self):
        raise AssertionError("find_invariants reached QQ elimination")

    monkeypatch.setattr(Matrix, "nullspace", refuse)
    monkeypatch.setattr(Matrix, "rref", refuse)
    # the spaces of the invariant-search benchmark
    got = [len(find_invariants(*space)) for space in
           ((3, 3, 6), (2, 5, 8), (2, 6, 6), (2, 4, 10), (2, 4, 12))]
    assert got == [1, 2, 3, 2, 3]


def test_refused_proof_stops_at_the_hadamard_bound(monkeypatch):
    monkeypatch.setattr(invariants, "_is_invariant", lambda space, p: False)
    with pytest.raises(InvariantError, match="Hadamard bound"):
        find_invariants(2, 4, 2)


def test_is_invariant_on_binary_quartics():
    space = invariants._space(2, 4)
    a0, a1, a2, a3, a4 = poly_ring(space.names, QQ)
    i2 = a0 * a4 - 4 * a1 * a3 + 3 * a2**2
    assert find_invariants(2, 4, 2)[0].formula == i2
    # balanced, so the torus fixes them, but the raising operators do not
    assert not invariants._is_invariant(space, a0 * a4 - 4 * a1 * a3)
    assert not invariants._is_invariant(space, a2**2)
    # denominators are cleared before the integer check
    assert invariants._is_invariant(space, i2.scale_div(3))
    assert invariants._is_invariant(space, Poly.zero(space.names, QQ))


def test_is_invariant_accepts_found_bases():
    space = invariants._space(3, 3)
    basis = find_invariants(3, 3, 4)
    assert basis and all(invariants._is_invariant(space, b.formula)
                         for b in basis)
    x = Poly.variable(space.names[0], space.names, QQ)
    assert not invariants._is_invariant(space, basis[0].formula + x**4)


def _balanced_by_brute_force(space, r):
    """Every degree-r combination of coefficient monomials, kept when its
    torus weight is balanced (the enumeration the finder used to run)."""
    n, d = space.n, space.d
    if (r * d) % n:
        return []
    w = r * d // n
    out = []
    for combo in combinations_with_replacement(range(len(space.monomials)),
                                               r):
        weight = [0] * n
        for v in combo:
            m = space.monomials[v]
            for i in range(n):
                weight[i] += m[i]
        if all(c == w for c in weight):
            e = [0] * len(space.monomials)
            for v in combo:
                e[v] += 1
            out.append(tuple(e))
    out.sort(key=lambda e: (sum(e), e), reverse=True)
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_balanced_monomials_match_brute_force(n):
    checked = 0
    for d in range(1, 7):
        space = invariants._space(n, d)
        for r in range(7):
            # the spaces find_invariants accepts; past the size limit the
            # brute force alone takes seconds
            size = comb(len(space.monomials) + r - 1, r)
            if size > invariants._SIZE_LIMIT:
                continue
            assert (invariants._balanced_monomials(space, r)
                    == _balanced_by_brute_force(space, r)), (n, d, r)
            checked += 1
    assert checked == (42 if n == 2 else 36)


def test_generic_form_shape():
    g = generic_form(2, 3)
    # 4 coefficient variables ahead of the two form variables
    assert len(g.vars) == 6
    assert g.is_homogeneous((4, 5))


# ------------------------------------------------------------ frozen values

def test_I2_I3_on_the_canonical_quartic():
    a = Poly.variable("alpha", ("alpha",), QQ)
    assert evaluate_invariant(named_invariant("I2", (2, 4)),
                              canonical_quartic()) == 1 + 3 * a**2
    assert evaluate_invariant(named_invariant("I3", (2, 4)),
                              canonical_quartic()) == a - a**3


def test_I2_I3_on_plain_forms():
    x, y = poly_ring(("x", "y"), QQ)
    f = Form(x**4 + y**4, 4)
    assert evaluate_invariant(named_invariant("I2", (2, 4)), f) == 1
    assert evaluate_invariant(named_invariant("I3", (2, 4)), f) == 0
    # x^3*y has a1 as its only nonzero binomial coefficient, which kills
    # every monomial of both invariants
    g = Form(x**3 * y, 4)
    assert evaluate_invariant(named_invariant("I2", (2, 4)), g) == 0
    assert evaluate_invariant(named_invariant("I3", (2, 4)), g) == 0


def test_S_and_T_on_the_hesse_pencil():
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    S = evaluate_invariant(named_invariant("S", (3, 3)), hesse_pencil())
    T = evaluate_invariant(named_invariant("T", (3, 3)), hesse_pencil())
    assert S == t0**3 * t1 - t1**4
    assert T == t0**6 - 20 * t0**3 * t1**3 - 8 * t1**6


def test_S_T_on_fermat_cubic():
    # the pencil at (t0, t1) = (1, 0)
    f = Form(parse_poly("X^3 + Y^3 + Z^3", ("X", "Y", "Z")), 3)
    assert evaluate_invariant(named_invariant("S", (3, 3)), f) == 0
    assert evaluate_invariant(named_invariant("T", (3, 3)), f) == 1


def test_quartic_pencil_values():
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    I2 = evaluate_invariant(named_invariant("I2", (2, 4)), quartic_pencil())
    I3 = evaluate_invariant(named_invariant("I3", (2, 4)), quartic_pencil())
    assert I2 == t0**2 + 3 * t1**2
    assert I3 == t0**2 * t1 - t1**3


def test_named_invariant_unknown():
    with pytest.raises(InvariantError, match="no invariant named"):
        named_invariant("J", (2, 4))
    with pytest.raises(InvariantError, match="no invariant named"):
        named_invariant("I2", (3, 3))


def test_degree_mismatch_rejected():
    x, y = poly_ring(("x", "y"), QQ)
    f = Form(x**3, 3)
    with pytest.raises(InvariantError, match="space mismatch"):
        evaluate_invariant(named_invariant("I2", (2, 4)), f)


# --------------------------------------------------------- quintic invariants

def test_quintic_trio_degrees_and_names():
    trio = quintic_invariants()
    assert [d.name for d in trio] == ["I4", "I8", "I12"]
    assert [d.degree for d in trio] == [4, 8, 12]
    assert all(d.space == (2, 5) for d in trio)


def test_quintic_invariants_vanish_on_pure_power():
    x, y = poly_ring(("x", "y"), QQ)
    f = Form(x**5, 5)
    for name in ("I4", "I8", "I12"):
        assert evaluate_invariant(named_invariant(name, (2, 5)), f) == 0


def test_quintic_invariants_unimodular_invariance():
    rng = random.Random(20240)
    x, y = poly_ring(("x", "y"), QQ)
    f = Form(x**5 - 2 * x**3 * y**2 + 3 * x * y**4 + y**5, 5)
    trio = quintic_invariants()
    base = [evaluate_invariant(d, f) for d in trio]
    for _ in range(3):
        g = random_substitution(2, rng, unimodular=True)
        moved = [evaluate_invariant(d, substituted_form(f, g)) for d in trio]
        det = g.matrix.det()
        assert moved == [det**d.weight() * b for d, b in zip(trio, base)]


# -------------------------------------------------------------------- weights

def test_measured_weight_matches_declared():
    rng = random.Random(7)
    x, y = poly_ring(("x", "y"), QQ)
    sample = Form(x**4 + x * y**3 - y**4, 4)
    for name, expect in (("I2", 4), ("I3", 6)):
        inv = named_invariant(name, (2, 4))
        assert inv.weight() == expect
        g = random_substitution(2, rng)
        while abs(g.matrix.det()) == 1:  # avoid the ambiguous det = +-1 case
            g = random_substitution(2, rng)
        assert measured_weight(inv, g, sample) == expect


def test_measured_weight_rejects_zero_locus():
    x, y = poly_ring(("x", "y"), QQ)
    inv = named_invariant("I3", (2, 4))
    g = random_substitution(2, random.Random(1))
    with pytest.raises(InvariantError, match="zero locus"):
        measured_weight(inv, g, Form(x**4 + y**4, 4))


def test_ternary_quartic_degree_three_invariant():
    inv = invariant_S_quartic()
    assert inv.degree == 3 and inv.space == (3, 4)
    X, Y, Z = poly_ring(("X", "Y", "Z"), QQ)
    fermat = Form(X**4 + Y**4 + Z**4, 4)
    assert evaluate_invariant(inv, fermat) != 0
