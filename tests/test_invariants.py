"""Invariant-basis computation and the named calibrated invariants."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from comitant import invariants, linalg
from comitant.grammar import parse_poly
from comitant.comitants import Form, hessian, transvectant
from comitant.invariants import (
    GenericComitant,
    InvariantError,
    canonical_quartic,
    det_weight,
    evaluate_invariant,
    find_invariants,
    generic_form,
    generic_forms,
    hesse_pencil,
    named_invariant,
    quartic_pencil,
    quintic_invariants,
    random_substitution,
    substituted_form,
)
from comitant.linalg import int_nullspace_mod_p
from comitant.maps import c35_jacobian
from comitant.poly import Poly, poly_ring, unwrap
from comitant.quartic import (clebsch_covariant, generic_salmon,
                              salmon_contravariant)
from comitant.scalars import GF, QQ, as_scalar, is_prime, rational_to_fp


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
    # every kernel the finder takes is an int_nullspace_mod_p of its whole
    # operator, mod a word-size prime: nothing is eliminated over QQ
    calls = []
    kernel = linalg.int_nullspace_mod_p

    def spy(rows, ncols, p):
        calls.append((ncols, p))
        return kernel(rows, ncols, p)

    monkeypatch.setattr(linalg, "int_nullspace_mod_p", spy)
    # the spaces of the invariant-search benchmark, and their widths
    got = []
    for space, width in zip(((3, 3, 6), (2, 5, 8), (2, 6, 6), (2, 4, 10),
                             (2, 4, 12)), (28, 44, 39, 38, 57)):
        calls.clear()
        got.append(len(find_invariants(*space)))
        assert calls and all(ncols == width and p < 2**31 and is_prime(p)
                             for ncols, p in calls)
    assert got == [1, 2, 3, 2, 3]


def test_kernel_widths_of_the_benchmark_spaces(monkeypatch):
    # one column per chi-isotypic orbit sum, against 103, 73, 58, 55 and
    # 86 balanced monomials
    widths = []
    kernel = invariants.modular_nullspace

    def record(rows, ncols, certify):
        widths.append(ncols)
        return kernel(rows, ncols, certify)

    monkeypatch.setattr(invariants, "modular_nullspace", record)
    for space in ((3, 3, 6), (2, 5, 8), (2, 6, 6), (2, 4, 10), (2, 4, 12)):
        find_invariants(*space)
    assert widths == [28, 44, 39, 38, 57]


def test_finder_work_counters_on_the_benchmark_spaces(monkeypatch):
    # the shape of every modular kernel, and the primes each space takes:
    # a wider operator or one more prime shows up here as a diff
    shapes = []
    kernel = linalg.int_nullspace_mod_p

    def spy(rows, ncols, p):
        shapes.append((len(rows), ncols))
        return kernel(rows, ncols, p)

    monkeypatch.setattr(linalg, "int_nullspace_mod_p", spy)
    primes = []
    for space in ((3, 3, 6), (2, 5, 8), (2, 6, 6), (2, 4, 10), (2, 4, 12)):
        before = len(shapes)
        find_invariants(*space)
        primes.append(len(shapes) - before)
    assert primes == [1, 1, 2, 2, 2]
    assert shapes == [(93, 28), (71, 44), (55, 39), (55, 39), (53, 38),
                      (53, 38), (83, 57), (83, 57)]


def _cayley_sylvester(d, r):
    """N(w) - N(w-1), w = rd/2, where N(w) counts the partitions of w into
    at most r parts, each at most d: the coefficients of the Gaussian
    binomial prod_{i=1..r} (1 - q^(d+i)) / (1 - q^i), to degree rd."""
    if r * d % 2:
        return 0
    c = [1] + [0] * (r * d)
    for i in range(1, r + 1):
        for s in range(len(c) - 1, d + i - 1, -1):   # times 1 - q^(d+i)
            c[s] -= c[s - d - i]
        for s in range(i, len(c)):                   # over 1 - q^i
            c[s] += c[s - i]
    w = r * d // 2
    return c[w] - (c[w - 1] if w else 0)


def test_binary_bases_match_cayley_sylvester():
    # every (2, d, r) with d <= 8 and r <= 42 that the guard admits: all of
    # them for d >= 3, the first 43 degrees for the line and the conic
    checked = 0
    for d in range(1, 9):
        for r in range(43):
            if comb(d + r, r) > invariants._SIZE_LIMIT:
                break
            assert len(find_invariants(2, d, r)) == _cayley_sylvester(d, r), \
                (d, r)
            checked += 1
    assert checked == 198


def test_odd_weight_invariant_is_antisymmetric(monkeypatch):
    # the degree-18 invariant of the binary quintic has weight 45, so x<->y
    # negates it: it lives on the sign orbit sums alone
    monkeypatch.setattr(invariants, "_SIZE_LIMIT", 40000)
    (inv,) = find_invariants(2, 5, 18)
    assert len(inv.formula.terms) == 848
    assert _cayley_sylvester(5, 18) == 1
    # with chi = 1 the columns are the symmetric orbit sums, which hold no
    # invariant of odd weight
    columns = invariants._orbit_columns
    monkeypatch.setattr(invariants, "_orbit_columns",
                        lambda space, candidates, w: columns(space,
                                                             candidates, 0))
    assert find_invariants(2, 5, 18) == []


def _full_width_kernel_dim(n, d, r):
    """The kernel dimension mod 2^31 - 1 of the simple raising operators
    on every balanced monomial, with no symmetry used."""
    space = invariants._space(n, d)
    candidates = invariants._balanced_monomials(space, r)
    rows = []
    for i in range(n - 1):
        images = [invariants._image(space.derivation(i, i + 1), {e: 1})
                  for e in candidates]
        for e in set().union(*images):
            rows.append([image.get(e, 0) for image in images])
    return len(int_nullspace_mod_p(rows, len(candidates), 2**31 - 1))


def test_ternary_bases_match_the_full_width_kernel():
    checked = 0
    for d in range(1, 7):
        space = invariants._space(3, d)
        for r in range(13):
            if comb(len(space.monomials) + r - 1, r) > invariants._SIZE_LIMIT:
                break
            if not invariants._balanced_monomials(space, r):
                continue
            assert (len(find_invariants(3, d, r))
                    == _full_width_kernel_dim(3, d, r)), (d, r)
            checked += 1
    assert checked == 26


@pytest.mark.parametrize("space", [(2, 4, 12), (2, 6, 10), (2, 8, 8),
                                   (3, 4, 6)])
def test_bases_are_reduced_echelon_in_candidate_order(space, monkeypatch):
    # distinct trailing monomials, in candidate order, each absent from
    # the other polynomials: the one such basis of the kernel
    monkeypatch.setattr(invariants, "_SIZE_LIMIT", 40000)
    n, d, r = space
    candidates = invariants._balanced_monomials(invariants._space(n, d), r)
    position = {e: i for i, e in enumerate(candidates)}
    basis = [b.formula for b in find_invariants(*space)]
    trailing = [max(map(position.get, p.terms)) for p in basis]
    assert len(basis) > 1 and trailing == sorted(set(trailing))
    for p, t in zip(basis, trailing):
        assert all(candidates[t] not in q.terms for q in basis if q is not p)


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
    # a rational multiple is checked exactly too
    assert invariants._is_invariant(space, i2.scale_div(3))
    assert invariants._is_invariant(space, Poly.zero(space.names, QQ))


def test_is_invariant_accepts_found_bases():
    space = invariants._space(3, 3)
    basis = find_invariants(3, 3, 4)
    assert basis and all(invariants._is_invariant(space, b.formula)
                         for b in basis)
    x = Poly.variable(space.names[0], space.names, QQ)
    assert not invariants._is_invariant(space, basis[0].formula + x**4)


@pytest.mark.parametrize("n", [2, 3])
def test_derivation_table_is_integral(n):
    # D(a_t) has the term (w_s m_j / w_t) a_s for each monomial m = m_s
    # with m_j > 0, t the index of m with one x_j traded for an x_i: that
    # ratio is an integer, m_i + 1 for n = 2 and m_j for n = 3
    for d in range(1, 13):
        space = invariants._space(n, d)
        w = space.weights
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                table = space.derivation(i, j)
                entries = [(t, s, c) for t, srcs in table.items()
                           for s, c in srcs]
                assert len(entries) == sum(m[j] > 0 for m in space.monomials)
                for t, s, c in entries:
                    m = space.monomials[s]
                    assert type(c) is int and c * w[t] == w[s] * m[j]
                    assert c == (m[i] + 1 if n == 2 else m[j]), (d, i, j, m)


@pytest.mark.parametrize("n", [2, 3])
def test_coefficient_names_are_distinct(n):
    for d in range(1, 13):
        names = invariants._space(n, d).names
        assert len(set(names)) == len(names) == len(
            invariants._space(n, d).monomials), (n, d)
    # digits run together up to d = 9; from d = 10 a separator splits them,
    # so (10, 1, 0) and (1, 0, 10) no longer both read a1010
    assert invariants._space(3, 4).names[:3] == ("a400", "a310", "a301")
    assert invariants._space(3, 9).names[0] == "a900"
    assert invariants._space(3, 11).names[:2] == ("a11_0_0", "a10_1_0")


def _applied(table, p: Poly) -> Poly:
    """A derivation given by its table on the coefficient poly p, by the
    chain rule: sum over t of dp/da_t times D(a_t)."""
    out = Poly.zero(p.vars, QQ)
    for t in {t for e in p.terms for t, k in enumerate(e) if k}:
        for s, c in table[t]:
            out = out + p.partial(t) * _variable(s, p.vars) * c
    return out


def _variable(s, vars) -> Poly:
    # by position, as the derivation tables index the coefficients
    return Poly.monomial(1, tuple(int(i == s) for i in range(len(vars))),
                         vars, QQ)


@pytest.mark.parametrize("d", range(1, 13))
def test_sl3_brackets_on_every_coefficient_variable(d):
    # [D01, D12] = -D02 and [D21, D10] = -D20 on each a_t, so the four
    # generators kill whatever D02 and D20 would have to
    space = invariants._space(3, d)
    for a, b, c in (((0, 1), (1, 2), (0, 2)), ((2, 1), (1, 0), (2, 0))):
        A, B, C = (space.derivation(*ij) for ij in (a, b, c))
        for t in range(len(space.names)):
            a_t = _variable(t, space.names)
            ab = _applied(A, _applied(B, a_t))
            ba = _applied(B, _applied(A, a_t))
            assert ab - ba == _applied(C, a_t) * -1, (d, a, b, t)
    assert space.generators == [space.derivation(*ij) for ij in
                                ((0, 1), (1, 0), (1, 2), (2, 1))]


def test_a_table_that_breaks_the_brackets_is_refused(monkeypatch):
    # the four generators certify only through the brackets: a D02 table
    # with one image dropped leaves the space unusable
    derivation = invariants._FormSpace.derivation

    def broken(self, i, j):
        table = derivation(self, i, j)
        if (i, j) == (0, 2):
            table[next(t for t in table if table[t])] = []
        return table

    monkeypatch.setattr(invariants._FormSpace, "derivation", broken)
    with pytest.raises(InvariantError, match="sl_3 brackets"):
        invariants._FormSpace(3, 3)


_SL3_SPACES = [(3, 2, 3), (3, 3, 4), (3, 3, 6), (3, 4, 3)]


@lru_cache(maxsize=None)
def _sl3_families(n, d, r):
    """The degree-r invariants; the balanced polynomials that one opposite
    pair of generators kills, D01 and D10 or D12 and D21; the balanced
    monomials."""
    space = invariants._space(n, d)
    monomials = invariants._balanced_monomials(space, r)
    halves = []
    for pair in (((0, 1), (1, 0)), ((1, 2), (2, 1))):
        rows = []
        for ij in pair:
            images = [invariants._image(space.derivation(*ij), {e: 1})
                      for e in monomials]
            rows += [[image.get(k, 0) for image in images]
                     for k in set().union(*images)]
        halves += [Poly(space.names, dict(zip(monomials, v)), QQ)
                   for v in linalg.nullspace(rows, len(monomials))]
    return ([b.formula for b in find_invariants(n, d, r)], halves,
            [Poly(space.names, {e: 1}, QQ) for e in monomials])


@settings(max_examples=80, deadline=None)
@given(space=st.sampled_from(_SL3_SPACES), data=st.data())
def test_generators_certify_as_all_six_derivations_do(space, data):
    # sums of invariants, of polynomials that half the generators kill and
    # of balanced monomials: the four generators must judge each as the
    # six off-diagonal derivations do
    sp = invariants._space(*space[:2])
    p = Poly.zero(sp.names, QQ)
    for family in _sl3_families(*space):
        for q in data.draw(st.lists(st.sampled_from(family), max_size=2)):
            p = p + q * data.draw(st.integers(-3, 3))
    six = all(_applied(sp.derivation(i, j), p).is_zero()
              for i, j in permutations(range(3), 2))
    assert invariants._is_invariant(sp, p) == six


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
        det = g.det
        assert moved == [det**d.weight() * b for d, b in zip(trio, base)]


# -------------------------------------------------------------------- weights

def test_measured_weight_matches_declared():
    # one probe off the zero locus, with det(g) != +-1, pins the weight
    rng = random.Random(7)
    x, y = poly_ring(("x", "y"), QQ)
    sample = Form(x**4 + x * y**3 - y**4, 4)
    for name, expect in (("I2", 4), ("I3", 6)):
        inv = named_invariant(name, (2, 4))
        assert inv.weight() == expect
        g = random_substitution(2, rng)
        while abs(g.det) == 1:  # avoid the ambiguous det = +-1 case
            g = random_substitution(2, rng)
        base = evaluate_invariant(inv, sample)
        moved = evaluate_invariant(inv, substituted_form(sample, g))
        assert base and det_weight(g.det, moved / base) == expect


# ------------------------------------------------------ small characteristics

@pytest.mark.parametrize("name", ["I2", "I3"])
@pytest.mark.parametrize("p, weight", [(2, 4), (3, 6)])
def test_evaluate_refuses_a_characteristic_dividing_a_weight(name, p,
                                                            weight):
    # x^4 + x*y^3 + y^4 over GF(2) or GF(3): the binomial weights of the
    # quartic's middle coefficients (4, 6, 4) are not invertible there
    x, y = poly_ring(("x", "y"), GF(p))
    f = Form(x**4 + x * y**3 + y**4, 4)
    with pytest.raises(InvariantError,
                       match=f"characteristic {p}: {p} divides the "
                             f"binomial weight {weight}"):
        evaluate_invariant(named_invariant(name, (2, 4)), f)


@pytest.mark.parametrize("p", [5, 7])
def test_evaluate_over_a_larger_prime_reduces_the_rational_value(p):
    text = "x^4 + 2*x^3*y - x*y^3 + 3*y^4"
    for name in ("I2", "I3"):
        inv = named_invariant(name, (2, 4))
        want = evaluate_invariant(inv, Form(parse_poly(text, ("x", "y")), 4))
        got = evaluate_invariant(
            inv, Form(parse_poly(text, ("x", "y"), GF(p)), 4))
        assert got == rational_to_fp(want, p)


def test_ternary_quartic_degree_three_invariant():
    (inv,) = find_invariants(3, 4, 3)
    assert inv.degree == 3 and inv.space == (3, 4)
    X, Y, Z = poly_ring(("X", "Y", "Z"), QQ)
    fermat = Form(X**4 + Y**4 + Z**4, 4)
    assert evaluate_invariant(inv, fermat) != 0


# ------------------------------------------- generic comitants, specialised

# name -> (spaces, the comitant of the universal Forms, the same comitant of
# Polys in the form variables, terms of the generic formula, denominator D)
GENERIC = {
    "hessian": (((3, 3),), lambda F: hessian(F.poly, F.indices), hessian,
                73, 1),
    "transvectant-2": (((2, 4), (2, 4)),
                       lambda f, h: transvectant(f, h, 2).poly,
                       lambda f, h: transvectant(Form(f, 4), Form(h, 4),
                                                 2).poly,
                       19, 24),
    "transvectant-4": (((2, 4), (2, 4)),
                       lambda f, h: transvectant(f, h, 4).poly,
                       lambda f, h: transvectant(Form(f, 4), Form(h, 4),
                                                 4).poly,
                       5, 12),
    "c35": (((2, 5),), lambda f: c35_jacobian(f).poly,
            lambda f: c35_jacobian(Form(f, 5)).poly, 34, 25),
    "clebsch": (((3, 4),), lambda F: clebsch_covariant(F).poly,
                lambda f: clebsch_covariant(Form(f, 4)).poly, 678, 81),
    "salmon": (((3, 4),), lambda F: generic_salmon().poly,
               lambda f: salmon_contravariant(Form(f, 4)).poly, 63, 12),
}


@lru_cache(maxsize=None)
def _compiled(name) -> GenericComitant:
    spaces, build = GENERIC[name][:2]
    return GenericComitant(build(*generic_forms(*spaces)), spaces)


_COEFFICIENTS = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-4, max_value=4, max_denominator=9))


@st.composite
def _form(draw, n, d):
    names = ("x", "y") if n == 2 else ("X", "Y", "Z")
    terms = {}
    for combo in combinations_with_replacement(range(n), d):
        c = draw(_COEFFICIENTS)
        if type(c) is Fraction and c.denominator == 1:
            c = c.numerator  # an integral QQ coefficient is an int
        terms[tuple(combo.count(i) for i in range(n))] = c
    return Poly(names, terms, QQ)


@pytest.mark.parametrize("name", GENERIC)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_generic_comitant_matches_the_direct_comitant(name, data):
    spaces, direct = GENERIC[name][0], GENERIC[name][2]
    forms = [data.draw(_form(n, d)) for n, d in spaces]
    assert _compiled(name)(*forms) == direct(*forms)


@pytest.mark.parametrize("name", GENERIC)
def test_generic_comitant_sizes(name):
    terms, denominator = GENERIC[name][3:]
    gc = _compiled(name)
    assert (gc.term_count, gc.denominator) == (terms, denominator)


def test_generic_comitant_of_mixed_coefficient_degree():
    # 2 J + f pads f's terms with the forms' common denominator
    spaces, _, direct = GENERIC["c35"][:3]
    (f,) = generic_forms(*spaces)
    gc = GenericComitant(c35_jacobian(f).poly * 2 + f.poly, spaces)
    x, y = poly_ring(("x", "y"), QQ)
    p = x**5 * Fraction(1, 3) - x**2 * y**3 + y**5 * Fraction(5, 2)
    assert gc(p) == direct(p) * 2 + p
    # the form variables are read in the order of the Form's indices
    q = Poly(p.vars, {e[::-1]: c for e, c in p.terms.items()}, QQ)
    assert gc(Form(q, 5, (1, 0))) == gc(p)
    # over GF(7) the padding slot is 1: the value is the QQ one mod 7
    p7 = Poly(p.vars, {e: rational_to_fp(c, 7) for e, c in p.terms.items()},
              GF(7))
    assert gc(p7).terms == {e: rational_to_fp(c, 7)
                            for e, c in gc(p).terms.items()
                            if rational_to_fp(c, 7)}


# The formulas of the oracle test: the six generic comitants above and two
# invariants, comitants of order zero, compiled by their descriptors
ORACLE = dict({name: GENERIC[name][0] for name in GENERIC},
              S=((3, 3),), I3=((2, 4),))
_PARAMS = ("s", "t")


def _evaluator(name):
    if name in GENERIC:
        return _compiled(name)
    return named_invariant(name, ORACLE[name][0]).compiled


@lru_cache(maxsize=None)
def _oracle_formula(name) -> Poly:
    if name in GENERIC:
        return GENERIC[name][1](*generic_forms(*ORACLE[name]))
    return named_invariant(name, ORACLE[name][0]).formula


def _coefficient_oracle(name, forms):
    """The formula at the forms as it was evaluated before `GenericComitant`
    took every form: each form's coefficients over their binomial weights,
    in the forms' parameters followed by the output variables, then one
    `Poly.substitute` into the formula."""
    formula = _oracle_formula(name)
    spaces = [invariants._space(*s) for s in ORACLE[name]]
    out = formula.vars[sum(len(s.names) for s in spaces):]
    rest = forms[0].params + out
    values = []
    for f, space in zip(forms, spaces):
        for c, w in zip(f.coefficients(space.monomials), space.weights):
            c = c.extend_to(rest)
            values.append(c if w == 1 else c.scale_div(w))
    ring = forms[0].poly.ring
    return formula.substitute(
        values + [Poly.variable(v, rest, ring) for v in out])


@st.composite
def _oracle_case(draw, name):
    """Forms on the name's spaces over QQ or GF(p), p >= 5 and not dividing
    the formula's denominator, with zero, one or two parameters in a shared
    list, placed anywhere among the form variables."""
    gc = _evaluator(name)
    ring = draw(st.sampled_from(
        [QQ] + [GF(p) for p in (5, 7, 101, 2**61 - 1)
                if gc.denominator % p]))
    params = _PARAMS[:draw(st.integers(0, 2))]
    n = ORACLE[name][0][0]
    names = ("x", "y") if n == 2 else ("X", "Y", "Z")
    vars = tuple(draw(st.permutations(params + names)))
    indices = tuple(vars.index(v) for v in names)
    coeff = st.integers(-30, 30)
    if ring == QQ:
        coeff = st.one_of(coeff, st.fractions(-4, 4, max_denominator=9))
    forms = []
    for _, d in ORACLE[name]:
        terms = {}
        for combo in combinations_with_replacement(range(n), d):
            # a coefficient is a small polynomial in the parameters
            for a in draw(st.lists(st.tuples(*[st.integers(0, 2)]
                                             * len(params)),
                                   min_size=1, max_size=2, unique=True)):
                e = [0] * len(vars)
                for v, k in zip(params, a):
                    e[vars.index(v)] = k
                for i in range(n):
                    e[indices[i]] = combo.count(i)
                terms[tuple(e)] = as_scalar(draw(coeff), ring)
        forms.append(Form(Poly(vars, terms, ring), d, indices))
    return forms


@pytest.mark.parametrize("name", ORACLE)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_generic_comitant_matches_the_substitute_oracle(name, data):
    # GF(p) forms take the integer kernel with a padding slot of 1, forms
    # with parameters one Poly.substitute: both against the route that
    # evaluate_invariant and the quartic comitants took before
    forms = data.draw(_oracle_case(name))
    got = _evaluator(name)(*forms)
    assert got == _coefficient_oracle(name, forms)
    assert got.ring == forms[0].poly.ring
    if name not in GENERIC:
        desc = named_invariant(name, ORACLE[name][0])
        value = evaluate_invariant(desc, forms[0])
        assert value == (got if forms[0].params else unwrap(got))


def test_generic_comitant_refuses_a_dividing_prime_and_mixed_parameters():
    gc = _compiled("clebsch")
    # the denominator 81 = 3^4 is not inverted in characteristic 3
    assert gc.denominator == 81
    X, Y, Z = poly_ring(("X", "Y", "Z"), GF(3))
    with pytest.raises(InvariantError, match="characteristic 3"):
        gc(X**4 + Y**4 + Z**4)
    # the forms of a transvectant share one ring and one parameter list
    tv = _compiled("transvectant-2")
    s, x, y = poly_ring(("s", "x", "y"), QQ)
    t, xt, yt = poly_ring(("t", "x", "y"), QQ)
    f = Form(x**4 + s * y**4, 4, (1, 2))
    with pytest.raises(InvariantError, match="one list of parameters"):
        tv(f, Form(xt**4 + t * yt**4, 4, (1, 2)))
    xq, yq = poly_ring(("x", "y"), QQ)
    with pytest.raises(InvariantError, match="one list of parameters"):
        tv(f, xq**4 + yq**4)
    x7, y7 = poly_ring(("x", "y"), GF(7))
    with pytest.raises(InvariantError, match="one ring"):
        tv(xq**4 + yq**4, x7**4 + y7**4)
    # a parameter may not take the name of an output variable
    u, X, Y, Z = poly_ring(("u", "X", "Y", "Z"), QQ)
    with pytest.raises(InvariantError, match="collide"):
        _compiled("salmon")(Form(X**4 + u * Y**4 + Z**4, 4, (1, 2, 3)))
    with pytest.raises(InvariantError,
                       match="one form per space: expected 1, got 0"):
        gc()
    with pytest.raises(InvariantError, match="share their variables"):
        generic_forms((2, 4), (3, 3))
