from fractions import Fraction
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import gauss_jordan
from comitant import linalg
from comitant.linalg import (LinearSubstitution, int_nullspace_mod_p,
                             modular_nullspace, nullspace, poly_det)
from comitant.poly import Poly, poly_ring
from comitant.quartic import contragredient
from comitant.scalars import GF, QQ, Fp, as_scalar, is_prime, ring_zero


def test_nullspace_reads_the_rank():
    # rank 2: one kernel vector, over QQ and mod 7 alike
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert nullspace(rows, 3) == [[-1, -1, 1]]
    assert nullspace(rows, 3, GF(7)) == [[Fp(-1, 7), Fp(-1, 7), Fp(1, 7)]]


def test_det_inverse_roundtrip():
    rows = [[2, 1], [5, 3]]
    g = LinearSubstitution(rows)
    assert poly_det(rows) == g.det == 1
    # the contragredient is the inverse transpose: M^T g^-T = 1
    transposed = [list(col) for col in zip(*rows)]
    assert _int_product(transposed, contragredient(g).matrix) == [[1, 0],
                                                                  [0, 1]]


def test_nullspace_dimension():
    # rank 1 over QQ, and mod 5, where 2/3 = 4
    for rows, ring in (([[1, Fraction(2, 3), 3], [2, Fraction(4, 3), 6]], QQ),
                       ([[1, 4, 3], [2, 3, 1]], GF(5))):
        basis = nullspace(rows, 3, ring)
        assert len(basis) == 2
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0
                       for row in rows)


def test_singular_inverse_rejected():
    # a singular matrix has no inverse, so it is no substitution
    with pytest.raises(ValueError, match="singular"):
        LinearSubstitution([[1, 1], [2, 2]])
    with pytest.raises(ValueError, match="square"):
        LinearSubstitution([[1, 1]])


def test_poly_det_matches_scalar_det():
    x, y = poly_ring(("x", "y"), QQ)
    rows = [[x, y], [y, x]]
    assert poly_det(rows) == x**2 - y**2


def test_poly_det_vanishing_expansion():
    # every Laplace term dies: the zero determinant must come back as the
    # zero polynomial, not a lookup error
    x, y = poly_ring(("x", "y"), QQ)
    zero = Poly.zero(("x", "y"), QQ)
    assert poly_det([[x, zero], [y, zero]]).is_zero()
    assert poly_det([[zero, zero], [zero, zero]]).is_zero()


def test_poly_det_three_by_three():
    x, y, z = poly_ring(("x", "y", "z"), QQ)
    rows = [[x, y, z], [y, z, x], [z, x, y]]
    det = poly_det(rows)
    assert det == 3 * x * y * z - x**3 - y**3 - z**3


def test_int_nullspace_mod_p():
    rows = [[1, 2, 0], [0, 0, 1]]
    basis = int_nullspace_mod_p(rows, 3, 7)
    assert len(basis) == 1
    v = basis[0]
    assert (v[0] + 2 * v[1]) % 7 == 0 and v[2] % 7 == 0


def test_linear_substitution_apply_and_compose():
    g = LinearSubstitution([[0, 1], [1, 0]])
    x, y = poly_ring(("x", "y"), QQ)
    assert g.apply(x**2 + y) == y**2 + x
    h = LinearSubstitution([[1, 1], [0, 1]])
    # the matrix product composes substitutions: the left factor acts first
    gh = LinearSubstitution(_int_product(g.matrix, h.matrix))
    assert gh.apply(x) == h.apply(g.apply(x))
    assert gh.apply(y) == h.apply(g.apply(y))


def test_linear_substitution_inverse():
    g = LinearSubstitution([[2, 1], [1, 1]])
    x, y = poly_ring(("x", "y"), QQ)
    p = x**3 - y
    inverse = gauss_jordan.inverse(g.matrix)
    assert LinearSubstitution(inverse).apply(g.apply(p)) == p


def test_substitution_on_selected_indices():
    g = LinearSubstitution([[0, 1], [1, 0]])
    a, x, y = poly_ring(("a", "x", "y"), QQ)
    p = a * x**2 + y
    assert g.apply(p, indices=(1, 2)) == a * y**2 + x


@pytest.mark.parametrize("indices", [(1, 1), (-1, 2), (1, 3)],
                         ids=["repeated", "negative", "out-of-range"])
def test_substitution_refuses_bad_indices(indices):
    # each was once read silently (16*a*x^2 + y, a*x^2 + 4*y) or raised a
    # bare IndexError
    g = LinearSubstitution([[1, 2], [3, 4]])
    a, x, y = poly_ring(("a", "x", "y"), QQ)
    with pytest.raises(ValueError, match="not distinct positions"):
        g.apply(a * x**2 + y, indices=indices)


# -- the Kronecker kernel of apply, differentially -----------------------

def _substitute_oracle(g, p, indices):
    """f(Mx) as apply computed it before its Kronecker kernel: the image
    linear forms built as Polys, then one Poly.substitute."""
    gens = poly_ring(p.vars, p.ring)
    images = list(gens)
    for row, i in zip(g.matrix, indices):
        images[i] = sum((gens[j] * as_scalar(c, p.ring)
                         for c, j in zip(row, indices) if c),
                        Poly.zero(p.vars, p.ring))
    return p.substitute(images)


@st.composite
def _substitutions(draw):
    ring = draw(st.sampled_from([QQ, QQ, GF(2), GF(7), GF(2**61 - 1)]))
    n = draw(st.integers(1, 3))
    nv = n + draw(st.integers(0, 2))        # the others are parameters
    indices = tuple(draw(st.permutations(range(nv)))[:n])
    # an integer matrix acts over GF(p) from QQ or from its own field
    mring = draw(st.sampled_from([QQ, ring]))
    entry = _sparse_ints(5)
    # a pivot is nonzero in mring: odd over GF(2), and |pivot| < 7
    pivot = st.sampled_from([1, -1, 3, -3, 5, -5] if mring == GF(2)
                            else [1, -1, 2, -2, 3, -3, 4, -4, 5, -5])
    if ring == QQ:
        entry = st.one_of(entry, st.builds(Fraction, st.integers(-5, 5),
                                           st.integers(1, 4)))
        pivot = st.one_of(pivot, st.builds(Fraction, pivot,
                                           st.integers(1, 4)))
    # invertible by construction, as P L U: a row permutation, a unit
    # lower-triangular L and an upper-triangular U with nonzero pivots
    lower = [[1 if i == j else draw(entry) if j < i else 0
              for j in range(n)] for i in range(n)]
    upper = [[draw(pivot) if i == j else draw(entry) if j > i else 0
              for j in range(n)] for i in range(n)]
    lu = _int_product(lower, upper)
    g = LinearSubstitution([lu[i] for i in draw(st.permutations(range(n)))],
                           mring)
    if ring == QQ and draw(st.booleans()):
        g = contragredient(g)
    # coefficients past 2^200 load the digit width; the exponents are free,
    # so the transformed part is rarely homogeneous
    coeff = st.one_of(st.integers(-9, 9), st.integers(-2**200, 2**200))
    if ring == QQ:
        coeff = st.one_of(coeff, st.builds(Fraction, coeff,
                                           st.integers(1, 2**20)))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 4)] * nv),
                                 coeff, max_size=8))
    vars = tuple(f"v{i}" for i in range(nv))
    p = Poly(vars, {e: as_scalar(c, ring) for e, c in terms.items()}, ring)
    return g, p, indices


_X, _Y = poly_ring(("x", "y"), QQ)
_T, _Z = poly_ring(("t", "z"), QQ)


@settings(max_examples=150, deadline=None)
@given(_substitutions())
@example((LinearSubstitution([[1, 2], [3, 4]]), Poly.zero(("x", "y")),
          (0, 1)))                                       # zero
@example((LinearSubstitution([[3]]), Poly.constant(5, ("t", "z")), (1,)))
@example((LinearSubstitution([[-3]]), _T * _Z**4 * 2**200, (1,)))  # S tight
@example((LinearSubstitution([[2, -1], [1, 1]]),
          _X**3 * (2**200 - 1) - _X * _Y + 7, (1, 0)))  # mixed degrees
@example((contragredient(LinearSubstitution([[1, 2], [3, 5]])),
          _X**2 * Fraction(1, 3) + _Y, (0, 1)))
@example((LinearSubstitution([[1, 1], [0, 1]], GF(2)),
          Poly(("x", "y"), {(3, 0): Fp(1, 2), (1, 1): Fp(1, 2)}, GF(2)),
          (0, 1)))
def test_apply_matches_the_substitute_oracle(case):
    g, p, indices = case
    got = g.apply(p, indices)
    want = _substitute_oracle(g, p, indices)
    assert got == want
    # the same scalar types: an int where the value is integral
    assert {e: type(c) for e, c in got.terms.items()} == {
        e: type(c) for e, c in want.terms.items()}


def test_apply_builds_no_image_polys():
    g = LinearSubstitution([[1, 2], [3, 4]])
    p = _X**3 - _X * _Y * 5
    with mock.patch.object(Poly, "substitute",
                           side_effect=AssertionError) as substitute, \
            mock.patch("comitant.poly._packed_mul",
                       side_effect=AssertionError) as packed_mul:
        got = g.apply(p)
    assert not substitute.called and not packed_mul.called
    assert got == _substitute_oracle(g, p, (0, 1))


# -- the elimination kernel, differentially ------------------------------

def _sparse_ints(bound):
    # zeros are frequent, so pivots go missing and rows need swapping
    return st.one_of(st.just(0), st.just(0), st.integers(-bound, bound))


# the largest prime with (p-1)^2 < 2^63, where int64 elimination ends,
# and the next prime
P_TOP, P_PAST = 3037000493, 3037000507


@st.composite
def _int_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 101, 2**31 - 1, P_TOP, P_PAST,
                              2**61 - 1]))
    ncols = draw(st.integers(1, 6))
    # entries past int64 must be reduced before they reach the array
    entry = st.one_of(_sparse_ints(3 * p), st.integers(-2**70, 2**70))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=5))
    return rows, ncols, p


@settings(max_examples=200, deadline=None)
@given(_int_matrices())
@example(([], 3, 7))                 # empty
@example(([[0, 7, -14]], 3, 7))      # zero mod p
@example(([[2**64 + 1, -2**63 - 5, 1], [P_TOP - 1, 1, 0]], 3, P_TOP))
@example(([[0, 1, 2], [0, 2, 4], [1, 0, 1]], 3, 101))  # swaps, zero column
@example(([[2**64 + 1, -2**63 - 5, 1], [P_PAST - 1, 1, 0]], 3, P_PAST))
def test_int_nullspace_matches_matrix_nullspace(case):
    rows, ncols, p = case
    expected = gauss_jordan.nullspace(rows, ncols, GF(p))
    got = int_nullspace_mod_p(rows, ncols, p)
    assert got == [[c.val for c in v] for v in expected]
    # Python ints: np.int64 would wrap in the CRT of modular_nullspace
    assert all(type(c) is int for v in got for c in v)


def test_int_nullspace_modulus_bounds():
    # residues near p: every product is close to (p - 1)^2, below 2^63 at
    # P_TOP and past it from P_PAST on, where the residues are Python ints
    for p in (P_TOP, P_PAST, 2**61 - 1):
        rows = [[2, p - 1, p - 2], [p - 3, p - 5, p - 1]]
        expected = gauss_jordan.nullspace(rows, 3, GF(p))
        assert int_nullspace_mod_p(rows, 3, p) == [[c.val for c in v]
                                                   for v in expected]
    for p in (1, 0, -7):
        with pytest.raises(ValueError, match="out of range"):
            int_nullspace_mod_p(rows, 3, p)


@st.composite
def _scalar_matrices(draw):
    ring = draw(st.sampled_from([QQ, GF(2), GF(7), GF(P_PAST)]))
    ncols = draw(st.integers(1, 5))
    if ring == QQ:
        entry = st.one_of(st.just(0), st.builds(
            Fraction, st.integers(-2**40, 2**40), st.integers(1, 2**20)))
    else:
        entry = st.builds(Fp, _sparse_ints(10), st.just(ring[1]))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=4))
    return rows, ncols, ring


@settings(max_examples=120, deadline=None)
@given(_scalar_matrices())
@example(([], 2, QQ))
@example(([[Fraction(1, 3), Fraction(1, 2)], [2, 3]], 2, QQ))  # rank 1
def test_nullspace_matches_the_oracle(case):
    # QQ rows are scaled to integers row by row; GF(p) residues come back
    # as Fp, past int64 too
    rows, ncols, ring = case
    got = nullspace(rows, ncols, ring)
    assert got == gauss_jordan.nullspace(rows, ncols, ring)
    assert all(as_scalar(c, ring) == c and type(as_scalar(c, ring)) is type(c)
               for v in got for c in v)


def _leibniz(rows, ring):
    total = ring_zero(ring)
    for perm in permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        term = ring_zero(ring) + 1
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term * (-1) ** inversions
    return total


@st.composite
def _square_matrices(draw):
    ring = draw(st.sampled_from([QQ, GF(2), GF(5), GF(7)]))
    n = draw(st.integers(0, 4))
    if ring == QQ:
        entry = st.one_of(st.just(Fraction(0)),
                          st.builds(Fraction, st.integers(-5, 5),
                                    st.integers(1, 3)))
    else:
        entry = st.builds(Fp, _sparse_ints(10), st.just(ring[1]))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return rows, ring


@settings(max_examples=200, deadline=None)
@given(_square_matrices())
@example(([[0, 1], [1, 0]], QQ))                   # one swap
@example(([[0, 1, 0], [0, 0, 1], [1, 0, 0]], GF(7)))  # two swaps
@example(([[0, 2, 1], [3, 0, 0], [0, 0, 5]], QQ))
@example(([[1, 2], [2, 4]], GF(7)))                # dependent rows
@example(([[0, 1], [0, 3]], QQ))                   # zero column
@example(([[0, 0], [0, 0]], GF(5)))                # every Laplace term dies
def test_det_matches_leibniz(case):
    # poly_det on scalar entries, in the entries' ring
    rows, ring = case
    assume(rows)
    entries = [[as_scalar(c, ring) for c in row] for row in rows]
    got, want = poly_det(entries), _leibniz(entries, ring)
    assert got == want and type(got) is type(as_scalar(want, ring))


@settings(max_examples=150, deadline=None)
@given(_square_matrices())
@example(([[0, 1], [1, 0]], QQ))
@example(([[0, 0], [0, 0]], GF(5)))                # every Laplace term dies
def test_scalar_poly_det_matches_matrix_det(case):
    # poly_det agrees with Gauss-Jordan elimination: zero exactly when the
    # rank drops, and otherwise the inverse has the reciprocal determinant
    rows, ring = case
    assume(rows)
    entries = [[as_scalar(c, ring) for c in row] for row in rows]
    got = poly_det(entries)
    assert type(got) is type(as_scalar(got, ring))
    if gauss_jordan.rank(rows, len(rows), ring) < len(rows):
        assert got == 0
    else:
        assert got * poly_det(gauss_jordan.inverse(rows, ring)) == 1


# -- the multi-modular kernel ----------------------------------------------

P1, P2, P3 = 2**31 - 1, 2147483629, 2147483587   # the first primes below 2^31


def _modular_kernel(rows, ncols, certify=None):
    """modular_nullspace with the exact check A v = 0 over QQ by default;
    returns (basis, primes tried, bases offered to the check)."""
    offered = []

    def check(basis):
        offered.append(basis)
        if certify is not None:
            return certify(basis)
        return not any(sum(a * x for a, x in zip(row, v))
                       for v in basis for row in rows)

    with mock.patch.object(linalg, "int_nullspace_mod_p",
                           wraps=linalg.int_nullspace_mod_p) as spy:
        basis = modular_nullspace(rows, ncols, check)
    return basis, [c.args[2] for c in spy.call_args_list], offered


def test_first_primes_below_word_size():
    assert all(is_prime(p) for p in (P1, P2, P3))
    assert not any(is_prime(q) for q in range(P3 + 2, P1, 2) if q != P2)


@st.composite
def _wide_int_matrices(draw):
    # kernel entries are quotients of minors of entries up to 2^40, mostly
    # beyond what one 31-bit prime reconstructs (|n|, d <= 2^15)
    ncols = draw(st.integers(1, 5))
    big = st.integers(-2**40, 2**40)
    rows = draw(st.lists(st.lists(st.one_of(st.just(0), big),
                                  min_size=ncols, max_size=ncols),
                         min_size=1, max_size=4))
    return rows, ncols


@settings(max_examples=120, deadline=None)
@given(_wide_int_matrices())
@example(([[2**28 - 3, 2**27 + 7, 1]], 3))         # needs two primes
@example(([[3**25, 0, 5**17], [7**14, 11**11, 0]], 3))
@example(([[0, 0]], 2))
def test_modular_nullspace_matches_matrix_nullspace(case):
    rows, ncols = case
    basis, _, _ = _modular_kernel(rows, ncols)
    assert basis == gauss_jordan.nullspace(rows, ncols)


def test_modular_nullspace_combines_primes():
    # kernel entries -(2^27 + 7)/(2^28 - 3) and -1/(2^28 - 3) are past the
    # reach of one 31-bit prime (|n|, d <= 2^15); two primes reconstruct them
    rows = [[2**28 - 3, 2**27 + 7, 1]]
    basis, asked, offered = _modular_kernel(rows, 3)
    assert asked == [P1, P2]
    assert basis == [[Fraction(-(2**27 + 7), 2**28 - 3), 1, 0],
                     [Fraction(-1, 2**28 - 3), 0, 1]]
    # mod P1 alone, reconstruction finds small wrong fractions (113/46 for
    # the first entry), which the certificate refuses
    assert len(offered) == 2 and offered[0] != basis and offered[1] == basis


@pytest.mark.parametrize("rows,kernel", [
    # rank 2 over QQ, rank 1 mod P1: the 2-dimensional kernel mod P1
    ([[P1, 1, 1], [0, 1, 1]], [[0, -1, 1]]),
    # same rank mod P1 but pivots (1, 2) in place of (0, 1)
    ([[P1, 1, 1], [0, 1, 0]], [[Fraction(-1, P1), 0, 1]]),
])
def test_modular_nullspace_drops_unlucky_prime(rows, kernel):
    basis, asked, offered = _modular_kernel(rows, 3)
    assert basis == kernel == gauss_jordan.nullspace(rows, 3)
    assert asked[0] == P1
    # what P1 gave is refused, and no later basis carries a trace of it:
    # combining it would have changed the shape or the entries
    assert offered[0] != kernel
    assert offered[-1] == kernel


def test_modular_nullspace_stops_at_the_bound():
    # 2 H^2 = 28: the first prime already passes it
    basis, asked, _ = _modular_kernel([[1, 2, 3]], 3)
    assert basis == [[-2, 1, 0], [-3, 0, 1]] and asked == [P1]
    basis, asked, _ = _modular_kernel([[1, 2, 3]], 3, lambda b: False)
    assert basis is None and asked == [P1]
    # 2 H^2 = 2^81 + 4, first passed by P1 * P2 * P3
    basis, asked, _ = _modular_kernel([[2**40, 1, 1]], 3, lambda b: False)
    assert basis is None and asked == [P1, P2, P3]


def test_poly_det_takes_int_and_mixed_entries():
    assert poly_det([[2, 1], [1, 1]]) == 1
    assert poly_det([[0, 0], [3, 4]]) == 0
    x, y = poly_ring(("x", "y"), QQ)
    assert poly_det([[x, 1], [2, y]]) == x * y - 2
    assert poly_det([[0, x], [y, 0]]) == -(x * y)


def _int_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]
