from fractions import Fraction
from operator import add, mul, sub, truediv

import numpy as np
import pytest
from hypothesis import given, strategies as st

from comitant.poly import Poly
from comitant.scalars import (GF, Fp, QQ, RingMismatchError, as_scalar,
                              exact_div, is_prime, rational_content,
                              rational_reconstruct, rational_to_fp, ring_one,
                              ring_zero)


def test_field_arithmetic_mod_seven():
    a = Fp(3, 7)
    b = Fp(5, 7)
    assert (a + b).val == 1
    assert (a - b).val == 5
    assert (a * b).val == 1
    assert (a / b).val == 3 * 3 % 7  # 5^-1 = 3
    assert (-a).val == 4
    assert (a**6).val == 1


def test_integer_mixing():
    a = Fp(3, 7)
    assert (a + 11).val == 0
    assert (2 - a).val == 6
    assert (2 * a).val == 6
    assert 1 / a == Fp(5, 7)
    assert a == 10 and 10 == a


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        Fp(0, 7).inverse()


def test_cross_modulus_rejected():
    with pytest.raises(RingMismatchError):
        Fp(1, 7) + Fp(1, 11)


@pytest.mark.parametrize("op, want", [(add, 0), (sub, 6), (mul, 5)])
@pytest.mark.parametrize("k", [4, np.int64(4), np.int8(4), Fp(4, 7)])
def test_fp_operators_take_any_integer_in_both_orders(op, want, k):
    a = Fp(3, 7)
    for got, expect in ((op(a, k), want), (op(k, a), op(4, 3))):
        assert type(got) is Fp and type(got.val) is int
        assert got == Fp(expect, 7)
    assert a == np.int64(10) and a != np.int64(4)


@pytest.mark.parametrize("op", [add, sub, mul])
def test_fp_operators_defer_to_a_poly(op):
    # Fp op Poly used to raise RingMismatchError; now the Poly answers
    y = Poly.variable("y", ("y",), GF(7))
    three = Poly.constant(3, ("y",), GF(7))
    assert op(Fp(3, 7), y) == op(three, y)
    assert op(y, Fp(3, 7)) == op(y, three)


@pytest.mark.parametrize("op", [add, sub, mul, truediv])
def test_fp_operators_refuse_other_scalars(op):
    a = Fp(3, 7)
    for other in (Fraction(1, 2), Fp(1, 11)):
        for left, right in ((a, other), (other, a)):
            with pytest.raises(RingMismatchError):
                op(left, right)
    # a float is no scalar of the package: a plain TypeError, not a ring
    # mismatch
    for left, right in ((a, 0.5), (0.5, a)):
        with pytest.raises(TypeError) as err:
            op(left, right)
        assert err.type is TypeError


def test_ring_tags():
    assert GF(7) == ("Fp", 7)
    assert ring_zero(GF(5)) == Fp(0, 5)
    assert ring_one(QQ) == Fraction(1)


def test_as_scalar_conversions():
    assert as_scalar(3, QQ) == Fraction(3)
    # an integral rational is a Python int, any other a reduced Fraction
    for value, want in ((3, 3), (Fraction(6, 2), 3), (True, 1),
                        (np.int64(-4), -4), (Fraction(6, 4), Fraction(3, 2))):
        got = as_scalar(value, QQ)
        assert got == want and type(got) is type(want)
    assert type(ring_zero(QQ)) is int and type(ring_one(QQ)) is int
    # over GF(p) any integer is read as a Python int and reduced
    for value, want in ((3, 3), (True, 1), (np.int64(10), 3),
                        (np.int64(-4), 3), (Fp(5, 7), 5)):
        got = as_scalar(value, GF(7))
        assert type(got) is Fp and type(got.val) is int and got == Fp(want, 7)
    # proper fractions need the explicit reduction, not silent coercion
    assert rational_to_fp(Fraction(1, 2), 7) == Fp(4, 7)
    with pytest.raises(RingMismatchError):
        as_scalar(Fraction(1, 2), GF(7))
    with pytest.raises(RingMismatchError):
        as_scalar(Fp(1, 7), GF(11))


def test_numpy_integers_become_python_ints():
    # an np.int64 kept inside a coefficient would wrap at 2^63
    big = np.int64(2**62)
    c = as_scalar(big, QQ)
    assert type(c) is int and c * 4 == 2**64
    f = as_scalar(Fraction(big, 3), QQ)      # Fraction keeps np numerators
    assert type(f.numerator) is int and f * 3 * 4 == 2**64
    square = Poly.constant(big, ("x",), QQ) ** 2
    assert square.terms == {(0,): 2**124}
    assert type(square.terms[(0,)]) is int


@pytest.mark.parametrize("a, b, want", [
    (6, 3, 2),                                   # int / int, integral
    (-7, 2, Fraction(-7, 2)),                    # int / int, not integral
    (1, -3, Fraction(-1, 3)),
    (0, 5, 0),
    (Fraction(3, 2), 3, Fraction(1, 2)),         # Fraction / int
    (Fraction(3, 2), Fraction(1, 2), 3),         # integral Fraction quotient
    (4, Fraction(2, 3), 6),
    (np.int64(9), np.int64(3), 3),               # numpy ints, exactly
    (Fp(3, 7), Fp(5, 7), Fp(2, 7)),              # Fp / Fp
    (Fp(3, 7), 2, Fp(5, 7)),                     # Fp / int
    (1, Fp(3, 7), Fp(5, 7)),                     # int / Fp
])
def test_exact_div(a, b, want):
    got = exact_div(a, b)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("a, b", [(1, 0), (Fraction(1, 2), 0),
                                  (2, Fraction(0)), (Fp(1, 7), Fp(0, 7)),
                                  (Fp(1, 7), 7)])
def test_exact_div_by_zero(a, b):
    with pytest.raises(ZeroDivisionError):
        exact_div(a, b)


def test_exact_div_refuses_mixed_rings():
    with pytest.raises(RingMismatchError):
        exact_div(Fraction(1, 2), Fp(1, 7))


def test_rational_to_fp_denominator_divisible():
    with pytest.raises(ZeroDivisionError):
        rational_to_fp(Fraction(1, 7), 7)


@given(st.integers(-50, 50), st.integers(1, 50))
def test_rational_reconstruct_round_trip(num, den):
    # any fraction with numerator and denominator below sqrt(m/2) comes back
    m = 2**31 - 1
    f = Fraction(num, den)
    residue = f.numerator * pow(f.denominator, -1, m) % m
    assert rational_reconstruct(residue, m) == f


def test_rational_reconstruct_failure_is_none():
    # 37 mod 101 is not congruent to any p/q with |p|, q <= sqrt(101/2)
    assert rational_reconstruct(37, 101) is None


def test_rational_reconstruct_bound_is_exact():
    # m // 2 = k^2 - 1 rounds up to k^2 as a float, but the bound is k - 1,
    # so the residue k itself (k/1 with k > bound) must not come back
    k = 2**30 + 1
    assert rational_reconstruct(k, 2 * (k * k - 1)) is None


def _trial_division(n):
    if n < 2:
        return False
    q = 2
    while q * q <= n:
        if n % q == 0:
            return False
        q += 1
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert all(is_prime(n) == _trial_division(n) for n in range(20000))


def test_is_prime_is_exact_on_hard_cases():
    # Carmichael numbers fool the Fermat test, not Miller-Rabin
    assert not is_prime(561) and not is_prime(41041)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**61 - 1) * (2**13 - 1))
    # the least strong pseudoprime to the twelve bases 2..37: base 41 is
    # what makes the test exact up to 3.3e24
    assert not is_prime(318665857834031151167461)
    with pytest.raises(ValueError, match="exact primality range"):
        is_prime(3317044064679887385961981)


def test_rational_content():
    assert rational_content([Fraction(6, 5), Fraction(-9, 10)]) \
        == Fraction(3, 10)
    assert rational_content([4, -6, 0]) == 2
    # nothing to divide out: the empty and the all-zero case give 1
    assert rational_content([]) == 1
    assert rational_content([Fraction(0), 0]) == 1
