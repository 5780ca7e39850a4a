from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from comitant.scalars import (GF, Fp, QQ, RingMismatchError, as_scalar,
                              is_prime, rational_content, rational_reconstruct,
                              rational_to_fp, ring_one, ring_zero)


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


def test_ring_tags():
    assert GF(7) == ("Fp", 7)
    assert ring_zero(GF(5)) == Fp(0, 5)
    assert ring_one(QQ) == Fraction(1)


def test_as_scalar_conversions():
    assert as_scalar(3, QQ) == Fraction(3)
    assert as_scalar(3, GF(7)) == Fp(3, 7)
    # proper fractions need the explicit reduction, not silent coercion
    assert rational_to_fp(Fraction(1, 2), 7) == Fp(4, 7)
    with pytest.raises(RingMismatchError):
        as_scalar(Fraction(1, 2), GF(7))
    with pytest.raises(RingMismatchError):
        as_scalar(Fp(1, 7), GF(11))


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
