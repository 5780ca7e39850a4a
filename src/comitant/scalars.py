"""Exact scalars: arbitrary-precision rationals and prime-field elements.

A rational is a Python ``int`` when it is integral and a reduced
``fractions.Fraction`` (positive denominator, int numerator and denominator)
otherwise.  Mixed int/Fraction arithmetic is exact and ``hash(3) ==
hash(Fraction(3))``, so the two representations compare, hash and print
alike; ints just skip the gcd bookkeeping of a Fraction.  Every true
division goes through `exact_div`, so no float can arise from two ints.
Prime fields get a tiny value type ``Fp`` carrying its modulus; mixing
moduli, or mixing Fp with Fraction, is a hard error rather than a coercion.
Every coefficient ring in the package is identified by a hashable tag:
``QQ`` for the rationals, ``GF(p)`` for a prime field.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from numbers import Integral, Rational
from operator import index


class RingMismatchError(TypeError):
    """Raised when an operation mixes scalars from different rings."""


QQ = ("Q",)


def GF(p: int) -> tuple:
    """Ring tag for the prime field with p elements."""
    if p < 2:
        raise ValueError(f"modulus must be a prime >= 2, got {p}")
    return ("Fp", p)


class Fp:
    """An element of the prime field Z/pZ.

    The modulus travels with the value; arithmetic between elements with
    different moduli raises RingMismatchError.
    """

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _residue(self, other):
        """other as an int to reduce mod p, or None when other is no
        scalar (a Poly, a float): the operator then returns NotImplemented.
        Any `numbers.Integral` is read through `operator.index`; a
        non-integral rational or another modulus is a RingMismatchError."""
        if isinstance(other, Fp):
            if other.p != self.p:
                raise RingMismatchError(
                    f"cannot combine elements of F_{self.p} and F_{other.p}")
            return other.val
        if isinstance(other, Integral):
            return index(other)
        if isinstance(other, Rational):
            raise RingMismatchError(
                f"cannot combine Fp({self.p}) with {type(other).__name__}")
        return None

    def __add__(self, other):
        v = self._residue(other)
        return NotImplemented if v is None else Fp(self.val + v, self.p)

    __radd__ = __add__

    def __neg__(self):
        return Fp(-self.val, self.p)

    def __sub__(self, other):
        v = self._residue(other)
        return NotImplemented if v is None else Fp(self.val - v, self.p)

    def __rsub__(self, other):
        v = self._residue(other)
        return NotImplemented if v is None else Fp(v - self.val, self.p)

    def __mul__(self, other):
        v = self._residue(other)
        return NotImplemented if v is None else Fp(self.val * v, self.p)

    __rmul__ = __mul__

    def inverse(self) -> "Fp":
        if self.val == 0:
            raise ZeroDivisionError(f"0 is not invertible in F_{self.p}")
        return Fp(pow(self.val, -1, self.p), self.p)

    def __truediv__(self, other):
        v = self._residue(other)
        return NotImplemented if v is None else self * Fp(v, self.p).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return Fp(pow(self.val, e, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.val == other.val
        if isinstance(other, Integral):
            return self.val == index(other) % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"Fp({self.val}, {self.p})"

    def __str__(self):
        return str(self.val)


# Miller-Rabin to the first 13 prime bases (2..41) decides primality
# exactly below this bound (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Exact primality of p < 3.3e24 by deterministic Miller-Rabin.

    Raises ValueError for larger p, where these bases no longer decide.
    """
    if p >= _MR_BOUND:
        raise ValueError(f"{p} is beyond the exact primality range "
                         f"(below {_MR_BOUND})")
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def ring_zero(ring: tuple):
    return 0 if ring == QQ else Fp(0, ring[1])


def ring_one(ring: tuple):
    return 1 if ring == QQ else Fp(1, ring[1])


def _rational(c):
    """c as a QQ scalar: a Python int when integral, else a reduced
    Fraction of Python ints (numpy integers would wrap at 2^63)."""
    if type(c) is not Fraction:
        if isinstance(c, Integral):
            return index(c)
        c = Fraction(c)
    num, den = c.numerator, c.denominator
    if type(num) is not int or type(den) is not int:
        num, den = index(num), index(den)
        c = Fraction(num, den)
    return num if den == 1 else c


def as_scalar(c, ring: tuple):
    """Coerce an integer/Fraction/Fp into the given ring; reject
    cross-ring input.  Any `numbers.Integral` (a numpy integer too) is read
    as a Python int, and over QQ an integral value comes back as one."""
    if ring == QQ:
        if type(c) is int:
            return c
        if isinstance(c, Fp):
            raise RingMismatchError("prime-field scalar in a rational context")
        return _rational(c)
    p = ring[1]
    if isinstance(c, Fp):
        if c.p != p:
            raise RingMismatchError(f"F_{c.p} scalar in an F_{p} context")
        return c
    if isinstance(c, Integral):
        return Fp(index(c), p)
    raise RingMismatchError(f"cannot place {c!r} into F_{p}")


def exact_div(a, b):
    """a / b without a float: the one true division of the package.

    Two ints give their int quotient when b divides a and a Fraction
    otherwise; an Fp on either side divides in its field; any other
    rationals give a Fraction, as an int when integral.  A zero b raises
    ZeroDivisionError."""
    if isinstance(a, Fp) or isinstance(b, Fp):
        return a / b
    if type(a) is not int or type(b) is not int:
        a, b = _rational(a), _rational(b)
        if type(a) is not int or type(b) is not int:
            q = a / b
            return q.numerator if q.denominator == 1 else q
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def rational_to_fp(c, p: int) -> Fp:
    """Reduce a rational mod p.  Fails if the denominator vanishes mod p."""
    if type(c) is int:
        return Fp(c, p)
    c = _rational(c)
    if c.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {c} vanishes mod {p}")
    return Fp(c.numerator * pow(c.denominator, -1, p), p)


def rational_content(values):
    """The gcd of the numerators over the lcm of the denominators: the
    positive c with every value / c an integer and those integers coprime.
    1 when there are no values or all of them are zero.  The two are
    coprime, so c is an int exactly when the lcm is 1."""
    num, den = 0, 1
    for c in values:
        num = gcd(num, c.numerator)
        den = lcm(den, c.denominator)
    if not num:
        return 1
    return num if den == 1 else Fraction(num, den)


def rational_reconstruct(a: int, m: int):
    """Recover n/d from a mod m with |n|, d <= sqrt(m/2) (Wang's algorithm).

    Returns None when no such fraction exists.
    """
    a %= m
    bound = isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    num, den = r1, s1
    if den < 0:
        num, den = -num, -den
    if gcd(num, den) != 1:
        return None
    return num if den == 1 else Fraction(num, den)
