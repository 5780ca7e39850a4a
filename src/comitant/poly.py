"""Sparse multivariate polynomials with exact coefficients.

A Poly is a mapping from exponent vectors (one entry per declared variable)
to nonzero scalars, over a fixed coefficient ring (QQ or GF(p)).  Values are
immutable by convention: every operation returns a fresh Poly.  Display order
is graded lexicographic in the declared variable order, so printing is
deterministic and byte-reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from math import lcm as _lcm
from numbers import Integral
from operator import add, ge, mul, sub

from .scalars import (GF, QQ, Fp, RingMismatchError, as_scalar, exact_div,
                      is_prime, rational_content, rational_to_fp, ring_one,
                      ring_zero)


# the operators' scalar operands (int ahead of the slower abstract check);
# any other non-Poly operand gets NotImplemented, so a float is a TypeError
_SCALARS = (int, Fraction, Fp, Integral)


class Poly:
    __slots__ = ("vars", "ring", "terms")

    def __init__(self, vars: tuple, terms: dict, ring: tuple = QQ):
        self.vars = tuple(vars)
        self.ring = ring
        if not all(terms.values()):
            terms = {e: c for e, c in terms.items() if c}
        self.terms = terms  # exponent tuple -> nonzero scalar

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, vars, ring=QQ) -> "Poly":
        return cls(tuple(vars), {}, ring)

    @classmethod
    def constant(cls, c, vars, ring=QQ) -> "Poly":
        c = as_scalar(c, ring)
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): c}, ring)

    @classmethod
    def variable(cls, name: str, vars, ring=QQ) -> "Poly":
        vars = tuple(vars)
        i = vars.index(name)
        e = [0] * len(vars)
        e[i] = 1
        return cls(vars, {tuple(e): ring_one(ring)}, ring)

    @classmethod
    def monomial(cls, c, exps, vars, ring=QQ) -> "Poly":
        c = as_scalar(c, ring)
        vars = tuple(vars)
        if len(exps) != len(vars):
            raise ValueError("exponent vector length does not match variables")
        return cls(vars, {tuple(exps): c}, ring)

    # -- bookkeeping ---------------------------------------------------

    def _compat(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise RingMismatchError(
                f"variable mismatch: {self.vars} vs {other.vars}")
        if self.ring != other.ring:
            raise RingMismatchError(
                f"coefficient ring mismatch: {self.ring} vs {other.ring}")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, indices) -> int:
        """Max combined exponent over the given variable positions (-1 if zero)."""
        if not self.terms:
            return -1
        return max(sum(e[i] for i in indices) for e in self.terms)

    def is_homogeneous(self, indices=None) -> bool:
        """Homogeneous in the given variable subset (all variables by default)."""
        if not self.terms:
            return True
        if indices is None:
            degs = {sum(e) for e in self.terms}
        else:
            degs = {sum(e[i] for i in indices) for e in self.terms}
        return len(degs) == 1

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.vars == other.vars and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, self.ring, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = Poly.constant(other, self.vars, self.ring)
        self._compat(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            terms[e] = c if s is None else s + c
        return Poly(self.vars, terms, self.ring)  # drops what cancelled

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()}, self.ring)

    def __sub__(self, other):
        if not isinstance(other, (Poly, *_SCALARS)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            c = as_scalar(other, self.ring)
            if not c:
                return Poly.zero(self.vars, self.ring)
            if type(c) is Fraction:     # keep integral products as ints
                return Poly(self.vars, {e: as_scalar(v * c, QQ)
                                        for e, v in self.terms.items()}, QQ)
            return Poly(self.vars,
                        {e: v * c for e, v in self.terms.items()}, self.ring)
        self._compat(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return Poly(self.vars, out, self.ring)  # drops what cancelled

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.constant(1, self.vars, self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def scale_div(self, c) -> "Poly":
        """Exact division by a nonzero scalar."""
        c = as_scalar(c, self.ring)
        if not c:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * exact_div(1, c)

    # -- calculus and substitution --------------------------------------

    def partial(self, var_index: int) -> "Poly":
        """Formal partial derivative with respect to variable var_index."""
        out = {}
        for e, c in self.terms.items():
            k = e[var_index]
            if k == 0:
                continue
            e2 = list(e)
            e2[var_index] = k - 1
            out[tuple(e2)] = c * k
        # drops the terms whose exponent the characteristic divides
        return Poly(self.vars, out, self.ring)

    def substitute(self, images: list) -> "Poly":
        """Substitute images[i] for variable i; all images share one ring.

        The result lives in the images' variable set, so this also performs
        ring/variable migration.

        The work is done on plain integers.  Over QQ each image is scaled to
        integer numerators N_i = D_i * images[i], D_i the lcm of its
        denominators; over GF(p) its residues are used.  A target exponent
        vector is packed into one int in radix B = 1 + deg(self) * max
        deg(images[i]), which bounds every exponent of every product, so a
        monomial product is one integer add and no digit carries.  Each
        term c * prod(x_i^k_i) contributes c * (L / (den(c) * prod(D_i^k_i)))
        * prod(N_i^k_i) over one common denominator L.

        An image with at most one term (a scalar, a variable, a monomial such
        as 6*t1, or zero) folds: N_i = n_i * m_i puts n_i^k_i (cached per
        image) into the term's integer and k_i * pack(m_i) into a packed
        exponent shift, and a zero image makes the integer 0, which drops
        the term.  One pass over each term's nonzero exponents does the fold
        and the denominator.  Only images with two or more terms (linear
        forms, polar coefficients) are multiplied as polynomials, from
        cached powers of them; the last nonzero factor is multiplied
        straight into the accumulator.
        Every surviving monomial becomes num // L when L divides num, one
        Fraction(num, L) otherwise (or one Fp) at the end.
        """
        if len(images) != len(self.vars):
            raise ValueError(
                f"need {len(self.vars)} images, got {len(images)}")
        tvars, tring = ((images[0].vars, images[0].ring) if images
                        else ((), self.ring))
        for im in images:
            if im.vars != tvars or im.ring != tring:
                raise RingMismatchError("substitution images disagree on ring")
        p = None if tring == QQ else tring[1]
        # no exponent of a term, and no digit of a product, passes
        # top * max deg(images[i]); a zero image counts as degree 0
        top = max(map(sum, self.terms), default=0)
        radix = 1 + top * max([0] + [im.total_degree() for im in images])

        def pack(f):
            key = 0
            for x in f:
                key = key * radix + x
            return key

        # per variable: the powers n_i^k of a folded image (n_i = 0 for the
        # zero image; None for a multi-term image), D_i^k (None when
        # D_i = 1) and pack(m_i)
        folds, dpows, shifts = [], [], []
        multi, powers = [], []
        for i, im in enumerate(images):
            d = 1
            if p is None:
                for c in im.terms.values():
                    d = _lcm(d, c.denominator)
                packed = {pack(f): c.numerator * (d // c.denominator)
                          for f, c in im.terms.items()}
            else:
                packed = {pack(f): c.val for f, c in im.terms.items()}
            dpows.append(None if d == 1 else _powers(d, top, None))
            if len(packed) > 1:
                multi.append(i)
                powers.append([{0: 1}, packed])
                folds.append(None)
                shifts.append(0)
            else:
                (shift, n), = packed.items() or ((0, 0),)
                folds.append(_powers(n, top, p))
                shifts.append(shift)
        # the formula's terms as (exponents at the multi-term images,
        # numerator * prod(n_i^k_i), den(c) * prod(D_i^k_i), packed shift)
        terms = []
        common = 1
        for e, c in self.terms.items():
            if p is None:
                c = as_scalar(c, QQ)
                num, den = c.numerator, c.denominator
            else:
                if self.ring == QQ:
                    c = rational_to_fp(c, p)
                num, den = as_scalar(c, tring).val, 1
            shift = 0
            for i, k in enumerate(e):
                if k:
                    fold = folds[i]
                    if fold is not None:
                        num *= fold[k]
                        shift += k * shifts[i]
                    dp = dpows[i]
                    if dp is not None:
                        den *= dp[k]
            if p is not None:
                num %= p
            if not num:
                continue
            terms.append((tuple(map(e.__getitem__, multi)), num, den, shift))
            common = _lcm(common, den)

        def power(i, k):
            pw = powers[i]
            while len(pw) <= k:
                pw.append(_packed_mul(pw[-1], pw[1], p))
            return pw[k]

        # a term's last nonzero factor is multiplied straight into the
        # accumulator
        acc: dict = {}
        get = acc.get
        for em, num, den, shift in terms:
            mult = num * (common // den)
            last = len(em)
            while last and not em[last - 1]:
                last -= 1
            if not last:
                acc[shift] = get(shift, 0) + mult
                continue
            prod = {shift: mult}
            for i in range(last - 1):
                if em[i]:
                    prod = _packed_mul(prod, power(i, em[i]), p)
            factor = power(last - 1, em[last - 1])
            for ea, ca in prod.items():
                for eb, cb in factor.items():
                    key = ea + eb
                    acc[key] = get(key, 0) + ca * cb
        out = {}
        m = len(tvars)
        for key, c in acc.items():
            if p is None:
                if not c:
                    continue
                if common != 1:
                    q, r = divmod(c, common)
                    c = Fraction(c, common) if r else q
            else:
                c %= p
                if not c:
                    continue
                c = Fp(c, p)
            f = [0] * m
            for j in range(m - 1, -1, -1):
                key, f[j] = divmod(key, radix)
            out[tuple(f)] = c
        return Poly(tvars, out, tring)

    def rename_vars(self, new_vars) -> "Poly":
        new_vars = tuple(new_vars)
        if len(new_vars) != len(self.vars):
            raise ValueError("variable count mismatch")
        return Poly(new_vars, dict(self.terms), self.ring)

    def extend_to(self, vars) -> "Poly":
        """View this polynomial inside a larger variable list (superset)."""
        vars = tuple(vars)
        pos = [vars.index(v) for v in self.vars]
        n = len(vars)
        out = {}
        for e, c in self.terms.items():
            e2 = [0] * n
            for i, k in enumerate(e):
                e2[pos[i]] = k
            out[tuple(e2)] = c
        return Poly(vars, out, self.ring)

    def evaluate(self, values: list):
        """Full evaluation at scalars (one value per variable), term by term
        on plain integers.

        The values are taken in this polynomial's ring, or in GF(p) when one
        of them is an Fp: a QQ polynomial then reduces mod p, as it does
        under `substitute`.  Over QQ each term is an integer over an
        integer, the terms are summed over the lcm of those, and the value
        is an int when integral.
        """
        if len(values) != len(self.vars):
            raise ValueError("value count mismatch")
        ring = next((GF(v.p) for v in values if isinstance(v, Fp)), self.ring)
        values = [as_scalar(v, ring) for v in values]
        if ring != QQ:
            p = ring[1]
            values = [v.val for v in values]
            acc = 0
            for e, c in self.terms.items():
                c = (rational_to_fp(c, p) if self.ring == QQ
                     else as_scalar(c, ring)).val
                for v, k in zip(values, e):
                    if k:
                        c = c * pow(v, k, p) % p
                acc += c
            return Fp(acc, p)
        fracs = [(v.numerator, v.denominator) for v in values]
        terms = []
        common = 1
        for e, c in self.terms.items():
            num, den = c.numerator, c.denominator
            for (a, b), k in zip(fracs, e):
                if k:
                    num *= a ** k
                    if b != 1:
                        den *= b ** k
            if num:
                terms.append((num, den))
                common = _lcm(common, den)
        return exact_div(sum(num * (common // den) for num, den in terms),
                         common)

    # -- coefficient extraction -----------------------------------------

    def coefficients_in(self, indices) -> dict:
        """Collect as a polynomial in the listed variables.

        Returns {exponent-tuple-over-indices: Poly in the remaining
        variables}.  The remaining variables keep their order.
        """
        indices = list(indices)
        rest = [i for i in range(len(self.vars)) if i not in indices]
        rest_vars = tuple(self.vars[i] for i in rest)
        groups: dict = {}
        for e, c in self.terms.items():
            key = tuple(e[i] for i in indices)
            sub = tuple(e[i] for i in rest)
            groups.setdefault(key, {})[sub] = c
        return {k: Poly(rest_vars, t, self.ring) for k, t in groups.items()}

    # -- normalization ---------------------------------------------------

    def content(self):
        """Positive rational c with self/c integral and primitive (QQ only;
        an int when integral)."""
        if self.ring != QQ:
            raise RingMismatchError("content is defined over QQ")
        return rational_content(self.terms.values())

    def primitive(self) -> "Poly":
        """Scale to integer coefficients with gcd 1 and positive leading term."""
        if not self.terms:
            return self
        c = self.content()
        return self.scale_div(c if self.lead_term()[1] > 0 else -c)

    def lead_term(self):
        """(exponent, coefficient) that is maximal in graded lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_order_key)
        return e, self.terms[e]

    # -- display ----------------------------------------------------------

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda t: _order_key(t[0]),
                      reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(self.vars, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            if self.ring == QQ:
                neg = c < 0
                mag = -c if neg else c
                coeff_str = str(mag)
                body = "*".join(([coeff_str] if mag != 1 or not factors else [])
                                + factors)
            else:
                neg = False
                body = "*".join(([str(c)] if c.val != 1 or not factors else [])
                                + factors)
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({str(self)!r}, vars={self.vars})"


def _packed_mul(a: dict, b: dict, p) -> dict:
    """Product of two polynomials held as {packed exponent: int}, reduced
    mod p unless p is None (integers)."""
    out: dict = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
    if p is None:
        return {e: c for e, c in out.items() if c}
    return {e: r for e, c in out.items() if (r := c % p)}


def _powers(n: int, top: int, p) -> list:
    """[n^0, ..., n^top], reduced mod p unless p is None."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * n if p is None else out[-1] * n % p)
    return out


def _order_key(e: tuple):
    """Graded lex: compare total degree, then the exponent tuple itself."""
    return (sum(e), e)


# -- ring constructors ----------------------------------------------------

def poly_ring(names, ring=QQ):
    """Generators of a polynomial ring: poly_ring("x,y") -> (x, y)."""
    if isinstance(names, str):
        names = tuple(n.strip() for n in names.split(","))
    else:
        names = tuple(names)
    return tuple(Poly.variable(n, names, ring) for n in names)


def unwrap(p: Poly):
    """A polynomial in no variables collapses to its scalar value; any other
    polynomial passes through."""
    return p if p.vars else p.terms.get((), ring_zero(p.ring))


def constant_ratio(reference: Poly, value: Poly):
    """The scalar c with value == c * reference, or None when there is none.

    A zero side gives None, as do different supports and coefficients that
    are not proportional, so a returned c is never zero."""
    reference._compat(value)
    if not reference or reference.terms.keys() != value.terms.keys():
        return None
    e, lead = next(iter(reference.terms.items()))
    c = exact_div(value.terms[e], lead)
    if any(value.terms[f] != c * r for f, r in reference.terms.items()):
        return None
    return c


# -- exact division and gcd ------------------------------------------------

def divexact(p: Poly, d: Poly) -> Poly:
    """Exact multivariate division; raises ValueError if d does not divide p.

    One pass in graded lex order.  An exponent e is keyed by one int,
    sum(e) as its top digit over its entries, in radix B = 1 + max(deg p,
    deg d).  No remainder term has total degree past deg p, so no digit
    passes B - 1, the key of a product is the sum of the keys, and the int
    order is the graded lex order.  The remainder is one dict, with a heap
    of its keys, largest first.  A popped term that survived cancellation
    must be divisible by d's lead; it gives one quotient term, and that
    term times d's tail is subtracted in place.  A key is pushed when it
    enters the dict, always below the one just popped, so it is pushed
    once.  The quotient is the one Poly built.
    """
    p._compat(d)
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    radix = 1 + max(p.total_degree(), d.total_degree())
    weights = [radix**i for i in range(len(p.vars), -1, -1)]

    def key(e):
        return sum(map(mul, (sum(e), *e), weights))

    de, dc = d.lead_term()
    dkey = key(de)
    tail = [(key(e), e, c) for e, c in d.terms.items() if e != de]
    exps = {key(e): e for e in p.terms}
    rem = dict(zip(exps, p.terms.values()))
    heap = [-k for k in rem]
    heapify(heap)
    out = {}
    while heap:
        k = -heappop(heap)
        rc = rem.pop(k)
        e = exps.pop(k)
        if not rc:
            continue
        if not all(map(ge, e, de)):
            raise ValueError("inexact polynomial division")
        qe = tuple(map(sub, e, de))
        qc = out[qe] = exact_div(rc, dc)
        qkey = k - dkey
        for tkey, te, tc in tail:
            k = qkey + tkey
            s = rem.get(k)
            if s is None:
                rem[k] = -qc * tc
                exps[k] = tuple(map(add, qe, te))
                heappush(heap, -k)
            else:
                rem[k] = s - qc * tc
    return Poly(p.vars, out, p.ring)


def univariate_gcd(p: Poly, q: Poly) -> Poly:
    """Gcd of two effectively-univariate polynomials.

    The gcd runs once, on the coefficient lists in the first active
    variable x_i (`_euclid`).  With a second active variable x_j both
    inputs must be homogeneous in (x_i, x_j), else ValueError: setting
    x_j = 1 loses k degrees of each form, k its power of x_j, so the gcd
    is x_j^min(k) times the homogenized univariate gcd.  The result goes
    through `normalize_jointly`: primitive-integer over QQ, monic over a
    prime field.
    """
    p._compat(q)
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if not (p and q):
        return normalize_jointly([p or q])[0]
    used = sorted({i for f in (p, q) for e in f.terms
                   for i, k in enumerate(e) if k})
    if len(used) > 2:
        raise ValueError("gcd supports at most two active variables")
    if not used:
        return Poly.constant(1, p.vars, p.ring)
    i, j = used[0], used[-1]
    lost = 0
    if j != i:
        if not (p.is_homogeneous(used) and q.is_homogeneous(used)):
            raise ValueError("gcd in two variables needs forms homogeneous "
                             "in them")
        lost = min(f.degree_in(used) - f.degree_in([i]) for f in (p, q))
    g = _euclid(_dehomogenize(p, i), _dehomogenize(q, i), p.ring)
    terms = {}
    for k, c in enumerate(g):
        e = [0] * len(p.vars)
        e[j] = len(g) - 1 - k + lost    # overwritten when j == i
        e[i] = k
        terms[tuple(e)] = c
    return normalize_jointly([Poly(p.vars, terms, p.ring)])[0]


def normalize_jointly(polys: list, lead: int = 0) -> list:
    """The polynomials divided by one constant: the one that makes the
    leading coefficient of polys[lead] 1 over GF(p), and over QQ makes it
    positive and every coefficient of every entry an integer, all of them
    coprime."""
    c = polys[lead].lead_term()[1]
    if polys[lead].ring == QQ:
        g = rational_content([x for f in polys for x in f.terms.values()])
        c = g if c > 0 else -g
    return [f.scale_div(c) for f in polys]


def _dehomogenize(p: Poly, i: int) -> list:
    """Coefficient list of p as a polynomial in variable i, with every other
    variable set to 1."""
    d = max(e[i] for e in p.terms)
    out = [ring_zero(p.ring)] * (d + 1)
    for e, c in p.terms.items():
        out[e[i]] = out[e[i]] + c
    return out


# The moduli of the gcd over QQ: the eight largest primes below 2^62,
# descending.  `_moduli` goes on below them when a gcd needs more.
_MODULI = tuple(2**62 - k for k in (57, 87, 117, 143, 153, 167, 171, 195))


def _moduli():
    yield from _MODULI
    q = _MODULI[-1] - 2
    while True:
        if is_prime(q):
            yield q
        q -= 2


def _euclid(u: list, v: list, ring) -> list:
    """Gcd, up to a unit, of two nonzero coefficient lists (lowest degree
    first) over the ring.

    Over GF(p) it is Euclid on the residues mod p.  Over QQ it is Brown's
    modular gcd (Geddes, Czapor and Labahn, Algorithms for Computer
    Algebra, 1992, Sec. 7.4) on u and v scaled to primitive integer lists.
    A modulus q from `_moduli` that divides neither leading coefficient
    gives deg gcd_q >= deg gcd, so a constant image proves u and v coprime.
    Otherwise each image is scaled to lead with gamma = gcd(lc u, lc v),
    images of one degree are joined by CRT, and a lower degree restarts
    them.  The symmetric lift's primitive part is returned once it divides
    u and v exactly; by Gauss's lemma that is division in Z[x], and a
    divisor of u and v whose degree bounds the gcd's is the gcd.
    """
    if ring != QQ:
        p = ring[1]
        g = _euclid_mod([c.val for c in u], [c.val for c in v], p)
        return [Fp(c, p) for c in g]
    u, v = _primitive(_integral(u)), _primitive(_integral(v))
    if len(u) == 1 or len(v) == 1:
        return [1]
    gamma = gcd(u[-1], v[-1])
    image = modulus = None
    for q in _moduli():
        if not (u[-1] % q and v[-1] % q):
            continue
        g = _euclid_mod(u, v, q)
        if len(g) == 1:
            return [1]
        if image is not None and len(g) > len(image):
            continue
        g = [c * gamma % q for c in g]
        if image is None or len(g) < len(image):
            image, modulus = g, q
        else:
            # the residue mod modulus * q that is a mod modulus and b mod q
            t = pow(modulus, -1, q)
            image = [a + modulus * ((b - a) * t % q)
                     for a, b in zip(image, g)]
            modulus *= q
        half = modulus // 2
        lifted = _primitive([c - modulus if c > half else c for c in image])
        if _divides(lifted, u) and _divides(lifted, v):
            return lifted


def _euclid_mod(u: list, v: list, q: int) -> list:
    """Monic gcd of two int lists (lowest degree first) mod the prime q,
    neither of them zero mod q."""
    u = _trim([c % q for c in u])
    v = _trim([c % q for c in v])
    while v:
        inv = pow(v[-1], -1, q)
        dv = len(v) - 1
        while len(u) > dv:
            f = u.pop() * inv % q
            if f:
                shift = len(u) - dv
                for k in range(dv):
                    u[shift + k] = (u[shift + k] - f * v[k]) % q
        u, v = v, _trim(u)
    inv = pow(u[-1], -1, q)
    return [c * inv % q for c in u]


def _trim(u):
    while u and not u[-1]:
        u.pop()
    return u


def _integral(u: list) -> list:
    """A list of rationals times the lcm of their denominators."""
    den = _lcm(*(c.denominator for c in u))
    return [c.numerator * (den // c.denominator) for c in u]


def _primitive(u: list) -> list:
    """A nonzero int list divided by the gcd of its entries."""
    g = gcd(*u)
    return u if g == 1 else [c // g for c in u]


def _divides(g: list, u: list) -> bool:
    """Whether the int list g divides u in Z[x] (lowest degree first)."""
    r = list(u)
    dg = len(g) - 1
    lead = g[-1]
    for top in range(len(r) - 1, dg - 1, -1):
        f, rest = divmod(r[top], lead)
        if rest:
            return False
        if f:
            shift = top - dg
            for k in range(dg):
                r[shift + k] -= f * g[k]
    return not any(r[:dg])
