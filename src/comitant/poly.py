"""Sparse multivariate polynomials with exact coefficients.

A Poly is a mapping from exponent vectors (one entry per declared variable)
to nonzero scalars, over a fixed coefficient ring (QQ or GF(p)).  Values are
immutable by convention: every operation returns a fresh Poly.  Display order
is graded lexicographic in the declared variable order, so printing is
deterministic and byte-reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm as _lcm
from numbers import Integral

from .scalars import (GF, QQ, Fp, RingMismatchError, as_scalar, exact_div,
                      rational_content, rational_to_fp, ring_one, ring_zero)


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
        """Full evaluation at scalars (one value per variable).

        `substitute` on constant images in no variables, with the constant
        read back.  The values are taken in this polynomial's ring, or in
        GF(p) when one of them is an Fp: a QQ polynomial then reduces mod p,
        as it does under `substitute`.
        """
        if len(values) != len(self.vars):
            raise ValueError("value count mismatch")
        ring = next((GF(v.p) for v in values if isinstance(v, Fp)), self.ring)
        return unwrap(self.substitute([Poly.constant(v, (), ring)
                                       for v in values]))

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
    """Exact multivariate division; raises ValueError if d does not divide p."""
    p._compat(d)
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    de, dc = d.lead_term()
    rem = p
    out: dict = {}
    while rem.terms:
        re, rc = rem.lead_term()
        qe = tuple(a - b for a, b in zip(re, de))
        if any(k < 0 for k in qe):
            raise ValueError("inexact polynomial division")
        qc = exact_div(rc, dc)
        out[qe] = qc
        rem = rem - Poly.monomial(qc, qe, p.vars, p.ring) * d
    return Poly(p.vars, out, p.ring)


def _strip_var_powers(p: Poly):
    """Factor out the largest monomial dividing p; returns (exps, cofactor)."""
    n = len(p.vars)
    mins = [min(e[i] for e in p.terms) for i in range(n)]
    if not any(mins):
        return tuple(mins), p
    out = {tuple(a - b for a, b in zip(e, mins)): c for e, c in p.terms.items()}
    return tuple(mins), Poly(p.vars, out, p.ring)


def univariate_gcd(p: Poly, q: Poly) -> Poly:
    """Gcd of two effectively-univariate polynomials.

    Binary homogeneous forms are handled by stripping shared variable powers
    and running the Euclidean algorithm on the dehomogenization; in two
    active variables both inputs must be homogeneous in them, else
    ValueError.  The result is primitive-integer over QQ and monic over a
    prime field.
    """
    p._compat(q)
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero():
        return _gcd_normalize(q)
    if q.is_zero():
        return _gcd_normalize(p)
    used = sorted({i for e in list(p.terms) + list(q.terms)
                   for i, k in enumerate(e) if k})
    if len(used) > 2:
        raise ValueError("gcd supports at most two active variables")
    pm, p1 = _strip_var_powers(p)
    qm, q1 = _strip_var_powers(q)
    shared = tuple(min(a, b) for a, b in zip(pm, qm))
    if len(used) <= 1:
        core = Poly.constant(1, p.vars, p.ring)
        if used:
            i = used[0]
            u = _dehomogenize(p1, i)
            v = _dehomogenize(q1, i)
            g = _euclid(u, v, p.ring)
            core = _from_univariate(g, i, len(p.vars), p.vars, p.ring,
                                    homogenize_at=None)
    else:
        i, j = used
        if any(len({e[i] + e[j] for e in f.terms}) > 1 for f in (p1, q1)):
            raise ValueError("gcd in two variables needs forms homogeneous "
                             "in them")
        u = _dehomogenize(p1, i)
        v = _dehomogenize(q1, i)
        g = _euclid(u, v, p.ring)
        core = _from_univariate(g, i, len(p.vars), p.vars, p.ring,
                                homogenize_at=j)
    mono = Poly.monomial(1, shared, p.vars, p.ring)
    return _gcd_normalize(mono * core)


def _gcd_normalize(p: Poly) -> Poly:
    if p.ring == QQ:
        return p.primitive()
    _, lc = p.lead_term()
    return p.scale_div(lc)


def _dehomogenize(p: Poly, i: int) -> list:
    """Coefficient list of p as a polynomial in variable i, with every other
    variable set to 1."""
    d = max(e[i] for e in p.terms)
    out = [ring_zero(p.ring)] * (d + 1)
    for e, c in p.terms.items():
        out[e[i]] = out[e[i]] + c
    return out


def _from_univariate(coeffs, i, n, vars, ring, homogenize_at):
    deg = len(coeffs) - 1
    terms = {}
    for k, c in enumerate(coeffs):
        if not c:
            continue
        e = [0] * n
        e[i] = k
        if homogenize_at is not None:
            e[homogenize_at] = deg - k
        terms[tuple(e)] = c
    return Poly(tuple(vars), terms, ring)


def _trim(u):
    while u and not u[-1]:
        u.pop()
    return u


def _euclid(u: list, v: list, ring) -> list:
    """Euclidean gcd of univariate coefficient lists over a field."""
    u = _trim(list(u))
    v = _trim(list(v))
    while v:
        inv = exact_div(1, v[-1])
        r = list(u)
        dv = len(v) - 1
        while r and len(r) - 1 >= dv:
            f = r[-1] * inv
            shift = len(r) - 1 - dv
            for k in range(len(v)):
                r[shift + k] = r[shift + k] - f * v[k]
            _trim(r)
        u, v = v, r
    if not u:
        return [ring_one(ring)]
    return u
