"""Sparse multivariate polynomials with exact coefficients.

A Poly is a mapping from exponent vectors (one entry per declared variable)
to nonzero scalars, over a fixed coefficient ring (QQ or GF(p)).  Values are
immutable by convention: every operation returns a fresh Poly.  Display order
is graded lexicographic in the declared variable order, so printing is
deterministic and byte-reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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


# -- gcd ------------------------------------------------------------------

def gcd_cofactors(*polys) -> tuple:
    """(g, f1/g, ..., fn/g) for two or more effectively-univariate
    polynomials, not all zero, with fi == g * (fi/g) exactly: each
    `_gcd_step` against the gcd so far multiplies its cofactor into the
    cofactors already found.  g is normalized once, by `normalize_jointly`
    (primitive-integer over QQ, monic over a prime field), and the
    cofactors take the same constant when it is not 1."""
    if not any(polys):
        raise ValueError("gcd(0, 0) is undefined")
    g, *cofactors = _gcd_step(polys[0], polys[1])
    for f in polys[2:]:
        g, a, b = _gcd_step(g, f)
        cofactors = [c * a for c in cofactors] + [b]
    n = normalize_jointly([g])[0]
    c = exact_div(g.lead_term()[1], n.lead_term()[1])
    return (n, *(cofactors if c == 1 else (f * c for f in cofactors)))


def _gcd_step(p: Poly, q: Poly) -> tuple:
    """(g, p/g, q/g), g a gcd of p and q up to a unit, from one gcd on the
    coefficient lists in the first active variable x_i (`_euclid`).  With
    a second active variable x_j both inputs must be homogeneous in (x_i,
    x_j), else ValueError: setting x_j = 1 loses k degrees of each form,
    k its power of x_j, so g is x_j^min(k) times the homogenized
    univariate gcd, and each cofactor keeps the rest of its form's power.
    A zero side leaves g the other side, and its own cofactor is 0."""
    p._compat(q)
    one = Poly.constant(1, p.vars, p.ring)
    used = sorted({i for f in (p, q) for e in f.terms
                   for i, k in enumerate(e) if k})
    if not (p and q):
        return (p, one, q) if p else (q, p, one)
    if len(used) > 2:
        raise ValueError("gcd supports at most two active variables")
    if not used:
        return one, p, q
    i, j = used[0], used[-1]
    if j != i and not (p.is_homogeneous(used) and q.is_homogeneous(used)):
        raise ValueError("gcd in two variables needs forms homogeneous "
                         "in them")
    # each form's power of x_j, lost when x_j = 1 (0 when j == i)
    kp, kq = (f.degree_in(used) - f.degree_in([i]) for f in (p, q))
    lost = min(kp, kq)

    def homogenized(u, power):
        terms = {}
        for k, c in enumerate(u):
            e = [0] * len(p.vars)
            e[j] = len(u) - 1 - k + power   # overwritten when j == i
            e[i] = k
            terms[tuple(e)] = c
        return Poly(p.vars, terms, p.ring)

    g, a, b = _euclid(_dehomogenize(p, i), _dehomogenize(q, i), p.ring)
    return (homogenized(g, lost), homogenized(a, kp - lost),
            homogenized(b, kq - lost))


def normalize_jointly(values: list, lead: int = 0) -> list:
    """The entries, Polys or scalars, divided by one constant read off the
    leading coefficient of values[lead] (a scalar is its own): an `Fp` is
    divided by itself, so it becomes 1; over QQ the constant makes it
    positive and every coefficient of every entry an integer, all coprime
    (the unit-normal form of Geddes, Czapor and Labahn, 1992, ch. 2)."""
    c = values[lead]
    if isinstance(c, Poly):
        c = c.lead_term()[1]
    if not isinstance(c, Fp):
        g = rational_content([x for f in values for x in (
            f.terms.values() if isinstance(f, Poly) else (f,))])
        c = g if c > 0 else -g
    return [f.scale_div(c) if isinstance(f, Poly) else exact_div(f, c)
            for f in values]


def _dehomogenize(p: Poly, i: int) -> list:
    """Coefficient list of p as a polynomial in variable i, with every other
    variable set to 1."""
    d = max(e[i] for e in p.terms)
    out = [ring_zero(p.ring)] * (d + 1)
    for e, c in p.terms.items():
        out[e[i]] = out[e[i]] + c
    return out


def _euclid(u: list, v: list, ring) -> tuple:
    """(g, u/g, v/g): g a gcd, up to a unit, of two nonzero coefficient
    lists (lowest degree first) over the ring, with its two cofactors.

    Over GF(p) it is Euclid on the residues mod p.  Over QQ it is the
    heuristic gcd GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7,
    1989; Geddes, Czapor and Labahn, Algorithms for Computer Algebra,
    1992, Sec. 7.7) on u and v written as rationals times primitive
    integer lists U and V.  At an integer xi >= 2 min(|U|, |V|) + 2 the
    balanced xi-adic digits of h = gcd(U(xi), V(xi)) are read back as a
    polynomial, and its primitive part G is the gcd once it divides both
    U and V in Z[x]; those two divisions give the cofactors.  Otherwise
    xi grows; once it passes twice the gcd's largest coefficient times
    the resultant of the cofactors, the candidate is the gcd.
    """
    if ring != QQ:
        p = ring[1]
        u, v = [c.val for c in u], [c.val for c in v]
        g = _euclid_mod(u, v, p)
        return tuple([Fp(c, p) for c in f]
                     for f in (g, _divide(u, g, p), _divide(v, g, p)))
    cu, cv = rational_content(u), rational_content(v)
    u = [c * cu.denominator // cu.numerator for c in u]
    v = [c * cv.denominator // cv.numerator for c in v]
    xi = 2 * min(max(map(abs, u)), max(map(abs, v))) + 2
    while True:
        h = gcd(_value(u, xi), _value(v, xi))
        digits = []
        while h:
            d = h % xi
            if 2 * d > xi:
                d -= xi
            digits.append(d)
            h = (h - d) // xi
        g = _primitive(digits)
        a = _divide(u, g)
        b = None if a is None else _divide(v, g)
        if b is not None:
            return (g, [as_scalar(c * cu, QQ) for c in a],
                    [as_scalar(c * cv, QQ) for c in b])
        xi = xi * 73794 // 27011    # the book's growth factor, about 2.73


def _value(u: list, x: int) -> int:
    """The int list u (lowest degree first) at x, by Horner's rule."""
    out = 0
    for c in reversed(u):
        out = out * x + c
    return out


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


def _primitive(u: list) -> list:
    """A nonzero int list divided by the gcd of its entries."""
    g = gcd(*u)
    return u if g == 1 else [c // g for c in u]


def _divide(u: list, g: list, q: int = 0):
    """The quotient u / g of int lists (lowest degree first) in Z[x], or
    mod the prime q when q is given; None when g leaves a remainder."""
    r = list(u)
    dg = len(g) - 1
    inv = pow(g[-1], -1, q) if q else None
    out = []
    for top in range(len(r) - 1, dg - 1, -1):
        if q:
            f = r[top] * inv % q
        else:
            f, rest = divmod(r[top], g[-1])
            if rest:
                return None
        out.append(f)
        if f:
            shift = top - dg
            for k in range(dg):
                r[shift + k] -= f * g[k]
    if any(c % q if q else c for c in r[:dg]):
        return None
    return out[::-1]
