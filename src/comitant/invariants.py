"""Invariants of small binary and ternary forms, found rather than transcribed.

The finder works on the universal form with one fresh coefficient variable
per basis monomial.  A linear change of the form's variables induces a
derivation of the coefficient ring; polynomial invariants are exactly the
weight-balanced coefficient polynomials killed by the off-diagonal
derivations D_ij.  An invariant I of weight w = r d / n also obeys
I(sigma a) = sign(sigma)^w I(a) for every permutation sigma of the form
variables: that is I(g f) = det(g)^w I(f) at g = sigma (Sturmfels,
Algorithms in Invariant Theory, 2008, Sec. 4).  So it lies in the
chi-isotypic part, chi = sign^w, of the span of the balanced monomials,
which their signed orbit sums span (an orbit whose stabilizer holds a
sigma with chi(sigma) = -1 sums to zero).  On that part the conjugates
sigma D_01 sigma^-1 = D_sigma(0)sigma(1) reach every D_ij, so D_01 alone
kills exactly the invariants: the finder's matrix is D_01 on the orbit
sums, about half as wide as the balanced monomials are many.

Its kernel is taken modulo word-size primes, eliminated in int64, combined
by CRT and lifted back to QQ by rational reconstruction.  Each lift is
mapped back onto the balanced monomials, brought to the reduced-echelon
basis in their order, which is unique, and *proved*: the generators of
sl_n, D_01 and D_10 and for n = 3 also D_12 and D_21, are applied to it
exactly and must give zero.  The brackets [D_01, D_12] = -D_02 and
[D_21, D_10] = -D_20, checked on every coefficient variable once per
space, carry that to D_02 and D_20.  Primes are added until the proof
holds.  The basis is complete: every invariant lies in the chi-isotypic
part, and rank mod p is at most the rank over QQ, so the kernel mod p is
at least as large as the invariant space and a proved basis that large
spans it.  No elimination over QQ is ever run.

Named invariants (I2, I3, S, T) are single-dimensional kernels pinned to a
specific scalar by evaluating on a pencil with known values; no literature
formula is typed in anywhere.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations, permutations
from math import comb, lcm
import random

from .comitants import Form, transvectant
from .linalg import (LinearSubstitution, modular_nullspace, nullspace,
                     rows_of)
from .poly import Poly, constant_ratio, poly_ring, unwrap
from .scalars import QQ, Fp, exact_div

_SIZE_LIMIT = 15000

BINARY_VARS = ("x", "y")
TERNARY_VARS = ("X", "Y", "Z")


class InvariantError(ValueError):
    pass


class InvariantDescriptor:
    """A polynomial in the coefficients of the universal (n,d) form.

    formula lives in the coefficient variables of `generic_form(n, d)` only:
    an invariant is a comitant of order zero, evaluated by `compiled`.
    """

    def __init__(self, space, degree, name, formula):
        self.space = tuple(space)
        self.degree = degree
        self.name = name
        self.formula = formula
        if not formula.is_homogeneous():
            raise InvariantError(f"{name}: formula is not homogeneous")
        if not formula.is_zero() and formula.total_degree() != degree:
            raise InvariantError(f"{name}: formula degree mismatch")

    @cached_property
    def compiled(self) -> "GenericComitant":
        """The formula as a `GenericComitant` with no output variables,
        compiled on first use: the finder's bases are mostly never
        evaluated."""
        return GenericComitant(self.formula, [self.space])

    def renamed(self, name) -> "InvariantDescriptor":
        return InvariantDescriptor(self.space, self.degree, name,
                                   self.formula)

    def rescaled(self, c) -> "InvariantDescriptor":
        return InvariantDescriptor(self.space, self.degree, self.name,
                                   self.formula.scale_div(c))

    def weight(self) -> int:
        """Isobaric weight: evaluate(g . f) = det(g)^weight * evaluate(f)."""
        n, d = self.space
        return self.degree * d // n

    def __repr__(self):
        return (f"InvariantDescriptor({self.name}, space={self.space}, "
                f"degree={self.degree})")


class _FormSpace:
    """Bookkeeping for the universal form on V(n,d)."""

    def __init__(self, n, d):
        if n not in (2, 3):
            raise InvariantError(f"unsupported number of variables: {n}")
        if d < 1:
            raise InvariantError("degree must be positive")
        self.n = n
        self.d = d
        self.monomials = sorted(_exponents(n, d), reverse=True)
        if n == 2:
            self.names = tuple(f"a{e[1]}" for e in self.monomials)
            self.weights = tuple(comb(d, e[1]) for e in self.monomials)
        else:
            # an exponent of 10 or more needs a separator: a1010 would be
            # both (10, 1, 0) and (1, 0, 10)
            sep = "_" if d >= 10 else ""
            self.names = tuple("a" + sep.join(map(str, e))
                               for e in self.monomials)
            self.weights = tuple(1 for _ in self.monomials)
        self.index = {e: i for i, e in enumerate(self.monomials)}
        self.form_vars = BINARY_VARS if n == 2 else TERNARY_VARS
        if n == 3 and not self._brackets_hold():
            raise InvariantError("derivation tables break the sl_3 brackets")
        # D01, D10 (and D12, D21 for n = 3): generators of sl_n
        self.generators = [self.derivation(i, j) for i, j in
                           ((0, 1), (1, 0), (1, 2), (2, 1))[:2 * n - 2]]

    def derivation(self, i, j) -> dict:
        """Coefficient derivation induced by x_j -> x_j + eps * x_i.

        Maps coefficient index v to a list of (source index s, integer c)
        with D(a_v) = sum c * a_s: c = w_s * m_j / w_t is m_i + 1 under the
        binomial weights of n = 2 and m_j under the unit weights of n = 3.
        """
        out = {v: [] for v in range(len(self.monomials))}
        for s, m in enumerate(self.monomials):
            if m[j] == 0:
                continue
            shifted = list(m)
            shifted[j] -= 1
            shifted[i] += 1
            t = self.index[tuple(shifted)]
            out[t].append((s, self.weights[s] * m[j] // self.weights[t]))
        return out

    def _brackets_hold(self) -> bool:
        """Whether [D01, D12] = -D02 and [D21, D10] = -D20 on each coefficient
        variable, so on the ring: a bracket of derivations is one."""
        table = {ij: self.derivation(*ij) for ij in permutations(range(3), 2)}

        def act(ij, linear, out):   # out + D_ij(linear), linear {index: c}
            for t, c in linear.items():
                for s, k in table[ij][t]:
                    out[s] = out.get(s, 0) + c * k
            return out
        # A B a_t - B A a_t + C a_t vanishes for [A, B] = -C
        return not any(any(act(a, act(b, {t: 1}, {}), act(
            b, act(a, {t: -1}, {}), act(c, {t: 1}, {}))).values())
            for a, b, c in (((0, 1), (1, 2), (0, 2)), ((2, 1), (1, 0), (2, 0)))
            for t in range(len(self.monomials)))


def _exponents(n, d):
    if n == 2:
        return [(d - i, i) for i in range(d + 1)]
    return [(d - i - j, i, j) for i in range(d + 1) for j in range(d + 1 - i)]


_cached_space = lru_cache(maxsize=None)(_FormSpace)


def _space(n, d) -> _FormSpace:
    """The shared _FormSpace of V(n,d).  n and d are checked before the
    cache, which would take 2.0 and True for 2 and 1."""
    for what, v in (("variable count", n), ("form degree", d)):
        if isinstance(v, bool) or not isinstance(v, int):
            raise InvariantError(f"{what} must be an integer, got {v!r}")
    return _cached_space(n, d)


def generic_form(n: int, d: int) -> Poly:
    """Universal form: binomial-weighted basis for n=2, plain for n=3."""
    return generic_forms((n, d))[0].poly


def generic_forms(*spaces) -> list:
    """Universal forms on the spaces V(n, d), all of one n, in one ring:
    the coefficient variables of each space in turn, the i-th space's
    lettered "abc..."[i] in place of "a", then the form variables."""
    blocks = [_space(*s) for s in spaces]
    if len({b.n for b in blocks}) != 1:
        raise InvariantError("generic forms must share their variables")
    names = tuple(chr(ord("a") + i) + name[1:]
                  for i, b in enumerate(blocks) for name in b.names)
    vars = names + blocks[0].form_vars
    k = len(names)
    out = []
    start = 0
    for b in blocks:
        terms = {}
        for i, (e, w) in enumerate(zip(b.monomials, b.weights)):
            exp = [0] * k
            exp[start + i] = 1
            terms[tuple(exp) + e] = w
        out.append(Form(Poly(vars, terms, QQ), b.d, range(k, k + b.n)))
        start += len(b.names)
    return out


def _image(deriv: dict, terms: dict) -> dict:
    """The image under a derivation of the coefficient polynomial with
    these terms, each monomial packed in an int, `bits` bits per exponent,
    2^bits > the top degree: no move carries.  What cancels stays, as 0."""
    bits = max(map(sum, terms), default=0).bit_length()
    # D(a_t) = sum c a_s takes a_t^k to k c a_t^(k-1) a_s
    moves = [(t, (1 << bits * s) - (1 << bits * t), c)
             for t, sources in deriv.items() for s, c in sources]
    out: dict = {}
    for e, coef in terms.items():
        key = sum(k << bits * v for v, k in enumerate(e) if k)
        for t, shift, c in moves:
            if e[t]:
                out[key + shift] = out.get(key + shift, 0) + e[t] * c * coef
    return out


def _is_invariant(space: _FormSpace, p: Poly) -> bool:
    """Whether the generators of sl_n kill the coefficient poly p, exactly."""
    return not any(any(_image(deriv, p.terms).values())
                   for deriv in space.generators)


def _balanced_monomials(space: _FormSpace, r: int):
    """Exponent vectors of the degree-r coefficient monomials of torus
    weight (w, .., w), w = r d / n, sorted descending.

    Indices are picked depth-first in nondecreasing order; a branch is cut
    as soon as some coordinate's remaining weight leaves 0..left*d, which
    the `left` monomials still to pick could not fill, and the last pick is
    the weight still owed.  The monomials are sorted by first exponent,
    descending, so the scan stops at the first that cannot cover it."""
    n, d, size = space.n, space.d, len(space.monomials)
    if (r * d) % n or not r:
        return [] if r else [(0,) * size]
    out = []
    # (first index allowed, monomials left, weight still owed, picks)
    stack = [(0, r, (r * d // n,) * n, ())]
    while stack:
        start, left, need, picks = stack.pop()
        if left == 1:
            v = space.index.get(need, -1)
            if v >= start:
                out.append(tuple(map((picks + (v,)).count, range(size))))
            continue
        cap = (left - 1) * d
        for v in range(start, size):
            m = space.monomials[v]
            if need[0] > left * m[0]:
                break
            rest = tuple(a - b for a, b in zip(need, m))
            if rest[0] >= 0 and all(0 <= a <= cap for a in rest[1:]):
                stack.append((v, left - 1, rest, picks + (v,)))
    out.sort(reverse=True)
    return out


def _orbit_columns(space: _FormSpace, candidates, w: int) -> list:
    """The chi-isotypic orbit sums of the candidates under the permutations
    of the form variables, chi(sigma) = sign(sigma)^w, each as a dict
    monomial -> +-1 with +1 at its first candidate.  An orbit whose
    stabilizer holds a sigma with chi(sigma) = -1 has a zero signed sum
    and is dropped."""
    perms = []
    for perm in permutations(range(space.n)):
        odd = sum(a > b for a, b in combinations(perm, 2)) % 2
        moved = [space.index[tuple(m[k] for k in perm)]
                 for m in space.monomials]
        perms.append((moved, -1 if odd and w % 2 else 1))
    seen: set = set()
    columns = []
    for e in candidates:
        if e in seen:
            continue
        orbit: dict = {}
        vanishes = False
        for moved, chi in perms:        # the identity comes first
            image = [0] * len(e)
            for v, k in enumerate(e):
                image[moved[v]] = k
            vanishes |= orbit.setdefault(tuple(image), chi) != chi
        seen.update(orbit)
        if not vanishes:
            columns.append(orbit)
    return columns


def _reduced_basis(vectors) -> list:
    """Up to scale, the one basis of span(vectors) with distinct trailing
    positions, each vector zero at the others': the reduced-echelon
    nullspace basis in these coordinates (the convention of
    `linalg.int_nullspace_mod_p`), ordered by trailing position.  The
    vectors are independent integer lists, and the elimination is
    fraction-free."""
    basis: dict = {}        # trailing position -> vector
    for v in vectors:
        for t, b in basis.items():
            if v[t]:
                v = [b[t] * x - v[t] * y for x, y in zip(v, b)]
        t = max(j for j, c in enumerate(v) if c)
        for s, b in basis.items():
            if b[t]:
                basis[s] = [v[t] * x - b[t] * y for x, y in zip(b, v)]
        basis[t] = v
    return [basis[t] for t in sorted(basis)]


def find_invariants(n: int, d: int, r: int) -> list:
    """Basis of the degree-r invariants of the universal (n,d) form.

    The columns are the chi-isotypic orbit sums of the balanced monomials
    under the permutations of the form variables (x <-> y for n = 2, S_3
    for n = 3), chi = sign^w with w = r d / n; the rows are the image of
    D_01.  The kernel is taken modulo word-size primes, combined by CRT
    and lifted by rational reconstruction (`linalg.modular_nullspace`)
    until every lifted polynomial is proved invariant against the
    generators of sl_n, exactly.  The basis is the reduced-echelon
    one in the order of the balanced monomials: each polynomial has a
    trailing monomial of its own that the others lack, and each is
    primitive with a positive leading coefficient.
    """
    space = _space(n, d)
    if isinstance(r, bool) or not isinstance(r, int) or r < 0:
        raise InvariantError(
            f"degree must be a nonnegative integer, got {r!r}")
    total = comb(len(space.monomials) + r - 1, r)
    if total > _SIZE_LIMIT:
        raise InvariantError(
            f"coefficient monomial space too large ({total} > {_SIZE_LIMIT})")
    candidates = _balanced_monomials(space, r)
    columns = _orbit_columns(space, candidates, r * d // n)
    if not columns:
        return []
    # on the chi-isotypic subspace D_01 is conjugate to every D_ij: the
    # rows are the monomials of the images of the columns under it
    rows = rows_of([_image(space.generators[0], orbit) for orbit in columns])
    position = {e: i for i, e in enumerate(candidates)}

    basis = []      # the polynomials of the last lift certify saw

    def certify(lifts):
        vectors = []
        for lift in lifts:
            den = lcm(*(c.denominator for c in lift))
            vec = [0] * len(candidates)
            for orbit, c in zip(columns, lift):
                c = c.numerator * (den // c.denominator)
                for e, chi in orbit.items():
                    vec[position[e]] = chi * c
            vectors.append(vec)
        basis[:] = [Poly(space.names, dict(zip(candidates, v)), QQ).primitive()
                    for v in _reduced_basis(vectors)]
        return all(_is_invariant(space, p) for p in basis)

    # modular_nullspace returns the lift of certify's last, accepting call
    if modular_nullspace(rows, len(columns), certify) is None:
        raise InvariantError(
            "modular kernel passed its Hadamard bound without a proof")
    return [
        InvariantDescriptor((n, d), r, f"inv({n},{d})deg{r}#{i}", p)
        for i, p in enumerate(basis)
    ]


# ---------------------------------------------------------------------------
# evaluation


def _as_form(f, n, d):
    if isinstance(f, Poly):
        if len(f.vars) != n:
            raise InvariantError(
                "space mismatch: bare polynomial must use exactly the form "
                "variables; wrap parameterized forms")
        f = Form(f, d)  # the constructor rejects a bad degree
    elif not isinstance(f, Form):
        raise InvariantError(f"cannot interpret {type(f).__name__} as a form")
    if len(f.indices) != n:
        raise InvariantError(
            f"space mismatch: {len(f.indices)} form variables, descriptor "
            f"wants {n}")
    if f.degree != d:
        raise InvariantError(
            f"space mismatch: degree {f.degree}, descriptor wants {d}")
    return f


def evaluate_invariant(inv: InvariantDescriptor, f):
    """The descriptor's formula at f's coefficients, through its compiled
    `GenericComitant`.

    f may carry parameter variables; the result is then a polynomial in
    those parameters, otherwise a scalar.  Over GF(p) the QQ formula is
    read mod p.
    """
    form = _as_form(f, *inv.space)
    _check_characteristic(form.poly.ring, inv.formula, inv.name,
                          weights=_space(*inv.space).weights)
    return unwrap(inv.compiled(form))


def _check_characteristic(ring, formula: Poly, what, error=InvariantError,
                          weights=()):
    """Refuse a prime field whose characteristic divides one of `weights`
    or a coefficient denominator of the QQ polynomial `formula`: `what`
    needs that number inverted, so it is undefined there."""
    if ring == QQ:
        return
    p = ring[1]
    for kind, values in (
            ("binomial weight", weights),
            ("denominator", (c.denominator for c in formula.terms.values()))):
        bad = next((v for v in values if v % p == 0), None)
        if bad is not None:
            raise error(f"{what} is undefined in characteristic {p}: "
                        f"{p} divides the {kind} {bad}")


class GenericComitant:
    """A polynomial in the coefficients of universal forms, compiled once
    and then specialised at concrete forms: the one evaluator of
    coefficient formulas, an invariant being a comitant of order zero.

    `formula` lives over QQ in the coefficient variables of
    `generic_forms(*spaces)`, in their order, followed by output variables
    (those of the forms, or any others, or none).  Each term's coefficient
    is divided by the binomial weights of its coefficient variables, so it
    reads a form's plain coefficients, and becomes one integer over the
    common denominator `denominator` and the multiset of its coefficient
    indices.  A term of coefficient degree below the top one, R, is padded
    with a slot that holds the forms' common denominator L (1 over GF(p)),
    so a specialisation at scalar forms is integer multiply-adds and one
    `exact_div` by denominator * L^R per output monomial.  Substitution is
    a ring map, so the value at f is the formula's, exactly.
    """

    def __init__(self, formula: Poly, spaces):
        self.spaces = [_space(*s) for s in spaces]
        k = sum(len(s.names) for s in self.spaces)
        if formula.ring != QQ or len(formula.vars) < k:
            raise InvariantError("a generic comitant is a QQ polynomial in "
                                 "the coefficient variables of its forms")
        weights = [w for s in self.spaces for w in s.weights]
        top = max((sum(e[:k]) for e in formula.terms), default=0)
        divided = {}
        compiled = []
        for e, c in formula.terms.items():
            slots = ()
            scale = 1
            for i, m in enumerate(e[:k]):
                if m:
                    slots += (i,) * m
                    scale *= weights[i] ** m
            q = divided[e] = c if scale == 1 else exact_div(c, scale)
            compiled.append((e[k:], slots + (k,) * (top - len(slots)), q))
        self.denominator = lcm(*(q.denominator for _, _, q in compiled))
        grouped: dict = {}
        for out, slots, q in compiled:
            grouped.setdefault(out, []).append(
                (slots, q.numerator * (self.denominator // q.denominator)))
        self._terms = list(grouped.items())
        self._divided = Poly(formula.vars, divided, QQ)
        self.term_count = len(compiled)
        self._top = top
        self.vars = formula.vars[k:]

    def __call__(self, *forms) -> Poly:
        """The formula at these forms, one per space, as a Poly in their
        parameters followed by the output variables.  The forms share one
        ring, QQ or GF(p) with p not dividing `denominator`, and one list
        of parameters.  Forms with parameters take one `Poly.substitute`
        of their coefficients into the weight-divided formula: the integer
        kernel would multiply Polys term by term there, which is slower."""
        if len(forms) != len(self.spaces):
            raise InvariantError(f"one form per space: expected "
                                 f"{len(self.spaces)}, got {len(forms)}")
        forms = [_as_form(f, s.n, s.d) for f, s in zip(forms, self.spaces)]
        ring, params = forms[0].poly.ring, forms[0].params
        if any(f.poly.ring != ring or f.params != params for f in forms):
            raise InvariantError("the forms must share one ring and one "
                                 "list of parameters")
        p = None if ring == QQ else ring[1]
        if p is not None and self.denominator % p == 0:
            raise InvariantError(f"denominator {self.denominator} is "
                                 f"undefined in characteristic {p}")
        if params:
            if set(params) & set(self.vars):
                raise InvariantError(f"parameters {params} collide with the "
                                     f"output variables {self.vars}")
            rest = params + self.vars
            return self._divided.substitute(
                [c.extend_to(rest) for f, s in zip(forms, self.spaces)
                 for c in f.coefficients(s.monomials)]
                + [Poly.variable(v, rest, ring) for v in self.vars])
        values = []
        for form, space in zip(forms, self.spaces):
            terms = form.poly.terms
            if form.indices != tuple(range(space.n)):
                terms = {tuple(e[i] for i in form.indices): c
                         for e, c in terms.items()}
            values.extend(terms.get(m, 0) for m in space.monomials)
        if p is None:
            common = lcm(*(c.denominator for c in values))
            if common != 1:
                values = [c.numerator * (common // c.denominator)
                          for c in values]
        else:
            values = [c.val if c else 0 for c in values]
            common = 1
        values.append(common)  # the padding slot
        den = self.denominator * common**self._top
        out = {}
        for e, terms in self._terms:
            acc = 0
            for slots, c in terms:
                for i in slots:
                    c *= values[i]
                acc += c
            if acc:
                out[e] = exact_div(acc if p is None else Fp(acc, p), den)
        return Poly(self.vars, out, ring)


# ---------------------------------------------------------------------------
# pencils with known values, used to pin scalars


def hesse_pencil() -> Form:
    """t0*(X^3+Y^3+Z^3) + 6*t1*X*Y*Z over (t0, t1, X, Y, Z)."""
    vars = ("t0", "t1") + TERNARY_VARS
    t0, t1, X, Y, Z = poly_ring(vars, QQ)
    return Form(t0 * (X**3 + Y**3 + Z**3) + t1 * (X * Y * Z) * 6, 3,
                (2, 3, 4))


def quartic_pencil() -> Form:
    """t0*(x^4+y^4) + 6*t1*x^2*y^2 over (t0, t1, x, y)."""
    vars = ("t0", "t1") + BINARY_VARS
    t0, t1, x, y = poly_ring(vars, QQ)
    return Form(t0 * (x**4 + y**4) + t1 * (x**2 * y**2) * 6, 4, (2, 3))


def canonical_quartic() -> Form:
    """x^4 + 6*alpha*x^2*y^2 + y^4 with a free parameter alpha."""
    vars = ("alpha",) + BINARY_VARS
    alpha, x, y = poly_ring(vars, QQ)
    return Form(x**4 + alpha * (x**2 * y**2) * 6 + y**4, 4, (1, 2))


def _pin_scalar(raw: InvariantDescriptor, form, target: Poly, name: str):
    """Rescale raw so evaluate(raw, form) == target exactly."""
    val = evaluate_invariant(raw, form)
    if not isinstance(val, Poly) or val.vars != target.vars:
        raise InvariantError(f"{name}: calibration value has wrong shape")
    c = constant_ratio(target, val)
    if c is None:
        raise InvariantError(f"{name}: calibration ratio is not a scalar")
    return raw.rescaled(c).renamed(name)


def _single(descs, what):
    if len(descs) != 1:
        raise InvariantError(
            f"{what}: expected a 1-dimensional space, got {len(descs)}")
    return descs[0]


@lru_cache(maxsize=None)
def invariant_I2() -> InvariantDescriptor:
    raw = _single(find_invariants(2, 4, 2), "I2")
    t = Poly.variable("alpha", ("alpha",), QQ)
    return _pin_scalar(raw, canonical_quartic(), t**2 * 3 + 1, "I2")


@lru_cache(maxsize=None)
def invariant_I3() -> InvariantDescriptor:
    raw = _single(find_invariants(2, 4, 3), "I3")
    t = Poly.variable("alpha", ("alpha",), QQ)
    return _pin_scalar(raw, canonical_quartic(), t - t**3, "I3")


@lru_cache(maxsize=None)
def invariant_S() -> InvariantDescriptor:
    raw = _single(find_invariants(3, 3, 4), "S")
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    return _pin_scalar(raw, hesse_pencil(), t0**3 * t1 - t1**4, "S")


@lru_cache(maxsize=None)
def invariant_T() -> InvariantDescriptor:
    raw = _single(find_invariants(3, 3, 6), "T")
    t0, t1 = poly_ring(("t0", "t1"), QQ)
    return _pin_scalar(raw, hesse_pencil(),
                       t0**6 - t0**3 * t1**3 * 20 - t1**6 * 8, "T")


NAMED_INVARIANTS = {
    ("I2", (2, 4)): invariant_I2,
    ("I3", (2, 4)): invariant_I3,
    ("S", (3, 3)): invariant_S,
    ("T", (3, 3)): invariant_T,
}


def named_invariant(name: str, space) -> InvariantDescriptor:
    space = tuple(space)
    builder = NAMED_INVARIANTS.get((name, space))
    if builder is not None:
        return builder()
    if space == (2, 5) and name in ("I4", "I8", "I12"):
        trio = quintic_invariants()
        return {"I4": trio[0], "I8": trio[1], "I12": trio[2]}[name]
    raise InvariantError(f"no invariant named {name!r} on V{space}")


# ---------------------------------------------------------------------------
# quintic invariants by transvectant chain


@lru_cache(maxsize=None)
def quintic_invariants():
    """(I4, I8, I12) on V(2,5) by a transvectant chain from (f,f)_4.

    i = (f,f)_4, j = (f,i)_2, m = (j,j)_2; then I4 = (i,i)_2,
    I8 = (m,i)_2, I12 = (m,m)_2.  Validation: nonzero, annihilated by the
    sl_2 operators, and Jacobian rank 3 at a sample point.
    """
    space = _space(2, 5)
    (f,) = generic_forms((2, 5))
    i = transvectant(f, f, 4)
    j = transvectant(f, i, 2)
    m = transvectant(j, j, 2)
    chain = {
        "I4": transvectant(i, i, 2),
        "I8": transvectant(m, i, 2),
        "I12": transvectant(m, m, 2),
    }
    degs = {"I4": 4, "I8": 8, "I12": 12}
    out = []
    for name, form in chain.items():
        # degree 0 in (x, y): a Poly in the coefficient names
        (p,) = form.coefficients([(0, 0)])
        p = p.primitive()
        if p.is_zero() or p.total_degree() != degs[name]:
            raise InvariantError(f"{name}: chain produced a wrong degree")
        if not _is_invariant(space, p):
            raise InvariantError(f"{name}: chain output is not invariant")
        out.append(InvariantDescriptor((2, 5), degs[name], name, p))
    _check_independent(out)
    return tuple(out)


def _check_independent(descs, seed=1729):
    rng = random.Random(seed)
    nvars = len(descs[0].formula.vars)
    for _ in range(10):
        point = [rng.randint(-9, 9) for _ in range(nvars)]
        rows = []
        for d in descs:
            rows.append([d.formula.partial(v).evaluate(point)
                         for v in range(nvars)])
        # no kernel on the gradients as columns: rank len(descs)
        if not nullspace(list(zip(*rows)), len(descs)):
            return
    raise InvariantError("invariants look algebraically dependent")


# ---------------------------------------------------------------------------
# equivariance probes


def substituted_form(form, g: LinearSubstitution):
    """Apply a linear change of the form variables only."""
    return Form(g.apply(form.poly, form.indices), form.degree, form.indices)


def det_weight(det, ratio):
    """The w in 0..200 with det^w == ratio, or None."""
    power = 1
    for w in range(201):
        if power == ratio:
            return w
        power *= det
    return None


def random_substitution(n, rng, unimodular=False) -> LinearSubstitution:
    """Random invertible n x n change of variables with small entries."""
    while True:
        rows = [[rng.randint(-5, 5) for _ in range(n)]
                for _ in range(n)]
        try:
            g = LinearSubstitution(rows)
        except ValueError:  # a singular draw
            continue
        if not unimodular or g.det in (1, -1):
            return g
        # rescale one row to force det = 1
        rows[0] = [exact_div(c, g.det) for c in rows[0]]
        return LinearSubstitution(rows)
