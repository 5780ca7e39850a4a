"""Invariants of small binary and ternary forms, found rather than transcribed.

The finder works on the universal form with one fresh coefficient variable
per basis monomial.  A linear change of the form's variables induces a
derivation of the coefficient ring; polynomial invariants are exactly the
weight-balanced coefficient polynomials killed by the off-diagonal
derivations.  We restrict to the balanced-weight monomials up front (torus
invariance is free) and take the joint kernel of the simple raising
operators modulo word-size primes, eliminated in int64.  Kernels mod
several primes are combined by CRT and lifted back to QQ by rational
reconstruction, and each lifted candidate is *proved* by applying every
operator exactly: its denominators are cleared and the integer operator
rows must kill its integer coefficients.  Primes are added until the proof
holds.  Rank mod p is at most the rank over QQ, so a proved basis as large
as the kernel mod p is complete.  No elimination over QQ is ever run.

Named invariants (I2, I3, S, T) are single-dimensional kernels pinned to a
specific scalar by evaluating on a pencil with known values; no literature
formula is typed in anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import mul
import random

from .comitants import Form, transvectant
from .linalg import LinearSubstitution, Matrix, modular_nullspace
from .poly import Poly, divexact, poly_ring
from .scalars import QQ, ring_zero

_SIZE_LIMIT = 15000

BINARY_VARS = ("x", "y")
TERNARY_VARS = ("X", "Y", "Z")


class InvariantError(ValueError):
    pass


class InvariantDescriptor:
    """A polynomial in the coefficients of the universal (n,d) form.

    formula lives in the coefficient variables only, in the basis recorded
    by `basis` ("binomial" for n=2, "monomial" for n=3).
    """

    def __init__(self, space, degree, name, formula, basis):
        self.space = tuple(space)
        self.degree = degree
        self.name = name
        self.formula = formula
        self.basis = basis
        if not formula.is_homogeneous():
            raise InvariantError(f"{name}: formula is not homogeneous")
        if not formula.is_zero() and formula.total_degree() != degree:
            raise InvariantError(f"{name}: formula degree mismatch")

    def renamed(self, name) -> "InvariantDescriptor":
        return InvariantDescriptor(self.space, self.degree, name,
                                   self.formula, self.basis)

    def rescaled(self, c) -> "InvariantDescriptor":
        return InvariantDescriptor(self.space, self.degree, self.name,
                                   self.formula.scale_div(c), self.basis)

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
        self.monomials = sorted(
            (e for e in _exponents(n, d)),
            key=lambda e: (sum(e), e), reverse=True)
        if n == 2:
            self.names = tuple(f"a{e[1]}" for e in self.monomials)
            self.weights = tuple(comb(d, e[1]) for e in self.monomials)
            self.basis = "binomial"
        else:
            self.names = tuple("a" + "".join(map(str, e))
                               for e in self.monomials)
            self.weights = tuple(1 for _ in self.monomials)
            self.basis = "monomial"
        self.index = {e: i for i, e in enumerate(self.monomials)}
        self.form_vars = BINARY_VARS if n == 2 else TERNARY_VARS

    def generic_poly(self) -> Poly:
        vars = self.names + self.form_vars
        acc = Poly.zero(vars, QQ)
        k = len(self.names)
        for i, (e, w) in enumerate(zip(self.monomials, self.weights)):
            exp = [0] * len(vars)
            exp[i] = 1
            for pos, power in enumerate(e):
                exp[k + pos] = power
            acc = acc + Poly.monomial(Fraction(w), tuple(exp), vars, QQ)
        return acc

    def derivation(self, i, j) -> dict:
        """Coefficient derivation induced by x_j -> x_j + eps * x_i.

        Maps coefficient index v to a list of (source index s, rational c)
        with D(a_v) = sum c * a_s.
        """
        out = {v: [] for v in range(len(self.monomials))}
        for s, m in enumerate(self.monomials):
            if m[j] == 0:
                continue
            shifted = list(m)
            shifted[j] -= 1
            shifted[i] += 1
            t = self.index[tuple(shifted)]
            out[t].append(
                (s, Fraction(self.weights[s] * m[j], self.weights[t])))
        return out


def _exponents(n, d):
    if n == 2:
        return [(d - i, i) for i in range(d + 1)]
    return [(d - i - j, i, j) for i in range(d + 1) for j in range(d + 1 - i)
            if d - i - j >= 0]


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
    return _space(n, d).generic_poly()


def _apply_derivation(space: _FormSpace, deriv: dict, mono, coef):
    """Leibniz rule on one coefficient monomial; yields (monomial, scalar)."""
    for v, k in enumerate(mono):
        if k == 0:
            continue
        for s, c in deriv[v]:
            e = list(mono)
            e[v] -= 1
            e[s] += 1
            yield tuple(e), coef * k * c


def _raising_ops(n):
    # adjacent transvections; balanced monomials they kill are killed by all
    return [(i, i + 1) for i in range(n - 1)]


def _is_invariant(space: _FormSpace, p: Poly) -> bool:
    """Whether every off-diagonal derivation kills the coefficient poly p.

    Exact on integers: p's denominators are cleared and every derivation
    scaled to integer coefficients, which leaves its kernel unchanged."""
    n = space.n
    den = lcm(*(c.denominator for c in p.terms.values()))
    coeffs = [c.numerator * (den // c.denominator) for c in p.terms.values()]
    derivs = [space.derivation(i, j)
              for i in range(n) for j in range(n) if i != j]
    return not any(sum(map(mul, row, coeffs))
                   for row in _operator_rows(space, derivs, list(p.terms)))


def _balanced_monomials(space: _FormSpace, r: int):
    """Exponent vectors of the degree-r coefficient monomials of torus
    weight (w, .., w), w = r d / n, sorted by (degree, exponents) descending.

    Indices are chosen depth-first in nondecreasing order; a branch is cut
    as soon as some coordinate's remaining weight leaves 0..left*d, which
    the `left` monomials still to choose could not fill.  The monomials are
    sorted by first exponent, descending, which caps the first coordinate
    further."""
    n, d = space.n, space.d
    if (r * d) % n:
        return []
    monomials = space.monomials
    out = []
    # (first index allowed, monomials left, weight still owed, exponents)
    stack = [(0, r, (r * d // n,) * n, (0,) * len(monomials))]
    while stack:
        start, left, need, e = stack.pop()
        if not left:
            out.append(e)
            continue
        cap = (left - 1) * d
        for v in range(start, len(monomials)):
            m = monomials[v]
            rest = tuple(a - b for a, b in zip(need, m))
            # the later picks are v or after it: first exponent at most m[0]
            if (0 <= rest[0] <= (left - 1) * m[0]
                    and all(0 <= a <= cap for a in rest[1:])):
                stack.append((v, left - 1, rest,
                              e[:v] + (e[v] + 1,) + e[v + 1:]))
    out.sort(key=lambda e: (sum(e), e), reverse=True)
    return out


def _operator_rows(space, derivs, candidates):
    """Stacked integer rows of the derivations on span(candidates).

    Each derivation is scaled by the lcm of its denominators first; that
    scales whole rows, so the kernel is the same."""
    rows: list = []
    for deriv in derivs:
        den = lcm(*(c.denominator for srcs in deriv.values() for _, c in srcs))
        deriv = {v: [(s, c.numerator * (den // c.denominator))
                     for s, c in srcs] for v, srcs in deriv.items()}
        row_of: dict = {}
        for col, e in enumerate(candidates):
            for e2, c in _apply_derivation(space, deriv, e, 1):
                i = row_of.get(e2)
                if i is None:
                    i = row_of[e2] = len(rows)
                    rows.append([0] * len(candidates))
                rows[i][col] += c
    return rows


def _vector_to_poly(vec, candidates, names) -> Poly:
    return Poly(names, dict(zip(candidates, vec)), QQ).primitive()


def find_invariants(n: int, d: int, r: int) -> list:
    """Basis of the degree-r invariants of the universal (n,d) form.

    The kernel of the raising operators is taken modulo word-size primes,
    combined by CRT and lifted by rational reconstruction until every
    lifted vector is proved invariant against every off-diagonal operator,
    exactly on integers (`linalg.modular_nullspace`).
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
    if not candidates:
        return []
    derivs = [space.derivation(i, j) for i, j in _raising_ops(n)]
    ops = _operator_rows(space, derivs, candidates)

    basis = []      # the polynomials of the last lift certify saw

    def certify(lifts):
        basis[:] = [_vector_to_poly(v, candidates, space.names)
                    for v in lifts]
        return all(_is_invariant(space, p) for p in basis)

    # modular_nullspace returns the lift of certify's last, accepting call
    if modular_nullspace(ops, len(candidates), certify) is None:
        raise InvariantError(
            "modular kernel passed its Hadamard bound without a proof")
    return [
        InvariantDescriptor((n, d), r, f"inv({n},{d})deg{r}#{i}", p,
                            space.basis)
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
    """Substitute f's coefficients into the descriptor's formula.

    f may carry parameter variables; the result is then a polynomial in
    those parameters, otherwise a scalar.
    """
    n, d = inv.space
    form = _as_form(f, n, d)
    space = _space(n, d)
    ring = form.poly.ring
    coeffs = form.poly.coefficients_in(form.indices)
    rest = tuple(v for i, v in enumerate(form.poly.vars)
                 if i not in form.indices)
    values = []
    for e, w in zip(space.monomials, space.weights):
        c = coeffs.get(e)
        if c is None:
            c = Poly.zero(rest, ring)
        values.append(c if w == 1 else c.scale_div(w))
    formula = inv.formula if ring == QQ else inv.formula.to_ring(ring)
    if not rest:
        scalars = [v.terms.get((), ring_zero(ring)) for v in values]
        return formula.evaluate(scalars)
    return formula.substitute(values)


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
    ratio = divexact(val, target)
    if ratio.total_degree() != 0:
        raise InvariantError(f"{name}: calibration ratio is not a scalar")
    c = ratio.terms[(0,) * len(ratio.vars)]
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


@lru_cache(maxsize=None)
def invariant_S_quartic() -> InvariantDescriptor:
    """The degree-3 invariant of ternary quartics (1-dimensional space)."""
    return _single(find_invariants(3, 4, 3), "S4").renamed("S4")


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


def _strip_form_vars(b: Form, names) -> Poly:
    groups = b.poly.coefficients_in(b.indices)
    if set(groups) - {(0, 0)}:
        raise InvariantError("expected a form of degree 0")
    got = groups.get((0, 0))
    if got is None:
        return Poly.zero(names, QQ)
    return got.rename_vars(names)


@lru_cache(maxsize=None)
def quintic_invariants():
    """(I4, I8, I12) on V(2,5) by a transvectant chain from (f,f)_4.

    i = (f,f)_4, j = (f,i)_2, m = (j,j)_2; then I4 = (i,i)_2,
    I8 = (m,i)_2, I12 = (m,m)_2.  Validation: nonzero, annihilated by the
    sl_2 operators, and Jacobian rank 3 at a sample point.
    """
    space = _space(2, 5)
    k = len(space.names)
    f = Form(space.generic_poly(), 5, (k, k + 1))
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
        p = _strip_form_vars(form, space.names).primitive()
        if p.is_zero() or p.total_degree() != degs[name]:
            raise InvariantError(f"{name}: chain produced a wrong degree")
        if not _is_invariant(space, p):
            raise InvariantError(f"{name}: chain output is not invariant")
        out.append(InvariantDescriptor((2, 5), degs[name], name, p, "binomial"))
    _check_independent(out)
    return tuple(out)


def _check_independent(descs, seed=1729):
    rng = random.Random(seed)
    nvars = len(descs[0].formula.vars)
    for _ in range(10):
        point = [Fraction(rng.randint(-9, 9)) for _ in range(nvars)]
        rows = []
        for d in descs:
            rows.append([d.formula.partial(v).evaluate(point)
                         for v in range(nvars)])
        if Matrix(rows, QQ).rank() == len(descs):
            return
    raise InvariantError("invariants look algebraically dependent")


# ---------------------------------------------------------------------------
# equivariance probes


def substituted_form(form, g: LinearSubstitution):
    """Apply a linear change of the form variables only."""
    return Form(g.apply(form.poly, form.indices), form.degree, form.indices)


def measured_weight(inv: InvariantDescriptor, g: LinearSubstitution,
                    sample) -> int:
    """Recover w with evaluate(g . f) = det(g)^w evaluate(f) from one probe."""
    base = evaluate_invariant(inv, sample)
    if not base:
        raise InvariantError("probe form lies on the zero locus; pick another")
    moved = evaluate_invariant(inv, substituted_form(sample, g))
    ratio = moved / base
    for w in range(0, 200):
        if g.det**w == ratio:
            return w
    raise InvariantError("value ratio is not a power of det(g)")


def random_substitution(n, rng, unimodular=False) -> LinearSubstitution:
    """Random invertible n x n change of variables with small entries."""
    while True:
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(n)]
                for _ in range(n)]
        try:
            g = LinearSubstitution(Matrix(rows, QQ))
        except ValueError:  # a singular draw
            continue
        if not unimodular or g.det in (1, -1):
            return g
        # rescale one row to force det = 1
        rows[0] = [c / g.det for c in rows[0]]
        return LinearSubstitution(Matrix(rows, QQ))
