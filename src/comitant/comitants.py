"""Covariant and contravariant building blocks.

Everything here treats a designated subset of a Poly's variables as the
*form* variables; any remaining variables (pencil parameters, generic
coefficients, dual coordinates) ride along in the coefficient ring.  That one
convention lets a single engine compute parameterized Hessians, symbolic
transvectants, and chart restrictions without a coefficient-field tower.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .linalg import poly_det
from .poly import Poly, poly_ring


class FormError(ValueError):
    pass


class Form:
    """Homogeneous form of known degree in designated variables.

    indices selects the form variables (all by default, as in `hessian`);
    the variable count of the form is len(indices).  The zero polynomial is
    allowed (degree still declared); extra variables of the underlying Poly
    act as symbolic coefficients.
    """

    def __init__(self, poly: Poly, degree: int, indices=None):
        if indices is None:
            indices = range(len(poly.vars))
        indices = tuple(indices)
        if not poly.is_homogeneous(indices):
            raise FormError("polynomial is not homogeneous in the form variables")
        if poly.terms and poly.degree_in(indices) != degree:
            raise FormError(
                f"declared degree {degree} but polynomial has degree "
                f"{poly.degree_in(indices)}")
        self.poly = poly
        self.degree = degree
        self.indices = indices

    @property
    def params(self) -> tuple:
        """The variables that are not form variables, in their order."""
        return tuple(v for i, v in enumerate(self.poly.vars)
                     if i not in self.indices)

    def coefficients(self, exps) -> list:
        """The coefficient of each listed form-variable monomial (an
        exponent tuple over `indices`), as a Poly in `params` over the
        form's ring: the zero Poly where the monomial is absent."""
        groups = self.poly.coefficients_in(self.indices)
        zero = Poly.zero(self.params, self.poly.ring)
        return [groups.get(tuple(e), zero) for e in exps]

    def __eq__(self, other):
        return (isinstance(other, Form) and self.poly == other.poly
                and self.degree == other.degree
                and self.indices == other.indices)

    def __repr__(self):
        return f"Form({self.poly!r}, degree={self.degree})"


def hessian(p: Poly, indices=None) -> Poly:
    """Determinant of the second partials: the Jacobian of the first ones.

    indices selects the form variables (all by default); for a form of
    degree d in n variables the result is homogeneous of degree n(d-2) in
    them, and may vanish identically.
    """
    if indices is None:
        indices = list(range(len(p.vars)))
    if not p.is_homogeneous(indices):
        raise FormError("hessian requires a homogeneous input")
    return jacobian([p.partial(i) for i in indices], indices)


def jacobian(polys: list, indices=None) -> Poly:
    """Determinant of the matrix of first partials of n forms in n variables."""
    if not polys:
        raise FormError("jacobian of an empty list")
    if indices is None:
        indices = list(range(len(polys[0].vars)))
    if len(polys) != len(indices):
        raise FormError(
            f"jacobian needs as many forms ({len(polys)}) as variables "
            f"({len(indices)})")
    return poly_det([[f.partial(j) for j in indices] for f in polys])


def transvectant(f: Form, g: Form, k: int) -> Form:
    """The k-th transvectant (f, g)_k in the factorial normalization.

    (f,g)_k = (m-k)!(n-k)!/(m! n!) * sum_i (-1)^i C(k,i)
              d^k f/dx^(k-i) dy^i * d^k g/dx^i dy^(k-i)
    for f of degree m and g of degree n; the result has degree m+n-2k.
    """
    if f.indices != g.indices or f.poly.vars != g.poly.vars:
        raise FormError("transvectant arguments live in different rings")
    if len(f.indices) != 2:
        raise FormError("transvectants are taken of binary forms")
    m, n = f.degree, g.degree
    if k < 0 or k > min(m, n):
        raise FormError(f"transvectant index {k} out of range for degrees "
                        f"{m}, {n}")
    ix, iy = f.indices
    scale = Fraction(factorial(m - k) * factorial(n - k),
                     factorial(m) * factorial(n))

    def dk(p: Poly, dx: int, dy: int) -> Poly:
        for _ in range(dx):
            p = p.partial(ix)
        for _ in range(dy):
            p = p.partial(iy)
        return p

    acc = Poly.zero(f.poly.vars, f.poly.ring)
    for i in range(k + 1):
        term = dk(f.poly, k - i, i) * dk(g.poly, i, k - i)
        c = comb(k, i)
        acc = acc + (term * c if i % 2 == 0 else term * (-c))
    return Form(acc * scale, m + n - 2 * k, f.indices)


def polar(f: Form, point_vars=("p1", "p2", "p3")) -> Poly:
    """First polar: sum_i p_i * df/dx_i in the 6-variable ring.

    The result is degree d-1 in the form variables and linear in the fresh
    point variables, which are appended to the variable list.
    """
    if f.degree < 1:
        raise FormError("polar of a constant form")
    for v in point_vars:
        if v in f.poly.vars:
            raise FormError(f"point variable {v!r} collides with {f.poly.vars}")
    big_vars = f.poly.vars + tuple(point_vars)
    acc = Poly.zero(big_vars, f.poly.ring)
    for pv, i in zip(point_vars, f.indices):
        d = f.poly.partial(i).extend_to(big_vars)
        acc = acc + d * Poly.variable(pv, big_vars, f.poly.ring)
    return acc


DUAL_VARS = ("u", "v", "w")


def restrict_to_line(f: Form, chart: int) -> Form:
    """Restrict f to the general line u*X + v*Y + w*Z = 0 in one chart.

    chart=2 substitutes (X,Y,Z) = (w*x, w*y, -u*x - v*y); charts 0 and 1 are
    the analogous eliminations of X resp. Y.  The output is a binary form of
    degree d in the line parameters whose coefficients are homogeneous of
    degree d in the dual variables.
    """
    if chart not in (0, 1, 2):
        raise FormError("chart must be 0, 1, or 2")
    new_vars = ("x", "y") + DUAL_VARS
    for v in new_vars:
        if v in f.poly.vars:
            raise FormError(f"variable {v!r} collides with the form's ring")
    params = f.params
    gens = poly_ring(params + new_vars, f.poly.ring)
    x, y, u, v, w = gens[len(params):]
    if chart == 2:
        images3 = [w * x, w * y, -(u * x) - v * y]
    elif chart == 0:
        images3 = [-(v * x) - w * y, u * x, u * y]
    else:
        images3 = [v * x, -(u * x) - w * y, v * y]
    images = [images3[f.indices.index(i)] if i in f.indices
              else gens[params.index(name)]
              for i, name in enumerate(f.poly.vars)]
    n = len(params)
    return Form(f.poly.substitute(images), f.degree, (n, n + 1))
