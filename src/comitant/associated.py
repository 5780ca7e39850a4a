"""Associated forms: expressing ell^N through the Hessian socle generator.

For a binary quartic or ternary cubic f with Jacobian ideal J(f), the
degree-N piece J(f)_N (N = n(d-2)) has codimension 1 in the full space of
degree-N forms, with the Hessian spanning the complement.  Writing

    ell^N  =  as(f)(ell) * He(f)   mod J(f)_N

for a symbolic linear form ell defines the associated form as(f), a
degree-N form in the dual variables.  Everything is read off one square
socle matrix [He(f) | m * df/dx_i] with `poly_det`: the form is
nondegenerate exactly when its determinant is nonzero, as(f) is the Cramer
numerator with the He column replaced by the coefficients of ell^N, and a
concrete ell satisfies the congruence exactly when the determinant with
the He column replaced by the left-hand side vanishes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from .comitants import DUAL_VARS, Form, hessian
from .invariants import _exponents, canonical_quartic
from .linalg import poly_det
from .maps import (PENCIL_VARS, RationalMapP1, compose, descend_map,
                   quartic_cover)
from .poly import Poly, unwrap
from .scalars import QQ


class AssociatedFormError(ValueError):
    pass


DUAL_BINARY = ("u", "v")
# variable count -> (form degree, dual variables)
_SPACES = {2: (4, DUAL_BINARY), 3: (3, DUAL_VARS)}


class AssociatedFormResult:
    """as(f) with denominators cleared, plus the factor that cleared them."""

    def __init__(self, space, form: Poly, scale):
        self.space = tuple(space)
        self.form = form
        self.scale = scale
        n, d = self.space
        if not form.is_homogeneous() or form.total_degree() != n * (d - 2):
            raise AssociatedFormError("associated form has wrong degree")

    def __repr__(self):
        return (f"AssociatedFormResult(space={self.space}, form={self.form}, "
                f"scale={self.scale})")


def _multinomial(N, e):
    out = factorial(N)
    for k in e:
        out //= factorial(k)
    return out


def _space(form):
    """(n, d) of a parameter-free binary quartic or ternary cubic over QQ."""
    n = len(form.indices) if isinstance(form, Form) else 0
    if n not in _SPACES:
        raise AssociatedFormError(
            "expected a binary quartic or a ternary cubic")
    d = _SPACES[n][0]
    if form.degree != d:
        raise AssociatedFormError(f"form degree must be {d}")
    if len(form.poly.vars) != n or form.poly.ring != QQ:
        raise AssociatedFormError(
            "associated_form needs a parameter-free form over QQ")
    return n, d


def _socle(f: Form):
    """Columns of the square socle matrix [He(f) | m * df/dx_i] in degree
    N, and its determinant; a zero determinant is refused as degenerate.

    A column holds the coefficients of the degree-N monomials in the form
    variables: Polys in the parameters of f, scalars when there are none.
    The J(f)_N columns run over the multiplier monomials m, then the
    partials.  These dim - 1 columns span J(f)_N with He(f) outside it
    exactly when the determinant is nonzero.
    """
    p, indices = f.poly, f.indices
    n = len(indices)
    d = _SPACES[n][0]
    N = n * (d - 2)
    monomials = _exponents(n, N)

    def vec(q):
        return [unwrap(c)
                for c in Form(q, N, indices).coefficients(monomials)]

    cols = [vec(hessian(p, indices))]
    for mult in _exponents(n, N - (d - 1)):
        at = dict(zip(indices, mult))
        mono = Poly.monomial(1, [at.get(i, 0) for i in range(len(p.vars))],
                             p.vars, p.ring)
        cols += [vec(mono * p.partial(i)) for i in indices]
    det = poly_det(cols)        # det M = det M^T: columns serve as rows
    if not det:
        raise AssociatedFormError(
            "socle determinant vanishes: J(f) does not have codimension 1 "
            f"with the Hessian outside it in degree {N}; degenerate form "
            "rejected")
    return cols, det


def _associated(f: Form):
    """(numerator, determinant) with as(f) = numerator / determinant.

    The numerator is the socle determinant with the He column replaced by
    the coefficients of ell^N, ell = sum_i dual_i * x_i; it is a Poly in the
    parameters of f followed by the dual variables.
    """
    cols, det = _socle(f)
    n = len(f.indices)
    d, dual = _SPACES[n]
    N = n * (d - 2)
    params = f.params
    ring_vars = params + dual
    if params:
        cols = [[c.extend_to(ring_vars) for c in col] for col in cols]
    ell_n = [Poly.monomial(_multinomial(N, e), (0,) * len(params) + e,
                           ring_vars, QQ) for e in _exponents(n, N)]
    return poly_det([ell_n] + cols[1:]), det


def associated_form(form) -> AssociatedFormResult:
    """as(f) for a binary quartic or ternary cubic with rational coefficients."""
    n, d = _space(form)
    num, det = _associated(form)
    raw = num.scale_div(det)
    scale = 1
    for c in raw.terms.values():
        scale = lcm(scale, c.denominator)
    return AssociatedFormResult((n, d), raw * scale, Fraction(scale))


def congruence_holds(result: AssociatedFormResult, form, ell) -> bool:
    """Membership re-check: scale*ell^N - as(f)(ell)*He(f) in J(f)_N.

    ell is a coefficient tuple for the dual variables.  J(f)_N has
    codimension 1 (a degenerate form is refused), so the left-hand side lies
    in it exactly when the socle determinant with the He column replaced by
    it vanishes: a numeric check, not a reuse of the symbolic solution.
    """
    n, d = _space(form)
    if result.space != (n, d):
        raise AssociatedFormError(
            f"result is for the space {result.space}, the form for {(n, d)}")
    if len(ell) != n:
        raise AssociatedFormError(
            f"ell needs {n} coefficients, got {len(ell)}")
    ell = [Fraction(c) for c in ell]
    cols, _ = _socle(form)
    N = n * (d - 2)
    as_val = result.form.evaluate(ell)
    lhs = [result.scale * _multinomial(N, e)
           * prod(c**k for c, k in zip(ell, e)) - as_val * he
           for e, he in zip(_exponents(n, N), cols[0])]
    return not poly_det([lhs] + cols[1:])


# ---------------------------------------------------------------------------
# the induced self-map of the canonical quartic slice


@lru_cache(maxsize=None)
def associated_slice_map() -> RationalMapP1:
    """The alpha-line map induced by f |-> as(f) on x^4 + 6a x^2 y^2 + y^4.

    Computed fully symbolically (the socle numerator over QQ[alpha]); the
    output is asserted to be of the same canonical shape, then read off as
    a homogeneous degree-1 coordinate map.
    """
    cq = canonical_quartic()          # vars (alpha, x, y), indices (1, 2)
    as_poly, _ = _associated(cq)      # times a det in alpha; (alpha, u, v)
    c40, c31, c22, c13, c04 = Form(as_poly, 4, (1, 2)).coefficients(
        _exponents(2, 4))
    if c40 != c04 or c31 or c13 or not c40:
        raise AssociatedFormError(
            "associated form of the canonical slice is not of canonical "
            "shape")
    # new alpha = (u^2 v^2 coefficient) / (6 * u^4 coefficient), homogenized
    # with alpha = t1/t0, matching the pencil t0*(x^4+y^4) + 6*t1*x^2*y^2
    deg = max(c22.total_degree(), c40.total_degree())

    def homog(p):
        acc = Poly.zero(PENCIL_VARS, QQ)
        for e, c in p.terms.items():
            acc = acc + Poly.monomial(c, (deg - e[0], e[0]), PENCIL_VARS, QQ)
        return acc

    return RationalMapP1(homog(c40 * 6), homog(c22))


@lru_cache(maxsize=None)
def associated_selfmap_degree() -> int:
    """Degree of the moduli self-map induced by the associated form.

    Forms compose(quartic_cover, h') for the slice map h' and divides out
    the cover degree; the descent itself is also performed as a check.
    """
    h = associated_slice_map()
    cover = quartic_cover()
    comp = compose(cover, h)
    if comp.degree % cover.degree:
        raise AssociatedFormError(
            "composite degree is not a multiple of the cover degree")
    d = comp.degree // cover.degree
    descended = descend_map(cover, comp, d)
    if descended.degree != d:
        raise AssociatedFormError("descent degree mismatch")
    return d
