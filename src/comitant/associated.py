"""Associated forms: expressing ell^N through the Hessian socle generator.

For a binary quartic or ternary cubic f with Jacobian ideal J(f), the
degree-N piece J(f)_N (N = n(d-2)) has codimension 1 in the full space of
degree-N forms, with the Hessian spanning the complement.  Writing

    ell^N  =  as(f)(ell) * He(f)   mod J(f)_N

for a symbolic linear form ell defines the associated form as(f), a
degree-N form in the dual variables.  The whole computation is one linear
solve with a polynomial right-hand side; codimension is checked before
solving, and the congruence can be re-verified pointwise for concrete ell.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .comitants import DUAL_VARS, Form, hessian
from .invariants import _exponents, canonical_quartic
from .linalg import Matrix, poly_solve_cramer
from .maps import (PENCIL_VARS, RationalMapP1, compose, descend_map,
                   quartic_cover)
from .poly import Poly
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


def _coeff_vector(p: Poly, monomials):
    return [p.terms.get(e, Fraction(0)) for e in monomials]


def _multinomial(N, e):
    out = factorial(N)
    for k in e:
        out //= factorial(k)
    return out


def _jacobian_columns(f: Poly, n, d, N, monomials):
    """Degree-N spanning set of J(f): multiplier monomials times partials."""
    cols = []
    for mult in _exponents(n, N - (d - 1)):
        mono = Poly.monomial(1, mult, f.vars, f.ring)
        for i in range(n):
            gen = mono * f.partial(i)
            cols.append(_coeff_vector(gen, monomials))
    return cols


def associated_form(form) -> AssociatedFormResult:
    """as(f) for a binary quartic or ternary cubic with rational coefficients."""
    n = len(form.indices) if isinstance(form, Form) else 0
    if n not in _SPACES:
        raise AssociatedFormError(
            "expected a binary quartic or a ternary cubic")
    d, dual = _SPACES[n]
    if form.degree != d:
        raise AssociatedFormError(f"form degree must be {d}")
    f = form.poly
    if len(f.vars) != n or f.ring != QQ:
        raise AssociatedFormError(
            "associated_form needs a parameter-free form over QQ")
    N = n * (d - 2)
    monomials = _exponents(n, N)
    dim = len(monomials)

    he = hessian(f)
    he_vec = _coeff_vector(he, monomials)
    jcols = _jacobian_columns(f, n, d, N, monomials)
    jrank = Matrix(jcols, QQ).rank()
    if jrank != dim - 1:
        raise AssociatedFormError(
            f"J(f) has codimension {dim - jrank} in degree {N}, not 1; "
            "degenerate form rejected")
    full = Matrix(jcols + [he_vec], QQ).rank()
    if full != dim:
        raise AssociatedFormError(
            "Hessian lies inside the Jacobian ideal; degenerate form "
            "rejected")

    # columns: [He | J-generators]; RHS: ell^N with symbolic dual coefficients
    system = Matrix([[he_vec[r]] + [col[r] for col in jcols]
                     for r in range(dim)], QQ)
    rhs = [Poly.monomial(_multinomial(N, e), e, dual, QQ) for e in monomials]
    sol = system.solve(rhs)
    if sol is None:
        raise AssociatedFormError("socle solve is inconsistent (bug?)")
    raw = sol[0]
    if raw.is_zero():
        raise AssociatedFormError("associated form vanished (degenerate)")
    scale = 1
    for c in raw.terms.values():
        scale = lcm(scale, c.denominator)
    return AssociatedFormResult((n, d), raw * scale, Fraction(scale))


def congruence_holds(result: AssociatedFormResult, form, ell) -> bool:
    """Membership re-check: scale*ell^N - as(f)(ell)*He(f) in J(f)_N.

    ell is a coefficient tuple for the dual variables; the solve here is an
    independent numeric one, not a reuse of the symbolic solution.
    """
    n, d = result.space
    f = form.poly
    N = n * (d - 2)
    monomials = _exponents(n, N)
    ell_poly = Poly.zero(f.vars, QQ)
    for i, c in enumerate(ell):
        ell_poly = ell_poly + Poly.variable(f.vars[i], f.vars, QQ) * c
    as_val = result.form.evaluate([Fraction(c) for c in ell])
    lhs = ell_poly**N * result.scale - hessian(f) * as_val
    jcols = _jacobian_columns(f, n, d, N, monomials)
    system = Matrix([[col[r] for col in jcols] for r in range(len(monomials))],
                    QQ)
    return system.solve(_coeff_vector(lhs, monomials)) is not None


# ---------------------------------------------------------------------------
# the induced self-map of the canonical quartic slice


@lru_cache(maxsize=None)
def associated_slice_map() -> RationalMapP1:
    """The alpha-line map induced by f |-> as(f) on x^4 + 6a x^2 y^2 + y^4.

    Computed fully symbolically (Cramer over QQ[alpha]); the output is
    asserted to be of the same canonical shape, then read off as a
    homogeneous degree-1 coordinate map.
    """
    cq = canonical_quartic()          # vars (alpha, x, y), indices (1, 2)
    f = cq.poly
    d, N = 4, 4
    monomials = _exponents(2, N)
    var_idx = cq.indices
    alpha_vars = ("alpha",)

    def vec(p):
        groups = p.coefficients_in(var_idx)
        return [groups.get(e, Poly.zero(alpha_vars, QQ)) for e in monomials]

    he = hessian(f, var_idx)
    cols = [vec(he)]
    for mult in _exponents(2, N - (d - 1)):
        mono = Poly.monomial(1, (0,) + mult, f.vars, QQ)
        for i in var_idx:
            cols.append(vec(mono * f.partial(i)))
    # Cramer with polynomial entries: everything in one (alpha, u, v) ring
    big_vars = alpha_vars + DUAL_BINARY
    rows = [[cols[c][r].extend_to(big_vars) for c in range(len(cols))]
            for r in range(len(monomials))]
    rhs = [Poly.monomial(_multinomial(N, e), (0,) + e, big_vars, QQ)
           for e in monomials]
    solved = poly_solve_cramer(rows, rhs)
    if solved is None:
        raise AssociatedFormError("symbolic socle system is singular")
    nums, _ = solved
    as_form = nums[0]                  # degree 4 in (u, v), rational in alpha
    groups = as_form.coefficients_in((1, 2))
    zero = Poly.zero(("alpha",), QQ)
    c40 = groups.get((4, 0), zero)
    c04 = groups.get((0, 4), zero)
    c22 = groups.get((2, 2), zero)
    if (c40 != c04 or groups.get((3, 1), zero) != zero
            or groups.get((1, 3), zero) != zero or c40.is_zero()):
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
