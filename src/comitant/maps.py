"""Self-maps of P^1: pencil coordinates, covers, descent, and the Hammond map.

Degrees are algebraic degrees of reduced fractions, nothing topological.
All construction here goes through the pencil Hessians and the calibrated
invariants; no map is typed in from a table, and the two derived self-maps
come with shape assertions so a normalization bug cannot slip through as a
plausible-looking answer.
"""

from __future__ import annotations

from functools import lru_cache

from . import comitants, invariants, linalg, poly
from .comitants import Form
from .poly import Poly
from .scalars import QQ

PENCIL_VARS = ("t0", "t1")


class MapError(ValueError):
    pass


class RationalMapP1:
    """[num : den] with homogeneous entries of equal degree in (t0, t1)."""

    def __init__(self, num: Poly, den: Poly):
        if num.vars != den.vars or len(num.vars) != 2:
            raise MapError("map entries must share one 2-variable ring")
        if num.ring != den.ring:
            raise MapError("map entries must share one scalar ring")
        if num.is_zero() and den.is_zero():
            raise MapError("zero map")
        if not (num.is_homogeneous() and den.is_homogeneous()):
            raise MapError("map entries must be homogeneous")
        if num.terms and den.terms and num.total_degree() != den.total_degree():
            raise MapError(
                f"entry degrees differ: {num.total_degree()} vs "
                f"{den.total_degree()}")
        _, num, den = poly.gcd_cofactors(num, den)
        # one constant scales both: num's lead term, or den's if num = 0
        self.num, self.den = poly.normalize_jointly([num, den],
                                                    0 if num else 1)

    @property
    def degree(self) -> int:
        return max(self.num.total_degree(), self.den.total_degree())

    def __eq__(self, other):
        return (isinstance(other, RationalMapP1) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"[{self.num} : {self.den}]"

    def value_at(self, point):
        """Projective image of (p0, p1); (0, 0) marks indeterminacy.

        Over QQ the output is the coprime-integer representative with
        positive last nonzero entry; over GF(p), the map's ring or an F_p
        point's, the last nonzero entry is 1 (`poly.normalize_jointly`).
        """
        values = [f.evaluate(list(point)) for f in (self.num, self.den)]
        if not any(values):
            return tuple(values)
        return tuple(poly.normalize_jointly(values, 1 if values[1] else 0))


def compose(outer: RationalMapP1, inner: RationalMapP1) -> RationalMapP1:
    """outer after inner, by exact substitution and reduction."""
    if inner.num.vars != outer.num.vars or inner.num.ring != outer.num.ring:
        raise MapError("maps live in different rings")
    images = [inner.num, inner.den]
    num = outer.num.substitute(images)
    den = outer.den.substitute(images)
    if num.is_zero() and den.is_zero():
        raise MapError("degenerate composition: outer base locus swallows "
                       "the inner image")
    return RationalMapP1(num, den)


# ---------------------------------------------------------------------------
# the two pencil self-maps and their covers


def _pencil_reading(hess: Poly, b0_exps, b1_exp) -> RationalMapP1:
    """Read a form c0*B0 + 6*c1*B1 back to pencil coordinates [c0 : c1].

    B0 is the sum of the monomials in b0_exps, B1 the single monomial
    b1_exp.  The decomposition is verified exactly before the coordinates
    are returned, so a Hessian that left the pencil raises instead of
    producing a plausible-looking wrong map.
    """
    form = Form(hess, sum(b1_exp), range(2, 2 + len(b1_exp)))
    c0, c1 = form.coefficients([b0_exps[0], b1_exp])
    c1 = c1.scale_div(6)
    rebuilt = Poly.zero(hess.vars, hess.ring)
    for e in b0_exps:
        rebuilt = rebuilt + c0.extend_to(hess.vars) * Poly.monomial(
            1, (0, 0) + e, hess.vars, hess.ring)
    rebuilt = rebuilt + (c1.extend_to(hess.vars) * 6) * Poly.monomial(
        1, (0, 0) + b1_exp, hess.vars, hess.ring)
    if rebuilt != hess:
        raise MapError("hessian left the pencil; coordinate reading invalid")
    return RationalMapP1(c0, c1)


@lru_cache(maxsize=None)
def hesse_self_map() -> RationalMapP1:
    """Pencil coordinates of the Hessian of the Hesse pencil member."""
    pencil = invariants.hesse_pencil()
    hess = comitants.hessian(pencil.poly, pencil.indices)
    return _pencil_reading(hess, [(3, 0, 0), (0, 3, 0), (0, 0, 3)], (1, 1, 1))


@lru_cache(maxsize=None)
def quartic_self_map() -> RationalMapP1:
    """Pencil coordinates of the Hessian of the canonical quartic pencil."""
    pencil = invariants.quartic_pencil()
    hess = comitants.hessian(pencil.poly, pencil.indices)
    return _pencil_reading(hess, [(4, 0), (0, 4)], (2, 2))


@lru_cache(maxsize=None)
def hesse_cover() -> RationalMapP1:
    """[S^3 : T^2] on the Hesse pencil: the degree-12 quotient cover."""
    pencil = invariants.hesse_pencil()
    s = invariants.evaluate_invariant(invariants.invariant_S(), pencil)
    t = invariants.evaluate_invariant(invariants.invariant_T(), pencil)
    return RationalMapP1(s**3, t**2)


@lru_cache(maxsize=None)
def quartic_cover() -> RationalMapP1:
    """[I2^3 : I3^2] on the canonical quartic pencil: the degree-6 cover."""
    pencil = invariants.quartic_pencil()
    i2 = invariants.evaluate_invariant(invariants.invariant_I2(), pencil)
    i3 = invariants.evaluate_invariant(invariants.invariant_I3(), pencil)
    return RationalMapP1(i2**3, i3**2)


def descend_map(cover: RationalMapP1, composite: RationalMapP1,
                d: int) -> RationalMapP1:
    """Solve composite = R o cover for a degree-d map R, exactly.

    The coefficients of R = [P : Q] satisfy the linear system
    P(cover)*composite.den - Q(cover)*composite.num = 0; the solution space
    must be exactly 1-dimensional, and the round-trip compose(R, cover) ==
    composite is re-checked before returning.
    """
    if d < 0:
        raise MapError("negative degree requested")
    vars = cover.num.vars
    ring = cover.num.ring
    images = []
    npow = [Poly.constant(1, vars, ring)]
    dpow = [Poly.constant(1, vars, ring)]
    for _ in range(d):
        npow.append(npow[-1] * cover.num)
        dpow.append(dpow[-1] * cover.den)
    for i in range(d + 1):
        images.append(npow[d - i] * dpow[i])
    cols = ([im * composite.den for im in images]
            + [-(im * composite.num) for im in images])
    kernel = linalg.nullspace(linalg.rows_of([c.terms for c in cols]),
                              len(cols), ring)
    if not kernel:
        raise MapError("composite does not factor through the cover")
    if len(kernel) > 1:
        raise MapError(f"descent is not unique ({len(kernel)}-dimensional "
                       "solution space)")
    p, q = (Poly(vars, {(d - i, i): c for i, c in enumerate(half)}, ring)
            for half in (kernel[0][:d + 1], kernel[0][d + 1:]))
    result = RationalMapP1(p, q)
    if compose(result, cover) != composite:
        raise MapError("descent round-trip failed")
    return result


# ---------------------------------------------------------------------------
# the Hammond slice of binary quintics

HAMMOND_VARS = ("a", "b", "e", "f")


@lru_cache(maxsize=None)
def hammond_image_polys() -> tuple:
    """The six image coordinates as polynomials in (a, b, e, f).

    c5 = (af-5be)a, c4 = (5af-9be)b, c3 = 8b^2 f, c2 = -8a e^2,
    c1 = (5af-9be)e, c0 = -(af-5be)f.
    """
    a, b, e, f = poly.poly_ring(HAMMOND_VARS, QQ)
    k1 = a * f - b * e * 5
    k2 = a * f * 5 - b * e * 9
    return (k1 * a, k2 * b, b * b * f * 8, -(a * e * e * 8), k2 * e,
            -(k1 * f))


def c35_jacobian(form: Form) -> Form:
    """The quintic covariant J(f, (f,f)_4), defined on all of V(2,5)."""
    if form.degree != 5:
        raise MapError("this covariant is defined on binary quintics")
    t4 = comitants.transvectant(form, form, 4)
    jac = comitants.jacobian([form.poly, t4.poly], form.indices)
    return Form(jac, 5, form.indices)


_T_MONOMIAL_EXPS = ((5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5))


@lru_cache(maxsize=None)
def hammond_path_comparison() -> dict:
    """Coefficientwise comparison of the two image computation paths.

    Path (i): the coordinate formula of hammond_image_polys.  Path (ii):
    the covariant J(B, (B,B)_4) on the symbolic slice
    B = a*t0^5 + 5b*t0^4*t1 + 5e*t0*t1^4 + f*t1^5, a binary quintic with
    vanishing middle coefficients in the classical binomial-weighted slots.
    That is the unique slot assignment under which the coordinate formula
    is a value of the covariant; it is forced by matching the monomial
    patterns a^2 f, b^2 f, a e^2 of the image coordinates.  Returns
    {"scalar": s, "flipped": (exps...)} where path(ii) coefficient = s *
    path(i) coefficient except at the listed t-monomials, where the ratio
    is -s.  Raises if any coefficient pair fails to be proportional --
    that would mean the formula is not a covariant value at all.

    The measured outcome is scalar 10 with exactly one flipped slot,
    (1, 4); downstream maps are unaffected (flipping one image coordinate
    is a linear automorphism of the target), and the verification report
    carries the flip as a noted discrepancy.
    """
    vars = HAMMOND_VARS + PENCIL_VARS
    a, b, e, f, t0, t1 = poly.poly_ring(vars, QQ)
    slice_poly = (t0**5 * a + t0**4 * t1 * (b * 5) + t0 * t1**4 * (e * 5)
                  + t1**5 * f)
    path2 = c35_jacobian(Form(slice_poly, 5, (4, 5)))
    ratios = [poly.constant_ratio(c1, c2) for c1, c2 in zip(
        hammond_image_polys(), path2.coefficients(_T_MONOMIAL_EXPS))]
    if None in ratios or len({abs(r) for r in ratios}) != 1:
        raise MapError("C_{3,5} paths disagree beyond a scalar "
                       "(formula-check failure)")
    scalar = abs(ratios[0])
    flipped = [exp for exp, r in zip(_T_MONOMIAL_EXPS, ratios) if r < 0]
    if len(flipped) > 3:
        scalar, flipped = -scalar, [x for x in _T_MONOMIAL_EXPS
                                    if x not in flipped]
    return {"scalar": scalar, "flipped": tuple(flipped)}


def hammond_relations_symbolic() -> bool:
    """The relations a*c0 + f*c5 = 0 and e*c4 - b*c1 = 0 as polynomial
    identities in (a, b, e, f)."""
    a, b, e, f = poly.poly_ring(HAMMOND_VARS, QQ)
    c5, c4, c3, c2, c1, c0 = hammond_image_polys()
    return (a * c0 + f * c5).is_zero() and (e * c4 - b * c1).is_zero()
