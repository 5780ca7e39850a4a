"""Plane constructions over the standard conic: harmonic pairs, the six
derived points of a conic against the coordinate triangle, the bracket
identity of their coordinate matrix, and the chord/tangent constructions
(Richelot-style forward and inverse, and the six-point self-map).

A point pair is the coefficient triple (A, B, C) of a binary quadratic,
which on the standard conic is also its chord.  Every frame comes from the
chord triangle and every determinant from `linalg.poly_det`, so the whole
module runs unchanged over QQ, GF(p) and polynomial parameter rings, with
no root extraction and no division but `scalars.exact_div`."""

from __future__ import annotations

from functools import reduce
from itertools import combinations, permutations

from .linalg import poly_det
from .maps import normalize_point
from .poly import (Poly, divexact, normalize_jointly, poly_ring,
                   univariate_gcd, unwrap)
from .scalars import GF, QQ, Fp, as_scalar

CONIC_COEFF_VARS = ("a", "b", "c", "d", "e", "f")


class GeometryError(ValueError):
    pass


def proportional(u, v) -> bool:
    """Whether two coordinate sequences (scalars or polynomials) agree up
    to a scalar: equal length and every 2x2 minor u_i v_j - u_j v_i zero."""
    n = len(u)
    return len(v) == n and not any(u[i] * v[j] - u[j] * v[i]
                                   for i in range(n) for j in range(i + 1, n))


# ---------------------------------------------------------------------------
# point pairs as binary quadratics


def _ring_of(values, ring=QQ):
    """The ring of some coefficients: a Poly's ring if any is a Poly,
    GF(p) if any is an Fp, and `ring` otherwise."""
    return next((c.ring for c in values if isinstance(c, Poly)),
                next((GF(c.p) for c in values if isinstance(c, Fp)), ring))


class PointPair:
    """An unordered pair of points on the line: the nonzero binary
    quadratic A*s^2 + B*s*t + C*t^2 in the line variables `vars`, kept as
    its coefficient triple (double points allowed, but flagged by
    is_double_point).  The coefficients are scalars, or Polys in the
    parameter variables `params`, beside which a scalar is lifted to a
    Poly; the ring is read off them by `_ring_of`."""

    def __init__(self, A, B, C, vars=("t0", "t1"), ring=QQ):
        coeffs = (A, B, C)
        ring = _ring_of(coeffs, ring)
        zero = next((c * 0 for c in coeffs if isinstance(c, Poly)), None)
        if zero is None:
            coeffs = tuple(as_scalar(c, ring) for c in coeffs)
        else:
            coeffs = tuple(zero + c for c in coeffs)
        if not any(coeffs):
            raise GeometryError("zero form does not cut a point pair")
        self.A, self.B, self.C = coeffs
        self.vars = tuple(vars)
        self.params = () if zero is None else zero.vars
        self.ring = ring

    @classmethod
    def from_form(cls, form) -> "PointPair":
        """The pair a degree-2 binary `Form` cuts; its other variables
        become the parameters."""
        if form.degree != 2 or len(form.indices) != 2:
            raise GeometryError("point pair needs a degree-2 binary form")
        A, B, C = map(unwrap, form.coefficients(((2, 0), (1, 1), (0, 2))))
        return cls(A, B, C, tuple(form.poly.vars[i] for i in form.indices),
                   form.poly.ring)

    @property
    def poly(self) -> Poly:
        """The quadratic, in the parameter variables, then `vars`."""
        big = self.params + self.vars
        s, t = poly_ring(big, self.ring)[-2:]
        A, B, C = (c.extend_to(big) if isinstance(c, Poly) else c
                   for c in self.coefficients())
        return s * s * A + s * t * B + t * t * C

    def coefficients(self):
        """(A, B, C) — scalars, or polynomials in the parameter variables."""
        return self.A, self.B, self.C

    def is_double_point(self) -> bool:
        A, B, C = self.coefficients()
        return not (A * C * 4 - B * B)

    def value_at(self, pt):
        A, B, C = self.coefficients()
        p0, p1 = pt
        return A * p0 * p0 + B * p0 * p1 + C * p1 * p1

    def __eq__(self, other):
        """Projective equality: proportional coefficient triples."""
        if not isinstance(other, PointPair):
            return NotImplemented
        return proportional(self.coefficients(), other.coefficients())

    def __hash__(self):
        raise TypeError("unhashable (projective equality)")

    def normalized(self) -> "PointPair":
        """A scalar pair: the canonical representative of
        `maps.normalize_point`.  A pair in one parameter: the triple over
        the `univariate_gcd` of its coefficients, which it then lacks,
        scaled by `normalize_jointly` at the last nonzero coefficient, as
        `normalize_point` scales: over QQ[a] coprime integers with that
        coefficient's lead term positive, over GF(p)[a] that lead term 1.
        A pair in two or more parameters comes back as it is."""
        coeffs = self.coefficients()
        if not self.params:
            coeffs = normalize_point(coeffs, self.ring)
        elif len(self.params) == 1:
            g = reduce(univariate_gcd, [c for c in coeffs if c])
            last = max(i for i, c in enumerate(coeffs) if c)
            coeffs = normalize_jointly([divexact(c, g) for c in coeffs], last)
        return PointPair(*coeffs, self.vars, self.ring)

    def __repr__(self):
        return f"PointPair({self.poly})"


def harmonic_partner(pair: PointPair, pt):
    """The unique q with {pt, q} harmonic to the pair.

    The pairing is linear in the unknown pair's coefficients, which makes q
    the image of pt under an explicit linear involution.  Undefined exactly
    when pt is a root of the pair.
    """
    if not pair.value_at(pt):
        raise GeometryError("point lies on the pair; no harmonic partner")
    A, B, C = pair.coefficients()
    p0, p1 = pt
    return (-(B * p0 + C * p1 * 2), A * p0 * 2 + B * p1)


# ---------------------------------------------------------------------------
# conics


class ProjectivePoint:
    """Homogeneous coordinates, compared up to a common nonzero scalar."""

    def __init__(self, coords):
        coords = tuple(coords)
        if len(coords) not in (2, 3):
            raise GeometryError("points live on a line or in the plane")
        if not any(coords):
            raise GeometryError("all-zero coordinates")
        self.coords = coords

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return proportional(self.coords, other.coords)

    def __hash__(self):
        raise TypeError("unhashable (projective equality)")

    def normalized(self) -> tuple:
        return normalize_point(self.coords, _ring_of(self.coords))

    def __repr__(self):
        return f"ProjectivePoint{self.coords}"


class Conic:
    """a*x^2 + b*y^2 + c*z^2 + 2d*xy + 2e*xz + 2f*yz, over scalars or a
    polynomial coefficient ring."""

    def __init__(self, a, b, c, d, e, f):
        self.a, self.b, self.c = a, b, c
        self.d, self.e, self.f = d, e, f

    def matrix(self):
        a, b, c, d, e, f = self.a, self.b, self.c, self.d, self.e, self.f
        return [[a, d, e], [d, b, f], [e, f, c]]

    def is_nonsingular(self) -> bool:
        return bool(poly_det(self.matrix()))

    def pairing(self, u, v):
        """The conic's symmetric bilinear form at two plane points."""
        m = self.matrix()
        return sum(m[i][j] * u[i] * v[j] for i in range(3) for j in range(3))

    def value_at(self, pt):
        return self.pairing(pt, pt)

    def coordinate_restriction(self, i: int) -> PointPair:
        """The binary quadratic cut on the coordinate line x_i = 0."""
        j, k = (n for n in range(3) if n != i)
        m = self.matrix()
        return PointPair(m[j][j], m[j][k] * 2, m[k][k], ("xyz"[j], "xyz"[k]))

    def __repr__(self):
        return (f"Conic(a={self.a}, b={self.b}, c={self.c}, "
                f"d={self.d}, e={self.e}, f={self.f})")


def symbolic_conic() -> Conic:
    """The fully generic conic over QQ[a..f]."""
    return Conic(*poly_ring(CONIC_COEFF_VARS, QQ))


# the standard conic 2*(xz - y^2), kept integral
STANDARD_CONIC = Conic(0, -2, 0, 0, 1, 0)


def _embed(i: int, coords2):
    zero = coords2[0] * 0
    out = list(coords2)
    out.insert(i, zero)
    return ProjectivePoint(out)


def q_construction(conic: Conic):
    """Six points derived from a conic against the coordinate triangle.

    On each coordinate line, take the harmonic partners of the two triangle
    vertices with respect to the pair the conic cuts there.  The outputs,
    in order:

        q1 = [0, f, -b]   q2 = [0, -c, f]   q3 = [-c, 0, e]
        q4 = [e, 0, -a]   q5 = [d, -a, 0]   q6 = [-b, d, 0]

    up to projective scaling.
    """
    r0 = conic.coordinate_restriction(0)
    r1 = conic.coordinate_restriction(1)
    r2 = conic.coordinate_restriction(2)
    one = r0.coefficients()[0] * 0 + 1
    zero = one * 0
    e0, e1 = (one, zero), (zero, one)
    try:
        pts = (_embed(0, harmonic_partner(r0, e0)),
               _embed(0, harmonic_partner(r0, e1)),
               _embed(1, harmonic_partner(r1, e1)),
               _embed(1, harmonic_partner(r1, e0)),
               _embed(2, harmonic_partner(r2, e0)),
               _embed(2, harmonic_partner(r2, e1)))
    except GeometryError as exc:
        raise GeometryError(f"degenerate conic for the six-point "
                            f"construction: {exc}") from exc
    for i, j in combinations(range(6), 2):
        if pts[i] == pts[j]:
            raise GeometryError(
                f"six-point construction degenerates: points {i + 1} "
                f"and {j + 1} coincide")
    return pts


# ---------------------------------------------------------------------------
# the bracket identity


def coble_matrix():
    """The 3x6 coordinate matrix of the six points for the generic conic,
    with the fixed representatives the bracket table refers to."""
    a, b, c, d, e, f = poly_ring(CONIC_COEFF_VARS, QQ)
    zero = Poly.zero(CONIC_COEFF_VARS, QQ)
    cols = [(zero, f, -b), (zero, -c, f), (-c, zero, e),
            (e, zero, -a), (d, -a, zero), (-b, d, zero)]
    return [[cols[j][r] for j in range(6)] for r in range(3)]


def bracket(m, i: int, j: int, k: int):
    """3x3 minor of a 3x6 matrix on columns i, j, k (1-indexed)."""
    return poly_det([[m[r][i - 1], m[r][j - 1], m[r][k - 1]]
                     for r in range(3)])


def bracket_factorizations() -> dict:
    """The eight closed-form minors of the generic six-point matrix."""
    a, b, c, d, e, f = poly_ring(CONIC_COEFF_VARS, QQ)
    return {
        (1, 2, 3): -c * (f * f - b * c),
        (1, 4, 5): a * (b * e - d * f),
        (2, 4, 6): d * e * f - a * b * c,
        (3, 5, 6): e * (d * d - a * b),
        (1, 2, 4): e * (f * f - b * c),
        (1, 3, 5): d * e * f - a * b * c,
        (2, 3, 6): c * (b * e - d * f),
        (4, 5, 6): -a * (d * d - a * b),
    }


def coble_identity_check() -> bool:
    """(123)(145)(246)(356) == (124)(135)(236)(456) in QQ[a..f], and every
    closed-form minor matches its determinant."""
    m = coble_matrix()
    table = bracket_factorizations()
    for (i, j, k), expected in table.items():
        if bracket(m, i, j, k) != expected:
            return False
    lhs = (table[(1, 2, 3)] * table[(1, 4, 5)] * table[(2, 4, 6)]
           * table[(3, 5, 6)])
    rhs = (table[(1, 2, 4)] * table[(1, 3, 5)] * table[(2, 3, 6)]
           * table[(4, 5, 6)])
    return lhs == rhs


# ---------------------------------------------------------------------------
# conic membership and fitting


def _veronese_row(pt):
    x, y, z = pt.coords
    return [x * x, y * y, z * z, x * y, x * z, y * z]


def conic_through(points) -> bool:
    """Do six points lie on a common conic?  Rank condition on the 6x6
    matrix of quadric monomial values."""
    points = list(points)
    if len(points) != 6:
        raise GeometryError("need exactly six points")
    return not poly_det([_veronese_row(p) for p in points])


def conic_fit(points) -> Conic:
    """The conic through five points imposing independent conditions.

    The signed 5x5 minors of the five Veronese rows span their kernel, and
    they all vanish exactly when the points are in special position."""
    points = list(points)
    if len(points) != 5:
        raise GeometryError("need exactly five points")
    rows = [_veronese_row(p) for p in points]
    v = [poly_det([r[:k] + r[k + 1:] for r in rows]) * (-1) ** k
         for k in range(6)]
    if not any(v):
        raise GeometryError("five points in special position")
    return Conic(v[0] * 2, v[1] * 2, v[2] * 2, v[3], v[4], v[5])


# ---------------------------------------------------------------------------
# chord/tangent constructions on the standard conic

# Points of the standard conic carry the parametrization [s^2, st, t^2]; a
# pair's coefficients (A, B, C) are its chord A*x + B*y + C*z = 0 (plug the
# parametrization into the line and you recover the quadratic).


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _on_standard_conic(pt) -> bool:
    return not (pt[0] * pt[2] - pt[1] * pt[1])


def polar_line(pt) -> tuple:
    """Polar of a plane point with respect to the standard conic."""
    return (pt[2], pt[1] * -2, pt[0])


def line_pole(line) -> tuple:
    """Pole of a plane line with respect to the standard conic."""
    return (line[2] * 2, -line[1], line[0] * 2)


def tangency_pair(vertex, vars=("t0", "t1")) -> PointPair:
    """The pair where the tangents from an external point touch the conic:
    the polar line's restriction, as a parameter quadratic."""
    if _on_standard_conic(vertex):
        raise GeometryError("vertex lies on the conic; tangency pair "
                            "degenerates to a double point")
    return PointPair(*polar_line(vertex), vars)


def pair_vertex(pair: PointPair) -> tuple:
    """Intersection of the tangent lines at the two points of the pair
    (equivalently, the pole of its chord)."""
    return line_pole(pair.coefficients())


def is_tangency_pair(vertex, pair: PointPair) -> bool:
    """Duality check: the pair's chord is exactly the polar of the vertex."""
    return proportional(polar_line(vertex), pair.coefficients())


def _chord_triangle(pairs, tangent_input: bool):
    """The pairs' shared line variables, and the vertices L_j x L_k of
    their chords L_i.
    Tangent input (the inverse move) has no double point, and its triangle
    is that of the poles of the L_i, of determinant 4 det(L)."""
    pairs = list(pairs)
    if len(pairs) != 3:
        raise GeometryError("need exactly three pairs")
    first = pairs[0]
    if any((p.vars, p.params, p.ring) != (first.vars, first.params,
                                          first.ring) for p in pairs):
        raise GeometryError("pairs must share one parameter ring")
    lines = [p.coefficients() for p in pairs]
    if not tangent_input:
        if not poly_det(lines):
            raise GeometryError("degenerate chord triangle")
    elif any(p.is_double_point() for p in pairs):
        raise GeometryError("double point pair has no tangent vertex")
    elif not poly_det(lines) * 4:
        raise GeometryError("degenerate vertex triangle")
    return first.vars, [_cross(lines[1], lines[2]),
                        _cross(lines[2], lines[0]), _cross(lines[0], lines[1])]


def richelot_forward(pairs):
    """Pairs -> chords -> triangle vertices -> tangency pairs."""
    vars, vertices = _chord_triangle(pairs, tangent_input=False)
    return tuple(tangency_pair(v, vars).normalized() for v in vertices)


def richelot_inverse(pairs):
    """Tangency pairs -> vertices -> triangle sides -> cut pairs.

    The side pole(L_j) x pole(L_k) is 2 polar(L_j x L_k): this is the
    forward move, an involution, but it refuses double-point input and
    returns double-point output, where the forward move does the reverse.
    """
    vars, vertices = _chord_triangle(pairs, tangent_input=True)
    return tuple(PointPair(*polar_line(v), vars).normalized()
                 for v in vertices)


def pair_triples_match(first, second) -> bool:
    """Unordered equality of two pair-triples (projective, all orderings)."""
    first, second = list(first), list(second)
    if len(first) != 3 or len(second) != 3:
        raise GeometryError("need triples of pairs")
    return any(all(a == b for a, b in zip(first, perm))
               for perm in permutations(second))


# ---------------------------------------------------------------------------
# the six-point self-map


def _parameter_of(conic: Conic, center, ref0, ref1, pt):
    """Parameter of a conic point under projection from another one."""
    if ProjectivePoint(pt) == ProjectivePoint(center):
        return (conic.pairing(center, ref1), -conic.pairing(center, ref0))
    return (poly_det([center, pt, ref1]), -poly_det([center, pt, ref0]))


def sigma_map(pairs):
    """Send three pairs on the standard conic to the six-point construction
    applied in the frame of their chord triangle.

    The chords become the coordinate triangle, the conic is rewritten in
    that frame, the six derived points are taken pairwise (they lie on a
    new nonsingular conic, not the input one), and that new conic is
    reparametrized by projection from the first derived point, yielding
    parameter quadratics again.

    The frame change inverts the matrix L of the chords, whose inverse has
    the triangle's vertices as columns up to det(L); that factor only
    rescales the moved conic, whose entries are thus pairings of vertices.
    """
    vars, vertices = _chord_triangle(pairs, tangent_input=False)
    moved = Conic(*(STANDARD_CONIC.pairing(vertices[i], vertices[j])
                    for i, j in ((0, 0), (1, 1), (2, 2),
                                 (0, 1), (0, 2), (1, 2))))
    qs = [p.coords for p in q_construction(moved)]
    fitted = conic_fit([ProjectivePoint(q) for q in qs[:5]])
    if fitted.value_at(qs[5]):
        raise GeometryError("six derived points failed to land on a conic")
    if not fitted.is_nonsingular():
        raise GeometryError("derived conic is singular")
    center = qs[0]
    refs = next(((qs[i], qs[j]) for i, j in combinations(range(1, 6), 2)
                 if poly_det([center, qs[i], qs[j]])), None)
    if refs is None:
        raise GeometryError("derived points are collinear with the center")
    params = [_parameter_of(fitted, center, refs[0], refs[1], q) for q in qs]
    return tuple(PointPair(u[1] * v[1], -(u[1] * v[0] + u[0] * v[1]),
                           u[0] * v[0], vars).normalized()
                 for u, v in (params[0:2], params[2:4], params[4:6]))
