"""Comitants of ternary quartics.

Two constructions, both reductions to already-calibrated invariants:

* a degree-4, order-4 covariant — the cubic invariant S evaluated on the
  polar cubic of the quartic, yielding a new quartic in the point;
* a degree-2, order-4 contravariant Omega — the binary invariant I2
  evaluated on the quartic's restriction to the universal line, computed
  once per process on the generic quartic in all three affine charts of
  the dual plane, glued by exact division, and then specialised to each
  quartic by `GenericComitant`.

Both refuse, up front, a prime field whose characteristic divides a
denominator of the polynomial they substitute into (S, Omega): GF(2) and
GF(3).
"""

from __future__ import annotations

from functools import lru_cache

from .comitants import DUAL_VARS, Form, FormError, polar, restrict_to_line
from .invariants import (GenericComitant, _check_characteristic,
                         evaluate_invariant, generic_form, invariant_I2,
                         invariant_S)
from .linalg import LinearSubstitution, poly_det
from .poly import Poly
from .scalars import exact_div


class QuarticError(ValueError):
    pass


def _fresh_point_vars(taken):
    for base in ("p", "pt", "pnt"):
        names = tuple(f"{base}{i}" for i in (1, 2, 3))
        if not any(n in taken for n in names):
            return names
    raise QuarticError("could not pick fresh point variable names")


def clebsch_covariant(F: Form) -> Form:
    """The order-4 covariant: S of the polar cubic, as a form in the point.

    Vanishes exactly where the polar cubic is equianharmonic; degree 4 in
    the coefficients of F.
    """
    if F.degree != 4 or len(F.indices) != 3:
        raise QuarticError("expected a ternary quartic")
    _check_characteristic(F.poly.ring, invariant_S().formula,
                          "clebsch_covariant", QuarticError)
    pv = _fresh_point_vars(F.poly.vars)
    cubic = Form(polar(F, pv), 3, F.indices)
    val = evaluate_invariant(invariant_S(), cubic)
    active = tuple(F.poly.vars[i] for i in F.indices)
    renamed = val.rename_vars(tuple(
        active[pv.index(v)] if v in pv else v for v in val.vars))
    return Form(renamed, 4, tuple(renamed.vars.index(v) for v in active))


# Degree bookkeeping for the line-restriction contravariant: restricting a
# quartic to the chart-2 parametrization (w*x, w*y, -u*x-v*y) gives binary
# coefficients of degree 4 in (u,v,w); I2 is quadratic in them, so the raw
# result has degree 8 and the chart variable divides it to the tune of
# 8 - 4 = 4.  The power is frozen here; the three charts must then agree
# verbatim, which generic_salmon checks on the generic quartic before any
# value is returned.
CHART_DIVISOR_POWER = 4


def _omega_in_chart(F: Form, chart: int) -> Poly:
    restricted = restrict_to_line(F, chart)
    val = evaluate_invariant(invariant_I2(), restricted)
    pos = val.vars.index(DUAL_VARS[chart])
    k = CHART_DIVISOR_POWER
    if any(e[pos] < k for e in val.terms):
        raise QuarticError(
            f"chart {chart}: dividing out {DUAL_VARS[chart]}^{k} is not exact")
    return Poly(val.vars, {e[:pos] + (e[pos] - k,) + e[pos + 1:]: c
                           for e, c in val.terms.items()}, val.ring)


@lru_cache(maxsize=None)
def _generic_salmon():
    """(Omega of the generic ternary quartic, over its 15 coefficient
    variables followed by (u, v, w); Omega as a `GenericComitant`).

    Built once per process, independently in the three dual charts; their
    verbatim agreement is the correctness certificate.
    """
    gen = generic_form(3, 4)
    k = len(gen.vars) - 3
    F = Form(gen, 4, (k, k + 1, k + 2))
    w2 = _omega_in_chart(F, 2)
    w0 = _omega_in_chart(F, 0)
    w1 = _omega_in_chart(F, 1)
    if not (w0 == w1 and w1 == w2):
        raise QuarticError("cross-chart disagreement in the line "
                           "restriction invariant")
    return (Form(w2, 4, tuple(w2.vars.index(v) for v in DUAL_VARS)),
            GenericComitant(w2, [(3, 4)]))


def generic_salmon() -> Form:
    """Omega of the generic ternary quartic (see `_generic_salmon`)."""
    return _generic_salmon()[0]


def compiled_salmon() -> GenericComitant:
    """Omega compiled once with `generic_salmon()`, in the same cache."""
    return _generic_salmon()[1]


# one cache holds Omega and its compiled comitant: clearing it drops both
generic_salmon.cache_clear = _generic_salmon.cache_clear


def salmon_contravariant(F: Form) -> Form:
    """The order-4 contravariant: I2 of the restriction to a moving line.

    `generic_salmon()`, whose three chart computations agree verbatim, is
    specialised at F by its `GenericComitant`, compiled once with it.  A
    substitution is a ring map: agreement holds for every specialisation.
    The result lives in F's parameters followed by (u, v, w).
    """
    if F.degree != 4 or len(F.indices) != 3:
        raise QuarticError("expected a ternary quartic")
    for v in DUAL_VARS:
        if v in F.poly.vars:
            raise FormError(f"variable {v!r} collides with the form's ring")
    generic, compiled = _generic_salmon()
    _check_characteristic(F.poly.ring, generic.poly, "salmon_contravariant",
                          QuarticError)
    omega = compiled(F)
    n = len(omega.vars) - 3
    return Form(omega, 4, (n, n + 1, n + 2))


def contragredient(g: LinearSubstitution) -> LinearSubstitution:
    """The inverse-transpose substitution, acting on dual variables: the
    cofactor matrix of g divided by det(g)."""
    m, n = g.matrix, g.n

    def cofactor(i, j):
        minor = [row[:j] + row[j + 1:] for row in m[:i] + m[i + 1:]]
        return (-1) ** (i + j) * poly_det(minor) if minor else 1

    return LinearSubstitution(
        [[exact_div(cofactor(i, j), g.det) for j in range(n)]
         for i in range(n)], g.ring)
