"""Comitants of ternary quartics.

Two constructions, both reductions to already-calibrated invariants:

* a degree-4, order-4 covariant — the cubic invariant S evaluated on the
  polar cubic of the quartic, yielding a new quartic in the point;
* a degree-2, order-4 contravariant — the binary invariant I2 evaluated on
  the quartic's restriction to the universal line, computed in all three
  affine charts of the dual plane and glued by exact division.
"""

from __future__ import annotations

from .comitants import DUAL_VARS, Form, polar, restrict_to_line
from .invariants import (evaluate_invariant, invariant_I2, invariant_S,
                         invariant_S_quartic)
from .linalg import LinearSubstitution
from .poly import Poly, divexact


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
# verbatim, which salmon_contravariant checks on every call.
CHART_DIVISOR_POWER = 4


def _omega_in_chart(F: Form, chart: int) -> Poly:
    restricted = restrict_to_line(F, chart)
    val = evaluate_invariant(invariant_I2(), restricted)
    pos = val.vars.index(DUAL_VARS[chart])
    exps = [0] * len(val.vars)
    exps[pos] = CHART_DIVISOR_POWER
    divisor = Poly.monomial(1, tuple(exps), val.vars, val.ring)
    try:
        return divexact(val, divisor)
    except ValueError as exc:
        raise QuarticError(
            f"chart {chart}: dividing out "
            f"{DUAL_VARS[chart]}^{CHART_DIVISOR_POWER} is not exact") from exc


def salmon_contravariant(F: Form) -> Form:
    """The order-4 contravariant: I2 of the restriction to a moving line.

    Computed independently in the three dual charts; exact agreement of the
    three results is the correctness certificate, enforced per call.
    """
    if F.degree != 4 or len(F.indices) != 3:
        raise QuarticError("expected a ternary quartic")
    w2 = _omega_in_chart(F, 2)
    w0 = _omega_in_chart(F, 0)
    w1 = _omega_in_chart(F, 1)
    if not (w0 == w1 and w1 == w2):
        raise QuarticError("cross-chart disagreement in the line "
                           "restriction invariant")
    return Form(w2, 4, tuple(w2.vars.index(v) for v in DUAL_VARS))


def clebsch_pencil(F: Form, c, c2) -> Form:
    """c * (covariant of F) + c2 * (degree-3 invariant of F) * F.

    Members of the 2-dimensional space of degree-4, order-4 covariants.
    """
    cov = clebsch_covariant(F)
    s4 = evaluate_invariant(invariant_S_quartic(), F)
    base = F.poly.extend_to(cov.poly.vars)
    if isinstance(s4, Poly):
        base = base * s4.extend_to(cov.poly.vars)
    else:
        base = base * s4
    return Form(cov.poly * c + base * c2, 4, cov.indices)


def contragredient(g: LinearSubstitution) -> LinearSubstitution:
    """The inverse-transpose substitution, acting on dual variables."""
    return LinearSubstitution(g.matrix.inverse().transpose())
