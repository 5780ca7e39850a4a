"""Executable claim registry: one named, deterministic check per claim.

Every statement the engine is able to certify lives here as a claim with a
stable id.  Running the registry produces a report with one record per
claim: id, description, status, witness text, and elapsed milliseconds.

Statuses:
  pass               -- the computation certifies the statement exactly
  fail               -- the computation contradicts it (or errored)
  discrepancy-noted  -- the computed value is internally consistent but
                        differs from the published figure it was checked
                        against; the witness records both sides
  out-of-scope       -- recorded claims that are not desk-checkable with
                        exact algebra; no computation is attempted

Reports are deterministic for a fixed (seed, primes, trials, filter): all
randomness is drawn from per-claim generators seeded by string hashing, so
filtering the registry never shifts another claim's draws.  The timing
field is wall-clock and is the one field excluded from the determinism
guarantee; `VerificationReport.canonical()` zeroes it for byte-for-byte
comparisons.
"""

from __future__ import annotations

import json
import random
import time
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from . import (associated, comitants, fibers, geometry, invariants, maps,
               poly, quartic, scalars)
from .associated import DUAL_BINARY
from .comitants import DUAL_VARS, Form
from .fibers import FiberError
from .geometry import GeometryError, PointPair, ProjectivePoint
from .invariants import GenericComitant
from .maps import PENCIL_VARS
from .poly import Poly
from .scalars import QQ

PASS = "pass"
FAIL = "fail"
NOTED = "discrepancy-noted"
OUT_OF_SCOPE = "out-of-scope"

DEFAULT_SEED = 0
DEFAULT_PRIMES = (101, 10007)
DEFAULT_TRIALS = 20


class VerifyError(ValueError):
    pass


@dataclass(frozen=True)
class VerifyContext:
    seed: int
    primes: tuple
    trials: int
    claim_id: str

    def rng(self) -> random.Random:
        # string seeding hashes all bits deterministically (seed version 2),
        # so per-claim streams are independent of the filter in effect
        return random.Random(f"{self.seed}:{self.claim_id}")


@dataclass
class ClaimResult:
    claim_id: str
    description: str
    status: str
    witness: str
    millis: int


_Claim = namedtuple("_Claim", "claim_id description fn")


# ---------------------------------------------------------------------------
# small helpers shared by the claims


def _random_form(rng: random.Random, names, degree: int):
    """Dense random form, coefficients in -5..5, never identically zero."""
    n = len(names)
    while True:
        terms = {}
        for combo in combinations_with_replacement(range(n), degree):
            c = rng.randint(-5, 5)
            if c:
                terms[tuple(combo.count(i) for i in range(n))] = c
        if terms:
            return Poly(tuple(names), terms, QQ)


def _nonsquare_substitution(n: int, rng: random.Random):
    """A random substitution whose det is not 0 or +-1, so that the
    determinant weight is pinned by a single probe."""
    while True:
        g = invariants.random_substitution(n, rng)
        if abs(g.det) not in (0, 1):
            return g


def _covariance_series(rng, probes, n, degree, comitant, arity=1,
                       act_out=lambda g, p: g.apply(p)):
    """Measure the determinant weight once, then assert it exactly on
    `probes` fresh probes.  A probe draws `arity` random forms f and a
    substitution g, and checks comitant(g.f, ...) == det(g)^w *
    act_out(g, comitant(f, ...)), the comitant a `GenericComitant`
    specialised at f and at g.f.  Returns (weight, probes)."""
    names = ("x", "y") if n == 2 else ("X", "Y", "Z")
    weight = None
    checked = 0
    while checked < probes:
        forms = [_random_form(rng, names, degree) for _ in range(arity)]
        base = comitant(*forms)
        if base.is_zero():
            continue
        g = (_nonsquare_substitution(n, rng) if weight is None
             else invariants.random_substitution(n, rng))
        moved = comitant(*(g.apply(f) for f in forms))
        target = act_out(g, base)
        if weight is None:
            ratio = poly.constant_ratio(target, moved)
            weight = (None if ratio is None
                      else invariants.det_weight(g.det, ratio))
            if weight is None:
                raise VerifyError(f"the probe is not a power of det {g.det} "
                                  "times the transformed comitant")
        elif moved != target * g.det**weight:
            raise VerifyError(f"det^{weight} covariance failed")
        checked += 1
    return weight, checked


# ---------------------------------------------------------------------------
# pencil claims


def _c_hesse_hessian(ctx):
    pencil = invariants.hesse_pencil()
    he = comitants.hessian(pencil.poly, pencil.indices)
    t0, t1, X, Y, Z = poly.poly_ring(pencil.poly.vars, QQ)
    target = (t0 * t1**2 * (X**3 + Y**3 + Z**3)
              - (t0**3 + t1**3 * 2) * X * Y * Z) * -216
    if he != target:
        return FAIL, f"Hessian of the pencil computed as {he}"
    return PASS, ("He(t0*(X^3+Y^3+Z^3)+6*t1*XYZ) == "
                  "-216*(t0*t1^2*(X^3+Y^3+Z^3) - (t0^3+2*t1^3)*XYZ), exact")


def _c_aronhold_calibration(ctx):
    pencil = invariants.hesse_pencil()
    s_val = invariants.evaluate_invariant(invariants.invariant_S(), pencil)
    t_val = invariants.evaluate_invariant(invariants.invariant_T(), pencil)
    t0, t1 = poly.poly_ring(PENCIL_VARS, QQ)
    s_want = t0**3 * t1 - t1**4
    t_want = t0**6 - t0**3 * t1**3 * 20 - t1**6 * 8
    if s_val != s_want or t_val != t_want:
        return FAIL, f"S -> {s_val}, T -> {t_val}"
    return PASS, ("on the cubic pencil: S = t0^3*t1 - t1^4, "
                  "T = t0^6 - 20*t0^3*t1^3 - 8*t1^6, exact")


def _map_degrees(ctx, selfmap, cover, degree, cover_degree):
    """Self-map and cover degrees, exact descent of the composite, and a
    fiber bound from one sampled census."""
    comp = maps.compose(cover, selfmap)
    want = (degree, cover_degree, degree * cover_degree)
    if (selfmap.degree, cover.degree, comp.degree) != want:
        return FAIL, (f"degrees: self-map {selfmap.degree}, cover "
                      f"{cover.degree}, composite {comp.degree}")
    down = maps.descend_map(cover, comp, degree)
    if down.degree != degree or maps.compose(down, cover) != comp:
        return FAIL, f"descent gave degree {down.degree}"
    p = ctx.primes[1]
    census = fibers.sample_report(selfmap, p, samples=1, seed=ctx.seed)
    if census["max_fiber"] > degree:
        return FAIL, f"a fiber of size {census['max_fiber']} over F_{p}"
    return PASS, (f"self-map degree {degree}, invariant cover degree "
                  f"{cover_degree}, composite {degree * cover_degree}, "
                  f"descended quotient degree {degree} (round-trip exact); "
                  f"max fiber {census['max_fiber']} over F_{p}")


def _c_hesse_map_degrees(ctx):
    return _map_degrees(ctx, maps.hesse_self_map(), maps.hesse_cover(), 3, 12)


def _c_quartic_calibration(ctx):
    form = invariants.canonical_quartic()
    i2 = invariants.evaluate_invariant(invariants.invariant_I2(), form)
    i3 = invariants.evaluate_invariant(invariants.invariant_I3(), form)
    (alpha,) = poly.poly_ring(("alpha",), QQ)
    if i2 != alpha**2 * 3 + 1 or i3 != alpha - alpha**3:
        return FAIL, f"I2 -> {i2}, I3 -> {i3}"
    return PASS, ("on x^4 + 6a*x^2*y^2 + y^4: I2 = 1 + 3a^2, "
                  "I3 = a - a^3, exact")


def _c_quartic_map_degrees(ctx):
    return _map_degrees(ctx, maps.quartic_self_map(), maps.quartic_cover(),
                        2, 6)


def _c_quartic_hessian_middle_term(ctx):
    pencil = invariants.quartic_pencil()
    he = comitants.hessian(pencil.poly, pencil.indices)
    t0, t1, x, y = poly.poly_ring(pencil.poly.vars, QQ)
    computed = (t0 * t1 * (x**4 + y**4)
                + (t0**2 - t1**2 * 3) * x**2 * y**2) * 144
    if he != computed:
        return FAIL, f"pencil Hessian computed as {he}"
    return NOTED, ("He(x^4 + 6a*x^2*y^2 + y^4) has middle coefficient "
                   "1 - 3a^2 (certified by the exact determinant); the "
                   "published value 1 - 4a^2 differs.  The self-map reading "
                   "uses the computed coefficient")


# ---------------------------------------------------------------------------
# quintic-slice claims


def _c_quintic_image_two_paths(ctx):
    cmp = maps.hammond_path_comparison()
    if cmp["scalar"] != 10 or cmp["flipped"] not in ((), ((1, 4),)):
        return FAIL, (f"paths relate by scalar {cmp['scalar']} with sign "
                      f"flips at {cmp['flipped']}")
    if not cmp["flipped"]:
        return PASS, "covariant path == 10 * coordinate path, all six slots"
    return NOTED, ("covariant path J(B,(B,B)_4) equals 10 x the published "
                   "coordinate formulas on five of six slots; the t0*t1^4 "
                   "slot carries the opposite sign.  Flipping one target "
                   "coordinate is a linear automorphism, so fibers and "
                   "degrees are unaffected; the engine keeps the covariant "
                   "reading")


def _c_quintic_image_relations(ctx):
    if not maps.hammond_relations_symbolic():
        return FAIL, "a*c0 + f*c5 or e*c4 - b*c1 is not identically zero"
    return PASS, ("a*c0 + f*c5 == 0 and e*c4 - b*c1 == 0 hold identically "
                  "in QQ[a,b,e,f]")


def _c_quintic_image_fibers(ctx):
    p = ctx.primes[0]
    samples = max(100, ctx.trials * 5)
    rep = fibers.sample_report(maps.hammond_image_polys(), p, samples,
                               ctx.seed)
    frac = rep["fraction_ones"]
    tenths = round(frac * 1000)  # of a percent, rounded exactly
    witness = (f"P^3(F_{p}) census: {samples} sampled image points, "
               f"{tenths // 10}.{tenths % 10}% with fiber size 1; max_fiber="
               f"{rep['max_fiber']} indeterminate={rep['indeterminate']}")
    # the gate is the census's exact share q(p) of determinate points alone
    # in their fiber, not the seeded sample, which estimates it and stays in
    # the witness; q(p) = p/(p+1) at every prime 7 <= p <= 53 and at 101,
    # and below 95/100 at p = 3 and 5, so p <= 17 fails at every seed
    if rep["singleton_share"] < Fraction(95, 100):
        return FAIL, witness
    return PASS, witness


# ---------------------------------------------------------------------------
# six-point claims


def _c_coble_bracket_identity(ctx):
    if not geometry.coble_identity_check():
        return FAIL, ("a minor misses its closed form, or "
                      "(123)(145)(246)(356) != (124)(135)(236)(456)")
    return PASS, ("(123)(145)(246)(356) == (124)(135)(236)(456) as an "
                  "exact identity in QQ[a..f]; all eight minors match "
                  "their closed-form factorizations")


def _c_coble_extra_bracket(ctx):
    m = geometry.coble_matrix()
    lhs = (geometry.bracket(m, 1, 2, 3) * geometry.bracket(m, 1, 4, 5)
           * geometry.bracket(m, 2, 4, 6) * geometry.bracket(m, 3, 5, 6))
    rhs = (geometry.bracket(m, 1, 2, 4) * geometry.bracket(m, 1, 3, 5)
           * geometry.bracket(m, 2, 3, 6) * geometry.bracket(m, 4, 5, 6))
    if lhs != rhs:
        return FAIL, "the balanced four-by-four identity itself fails"
    if lhs == rhs * geometry.bracket(m, 1, 2, 3):
        return FAIL, "the variant with an extra (123) factor also holds"
    return NOTED, ("the published right-hand product carries a fifth "
                   "factor (123); with it the two sides are provably "
                   "unequal, without it the identity is exact.  The "
                   "four-by-four form is the one certified")


def _c_six_point_conic_table(ctx):
    pts = geometry.q_construction(geometry.symbolic_conic())
    a, b, c, d, e, f = poly.poly_ring(("a", "b", "c", "d", "e", "f"), QQ)
    zero = a * 0
    table = (ProjectivePoint((zero, f, -b)), ProjectivePoint((zero, -c, f)),
             ProjectivePoint((-c, zero, e)), ProjectivePoint((e, zero, -a)),
             ProjectivePoint((d, -a, zero)), ProjectivePoint((-b, d, zero)))
    for i, (got, want) in enumerate(zip(pts, table), start=1):
        if got != want:
            return FAIL, f"q{i} computed as {got}, table says {want}"
    if not geometry.conic_through(pts):
        return FAIL, "the six points do not lie on a common conic"
    return PASS, ("harmonic-partner construction reproduces the six-point "
                  "table q1=[0,f,-b] .. q6=[-b,d,0] projectively, and the "
                  "6x6 conic condition vanishes identically")


# ---------------------------------------------------------------------------
# equivariance claims


def _generic(comitant, *spaces) -> GenericComitant:
    """comitant (a Poly-valued map of Forms) on the universal forms of the
    spaces, compiled for the probes; built anew on every run."""
    return GenericComitant(comitant(*invariants.generic_forms(*spaces)),
                           spaces)


def _c_equivariance_hessian(ctx):
    he = _generic(lambda F: comitants.hessian(F.poly, F.indices), (3, 3))
    w, n = _covariance_series(ctx.rng(), ctx.trials, 3, 3, he)
    return PASS, (f"He(g.F) == det(g)^{w} * g.He(F) for {n} random "
                  "substitutions on random ternary cubics, exact")


def _c_equivariance_transvectant(ctx):
    rng = ctx.rng()
    probes = (ctx.trials + 1) // 2
    series = []
    for k in (2, 4):
        tk = _generic(lambda f, h: comitants.transvectant(f, h, k).poly,
                      (2, 4), (2, 4))
        series.append(_covariance_series(rng, probes, 2, 4, tk, arity=2))
    (w2, n2), (w4, n4) = series
    return PASS, (f"(g.f, g.h)_k == det(g)^k * g.(f,h)_k exactly: "
                  f"{n2} probes at k=2 (weight {w2}), "
                  f"{n4} probes at k=4 (weight {w4})")


def _c_equivariance_quintic_covariant(ctx):
    c35 = _generic(lambda f: maps.c35_jacobian(f).poly, (2, 5))
    w, n = _covariance_series(ctx.rng(), ctx.trials, 2, 5, c35)
    return PASS, (f"J(g.f, (g.f, g.f)_4) == det(g)^{w} * g.J(f, (f,f)_4) "
                  f"for {n} random substitutions on full binary quintics")


def _c_equivariance_clebsch_quartic(ctx):
    cov = _generic(lambda F: quartic.clebsch_covariant(F).poly, (3, 4))
    w, n = _covariance_series(ctx.rng(), ctx.trials, 3, 4, cov)
    return PASS, (f"degree-4 covariant of ternary quartics transforms with "
                  f"det(g)^{w} on {n} random substitutions, exact")


def _c_equivariance_salmon_dual(ctx):
    w, n = _covariance_series(
        ctx.rng(), ctx.trials, 3, 4, quartic.compiled_salmon(),
        act_out=lambda g, p: quartic.contragredient(g).apply(p))
    return PASS, (f"Omega(g.F) == det(g)^{w} * Omega(F) o g^(-T) for "
                  f"{n} random substitutions: the dual form "
                  "transforms contragrediently, exact")


# ---------------------------------------------------------------------------
# quintic invariants


def _c_quintic_invariant_basis(ctx):
    rng = ctx.rng()
    # self-validates: degrees, sl2, rank 3
    trio = invariants.quintic_invariants()
    x, y = poly.poly_ring(("x", "y"), QQ)
    x5 = Form(x**5, 5)
    for desc in trio:
        if invariants.evaluate_invariant(desc, x5) != 0:
            return FAIL, f"{desc.name} does not vanish on x^5"
    while True:
        sample = Form(_random_form(rng, ("x", "y"), 5), 5)
        vals = [invariants.evaluate_invariant(d, sample) for d in trio]
        if all(vals):
            break
    for _ in range(3):
        g = invariants.random_substitution(2, rng, unimodular=True)
        moved = invariants.substituted_form(sample, g)
        got = [invariants.evaluate_invariant(d, moved) for d in trio]
        if got != vals:
            return FAIL, "a unimodular substitution changed an invariant"
    return PASS, ("I4, I8, I12 built by transvectant chain from (f,f)_4: "
                  "coefficient degrees 4/8/12, annihilated by both sl2 "
                  "operators, Jacobian rank 3 at a sample point, vanish on "
                  "x^5, and fixed by 3 unimodular substitutions exactly")


# ---------------------------------------------------------------------------
# associated-form claims


def _c_associated_form_values(ctx):
    rng = ctx.rng()
    x, y = poly.poly_ring(("x", "y"), QQ)
    bform = Form(x**4 + y**4, 4)
    bres = associated.associated_form(bform)
    u, v = poly.poly_ring(DUAL_BINARY, QQ)
    c2 = poly.constant_ratio(u**2 * v**2, bres.form)
    X, Y, Z = poly.poly_ring(("X", "Y", "Z"), QQ)
    tform = Form(X**3 + Y**3 + Z**3, 3)
    tres = associated.associated_form(tform)
    u3, v3, w3 = poly.poly_ring(DUAL_VARS, QQ)
    c3 = poly.constant_ratio(u3 * v3 * w3, tres.form)
    if c2 is None or c3 is None:
        return FAIL, (f"as(x^4+y^4) = {bres.form} and as(X^3+Y^3+Z^3) = "
                      f"{tres.form}: not both multiples of u^2*v^2, u*v*w")
    for res, form, n in ((bres, bform, 2), (tres, tform, 3)):
        done = 0
        while done < 5:
            ell = tuple(rng.randint(-5, 5) for _ in range(n))
            if not any(ell):
                continue
            if not associated.congruence_holds(res, form, ell):
                return FAIL, (f"congruence failed for ell={ell} on the "
                              f"{n}-variable sample")
            done += 1
    return PASS, (f"as(x^4+y^4) == {c2} * u^2*v^2 and as(X^3+Y^3+Z^3) == "
                  f"{c3} * u*v*w; the defining congruence scale*l^N == "
                  "as(f)(l)*He(f) mod J(f) re-verified for 5 random l each")


def _c_associated_selfmap_degree(ctx):
    m = associated.associated_slice_map()
    t0, t1 = poly.poly_ring(PENCIL_VARS, QQ)
    if m.num * (-t0) != m.den * (t1 * 3):
        return FAIL, f"slice map computed as [{m.num} : {m.den}]"
    deg = associated.associated_selfmap_degree()
    if deg != 1:
        return FAIL, f"descended degree {deg}"
    return PASS, ("slice map [3*t1 : -t0] (a -> -1/(3a)) on the canonical "
                  "quartic line; composing with the degree-6 invariant "
                  "cover and descending leaves degree 1")


# ---------------------------------------------------------------------------
# conic construction claims


def _random_pair_triple(rng):
    while True:
        pairs = []
        for _ in range(3):
            coeffs = [rng.randint(-4, 4) for _ in range(3)]
            if not any(coeffs):
                continue
            pairs.append(PointPair(*coeffs))
        if len(pairs) != 3:
            continue
        return pairs


def _c_richelot_roundtrip(ctx):
    rng = ctx.rng()
    fixture = [PointPair(0, 1, 0, ("s", "t")),
               PointPair(1, 0, -1, ("s", "t")),
               PointPair(1, 0, -4, ("s", "t"))]
    fwd = geometry.richelot_forward(fixture)
    expect = [PointPair(0, 1, 0, ("s", "t")),
              PointPair(1, 0, 4, ("s", "t")),
              PointPair(1, 0, 1, ("s", "t"))]
    if not geometry.pair_triples_match(fwd, expect):
        return FAIL, f"fixture image computed as {[str(p) for p in fwd]}"
    done = 0
    attempts = 0
    while done < ctx.trials:
        attempts += 1
        if attempts > 60 * ctx.trials:
            return FAIL, "could not draw enough nondegenerate inputs"
        pairs = _random_pair_triple(rng)
        try:
            out = geometry.richelot_forward(pairs)
            back = geometry.richelot_inverse(out)
        except GeometryError:
            continue
        if not geometry.pair_triples_match(pairs, back):
            return FAIL, f"round-trip failed on {[str(p) for p in pairs]}"
        done += 1
    return PASS, (f"inverse(forward(pairs)) == pairs for {done} random "
                  "valid triples, exact; fixture {st, s^2-t^2, s^2-4t^2} "
                  "maps to {st, s^2+4t^2, s^2+t^2}")


def _c_richelot_tangency_duality(ctx):
    rng = ctx.rng()
    done = 0
    attempts = 0
    while done < ctx.trials:
        attempts += 1
        if attempts > 60 * ctx.trials:
            return FAIL, "could not draw enough nondegenerate inputs"
        pairs = _random_pair_triple(rng)
        try:
            out = geometry.richelot_forward(pairs)
        except GeometryError:
            continue
        lines = [p.coefficients() for p in pairs]
        for i, q in enumerate(out):
            vert = geometry.pair_vertex(q)
            for j in range(3):
                incid = sum(lines[j][k] * vert[k] for k in range(3))
                if (j != i) != (not incid):
                    return FAIL, (f"vertex of output {i + 1} is not the "
                                  "intersection of the other two chords")
            if not geometry.is_tangency_pair(vert, q):
                return FAIL, f"output {i + 1} is not a tangency pair"
        done += 1
    return PASS, (f"on {done} random valid triples: each output pair's "
                  "vertex is the meet of the other two input chords and "
                  "its chord is exactly the polar of that vertex")


# ---------------------------------------------------------------------------
# dual-quartic claims


def _c_salmon_chart_consistency(ctx):
    om = quartic.generic_salmon()  # asserts the three charts agree
    groups = om.poly.coefficients_in(om.indices)
    if any(g.total_degree() != 2 for g in groups.values()):
        return FAIL, "dual form is not quadratic in the coefficients"
    if any(sum(e) != 4 for e in groups):
        return FAIL, "dual form is not a quartic in the dual variables"
    return PASS, ("all three affine-chart computations of the dual quartic "
                  "agree on the generic 15-coefficient form: one "
                  f"polynomial, {len(om.poly.terms)} terms, degree 2 in "
                  "the coefficients, class 4 in the duals")


def _c_salmon_fermat_values(ctx):
    X, Y, Z = poly.poly_ring(("X", "Y", "Z"), QQ)
    u, v, w = poly.poly_ring(DUAL_VARS, QQ)
    om0 = quartic.salmon_contravariant(Form(X**4, 4))
    if not om0.poly.is_zero():
        return FAIL, f"Omega(x^4) computed as {om0.poly}"
    om1 = quartic.salmon_contravariant(Form(X**4 + Y**4 + Z**4, 4))
    if om1.poly != u**4 + v**4 + w**4:
        return FAIL, f"Omega(x^4+y^4+z^4) computed as {om1.poly}"
    if om1.poly.evaluate([0, 0, 1]) != 1:
        return FAIL, "evaluation at [0,0,1] is off"
    return PASS, ("Omega(x^4) == 0 and Omega(x^4+y^4+z^4) == "
                  "u^4+v^4+w^4 exactly; value 1 at the dual point [0,0,1]")


# ---------------------------------------------------------------------------
# remaining print discrepancies and out-of-scope records


def _c_sextic_display_exponent(ctx):
    pencil = invariants.hesse_pencil()
    t_val = invariants.evaluate_invariant(invariants.invariant_T(), pencil)
    t0, t1 = poly.poly_ring(PENCIL_VARS, QQ)
    if t_val != t0**6 - t0**3 * t1**3 * 20 - t1**6 * 8:
        return FAIL, f"calibrated T evaluates to {t_val}"
    variant = t0**6 - t0 * t1**3 * 20 - t1**6 * 8
    if variant.is_homogeneous():
        return FAIL, "the variant display is homogeneous after all"
    return NOTED, ("one published display of the degree-12 cover drops an "
                   "exponent, reading t0^6 - 20*t0*t1^3 - 8*t1^6; that "
                   "variant is not even homogeneous.  The calibrated "
                   "T = t0^6 - 20*t0^3*t1^3 - 8*t1^6 is used throughout")


def _oos(witness):
    def fn(ctx):
        return OUT_OF_SCOPE, witness
    return fn


# ---------------------------------------------------------------------------
# the registry


_REGISTRY = (
    _Claim("01-hesse-hessian",
           "Closed form of the Hessian of the plane-cubic pencil",
           _c_hesse_hessian),
    _Claim("02-aronhold-calibration",
           "Calibrated S and T values on the plane-cubic pencil",
           _c_aronhold_calibration),
    _Claim("03-hesse-map-degrees",
           "Cubic-pencil self-map degree 3, cover 12, descent round-trip",
           _c_hesse_map_degrees),
    _Claim("04-quartic-calibration",
           "Calibrated I2 and I3 values on the binary-quartic line",
           _c_quartic_calibration),
    _Claim("05-quartic-map-degrees",
           "Quartic-line self-map degree 2, cover 6, descent round-trip",
           _c_quartic_map_degrees),
    _Claim("06-quartic-hessian-middle-term",
           "Middle coefficient of the binary-quartic pencil Hessian",
           _c_quartic_hessian_middle_term),
    _Claim("07-quintic-image-two-paths",
           "Coordinate-formula path vs covariant path on the quintic slice",
           _c_quintic_image_two_paths),
    _Claim("08-quintic-image-relations",
           "Linear relations cutting out the quintic-slice image",
           _c_quintic_image_relations),
    _Claim("09-quintic-image-fibers",
           "Generic fiber size 1 for the quintic-slice map, by census",
           _c_quintic_image_fibers),
    _Claim("10-coble-bracket-identity",
           "Bracket-product identity and the eight minor factorizations",
           _c_coble_bracket_identity),
    _Claim("11-coble-extra-bracket",
           "Published bracket product carries a spurious fifth factor",
           _c_coble_extra_bracket),
    _Claim("12-six-point-conic-table",
           "Six harmonic points: closed-form table and common conic",
           _c_six_point_conic_table),
    _Claim("13-equivariance-hessian",
           "Hessian covariance under random substitutions",
           _c_equivariance_hessian),
    _Claim("14-equivariance-transvectant",
           "Transvectant covariance under random substitutions",
           _c_equivariance_transvectant),
    _Claim("15-equivariance-quintic-covariant",
           "Quintic jacobian-covariant equivariance",
           _c_equivariance_quintic_covariant),
    _Claim("16-equivariance-clebsch-quartic",
           "Ternary-quartic degree-4 covariant equivariance",
           _c_equivariance_clebsch_quartic),
    _Claim("17-equivariance-salmon-dual",
           "Dual-quartic contravariance under random substitutions",
           _c_equivariance_salmon_dual),
    _Claim("18-quintic-invariant-basis",
           "Degrees 4/8/12 quintic invariants: invariance and independence",
           _c_quintic_invariant_basis),
    _Claim("19-associated-form-values",
           "Associated forms of the two canonical samples, with congruence",
           _c_associated_form_values),
    _Claim("20-associated-selfmap-degree",
           "Associated-form slice map and its degree-1 descent",
           _c_associated_selfmap_degree),
    _Claim("21-richelot-roundtrip",
           "Chord-tangent construction inverts exactly on valid inputs",
           _c_richelot_roundtrip),
    _Claim("22-richelot-tangency-duality",
           "Forward outputs are tangency pairs by pole-polar duality",
           _c_richelot_tangency_duality),
    _Claim("23-salmon-chart-consistency",
           "Dual quartic agrees across all three affine charts, symbolically",
           _c_salmon_chart_consistency),
    _Claim("24-salmon-fermat-values",
           "Dual quartic values on x^4 and on the diagonal quartic",
           _c_salmon_fermat_values),
    _Claim("25-sextic-display-exponent",
           "Published degree-12 cover display drops an exponent",
           _c_sextic_display_exponent),
    _Claim("26-oos-binary-sextic-degree",
           "Degree 16 for the induced self-map of binary-sextic moduli",
           _oos("not desk-checkable: the degree of the moduli self-map "
                "induced by the chord-tangent construction needs the full "
                "GIT quotient of binary sextics; no exact finite "
                "computation is attempted")),
    _Claim("27-oos-six-point-map-degree",
           "Six-point self-map degree divisible by 8",
           _oos("not desk-checkable: the divisibility statement concerns "
                "the self-map on the whole configuration space; only the "
                "construction itself is certified here")),
    _Claim("28-oos-scorza-composite-degree",
           "Degree 36 for the Scorza composite on plane-quartic moduli",
           _oos("not desk-checkable: the composite through the "
                "theta-characteristic cover has no finite certificate at "
                "this scale; recorded without computation")),
    _Claim("29-oos-dual-quartic-map-degree",
           "Degree 15 for the moduli self-map of the dual-quartic "
           "construction",
           _oos("not desk-checkable: the projective degree of the induced "
                "map on 14-dimensional moduli is beyond exhaustive "
                "checking; recorded without computation")),
)


def claim_ids() -> tuple:
    return tuple(c.claim_id for c in _REGISTRY)


class VerificationReport:
    """Ordered claim results plus the parameters that produced them."""

    def __init__(self, entries, parameters):
        self.entries = list(entries)
        self.parameters = dict(parameters)

    @property
    def failures(self) -> list:
        return [e for e in self.entries if e.status == FAIL]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def records(self) -> list:
        return [{"claim_id": e.claim_id, "description": e.description,
                 "status": e.status, "witness": e.witness,
                 "millis": e.millis} for e in self.entries]

    def to_json(self) -> str:
        return json.dumps({"parameters": self.parameters,
                           "claims": self.records()}, indent=2) + "\n"

    def canonical(self) -> str:
        """The report with timings zeroed: byte-identical across runs for
        one (seed, primes, trials, filter)."""
        data = {"parameters": self.parameters,
                "claims": [dict(r, millis=0) for r in self.records()]}
        return json.dumps(data, indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        width = max(len(e.claim_id) for e in self.entries)
        for e in self.entries:
            lines.append(f"{e.claim_id.ljust(width)}  "
                         f"{e.status:<17} {e.millis:>6} ms")
            lines.append(f"{'':{width}}  {e.witness}")
        tally = {}
        for e in self.entries:
            tally[e.status] = tally.get(e.status, 0) + 1
        summary = ", ".join(f"{n} {s}" for s, n in sorted(tally.items()))
        lines.append(f"-- {len(self.entries)} claims: {summary}")
        return "\n".join(lines) + "\n"


def run_verifications(only=None, seed: int = DEFAULT_SEED,
                      primes=DEFAULT_PRIMES,
                      trials: int = DEFAULT_TRIALS) -> VerificationReport:
    """Run the registry (or the `only` subset, by claim id) and report."""
    for name, value in (("seed", seed), ("trials", trials)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise VerifyError(f"{name} must be an integer, got {value!r}")
    primes = tuple(primes)
    why = ""
    try:
        ok = len(primes) >= 2 and all(p > 2 and scalars.is_prime(p)
                                      for p in primes)
    except ValueError as exc:  # past the exact primality range
        ok, why = False, f" ({exc})"
    if not ok:
        raise VerifyError(
            f"need two odd primes, got {', '.join(map(str, primes))}{why}")
    # claim 09 takes a census of P^3 at primes[0], claims 03 and 05 one of
    # P^1 at primes[1]: refuse a prime the census would refuse
    for k, p in ((3, primes[0]), (1, primes[1])):
        try:
            fibers.check_census(k, p)
        except FiberError as exc:
            raise VerifyError(f"census prime {p}: {exc}") from None
    if trials < 1:
        raise VerifyError("trials must be positive")
    selected = list(_REGISTRY)
    if only is not None:
        wanted = list(only)
        known = set(claim_ids())
        unknown = [w for w in wanted if w not in known]
        if unknown:
            raise VerifyError(f"unknown claim ids: {', '.join(unknown)}")
        keep = set(wanted)
        selected = [c for c in selected if c.claim_id in keep]
    entries = []
    for claim in selected:
        ctx = VerifyContext(seed, primes, trials, claim.claim_id)
        start = time.perf_counter()
        try:
            status, witness = claim.fn(ctx)
        except Exception as exc:  # a crashed claim is a failed claim
            status = FAIL
            witness = f"{type(exc).__name__}: {exc}"
        millis = int(round((time.perf_counter() - start) * 1000))
        entries.append(ClaimResult(claim.claim_id, claim.description,
                                   status, witness, millis))
    entries.sort(key=lambda e: e.claim_id)
    return VerificationReport(entries, {
        "seed": seed, "primes": list(primes), "trials": trials,
        "only": sorted(only) if only is not None else None,
    })
