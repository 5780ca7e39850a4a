"""Negative controls: a claim that passes must also be able to fail.

Each row breaks one name in a module of the package (`comitant.associated`,
`comitant.comitants`, `comitant.geometry`, `comitant.invariants`,
`comitant.linalg`, `comitant.maps` or `comitant.quartic`, never
`comitant.verify`) and runs its claim alone.  `comitant.verify`,
`comitant.maps` and `comitant.associated` call every helper through its
home module, so the mutation reaches every claim that calls it: the
Hessian mutant of claim 13 also breaks the pencil self-maps of claims 03
and 05 and the socle of claims 19 and 20
(`test_a_hessian_mutant_reaches_the_pencil_maps_and_the_socle`).  A
discrepancy-noted claim (06, 07, 11, 25) must move to fail as a passing
one does.  `via_exception` records whether the claim fails through a
mathematical witness or through an exception raised by the package's own
check, so a row that comes to fail differently shows up.  The
process-wide caches that a claim reads (the calibrated invariants, the
quintic trio, the generic Omega, the pencil maps and covers, the quintic
slice and the associated slice map) are cleared around each row, so a
mutant is always built cold.

Every computed claim, 01-25, has a row.  Mutations tried that move no
claim:
- the first two quintic-slice coordinates swapped leave claim 09 passing,
  as they should: a linear automorphism of the target keeps every fiber
  (`test_a_harmless_mutation_leaves_the_claim_standing`);
- `associated._multinomial` + 1 at e[0] = 1 leaves claim 19 passing: as(f)
  and its congruence read the same table, and on the two diagonal samples
  the entries with e[0] = 1 lie in J(f);
- q1 and q2, or q5 and q6, exchanged in `geometry.coble_matrix` leave
  claim 11 noted: both bracket products are symmetric under those
  relabelings;
- `invariants.evaluate_invariant` x 3 leaves claims 02, 04 and 25 as they
  are: each invariant is pinned to its published value through the same
  evaluation, on the same pencil, so the pin absorbs any rescaling.
"""

from math import factorial

import pytest

from comitant import (associated, comitants, geometry, invariants, linalg,
                      maps, quartic)
from comitant.comitants import Form
from comitant.linalg import LinearSubstitution
from comitant.poly import Poly, poly_ring
from comitant.scalars import QQ, exact_div
from comitant.verify import FAIL, NOTED, PASS, run_verifications


_original_bracket = geometry.bracket
_original_partner = geometry.harmonic_partner
_original_hessian = comitants.hessian
_original_transvectant = comitants.transvectant
_original_c35 = maps.c35_jacobian
_original_clebsch = quartic.clebsch_covariant
_original_omega = quartic._omega_in_chart
_original_pin = invariants._pin_scalar
_original_slice = maps.hammond_image_polys
_original_coble = geometry.coble_matrix
_original_associated = associated._associated
_original_nullspace = linalg.nullspace


def _bracket_transposed(m, i, j, k):
    # columns i, k, j: every minor changes sign
    return _original_bracket(m, i, k, j)


def _partner_swapped(pair, pt):
    q0, q1 = _original_partner(pair, pt)
    return q1, q0


def _polar_transposed(pt):
    return (pt[0], pt[1] * -2, pt[2])


def _pole_with_a_sign_slip(line):
    return (line[2] * 2, line[1], line[0] * 2)


def _hessian_doubled(p, indices=None):
    return _original_hessian(p, indices) * 2


def _hessian_plus_cube(p, indices=None):
    # He(F) + (dF/dX)^3: of the right coefficient degree, but no covariant
    first = 0 if indices is None else indices[0]
    return _original_hessian(p, indices) + p.partial(first) ** 3


def _transvectant_sign_slip(f, g, k):
    # (f, g)_k with the sign of its i = 1 term flipped: add twice that term
    ix, iy = f.indices
    df, dg = f.poly.partial(iy), g.poly.partial(ix)
    for _ in range(k - 1):
        df, dg = df.partial(ix), dg.partial(iy)
    m, n = f.degree, g.degree
    scale = exact_div(2 * k * factorial(m - k) * factorial(n - k),
                      factorial(m) * factorial(n))
    t = _original_transvectant(f, g, k)
    return Form(t.poly + df * dg * scale, t.degree, t.indices)


def _c35_plus_form(form):
    # 2 J + f: a quintic in (x, y), of mixed degree in the coefficients
    return Form(_original_c35(form).poly * 2 + form.poly, 5, form.indices)


def _clebsch_xy_swapped(F):
    # the covariant with X and Y exchanged in its output
    cov = _original_clebsch(F)
    i, j = cov.indices[:2]

    def swap(e):
        e = list(e)
        e[i], e[j] = e[j], e[i]
        return tuple(e)

    terms = {swap(e): c for e, c in cov.poly.terms.items()}
    return Form(Poly(cov.poly.vars, terms, cov.poly.ring), 4, cov.indices)


def _omega_doubled(F, chart):
    # twice Omega in every chart: the charts still agree with each other
    return _original_omega(F, chart) * 2


def _pinned_to_twice(raw, form, target, name):
    # every calibrated invariant pinned to twice its published value
    return _original_pin(raw, form, target * 2, name)


def _hesse_pencil_with_3():
    # t0*(X^3+Y^3+Z^3) + 3*t1*XYZ: the published S and T are not its values
    t0, t1, X, Y, Z = poly_ring(("t0", "t1", "X", "Y", "Z"), QQ)
    return Form(t0 * (X**3 + Y**3 + Z**3) + t1 * (X * Y * Z) * 3, 3,
                (2, 3, 4))


def _canonical_quartic_with_2():
    # x^4 + 2*alpha*x^2*y^2 + y^4: I2 and I3 are no multiples of the values
    alpha, x, y = poly_ring(("alpha", "x", "y"), QQ)
    return Form(x**4 + alpha * (x**2 * y**2) * 2 + y**4, 4, (1, 2))


def _slice_doubled():
    return tuple(c * 2 for c in _original_slice())


def _slice_swapped():
    # the first two image coordinates exchanged
    c = _original_slice()
    return (c[1], c[0]) + c[2:]


def _slice_with_e_as_b():
    a, b, e, f = poly_ring(maps.HAMMOND_VARS, QQ)
    return tuple(c.substitute([a, b, b, f]) for c in _original_slice())


def _coble_q6_transposed():
    # q6 = [-b, d, 0] read as [-d, b, 0]
    m = _original_coble()
    a, b, c, d, e, f = poly_ring(geometry.CONIC_COEFF_VARS, QQ)
    for r, entry in enumerate((-d, b, a * 0)):
        m[r][5] = entry
    return m


def _associated_doubled(f):
    # as(f)'s numerator doubled, its denominator kept
    num, det = _original_associated(f)
    return num * 2, det


def _multinomial_dropped(N, e):
    # l^N with every multinomial coefficient read as 1
    return 1


def _plain_transpose(g):
    # the transpose where the inverse transpose belongs
    return LinearSubstitution([list(col) for col in zip(*g.matrix)], g.ring)


def _kernel_with_q_negated(rows, ncols, ring):
    # each descent vector (P | Q) becomes (P | -Q), i.e. R = [P : -Q]
    half = ncols // 2
    return [v[:half] + [-c for c in v[half:]]
            for v in _original_nullspace(rows, ncols, ring)]


def _kernel_never_empty(rows, ncols, ring=None):
    return [[1] * ncols]


# claim id, module, name in it, mutant, fails via an exception
MUTATIONS = [
    ("01-hesse-hessian", comitants, "hessian", _hessian_doubled, False),
    ("02-aronhold-calibration", invariants, "_pin_scalar", _pinned_to_twice,
     False),
    ("03-hesse-map-degrees", linalg, "nullspace", _kernel_with_q_negated,
     True),
    ("04-quartic-calibration", invariants, "canonical_quartic",
     _canonical_quartic_with_2, True),
    ("05-quartic-map-degrees", linalg, "nullspace", _kernel_with_q_negated,
     True),
    ("06-quartic-hessian-middle-term", comitants, "hessian",
     _hessian_doubled, False),
    ("07-quintic-image-two-paths", maps, "hammond_image_polys",
     _slice_doubled, False),
    ("08-quintic-image-relations", maps, "hammond_image_polys",
     _slice_swapped, False),
    ("09-quintic-image-fibers", maps, "hammond_image_polys",
     _slice_with_e_as_b, False),
    ("10-coble-bracket-identity", geometry, "bracket", _bracket_transposed,
     False),
    ("11-coble-extra-bracket", geometry, "coble_matrix",
     _coble_q6_transposed, False),
    ("12-six-point-conic-table", geometry, "harmonic_partner",
     _partner_swapped, False),
    ("13-equivariance-hessian", comitants, "hessian", _hessian_plus_cube,
     True),
    ("14-equivariance-transvectant", comitants, "transvectant",
     _transvectant_sign_slip, True),
    ("15-equivariance-quintic-covariant", maps, "c35_jacobian",
     _c35_plus_form, True),
    ("16-equivariance-clebsch-quartic", quartic, "clebsch_covariant",
     _clebsch_xy_swapped, True),
    ("17-equivariance-salmon-dual", quartic, "contragredient",
     _plain_transpose, True),
    ("18-quintic-invariant-basis", invariants, "nullspace",
     _kernel_never_empty, True),
    ("19-associated-form-values", associated, "_associated",
     _associated_doubled, False),
    ("20-associated-selfmap-degree", associated, "_multinomial",
     _multinomial_dropped, False),
    ("21-richelot-roundtrip", geometry, "polar_line", _polar_transposed,
     False),
    ("22-richelot-tangency-duality", geometry, "line_pole",
     _pole_with_a_sign_slip, False),
    ("23-salmon-chart-consistency", quartic, "CHART_DIVISOR_POWER", 3,
     True),
    ("24-salmon-fermat-values", quartic, "_omega_in_chart", _omega_doubled,
     False),
    ("25-sextic-display-exponent", invariants, "hesse_pencil",
     _hesse_pencil_with_3, True),
]
NOTED_CLAIMS = {"06-quartic-hessian-middle-term",
                "07-quintic-image-two-paths", "11-coble-extra-bracket",
                "25-sextic-display-exponent"}


@pytest.fixture
def fresh_caches():
    # these are cached for the process: a mutant must neither read the
    # original's nor leave its own
    caches = (invariants.invariant_I2, invariants.invariant_I3,
              invariants.invariant_S, invariants.invariant_T,
              invariants.quintic_invariants, quartic.generic_salmon,
              maps.hesse_self_map, maps.quartic_self_map, maps.hesse_cover,
              maps.quartic_cover, maps.hammond_image_polys,
              maps.hammond_path_comparison, associated.associated_slice_map,
              associated.associated_selfmap_degree)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def test_the_controlled_claims_pass_unmutated():
    ids = sorted({m[0] for m in MUTATIONS})
    report = run_verifications(only=ids)
    assert [e.status for e in report.entries] == [
        NOTED if i in NOTED_CLAIMS else PASS for i in ids]


@pytest.mark.parametrize("claim_id, module, name, mutant, via_exception",
                         MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_a_mutation_makes_the_claim_fail(monkeypatch, fresh_caches, claim_id,
                                         module, name, mutant, via_exception):
    monkeypatch.setattr(module, name, mutant)
    (entry,) = run_verifications(only=[claim_id]).entries
    assert entry.status == FAIL, entry.witness
    crashed = entry.witness.split(":")[0].endswith("Error")
    assert crashed == via_exception, entry.witness


@pytest.mark.parametrize("claim_id", [
    "03-hesse-map-degrees", "05-quartic-map-degrees",
    "19-associated-form-values", "20-associated-selfmap-degree"])
def test_a_hessian_mutant_reaches_the_pencil_maps_and_the_socle(
        monkeypatch, fresh_caches, claim_id):
    # He(F) + (dF/dX)^3 is not homogeneous, so the Form that the pencil
    # reading or the socle builds from it refuses it
    monkeypatch.setattr(comitants, "hessian", _hessian_plus_cube)
    (entry,) = run_verifications(only=[claim_id]).entries
    assert entry.status == FAIL, entry.witness
    assert entry.witness.startswith(
        "FormError: polynomial is not homogeneous"), entry.witness


def test_a_harmless_mutation_leaves_the_claim_standing(monkeypatch,
                                                       fresh_caches):
    # a linear automorphism of the target: every fiber keeps its size
    monkeypatch.setattr(maps, "hammond_image_polys", _slice_swapped)
    (entry,) = run_verifications(only=["09-quintic-image-fibers"]).entries
    assert entry.status == PASS, entry.witness
