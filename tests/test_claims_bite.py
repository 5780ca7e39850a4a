"""Negative controls: a claim that passes must also be able to fail.

Each row breaks one name in the module that defines it (`comitant.geometry`,
`comitant.comitants`, `comitant.maps`, `comitant.invariants` or
`comitant.quartic`) and runs its claim alone.  A name imported into
`comitant.verify` keeps the original object there, so the mutation reaches
a claim only where the package's own code looks the name up in its home
module; the equivariance claims 13-17 look up every helper they test that
way, and build their generic comitant anew on every run.  `via_exception`
records whether the claim fails through a mathematical witness or through
an exception raised by the package's own check, so a row that comes to
fail differently shows up.  The process-wide caches that a claim reads
(the quintic trio, the generic Omega) are cleared around each row, so a
mutant is always built cold.
"""

from math import factorial

import pytest

from comitant import comitants, geometry, invariants, linalg, maps, quartic
from comitant.comitants import Form
from comitant.linalg import LinearSubstitution
from comitant.poly import Poly
from comitant.scalars import exact_div
from comitant.verify import FAIL, PASS, run_verifications


_original_bracket = geometry.bracket
_original_partner = geometry.harmonic_partner
_original_hessian = comitants.hessian
_original_transvectant = comitants.transvectant
_original_c35 = maps.c35_jacobian
_original_clebsch = quartic.clebsch_covariant
_original_omega = quartic._omega_in_chart


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


def _plain_transpose(g):
    # the transpose where the inverse transpose belongs
    return LinearSubstitution([list(col) for col in zip(*g.matrix)], g.ring)


def _kernel_with_q_negated(rows, ncols, ring):
    # each descent vector (P | Q) becomes (P | -Q), i.e. R = [P : -Q]
    half = ncols // 2
    return [v[:half] + [-c for c in v[half:]]
            for v in linalg.nullspace(rows, ncols, ring)]


def _kernel_never_empty(rows, ncols, ring=None):
    return [[1] * ncols]


# claim id, module, name in it, mutant, fails via an exception
MUTATIONS = [
    ("03-hesse-map-degrees", maps, "nullspace", _kernel_with_q_negated,
     True),
    ("05-quartic-map-degrees", maps, "nullspace", _kernel_with_q_negated,
     True),
    ("10-coble-bracket-identity", geometry, "bracket", _bracket_transposed,
     False),
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
    ("21-richelot-roundtrip", geometry, "polar_line", _polar_transposed,
     False),
    ("22-richelot-tangency-duality", geometry, "line_pole",
     _pole_with_a_sign_slip, False),
    ("24-salmon-fermat-values", quartic, "_omega_in_chart", _omega_doubled,
     False),
]


@pytest.fixture
def fresh_caches():
    # the proved quintic trio and the generic Omega are cached for the
    # process: a mutant must neither read the original's nor leave its own
    caches = (invariants.quintic_invariants, quartic.generic_salmon)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def test_the_controlled_claims_pass_unmutated():
    report = run_verifications(only=[m[0] for m in MUTATIONS])
    assert [e.status for e in report.entries] == [PASS] * len(MUTATIONS)


@pytest.mark.parametrize("claim_id, module, name, mutant, via_exception",
                         MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_a_mutation_makes_the_claim_fail(monkeypatch, fresh_caches, claim_id,
                                         module, name, mutant, via_exception):
    monkeypatch.setattr(module, name, mutant)
    (entry,) = run_verifications(only=[claim_id]).entries
    assert entry.status == FAIL, entry.witness
    crashed = entry.witness.split(":")[0].endswith("Error")
    assert crashed == via_exception, entry.witness
