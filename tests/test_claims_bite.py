"""Negative controls: a claim that passes must also be able to fail.

Each row breaks one name in the module that defines it (`comitant.geometry`,
`comitant.maps`, `comitant.invariants` or `comitant.quartic`) and runs its
claim alone.  A name imported into `comitant.verify` keeps the original
object there, so the mutation reaches a claim only where the package's own
code looks the name up in its home module.  `via_exception` records whether
the claim fails through a mathematical witness or through an exception
raised by the package's own check, so a row that comes to fail differently
shows up.

Claim 17 does not move: `verify` binds `contragredient` at import, so a
mutant in `comitant.quartic` never reaches it.  Its row is a strict xfail
that says so, and that turns into a failure once the mutation bites.
"""

import pytest

from comitant import geometry, invariants, linalg, maps, quartic
from comitant.linalg import LinearSubstitution
from comitant.verify import FAIL, PASS, run_verifications


_original_bracket = geometry.bracket
_original_partner = geometry.harmonic_partner


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
    ("17-equivariance-salmon-dual", quartic, "contragredient",
     _plain_transpose, False),
    ("18-quintic-invariant-basis", invariants, "nullspace",
     _kernel_never_empty, True),
    ("21-richelot-roundtrip", geometry, "polar_line", _polar_transposed,
     False),
    ("22-richelot-tangency-duality", geometry, "line_pole",
     _pole_with_a_sign_slip, False),
]
# claim id -> why its mutation does not reach it: a strict xfail
UNREACHED = {"17-equivariance-salmon-dual":
             "verify binds contragredient at import"}


def _rows():
    for m in MUTATIONS:
        why = UNREACHED.get(m[0])
        marks = [pytest.mark.xfail(strict=True, reason=why)] if why else []
        yield pytest.param(*m, id=m[0], marks=marks)


@pytest.fixture
def fresh_quintic_invariants():
    # the proved trio is cached: a mutant must neither read the original's
    # proof nor leave its own behind
    invariants.quintic_invariants.cache_clear()
    yield
    invariants.quintic_invariants.cache_clear()


def test_the_controlled_claims_pass_unmutated():
    report = run_verifications(only=[m[0] for m in MUTATIONS])
    assert [e.status for e in report.entries] == [PASS] * len(MUTATIONS)


@pytest.mark.parametrize("claim_id, module, name, mutant, via_exception",
                         _rows())
def test_a_mutation_makes_the_claim_fail(monkeypatch, fresh_quintic_invariants,
                                         claim_id, module, name, mutant,
                                         via_exception):
    monkeypatch.setattr(module, name, mutant)
    (entry,) = run_verifications(only=[claim_id]).entries
    assert entry.status == FAIL, entry.witness
    crashed = entry.witness.split(":")[0].endswith("Error")
    assert crashed == via_exception, entry.witness
