"""Negative controls: a claim that passes must also be able to fail.

Each row breaks one name in the module that defines it, `comitant.geometry`,
and runs its claim alone.  A name imported into `comitant.verify` keeps the
original object there, so the mutation goes where the claim's own code
looks the name up.  Every row here fails through a mathematical witness,
not an exception; `via_exception` records it, so a row that comes to fail
only by crashing shows up.  Each claim of the table moves.
"""

import pytest

from comitant import geometry
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


# claim id, name in comitant.geometry, mutant, fails via an exception
MUTATIONS = [
    ("10-coble-bracket-identity", "bracket", _bracket_transposed, False),
    ("12-six-point-conic-table", "harmonic_partner", _partner_swapped, False),
    ("21-richelot-roundtrip", "polar_line", _polar_transposed, False),
    ("22-richelot-tangency-duality", "line_pole", _pole_with_a_sign_slip,
     False),
]


def test_the_controlled_claims_pass_unmutated():
    report = run_verifications(only=[m[0] for m in MUTATIONS])
    assert [e.status for e in report.entries] == [PASS] * len(MUTATIONS)


@pytest.mark.parametrize("claim_id, name, mutant, via_exception", MUTATIONS,
                         ids=[m[0] for m in MUTATIONS])
def test_a_mutation_makes_the_claim_fail(monkeypatch, claim_id, name,
                                         mutant, via_exception):
    monkeypatch.setattr(geometry, name, mutant)
    (entry,) = run_verifications(only=[claim_id]).entries
    assert entry.status == FAIL, entry.witness
    crashed = entry.witness.split(":")[0].endswith("Error")
    assert crashed == via_exception, entry.witness
