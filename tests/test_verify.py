"""The claim registry itself: ids, statuses, determinism, filtering."""

import json
import random
from fractions import Fraction

import pytest

from comitant import verify
from comitant.verify import (
    FAIL,
    NOTED,
    OUT_OF_SCOPE,
    PASS,
    VerifyError,
    claim_ids,
    run_verifications,
)

CHEAP = ["01-hesse-hessian", "04-quartic-calibration",
         "10-coble-bracket-identity", "26-oos-binary-sextic-degree"]


def test_registry_ids_are_unique_and_sorted():
    ids = list(claim_ids())
    assert len(ids) == 29
    assert len(set(ids)) == 29
    assert ids == sorted(ids)


def test_cheap_subset_passes():
    rep = run_verifications(only=CHEAP[:3])
    assert rep.ok
    assert rep.exit_code == 0
    assert [r["status"] for r in rep.records()] == [PASS, PASS, PASS]


def test_noted_discrepancies():
    noted = ["06-quartic-hessian-middle-term", "07-quintic-image-two-paths",
             "11-coble-extra-bracket", "25-sextic-display-exponent"]
    rep = run_verifications(only=noted)
    assert [r["status"] for r in rep.records()] == [NOTED] * 4
    # noted entries do not fail the run
    assert rep.ok and rep.exit_code == 0


def test_out_of_scope_entries():
    oos = [i for i in claim_ids() if i.startswith(("26-", "27-", "28-", "29-"))]
    assert len(oos) == 4
    rep = run_verifications(only=oos)
    recs = rep.records()
    assert [r["status"] for r in recs] == [OUT_OF_SCOPE] * 4
    assert all("not desk-checkable" in r["witness"] for r in recs)


def test_unknown_ids_rejected():
    with pytest.raises(VerifyError, match="unknown claim ids: zzz"):
        run_verifications(only=["zzz"])


def test_parameter_validation():
    with pytest.raises(VerifyError, match="odd primes"):
        run_verifications(only=CHEAP[:1], primes=(101,))
    with pytest.raises(VerifyError, match="odd primes"):
        run_verifications(only=CHEAP[:1], primes=(2, 101))
    with pytest.raises(VerifyError, match="odd primes"):
        run_verifications(only=CHEAP[:1], primes=(9, 15))
    # past the range where primality is decided exactly
    with pytest.raises(VerifyError, match="odd primes.*primality range"):
        run_verifications(only=CHEAP[:1], primes=(101, 10**25))
    with pytest.raises(VerifyError, match="trials"):
        run_verifications(only=CHEAP[:1], trials=0)


def test_census_primes_are_checked_up_front():
    # claim 03 takes a P^1 census at primes[1], claim 09 a P^3 census at
    # primes[0]; a prime either census refuses is a parameter error, not a
    # failed claim
    with pytest.raises(VerifyError, match="census prime 2305843009213693951"
                                          ".*MAX_POINTS"):
        run_verifications(only=["03-hesse-map-degrees"],
                          primes=(101, 2**61 - 1))
    # P^1(F_257) is small, P^3(F_257) has 17,040,900 points
    with pytest.raises(VerifyError, match="census prime 257.*MAX_POINTS"):
        run_verifications(only=CHEAP[:1], primes=(257, 101))
    rep = run_verifications(only=CHEAP[:1], primes=(251, 257))
    assert rep.ok


def test_record_fields():
    rep = run_verifications(only=CHEAP[:1])
    (rec,) = rep.records()
    assert set(rec) == {"claim_id", "description", "status", "witness",
                        "millis"}
    assert rec["claim_id"] == CHEAP[0]
    assert isinstance(rec["millis"], int)


def test_canonical_report_is_deterministic():
    a = run_verifications(only=CHEAP).canonical()
    b = run_verifications(only=CHEAP).canonical()
    assert a == b
    # and the canonical form zeroes the timing field
    assert all(c["millis"] == 0 for c in json.loads(a)["claims"])


def test_json_structure():
    rep = run_verifications(only=CHEAP[:2], seed=7)
    data = json.loads(rep.to_json())
    assert data["parameters"]["seed"] == 7
    assert data["parameters"]["trials"] == 20
    assert [c["claim_id"] for c in data["claims"]] == sorted(CHEAP[:2])


def test_filter_order_is_canonical():
    # the report is sorted by claim id regardless of the order requested
    rep = run_verifications(only=list(reversed(CHEAP)))
    assert [r["claim_id"] for r in rep.records()] == sorted(CHEAP)


def test_text_report_shape():
    rep = run_verifications(only=CHEAP[:2])
    text = rep.to_text()
    lines = text.splitlines()
    assert lines[0].startswith("01-hesse-hessian")
    assert "pass" in lines[0]
    assert lines[-1].startswith("--")


def test_seed_changes_probe_streams_not_outcomes():
    a = run_verifications(only=["13-equivariance-hessian"], seed=0)
    b = run_verifications(only=["13-equivariance-hessian"], seed=99)
    (ra,), (rb,) = a.records(), b.records()
    assert ra["status"] == rb["status"] == PASS


def test_claim_rng_is_keyed_by_registry_id(monkeypatch):
    drawn = {}

    def probe(ctx):
        drawn[ctx.claim_id] = ctx.rng().random()
        return PASS, "probe"

    monkeypatch.setattr(verify, "_REGISTRY", tuple(
        c._replace(fn=probe) for c in verify._REGISTRY))
    run_verifications(seed=3)
    assert drawn == {cid: random.Random(f"3:{cid}").random()
                     for cid in claim_ids()}


def test_transvectant_claim_with_one_trial():
    rep = run_verifications(only=["14-equivariance-transvectant"], trials=1)
    (rec,) = rep.records()
    assert rec["status"] == PASS
    assert "1 probes at k=2" in rec["witness"]
    assert "1 probes at k=4" in rec["witness"]


@pytest.mark.parametrize("percent, status", [(95, PASS), (94, FAIL)])
def test_census_gate_is_exact_at_95_percent(monkeypatch, percent, status):
    # the census's exact singleton share decides; the sampled share, here
    # on the other side of 95 %, is only reported
    ones = 90 if status == PASS else 100

    def census(m, p, samples, seed):
        return {"fraction_ones": Fraction(ones, samples),
                "singleton_share": Fraction(percent, 100), "max_fiber": 2,
                "indeterminate": 0}

    monkeypatch.setattr(verify, "sample_report", census)
    (rec,) = run_verifications(only=["09-quintic-image-fibers"]).records()
    assert rec["status"] == status
    assert f"100 sampled image points, {ones}.0% with fiber size 1" \
        in rec["witness"]


@pytest.mark.parametrize("p, status", [(17, FAIL), (19, PASS), (29, PASS)])
def test_census_gate_is_free_of_the_seed(p, status):
    # q(p) = p/(p+1): 17/18 < 95/100 <= 19/20, whatever the samples show
    for seed in range(4):
        (rec,) = run_verifications(only=["09-quintic-image-fibers"],
                                   seed=seed, primes=(p, 101)).records()
        assert rec["status"] == status


@pytest.mark.parametrize("seed, p, sampled", [(0, 29, "94.0%"),
                                              (154, 101, "95.0%")])
def test_census_gate_passes_a_sample_at_or_below_the_bound(seed, p,
                                                          sampled):
    (rec,) = run_verifications(only=["09-quintic-image-fibers"], seed=seed,
                               primes=(p, 101)).records()
    assert rec["status"] == PASS
    assert f"{sampled} with fiber size 1" in rec["witness"]


@pytest.mark.parametrize("field, value", [
    ("trials", 2.5), ("trials", True), ("trials", "20"), ("trials", 20.0),
    ("seed", 1.5), ("seed", False), ("seed", "0"), ("seed", None)])
def test_seed_and_trials_must_be_integers(monkeypatch, field, value):
    def claim(ctx):
        raise AssertionError("a claim ran before the parameters were checked")

    monkeypatch.setattr(verify, "_REGISTRY", tuple(
        c._replace(fn=claim) for c in verify._REGISTRY))
    with pytest.raises(VerifyError, match=f"{field} must be an integer"):
        run_verifications(only=CHEAP[:1], **{field: value})
