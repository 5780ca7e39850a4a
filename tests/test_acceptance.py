"""Acceptance criteria, one test per criterion.

Each test does two things: re-asserts the cheap closed-form values directly
against the engine, and pins the status of the corresponding entries in the
claim registry (which carries the randomized/heavy parts).  Every test
prints a single `criterion NN PASS/FAIL` line on the real stdout so the
run log shows the checklist even under output capture.
"""

import hashlib
from contextlib import contextmanager

import pytest

from comitant.associated import (associated_form, associated_selfmap_degree,
                                 associated_slice_map)
from comitant.comitants import Form, hessian
from comitant.geometry import (PointPair, ProjectivePoint, coble_identity_check,
                               conic_through, pair_triples_match,
                               q_construction, richelot_forward,
                               richelot_inverse, symbolic_conic)
from comitant.invariants import (canonical_quartic, evaluate_invariant,
                                 generic_form, hesse_pencil, named_invariant,
                                 quintic_invariants)
from comitant.maps import (compose, descend_map, hammond_path_comparison,
                           hammond_relations_symbolic, hesse_cover,
                           hesse_self_map, quartic_cover, quartic_self_map)
from comitant.poly import poly_ring
from comitant.quartic import salmon_contravariant
from comitant.scalars import QQ
from comitant.verify import (FAIL, NOTED, OUT_OF_SCOPE, PASS,
                             run_verifications)


# SHA-256 of run_verifications().canonical() at the default parameters
CANONICAL_SHA256 = (
    "a91c8789c574129141d4c4a99fa8eabbb925cd8f30dadb78c146490f3972082f")

# the same at seeds 1-5, the other parameters at their defaults
CANONICAL_SHA256_AT_SEED = {
    1: "dcbd807eced1977f43142e598ff147cda2f7bb3d4d809324b7fea780b8fc4c08",
    2: "2e4523f140c524e901aea99eb781cd0d246e79781e9303a2525110a96f477a61",
    3: "e49943ef57a094b2e42a50278eec318d6ae719f11bb1e12da481e3bf87bd0e3d",
    4: "89da268574c49ed52068d56deedb01f2da56f653b1381ea3aa7f5400c15e8f4e",
    5: "a3dd090413419ca264146bc7e4d82d6710c5ebc207d6d6a6ca34b436585114cc",
}


@pytest.fixture(scope="module")
def report():
    return run_verifications()


@pytest.fixture(scope="module")
def registry(report):
    return {r["claim_id"]: r for r in report.records()}


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(n, desc):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {n:02d} FAIL: {desc}")
            raise
        with capsys.disabled():
            print(f"criterion {n:02d} PASS: {desc}")

    return _criterion


def test_criterion_01_pencil_hessian(registry, criterion):
    with criterion(1, "Hessian of the cubic pencil, exact closed form"):
        t0, t1, X, Y, Z = poly_ring(("t0", "t1", "X", "Y", "Z"), QQ)
        he = hessian(hesse_pencil().poly, (2, 3, 4))
        target = -216 * (t0 * t1**2 * (X**3 + Y**3 + Z**3)
                         - (t0**3 + 2 * t1**3) * X * Y * Z)
        assert he == target
        assert registry["01-hesse-hessian"]["status"] == PASS


def test_criterion_02_cubic_invariants(registry, criterion):
    with criterion(2, "S and T on the cubic pencil, exact"):
        t0, t1 = poly_ring(("t0", "t1"), QQ)
        S = evaluate_invariant(named_invariant("S", (3, 3)), hesse_pencil())
        T = evaluate_invariant(named_invariant("T", (3, 3)), hesse_pencil())
        assert S == t0**3 * t1 - t1**4
        assert T == t0**6 - 20 * t0**3 * t1**3 - 8 * t1**6
        assert registry["02-aronhold-calibration"]["status"] == PASS
        # the printed sextic with a dropped exponent is recorded, not adopted
        assert registry["25-sextic-display-exponent"]["status"] == NOTED


def test_criterion_03_cubic_pencil_map_degrees(registry, criterion):
    with criterion(3, "cubic pencil: self-map 3, cover 12, quotient 3"):
        m, cov = hesse_self_map(), hesse_cover()
        assert m.degree == 3
        assert cov.degree == 12
        comp = compose(cov, m)
        assert comp.degree == 36
        down = descend_map(cov, comp, 3)
        assert down.degree == 3
        assert compose(down, cov) == comp
        assert registry["03-hesse-map-degrees"]["status"] == PASS


def test_criterion_04_quartic_pencil(registry, criterion):
    with criterion(4, "binary quartic: I2, I3, map degrees, Hessian slot"):
        a = poly_ring(("alpha",), QQ)[0]
        cq = canonical_quartic()
        assert evaluate_invariant(named_invariant("I2", (2, 4)),
                                  cq) == 1 + 3 * a**2
        assert evaluate_invariant(named_invariant("I3", (2, 4)),
                                  cq) == a - a**3
        assert quartic_self_map().degree == 2
        assert quartic_cover().degree == 6
        comp = compose(quartic_cover(), quartic_self_map())
        assert descend_map(quartic_cover(), comp, 2).degree == 2
        # computed Hessian middle coefficient is 1 - 3*alpha^2; the
        # published 1 - 4*alpha^2 is carried as a noted discrepancy
        alpha, x, y = poly_ring(("alpha", "x", "y"), QQ)
        he = hessian(cq.poly, (1, 2))
        assert he == 144 * (alpha * (x**4 + y**4)
                            + (1 - 3 * alpha**2) * x**2 * y**2)
        assert registry["04-quartic-calibration"]["status"] == PASS
        assert registry["05-quartic-map-degrees"]["status"] == PASS
        assert registry["06-quartic-hessian-middle-term"]["status"] == NOTED


def test_criterion_05_quintic_slice_image(registry, criterion):
    with criterion(5, "quintic slice: two paths agree, relations, fibers"):
        assert hammond_relations_symbolic()
        cmp = hammond_path_comparison()
        assert cmp["scalar"] == 10
        assert cmp["flipped"] == ((1, 4),)
        assert registry["07-quintic-image-two-paths"]["status"] == NOTED
        assert registry["08-quintic-image-relations"]["status"] == PASS
        # generic fiber 1 on at least 95% of the seeded samples
        assert registry["09-quintic-image-fibers"]["status"] == PASS


def test_criterion_06_bracket_identity(registry, criterion):
    with criterion(6, "six-point bracket identity and the eight minors"):
        assert coble_identity_check()
        assert registry["10-coble-bracket-identity"]["status"] == PASS
        assert registry["11-coble-extra-bracket"]["status"] == NOTED


def test_criterion_07_six_point_table(registry, criterion):
    with criterion(7, "six points from a conic: table and common conic"):
        a, b, c, d, e, f = poly_ring(("a", "b", "c", "d", "e", "f"), QQ)
        zero = a * 0
        qs = q_construction(symbolic_conic())
        table = [(zero, f, -b), (zero, -c, f), (-c, zero, e),
                 (e, zero, -a), (d, -a, zero), (-b, d, zero)]
        assert list(qs) == [ProjectivePoint(t) for t in table]
        assert conic_through(qs)
        assert registry["12-six-point-conic-table"]["status"] == PASS


def test_criterion_08_equivariance(registry, criterion):
    with criterion(8, "equivariance of the five comitants, 20 probes each"):
        for cid in ("13-equivariance-hessian", "14-equivariance-transvectant",
                    "15-equivariance-quintic-covariant",
                    "16-equivariance-clebsch-quartic",
                    "17-equivariance-salmon-dual"):
            assert registry[cid]["status"] == PASS, cid


def test_criterion_09_quintic_invariants(registry, criterion):
    with criterion(9, "quintic invariants of degrees 4, 8, 12"):
        trio = quintic_invariants()
        assert [d.degree for d in trio] == [4, 8, 12]
        x, y = poly_ring(("x", "y"), QQ)
        power = Form(x**5, 5)
        assert all(evaluate_invariant(d, power) == 0 for d in trio)
        # invariance and algebraic independence live in the registry entry
        assert registry["18-quintic-invariant-basis"]["status"] == PASS


def test_criterion_10_associated_forms(registry, criterion):
    with criterion(10, "associated forms and the induced degree-1 map"):
        x, y = poly_ring(("x", "y"), QQ)
        u, v = poly_ring(("u", "v"), QQ)
        assert associated_form(Form(x**4 + y**4, 4)).form == u**2 * v**2
        X, Y, Z = poly_ring(("X", "Y", "Z"), QQ)
        U, V, W = poly_ring(("u", "v", "w"), QQ)
        assert associated_form(
            Form(X**3 + Y**3 + Z**3, 3)).form == U * V * W
        assert associated_slice_map().degree == 1
        assert associated_selfmap_degree() == 1
        assert registry["19-associated-form-values"]["status"] == PASS
        assert registry["20-associated-selfmap-degree"]["status"] == PASS


def test_criterion_11_chord_tangent_triples(registry, criterion):
    with criterion(11, "pair-triple move: inverse round trip and tangency"):
        P = PointPair
        ps = [P(0, 1, 0), P(1, 0, -1), P(1, 0, -4)]
        assert pair_triples_match(richelot_inverse(richelot_forward(ps)), ps)
        assert registry["21-richelot-roundtrip"]["status"] == PASS
        assert registry["22-richelot-tangency-duality"]["status"] == PASS


def test_criterion_12_line_restriction_contravariant(registry, criterion):
    with criterion(12, "dual quartic: cross-chart agreement and values"):
        gen = generic_form(3, 4)
        k = len(gen.vars) - 3
        om = salmon_contravariant(Form(gen, 4, (k, k + 1, k + 2)))
        assert len(om.poly.terms) == 63
        X, Y, Z = poly_ring(("X", "Y", "Z"), QQ)
        u, v, w = poly_ring(("u", "v", "w"), QQ)
        assert salmon_contravariant(Form(X**4, 4)).poly.is_zero()
        fermat = salmon_contravariant(Form(X**4 + Y**4 + Z**4, 4))
        assert fermat.poly == u**4 + v**4 + w**4
        assert registry["23-salmon-chart-consistency"]["status"] == PASS
        assert registry["24-salmon-fermat-values"]["status"] == PASS


def test_criterion_13_out_of_scope_ledger(registry, criterion):
    with criterion(13, "out-of-scope claims recorded, not computed"):
        for cid in ("26-oos-binary-sextic-degree",
                    "27-oos-six-point-map-degree",
                    "28-oos-scorza-composite-degree",
                    "29-oos-dual-quartic-map-degree"):
            assert registry[cid]["status"] == OUT_OF_SCOPE, cid
            assert "not desk-checkable" in registry[cid]["witness"]


def test_no_registry_failures_and_runtime_budget(registry):
    statuses = {cid: r["status"] for cid, r in registry.items()}
    assert FAIL not in statuses.values(), statuses
    total_ms = sum(r["millis"] for r in registry.values())
    assert total_ms < 600_000  # the whole registry in under ten minutes


def test_canonical_report_is_byte_identical(report):
    digest = hashlib.sha256(report.canonical().encode("utf-8")).hexdigest()
    assert digest == CANONICAL_SHA256


@pytest.mark.parametrize("seed", sorted(CANONICAL_SHA256_AT_SEED))
def test_canonical_report_is_byte_identical_at_seed(seed):
    canonical = run_verifications(seed=seed).canonical()
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert digest == CANONICAL_SHA256_AT_SEED[seed]
