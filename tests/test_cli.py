"""End-to-end exercises of the command-line entry point via main(argv)."""

import json

from comitant.cli import main


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- invariant

def test_invariant_binary(tmp_path, capsys):
    form = write(tmp_path, "f.txt", "x^4 + y^4")
    code, out, err = run(capsys, "invariant", "--space", "2,4",
                         "--name", "I2", "--form", form)
    assert code == 0
    assert out.strip() == "1"


def test_invariant_with_params(tmp_path, capsys):
    form = write(tmp_path, "f.txt", "x^4 + 6*alpha*x^2*y^2 + y^4")
    code, out, err = run(capsys, "invariant", "--space", "2,4",
                         "--name", "I3", "--form", form,
                         "--params", "alpha")
    assert code == 0
    assert out.strip() == "-alpha^3 + alpha"


def test_invariant_ternary(tmp_path, capsys):
    form = write(tmp_path, "f.txt", "X^3 + Y^3 + Z^3")
    code, out, err = run(capsys, "invariant", "--space", "3,3",
                         "--name", "T", "--form", form)
    assert code == 0
    assert out.strip() == "1"


def test_invariant_unknown_name(tmp_path, capsys):
    form = write(tmp_path, "f.txt", "x^4 + y^4")
    code, out, err = run(capsys, "invariant", "--space", "2,4",
                         "--name", "Q", "--form", form)
    assert code == 2
    assert "error:" in err and "no invariant named" in err


def test_invariant_bad_space(tmp_path, capsys):
    form = write(tmp_path, "f.txt", "x^4 + y^4")
    code, out, err = run(capsys, "invariant", "--space", "4",
                         "--name", "I2", "--form", form)
    assert code == 2
    assert "space must look like" in err


def test_invariant_param_colliding_with_a_form_variable(tmp_path, capsys):
    form = write(tmp_path, "f.txt", "x^4 + y^4")
    for params in ("x", "t,t"):
        code, out, err = run(capsys, "invariant", "--space", "2,4",
                             "--name", "I2", "--form", form,
                             "--params", params)
        assert code == 2 and out == ""
        assert "error:" in err and "declared twice" in err


def test_missing_file(capsys):
    code, out, err = run(capsys, "invariant", "--space", "2,4",
                         "--name", "I2", "--form", "/nonexistent/f.txt")
    assert code == 2
    assert "error:" in err


# --------------------------------------------------------------------- maps

def test_map_degree(capsys):
    code, out, err = run(capsys, "map", "degree", "--name", "hesse")
    assert (code, out.strip()) == (0, "degree=3")
    code, out, err = run(capsys, "map", "degree", "--name", "quartic-cover")
    assert (code, out.strip()) == (0, "degree=6")


def test_map_compose(capsys):
    code, out, err = run(capsys, "map", "compose",
                         "--outer", "quartic-cover", "--inner", "quartic")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("[") and " : " in lines[0]
    assert lines[-1] == "degree=12"


def test_map_descend_quartic(capsys):
    code, out, err = run(capsys, "map", "descend", "--name", "quartic")
    assert code == 0
    lines = out.strip().splitlines()
    assert "cover_degree=6" in lines
    assert "composite_degree=12" in lines
    assert "quotient=[27*t0^2 : t0^2 - 108*t0*t1 + 2916*t1^2]" in lines
    assert "quotient_degree=2" in lines


def test_map_descend_assoc(capsys):
    code, out, err = run(capsys, "map", "descend", "--name", "assoc")
    assert code == 0
    assert "quotient_degree=1" in out


# -------------------------------------------------------------- fiber-count

def test_fiber_count_output(capsys):
    code, out, err = run(capsys, "fiber-count", "--map", "quartic",
                         "--prime", "11", "--samples", "4", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(ln.startswith("target=[") for ln in lines[:4])
    assert lines[-1].startswith("max_fiber=")
    assert "indeterminate=" in lines[-1]


def test_fiber_count_rejects_composite_modulus(capsys):
    code, out, err = run(capsys, "fiber-count", "--map", "quartic",
                         "--prime", "10", "--samples", "4")
    assert code == 2
    assert "not prime" in err


def test_fiber_count_rejects_prime_past_point_bound(capsys):
    # 2^61 - 1 is prime; P^1 over it is far past MAX_POINTS
    code, out, err = run(capsys, "fiber-count", "--map", "quartic",
                         "--prime", str(2**61 - 1), "--samples", "4")
    assert code == 2
    assert "MAX_POINTS" in err


def test_fiber_count_hammond(capsys):
    code, out, err = run(capsys, "fiber-count", "--map", "hammond",
                         "--prime", "11", "--samples", "3", "--seed", "0")
    assert code == 0
    assert out.count("fiber=") >= 3
    # 10 orbits of full support and one for each of the 14 other strata
    assert out.strip().splitlines()[-1] == \
        "max_fiber=10 indeterminate=24 orbits=24"


def test_fiber_count_counts_points_as_orbits_without_a_torus(capsys):
    # the quartic self-map has only the scalar torus: one orbit per point
    code, out, err = run(capsys, "fiber-count", "--map", "quartic",
                         "--prime", "11", "--samples", "1", "--seed", "0")
    assert code == 0
    assert out.strip().splitlines()[-1].endswith(" orbits=12")


# --------------------------------------------------------------- assoc-form

def test_assoc_form_binary(tmp_path, capsys):
    form = write(tmp_path, "f.txt", "x^4 + y^4")
    code, out, err = run(capsys, "assoc-form", "--space", "2,4",
                         "--form", form)
    assert code == 0
    assert out.splitlines() == ["u^2*v^2", "scale=24"]


def test_assoc_form_wrong_space(tmp_path, capsys):
    form = write(tmp_path, "f.txt", "x^5 + y^5")
    code, out, err = run(capsys, "assoc-form", "--space", "2,5",
                         "--form", form)
    assert code == 2
    assert "V(2,4)" in err


# ----------------------------------------------------------------- geometry

def test_geometry_q_points(capsys):
    code, out, err = run(capsys, "geometry", "q-points",
                         "--conic", "1,2,3,4,5,6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q1=[0,-3,1]"
    assert lines[5] == "q6=[-1,2,0]"


def test_geometry_q_points_zero_denominator(capsys):
    code, out, err = run(capsys, "geometry", "q-points",
                         "--conic", "1/0,1,1,0,0,0")
    assert code == 2
    assert "error:" in err and "zero denominator" in err


def test_geometry_coble_check(capsys):
    code, out, err = run(capsys, "geometry", "coble-check")
    assert code == 0
    assert "(123)(145)(246)(356) == (124)(135)(236)(456)" in out


def test_geometry_richelot_roundtrip(tmp_path, capsys):
    pairs = write(tmp_path, "p.txt", "s*t\ns^2 - t^2\ns^2 - 4*t^2\n")
    code, out, err = run(capsys, "geometry", "richelot", "--pairs", pairs)
    assert code == 0
    forward = out.strip().splitlines()
    assert forward == ["s*t", "s^2 + 4*t^2", "s^2 + t^2"]

    back_file = write(tmp_path, "q.txt", "\n".join(forward) + "\n")
    code, out, err = run(capsys, "geometry", "richelot", "--pairs", back_file,
                         "--inverse")
    assert code == 0
    # same pairs up to order and the normalized sign convention
    assert set(out.strip().splitlines()) == {"s*t", "-s^2 + t^2",
                                             "-s^2 + 4*t^2"}


def test_geometry_sigma(tmp_path, capsys):
    pairs = write(tmp_path, "p.txt",
                  "s^2 + s*t - t^2\n2*s^2 - s*t - t^2\ns^2 + 3*s*t + t^2\n")
    code, out, err = run(capsys, "geometry", "sigma",
                         "--conic", "0,-2,0,0,1,0", "--pairs", pairs)
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_geometry_sigma_conic_guard(tmp_path, capsys):
    pairs = write(tmp_path, "p.txt", "s*t\ns^2 - t^2\ns^2 - 4*t^2\n")
    code, out, err = run(capsys, "geometry", "sigma",
                         "--conic", "1,0,0,0,0,1", "--pairs", pairs)
    assert code == 2
    assert "standard conic" in err


def test_pair_file_validation(tmp_path, capsys):
    pairs = write(tmp_path, "p.txt", "s*t\ns^2 - t^2\n")
    code, out, err = run(capsys, "geometry", "richelot", "--pairs", pairs)
    assert code == 2
    assert "exactly 3 nonempty lines" in err


def test_parse_error_reaches_user(tmp_path, capsys):
    pairs = write(tmp_path, "p.txt", "s*t\ns^2 -\ns^2 - 4*t^2\n")
    code, out, err = run(capsys, "geometry", "richelot", "--pairs", pairs)
    assert code == 2
    assert "expected a term" in err


# ------------------------------------------------------------------ quartic

def test_quartic_salmon(tmp_path, capsys):
    form = write(tmp_path, "f.txt", "X^4 + Y^4 + Z^4")
    code, out, err = run(capsys, "quartic", "salmon", "--form", form)
    assert code == 0
    assert out.strip() == "u^4 + v^4 + w^4"


def test_quartic_clebsch(tmp_path, capsys):
    form = write(tmp_path, "f.txt", "X^4 + Y^4 + Z^4 + 6*X^2*Y*Z")
    code, out, err = run(capsys, "quartic", "clebsch", "--form", form)
    assert code == 0
    assert out.strip() == "-16*X^4 + 128*X^2*Y*Z - 64*Y^2*Z^2"


# ------------------------------------------------------------------- verify

def test_verify_only_subset(tmp_path, capsys):
    report = str(tmp_path / "report.json")
    code, out, err = run(capsys, "verify",
                         "--only", "01-hesse-hessian,02-aronhold-calibration",
                         "--report", report)
    assert code == 0
    assert "01-hesse-hessian" in out
    assert "02-aronhold-calibration" in out
    assert "2 claims: 2 pass" in out
    with open(report, encoding="utf-8") as fh:
        data = json.load(fh)
    assert [c["claim_id"] for c in data["claims"]] == [
        "01-hesse-hessian", "02-aronhold-calibration"]
    assert all(c["status"] == "pass" for c in data["claims"])
    assert data["parameters"]["seed"] == 0


def test_verify_rejects_composite_moduli(capsys):
    code, out, err = run(capsys, "verify", "--primes", "9,15")
    assert code == 2
    assert "need two odd primes, got 9, 15" in err
    assert out == ""


def test_verify_rejects_prime_past_primality_range(capsys):
    code, out, err = run(capsys, "verify", "--primes", f"101,{10**25}")
    assert code == 2
    assert "beyond the exact primality range" in err
    assert out == ""


def test_verify_rejects_census_prime_past_point_bound(capsys):
    code, out, err = run(capsys, "verify", "--primes",
                         "101,2305843009213693951")
    assert code == 2
    assert "census prime 2305843009213693951" in err
    assert out == ""


def test_verify_unknown_id(capsys):
    code, out, err = run(capsys, "verify", "--only", "nope")
    assert code == 2
    assert "unknown claim ids" in err


def test_verify_reports_discrepancy_status(capsys):
    code, out, err = run(capsys, "verify",
                         "--only", "06-quartic-hessian-middle-term")
    assert code == 0  # noted discrepancies do not fail the run
    assert "discrepancy-noted" in out
