import json
import sys
from fractions import Fraction

import pytest

from ssmspec.cli import main
from ssmspec.zeros import mask_value


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_spectral(capsys):
    code, out, _ = run(capsys, "classify", "--rho", "1/4", "--digits", "0,1,8,9")
    blob = json.loads(out)
    assert code == 0
    assert blob["outcome"] == "Spectral"
    assert blob["certificate"]["decomposition"] == {
        "a": 1, "t": 3, "ell": 1, "ell_prime": 1, "beta": 2, "m": 1, "k": 1, "r": 1,
    }


def test_classify_nonspectral(capsys):
    code, out, _ = run(capsys, "classify", "--rho", "1/3", "--digits", "0,2")
    blob = json.loads(out)
    assert code == 0
    assert blob["outcome"] == "NonSpectral" and blob["reason"] == "NOdd"


def test_classify_unsupported_exits_2(capsys):
    code, out, _ = run(capsys, "classify", "--rho", "1/4", "--digits", "0,1,3,5,6")
    assert code == 2
    assert json.loads(out)["outcome"] == "Unsupported"


def test_classify_rho_root_and_weights(capsys):
    code, out, _ = run(capsys, "classify", "--rho-root", "1,2,2", "--digits", "0,2")
    assert code == 0
    blob = json.loads(out)
    assert blob["reason"] == "RhoNotReciprocalInteger"
    assert blob["input"]["rho"] == "(1/2)^(1/2)"
    code, out, _ = run(
        capsys, "classify", "--rho", "1/4", "--digits", "0,2", "--weights", "1/3,2/3"
    )
    assert json.loads(out)["reason"] == "UnequalWeights"


def test_classify_explain_goes_to_stderr(capsys):
    code, out, err = run(capsys, "classify", "--rho", "1/4", "--digits", "0,2", "--explain")
    assert code == 0
    json.loads(out)
    assert "outcome: Spectral" in err


def test_classify_invalid_input_exits_2(capsys):
    code, _, err = run(capsys, "classify", "--rho", "1/4", "--digits", "1,2")
    assert code == 2 and "invalid input" in err


def test_usage_error_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--rho", "1/4x", "--digits", "0,2"])
    assert exc.value.code == 64
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["classify", "--rho", "5/4", "--digits", "0,2"], "ratio base must lie in (0, 1)"),
        (["classify", "--rho-root", "1,2", "--digits", "0,2"], "not enough values"),
        (["classify", "--rho", "1/4", "--digits", "0,x"], "malformed digit"),
        (["classify", "--rho", "1/4", "--digits", "0,2", "--weights", "1/2,y"], "malformed rational"),
        (["qdump", "--rho", "1/4", "--digits", "0,2", "--grid", "2"], "grid step must lie in (0, 1]"),
    ],
)
def test_argument_parse_errors_exit_64(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "digits,expected_scales",
    [("0,1,2,3", ["1/2", "1/4"]), ("0,1,4", []), ("0,1,8,9", ["1/2", "1/16"])],
)
def test_zeros_examples(capsys, digits, expected_scales):
    code, out, _ = run(capsys, "zeros", digits)
    assert code == 0
    blob = json.loads(out)
    assert [part["scale"] for part in blob] == expected_scales


def test_scan_card2_table(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, _, err = run(
        capsys, "scan", "--cardinality", "2", "--digit-bound", "5",
        "--n-max", "10", "--out", str(out_path),
    )
    assert code == 0 and "violation" not in err
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "digits,N,outcome,reason,certificate_ok"
    for line in lines[1:]:
        parts = line.rsplit(",", 4)
        n = int(parts[1])
        assert (parts[2] == "Spectral") == (n % 2 == 0)


def test_scan_json_format(capsys):
    code, out, _ = run(
        capsys, "scan", "--cardinality", "3", "--digit-bound", "4",
        "--n-min", "2", "--n-max", "6", "--format", "json",
    )
    rows = json.loads(out)
    assert code == 0
    assert any(r["outcome"] == "Spectral" and r["certificate_ok"] == "true" for r in rows)


def test_scan_determinism(capsys):
    args = ["scan", "--cardinality", "4", "--digit-bound", "6", "--n-max", "5"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_scan_violation_exits_1(capsys, monkeypatch):
    import ssmspec.cli as cli

    monkeypatch.setattr(cli, "run_scan", lambda cfg: ([], ["synthetic problem"]))
    code, _, err = run(capsys, "scan", "--cardinality", "4", "--digit-bound", "6", "--n-max", "5")
    assert code == 1 and "synthetic problem" in err


def test_scan_reports_each_invariant_violation(capsys, monkeypatch):
    import ssmspec.cli as cli
    from ssmspec.classify import Dirac, Reason, Verdict
    from ssmspec.exact import Digit, NormalizedDigits

    class Failing:
        def verify(self):
            return False

    # A Spectral verdict per N, each breaking one check of run_scan.
    fakes = {
        2: ((0, 1, 2, 3), Dirac()),  # t1 = t2 = 1 and beta = 1 divides it
        3: ((0, 1, 8, 9), Dirac()),  # odd N
        4: ((0, 1, 8, 9), Failing()),  # a certificate that fails
        5: ((0, 1, 3, 5), Dirac()),  # three odd digits
        6: ((0, 1, 2, 5), Dirac()),  # t1 = 1, t2 = 2
    }

    def fake_classify(ratio, facts):
        ints, cert = fakes[ratio.reciprocal_integer()]
        norm = NormalizedDigits(Digit(Fraction(1)), ints)
        return Verdict(Reason.OK, (), str(ratio), facts.digit_text, None, normalized=norm, certificate=cert)

    monkeypatch.setattr(cli, "classify", fake_classify)
    code, _, err = run(capsys, "scan", "--cardinality", "4", "--digit-bound", "3", "--n-max", "6")
    assert code == 1
    assert err.splitlines() == [
        "violation: 0,1,2,3 N=2: Spectral with beta dividing t",
        "violation: 0,1,2,3 N=3: Spectral with odd N",
        "violation: 0,1,2,3 N=4: Spectral without verified certificate",
        "violation: 0,1,2,3 N=5: Spectral with odd N",
        "violation: 0,1,2,3 N=5: Spectral without the two-odd-one-even pattern",
        "violation: 0,1,2,3 N=6: Spectral with t1 != t2",
    ]


def test_scan_config_validation(capsys):
    from ssmspec.cli import ScanConfig
    from ssmspec.exact import InvalidInput

    with pytest.raises(InvalidInput):
        ScanConfig(5, 15, 2, 10)
    with pytest.raises(InvalidInput):
        ScanConfig(4, 2, 2, 10)
    with pytest.raises(InvalidInput):
        ScanConfig(4, 15, 2, 100)
    code, _, err = run(capsys, "scan", "--cardinality", "4", "--digit-bound", "2", "--n-max", "5")
    assert code == 2 and "invalid input" in err


def test_qdump_triple_source(capsys):
    code, out, _ = run(
        capsys, "qdump", "--rho", "1/4", "--digits", "0,2", "--level", "6", "--grid", "1/256"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "xi,q,level" and len(lines) == 257
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(values) <= 1 + 1e-9


def test_qdump_greedy_source_on_nonspectral_input(capsys):
    code, out, _ = run(
        capsys, "qdump", "--rho", "1/4", "--digits", "0,1,4,5",
        "--spectrum", "greedy:20:6", "--grid", "1/16",
    )
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    assert min(values) < 0.9  # non-spectral symptom: Q visibly below 1 somewhere


@pytest.mark.parametrize("spectrum", ["greedy:x", "greedy:5", "dj:x", "bogus"])
def test_malformed_spectrum_exits_2(capsys, spectrum):
    code, out, err = run(
        capsys, "qdump", "--rho", "1/4", "--digits", "0,2", "--spectrum", spectrum
    )
    assert code == 2 and out == "" and "spectrum source" in err


def test_qdump_triple_absent_reports_error(capsys):
    code, _, err = run(capsys, "qdump", "--rho", "1/4", "--digits", "0,1,8,9")
    assert code == 2 and "greedy" in err


def test_qdump_triple_above_512(capsys):
    code, out, _ = run(capsys, "qdump", "--spectrum", "triple", "--rho", "1/1020", "--digits", "0,1,2")
    assert code == 0
    assert out.startswith("xi,q,level")


@pytest.mark.parametrize("command", ["qdump", "gram"])
@pytest.mark.parametrize("digits,level", [("0,2", "40"), ("0", "1000000")])
def test_oversized_truncation_exits_2(capsys, monkeypatch, command, digits, level):
    # the size cap must refuse before any truncation work starts
    def no_work(self):
        raise AssertionError("truncation work started")

    monkeypatch.setattr("ssmspec.hadamard.HadamardTriple.verify", no_work)
    code, out, err = run(capsys, command, "--rho", "1/4", "--digits", digits, "--level", level)
    assert code == 2 and out == ""
    assert f"level-{level} truncation" in err and "exceeds the limit" in err


def test_oversized_gram_exits_2(capsys, monkeypatch):
    # the point cap must refuse before any transform value is computed
    def no_work(self, xi):
        raise AssertionError("Gram work started")

    monkeypatch.setattr("ssmspec.numerics.MuHatEvaluator.mu_hat", no_work)
    code, out, err = run(capsys, "gram", "--rho", "1/4", "--digits", "0,2", "--level", "16")
    assert code == 2 and out == ""
    assert "Gram matrix of 65536 points exceeds the limit of 2048 points" in err


@pytest.mark.parametrize(
    "extra", [["--level", "16"], ["--level", "12", "--grid", "1/65536"], ["--grid", "1/1000000000"]]
)
def test_oversized_qdump_exits_2(capsys, monkeypatch, extra):
    # the mask-term cap must refuse before the grid or any transform value is built
    def no_work(self, xi):
        raise AssertionError("Q work started")

    monkeypatch.setattr("ssmspec.numerics.MuHatEvaluator.mu_hat", no_work)
    monkeypatch.setattr("ssmspec.numerics.MuHatEvaluator.power", no_work)
    code, out, err = run(capsys, "qdump", "--rho", "1/4", "--digits", "0,2", *extra)
    assert code == 2 and out == ""
    assert "exceeds the limit of 16777216 mask terms" in err


@pytest.mark.parametrize("digits", ["0,1,1,2,3", "1,2,3,4,5"])
def test_malformed_five_digit_set_exits_2(capsys, digits):
    code, out, err = run(capsys, "classify", "--rho", "1/4", "--digits", digits)
    assert code == 2 and out == "" and err.startswith("invalid input:")


@pytest.mark.parametrize("command", ["qdump", "gram"])
def test_triple_search_above_the_cap_exits_2(capsys, command):
    code, out, err = run(capsys, command, "--rho", "1/40000000", "--digits", "0,1", "--level", "1")
    assert code == 2 and out == ""
    assert err.startswith("invalid input:") and "search cap of 65536" in err


def test_qdump_triple_needs_integer_digits(capsys):
    code, out, err = run(capsys, "qdump", "--rho", "1/4", "--digits", "0,1/2")
    assert code == 2 and out == "" and "integer values required" in err


def test_five_digit_explain_names_fifth_roots(capsys):
    assert mask_value((0, 1, 2, 3, 4), Fraction(1, 5)).is_zero
    code, out, err = run(capsys, "classify", "--rho", "1/5", "--digits", "0,1,2,3,4", "--explain")
    assert code == 2 and json.loads(out)["outcome"] == "Unsupported"
    assert "vanish beyond the pairing rule (e.g. {0,1,2,3,4} at 1/5)" in err
    assert "irrational points" not in err + out


def test_gram_dj_spectrum(capsys):
    code, out, _ = run(
        capsys, "gram", "--rho", "1/4", "--digits", "0,1,8,9", "--spectrum", "dj:2"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "i,j,re,im"
    worst = 0.0
    for line in lines[1:]:
        i, j, re, im = line.split(",")
        if i != j:
            worst = max(worst, abs(complex(float(re), float(im))))
    assert worst <= 1e-8


def test_qdump_determinism(capsys):
    args = ["qdump", "--rho", "1/4", "--digits", "0,2", "--level", "4", "--grid", "1/64"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_oversized_scan_is_refused_before_enumeration(capsys, monkeypatch):
    import ssmspec.cli as cli
    from ssmspec.cli import ScanConfig
    from ssmspec.exact import InvalidInput

    with pytest.raises(InvalidInput):
        ScanConfig(4, 10**5, 2, 64)
    ScanConfig(4, 47, 2, 64)  # C(47, 3) * 63 = 1,021,545 rows, the largest four-digit bound accepted
    with pytest.raises(InvalidInput):
        ScanConfig(4, 48, 2, 64)

    def no_enumeration(*args):
        raise AssertionError("digit sets enumerated before the size check")

    monkeypatch.setattr(cli, "enumerate_digit_sets", no_enumeration)
    code, out, err = run(capsys, "scan", "--cardinality", "4", "--digit-bound", "100000", "--n-max", "64")
    assert code == 2 and out == "" and "exceeds the limit of 1048576 rows" in err


@pytest.mark.parametrize("command", ["qdump", "gram"])
def test_oversized_dj_spectrum_exits_2(capsys, command):
    code, out, err = run(capsys, command, "--rho", "1/4", "--digits", "0,1,8,9", "--spectrum", "dj:16384")
    assert code == 2 and out == "" and "over the limit of 65536" in err


def test_tolerance_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SPECTRAL_SSM_TOL", "1e-6")
    code, out, _ = run(
        capsys, "qdump", "--rho", "1/4", "--digits", "0,2", "--level", "3", "--grid", "1/8"
    )
    assert code == 0
    monkeypatch.setenv("SPECTRAL_SSM_TOL", "17")
    code, _, err = run(
        capsys, "qdump", "--rho", "1/4", "--digits", "0,2", "--level", "3", "--grid", "1/8"
    )
    assert code == 2 and "SPECTRAL_SSM_TOL" in err


def test_scan_normalizes_each_digit_set_once(monkeypatch):
    from ssmspec.cli import ScanConfig, enumerate_digit_sets, run_scan

    classify_module = sys.modules["ssmspec.classify"]  # the package binds the function
    calls = []
    original = classify_module.normalize_digits

    def counting(dset):
        calls.append(dset)
        return original(dset)

    monkeypatch.setattr(classify_module, "normalize_digits", counting)
    rows, violations = run_scan(ScanConfig(4, 15, 2, 24))
    assert not violations and len(rows) == 409 * 23
    assert len(calls) == len(enumerate_digit_sets(4, 15)) == 409


def test_scan_zero_set_cache_stays_bounded():
    from ssmspec.cli import ScanConfig, run_scan
    from ssmspec.zeros import zero_set

    maxsize = zero_set.cache_info().maxsize
    assert maxsize is not None
    rows, violations = run_scan(ScanConfig(4, 30, 2, 3))
    assert not violations and len({row["digits"] for row in rows}) > maxsize
    assert zero_set.cache_info().currsize <= maxsize


@pytest.mark.parametrize("command", ["qdump", "gram"])
def test_float_spectrum_points_exit_2(capsys, monkeypatch, command):
    import ssmspec.cli as cli

    monkeypatch.setattr(cli, "_spectrum_points", lambda args, n_ratio: [0, 0.1])
    code, out, err = run(capsys, command, "--rho", "1/4", "--digits", "0,2")
    assert code == 2 and out == "" and "not a rational value: 0.1" in err
