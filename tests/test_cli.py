import json

import pytest

from ssmspec.cli import main


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
