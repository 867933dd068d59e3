import argparse
import contextlib
import io
import json
import math
import os
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from ssmspec.classify import Reason, classify
from ssmspec.cli import MAX_SCAN_ROWS, build_parser, main
from ssmspec.exact import InvalidInput, Unsupported, normalize_digits
from ssmspec.zeros import mask_value, mask_zero_set


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
        (["classify", "--rho", "1/" + "1" * 5000, "--digits", "0,1"], "Exceeds the limit (4300 digits)"),
        (["classify", "--rho", "1/4", "--digits", "0,1", "--weights", "1/2,1/" + "1" * 5000], "Exceeds the limit (4300 digits)"),
    ],
)
def test_argument_parse_errors_exit_64(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert message in capsys.readouterr().err


_DUPLICATE = (InvalidInput, "duplicate digits")
_NO_ZERO = (InvalidInput, "0 must be a digit (translate the set first)")
_FIVE = (Unsupported, "5 digits: only 1..4 supported")
_NEGATIVE = (InvalidInput, "digit components must be non-negative: -1")

# Each digit-set refusal as every route gives it: (digits, CLI text, normalize_digits
# and classify, mask_zero_set, `ssmspec classify`, `ssmspec zeros`).  A library route
# expects (exception, message), a CLI route (exit code, last stderr line).  The
# CLI cannot pass an empty set, and mask_zero_set reads its digits as values first.
DIGIT_SET_REFUSALS = {
    "empty": (
        (), "", (InvalidInput, "digit set is empty"), (InvalidInput, "digit set is empty"),
        (64, "ssmspec classify: error: argument --digits: malformed digit: ''"),
        (64, "ssmspec zeros: error: argument digits: malformed digit: ''"),
    ),
    "repeated": (
        (0, 1, Fraction(1)), "0,1,2/2", _DUPLICATE, (InvalidInput, "repeated values in {0, 1, 1}"),
        (2, "invalid input: duplicate digits"), (2, "invalid input: repeated values in {0, 1, 1}"),
    ),
    "no-zero": (
        (1, 2), "1,2", _NO_ZERO, _NO_ZERO,
        (2, "invalid input: 0 must be a digit (translate the set first)"),
        (2, "invalid input: 0 must be a digit (translate the set first)"),
    ),
    "repeated-before-too-large": (
        (0, 1, 1, 2, 3), "0,1,1,2,3", _DUPLICATE, (InvalidInput, "repeated values in {0, 1, 1, 2, 3}"),
        (2, "invalid input: duplicate digits"), (2, "invalid input: repeated values in {0, 1, 1, 2, 3}"),
    ),
    # classify answers five digits with an Unsupported verdict on stdout.
    "five": ((0, 1, 2, 3, 4), "0,1,2,3,4", _FIVE, _FIVE, (2, ""), (2, "unsupported: 5 digits: only 1..4 supported")),
    "negative": (
        (0, -1), "0,-1", _NEGATIVE, _NEGATIVE,
        (64, "ssmspec classify: error: argument --digits: digit components must be non-negative: -1"),
        (64, "ssmspec zeros: error: argument digits: digit components must be non-negative: -1"),
    ),
}


def _exit_and_last_line(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    return code, err.splitlines()[-1] if err else ""


@pytest.mark.parametrize("case", DIGIT_SET_REFUSALS)
def test_a_digit_set_is_refused_alike_by_every_route(capsys, case):
    digits, text, checked, as_values, classify_cli, zeros_cli = DIGIT_SET_REFUSALS[case]
    calls = [(normalize_digits, checked), (mask_zero_set, as_values)]
    if checked is _FIVE:
        assert classify(Fraction(1, 4), digits).reason is Reason.UNSUPPORTED
    else:
        calls.append((lambda d: classify(Fraction(1, 4), d), checked))
    for call, (exc, message) in calls:
        with pytest.raises(exc, match=f"^{re.escape(message)}$"):
            call(digits)
    assert _exit_and_last_line(capsys, ["classify", "--rho", "1/4", "--digits", text]) == classify_cli
    assert _exit_and_last_line(capsys, ["zeros", text]) == zeros_cli


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--rho", "1/0", "--digits", "0,1"],
        ["classify", "--rho", "1/4", "--digits", "0,1/0"],
        ["classify", "--rho", "1/4", "--digits", "0,1/0*t"],
        ["classify", "--rho", "1/4", "--digits", "0,1,2,3", "--weights", "1/0,1,1,1"],
        ["qdump", "--rho", "1/4", "--digits", "0,2", "--grid", "1/0"],
    ],
)
def test_zero_denominator_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == "" and "error: argument" in err and "zero denominator: '1/0'" in err


# Text in the input language: numbers of at most three digits between runs of
# the other characters, so that no generated input asks for much work.
_CLI_TEXT = st.from_regex(r"[ /,+*t-]{0,2}(?:\d{1,3}[ /,+*t-]{1,2}){0,4}\d{0,3}", fullmatch=True)


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=100, deadline=None)
@example("1/0", "0,1", None)
@example("1/4", "0,1/0", None)
@example("1/4", "0,1,2,3", "1/0,1,1,1")
@given(_CLI_TEXT, _CLI_TEXT, st.none() | _CLI_TEXT)
def test_classify_exits_with_a_documented_code_on_any_text(rho, digits, weights):
    argv = ["classify", f"--rho={rho}", f"--digits={digits}"]
    if weights is not None:
        argv.append(f"--weights={weights}")
    assert _exit_code(argv) in (0, 1, 2, 64)


_RATIONAL_TEXT = st.builds("{}/{}".format, st.integers(-(10**30), 10**30), st.integers(1, 10**30))


@settings(max_examples=100, deadline=None)
@example("1/4", "0,1,8,9", True, ["1", "1", "1", "1"])
@example("1/4", "0,1,2,3", True, ["1"] * 64)
@given(
    st.sampled_from(["1/4", "1/6", "2/7"]) | _CLI_TEXT,
    st.sampled_from(["0", "0,1", "0,1,2", "0,1,8,9", "0,1,t,9", "0,1,2,3,4"]) | _CLI_TEXT,
    st.booleans(),
    st.lists(st.sampled_from(["1", "1/2"]) | _RATIONAL_TEXT, max_size=64),
)
def test_classify_exits_with_a_documented_code_on_any_weights(rho, digits, explain, weights):
    # 0 to 64 rational weights, with or without --explain; a MemoryError or
    # any other exception fails the test.
    argv = ["classify", f"--rho={rho}", f"--digits={digits}", f"--weights={','.join(weights)}"]
    if explain:
        argv.append("--explain")
    assert _exit_code(argv) in (0, 1, 2, 64)


@settings(max_examples=60, deadline=None)
@example("1/0")
@example("--")
@given(_CLI_TEXT)
def test_qdump_grid_exits_with_a_documented_code_on_any_text(grid):
    argv = ["qdump", "--rho", "1/4", "--digits", "0,2", "--level", "2", f"--grid={grid}"]
    assert _exit_code(argv) in (0, 1, 2, 64)


def _gram_is_large(level, spectrum):
    """Whether `gram --rho 1/4 --digits 0,2` with this --level and --spectrum
    text accepts more than 256 points: 2**level for the triple, 2*(2n + 1)
    for dj:n.  A gram refuses more than 2,048 before building any."""
    try:
        level = 4 if level is None else int(level)
        kind, _, fields = (spectrum or "triple").partition(":")
        size = 2**level if kind == "triple" else 2 * (2 * int(fields) + 1) if kind == "dj" else 0
    except ValueError:
        return False
    return 256 < size <= 2048


@settings(max_examples=80, deadline=None)
@example("qdump", "-1", "dj:1")
@example("gram", "-1", None)
@example("qdump", "16", None)  # 65,536 points: the largest truncation accepted
@example("qdump", "17", None)
@given(
    st.sampled_from(["qdump", "gram"]),
    st.none() | st.integers(-3, 20).map(str) | _CLI_TEXT,
    st.none() | st.tuples(st.sampled_from(["triple", "dj:", "greedy:", "greedy:9:"]), st.just("") | _CLI_TEXT).map("".join),
)
def test_level_and_spectrum_exit_with_a_documented_code_on_any_text(command, level, spectrum):
    # qdump runs on a grid of two points; the large accepted grams are left out.
    assume(command == "qdump" or not _gram_is_large(level, spectrum))
    argv = [command, "--rho=1/4", "--digits=0,2", *(["--grid=1/2"] if command == "qdump" else [])]
    argv += [f"{flag}={value}" for flag, value in (("--level", level), ("--spectrum", spectrum)) if value is not None]
    code = _exit_code(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 64)


@pytest.mark.parametrize("command", ["qdump", "gram"])
@pytest.mark.parametrize("spectrum", ["triple", "dj:1", "greedy:8:4"])
def test_negative_level_is_a_usage_error(capsys, command, spectrum):
    with pytest.raises(SystemExit) as exc:
        main([command, "--rho", "1/4", "--digits", "0,2", "--level", "-1", "--spectrum", spectrum])
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == "" and "argument --level: level must be >= 0" in err


# One accepted command line per subcommand.
_ACCEPTED = {
    "classify": ["--rho=1/4", "--digits=0,2"],
    "zeros": ["0,2"],
    "scan": ["--cardinality=2", "--digit-bound=5", "--n-max=4"],
    "qdump": ["--rho=1/4", "--digits=0,2"],
    "gram": ["--rho=1/4", "--digits=0,2"],
}


def _subcommand_options():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, option)
        for command, parser in sub.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    ]


@pytest.mark.parametrize("command,option", _subcommand_options())
def test_attached_double_dash_is_a_usage_error(capsys, command, option):
    # argparse strips a `--` given as `--opt=--` and stores [] without
    # calling the option's type; every option must refuse it.
    replaced = {"--rho", "--rho-root"} if option.startswith("--rho") else {option}
    kept = [arg for arg in _ACCEPTED[command] if arg.split("=")[0] not in replaced]
    with pytest.raises(SystemExit) as exc:
        main([command, *kept, f"{option}=--"])
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == "" and "error: argument --" in err


@st.composite
def _scan_flags(draw):
    """Scan flags as text, mostly numbers near the accepted ranges; at most
    one flag is dropped or replaced by other text."""
    n_min = draw(st.integers(2, 64) | st.integers(-1, 66))
    flags = {
        "--cardinality": draw(st.integers(2, 4) | st.integers(-1, 6)),
        "--digit-bound": draw(st.integers(3, 16) | st.integers(-1, 2) | st.integers(10**4, 10**30)),
        "--n-min": n_min,
        "--n-max": n_min + draw(st.integers(-2, 6)),
        "--format": draw(st.sampled_from(["csv", "json"])),
    }
    flags = {flag: str(value) for flag, value in flags.items()}
    if draw(st.sampled_from([False, False, True])):
        flags[draw(st.sampled_from(sorted(flags)))] = draw(st.none() | _CLI_TEXT)
    return flags


def _scan_rows(flags):
    """The row estimate ScanConfig checks, or None when the flags are refused before it."""
    try:
        card, bound, n_max = (int(flags[f]) for f in ("--cardinality", "--digit-bound", "--n-max"))
        n_min = 2 if flags["--n-min"] is None else int(flags["--n-min"])
    except (TypeError, ValueError):
        return None
    if card not in (2, 3, 4) or bound < 3 or not (2 <= n_min <= n_max <= 64):
        return None
    return math.comb(bound, card - 1) * (n_max - n_min + 1)


_ROWS_48 = {"--cardinality": "4", "--digit-bound": "48", "--n-min": "2", "--n-max": "64", "--format": "csv"}


@settings(max_examples=80, deadline=None)
@example(_ROWS_48)  # 1,124,928 rows, just above MAX_SCAN_ROWS
@example({**_ROWS_48, "--n-min": "64", "--n-max": "2"})
@given(_scan_flags())
def test_scan_exits_with_a_documented_code_on_any_flags(flags):
    rows = _scan_rows(flags)
    # Accepted scans stay small; refusals above MAX_SCAN_ROWS cost nothing.
    assume(rows is None or rows <= 2000 or rows > MAX_SCAN_ROWS)
    argv = ["scan", *(f"{flag}={value}" for flag, value in flags.items() if value is not None)]
    code = _exit_code(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 64)


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

    def run_scan(cfg, violations):
        violations.append("synthetic problem")
        yield from ()

    monkeypatch.setattr(cli, "run_scan", run_scan)
    code, _, err = run(capsys, "scan", "--cardinality", "4", "--digit-bound", "6", "--n-max", "5")
    assert code == 1 and "synthetic problem" in err


def test_scan_reports_each_invariant_violation(capsys, monkeypatch):
    import ssmspec.cli as cli
    from ssmspec.classify import DigitFacts, Dirac, Reason
    from ssmspec.exact import Digit, NormalizedDigits

    class Failing:
        def verify(self):
            return False

    # A Spectral row per N, each breaking one check of run_scan: the
    # normalized integers of the digit facts and the certificate of the rule.
    fakes = {
        2: ((0, 1, 2, 3), Dirac()),  # t1 = t2 = 1 and beta = 1 divides it
        3: ((0, 1, 8, 9), Dirac()),  # odd N
        4: ((0, 1, 8, 9), Failing()),  # a certificate that fails
        5: ((0, 1, 3, 5), Dirac()),  # three odd digits
        6: ((0, 1, 2, 5), Dirac()),  # t1 = 1, t2 = 2
    }
    monkeypatch.setattr(cli, "_decide", lambda n_ratio, facts: (Reason.OK, (), fakes[n_ratio][1]))
    lines = []
    for n, (ints, _) in fakes.items():
        # One single-N scan per fake, since the digit facts hold the integers.
        facts = DigitFacts(("0", "1", "2", "3"), NormalizedDigits(Digit(Fraction(1)), ints))
        monkeypatch.setattr(cli, "digit_facts", lambda dset, facts=facts: facts)
        code, _, err = run(capsys, "scan", "--cardinality", "4", "--digit-bound", "3", "--n-min", str(n), "--n-max", str(n))
        assert code == 1
        lines += err.splitlines()
    assert lines == [
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
    def no_work(self, *args):
        raise AssertionError("Q work started")

    monkeypatch.setattr("ssmspec.numerics.MuHatEvaluator.mu_hat", no_work)
    monkeypatch.setattr("ssmspec.numerics.MuHatEvaluator._power", no_work)  # the kernel of power and Q
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


def test_five_digits_echo_their_weights(capsys):
    argv = ["classify", "--rho", "1/5", "--digits", "0,1,2,3,4"]
    code, out, _ = run(capsys, *argv, "--weights", "1/2,1/8,1/8,1/8,1/8")
    assert code == 2 and json.loads(out)["input"]["weights"] == ["1/2", "1/8", "1/8", "1/8", "1/8"]
    code, out, err = run(capsys, *argv, "--weights", "1/2,1/2")
    assert code == 2 and out == ""
    assert err == "invalid input: weight count must match digit count\n"


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
    # The enumeration yields normalized integers, so no digit set goes through
    # normalize_digits; the rule runs once per Spectral row and once per
    # digit set and class of N with another outcome.
    import ssmspec.classify as classify_module
    import ssmspec.cli as cli
    from ssmspec.cli import ScanConfig, enumerate_digit_sets, run_scan

    calls, decided = [], []
    original, decide = classify_module.normalize_digits, cli._decide

    def counting(dset):
        calls.append(dset)
        return original(dset)

    def counting_decide(n_ratio, facts):
        decided.append(n_ratio)
        return decide(n_ratio, facts)

    monkeypatch.setattr(classify_module, "normalize_digits", counting)
    monkeypatch.setattr(cli, "_decide", counting_decide)
    violations = []
    rows = list(run_scan(ScanConfig(4, 15, 2, 24), violations))
    assert not violations and len(rows) == len(enumerate_digit_sets(4, 15)) * 23 == 409 * 23
    assert calls == []
    spectral = sum(row["outcome"] == "Spectral" for row in rows)
    classes = {(row["digits"], row["N"] & -row["N"]) for row in rows if row["outcome"] != "Spectral"}
    assert spectral > 0 and len(decided) == spectral + len(classes) < len(rows)


def test_scan_decides_three_digit_sets_once_per_residue_of_n(monkeypatch):
    import ssmspec.cli as cli
    from ssmspec.cli import ScanConfig, enumerate_digit_sets, run_scan

    decided = []
    decide = cli._decide
    monkeypatch.setattr(cli, "_decide", lambda n_ratio, facts: decided.append(n_ratio) or decide(n_ratio, facts))
    rows = list(run_scan(ScanConfig(3, 12, 2, 40), []))
    assert len(rows) == len(enumerate_digit_sets(3, 12)) * 39
    spectral = sum(row["outcome"] == "Spectral" for row in rows)
    classes = {(row["digits"], row["N"] % 3) for row in rows if row["outcome"] != "Spectral"}
    assert len(decided) == spectral + len(classes)
    assert all(row["certificate_ok"] == "true" and row["N"] % 3 == 0 for row in rows if row["outcome"] == "Spectral")


def test_classify_refuses_a_certificate_past_a_lower_int_to_text_limit():
    # m of 599 ones fits the limit of 640 digits; the certificate digit m**2 does not.
    import subprocess
    import sys
    from pathlib import Path

    import ssmspec

    n_ratio = 4 * int("1" * 599)
    argv = ["classify", "--rho", f"1/{n_ratio}", "--digits", "0,1,32,33"]
    code = f"import sys; from ssmspec.cli import main; sys.exit(main({argv!r}))"
    env = {**os.environ, "PYTHONPATH": str(Path(ssmspec.__file__).parents[1]), "PYTHONINTMAXSTRDIGITS": "640"}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "unsupported: the product-form certificate would hold a digit of more than 640 decimal digits\n"


def test_scan_verifies_each_certificate_once(monkeypatch):
    # Each Spectral row's product form is built unverified and verified once,
    # by the scan, through ProductForm.verify.
    import ssmspec.hadamard as hadamard
    from ssmspec.cli import ScanConfig, run_scan

    verify_calls, check_calls = [], []
    verify, check = hadamard.ProductForm.verify, hadamard.verify_product_form

    def counted_verify(pf):
        verify_calls.append(pf)
        return verify(pf)

    def counted_check(pf):
        check_calls.append(pf)
        return check(pf)

    monkeypatch.setattr(hadamard.ProductForm, "verify", counted_verify)
    monkeypatch.setattr(hadamard, "verify_product_form", counted_check)
    violations = []
    rows = list(run_scan(ScanConfig(4, 15, 2, 24), violations))
    spectral = sum(row["outcome"] == "Spectral" for row in rows)
    assert not violations and spectral > 0
    assert all(row["certificate_ok"] == "true" for row in rows if row["outcome"] == "Spectral")
    assert len(verify_calls) == spectral
    assert len(check_calls) == spectral


def test_a_failing_certificate_is_refused_by_classify_and_reported_by_scan(capsys, monkeypatch):
    # Certificates are built unverified: classify() raises on one that fails,
    # and the scan reports it as a violation, exit 1, instead of a traceback.
    import ssmspec.classify as classify_module
    from ssmspec.exact import InternalInconsistency
    from ssmspec.hadamard import ProductForm, StructureDecomposition, construct_product_form

    good = construct_product_form(StructureDecomposition(a=1, t=3, ell=1, ell_prime=1, beta=2, m=1))
    bad = ProductForm(good.n_ratio, good.a_set, good.b_sets, good.l1, (0, 4))
    monkeypatch.setattr(classify_module, "construct_product_form", lambda dec: bad)
    with pytest.raises(InternalInconsistency, match="certificate failed verification"):
        classify_module.classify(Fraction(1, 4), (0, 1, 8, 9))
    code, out, err = run(capsys, "scan", "--cardinality", "4", "--digit-bound", "9", "--n-min", "4", "--n-max", "4")
    assert code == 1
    assert '"0,1,8,9",4,Spectral,OK,false' in out.splitlines()
    assert "violation: 0,1,8,9 N=4: Spectral without verified certificate" in err.splitlines()


def test_an_unprintable_certificate_exits_2(capsys):
    # t = 301 and m of 40 ones: a*m**k = m**150 has about 6,000 digits.
    n_ratio = 4 * int("1" * 40)
    digits = f"0,1,{1 << 301},{(1 << 301) + 1}"
    code, out, err = run(capsys, "classify", "--rho", f"1/{n_ratio}", "--digits", digits)
    assert (code, out) == (2, "")
    assert err == "unsupported: the product-form certificate would hold a digit of more than 4300 decimal digits\n"


def test_a_certificate_just_under_the_digit_bound_prints(capsys):
    # {0, a, 8, a + 8} at N = 12: k = r = 1 and the largest digit is 3a + 24.
    # At a = 33...3 (4,300 threes) that is 10**4300 + 23, one digit too many,
    # though 3a = 10**4300 - 1 alone would print.
    for a, code in (((10**4300 - 1) // 3 - 10, 0), ((10**4300 - 1) // 3, 2)):
        got, out, err = run(capsys, "classify", "--rho", "1/12", "--digits", f"0,{a},8,{a + 8}")
        assert got == code, err
        if code == 0:
            cert = json.loads(out)["certificate"]
            assert cert["verified"] and cert["digits"][-1] == 3 * a + 24 == 10**4300 - 7


def test_scan_rows_agree_with_a_fresh_classify():
    # Each row's outcome, reason and certificate_ok, against classify() of its
    # digit tuple at 1/N, for every gcd-1 set of 2, 3 and 4 digits up to 12.
    from ssmspec.classify import classify
    from ssmspec.cli import ScanConfig, enumerate_digit_sets, run_scan

    for card in (2, 3, 4):
        violations = []
        rows = list(run_scan(ScanConfig(card, 12, 2, 64), violations))
        assert not violations and len(rows) == len(enumerate_digit_sets(card, 12)) * 63
        for row in rows:
            v = classify(Fraction(1, row["N"]), tuple(int(d) for d in row["digits"].split(",")))
            cert_ok = "" if v.certificate is None else str(v.certificate.verify()).lower()
            assert (row["outcome"], row["reason"], row["certificate_ok"]) == (v.outcome.value, v.reason.value, cert_ok), row


def test_scan_zero_set_cache_stays_bounded():
    from ssmspec.cli import ScanConfig, run_scan
    from ssmspec.zeros import zero_set

    # Three digits reach zero_set once per digit set; 1,101 sets overfill it.
    maxsize = zero_set.cache_info().maxsize
    assert maxsize is not None
    zero_set.cache_clear()
    violations = []
    rows = list(run_scan(ScanConfig(3, 60, 2, 3), violations))
    assert not violations and len({row["digits"] for row in rows}) > maxsize
    assert zero_set.cache_info().currsize == maxsize


@pytest.mark.parametrize("command", ["qdump", "gram"])
def test_float_spectrum_points_exit_2(capsys, monkeypatch, command):
    import ssmspec.cli as cli

    monkeypatch.setattr(cli, "_spectrum_points", lambda args, n_ratio: [0, 0.1])
    code, out, err = run(capsys, command, "--rho", "1/4", "--digits", "0,2")
    assert code == 2 and out == "" and "not a rational value: 0.1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--rho", "1/4", "--digits", "0,1,8,9"],
        ["zeros", "0,1,2"],
        ["scan", "--cardinality", "3", "--digit-bound", "6", "--n-max", "8"],
        ["scan", "--cardinality", "3", "--digit-bound", "6", "--n-max", "8", "--format", "json"],
        ["qdump", "--rho", "1/4", "--digits", "0,2", "--level", "3"],
        ["gram", "--rho", "1/4", "--digits", "0,2", "--level", "3"],
    ],
)
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    assert main(argv) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "out"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == printed.encode()


_REFUSED_FLAGS = {
    "qdump": ["--rho", "1/4", "--digits", "0,2", "--level", "17"],
    "gram": ["--rho", "1/4", "--digits", "0,2", "--level", "17"],
    "scan": ["--cardinality", "4", "--digit-bound", "48", "--n-max", "64"],  # above MAX_SCAN_ROWS
}


@pytest.mark.parametrize("command", ["qdump", "gram", "scan"])
def test_refused_dump_leaves_the_out_file_untouched(capsys, tmp_path, command):
    # Every refusal comes before --out is opened, so it truncates nothing.
    path = tmp_path / "kept.csv"
    path.write_text("earlier output\n")
    code, out, err = run(capsys, command, *_REFUSED_FLAGS[command], "--out", str(path))
    assert code == 2 and out == "" and "exceeds the limit" in err
    assert path.read_text() == "earlier output\n"


@pytest.mark.parametrize("block", [1, 2, 3, 4096])
def test_scan_json_blocks_make_the_bytes_of_one_dump(capsys, monkeypatch, block):
    import ssmspec.cli as cli
    from ssmspec.cli import ScanConfig, run_scan

    rows = list(run_scan(ScanConfig(3, 6, 2, 8), []))
    assert len(rows) % 2 and len(rows) % 3  # the last block is a partial one
    monkeypatch.setattr(cli, "_JSON_BLOCK", block)
    code, out, _ = run(capsys, "scan", "--cardinality", "3", "--digit-bound", "6", "--n-max", "8", "--format", "json")
    assert code == 0 and out == json.dumps(rows, indent=2) + "\n"


@pytest.mark.parametrize("fmt,limit_mb", [("csv", 2), ("json", 12)])
def test_scan_never_holds_its_table(fmt, limit_mb):
    # 26,919 rows, which as dicts peak at 5.7 MB (CSV) and, with the JSON
    # text besides, at 32.5 MB; streamed, a scan holds a row or one JSON
    # block of rows.
    argv = ["scan", "--cardinality", "4", "--digit-bound", "20", "--n-max", "28", "--format", fmt, "--out", os.devnull]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1024 * 1024


def test_scan_yields_a_row_before_the_next_digit_set(monkeypatch):
    import ssmspec.cli as cli
    from ssmspec.cli import ScanConfig, run_scan

    calls = []
    original = cli.digit_facts

    def counting(dset):
        calls.append(dset)
        return original(dset)

    monkeypatch.setattr(cli, "digit_facts", counting)
    rows = run_scan(ScanConfig(4, 47, 2, 64), [])
    assert next(rows) == {"digits": "0,1,2,3", "N": 2, "outcome": "NonSpectral", "reason": "TDivisibleByBeta", "certificate_ok": ""}
    assert len(calls) == 1


@st.composite
def _grid_steps(draw):
    """Grid steps p/q in (0, 1] with at most a few hundred points, often
    with denominators above 2^53."""
    den = draw(st.integers(1, 10**6) | st.integers(2**53, 2**80))
    return Fraction(draw(st.integers(max(1, den // 300), den)), den)


@settings(max_examples=60, deadline=None)
@example(Fraction(3, 1000003))
@example(Fraction(10**20 + 37, 7 * 10**20 + 39))
@example(Fraction(2, 3))
@given(_grid_steps())
def test_qdump_grid_points_are_the_rounded_exact_points(step):
    import ssmspec.cli as cli

    grids = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "q_function", lambda ev, points, grid: grids.append(grid) or np.zeros(len(grid)))
        mp.setattr(cli, "q_samples_csv", lambda *args: None)
        assert main(["qdump", "--rho", "1/4", "--digits", "0,2", "--level", "1", f"--grid={step}"]) == 0
    assert grids[0].tolist() == [float(j * step) for j in range(int(1 / step))]
