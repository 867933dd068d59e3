import dataclasses
import importlib
import itertools
import json
import math
import pkgutil
import random
import re
import time
import types
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssmspec.classify import (
    CITATIONS,
    DigitFacts,
    Dirac,
    Outcome,
    Reason,
    Verdict,
    classify,
    _certificate,
    _n_class,
    _rule,
    digit_facts,
    explain,
    hu_lau_infinite_bizero,
)
from ssmspec.exact import (
    ContractionRatio,
    Digit,
    InvalidInput,
    IrreducibleWitness,
    NormalizedDigits,
    Unsupported,
    as_digit,
)
from ssmspec.hadamard import MAX_CERTIFICATE_DIGITS, StructureDecomposition, verify_product_form
from ssmspec.spectra import BiZeroReport
from ssmspec.zeros import CyclotomicValue, MuZeroTest, ZeroSet, zero_set


CASES = [
    (F(1, 4), (0, 1, 8, 9), None, Outcome.SPECTRAL, Reason.OK),
    (F(1, 4), (0, 1, 8, 9), ("1/10", "2/10", "3/10", "4/10"), Outcome.NON_SPECTRAL, Reason.UNEQUAL_WEIGHTS),
    (F(1, 4), (0, 1, 4, 5), None, Outcome.NON_SPECTRAL, Reason.T_DIVISIBLE_BY_BETA),
    (F(1, 4), (0, 1, 2, 5), None, Outcome.NON_SPECTRAL, Reason.T_DISTINCT),
    (F(1, 3), (0, 2), None, Outcome.NON_SPECTRAL, Reason.N_ODD),
    (F(1, 4), (0, 2), None, Outcome.SPECTRAL, Reason.OK),
    (F(1, 6), (0, 1, 2), None, Outcome.SPECTRAL, Reason.OK),
    (F(1, 2), (0, 1, 2, 3), None, Outcome.NON_SPECTRAL, Reason.T_DIVISIBLE_BY_BETA),
    (F(2, 5), (0, 2), None, Outcome.NON_SPECTRAL, Reason.RHO_NOT_RECIPROCAL_INTEGER),
]


@pytest.mark.parametrize("rho,digits,weights,outcome,reason", CASES)
def test_classify_cases(rho, digits, weights, outcome, reason):
    v = classify(rho, digits, weights)
    assert v.outcome is outcome and v.reason is reason


def test_dj_decomposition_fields():
    v = classify(F(1, 4), (0, 1, 8, 9))
    dec = v.certificate.decomposition
    assert (dec.t, dec.beta, dec.m, dec.k, dec.r) == (3, 2, 1, 1, 1)
    assert verify_product_form(v.certificate)


def test_card3_certificate():
    v = classify(F(1, 6), (0, 1, 2))
    t = v.certificate
    assert (t.n_ratio, t.digits, t.spectrum) == (6, (0, 1, 2), (0, 2, 4))
    assert t.verify()


def test_card2_certificate():
    v = classify(F(1, 4), (0, 2))
    t = v.certificate
    assert (t.n_ratio, t.digits, t.spectrum) == (4, (0, 1), (0, 2))


def test_card1_is_trivially_spectral():
    v = classify(F(2, 5), (0,))
    assert v.outcome is Outcome.SPECTRAL
    assert isinstance(v.certificate, Dirac)


def test_empty_zero_set_cases():
    v = classify(F(1, 4), (0, 1, 4))
    assert v.outcome is Outcome.NON_SPECTRAL and v.reason is Reason.EMPTY_ZERO_SET
    v = classify(F(1, 4), (0, 1, 2, 4))  # one odd digit
    assert v.reason is Reason.EMPTY_ZERO_SET


def test_card3_n_not_divisible():
    v = classify(F(1, 4), (0, 1, 2))
    assert v.reason is Reason.CARD3_N_NOT_DIVISIBLE_BY_3


def test_card4_n_odd():
    v = classify(F(1, 3), (0, 1, 2, 3))
    assert v.reason is Reason.N_ODD


def test_irrational_digits():
    v = classify(F(1, 4), ("0", "1", "t", "1+t"))
    assert v.reason is Reason.IRRATIONAL_DIGITS
    assert isinstance(v.normalized, IrreducibleWitness)
    v = classify(F(1, 4), ("0", "1", "t"))
    assert v.reason is Reason.EMPTY_ZERO_SET
    v = classify(F(1, 4), ("0", "t"))  # proportional: behaves like {0,1}
    assert v.outcome is Outcome.SPECTRAL


def test_root_rho_rejected_for_rational_digits():
    v = classify(ContractionRatio.root(1, 2, 2), (0, 2))
    assert v.reason is Reason.RHO_NOT_RECIPROCAL_INTEGER
    # perfect power degenerates to a rational and classifies normally
    v = classify(ContractionRatio.root(1, 16, 2), (0, 2))
    assert v.outcome is Outcome.SPECTRAL
    # ... also past the float range
    v = classify(ContractionRatio(F(1, 9**60), 2), (0, 1, 2))
    assert (v.outcome, v.reason) == (Outcome.SPECTRAL, Reason.OK)
    assert v.to_json() == classify(F(1, 3**60), (0, 1, 2)).to_json()


def test_unsupported_cardinality():
    v = classify(F(1, 4), (0, 1, 3, 5, 6))
    assert v.outcome is Outcome.UNSUPPORTED and v.reason is Reason.UNSUPPORTED


def test_invalid_weights():
    with pytest.raises(InvalidInput):
        classify(F(1, 4), (0, 2), ("1/2", "1/4", "1/4"))
    with pytest.raises(InvalidInput):
        classify(F(1, 4), (0, 2), ("1/3", "1/3", "1/3"))


@pytest.mark.parametrize(
    "rho,expected",
    [
        (F(1, 2), True),
        (F(1, 4), True),
        (F(3, 4), True),
        (F(1, 3), False),
        (F(2, 5), False),
        (ContractionRatio.root(1, 2, 2), True),
        (ContractionRatio.root(2, 3, 3), False),
    ],
)
def test_hu_lau_criterion(rho, expected):
    assert hu_lau_infinite_bizero(rho) is expected


def test_scale_invariance():
    rng = random.Random(17)
    base_cases = [(0, 1, 8, 9), (0, 1, 4, 5), (0, 1, 2), (0, 2), (0, 1, 2, 5)]
    for digits in base_cases:
        ref = classify(F(1, 4), digits)
        for _ in range(10):
            c = F(rng.randint(1, 9), rng.randint(1, 9))
            v = classify(F(1, 4), tuple(c * d for d in digits))
            assert (v.outcome, v.reason) == (ref.outcome, ref.reason)


def test_exhaustive_mini_scan_no_panics():
    for rest in itertools.combinations(range(1, 9), 3):
        if math.gcd(*rest) != 1:
            continue
        for n in range(2, 7):
            v = classify(F(1, n), (0, *rest))
            assert v.outcome in (Outcome.SPECTRAL, Outcome.NON_SPECTRAL)
            if v.outcome is Outcome.SPECTRAL:
                assert verify_product_form(v.certificate)
                assert not zero_set(v.normalized).is_empty
                assert n % 2 == 0


def test_verdict_json_shape():
    v = classify(F(1, 4), (0, 1, 8, 9))
    blob = v.to_json()
    assert blob["outcome"] == "Spectral"
    assert blob["reason"] == "OK"
    assert blob["normalized"] == {"scale": "1", "integers": [0, 1, 8, 9]}
    cert = blob["certificate"]
    assert cert["kind"] == "product-form"
    assert cert["B"] == {"0": [0, 2], "1": [0, 2]}
    assert cert["verified"] is True
    assert all(c in CITATIONS.values() for c in blob["citations"])


def test_explain_output():
    v = classify(F(1, 4), (0, 1, 8, 9))
    text = explain(v)
    assert "Spectral" in text and "beta=2" in text and "L2=[0, 1]" in text
    v = classify(F(1, 4), (0, 1, 2, 5))
    assert "TDistinct" in explain(v)
    v = classify(F(1, 4), (0, 1, 3, 5, 6))
    assert "Unsupported" in explain(v)


# ------------------------------------------------- digit facts and the rule in N


def _same_verdict(rho, digits, facts, weights=None):
    fresh = classify(rho, digits, weights)
    reused = classify(rho, facts, weights)
    assert reused.to_json() == fresh.to_json(), (rho, digits, weights)
    assert explain(reused) == explain(fresh), (rho, digits, weights)


def test_digit_facts_reused_over_n_equal_fresh_classify():
    # One DigitFacts per digit set, reused for every N, against a fresh
    # classify of the digit tuple at each N.
    from ssmspec.cli import enumerate_digit_sets

    for card in (2, 3, 4):
        for digits in enumerate_digit_sets(card, 12):
            facts = digit_facts(digits)
            for n in range(2, 33):
                _same_verdict(F(1, n), digits, facts)


def test_four_digit_facts_agree_with_the_zero_set():
    # digit_facts reads a four-digit set's zeros off its shape; zero_set and
    # the parity rule (exactly two odd digits) are the other routes.
    from ssmspec.cli import enumerate_digit_sets

    for digits in enumerate_digit_sets(4, 20):
        facts = digit_facts(digits)
        assert (facts.settled is None) == (not zero_set(facts.normalized).is_empty), digits
        assert (facts.settled is None) == (sum(d % 2 for d in facts.normalized.integers) == 2), digits


@pytest.mark.parametrize(
    "rho,digits,weights",
    [
        (ContractionRatio.root(1, 2, 2), (0, 2), None),
        (ContractionRatio.root(1, 16, 2), (0, 1, 8, 9), None),
        (F(2, 5), (0, 1, 2), None),
        (F(3, 4), (0, 1, 8, 9), None),
        (F(1, 4), ("0", "1", "t", "1+t"), None),
        (F(1, 4), ("0", "1", "t"), None),
        (F(1, 4), ("0", "t"), None),
        (F(1, 6), ("0", "2t", "4t"), None),
        (F(1, 4), ("0", "1/2", "4", "9/2"), None),
        (F(1, 5), (0, 1, 2, 3, 4), None),
        (F(1, 5), (0, 1, 2, 3, 4), ("1/2", "1/8", "1/8", "1/8", "1/8")),
        (F(1, 4), (0,), None),
        (F(1, 4), (0, 1, 8, 9), ("1/10", "2/10", "3/10", "4/10")),
        (F(1, 4), (0, 1, 8, 9), ("1/4", "1/4", "1/4", "1/4")),
        (F(1, 6), (0, 1, 2), ("1/3", "1/3", "1/3")),
        (F(1, 4), (0, 2), ("1/3", "2/3")),
    ],
)
def test_digit_facts_equal_fresh_classify_on_special_inputs(rho, digits, weights):
    _same_verdict(rho, digits, digit_facts(digits), weights)
    for n in range(2, 9):
        _same_verdict(F(1, n), digits, digit_facts(digits), weights)


def test_digit_facts_record():
    facts = digit_facts((0, 1, 8, 9))
    assert facts.supported and facts.settled is None and facts.cardinality == 4
    assert facts.normalized.integers == (0, 1, 8, 9)
    assert (facts.shape.t1, facts.shape.t2) == (3, 3)
    assert digit_facts(facts) is facts
    assert digit_facts(iter([0, 1, 8, 9])) == digit_facts(tuple(map(as_digit, (0, 1, 8, 9)))) == facts
    no_zeros = digit_facts((0, 1, 2, 4))
    assert no_zeros.shape is None and no_zeros.settled == (Reason.EMPTY_ZERO_SET, ("parity", "empty-zero-set"))
    five = digit_facts((0, 1, 2, 3, 4))
    assert not five.supported and five.normalized is None and five.cardinality == 5
    assert five.digit_text == ("0", "1", "2", "3", "4")
    assert five.settled == (Reason.UNSUPPORTED, ("five-plus",))
    irrational = digit_facts(("0", "1", "t", "1+t"))
    assert isinstance(irrational.normalized, IrreducibleWitness)
    assert irrational.settled == (Reason.IRRATIONAL_DIGITS, ("irrational-digits",))
    assert digit_facts((0,)).settled == (Reason.OK, ("dirac",))
    assert digit_facts((0, 1, 4)).settled == (Reason.EMPTY_ZERO_SET, ("card3-residues", "empty-zero-set"))
    assert digit_facts((0, 1, 2)).settled is None and digit_facts((0, 1, 2)).shape is None


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 40), max_size=3, unique=True))
def test_digit_facts_agree_for_every_form_of_integer_digits(rest):
    digits = (0, *rest)
    facts = digit_facts(digits)
    assert facts.normalized.integers == tuple(sorted(d // (math.gcd(*digits) or 1) for d in digits))
    for form in (F, str, np.int64):
        assert digit_facts(tuple(map(form, digits))) == facts, form


def test_normalized_digits_stand_for_their_integers():
    # The scan hands digit_facts its enumerated integers as a NormalizedDigits
    # of scale 1; any record gives the facts of its integers, whatever its scale.
    from ssmspec.cli import enumerate_digit_sets

    sets = [(0,)] + [digits for card in (2, 3, 4) for digits in enumerate_digit_sets(card, 20)]
    for digits in sets:
        facts = digit_facts(digits)
        for scale in (Digit(1), Digit(F(1)), Digit(2), Digit(F(1, 3)), Digit(0, 1)):
            assert digit_facts(NormalizedDigits(scale, digits)) == facts, (scale, digits)
    assert digit_facts(NormalizedDigits(Digit(1), (0, 1, 8, 9))).normalized.to_json() == {"scale": "1", "integers": [0, 1, 8, 9]}
    assert digit_facts(NormalizedDigits(Digit(2), (0, 1, 8, 9))).normalized.to_json() == {"scale": "1", "integers": [0, 1, 8, 9]}
    five = NormalizedDigits(Digit(1), (0, 1, 2, 3, 4))
    assert digit_facts(five) == digit_facts((0, 1, 2, 3, 4)) and not digit_facts(five).supported
    for bad in ((0, 2, 4), (1, 2), (0, 3, 1)):
        with pytest.raises(InvalidInput):
            NormalizedDigits(Digit(1), bad)


def test_decide_reads_only_the_class_of_n():
    # The rule takes the class of N (_n_class: 2**beta for four digits, N mod
    # #D otherwise), and only a Spectral answer's certificate reads N itself;
    # the two give classify's reason, citations and certificate.
    from ssmspec.cli import enumerate_digit_sets

    spectral = 0
    for card in (2, 3, 4):
        for digits in enumerate_digit_sets(card, 12):
            facts = digit_facts(digits)
            for n in range(2, 257):
                reason, citations = _rule(facts, _n_class(n, card))
                certificate = _certificate(facts, n) if reason is Reason.OK else None
                v = classify(F(1, n), facts)
                assert (reason, citations, certificate) == (v.reason, v.citations, v.certificate), (digits, n)
                spectral += certificate is not None
    assert spectral > 0


@pytest.mark.parametrize("digit", [10**5000, F(1, 10**5000)], ids=["int", "fraction"])
def test_a_digit_past_the_int_to_text_limit_is_invalid_input(digit):
    with pytest.raises(InvalidInput, match="4300 digits"):
        classify(F(1, 4), (0, 1, digit))


_OVERLONG = "1/" + "1" * 5000  # its denominator passes Python's int-from-text limit
_TINY = F(1, 10**5000)


@pytest.mark.parametrize(
    "rho,weights",
    [(F(2, 10**5000 + 1), None), (_OVERLONG, None), (F(1, 4), ("1/2", _OVERLONG)), (F(1, 4), (F(1, 2) - _TINY, F(1, 2) + _TINY))],
    ids=["ratio", "ratio-text", "weight-text", "weights"],
)
def test_a_ratio_or_weight_past_the_int_to_text_limit_is_invalid_input(rho, weights):
    with pytest.raises(InvalidInput, match=r"Exceeds the limit \(4300 digits\)"):
        classify(rho, (0, 1), weights)


@pytest.mark.parametrize(
    "digits,weights,message",
    [
        ((0, 1), (), "empty weight vector"),
        ((0, 1), (1, 0), "weights must be positive"),
        ((0, 1), (F(3, 2), F(-1, 2)), "weights must be positive"),
        ((0, 1), ("1/2", "1/3"), "weights must sum to 1"),
        ((0, 1), ("x", "1"), "malformed rational: 'x'"),
        ((0, 1), (0.5, 0.5), "not a rational value: 0.5"),
        ((0, 1), ("1/0", "1"), "zero denominator: '1/0'"),
        # Malformed weights are refused before their count is compared.
        ((0, 1), (1, 0, 0), "weights must be positive"),
        ((0, 1), ("1/2", "1/3", "1/7"), "weights must sum to 1"),
        ((0, 1), ("1/3", "1/3", "1/3"), "weight count must match digit count"),
        ((0, 1, 2, 3, 4), ("1/2", "1/2"), "weight count must match digit count"),
    ],
)
def test_weights_are_refused_in_order(digits, weights, message):
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        classify(F(1, 4), digits, weights)


def test_certificate_bound_follows_a_lower_int_to_text_limit():
    # m**2 has 1,198 digits: printable by default, refused under a limit of 640.
    import sys

    m = int("1" * 599)
    digits = (0, 1, 32, 33)  # t = 5 = 2*beta + 1 at N = 4m, so k = 2
    assert max(classify(F(1, 4 * m), digits).certificate.reconstruct_digits()) > 10**640
    default = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        with pytest.raises(Unsupported, match="more than 640 decimal digits"):
            classify(F(1, 4 * m), digits)
        assert classify(F(1, 4), digits).certificate.verify()
        sys.set_int_max_str_digits(0)  # no limit: the fixed bound holds
        with pytest.raises(Unsupported, match=f"more than {MAX_CERTIFICATE_DIGITS} decimal digits"):
            classify(F(1, 4 * int("1" * 2200)), digits)
    finally:
        sys.set_int_max_str_digits(default)


def test_digit_facts_keep_refusals():
    facts = digit_facts((0, 2))
    with pytest.raises(InvalidInput):
        classify(F(1, 4), facts, ("1/2", "1/4", "1/4"))
    with pytest.raises(InvalidInput):
        digit_facts((0, 1, 1))
    with pytest.raises(InvalidInput):
        digit_facts((1, 2))
    # a malformed set is invalid whatever its size, not Unsupported
    for digits in ((0, 1, 1, 2, 3), (1, 2, 3, 4, 5)):
        with pytest.raises(InvalidInput):
            classify(F(1, 4), digits)


def test_five_digits_read_their_weights():
    five = (0, 1, 2, 3, 4)
    v = classify(F(1, 5), five, ("1/2", "1/8", "1/8", "1/8", "1/8"))
    assert v.reason is Reason.UNSUPPORTED
    assert v.to_json()["input"]["weights"] == ["1/2", "1/8", "1/8", "1/8", "1/8"]
    assert "weights = 1/2, 1/8, 1/8, 1/8, 1/8" in explain(v)
    with pytest.raises(InvalidInput, match="weight count"):
        classify(F(1, 5), five, ("1/2", "1/2"))


# ------------------------------------------------------- scale invariance


@st.composite
def scaled_digit_sets(draw):
    # a gcd-1 integer set {0, ...} of 2 to 4 digits, a rational c > 0, and N
    rest = draw(
        st.lists(st.integers(1, 60), min_size=1, max_size=3, unique=True).filter(
            lambda r: math.gcd(*r) == 1
        )
    )
    c = F(draw(st.integers(1, 60)), draw(st.integers(1, 60)))
    return (0, *sorted(rest)), c, draw(st.integers(2, 64))


def _certificate_json(v):
    return None if v.certificate is None else v.certificate.to_json()


@settings(max_examples=300, deadline=None)
@given(scaled_digit_sets())
def test_classification_is_invariant_under_scaling_the_digits(case):
    digits, c, n = case
    base = classify(F(1, n), digits)
    scaled = classify(F(1, n), tuple(c * d for d in digits))
    assert (scaled.outcome, scaled.reason) == (base.outcome, base.reason)
    assert scaled.normalized.integers == base.normalized.integers
    assert _certificate_json(scaled) == _certificate_json(base)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 199), st.integers(1, 2**64))
def test_one_measure_two_ifss_one_verdict(n, d):
    # mu_{1/N, {0, d}} is also mu_{1/N**2, {0, d} + N*{0, d}}: two steps of the
    # first IFS are one step of the second, so the four-digit rule must give
    # the two-digit verdict.
    two = classify(F(1, n), (0, d))
    four = classify(F(1, n * n), (0, d, n * d, (n + 1) * d))
    assert (four.outcome, four.reason) == (two.outcome, two.reason)


def test_the_classify_module_is_reached_by_its_import_path():
    import ssmspec.classify as module

    assert isinstance(module, types.ModuleType) and module.__name__ == "ssmspec.classify"
    assert module.classify is classify


def test_a_patch_by_dotted_path_reaches_the_classify_module(monkeypatch):
    import ssmspec.classify as module

    calls = []
    original = module.normalize_digits

    def counting(dset):
        calls.append(dset)
        return original(dset)

    monkeypatch.setattr("ssmspec.classify.normalize_digits", counting)
    assert classify(F(1, 4), (0, 1, 8, 9)).outcome is Outcome.SPECTRAL
    assert calls == [tuple(map(as_digit, (0, 1, 8, 9)))]


def test_the_package_binds_only_its_layers_and_version():
    import ssmspec
    import ssmspec.cli  # noqa: F401  (imports every layer)

    layers = {"exact", "zeros", "hadamard", "classify", "spectra", "numerics", "cli"}
    public = {name for name in vars(ssmspec) if not name.startswith("_")}
    assert public == layers
    assert all(getattr(ssmspec, name).__name__ == f"ssmspec.{name}" for name in layers)
    assert ssmspec.__version__ == "0.1.0"


def test_only_records_that_check_their_fields_are_dataclasses():
    # A frozen dataclass earns its cost at import by validating or coercing
    # its fields in __post_init__; a record that only holds values is a
    # NamedTuple.  Dirac has no fields, and an empty NamedTuple is falsy.
    import ssmspec

    found = {}
    for info in pkgutil.iter_modules(ssmspec.__path__):
        module = importlib.import_module(f"ssmspec.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj):
                found[f"{info.name}.{name}"] = obj
    assert sorted(found) == [
        "classify.Dirac",
        "cli.ScanConfig",
        "exact.ContractionRatio",
        "exact.Digit",
        "exact.NormalizedDigits",
        "hadamard.HadamardTriple",
        "hadamard.ProductForm",
        "numerics.MuHatEvaluator",
        "zeros.ScaledResidues",
    ]
    assert [name for name, cls in found.items() if "__post_init__" not in vars(cls)] == ["classify.Dirac"]


@pytest.mark.parametrize(
    "record,text",
    [
        (
            IrreducibleWitness(Digit(1), Digit(0, 1)),
            "IrreducibleWitness(numerator=Digit(rational=1, tau_coeff=0), denominator=Digit(rational=0, tau_coeff=1))",
        ),
        (CyclotomicValue(2, (0,)), "CyclotomicValue(order=2, coefficients=(0,))"),
        (ZeroSet(()), "ZeroSet(parts=())"),
        (MuZeroTest(ZeroSet(()), 4, 1), "MuZeroTest(mask_zeros=ZeroSet(parts=()), n_ratio=4, den=1)"),
        (BiZeroReport(), "BiZeroReport(violating_pair=None)"),
        (DigitFacts(("0",)), "DigitFacts(digit_text=('0',), normalized=None, settled=None, shape=None)"),
        (
            Verdict(Reason.OK, ("dirac",), "1/2", ("0",), None),
            "Verdict(reason=<Reason.OK: 'OK'>, citations=('dirac',), rho_text='1/2', digit_text=('0',), "
            "weight_text=None, normalized=None, certificate=None)",
        ),
        (StructureDecomposition(1, 3, 1, 1, 2, 1), "StructureDecomposition(a=1, t=3, ell=1, ell_prime=1, beta=2, m=1)"),
    ],
)
def test_value_records_refuse_assignment_and_keep_their_repr(record, text):
    assert repr(record) == text
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


_ODD_BELOW_2_20 = st.integers(0, 2**19 - 1).map(lambda n: 2 * n + 1)


@st.composite
def four_digit_shapes(draw):
    """D = {0, a, 2**t * ell, a + 2**t * ell'} and N = 2**beta * m over the
    shape space of the four-digit theorem, far beyond what a scan reaches."""
    a, ell, ell_prime = draw(_ODD_BELOW_2_20), draw(_ODD_BELOW_2_20), draw(_ODD_BELOW_2_20)
    t, beta, m = draw(st.integers(1, 40)), draw(st.integers(1, 12)), 2 * draw(st.integers(0, 499)) + 1
    return (0, a, ell << t, a + (ell_prime << t)), t, beta, m


@settings(max_examples=300, deadline=None)
@given(four_digit_shapes())
def test_four_digit_theorem_over_the_shape_space(case):
    digits, t, beta, m = case
    v = classify(F(1, m << beta), digits)
    assert (v.outcome is Outcome.SPECTRAL) == (t % beta != 0)
    if v.outcome is Outcome.SPECTRAL:
        g = math.gcd(*digits)  # odd, as a is: normalization divides it out and keeps t
        dec = v.certificate.decomposition
        assert dec == (digits[1] // g, t, (digits[2] >> t) // g, ((digits[3] - digits[1]) >> t) // g, beta, m)
        assert (dec.k, dec.r) == divmod(t, beta) and v.certificate.verify()
        keys = ("a", "t", "ell", "ell_prime", "beta", "m", "k", "r")
        assert list(v.to_json()["certificate"]["decomposition"].items()) == list(zip(keys, (*dec, *divmod(t, beta))))
    else:
        assert v.reason is Reason.T_DIVISIBLE_BY_BETA
    assert json.loads(json.dumps(v.to_json()))["outcome"] == v.outcome.value
    assert explain(v).endswith(v.certificate.describe() if v.certificate else f"({v.reason.value})")


@st.composite
def shapes_at_the_certificate_bound(draw):
    """Spectral shapes {0, a, 2**t, a + 2**t} at N = 2**beta * m with a*m**k
    within a few multiples of m**k of 10**MAX_CERTIFICATE_DIGITS, either side."""
    m, beta = 2 * draw(st.integers(1, 499)) + 1, draw(st.integers(2, 12))
    k, r = draw(st.integers(1, 30)), draw(st.integers(1, beta - 1))
    a = (10**MAX_CERTIFICATE_DIGITS // m**k + draw(st.integers(-3, 3))) | 1
    t = beta * k + r
    return (0, a, 1 << t, a + (1 << t)), m << beta, a * m**k + ((m << beta) << r)


@settings(max_examples=60, deadline=None)
@given(shapes_at_the_certificate_bound())
@example(((0, 1, 8, 9), 4, 1 + (4 << 1)))
def test_a_certificate_is_built_exactly_when_its_digits_can_print(case):
    # The largest digit of the product form is a*m**k + N * 2**r.
    digits, n_ratio, largest = case
    if largest >= 10**MAX_CERTIFICATE_DIGITS:
        with pytest.raises(Unsupported, match=f"more than {MAX_CERTIFICATE_DIGITS} decimal digits"):
            classify(F(1, n_ratio), digits)
        return
    v = classify(F(1, n_ratio), digits)
    assert max(v.certificate.reconstruct_digits()) == largest
    assert json.loads(json.dumps(v.to_json()))["certificate"]["verified"] is True


def test_an_unprintable_certificate_is_refused_before_m_to_the_k():
    # m of 2,000 digits and t = 14,001: m**7000 would take minutes to build.
    m = int("1" * 2000)
    start = time.perf_counter()
    with pytest.raises(Unsupported, match=str(MAX_CERTIFICATE_DIGITS)):
        classify(F(1, 4 * m), (0, 1, 1 << 14001, (1 << 14001) + 1))
    assert time.perf_counter() - start < 0.1
