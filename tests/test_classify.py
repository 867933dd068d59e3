import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmspec.classify import (
    CITATIONS,
    Dirac,
    Outcome,
    Reason,
    classify,
    digit_facts,
    explain,
    hu_lau_infinite_bizero,
)
from ssmspec.exact import ContractionRatio, DigitSet, InvalidInput, WeightVector
from ssmspec.hadamard import verify_product_form
from ssmspec.zeros import zero_set


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
    assert v.witness is not None
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
        classify(F(1, 4), (0, 2), WeightVector.of(("1/3", "1/3", "1/3")))


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
        (F(1, 5), (0, 1, 2, 3, 4), ("1/2", "1/2")),  # weights unread for five digits
        (F(1, 4), (0,), None),
        (F(1, 4), (0, 1, 8, 9), ("1/10", "2/10", "3/10", "4/10")),
        (F(1, 4), (0, 1, 8, 9), ("1/4", "1/4", "1/4", "1/4")),
        (F(1, 6), (0, 1, 2), WeightVector.of(("1/3", "1/3", "1/3"))),
        (F(1, 4), (0, 2), ("1/3", "2/3")),
    ],
)
def test_digit_facts_equal_fresh_classify_on_special_inputs(rho, digits, weights):
    _same_verdict(rho, digits, digit_facts(digits), weights)
    for n in range(2, 9):
        _same_verdict(F(1, n), digits, digit_facts(digits), weights)


def test_digit_facts_record():
    facts = digit_facts((0, 1, 8, 9))
    assert facts.supported and facts.has_zeros and facts.witness is None
    assert facts.normalized.integers == (0, 1, 8, 9)
    assert (facts.shape.t1, facts.shape.t2) == (3, 3)
    assert digit_facts(facts) is facts
    assert digit_facts(DigitSet.of((0, 1, 8, 9))) == facts
    assert digit_facts((0, 1, 2, 4)).shape is None and not digit_facts((0, 1, 2, 4)).has_zeros
    five = digit_facts((0, 1, 2, 3, 4))
    assert not five.supported and five.normalized is None and five.witness is None
    assert five.digit_text == ("0", "1", "2", "3", "4")
    assert digit_facts(("0", "1", "t", "1+t")).witness is not None


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
