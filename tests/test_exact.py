import math
import random
from fractions import Fraction as F

import pytest

from ssmspec.exact import (
    ContractionRatio,
    Digit,
    DigitSet,
    InvalidInput,
    IrreducibleWitness,
    NormalizedDigits,
    Unsupported,
    WeightVector,
    normalize_digits,
    parse_digit,
    parse_rational,
    val2,
)


def norm(values):
    return normalize_digits(DigitSet.of(values))


def test_normalize_rational_example():
    out = norm([F(0), F(1, 4), F(2), F(9, 4)])
    assert out.scale == Digit(F(1, 4))
    assert out.integers == (0, 1, 8, 9)


def test_normalize_single_rescale():
    out = norm([0, 5])
    assert out.scale == Digit(F(5))
    assert out.integers == (0, 1)


def test_normalize_tau_witness():
    out = norm(["0", "1", "t", "1+t"])
    assert isinstance(out, IrreducibleWitness)
    assert {out.numerator, out.denominator} == {Digit(F(1)), Digit(F(0), F(1))}


def test_normalize_tau_proportional():
    out = norm(["0", "t", "2*t"])
    assert isinstance(out, NormalizedDigits)
    assert out.integers == (0, 1, 2)
    assert out.scale == Digit(F(0), F(1))


def test_normalize_mixed_tau_rational_witness():
    out = norm(["0", "1/2", "3*t"])
    assert isinstance(out, IrreducibleWitness)


def test_normalize_idempotent_and_scale_invariant():
    rng = random.Random(7)
    for _ in range(200):
        card = rng.randint(1, 4)
        vals = {F(0)}
        while len(vals) < card:
            vals.add(F(rng.randint(1, 40), rng.randint(1, 12)))
        out = norm(sorted(vals))
        assert isinstance(out, NormalizedDigits)
        again = norm(out.integers)
        assert again.integers == out.integers
        assert again.scale == Digit(F(1))
        c = F(rng.randint(1, 9), rng.randint(1, 9))
        assert norm([v * c for v in sorted(vals)]).integers == out.integers


def test_digitset_validation():
    with pytest.raises(InvalidInput):
        DigitSet.of([1, 2])  # no zero
    with pytest.raises(InvalidInput):
        DigitSet.of([0, 1, 1])
    with pytest.raises(InvalidInput):
        DigitSet.of([])
    with pytest.raises(Unsupported):
        DigitSet.of([0, 1, 3, 5, 6])
    with pytest.raises(InvalidInput):
        DigitSet.of([0, F(-1, 2)])


@pytest.mark.parametrize("n,expected", [(8, (3, 1)), (12, (2, 3)), (7, (0, 7)), (1, (0, 1))])
def test_val2(n, expected):
    assert val2(n) == expected


def test_val2_reconstruction_and_errors():
    for n in range(1, 513):
        t, odd = val2(n)
        assert odd % 2 == 1 and (1 << t) * odd == n
        assert n % (1 << (t + 1)) != 0
    with pytest.raises(InvalidInput):
        val2(0)


@pytest.mark.parametrize("n,expected", [(4, (2, 1)), (12, (2, 3)), (9, (0, 9))])
def test_decompose_even(n, expected):
    # n = 2**t * odd, the split four_digit_shape takes of b and c - a
    assert val2(n) == expected


def test_contraction_ratio_canonicalization():
    assert ContractionRatio.root(1, 4, 2) == ContractionRatio.rational(F(1, 2))
    assert ContractionRatio.root(1, 8, 3) == ContractionRatio.rational(F(1, 2))
    assert ContractionRatio.root(4, 9, 2) == ContractionRatio.rational(F(2, 3))
    half_root = ContractionRatio.root(1, 2, 2)
    assert half_root.root_degree == 2 and not half_root.is_rational
    assert ContractionRatio.root(1, 16, 4) == ContractionRatio.rational(F(1, 2))
    assert ContractionRatio.root(1, 2**12, 6) == ContractionRatio.rational(F(1, 4))
    assert ContractionRatio.root(1, 4, 6) == ContractionRatio.root(1, 2, 3)


def test_contraction_ratio_roots_beyond_float_range():
    assert ContractionRatio(F(1, 9**60), 2) == ContractionRatio.rational(F(1, 3**60))
    assert ContractionRatio(F(1, 10**400), 2) == ContractionRatio.rational(F(1, 10**200))
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(2, 7)
        x = rng.randint(2, 10**rng.randint(1, 400 // k))
        y = rng.randint(1, x - 1)
        while math.gcd(x, y) != 1:
            y -= 1
        assert ContractionRatio(F(y**k, x**k), k) == ContractionRatio.rational(F(y, x))
        # x**k - 1 is never a perfect d-th power for d | k, d >= 2
        assert ContractionRatio(F(1, x**k - 1), k).root_degree == k


def test_contraction_ratio_validation_and_reciprocal():
    with pytest.raises(InvalidInput):
        ContractionRatio.rational(F(5, 4))
    with pytest.raises(InvalidInput):
        ContractionRatio.rational(F(0))
    assert ContractionRatio.rational(F(1, 6)).reciprocal_integer() == 6
    assert ContractionRatio.rational(F(2, 5)).reciprocal_integer() is None
    assert ContractionRatio.root(1, 2, 2).reciprocal_integer() is None


def test_weight_vector():
    assert WeightVector.uniform(4).is_uniform
    w = WeightVector.of(["1/2", "1/4", "1/4"])
    assert not w.is_uniform
    with pytest.raises(InvalidInput):
        WeightVector.of(["1/2", "1/3"])
    with pytest.raises(InvalidInput):
        WeightVector.of(["1", "0"])


def test_parsing_round_trips():
    assert parse_rational("9/4") == F(9, 4)
    assert parse_rational("3") == F(3)
    for text in ("1/4x", "", "1.5", "1/"):
        with pytest.raises(InvalidInput):
            parse_rational(text)
    assert parse_digit("1/2 + 3/4*t") == Digit(F(1, 2), F(3, 4))
    assert parse_digit("1/2+3/4 t") == Digit(F(1, 2), F(3, 4))
    assert parse_digit("t") == Digit(F(0), F(1))
    assert parse_digit("2t") == Digit(F(0), F(2))
    assert str(Digit(F(1, 2), F(3, 4))) == "1/2 + 3/4*t"
    assert str(Digit(F(0), F(2))) == "2*t"
    assert str(Digit(F(7, 3))) == "7/3"
    with pytest.raises(InvalidInput):
        parse_digit("q")
