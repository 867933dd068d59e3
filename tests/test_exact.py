import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from ssmspec.exact import (
    ContractionRatio,
    Digit,
    InvalidInput,
    IrreducibleWitness,
    NormalizedDigits,
    Unsupported,
    as_digit,
    as_fraction,
    as_n_ratio,
    digit_values,
    integer_digits,
    normalize_digits,
    parse_digit,
    parse_rational,
    val2,
    weight_values,
)
from ssmspec.hadamard import HadamardTriple, ProductForm, find_spectrum_set, is_hadamard_triple, tiles_zn
from ssmspec.numerics import MuHatEvaluator, unitarity_defect
from ssmspec.spectra import greedy_bizero, is_bizero_set
from ssmspec.zeros import mu_zero_member, mu_zero_test


def test_normalize_rational_example():
    out = normalize_digits([F(0), F(1, 4), F(2), F(9, 4)])
    assert out.scale == Digit(F(1, 4))
    assert out.integers == (0, 1, 8, 9)


def test_normalize_single_rescale():
    out = normalize_digits([0, 5])
    assert out.scale == Digit(F(5))
    assert out.integers == (0, 1)


def test_normalize_tau_witness():
    out = normalize_digits(["0", "1", "t", "1+t"])
    assert isinstance(out, IrreducibleWitness)
    assert {out.numerator, out.denominator} == {Digit(F(1)), Digit(F(0), F(1))}


def test_normalize_tau_proportional():
    out = normalize_digits(["0", "t", "2*t"])
    assert isinstance(out, NormalizedDigits)
    assert out.integers == (0, 1, 2)
    assert out.scale == Digit(F(0), F(1))


def test_normalize_tau_coefficients_stay_exact():
    # Integral t-coefficients divide as Fractions, never as floats, whether
    # they are parsed or given as ints.
    for digits in (["0", "2t", "6t"], (Digit(0), Digit(0, 2), Digit(0, 6))):
        out = normalize_digits(digits)
        assert out.integers == (0, 1, 3)
        assert [type(n) for n in out.integers] == [int, int, int]
        assert out.scale == Digit(0, 2) and type(out.scale.tau_coeff) is F


def test_integer_digits_stay_ints():
    assert [type(d.rational) for d in map(as_digit, [0, F(4, 2), np.int64(3)])] == [int, int, int]
    assert tuple(map(as_digit, [0, 1])) == tuple(map(as_digit, [F(0), "1"]))
    out = normalize_digits([0, 4, 6])
    assert out.integers == (0, 2, 3) and out.scale == Digit(F(2)) and type(out.scale.rational) is F


def test_normalize_mixed_tau_rational_witness():
    out = normalize_digits(["0", "1/2", "3*t"])
    assert isinstance(out, IrreducibleWitness)


def test_normalize_idempotent_and_scale_invariant():
    rng = random.Random(7)
    for _ in range(200):
        card = rng.randint(1, 4)
        vals = {F(0)}
        while len(vals) < card:
            vals.add(F(rng.randint(1, 40), rng.randint(1, 12)))
        out = normalize_digits(sorted(vals))
        assert isinstance(out, NormalizedDigits)
        again = normalize_digits(out.integers)
        assert again.integers == out.integers
        assert again.scale == Digit(F(1))
        c = F(rng.randint(1, 9), rng.randint(1, 9))
        assert normalize_digits([v * c for v in sorted(vals)]).integers == out.integers


def test_digitset_validation():
    with pytest.raises(InvalidInput):
        normalize_digits([1, 2])  # no zero
    with pytest.raises(InvalidInput):
        normalize_digits([0, 1, 1])
    with pytest.raises(InvalidInput, match="duplicate"):
        normalize_digits((0, 1, F(1)))  # an int and a Fraction of one value
    with pytest.raises(InvalidInput, match="duplicate"):
        normalize_digits([0, 1, 1, 2, 3])  # malformed before it is too large
    with pytest.raises(InvalidInput, match="0 must be a digit"):
        normalize_digits([1, 2, 3, 4, 5])
    with pytest.raises(InvalidInput):
        normalize_digits([])
    with pytest.raises(Unsupported):
        normalize_digits([0, 1, 3, 5, 6])
    with pytest.raises(InvalidInput):
        normalize_digits([0, F(-1, 2)])


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
    assert weight_values(["1/4"] * 4) == (F(1, 4),) * 4
    assert weight_values(["1/2", "1/4", F(1, 4)]) == (F(1, 2), F(1, 4), F(1, 4))
    with pytest.raises(InvalidInput):
        weight_values(["1/2", "1/3"])
    with pytest.raises(InvalidInput):
        weight_values(["1", "0"])


def test_zero_denominators_are_refused():
    for text in ("1/0", "0/0", "-3/00"):
        for parse in (parse_rational, as_fraction, ContractionRatio.rational):
            with pytest.raises(InvalidInput, match="zero denominator"):
                parse(text)
    for text in ("1/0", "1/0*t", "1 + 2/0 t", "1/0 + t"):
        with pytest.raises(InvalidInput, match="zero denominator"):
            parse_digit(text)
    with pytest.raises(InvalidInput, match="zero denominator"):
        weight_values(["1/0", "1"])


def test_text_digits_keep_int_components():
    assert as_digit("2") == Digit(2) and type(as_digit("2").rational) is int
    two_t = parse_digit("2t")
    assert two_t.tau_coeff == 2 and type(two_t.tau_coeff) is int and type(two_t.rational) is int
    mixed = parse_digit("1/2 + 4/2*t")
    assert type(mixed.rational) is F and type(mixed.tau_coeff) is int
    assert [type(d.rational) for d in map(as_digit, ["0", "1"])] == [int, int]


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


def test_digit_rule_accepts_exact_rationals():
    assert digit_values((0, 1, 8, 9)) == (0, 1, 8, 9)
    assert digit_values([F(4, 2), "1/2", Digit(F(3)), -1]) == (2, F(1, 2), 3, -1)
    assert [type(v) for v in digit_values([F(4, 2), "1/2"])] == [int, F]
    assert integer_digits(tuple(map(as_digit, [0, 1]))) == (0, 1)
    assert [type(v) for v in integer_digits(np.arange(3))] == [int, int, int]
    assert integer_digits(normalize_digits([0, F(1, 4), 2])) == (0, 1, 8)


@pytest.mark.parametrize(
    "values",
    [(), (0, 1, 1), (0, F(2), "2"), (0, 2.0), (0, 2.7), (0, Digit(F(0), F(1))), (0, "t"), (0, None)],
)
def test_digit_rule_refusals(values):
    with pytest.raises(InvalidInput):
        digit_values(values)


def test_integer_digits_refuses_non_integers():
    for values in ((0, F(5, 2)), (0, "1/2"), (0, Digit(F(3, 2)))):
        with pytest.raises(InvalidInput, match="integer values required"):
            integer_digits(values)


# Every entry that takes the inverse ratio N, with the values it refuses;
# tiles_zn tiles Z_N, so N = 1 is its own to accept.
_N_ENTRIES = {
    "find_spectrum_set": lambda n: find_spectrum_set(n, (0, 2)),
    "is_hadamard_triple": lambda n: is_hadamard_triple(n, (0, 2), (0, 1)),
    "HadamardTriple": lambda n: HadamardTriple(n, (0, 2), (0, 1)),
    "ProductForm": lambda n: ProductForm(n, (0, 1), ((0, 2), (0, 2)), (0, 2), (0, 1)),
    "mu_zero_test": lambda n: mu_zero_test((0, 1), n)(5),
    "mu_zero_member": lambda n: mu_zero_member((0, 1), n, F(5, 2)),
    "is_bizero_set": lambda n: is_bizero_set([0, 1, 4], (0, 2), n),
    "greedy_bizero": lambda n: greedy_bizero((0, 1), n, 10, 3),
    "MuHatEvaluator": lambda n: MuHatEvaluator((0, 1), n),
    "unitarity_defect": lambda n: unitarity_defect(n, (0, 2), (0, 1)),
    "tiles_zn": lambda n: tiles_zn((0, 1), n),
}


@pytest.mark.parametrize("entry", sorted(_N_ENTRIES))
def test_n_is_an_integer_at_every_entry(entry):
    call = _N_ENTRIES[entry]
    for n in (0 if entry == "tiles_zn" else 1, 2.5, 4.0):
        with pytest.raises(InvalidInput, match="N must be"):
            call(n)
    assert call(np.int64(4)) == call(4)


def test_as_n_ratio_gives_an_int():
    assert type(as_n_ratio(np.int64(4))) is int and as_n_ratio(1, least=1) == 1
    for n in (F(4), "4"):
        with pytest.raises(InvalidInput, match="must be an integer"):
            as_n_ratio(n)
