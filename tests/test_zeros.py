import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _random_gcd1_sets
from zero_oracles import mask_zero_batch, zero_set_member_batch

import ssmspec
from ssmspec.exact import DigitSet, InvalidInput, Unsupported, four_digit_shape, normalize_digits
from ssmspec.zeros import (
    ScaledResidues,
    ZeroSet,
    cyclotomic_poly,
    mask_value,
    _vanishes_at,
    mask_vanishes,
    mask_zero_set,
    mu_zero_member,
    mu_zero_test,
    odd_multiples,
    zero_set,
)


def norm(values):
    return normalize_digits(DigitSet.of(values))


# ----------------------------------------------------------- cyclotomics


def test_cyclotomic_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_against_sympy():
    x = sympy.symbols("x")
    for q in range(1, 81):
        ours = cyclotomic_poly(q)
        theirs = sympy.Poly(sympy.cyclotomic_poly(q, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs], q


def test_cyclotomic_order_bound(monkeypatch):
    # orders above the table range are refused before any division starts
    def no_work(num, den):
        raise AssertionError("polynomial division started")

    monkeypatch.setattr("ssmspec.zeros._poly_exact_div", no_work)
    for q in (513, 30030):
        with pytest.raises(Unsupported, match="orders up to 512, got"):
            cyclotomic_poly(q)
    monkeypatch.undo()
    assert cyclotomic_poly(512) == (1, *[0] * 255, 1)
    assert cyclotomic_poly.cache_info().currsize <= 512


# ------------------------------------------------------- exact mask values


def test_power_table_cache_stays_bounded():
    from ssmspec.hadamard import find_spectrum_set
    from ssmspec.zeros import POWER_TABLE_CACHE_SIZE, _power_table

    _power_table.cache_clear()
    for q in range(400, 513):
        mask_value((0, 1, 3, 5, 7), F(1, q))
        assert _power_table.cache_info().currsize <= POWER_TABLE_CACHE_SIZE
    # A five-digit search at the N with the most divisors builds each table once.
    _power_table.cache_clear()
    assert find_spectrum_set(360, (0, 1, 2, 3, 4)) == (0, 72, 144, 216, 288)
    moduli = {360 // math.gcd(delta, 360) for delta in range(1, 360)}
    assert _power_table.cache_info().misses == len(moduli) <= POWER_TABLE_CACHE_SIZE


def test_mask_eval_examples():
    assert mask_value(norm([0, 1, 2, 3]), F(1, 4)).is_zero
    assert mask_value((0, 2), F(1, 4)).is_zero
    v = mask_value(norm([0, 1, 2, 3]), F(0))
    assert not v.is_zero and v.coefficients == (4,)
    assert not mask_value(norm([0, 1, 2, 3]), F(1, 3)).is_zero


def test_mask_value_on_unreduced_is_exact():
    # denominators above 512 are decided by the pairing rule alone
    assert mask_vanishes((0, 500), F(1, 1000))
    assert not mask_vanishes((0, 499), F(1, 1000))
    with pytest.raises(Unsupported):
        mask_value((0, 500), F(1, 1000))


def test_mask_value_coefficients_against_sympy():
    # The summed power-table rows are the remainder of sum x**((-d*p) mod q) by Phi_q.
    x = sympy.symbols("x")
    rng = random.Random(5)
    for q in (1, 2, 5, 12, 30, 105, 210, 512):
        for _ in range(3):
            digits = rng.sample(range(-50, 200), rng.randint(1, 7))
            xi = F(rng.randint(-3 * q, 3 * q), q)
            p, order = xi.numerator, xi.denominator
            rem = sympy.rem(sum(x ** ((-d * p) % order) for d in digits), sympy.cyclotomic_poly(order, x), x)
            want = [int(c) for c in sympy.Poly(rem, x).all_coeffs()[::-1]]
            got = list(mask_value(digits, xi).coefficients)
            assert got[: len(want)] == want and not any(got[len(want) :]), (digits, xi)


def test_mask_value_refuses_large_denominators():
    assert mask_value((0, 1), F(1, 512)).order == 512
    for q in (513, 1000, 30030):
        with pytest.raises(Unsupported):
            mask_value((0, 1, 8, 9), F(1, q))


# ------------------------------------------------------------ pairing rule


@st.composite
def digits_and_point(draw, min_size=2, max_size=4, max_q=512):
    """2-4 distinct integer digits and p/q; digits are drawn as residues plus
    multiples of q, so that congruent digits (repeated exponents) occur."""
    q = draw(st.one_of(st.integers(1, max_q), st.sampled_from([2, 4, 6, 12, 30, 60, 210, 420, 510])))
    p = draw(st.integers(-10 * q, 10 * q))
    size = draw(st.integers(min_size, max_size))
    residues = draw(st.lists(st.integers(0, q - 1), min_size=size, max_size=size))
    digits = sorted({r + q * draw(st.integers(-3, 3)) for r in residues})
    return digits, F(p, q)


@settings(max_examples=400, deadline=None)
@given(digits_and_point())
def test_pairing_rule_matches_cyclotomic_oracle(case):
    digits, xi = case
    assert mask_vanishes(digits, xi) == mask_value(digits, xi).is_zero


def test_pairing_rule_on_unreduced_points():
    for digits in [(0, 1), (0, 1, 2), (0, 1, 8, 9), (0, 3, 4, 7)]:
        for q in range(1, 61):
            for p in range(-q, 2 * q):
                for k in (1, 2, 3):
                    assert _vanishes_at(digits, k * p, k * q) == mask_vanishes(digits, F(p, q))


def _mp_mask_abs(digits, xi):
    with mpmath.workdps(50):
        terms = (mpmath.expj(-2 * mpmath.pi * d * xi.numerator / mpmath.mpf(xi.denominator)) for d in digits)
        return abs(mpmath.fsum(terms))


def test_pairing_rule_above_the_cyclotomic_range():
    q = 30030
    cases = [((0, 1, 8, 9), False), ((0, 15015), True), ((0, 10010, 20020), True)]
    for digits, coprime_zero in cases:
        for p in (1, 17, 29999, -1, 15015, 10010, 3003, 2):
            xi = F(p, q)
            size = _mp_mask_abs(digits, xi)
            assert size < 1e-30 or size > 1e-3
            assert mask_vanishes(digits, xi) == (size < 1e-30), (digits, p)
            if math.gcd(p, q) == 1:
                assert mask_vanishes(digits, xi) == coprime_zero
    start = time.perf_counter()
    for _ in range(1000):
        mask_vanishes((0, 1, 8, 9), F(1, q))
    assert time.perf_counter() - start < 1.0  # under 1 ms per test


@st.composite
def large_numerator_cases(draw):
    """A gcd-1 integer set {0, ...} of 2 to 4 digits and p/q with q <= 512 and
    p = +-(2**k + s), 60 <= k <= 80, |s| <= 50: numerators beyond int64.  The
    sampled q, small powers of 2 and 3, put p/q in a zero set often."""
    rest = draw(st.lists(st.integers(1, 60), min_size=1, max_size=3, unique=True))
    g = math.gcd(*rest)
    q = draw(st.one_of(st.integers(1, 512), st.sampled_from([2, 3, 4, 6, 8, 12, 16, 32, 64, 128, 256, 512])))
    p = draw(st.sampled_from([1, -1])) * (2 ** draw(st.integers(60, 80)) + draw(st.integers(-50, 50)))
    return (0, *sorted(r // g for r in rest)), F(p, q)


@settings(max_examples=300, deadline=None)
@given(large_numerator_cases())
def test_scalar_routes_agree_at_large_numerators(case):
    digits, xi = case
    vanishes = mask_vanishes(digits, xi)
    assert zero_set(norm(digits)).member(xi) == vanishes
    assert mask_value(digits, xi).is_zero == vanishes


def test_three_routes_agree_on_criterion_4_grid():
    # one period (p in 1..q) of acceptance criterion 4's grid: the symbolic
    # families, the Phi_q table and the pairing rule agree point by point
    rng = random.Random(41)
    corpora = [_random_gcd1_sets(rng, 50, 4, 30), _random_gcd1_sets(rng, 20, 3, 30), [(0, 1)]]
    for corpus in corpora:
        for digits in corpus:
            nd = norm(digits)
            zs = zero_set(nd)
            for q in range(1, 201):
                ps = np.arange(1, q + 1)
                symbolic = zero_set_member_batch(zs, q, ps)
                cyclotomic = mask_zero_batch(nd.integers, q, ps)
                rule = np.array([mask_vanishes(nd.integers, F(p, q)) for p in range(1, q + 1)])
                assert np.array_equal(symbolic, cyclotomic) and np.array_equal(rule, cyclotomic), (digits, q)


def test_mask_value_rejects_non_integer_digits():
    with pytest.raises(InvalidInput):
        mask_value((0, F(1, 2)), F(1, 4))


def test_digit_objects_answer_like_ints():
    digits = DigitSet.of([0, 1, 8, 9]).digits
    for xi in (F(1, 2), F(1, 16), F(1, 3), F(3, 32)):
        assert mask_vanishes(digits, xi) == mask_vanishes((0, 1, 8, 9), xi)
        assert mask_value(digits, xi) == mask_value((0, 1, 8, 9), xi)
    assert mask_vanishes(DigitSet.of([0, 1]).digits, F(1, 2))


def test_symbolic_digits_are_refused():
    t = DigitSet.of([0, "t"]).digits
    for call in (
        lambda: mask_vanishes(t, F(1, 2)),
        lambda: mask_value(t, F(1, 2)),
        lambda: mask_zero_batch(t, 2, np.array([1])),
        lambda: mask_zero_set(t),
        lambda: mu_zero_member(t, 4, F(1, 2)),
    ):
        with pytest.raises(InvalidInput, match="symbolic t"):
            call()


# ---------------------------------------------------------------- zero sets


def parts_of(values):
    return tuple((p.scale, p.modulus, tuple(sorted(p.residues))) for p in zero_set(norm(values)).parts)


def test_zero_set_card4_examples():
    assert parts_of([0, 1, 2, 3]) == ((F(1, 2), 2, (1,)), (F(1, 4), 2, (1,)))
    assert parts_of([0, 1, 8, 9]) == ((F(1, 2), 2, (1,)), (F(1, 16), 2, (1,)))
    assert parts_of([0, 1, 2, 4]) == ()  # one odd digit only


def test_zero_set_card4_absorbed_part():
    # p1 = gcd(3, 3) = 3 absorbs the coarser 1/2 family
    assert parts_of([0, 2, 3, 5]) == ((F(1, 4), 2, (1,)), (F(1, 6), 2, (1,)))


def test_zero_set_small_cards():
    assert parts_of([0, 1]) == ((F(1, 2), 2, (1,)),)
    assert parts_of([0, 1, 2]) == ((F(1, 3), 3, (1, 2)),)
    assert parts_of([0, 1, 4]) == ()
    assert zero_set(norm([0])).is_empty


def test_zero_set_part_counts_match_valuations():
    rng = random.Random(3)
    for _ in range(200):
        rest = sorted(rng.sample(range(1, 40), 3))
        if math.gcd(*rest) != 1:
            continue
        nd = norm([0, *rest])
        odds = [d for d in rest if d % 2]
        raw_parts = []
        if len(odds) == 2:
            a, c = min(odds), max(odds)
            b = next(d for d in rest if d % 2 == 0)
            t1, t2 = (b & -b).bit_length() - 1, ((c - a) & -(c - a)).bit_length() - 1
            expected_raw = 3 if t1 == t2 else 2
            zs = zero_set(nd)
            assert not zs.is_empty
            assert len(zs.parts) <= expected_raw
        else:
            assert zero_set(nd).is_empty


def test_four_digit_shape_matches_zero_sets():
    for rest in itertools.combinations(range(1, 16), 3):
        if math.gcd(*rest) != 1:
            continue
        shape = four_digit_shape((0, *rest))
        assert (shape is not None) == (not zero_set(norm([0, *rest])).is_empty), rest
        if shape is not None:
            a, _, _, t1, ell1, t2, ell2 = shape
            assert ell1 % 2 == 1 and ell2 % 2 == 1
            assert {0, a, 2**t1 * ell1, a + 2**t2 * ell2} == {0, *rest}
    with pytest.raises(InvalidInput):
        four_digit_shape((0, 1, 2))


def test_zero_set_unsupported():
    from ssmspec.exact import Digit, NormalizedDigits

    five = NormalizedDigits(Digit(F(1)), (0, 1, 3, 5, 6))
    with pytest.raises(Unsupported):
        zero_set(five)


# --------------------------------------------------------------- membership


def test_zero_set_member_examples():
    half_odd = ZeroSet.of([odd_multiples(F(1, 2))])
    assert half_odd.member(F(3, 2))
    assert not half_odd.member(F(1))
    both = ZeroSet.of([odd_multiples(F(1, 16)), odd_multiples(F(1, 2))])
    assert both.member(F(5, 16))
    assert not both.member(F(0))


def test_mu_zero_member_examples():
    assert mu_zero_member((0, 2), 4, F(16))
    assert not mu_zero_member((0, 2), 4, F(1, 2))
    assert mu_zero_member((0, 1, 2, 3), 4, F(2))
    assert mu_zero_member((0, 2), 4, F(-1))  # symmetric
    with pytest.raises(InvalidInput):
        mu_zero_member((0, 2), 4, F(0))


def test_mu_zero_member_against_levelwise_masks():
    # independent route: xi is a zero of the transform iff some finite level
    # N**k * (mask zeros) captures it.  A vanishing mask forces a pairing
    # difference delta*eta into 1/2 + Z (or a*eta into 1/3 + Z for three
    # digits), so |eta| >= 1/(3*max(D)); that floor caps the level scan.
    rng = random.Random(23)
    for _ in range(300):
        digits = rng.choice([(0, 2), (0, 1, 2), (0, 1, 8, 9), (0, 3, 4, 7), (0, 1, 4, 5)])
        n = rng.choice([2, 3, 4, 6])
        xi = F(rng.randint(1, 32), rng.randint(1, 4)) * rng.choice([1, -1])
        floor = F(1, 3 * max(digits))
        brute = False
        k = 1
        while abs(xi) / n**k >= floor:
            brute = brute or mask_vanishes(digits, xi / n**k)
            k += 1
        assert mu_zero_member(digits, n, xi) == brute, (digits, n, xi)


def test_mu_zero_test_takes_points_in_any_terms():
    test = mu_zero_test((0, 1, 8, 9), 4, 12)
    for u in range(-100, 101):
        if u:
            assert test(u) == mu_zero_member((0, 1, 8, 9), 4, F(u, 12)), u
    assert mu_zero_test((0, 1, 4), 4).mask_zeros.is_empty
    with pytest.raises(InvalidInput):
        test(0)
    with pytest.raises(InvalidInput):
        mu_zero_test((0, 2), 1)
    with pytest.raises(InvalidInput):
        mu_zero_test((0, 2), 4, 0)


def test_mask_zero_set_rescales_to_input_units():
    zs = mask_zero_set((0, 2))
    assert tuple((p.scale, p.modulus) for p in zs.parts) == ((F(1, 4), 2),)
    zs2 = mask_zero_set((0, F(1, 2), F(3, 2)))  # alpha = 1/2, C = {0,1,3}: empty
    assert zs2.is_empty


def test_oracle_equivalence_small():
    rng = random.Random(11)
    picked = 0
    while picked < 12:
        rest = tuple(sorted(rng.sample(range(1, 13), 3)))
        if math.gcd(*rest) != 1:
            continue
        picked += 1
        nd = norm([0, *rest])
        zs = zero_set(nd)
        for q in range(1, 41):
            ps = np.arange(1, 4 * q + 1)
            lhs = mask_zero_batch(nd.integers, q, ps)
            rhs = zero_set_member_batch(zs, q, ps)
            assert np.array_equal(lhs, rhs), (rest, q)


def test_batch_routes_refuse_int64_overflow():
    nd = norm([0, 1, 2])
    zs = zero_set(nd)
    for p in (2**62 + 1, 2**62, -(2**62)):
        assert mask_value(nd, F(p, 3)).is_zero == zs.member(F(p, 3))
        with pytest.raises(InvalidInput):
            mask_zero_batch(nd.integers, 3, np.array([1, p]))
        with pytest.raises(InvalidInput):
            zero_set_member_batch(zs, 3, np.array([1, p]))
    with pytest.raises(InvalidInput):
        zero_set_member_batch(zs, 2**62, np.array([1]))
    ps = np.array([2**59 + 1, 2**59 + 3, -(2**59) - 2])
    expect = [mask_value(nd, F(int(p), 3)).is_zero for p in ps]
    assert list(mask_zero_batch(nd.integers, 3, ps)) == expect
    assert list(zero_set_member_batch(zs, 3, ps)) == expect


def test_scalar_batch_agreement():
    nd = norm([0, 3, 4, 7])
    zs = zero_set(nd)
    for q in (2, 5, 8, 12):
        ps = np.arange(1, 3 * q + 1)
        batch = mask_zero_batch(nd.integers, q, ps)
        for p, expect in zip(ps, batch):
            xi = F(int(p), q)
            assert mask_value(nd, xi).is_zero == bool(expect)
            assert zs.member(xi) == bool(expect)


# ------------------------------------------------------------ serialization


def test_zero_set_json():
    zs = mask_zero_set((0, 1, 8, 9))
    blob = json.loads(json.dumps(zs.to_json()))
    assert blob == [
        {"scale": "1/2", "modulus": 2, "residues": [1]},
        {"scale": "1/16", "modulus": 2, "residues": [1]},
    ]


def test_scaled_residues_validation():
    with pytest.raises(InvalidInput):
        ScaledResidues(F(-1, 2), 2)
    for modulus in (1, 4):
        with pytest.raises(InvalidInput):
            ScaledResidues(F(1, 2), modulus)


def test_scaled_residues_derive_the_nonzero_residues():
    odd, thirds = ScaledResidues(F(1, 2), 2), ScaledResidues(F(1, 3), 3)
    assert odd.residues == frozenset({1}) and thirds.residues == frozenset({1, 2})
    assert str(odd) == "1/2*odd" and str(thirds) == "1/3*(n % 3 in {1,2})"
    assert thirds.to_json() == {"scale": "1/3", "modulus": 3, "residues": [1, 2]}
    assert [thirds.member(F(n, 3)) for n in range(-3, 4)] == [False, True, True, False, True, True, False]
    assert thirds.contains_part(ScaledResidues(F(2, 3), 3)) and not thirds.contains_part(ScaledResidues(F(1, 1), 3))


def test_mask_vanishes_refuses_non_integer_digits():
    # The mask of {0, 5/2} vanishes at 1/5; the integer test must refuse it,
    # not answer for some other digit set.
    for digits in [(0, 2.5), (0, F(5, 2)), (0, 1.0)]:
        with pytest.raises(InvalidInput):
            mask_vanishes(digits, F(1, 5))
    assert mask_vanishes(norm([0, F(5, 2)]), F(1, 2))
    assert mask_vanishes((0, 5), F(1, 10))


def test_zero_set_cache_is_bounded():
    assert zero_set.cache_info().maxsize is not None


def test_the_exact_layers_import_no_numpy():
    # Only numerics computes in floating point; exact, zeros, hadamard,
    # classify and spectra decide in integers.  A fresh process shows it.
    code = "import ssmspec.classify, ssmspec.spectra, sys; assert 'numpy' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(Path(ssmspec.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
