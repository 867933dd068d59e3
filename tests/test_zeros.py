import itertools
import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
import sympy

from ssmspec.exact import DigitSet, InvalidInput, Unsupported, four_digit_shape, normalize_digits
from ssmspec.zeros import (
    ScaledResidues,
    VanishingCase,
    ZeroSet,
    cyclotomic_poly,
    mask_value,
    mask_zero_batch,
    mask_zero_set,
    mu_zero_member,
    odd_multiples,
    vanishing_case,
    zero_set,
    zero_set_member_batch,
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


# ------------------------------------------------------- exact mask values


def test_mask_eval_examples():
    assert mask_value(norm([0, 1, 2, 3]), F(1, 4)).is_zero
    assert mask_value((0, 2), F(1, 4)).is_zero
    v = mask_value(norm([0, 1, 2, 3]), F(0))
    assert not v.is_zero and v.coefficients == (4,)
    assert not mask_value(norm([0, 1, 2, 3]), F(1, 3)).is_zero


def test_mask_value_on_unreduced_is_exact():
    # large denominators take the direct-division path
    assert mask_value((0, 500), F(1, 1000)).is_zero
    assert not mask_value((0, 499), F(1, 1000)).is_zero


def test_mask_value_rejects_non_integer_digits():
    with pytest.raises(InvalidInput):
        mask_value((0, F(1, 2)), F(1, 4))


# ----------------------------------------------------------- vanishing case


def test_vanishing_case_examples():
    c = norm([0, 1, 2, 3])
    assert vanishing_case(c, F(1, 2)) is VanishingCase.CASE1
    assert vanishing_case(c, F(1, 4)) is VanishingCase.CASE2
    assert vanishing_case(c, F(1, 3)) is None
    with pytest.raises(InvalidInput):
        vanishing_case(norm([0, 1, 2]), F(1, 2))


def test_vanishing_case_iff_mask_zero():
    for rest in itertools.combinations(range(1, 9), 3):
        if math.gcd(*rest) != 1:
            continue
        c = norm([0, *rest])
        for q in range(1, 21):
            for p in range(1, 2 * q + 1):
                xi = F(p, q)
                assert (vanishing_case(c, xi) is not None) == mask_value(c, xi).is_zero


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
            brute = brute or mask_value(digits, xi / n**k).is_zero
            k += 1
        assert mu_zero_member(digits, n, xi) == brute, (digits, n, xi)


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
        ScaledResidues(F(-1, 2), 2, frozenset({1}))
    with pytest.raises(InvalidInput):
        ScaledResidues(F(1, 2), 2, frozenset({0}))
    with pytest.raises(InvalidInput):
        ScaledResidues(F(1, 2), 1, frozenset({0}))
