"""Tests of the benchmark's own oracles.

    python3 -m pytest perfbench/test_oracles.py -q

The zero test is checked against ssmspec's cyclotomic mask evaluation on
every p/q with q <= 200 and against 50-digit mpmath sums; the other oracles
against closed forms, brute force or the statements they encode.
"""

import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ssmspec.hadamard import find_spectrum_set  # noqa: E402
from ssmspec.zeros import mask_value, mu_zero_member  # noqa: E402

SAMPLED_DIGITS = [(0, 1), (0, 3), (0, 1, 2), (0, 2, 7), (0, 1, 8, 9), (0, 3, 5, 6), (0, 4, 9, 13), (0, 1, 2, 3)]


@pytest.mark.parametrize("digits", SAMPLED_DIGITS)
def test_mask_zero_test_matches_cyclotomic_reduction(digits):
    for q in range(1, 201):
        for p in range(q):
            if math.gcd(p, q) == 1:
                xi = Fraction(p, q)
                assert oracles.mask_vanishes(digits, xi) == mask_value(digits, xi).is_zero, (digits, xi)


def _mp_sum_vanishes(exponents, q) -> bool:
    with mpmath.workdps(50):
        total = mpmath.fsum(mpmath.expj(2 * mpmath.pi * e / mpmath.mpf(q)) for e in exponents)
        return abs(total) < mpmath.mpf(10) ** -40


def test_sum_zero_test_matches_mpmath_on_every_small_multiset():
    for q in range(1, 13):
        for k in range(1, 5):
            for exps in itertools.combinations_with_replacement(range(q), k):
                assert oracles.sum_vanishes(exps, q) == _mp_sum_vanishes(exps, q), (exps, q)


def test_sum_zero_test_matches_mpmath_on_sampled_large_moduli():
    rng = random.Random(7)
    for _ in range(400):
        q = rng.choice([rng.randrange(13, 5000), 6 * rng.randrange(3, 800)])
        k = rng.randrange(2, 5)
        exps = [rng.randrange(q) for _ in range(k)]
        if rng.random() < 0.5:  # plant a vanishing pattern
            e = rng.randrange(q)
            if k == 3 and q % 3 == 0:
                exps = [e, e + q // 3, e + 2 * q // 3]
            elif q % 2 == 0:
                exps = [e, e + q // 2] + ([exps[0], exps[0] + q // 2] if k == 4 else [])
        assert oracles.sum_vanishes(exps, q) == _mp_sum_vanishes(exps, q), (exps, q)


def test_sum_zero_test_refuses_five_terms():
    with pytest.raises(ValueError):
        oracles.sum_vanishes([0, 1, 2, 3, 4], 5)


@pytest.mark.parametrize("digits,n_ratio", [((0, 2), 4), ((0, 1, 8, 9), 4), ((0, 1, 2), 6), ((0, 3), 6), ((0, 1, 4, 5), 8)])
def test_transform_zero_membership_matches_factorwise_mpmath(digits, n_ratio):
    """A zero of the transform is a zero of one factor m(xi/N**k); check every
    factor with mpmath down to arguments far below the cut-off."""
    grid = [Fraction(p, q) for q in (1, 2, 3, 4, 8, 12) for p in range(-40, 41) if p and math.gcd(p, q) == 1]
    for xi in grid:
        with mpmath.workdps(50):
            smallest = min(
                abs(mpmath.fsum(mpmath.expj(-2 * mpmath.pi * d * mpmath.mpf(xi.numerator) / (xi.denominator * n_ratio**k)) for d in digits))
                for k in range(1, 12)
            )
        assert oracles.in_transform_zero_set(digits, n_ratio, xi) == (smallest < mpmath.mpf(10) ** -40), (digits, xi)
        assert oracles.in_transform_zero_set(digits, n_ratio, xi) == mu_zero_member(digits, n_ratio, xi)


def test_first_violating_pair_counts_pairs_in_sorted_scan():
    points = oracles.truncation(4, (0, 1), 3)  # bi-zero for D = {0, 2}
    assert oracles.first_violating_pair(points, (0, 2), 4) == (None, len(points) * (len(points) - 1) // 2)
    pair, decided = oracles.first_violating_pair(points + [2], (0, 2), 4)
    assert pair is not None and decided >= 1
    assert not oracles.in_transform_zero_set((0, 2), 4, pair[0] - pair[1])


def test_greedy_orthogonal_output_is_orthogonal_and_counts_pairs():
    points, decided = oracles.greedy_orthogonal((0, 1, 8, 9), 4, 30, 12)
    assert points[0] < 0 < points[-1] and Fraction(0) in points and len(points) == 12
    assert oracles.first_violating_pair(points, (0, 1, 8, 9), 4)[0] is None
    assert decided >= len(points) * (len(points) - 1) // 2


@pytest.mark.parametrize("n_ratio", [2, 4, 6, 8, 12, 16, 18, 24, 30, 48, 60, 64])
def test_lexicographic_spectrum_matches_program_on_small_n(n_ratio):
    for digits in SAMPLED_DIGITS + [(0, 5), (0, 2, 4), (0, 1, 6, 7)]:
        assert oracles.lexicographic_spectrum(n_ratio, digits) == find_spectrum_set(n_ratio, digits), digits


def test_found_spectra_are_unitary():
    for n_ratio, digits in [(720, (0, 1, 8, 9)), (1020, (0, 1, 2)), (514, (0, 3))]:
        spectrum = oracles.lexicographic_spectrum(n_ratio, digits)
        assert spectrum is not None and oracles.unitary_defect(n_ratio, digits, spectrum) < 1e-9


def test_card4_table_zero_set_rule_matches_mask_zeros():
    """Exactly two odd digits <=> the mask has a zero; a zero, when it exists,
    has denominator at most 2*max(D) (two antipodal pairs)."""
    for digits in oracles.gcd1_digit_sets(4, 12):
        has_zero = any(
            oracles.mask_vanishes(digits, Fraction(p, q)) for q in range(2, 2 * max(digits) + 1) for p in range(1, q)
        )
        assert has_zero == (oracles.card4_verdict(digits, 4)[1] != "EmptyZeroSet"), digits


def test_card4_table_on_known_cases():
    assert oracles.card4_verdict((0, 1, 8, 9), 4) == ("Spectral", "OK")  # Dutkay-Jorgensen
    assert oracles.card4_verdict((0, 1, 2, 3), 4) == ("Spectral", "OK")  # Lebesgue on [0, 1]
    assert oracles.card4_verdict((0, 1, 2, 3), 2) == ("NonSpectral", "TDivisibleByBeta")
    assert oracles.card4_verdict((0, 1, 2, 3), 5) == ("NonSpectral", "NOdd")
    assert oracles.card4_verdict((0, 1, 3, 5), 4) == ("NonSpectral", "EmptyZeroSet")
    assert oracles.card4_verdict((0, 1, 3, 4), 4) == ("NonSpectral", "TDistinct")


def test_gcd1_digit_sets_enumerates_combinations():
    expected = [(0, *c) for c in itertools.combinations(range(1, 16), 3) if math.gcd(*c) == 1]
    assert oracles.gcd1_digit_sets(4, 15) == expected


@pytest.mark.parametrize("xi", [Fraction(1, 3), Fraction(7, 2), Fraction(-25, 4), Fraction(1000001, 8)])
def test_mu_hat_product_matches_lebesgue_closed_form(xi):
    """{0, 1} at 1/2 and {0, 1, 2, 3} at 1/4 are both Lebesgue measure on
    [0, 1], whose transform is (1 - exp(-2 pi i xi)) / (2 pi i xi)."""
    with mpmath.workdps(60):
        x = mpmath.mpf(xi.numerator) / xi.denominator
        exact = complex((1 - mpmath.expj(-2 * mpmath.pi * x)) / (2j * mpmath.pi * x))
    for digits, n_ratio in (((0, 1), 2), ((0, 1, 2, 3), 4)):
        assert abs(oracles.mu_hat_mp(digits, n_ratio, xi) - exact) < 1e-15


def test_truncation_is_the_base_n_digit_expansion():
    assert oracles.truncation(4, (0, 1), 2) == [0, 1, 4, 5]
    assert oracles.truncation(6, (0, 2, 4), 2) == sorted(a + 6 * b for a in (0, 2, 4) for b in (0, 2, 4))


def test_benchmark_json_lists_the_metrics_the_run_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.PER_LAYER
    ]
    assert [m["name"] for m in bench["end_to_end"]] == ["items_per_s", "op_p50_ms", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
