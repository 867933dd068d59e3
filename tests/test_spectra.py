import itertools
from fractions import Fraction as F

import pytest

from ssmspec.exact import InvalidInput
from ssmspec.hadamard import HadamardTriple
from ssmspec.spectra import (
    MAX_TRUNCATION_POINTS,
    dj_example_spectrum,
    greedy_bizero,
    is_bizero_set,
    spectrum_truncation,
)
from ssmspec.zeros import mu_zero_member

JP = HadamardTriple(4, (0, 2), (0, 1))


def test_truncation_examples():
    assert spectrum_truncation(JP, 0).points == (0,)
    assert spectrum_truncation(JP, 2).points == (0, 1, 4, 5)
    assert spectrum_truncation(JP, 3).points == (0, 1, 4, 5, 16, 17, 20, 21)


def test_truncation_matches_direct_enumeration():
    expected = sorted(
        l0 + 4 * l1 + 16 * l2
        for l0 in (0, 1)
        for l1 in (0, 1)
        for l2 in (0, 1)
    )
    assert list(spectrum_truncation(JP, 3).points) == expected


def test_truncation_nesting():
    prev = spectrum_truncation(JP, 0).points
    for n in range(1, 6):
        cur = spectrum_truncation(JP, n).points
        assert set(prev) <= set(cur)
        assert len(cur) == 2**n
        prev = cur


def test_truncation_rejects_non_hadamard():
    with pytest.raises(InvalidInput):
        spectrum_truncation(HadamardTriple(4, (0, 2), (0, 2)), 2)


def test_truncation_size_cap():
    assert MAX_TRUNCATION_POINTS == 2**16
    assert len(spectrum_truncation(HadamardTriple(4, (0, 1, 2, 3), (0, 1, 2, 3)), 8).points) == 2**16
    point = HadamardTriple(4, (0,), (1,))
    assert spectrum_truncation(point, 16).points == ((4**16 - 1) // 3,)
    for triple, level in ((JP, 17), (HadamardTriple(6, (0, 1, 2), (0, 2, 4)), 10**9), (point, 17), (point, 10**9)):
        with pytest.raises(InvalidInput, match="exceeds the limit"):
            spectrum_truncation(triple, level)


def test_truncations_are_bizero_across_triples():
    cases = [
        (4, (0, 1), (0, 2)),
        (6, (0, 1, 2), (0, 2, 4)),
        (8, (0, 1, 2, 3), (0, 2, 4, 6)),
        (4, (0, 2), (0, 1)),
    ]
    for n, d, l in cases:
        ht = HadamardTriple(n, d, l)
        points = spectrum_truncation(ht, 3).points
        assert is_bizero_set(points, d, n).is_bizero, (n, d, l)


def test_is_bizero_examples():
    assert is_bizero_set(spectrum_truncation(JP, 3).points, (0, 2), 4).is_bizero
    report = is_bizero_set([0, 1, 2], (0, 2), 4)
    assert not report.is_bizero
    assert report.violating_pair == (F(2), F(0))
    assert is_bizero_set([0], (0, 2), 4).is_bizero
    with pytest.raises(InvalidInput):
        is_bizero_set([1, 2], (0, 2), 4)


def test_greedy_bizero_regression():
    got = greedy_bizero((0, 2), 4, 30, 8)
    assert got == [F(-15), F(-12), F(-3), F(0), F(1), F(4), F(13), F(16)]
    assert is_bizero_set(got, (0, 2), 4).is_bizero


def test_greedy_bizero_maximal_in_range():
    bound = 20
    got = greedy_bizero((0, 2), 4, bound, 10**6)
    values = set(got)
    for cand in range(-bound, bound + 1):
        if F(cand) in values:
            continue
        assert not all(
            mu_zero_member((0, 2), 4, F(cand) - y) for y in got if F(cand) != y
        ), f"{cand} could still be added"


def test_greedy_bizero_other_cases():
    got = greedy_bizero((0, 1, 2, 3), 4, 10, 4)
    assert len(got) >= 2
    assert is_bizero_set(got, (0, 1, 2, 3), 4).is_bizero
    with pytest.raises(InvalidInput):
        greedy_bizero((0, 1, 4), 4, 10, 4)  # empty zero set


def test_dj_spectrum_examples():
    assert dj_example_spectrum(0) == [F(0), F(1, 4)]
    assert dj_example_spectrum(1) == [F(-1), F(-3, 4), F(0), F(1, 4), F(1), F(5, 4)]
    assert len(dj_example_spectrum(2)) == 10


def test_dj_spectrum_differences_lie_in_zero_set():
    pts = dj_example_spectrum(2)
    for a, b in itertools.combinations(pts, 2):
        assert mu_zero_member((0, 1, 8, 9), 4, a - b)


def test_dj_spectrum_is_bizero():
    assert is_bizero_set(dj_example_spectrum(2), (0, 1, 8, 9), 4).is_bizero
