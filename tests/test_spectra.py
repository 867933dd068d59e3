import itertools
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssmspec.cli import main
from ssmspec.exact import InvalidInput, as_digit
from ssmspec.hadamard import HadamardTriple, find_spectrum_set
from ssmspec.spectra import (
    MAX_GREEDY_BOUND,
    MAX_GREEDY_WORK,
    MAX_TRUNCATION_POINTS,
    dj_example_spectrum,
    greedy_bizero,
    is_bizero_set,
    spectrum_truncation,
)
from ssmspec.zeros import mask_zero_set, mu_zero_member

JP = HadamardTriple(4, (0, 2), (0, 1))


def test_truncation_examples():
    assert spectrum_truncation(JP, 0) == (0,)
    assert spectrum_truncation(JP, 2) == (0, 1, 4, 5)
    assert spectrum_truncation(JP, 3) == (0, 1, 4, 5, 16, 17, 20, 21)


@st.composite
def verified_triples(draw):
    """A Hadamard triple on small digits: the least spectrum set, each point
    moved by its own multiple of N (which keeps the triple Hadamard)."""
    n_ratio = draw(st.integers(2, 12))
    digits = (0, *draw(st.lists(st.integers(1, 20), max_size=3, unique=True)))
    found = find_spectrum_set(n_ratio, digits)
    assume(found is not None)
    return HadamardTriple(n_ratio, digits, tuple(l + n_ratio * draw(st.integers(-3, 3)) for l in found))


@settings(max_examples=150, deadline=None)
@given(verified_triples(), st.integers(0, 4))
def test_verified_truncations_have_distinct_points(triple, level):
    assert triple.verify()
    points = spectrum_truncation(triple, level)
    assert len(set(points)) == len(points) == len(triple.spectrum) ** level


def test_truncation_matches_direct_enumeration():
    expected = sorted(
        l0 + 4 * l1 + 16 * l2
        for l0 in (0, 1)
        for l1 in (0, 1)
        for l2 in (0, 1)
    )
    assert list(spectrum_truncation(JP, 3)) == expected


def test_truncation_nesting():
    prev = spectrum_truncation(JP, 0)
    for n in range(1, 6):
        cur = spectrum_truncation(JP, n)
        assert set(prev) <= set(cur)
        assert len(cur) == 2**n
        prev = cur


def test_truncation_rejects_non_hadamard():
    with pytest.raises(InvalidInput):
        spectrum_truncation(HadamardTriple(4, (0, 2), (0, 2)), 2)


def test_truncation_size_cap():
    assert MAX_TRUNCATION_POINTS == 2**16
    assert len(spectrum_truncation(HadamardTriple(4, (0, 1, 2, 3), (0, 1, 2, 3)), 8)) == 2**16
    point = HadamardTriple(4, (0,), (1,))
    assert spectrum_truncation(point, 16) == ((4**16 - 1) // 3,)
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
        points = spectrum_truncation(ht, 3)
        assert is_bizero_set(points, d, n).is_bizero, (n, d, l)


def test_is_bizero_examples():
    assert is_bizero_set(spectrum_truncation(JP, 3), (0, 2), 4).is_bizero
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


def test_dj_spectrum_point_cap():
    assert len(dj_example_spectrum(16383)) == MAX_TRUNCATION_POINTS - 2
    with pytest.raises(InvalidInput, match="over the limit"):
        dj_example_spectrum(16384)  # 65,538 points


def test_dj_spectrum_differences_lie_in_zero_set():
    pts = dj_example_spectrum(2)
    for a, b in itertools.combinations(pts, 2):
        assert mu_zero_member((0, 1, 8, 9), 4, a - b)


def test_dj_spectrum_is_bizero():
    assert is_bizero_set(dj_example_spectrum(2), (0, 1, 8, 9), 4).is_bizero


# ------------------------------------------------- the integer pair scan


def _fraction_mu_zero_member(digits, n_ratio, xi):
    """Membership in the transform's zero set by dividing Fractions level by
    level; the oracle of the integer pair scan."""
    for part in mask_zero_set(digits).parts:
        value = xi / (part.scale * n_ratio)
        while abs(value) >= 1:
            if value.denominator == 1 and value.numerator % part.modulus in part.residues:
                return True
            value /= n_ratio
    return False


def _brute_first_violation(points, digits, n_ratio):
    pts = sorted(F(p) for p in points)
    for i, low in enumerate(pts):
        for high in pts[i + 1 :]:
            if not _fraction_mu_zero_member(digits, n_ratio, high - low):
                return high, low
    return None


def _brute_greedy(digits, n_ratio, bound, max_count):
    chosen = [F(0)]
    for mag in range(1, bound + 1):
        for cand in (F(mag), F(-mag)):
            if len(chosen) >= max_count:
                return sorted(chosen)
            if all(_fraction_mu_zero_member(digits, n_ratio, cand - y) for y in chosen):
                chosen.append(cand)
    return sorted(chosen)


_FIXED_DIGITS = [(0, 2), (0, 1, 2), (0, F(1, 2), F(3, 2)), (0, 1, 8, 9), (0, F(1, 3), F(8, 3), 3), (0, 3, 4, 7)]

digit_sets = st.one_of(
    st.sampled_from(_FIXED_DIGITS),
    st.lists(
        st.builds(F, st.integers(1, 12), st.sampled_from([1, 2, 3, 4])), min_size=1, max_size=3, unique=True
    ).map(lambda rest: (0, *sorted(rest))),
)
fractional_points = st.lists(
    st.builds(F, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 8])), min_size=1, max_size=7, unique=True
)


@st.composite
def bizero_cases(draw):
    """Digits, N and points with 0; half the time the points are multiples of
    one transform zero, so that many differences are zeros as well."""
    digits = draw(digit_sets)
    n_ratio = draw(st.integers(2, 8))
    parts = mask_zero_set(digits).parts
    if parts and draw(st.booleans()):
        unit = draw(st.sampled_from(parts)).scale * n_ratio ** draw(st.integers(1, 2))
        points = [unit * m for m in draw(st.lists(st.integers(-12, 12), min_size=1, max_size=8, unique=True))]
    else:
        points = draw(fractional_points)
    return digits, n_ratio, [F(0), *(p for p in points if p)]


@settings(max_examples=300, deadline=None)
@given(bizero_cases())
def test_is_bizero_set_matches_fraction_scan(case):
    digits, n_ratio, points = case
    report = is_bizero_set(points, digits, n_ratio)
    expected = _brute_first_violation(points, digits, n_ratio)
    assert report.is_bizero is (expected is None)
    assert report.violating_pair == expected


@settings(max_examples=150, deadline=None)
@given(digit_sets, st.integers(2, 8), st.integers(1, 30), st.integers(2, 12))
def test_greedy_bizero_matches_fraction_greedy(digits, n_ratio, bound, max_count):
    if mask_zero_set(digits).is_empty:
        with pytest.raises(InvalidInput):
            greedy_bizero(digits, n_ratio, bound, max_count)
    else:
        assert greedy_bizero(digits, n_ratio, bound, max_count) == _brute_greedy(digits, n_ratio, bound, max_count)


def test_level10_truncation_bizero_and_breaking_point():
    points = spectrum_truncation(JP, 10)
    assert len(points) == 1024
    assert is_bizero_set(points, (0, 2), 4).is_bizero
    # Z(mu_hat) for (4, {0,2}) holds the integers of even 2-adic valuation.
    # x - points[512] = 2 * 4**10 has odd valuation, while x - points[i] for
    # i < 512 has the even valuation of points[512] - points[i].
    x = 2 * 4**10 + points[512]
    report = is_bizero_set([*points, x], (0, 2), 4)
    assert not report.is_bizero
    assert report.violating_pair == (F(x), F(points[512]))


def test_bizero_refuses_bad_inputs_before_the_scan():
    for n_ratio in (1, 0, -4):
        with pytest.raises(InvalidInput, match="N must be >= 2"):
            is_bizero_set([0], (0, 2), n_ratio)
        with pytest.raises(InvalidInput, match="N must be >= 2"):
            greedy_bizero((0, 2), n_ratio, 10, 4)
    for text in ("0,t", "0,1,t"):  # irrational scale, irrational ratio
        # As text or as a parsed Digit, t is refused by name.
        for digits in (tuple(text.split(",")), _parsed(text)):
            with pytest.raises(InvalidInput, match="only classify accepts"):
                is_bizero_set([0], digits, 4)
            with pytest.raises(InvalidInput, match="only classify accepts"):
                greedy_bizero(digits, 4, 10, 4)


def _parsed(text):
    return tuple(map(as_digit, text.split(",")))


@pytest.mark.parametrize("text", ["0,t", "0,1,t"])
def test_a_digit_with_t_is_refused_before_normalization(capsys, text):
    # digit_values refuses t, so no irrational scale or ratio reaches normalize_digits.
    with pytest.raises(InvalidInput, match="only classify accepts"):
        mask_zero_set(_parsed(text))
    assert main(["zeros", text]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "invalid input: digit 1*t carries the symbolic t, which only classify accepts\n")


def test_greedy_caps():
    assert len(greedy_bizero((0, 1, 8, 9), 4, 2000, 200)) == 200
    assert greedy_bizero((0, 2), 4, 3, 10**9) == greedy_bizero((0, 2), 4, 3, 7)
    assert greedy_bizero((0, 2), 4, -10**6, 10**9) == [F(0)]
    for bound, count in ((MAX_GREEDY_BOUND + 1, 2), (MAX_GREEDY_BOUND, MAX_GREEDY_WORK // MAX_GREEDY_BOUND + 1), (MAX_GREEDY_BOUND, 2**17)):
        with pytest.raises(InvalidInput, match="exceeds the limits"):
            greedy_bizero((0, 2), 4, bound, count)


@pytest.mark.parametrize("spectrum", ["greedy:10000000000:4", "greedy:100000:1000"])
def test_huge_greedy_spectrum_exits_2(capsys, spectrum):
    code = main(["qdump", "--rho", "1/4", "--digits", "0,2", "--spectrum", spectrum])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "exceeds the limits" in captured.err


def test_is_bizero_set_refuses_float_points():
    with pytest.raises(InvalidInput, match="not a rational value"):
        is_bizero_set([0, 0.1], (0, 2), 4)
    with pytest.raises(InvalidInput):
        is_bizero_set([0, 1.0], (0, 2), 4)
    assert is_bizero_set([0, "1/4", F(1, 2)], (0, 1, 8, 9), 4) == is_bizero_set([0, F(1, 4), F(1, 2)], (0, 1, 8, 9), 4)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: spectrum_truncation(HadamardTriple(4, (0, 2), (0, 1)), -1), InvalidInput, "level must be >= 0"),
        (lambda: is_bizero_set([0, 1, F(1)], (0, 2), 4), InvalidInput, "points must be distinct"),
        (lambda: greedy_bizero((0, 2), 4, 10, 0), InvalidInput, "max_count must be >= 1"),
        (lambda: dj_example_spectrum(-1), InvalidInput, "n must be >= 0"),
    ],
    ids=["truncation-level", "bizero-points", "greedy-count", "dj-n"],
)
def test_each_refusal_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
