from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmspec.exact import InvalidInput
from ssmspec.hadamard import HadamardTriple, is_hadamard_triple
from ssmspec.numerics import (
    MAX_GRAM_POINTS,
    MAX_Q_TERMS,
    MuHatEvaluator,
    check_q_terms,
    float_mask,
    gram_csv,
    gram_matrix,
    q_function,
    q_samples_csv,
    unitarity_defect,
)
from ssmspec.spectra import dj_example_spectrum, spectrum_truncation
from ssmspec.zeros import mu_zero_member

JP = HadamardTriple(4, (0, 2), (0, 1))


def mu_hat_reference(digits, n_ratio, xi, terms):
    """Independent high-precision product, 50 digits, for oracle checks."""
    mp.mp.dps = 50
    acc = mp.mpc(1)
    for k in range(1, terms + 1):
        eta = mp.mpf(xi) / mp.mpf(n_ratio) ** k
        acc *= sum(mp.e ** (-2j * mp.pi * d * eta) for d in digits) / len(digits)
    return complex(acc)


def test_mu_hat_at_zero_is_exactly_one():
    ev = MuHatEvaluator((0, 1, 8, 9), 4)
    assert ev.mu_hat(0.0) == 1.0 + 0.0j


def test_mu_hat_vanishes_at_mask_zero():
    ev = MuHatEvaluator((0, 2), 4)
    assert abs(ev.mu_hat(1.0)) <= ev.tolerance


def test_mu_hat_against_reference():
    ev = MuHatEvaluator((0, 1, 8, 9), 4, 1e-10)
    for xi in (0.5, 0.3, 2.75, 11.0):
        ref = mu_hat_reference((0, 1, 8, 9), 4, xi, ev.terms_needed(abs(xi)) + 20)
        assert abs(ev.mu_hat(xi) - ref) <= 1e-8


def test_exact_to_float_soundness():
    ev = MuHatEvaluator((0, 2), 4)
    for xi in (F(1, 4), F(1, 2) + 1, F(2), F(8), F(-3)):
        if mu_zero_member((0, 2), 4, xi):
            assert abs(ev.mu_hat(float(xi))) <= ev.tolerance


def test_tail_self_consistency():
    ev = MuHatEvaluator((0, 1, 8, 9), 4, 1e-10)
    fine = MuHatEvaluator((0, 1, 8, 9), 4, 1e-20)
    for xi in (0.7, 3.2, 40.0):
        assert fine.terms_needed(abs(xi)) > ev.terms_needed(abs(xi))
        assert abs(ev.mu_hat(xi) - fine.mu_hat(xi)) <= ev.tolerance


def test_mask_basics():
    d = (0.0, 1.0, 8.0, 9.0)
    assert float_mask(d, 0.0) == 1.0
    grid = np.linspace(-3, 3, 301)
    assert np.all(np.abs(float_mask(d, grid)) <= 1 + 1e-12)


def test_q_single_point_decays():
    ev = MuHatEvaluator((0, 2), 4)
    q = q_function(ev, [0], [0.0, 0.4])
    assert q[0] == pytest.approx(1.0, abs=1e-12)
    assert q[1] < 1.0


def test_q_bizero_bound_and_monotonicity():
    ev = MuHatEvaluator((0, 2), 4)
    grid = [j / 64 for j in range(64)]
    prev = None
    for level in (2, 3, 4):
        pts = spectrum_truncation(JP, level)
        vals = q_function(ev, pts, grid)
        assert vals.max() <= 1 + 10 * len(pts) * ev.tolerance
        if prev is not None:
            assert np.all(vals >= prev - 1e-12)
        prev = vals


def test_gram_identity_and_violations():
    ev = MuHatEvaluator((0, 2), 4)
    one = gram_matrix(ev, [0])
    assert one.shape == (1, 1) and one[0, 0] == 1.0 + 0.0j
    pts = spectrum_truncation(JP, 2)
    g = gram_matrix(ev, pts)
    assert np.all(np.diag(g) == 1.0)
    assert np.max(np.abs(g - np.eye(len(pts)))) <= 1e-8
    g2 = gram_matrix(ev, [F(0), F(1, 3)])
    assert abs(g2[0, 1]) > 0.1  # 1/3 is not a zero of the transform


def test_gram_point_cap():
    ev = MuHatEvaluator((0, 2), 4)
    assert MAX_GRAM_POINTS == 2048
    with pytest.raises(InvalidInput, match="exceeds the limit of 2048 points"):
        gram_matrix(ev, range(MAX_GRAM_POINTS + 1))


def test_points_beyond_the_float_range_are_refused(monkeypatch):
    ev = MuHatEvaluator((0, 2), 4)

    def no_work(*args, **kwargs):
        raise AssertionError("transform evaluated before the point check")

    monkeypatch.setattr(MuHatEvaluator, "mu_hat", no_work)
    monkeypatch.setattr(MuHatEvaluator, "power", no_work)
    for points in ([0, 10**400], [0, F(-(10**400), 3)]):
        with pytest.raises(InvalidInput, match="beyond the float range"):
            q_function(ev, points, [0.0, 0.5])
        with pytest.raises(InvalidInput, match="beyond the float range"):
            gram_matrix(ev, points)


def test_q_term_cap(monkeypatch):
    # the cap must refuse before any transform value is computed
    def no_work(self, xi):
        raise AssertionError("Q work started")

    monkeypatch.setattr(MuHatEvaluator, "mu_hat", no_work)
    monkeypatch.setattr(MuHatEvaluator, "power", no_work)
    ev = MuHatEvaluator((0, 2), 4)
    assert MAX_Q_TERMS == 4 * MAX_GRAM_POINTS**2 == 1 << 24
    check_q_terms(ev, 4096, 2048)  # exactly the budget
    with pytest.raises(InvalidInput, match="exceeds the limit of 16777216 mask terms"):
        q_function(ev, range(2049), [j / 4096 for j in range(4096)])


@pytest.mark.parametrize("digits,xi", [((-1, 1), 5.7), ((0, -1), 100.1), ((-3, 0, 1, 2), 100.1)])
def test_tail_bound_covers_negative_digits(digits, xi):
    # the tail bound needs mean(|d|); mean(d) <= 0 once certified a single factor
    ev = MuHatEvaluator(digits, 4)
    assert abs(ev.mu_hat(xi) - mu_hat_reference(digits, 4, xi, 80)) <= ev.tolerance


def test_tail_factor_count_is_unchanged_for_non_negative_digits():
    ev = MuHatEvaluator((0, 1, 8, 9), 4)
    assert [ev.terms_needed(x) for x in (0.5, 11.0, 1e6)] == [19, 21, 29]


def test_unitarity_matches_exact_checks():
    cases = [
        (4, (0, 1), (0, 2)),
        (4, (0, 2), (0, 2)),
        (4, (0, 1, 2, 3), (0, 1, 2, 3)),
        (6, (0, 1, 2), (0, 2, 4)),
        (6, (0, 1, 2), (0, 1, 2)),
        (8, (0, 1, 2, 3), (0, 2, 4, 6)),
    ]
    for n, d, l in cases:
        assert (unitarity_defect(n, d, l) < 1e-9) == is_hadamard_triple(n, d, l)


def test_evaluator_validation():
    with pytest.raises(InvalidInput):
        MuHatEvaluator((0, 2), 1)
    with pytest.raises(InvalidInput):
        MuHatEvaluator((0, 2), 4, tolerance=2.0)
    with pytest.raises(InvalidInput):
        MuHatEvaluator(("t",), 4)
    for digits in ((), (0, 2, 2), (0, 2.5)):
        with pytest.raises(InvalidInput):
            MuHatEvaluator(digits, 4)


def test_mu_hat_refuses_what_it_cannot_certify():
    ev = MuHatEvaluator((0, 2), 4)
    for xi in (1e300, float("inf"), float("nan"), [0.0, 1e300]):
        with pytest.raises(InvalidInput):
            ev.mu_hat(xi)
    assert np.isfinite(ev.mu_hat(1e200))  # N**K stays in float range here


def test_csv_formats():
    ev = MuHatEvaluator((0, 2), 4)
    grid = [0.0, 1 / 3]
    text = q_samples_csv(grid, q_function(ev, [0, 1], grid), 1)
    lines = text.strip().split("\n")
    assert lines[0] == "xi,q,level"
    assert lines[2].startswith("0.33333333333333331,")  # 17 significant digits
    g = gram_matrix(ev, [0, 1])
    gtext = gram_csv(g)
    glines = gtext.strip().split("\n")
    assert glines[0] == "i,j,re,im"
    assert glines[1] == "0,0,1,0"
    assert len(glines) == 5


def test_float_points_are_refused():
    ev = MuHatEvaluator((0, 2), 4)
    for points in ([0, 0.1], [0, 1.0]):
        with pytest.raises(InvalidInput, match="not a rational value"):
            q_function(ev, points, [0.0, 0.5])
        with pytest.raises(InvalidInput, match="not a rational value"):
            gram_matrix(ev, points)
    # Grid values stay floats.
    assert q_function(ev, [0, F(1, 4)], [0.0, 0.5]).shape == (2,)
    np.testing.assert_array_equal(gram_matrix(ev, [0, "1/4"]), gram_matrix(ev, [0, F(1, 4)]))


rational_digit_sets = st.lists(
    st.fractions(min_value=-12, max_value=12, max_denominator=6), min_size=1, max_size=4, unique=True
)


@settings(max_examples=200, deadline=None)
@given(rational_digit_sets, st.integers(2, 10), st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=8))
def test_power_is_the_squared_modulus_of_mu_hat(digits, n_ratio, xs):
    ev = MuHatEvaluator(digits, n_ratio)
    xs = np.asarray(xs)
    np.testing.assert_allclose(ev.power(xs), np.abs(ev.mu_hat(xs)) ** 2, rtol=0, atol=1e-9)
    assert ev.power(xs[0]) == pytest.approx(abs(ev.mu_hat(xs[0])) ** 2, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(rational_digit_sets, st.sampled_from([2, 3, 4, 6, 10]), st.floats(-100, 100))
def test_power_against_reference(digits, n_ratio, xi):
    ev = MuHatEvaluator(digits, n_ratio)
    ref = abs(mu_hat_reference(digits, n_ratio, xi, ev.terms_needed(abs(xi)) + 20)) ** 2
    assert abs(ev.power(xi) - ref) <= 2 * ev.tolerance


@pytest.mark.parametrize("digits,n_ratio", [((0, 1), 2), ((0, 1, 2), 3), ((0, 1, 2, 3), 4), ((0, 1, 8, 9), 4)])
def test_power_is_not_negative_at_exact_zeros(digits, n_ratio):
    # Without the clamp, rounding leaves products near -1e-17 at some of these zeros.
    ev = MuHatEvaluator(digits, n_ratio)
    grid = [F(j, 48) * n_ratio**k for k in range(5) for j in range(1, 97)]
    zeros = [xi for xi in grid if mu_zero_member(digits, n_ratio, xi)]
    assert len(zeros) > 20
    values = ev.power([float(xi) for xi in zeros])
    assert (values >= 0).all() and values.max() <= ev.tolerance


def gram_all_pairs(ev, points):
    """The Gram matrix from every ordered pair of points: the oracle for gram_matrix."""
    pts = np.asarray([float(F(p)) for p in points])
    return ev.mu_hat(pts[:, None] - pts[None, :])


@pytest.mark.parametrize(
    "digits,n_ratio,points",
    [
        ((0, 2), 4, spectrum_truncation(JP, 5)),
        ((0, 1, 2), 6, spectrum_truncation(HadamardTriple(6, (0, 1, 2), (0, 2, 4)), 3)),
        ((0, 1, 8, 9), 4, dj_example_spectrum(8)),
        ((0, 1), 4, dj_example_spectrum(5)),
        ((0, 1, 2, 3), 4, range(100)),
        ((-3, 0, F(5, 2)), 5, [F(-7, 3), 0, 1, F(1, 3), 4, 11]),
    ],
)
def test_gram_matrix_equals_all_pairs(digits, n_ratio, points):
    ev = MuHatEvaluator(digits, n_ratio)
    g = gram_matrix(ev, points)
    assert np.array_equal(g, gram_all_pairs(ev, points))
    assert np.array_equal(g.T, g.conj())


def test_gram_evaluates_each_distinct_difference_once(monkeypatch):
    sizes = []

    def counting_mask(digits, eta):
        sizes.append(np.size(eta))
        return float_mask(digits, eta)

    monkeypatch.setattr("ssmspec.numerics.float_mask", counting_mask)
    ev = MuHatEvaluator((0, 1, 2, 3), 4)
    gram_matrix(ev, range(1024))
    assert sizes == [2047] * ev.terms_needed(1023)
