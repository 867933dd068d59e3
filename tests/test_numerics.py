import io
import math
import os
import tracemalloc
from unittest import mock
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
    monkeypatch.setattr(MuHatEvaluator, "_power", no_work)  # the kernel of power and Q
    for points in ([0, 10**400], [0, F(-(10**400), 3)]):
        with pytest.raises(InvalidInput, match="beyond the float range"):
            q_function(ev, points, [0.0, 0.5])
        with pytest.raises(InvalidInput, match="beyond the float range"):
            gram_matrix(ev, points)


def test_q_term_cap(monkeypatch):
    # the cap must refuse before any transform value is computed
    def no_work(self, *args):
        raise AssertionError("Q work started")

    monkeypatch.setattr(MuHatEvaluator, "mu_hat", no_work)
    monkeypatch.setattr(MuHatEvaluator, "_power", no_work)  # the kernel of power and Q
    ev = MuHatEvaluator((0, 2), 4)
    assert MAX_Q_TERMS == 4 * MAX_GRAM_POINTS**2 == 1 << 24
    check_q_terms(ev, 4096, 2048)  # exactly the budget
    with pytest.raises(InvalidInput, match="exceeds the limit of 16777216 mask terms"):
        q_function(ev, range(2049), [j / 4096 for j in range(4096)])


@pytest.mark.parametrize("block_terms", [1, 7, 64])
def test_q_values_do_not_depend_on_the_block_size(monkeypatch, block_terms):
    # From one row per block up to 64: K comes from the whole grid and each
    # row is summed on its own, so no value moves.
    ev = MuHatEvaluator((0, 1, 8, 9), 4)
    grid = np.arange(-200, 300) / 7
    sources = (spectrum_truncation(JP, 6), dj_example_spectrum(7), [F(-9, 2)])
    cases = [(points, q_function(ev, points, grid)) for points in sources]
    monkeypatch.setattr("ssmspec.numerics._Q_BLOCK_TERMS", block_terms)
    for points, default in cases:
        assert np.array_equal(q_function(ev, points, grid), default)
        # ... and equal to one power call over the whole array
        whole = ev.power(grid[:, None] + np.array([float(p) for p in points])).sum(axis=1)
        assert np.array_equal(default, whole)


def test_q_keeps_its_empty_results_and_refusals():
    ev = MuHatEvaluator((0, 2), 4)
    assert np.array_equal(q_function(ev, [], [0.0, np.nan]), [0.0, 0.0])
    assert q_function(ev, [0, 1], []).shape == (0,)
    for grid in ([0.0, np.nan], [-np.inf, 0.5]):
        with pytest.raises(InvalidInput, match="finite arguments"):
            q_function(ev, [0, 1], grid)
    with pytest.raises(InvalidInput, match="overflows a float"):
        q_function(ev, [0], [1e300])


def test_q_is_summed_in_blocks():
    # 2**20 grid x points terms: one power call over the whole array holds
    # several 8 MB arrays at once; blocks of 2**16 terms hold under 1 MB each.
    ev = MuHatEvaluator((0, 2), 4)
    points = spectrum_truncation(JP, 6)
    grid = np.arange(1 << 14) / (1 << 14)
    tracemalloc.start()
    try:
        q = q_function(ev, points, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.shape == grid.shape and q.max() <= 1 + 1e-9
    assert peak < 4 << 20, peak


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


def test_digits_a_float_would_corrupt_are_refused():
    # Past 2**53 an integer digit loses its low bits as a float (2**53 + 1
    # becomes 2**53), and 3**2000 leaves the float range altogether.
    for digits in ((0, 2**53 + 1), (0, -(2**53) - 1), (0, 3**2000)):
        with pytest.raises(InvalidInput, match=r"past 2\*\*53"):
            MuHatEvaluator(digits, 4)
    with pytest.raises(InvalidInput, match="beyond the float range"):
        MuHatEvaluator((0, F(3**2000, 7)), 4)
    assert MuHatEvaluator((0, 2**53, -(2**53)), 4).digits == (0.0, 2.0**53, -(2.0**53))
    assert MuHatEvaluator((0, F(2**60 + 1, 3)), 4).digits == (0.0, float(F(2**60 + 1, 3)))  # rounded, as before


def test_mu_hat_refuses_what_it_cannot_certify():
    ev = MuHatEvaluator((0, 2), 4)
    for xi in (1e300, float("inf"), float("nan"), [0.0, 1e300]):
        with pytest.raises(InvalidInput):
            ev.mu_hat(xi)
    assert np.isfinite(ev.mu_hat(1e200))  # N**K stays in float range here


def test_csv_formats():
    ev = MuHatEvaluator((0, 2), 4)
    grid = [0.0, 1 / 3]
    out = io.StringIO()
    q_samples_csv(grid, q_function(ev, [0, 1], grid), 1, out)
    lines = out.getvalue().strip().split("\n")
    assert lines[0] == "xi,q,level"
    assert lines[2].startswith("0.33333333333333331,")  # 17 significant digits
    g = gram_matrix(ev, [0, 1])
    gout = io.StringIO()
    gram_csv(g, gout)
    glines = gout.getvalue().strip().split("\n")
    assert glines[0] == "i,j,re,im"
    assert glines[1] == "0,0,1,0"
    assert len(glines) == 5


def gram_csv_per_entry(matrix, out):
    """The Gram CSV formatted entry by entry: the oracle for gram_csv."""
    out.write("i,j,re,im\n")
    for i, row in enumerate(matrix):
        out.writelines("%d,%d,%.17g,%.17g\n" % (i, j, z.real, z.imag) for j, z in enumerate(row.tolist()))


def _csv_text(render, matrix) -> str:
    out = io.StringIO()
    render(matrix, out)
    return out.getvalue()


_special_floats = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, 1.0])
_entry_floats = st.one_of(_special_floats, st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@st.composite
def gram_like_matrices(draw):
    """Matrices drawn from a few values, so most entries repeat, in any of
    the dtypes and memory layouts gram_csv may be given."""
    kind = draw(st.sampled_from(["complex", "complex64", "float", "float32", "int64", "bool"]))
    if kind == "int64":
        pool = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=6))
    elif kind == "bool":
        pool = [False, True]
    elif kind.startswith("complex"):
        pool = draw(st.lists(st.builds(complex, _entry_floats, _entry_floats), min_size=1, max_size=6))
    else:
        pool = draw(st.lists(_entry_floats, min_size=1, max_size=6))
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows * cols, max_size=rows * cols))
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = np.asarray([pool[k] for k in picks], dtype=kind).reshape(rows, cols)
    view = draw(st.sampled_from(["as is", "transpose", "every other row", "reversed columns"]))
    if view == "transpose":
        return matrix.T
    if view == "every other row":
        return matrix[::2]
    if view == "reversed columns":
        return matrix[:, ::-1]
    return matrix


@settings(max_examples=300, deadline=None)
@given(gram_like_matrices(), st.integers(1, 8))
def test_gram_csv_writes_the_per_entry_bytes(matrix, cache_size):
    # A cache this small holds fewer distinct entries than most matrices drawn.
    expected = _csv_text(gram_csv_per_entry, matrix)
    with mock.patch("ssmspec.numerics._GRAM_TEXTS", cache_size):
        assert _csv_text(gram_csv, matrix) == expected
    assert _csv_text(gram_csv, matrix) == expected


def _traced_peak(render) -> int:
    """Peak traced allocation, in bytes, of rendering into a discarding sink."""
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            render(sink)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_csv_renderers_write_as_they_render():
    # The whole text of either table is tens of MB; rendered into the sink
    # piece by piece, the renderers never hold more than a row or a block.
    matrix = np.exp(1j * np.arange(512 * 512.0)).reshape(512, 512)
    assert _traced_peak(lambda sink: gram_csv(matrix, sink)) < 2 * 1024 * 1024
    grid = np.arange(1 << 18) / (1 << 18)
    values = np.sqrt(grid)
    assert _traced_peak(lambda sink: q_samples_csv(grid, values, 4, sink)) < 2 * 1024 * 1024


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
    assert _csv_text(gram_csv, g) == _csv_text(gram_csv_per_entry, g)


def test_gram_evaluates_each_distinct_difference_once(monkeypatch):
    sizes = []

    def counting_mask(digits, eta):
        sizes.append(np.size(eta))
        return float_mask(digits, eta)

    monkeypatch.setattr("ssmspec.numerics.float_mask", counting_mask)
    ev = MuHatEvaluator((0, 1, 2, 3), 4)
    gram_matrix(ev, range(1024))
    assert sizes == [2047] * ev.terms_needed(1023)
