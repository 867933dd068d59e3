"""Certified floating-point evaluation of the transform, Q-function, Gram.

The transform of mu_{1/N, D} is the infinite product of masks at xi/N**k.
Truncating after K factors is certified by the elementary bound
|M(eta) - 1| <= 2*pi*mean(|d|)*|eta| together with |M| <= 1: once the geometric
tail of those linear bounds is below tolerance/2, the truncated product is
within tolerance of the true value.  Crude, but provable and cheap (the tail
decays like N**-k).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, TextIO, Union

import numpy as np

from .exact import InvalidInput, as_fraction, as_n_ratio, digit_values, integer_digits, integer_points

DEFAULT_TOLERANCE = 1e-10

_TWO_PI = 2.0 * math.pi


def float_mask(digits: Sequence[float], eta) -> np.ndarray:
    """The mask (1/#D) * sum exp(-2*pi*i*d*eta) in floating point."""
    d = np.asarray(digits, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return np.exp(-2j * math.pi * np.multiply.outer(eta, d)).mean(axis=-1)


def _float_digit(d) -> float:
    """A digit as a float; an integer digit past 2**53, where floats stop
    holding every integer, and a digit beyond the float range are refused."""
    if type(d) is int and abs(d) > 1 << 53:
        raise InvalidInput(f"a digit of {d.bit_length()} bits is past 2**53, which a float cannot hold exactly")
    try:
        return float(d)
    except OverflowError:
        raise InvalidInput("a digit is beyond the float range") from None


@dataclass(frozen=True)
class MuHatEvaluator:
    """Evaluates the transform of mu_{1/N, digits} with certified truncation."""

    digits: tuple
    n_ratio: int
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        object.__setattr__(self, "digits", tuple(map(_float_digit, digit_values(self.digits))))
        object.__setattr__(self, "n_ratio", as_n_ratio(self.n_ratio))
        if not (0.0 < self.tolerance < 1.0):
            raise InvalidInput("tolerance must lie in (0, 1)")

    def terms_needed(self, max_abs_xi: float) -> int:
        """Smallest K with the tail bound below tolerance/2 at |xi| <= max_abs_xi."""
        mean_abs = sum(map(abs, self.digits)) / len(self.digits)
        k = 1
        while _TWO_PI * mean_abs * max_abs_xi * self.n_ratio ** (-k) / (self.n_ratio - 1) > self.tolerance / 2:
            k += 1
        return k

    def _arguments(self, xi):
        """xi as a float array of at least one dimension, and the factor
        count K certified for its largest |xi|; refuses what mu_hat and
        power cannot certify."""
        arr = np.atleast_1d(np.asarray(xi, dtype=float))
        if not np.isfinite(arr).all():
            raise InvalidInput("the transform needs finite arguments")
        kmax = self.terms_needed(float(np.max(np.abs(arr))) if arr.size else 0.0)
        try:
            float(self.n_ratio) ** kmax  # the largest divisor of xi in the products
        except OverflowError:
            raise InvalidInput(f"|xi| too large: N**{kmax} overflows a float") from None
        return arr, kmax

    def mu_hat(self, xi):
        """Transform values at xi (scalar or array), within tolerance.

        The factor count is chosen from the largest |xi| in the call, so a
        fixed grid always reproduces identical bytes.  Non-finite arguments,
        and arguments so large that N**K leaves the float range, are refused.
        """
        arr, kmax = self._arguments(xi)
        scale = float(self.n_ratio)
        out = np.ones(arr.shape, dtype=complex)
        for k in range(1, kmax + 1):
            out *= float_mask(self.digits, arr / scale**k)
        return complex(out[0]) if np.ndim(xi) == 0 else out

    def power(self, xi):
        """|mu_hat(xi)|**2 over the same K factors, with the same refusals.

        Each factor is real: |m_D(eta)|**2 = 1/#D + sum over delta of
        (2 * c_delta / #D**2) * cos(2*pi*delta*eta), where delta runs over the
        distinct differences |d_i - d_j|, i < j, and c_delta counts each.
        """
        arr, kmax = self._arguments(xi)
        out = self._power(arr, kmax)
        return float(out[0]) if np.ndim(xi) == 0 else out

    def _power(self, arr: np.ndarray, kmax: int) -> np.ndarray:
        """`power` over kmax factors at arguments `_arguments` has accepted."""
        d = np.asarray(self.digits)
        i, j = np.triu_indices(d.size, 1)
        deltas, counts = np.unique(np.abs(d[i] - d[j]), return_counts=True)
        terms = list(zip(deltas.tolist(), (2.0 * counts / d.size**2).tolist()))
        scale = float(self.n_ratio)
        out = np.ones(arr.shape)
        for k in range(1, kmax + 1):
            eta = arr / scale**k
            factor = 1.0 / d.size
            for delta, weight in terms:
                factor = factor + weight * np.cos(_TWO_PI * (eta * delta))
            out *= factor
        np.maximum(out, 0.0, out=out)  # rounding can leave -1e-17 at an exact zero
        return out


# Largest Gram matrix built.  gram_matrix holds a few n*n arrays (the
# differences, their sort and inverse index, the complex values), and
# gram_csv renders one row at a time beside a bounded cache of entry texts
# (_GRAM_TEXTS), so `ssmspec gram --out` at 2,048 points peaks near
# 0.23 GB whatever the digits and takes 6.4-6.8 s for a level-11 truncation
# (Python 3.11.7, 2 cores); mu_hat sees only the distinct differences (4,095
# for range(2048)).
MAX_GRAM_POINTS = 1 << 11
# Largest Q function, counted as grid count * points * #D mask terms: the
# Gram budget above.  q_function sums power over blocks of _Q_BLOCK_TERMS
# grid x points terms, and q_samples_csv renders a block of rows at a time,
# so `ssmspec qdump --out` at the cap holds little beyond the grid and the Q
# values: it peaks near 160 MB with one digit, 97 MB with two and 66 MB with
# four (Python 3.11.7).
MAX_Q_TERMS = 4 * MAX_GRAM_POINTS**2


def check_q_terms(ev: MuHatEvaluator, grid_count: int, point_count: int) -> None:
    """Refuse a Q function of more than MAX_Q_TERMS mask terms, before any is built."""
    if grid_count * point_count * len(ev.digits) > MAX_Q_TERMS:
        raise InvalidInput(
            f"Q over {grid_count} grid points, {point_count} points and {len(ev.digits)} digits "
            f"exceeds the limit of {MAX_Q_TERMS} mask terms"
        )


# Grid x points terms per block of `q_function`: each temporary array of
# `_power` is then 512 KB, whatever the grid.
_Q_BLOCK_TERMS = 1 << 16


def _float_points(points: Sequence[Union[int, Fraction]]) -> np.ndarray:
    """Exact rational points (`as_fraction`) as floats, refusing any beyond the float range."""
    try:
        return np.asarray([float(as_fraction(p)) for p in points], dtype=float)
    except OverflowError:
        raise InvalidInput("a point lies beyond the float range") from None


def q_function(
    ev: MuHatEvaluator, points: Sequence[Union[int, Fraction]], xi_grid: Sequence[float]
) -> np.ndarray:
    """Q(xi) = sum over the points of |mu_hat(xi + point)|^2, one value per
    grid point.

    For a bi-zero set Q <= 1 everywhere, with equality everywhere exactly
    when the points grow into a spectrum; values are reported, never asserted.
    """
    check_q_terms(ev, len(xi_grid), len(points))
    pts = _float_points(points)
    grid = np.asarray(xi_grid, dtype=float)
    if not (grid.size and pts.size):
        return np.zeros(grid.shape)
    # Rounded addition is monotone, so these two sums hold the largest |xi| of
    # the whole grid x points array: every block gets the factor count K of
    # one `power` call over it, and a row's sum does not depend on its block.
    _, kmax = ev._arguments([grid.max() + pts.max(), grid.min() + pts.min()])
    rows = max(1, _Q_BLOCK_TERMS // pts.size)
    out = np.empty(grid.shape)
    for start in range(0, grid.size, rows):
        block = grid[start : start + rows]
        out[start : start + rows] = ev._power(block[:, None] + pts[None, :], kmax).sum(axis=1)
    return out


def gram_matrix(ev: MuHatEvaluator, points: Sequence[Union[int, Fraction]]) -> np.ndarray:
    """Gram matrix G[i, j] = mu_hat(p_i - p_j); the diagonal is exactly 1."""
    if len(points) > MAX_GRAM_POINTS:
        raise InvalidInput(f"a Gram matrix of {len(points)} points exceeds the limit of {MAX_GRAM_POINTS} points")
    pts = _float_points(points)
    diffs = pts[:, None] - pts[None, :]
    # Each distinct difference once: the largest |xi|, so K and every value, stay the same.
    distinct, where = np.unique(diffs, return_inverse=True)
    return ev.mu_hat(distinct)[where.reshape(diffs.shape)]


def unitarity_defect(n_ratio: int, digits: Sequence[int], spectrum: Sequence[int]) -> float:
    """Max-norm deviation from the identity of H*H for the scaled DFT
    submatrix H = exp(2*pi*i*d*l/N)/sqrt(#D); the float twin of the exact
    Hadamard-triple check."""
    d = np.asarray(integer_digits(digits), dtype=float)
    l = np.asarray(integer_points(spectrum), dtype=float)
    if d.size != l.size:
        raise InvalidInput("digit and spectrum sets must have equal size")
    h = np.exp(2j * math.pi * np.outer(d, l) / as_n_ratio(n_ratio)) / math.sqrt(d.size)
    gram = h.conj().T @ h
    return float(np.max(np.abs(gram - np.eye(d.size))))


# Rows rendered per write of `q_samples_csv`: the grid and the values are
# converted to Python floats one block at a time, never whole.
_CSV_BLOCK_ROWS = 1 << 12


def q_samples_csv(xi_grid: Sequence[float], q_values: Sequence[float], level: int, out: TextIO) -> None:
    """Write the CSV with header xi,q,level into `out`, floats at 17
    significant digits."""
    xi_grid, q_values = np.asarray(xi_grid, dtype=float), np.asarray(q_values, dtype=float)
    out.write("xi,q,level\n")
    for start in range(0, len(xi_grid), _CSV_BLOCK_ROWS):
        block = slice(start, start + _CSV_BLOCK_ROWS)
        rows = zip(xi_grid[block].tolist(), q_values[block].tolist())
        out.writelines("%.17g,%.17g,%s\n" % (xi, q, level) for xi, q in rows)


# Distinct entries whose text `gram_csv` keeps, about 1.5 MB of keys and
# text.  A full cache is emptied and filled again: at 2,048 points (177k
# distinct entries) that formats half the entries, where keeping the first
# ones would format 88%.
_GRAM_TEXTS = 1 << 13


def gram_csv(matrix: np.ndarray, out: TextIO) -> None:
    """Write the CSV with header i,j,re,im into `out` one matrix row at a
    time, floats at 17 significant digits.

    A Gram matrix repeats most of its entries, so each entry's text is kept
    in a bounded cache, keyed by its 16 bytes as a complex: -0.0, 0.0 and
    each NaN keep their own text.
    """
    out.write("i,j,re,im\n")
    heads = [f"{j}," for j in range(matrix.shape[-1])]
    texts: dict[bytes, str] = {}
    for i, row in enumerate(matrix):
        row = np.ascontiguousarray(row, dtype=complex)
        keys = row.view("V16").tolist()
        cells = list(map(texts.get, keys))
        if None in cells:
            for j, z in enumerate(row.tolist()):
                if cells[j] is None:
                    cell = texts.get(keys[j])
                    if cell is None:
                        if len(texts) == _GRAM_TEXTS:
                            texts.clear()
                        cell = texts[keys[j]] = "%.17g,%.17g\n" % (z.real, z.imag)
                    cells[j] = cell
        out.write(f"{i},".join(["", *map(operator.add, heads, cells)]))
