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
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .exact import InvalidInput, as_fraction, digit_values, integer_digits

DEFAULT_TOLERANCE = 1e-10

_TWO_PI = 2.0 * math.pi


def float_mask(digits: Sequence[float], eta) -> np.ndarray:
    """The mask (1/#D) * sum exp(-2*pi*i*d*eta) in floating point."""
    d = np.asarray(digits, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return np.exp(-2j * math.pi * np.multiply.outer(eta, d)).mean(axis=-1)


@dataclass(frozen=True)
class MuHatEvaluator:
    """Evaluates the transform of mu_{1/N, digits} with certified truncation."""

    digits: tuple
    n_ratio: int
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        object.__setattr__(self, "digits", tuple(float(d) for d in digit_values(self.digits)))
        if self.n_ratio < 2:
            raise InvalidInput("N must be >= 2")
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
        return float(out[0]) if np.ndim(xi) == 0 else out


# Largest Gram matrix built.  gram_matrix holds a few n*n arrays (the
# differences, their sort and inverse index, the complex values), so 2,048
# points peak near 0.23 GB whatever the digits; mu_hat sees only the distinct
# differences (4,095 for range(2048)).
MAX_GRAM_POINTS = 1 << 11
# Largest Q function, counted as grid count * points * #D mask terms: the
# Gram budget above.  power holds a few float arrays of grid count * points,
# so a Q at the cap peaks near 0.41 GB with one digit, 0.35 GB with two and
# 0.22 GB with four.
MAX_Q_TERMS = 4 * MAX_GRAM_POINTS**2


def check_q_terms(ev: MuHatEvaluator, grid_count: int, point_count: int) -> None:
    """Refuse a Q function of more than MAX_Q_TERMS mask terms, before any is built."""
    if grid_count * point_count * len(ev.digits) > MAX_Q_TERMS:
        raise InvalidInput(
            f"Q over {grid_count} grid points, {point_count} points and {len(ev.digits)} digits "
            f"exceeds the limit of {MAX_Q_TERMS} mask terms"
        )


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
    return ev.power(grid[:, None] + pts[None, :]).sum(axis=1)


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
    l = np.asarray(integer_digits(spectrum), dtype=float)
    if d.size != l.size:
        raise InvalidInput("digit and spectrum sets must have equal size")
    h = np.exp(2j * math.pi * np.outer(d, l) / n_ratio) / math.sqrt(d.size)
    gram = h.conj().T @ h
    return float(np.max(np.abs(gram - np.eye(d.size))))


def _g17(x: float) -> str:
    return "%.17g" % x


def q_samples_csv(xi_grid: Sequence[float], q_values: Sequence[float], level: int) -> str:
    """CSV rendering with header xi,q,level; floats at 17 significant digits."""
    lines = ["xi,q,level"]
    for xi, q in zip(xi_grid, q_values):
        lines.append(f"{_g17(xi)},{_g17(q)},{level}")
    return "\n".join(lines) + "\n"


def gram_csv(matrix: np.ndarray) -> str:
    """CSV rendering with header i,j,re,im; floats at 17 significant digits."""
    lines = ["i,j,re,im"]
    n = matrix.shape[0]
    for i in range(n):
        for j in range(n):
            z = matrix[i, j]
            lines.append(f"{i},{j},{_g17(z.real)},{_g17(z.imag)}")
    return "\n".join(lines) + "\n"
