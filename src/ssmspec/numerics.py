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

    def mu_hat(self, xi):
        """Transform values at xi (scalar or array), within tolerance.

        The factor count is chosen from the largest |xi| in the call, so a
        fixed grid always reproduces identical bytes.  Non-finite arguments,
        and arguments so large that N**K leaves the float range, are refused.
        """
        arr = np.asarray(xi, dtype=float)
        scalar = arr.ndim == 0
        flat = np.atleast_1d(arr).astype(float)
        if not np.isfinite(flat).all():
            raise InvalidInput("mu_hat needs finite arguments")
        kmax = self.terms_needed(float(np.max(np.abs(flat))) if flat.size else 0.0)
        scale = float(self.n_ratio)
        try:
            scale**kmax  # the largest divisor of xi in the product below
        except OverflowError:
            raise InvalidInput(f"|xi| too large: N**{kmax} overflows a float") from None
        out = np.ones(flat.shape, dtype=complex)
        for k in range(1, kmax + 1):
            out *= float_mask(self.digits, flat / scale**k)
        if scalar:
            return complex(out[0])
        return out.reshape(arr.shape)


# Largest Gram matrix built: mu_hat holds n*n*#D complex mask terms at once,
# so 2,048 points and four digits already peak near 0.7 GB.
MAX_GRAM_POINTS = 1 << 11
# Largest Q function, in grid count * points * #D mask terms: that Gram budget.
MAX_Q_TERMS = 4 * MAX_GRAM_POINTS**2


def check_q_terms(ev: MuHatEvaluator, grid_count: int, point_count: int) -> None:
    """Refuse a Q function of more than MAX_Q_TERMS mask terms, before any is built."""
    if grid_count * point_count * len(ev.digits) > MAX_Q_TERMS:
        raise InvalidInput(
            f"Q over {grid_count} grid points, {point_count} points and {len(ev.digits)} digits "
            f"exceeds the limit of {MAX_Q_TERMS} mask terms"
        )


@dataclass(frozen=True)
class QSample:
    xi: float
    q_value: float
    level: int


def q_function(
    ev: MuHatEvaluator,
    points: Sequence[Union[int, Fraction]],
    xi_grid: Sequence[float],
    level: int = 0,
) -> list[QSample]:
    """Q(xi) = sum over the points of |mu_hat(xi + point)|^2 on a grid.

    For a bi-zero set Q <= 1 everywhere, with equality everywhere exactly
    when the points grow into a spectrum; values are reported, never asserted.
    """
    check_q_terms(ev, len(xi_grid), len(points))
    pts = np.asarray([float(as_fraction(p)) for p in points], dtype=float)
    grid = np.asarray(xi_grid, dtype=float)
    args = grid[:, None] + pts[None, :]
    vals = np.abs(ev.mu_hat(args)) ** 2
    totals = vals.sum(axis=1)
    return [QSample(float(x), float(q), level) for x, q in zip(grid, totals)]


def gram_matrix(ev: MuHatEvaluator, points: Sequence[Union[int, Fraction]]) -> np.ndarray:
    """Gram matrix G[i, j] = mu_hat(p_i - p_j); the diagonal is exactly 1."""
    if len(points) > MAX_GRAM_POINTS:
        raise InvalidInput(f"a Gram matrix of {len(points)} points exceeds the limit of {MAX_GRAM_POINTS} points")
    pts = np.asarray([float(as_fraction(p)) for p in points], dtype=float)
    diffs = pts[:, None] - pts[None, :]
    return ev.mu_hat(diffs)


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


def q_samples_csv(samples: Sequence[QSample]) -> str:
    """CSV rendering with header xi,q,level; floats at 17 significant digits."""
    lines = ["xi,q,level"]
    for s in samples:
        lines.append(f"{_g17(s.xi)},{_g17(s.q_value)},{s.level}")
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
