"""Candidate spectra: truncations, exact orthogonality checks, greedy growth.

All orthogonality decisions here are exact; completeness is never claimed.
Points are taken in the units of the measure mu_{1/N, D} for the digits D as
given (scale a spectrum by 1/alpha to map back to a rescaled digit set).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .exact import InvalidInput, as_fraction
from .hadamard import HadamardTriple
from .zeros import DigitsLike, mu_zero_test


# Largest truncation spectrum_truncation builds.  Spectra of two or more points
# reach the point limit by the level limit; one-point spectra are held to the
# same depth, since their single point grows like N**level.
MAX_TRUNCATION_LEVEL = 16
MAX_TRUNCATION_POINTS = 1 << MAX_TRUNCATION_LEVEL

# Largest greedy growth: the candidate bound (the memo of greedy_bizero holds
# at most 4*bound + 1 differences) and bound times the point count (it makes
# at most 2 * bound * count pair tests).
MAX_GREEDY_BOUND = 1 << 16
MAX_GREEDY_WORK = 1 << 24


class DegenerateTriple(ValueError):
    """Truncation sums collided; the triple cannot generate a spectrum."""


def spectrum_truncation(triple: HadamardTriple, level: int) -> tuple[int, ...]:
    """Sorted level-n truncation {sum N**j * l_j : l_j in L, j < n} of a triple's spectrum."""
    if level < 0:
        raise InvalidInput("level must be >= 0")
    k = len(triple.spectrum)
    if level > MAX_TRUNCATION_LEVEL or k**level > MAX_TRUNCATION_POINTS:
        raise InvalidInput(
            f"a level-{level} truncation of {k} points per level exceeds the limit of "
            f"{MAX_TRUNCATION_POINTS} points and {MAX_TRUNCATION_LEVEL} levels"
        )
    if not triple.verify():
        raise InvalidInput("not a Hadamard triple; refusing to build a truncation")
    points = [0]
    scale = 1
    for _ in range(level):
        points = [p + scale * l for p in points for l in triple.spectrum]
        scale *= triple.n_ratio
    if len(set(points)) != len(points):
        raise DegenerateTriple("truncation sums collided")
    return tuple(sorted(points))


@dataclass(frozen=True)
class BiZeroReport:
    is_bizero: bool
    violating_pair: Optional[tuple[Fraction, Fraction]] = None


class _PairMemo(dict):
    """Verdicts of one zero test keyed by integer difference, filled on first
    lookup; it lives for one call only."""

    def __init__(self, test) -> None:
        super().__init__()
        self.test = test

    def __missing__(self, u: int) -> bool:
        ok = self[u] = self.test(u)
        return ok


def is_bizero_set(
    points: Sequence[Union[int, Fraction]], digits: DigitsLike, n_ratio: int
) -> BiZeroReport:
    """Exact check that every nonzero difference of points lies in the
    transform's zero set; the first violating pair (scanned in sorted order)
    is reported otherwise.  The points are scaled to integers over the lcm of
    their denominators, and each distinct difference is decided once."""
    pts = sorted(as_fraction(p) for p in points)
    if Fraction(0) not in pts:
        raise InvalidInput("a bi-zero set must contain 0")
    if len(set(pts)) != len(pts):
        raise InvalidInput("points must be distinct")
    den = math.lcm(*(p.denominator for p in pts))
    memo = _PairMemo(mu_zero_test(digits, n_ratio, den))
    ints = [p.numerator * (den // p.denominator) for p in pts]
    for i, low in enumerate(ints):
        for j in range(i + 1, len(ints)):
            if not memo[ints[j] - low]:
                return BiZeroReport(False, (pts[j], pts[i]))
    return BiZeroReport(True)


def greedy_bizero(
    digits: DigitsLike, n_ratio: int, bound: int, max_count: int
) -> list[Fraction]:
    """Grow a bi-zero set greedily over integer candidates with |xi| <= bound.

    Candidates are scanned as 0, 1, -1, 2, -2, ...; one accepted point is
    never revisited, so the result is maximal within the scanned range unless
    max_count stopped it early.  The output is sorted.
    """
    if max_count < 1:
        raise InvalidInput("max_count must be >= 1")
    # The scan yields at most 2*bound + 1 points, so a larger count is no limit.
    count = min(max_count, 2 * max(bound, 0) + 1)
    if count > MAX_TRUNCATION_POINTS or bound > MAX_GREEDY_BOUND or bound * count > MAX_GREEDY_WORK:
        raise InvalidInput(
            f"greedy growth over |xi| <= {bound} to {max_count} points exceeds the limits of "
            f"{MAX_TRUNCATION_POINTS} points, bound {MAX_GREEDY_BOUND} and bound * count {MAX_GREEDY_WORK}"
        )
    test = mu_zero_test(digits, n_ratio)
    if test.mask_zeros.is_empty:
        raise InvalidInput("empty mask zero set: no orthogonal pair exists")
    memo = _PairMemo(test)
    chosen = [0]
    for cand in (c for mag in range(1, bound + 1) for c in (mag, -mag)):
        if len(chosen) >= max_count:
            break
        if all(memo[cand - y] for y in chosen):
            chosen.append(cand)
    return [Fraction(p) for p in sorted(chosen)]


def dj_example_spectrum(n: int) -> list[Fraction]:
    """The explicit spectrum (Z + {0, 1/4}) of the digits {0,1,8,9} at ratio
    1/4, truncated to integers in [-n, n]; 2*(2n+1) points, sorted.  More
    than MAX_TRUNCATION_POINTS points are refused before any is built."""
    if n < 0:
        raise InvalidInput("n must be >= 0")
    if 2 * (2 * n + 1) > MAX_TRUNCATION_POINTS:
        raise InvalidInput(f"dj spectrum of {2 * (2 * n + 1)} points is over the limit of {MAX_TRUNCATION_POINTS}")
    return [Fraction(k) + off for k in range(-n, n + 1) for off in (0, Fraction(1, 4))]
