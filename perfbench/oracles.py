"""Oracles the benchmark checks ssmspec against, written apart from it.

Nothing here imports ssmspec.  The zero test uses the classification of
vanishing sums of at most four roots of unity (Lam & Leung, J. Algebra 224
(2000); Poonen & Rubinstein, SIAM J. Discrete Math. 11 (1998)): such a sum
vanishes exactly when its exponents split into antipodal pairs
{e, e + q/2}, or, for three terms, form a rotated triangle
{e, e + q/3, e + 2q/3}.  Everything else (membership in the zero set of the
transform, spectrum-set search, greedy growth, the four-digit theorem) is
built on that test or on the statements of the theorems themselves.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np


def sum_vanishes(exponents: Iterable[int], q: int) -> bool:
    """Does sum(exp(2*pi*i*e/q)) over at most four exponents (with
    multiplicity) vanish?"""
    es = sorted(e % q for e in exponents)
    if len(es) > 4:
        raise ValueError("the pairing rule covers at most four terms")
    if len(es) == 3:
        if q % 3:
            return False
        third = q // 3
        return es == [es[0], es[0] + third, es[0] + 2 * third]
    if len(es) not in (2, 4) or q % 2:
        return False
    half = q // 2
    rest = list(es)
    while rest:
        e = rest.pop(0)
        partner = (e + half) % q
        if partner not in rest:
            return False
        rest.remove(partner)
    return True


def mask_vanishes(digits: Sequence[int], xi: Fraction) -> bool:
    """Is the mask of the integer digits zero at the rational point xi?"""
    xi = Fraction(xi)
    return sum_vanishes((d * xi.numerator for d in digits), xi.denominator)


def in_transform_zero_set(digits: Sequence[int], n_ratio: int, xi: Fraction) -> bool:
    """Is xi a zero of the transform of mu_{1/N, D}?

    The transform is the product of the masks at xi/N**k, k >= 1.  A mask
    zero needs some (d - d')*eta or d*eta in 1/2 + Z or 1/3 + Z, so
    |eta| >= 1/(3*max D); smaller arguments are never zeros.
    """
    xi = Fraction(xi)
    if xi == 0:
        raise ValueError("0 is never a zero of the transform")
    floor = Fraction(1, 3 * max(digits))
    eta = xi / n_ratio
    while abs(eta) >= floor:
        if mask_vanishes(digits, eta):
            return True
        eta /= n_ratio
    return False


def first_violating_pair(
    points: Sequence, digits: Sequence[int], n_ratio: int
) -> tuple[Optional[tuple[Fraction, Fraction]], int]:
    """Scan the pairs of the sorted points, low index first; return the first
    pair (high, low) whose difference is not a zero, or None, with the
    number of pairs decided up to and including it."""
    pts = sorted(Fraction(p) for p in points)
    decided = 0
    for i, low in enumerate(pts):
        for high in pts[i + 1 :]:
            decided += 1
            if not in_transform_zero_set(digits, n_ratio, high - low):
                return (high, low), decided
    return None, decided


def greedy_orthogonal(
    digits: Sequence[int], n_ratio: int, bound: int, max_count: int
) -> tuple[list[Fraction], int]:
    """Greedy growth over candidates 1, -1, 2, -2, ... up to the bound,
    keeping a candidate when its difference to every kept point is a zero.
    Returns the sorted points and the number of pairs decided (each
    candidate is tested against the kept points in order of acceptance and
    dropped at its first failure)."""
    chosen = [Fraction(0)]
    decided = 0
    for mag in range(1, bound + 1):
        for cand in (Fraction(mag), Fraction(-mag)):
            if len(chosen) >= max_count:
                return sorted(chosen), decided
            ok = True
            for y in chosen:
                decided += 1
                if not in_transform_zero_set(digits, n_ratio, cand - y):
                    ok = False
                    break
            if ok:
                chosen.append(cand)
    return sorted(chosen), decided


def lexicographic_spectrum(n_ratio: int, digits: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Lexicographically smallest L in {0..N-1}, 0 in L, #L = #D, with the mask
    of D vanishing at (l - l')/N for every pair of distinct elements."""
    k = len(digits)
    if k > n_ratio:
        return None
    zero = [False] + [sum_vanishes((d * delta for d in digits), n_ratio) for delta in range(1, n_ratio)]
    best: list[int] = [0]

    def grow(start: int) -> bool:
        if len(best) == k:
            return True
        for cand in range(start, n_ratio):
            if all(zero[cand - prev] for prev in best):
                best.append(cand)
                if grow(cand + 1):
                    return True
                best.pop()
        return False

    return tuple(best) if grow(1) else None


def truncation(n_ratio: int, spectrum: Sequence[int], level: int) -> list[int]:
    """Sorted {sum N**j * l_j : l_j in L, j < level}."""
    points = [0]
    for j in range(level):
        points = [p + n_ratio**j * l for p in points for l in spectrum]
    return sorted(points)


def unitary_defect(n_ratio: int, digits: Sequence[int], spectrum: Sequence[int]) -> float:
    """max |H*H - I| for H = exp(2*pi*i*d*l/N)/sqrt(#D)."""
    d = np.array(digits, dtype=float)[:, None]
    l = np.array(spectrum, dtype=float)[None, :]
    h = np.exp(2j * np.pi * d * l / n_ratio) / math.sqrt(len(digits))
    return float(np.abs(h.conj().T @ h - np.eye(len(digits))).max())


def v2(n: int) -> int:
    """2-adic valuation of a positive integer."""
    return (n & -n).bit_length() - 1


def card4_verdict(digits: Sequence[int], n_ratio: int) -> tuple[str, str]:
    """(outcome, reason) the four-digit theorem assigns to mu_{1/N, D} for a
    gcd-1 digit set {0, a, b, c}: the mask has zeros only with exactly two
    odd digits; then N must be even, the 2-adic valuations t1 = v2(even
    digit) and t2 = v2(difference of the odd digits) must agree, and
    beta = v2(N) must not divide t."""
    rest = digits[1:]
    odd = sorted(d for d in rest if d % 2)
    if len(odd) != 2:
        return "NonSpectral", "EmptyZeroSet"
    if n_ratio % 2:
        return "NonSpectral", "NOdd"
    even = next(d for d in rest if d % 2 == 0)
    t1, t2 = v2(even), v2(odd[1] - odd[0])
    if t1 != t2:
        return "NonSpectral", "TDistinct"
    if t1 % v2(n_ratio) == 0:
        return "NonSpectral", "TDivisibleByBeta"
    return "Spectral", "OK"


def gcd1_digit_sets(cardinality: int, bound: int) -> list[tuple[int, ...]]:
    """Every {0, d1 < ... } with nonzero digits in 1..bound and gcd 1."""
    out = []

    def grow(prefix: list[int], low: int) -> None:
        if len(prefix) == cardinality - 1:
            if math.gcd(*prefix) == 1:
                out.append((0, *prefix))
            return
        for d in range(low, bound + 1):
            grow(prefix + [d], d + 1)

    grow([], 1)
    return out


def mu_hat_mp(digits: Sequence, n_ratio: int, xi, dps: int = 50) -> complex:
    """The transform of mu_{1/N, D} at an exact rational xi as an mpmath
    product at `dps` digits, stopped once the tail bound
    2*pi*mean(D)*|xi|*N**-k/(N-1) is below 10**-(dps-5)."""
    import mpmath

    with mpmath.workdps(dps):
        x = mpmath.mpf(Fraction(xi).numerator) / Fraction(xi).denominator
        ds = [mpmath.mpf(Fraction(d).numerator) / Fraction(d).denominator for d in digits]
        mean_d = mpmath.fsum(ds) / len(ds)
        eps = mpmath.mpf(10) ** (5 - dps)
        prod = mpmath.mpc(1)
        eta = x
        scale = mpmath.mpf(1)
        while True:
            eta /= n_ratio
            scale /= n_ratio
            prod *= mpmath.fsum(mpmath.expj(-2 * mpmath.pi * d * eta) for d in ds) / len(ds)
            if 2 * mpmath.pi * mean_d * abs(x) * scale / (n_ratio - 1) < eps:
                return complex(prod)
