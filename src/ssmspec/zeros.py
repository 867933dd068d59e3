"""Exact mask evaluation and symbolic zero sets.

The mask of a digit set D at a rational point xi = p/q is (up to the 1/#D
factor) a sum of q-th roots of unity.  Since Z[x]/(Phi_q) embeds the q-th
cyclotomic integers faithfully, the sum vanishes exactly when its coefficient
vector reduces to zero modulo the q-th cyclotomic polynomial.  That reduction
is the tolerance-free zero test used everywhere in the exact layer.

Independently of it, the zero sets of masks with up to four digits are known
in closed form as finite unions of scaled residue families (scaled odd
integers, or scaled non-multiples of 3).  Both routes are kept side by side;
the test suite checks them against each other over dense rational grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

from .exact import (
    DigitSet,
    InternalInconsistency,
    InvalidInput,
    IrreducibleWitness,
    NormalizedDigits,
    Unsupported,
    as_digit,
    four_digit_shape,
    normalize_digits,
)

# Largest modulus for which power tables are precomputed; beyond this the
# (rare) scalar path falls back to direct polynomial division.
_TABLE_MAX = 512

# Power-table coefficients must stay well inside int64 for the numpy path.
_COEFF_BOUND = 1 << 40


def _divisors(q: int) -> list[int]:
    small, large = [], []
    for d in range(1, math.isqrt(q) + 1):
        if q % d == 0:
            small.append(d)
            if d != q // d:
                large.append(q // d)
    return small + large[::-1]


def _poly_exact_div(num: list[int], den: Sequence[int]) -> list[int]:
    """Divide integer polynomials (coefficients low to high), asserting that
    the division is exact.  The divisor must be monic."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        out[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    if any(num):
        raise InternalInconsistency("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(q: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the q-th cyclotomic polynomial.

    Computed by dividing x**q - 1 by Phi_d for every proper divisor d of q.
    """
    if q < 1:
        raise InvalidInput("cyclotomic order must be >= 1")
    num = [0] * (q + 1)
    num[0], num[q] = -1, 1
    for d in _divisors(q)[:-1]:
        num = _poly_exact_div(num, cyclotomic_poly(d))
    return tuple(num)


def _poly_mod(coeffs: list[int], phi: Sequence[int]) -> list[int]:
    """Remainder of an integer polynomial modulo the monic polynomial phi."""
    deg = len(phi) - 1
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        coeffs[i] = 0
        for j in range(deg):
            coeffs[i - deg + j] -= c * phi[j]
    return coeffs[:deg]


@lru_cache(maxsize=None)
def _power_rows(q: int) -> tuple[tuple[int, ...], ...]:
    """Row e is x**e reduced modulo Phi_q, for e in 0..q-1 (exact integers)."""
    phi = cyclotomic_poly(q)
    deg = len(phi) - 1
    rows = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(q):
        rows.append(tuple(cur))
        carry = cur[deg - 1]
        cur = [0] + cur[: deg - 1]
        if carry:
            for j in range(deg):
                cur[j] -= carry * phi[j]
    return tuple(rows)


@lru_cache(maxsize=None)
def _power_table(q: int) -> np.ndarray:
    rows = _power_rows(q)
    peak = max((abs(c) for row in rows for c in row), default=0)
    if peak >= _COEFF_BOUND:
        raise InternalInconsistency(f"power-table coefficients too large for q={q}")
    return np.array(rows, dtype=np.int64)


@dataclass(frozen=True)
class CyclotomicValue:
    """An element of Z[e^(2*pi*i/order)] in the power basis modulo Phi_order."""

    order: int
    coefficients: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return not any(self.coefficients)


def _digit_ints(digits: Union[NormalizedDigits, Iterable]) -> tuple[int, ...]:
    if isinstance(digits, NormalizedDigits):
        return digits.integers
    values = tuple(digits)
    if any(int(d) != d for d in values):
        raise InvalidInput(f"integer digits required here, got {values}")
    return tuple(int(d) for d in values)


def mask_value(digits: Union[NormalizedDigits, Iterable[int]], xi: Fraction) -> CyclotomicValue:
    """Exact value of sum(exp(-2*pi*i*d*xi)) over integer digits d.

    This is #D times the mask function; it is zero exactly when the mask is.
    """
    xi = Fraction(xi)
    p, q = xi.numerator, xi.denominator
    exps = [(-d * p) % q for d in _digit_ints(digits)]
    if q <= _TABLE_MAX:
        rows = _power_rows(q)
        deg = len(rows[0])
        acc = [0] * deg
        for e in exps:
            row = rows[e]
            for j in range(deg):
                acc[j] += row[j]
        return CyclotomicValue(q, tuple(acc))
    phi = cyclotomic_poly(q)
    coeffs = [0] * q
    for e in exps:
        coeffs[e] += 1
    return CyclotomicValue(q, tuple(_poly_mod(coeffs, phi)))


def mask_zero_batch(digits: Iterable[int], q: int, numerators: np.ndarray) -> np.ndarray:
    """Vectorized exact zero test of the mask at p/q for every p in `numerators`."""
    if q > _TABLE_MAX:
        raise InvalidInput(f"batch mask test supports denominators up to {_TABLE_MAX}")
    table = _power_table(q)
    d = np.asarray(_digit_ints(digits), dtype=np.int64)
    p = np.asarray(numerators, dtype=np.int64)
    exps = (-(p[:, None] * d[None, :])) % q
    vals = table[exps].sum(axis=1)
    return ~vals.any(axis=1)


class VanishingCase(Enum):
    """Which pairing system annihilates a four-term mask at a given point.

    A vanishing sum of four unit complex numbers splits into two pairs of
    opposite numbers; for digits {0, d1, d2, d3} the three possible pairings
    anchor 0 against d1, d2 or d3 respectively.
    """

    CASE1 = "Case1"  # d1*xi and (d3-d2)*xi both half-odd
    CASE2 = "Case2"  # d2*xi and (d3-d1)*xi both half-odd
    CASE3 = "Case3"  # d3*xi and (d2-d1)*xi both half-odd


def _is_half_odd(x: Fraction) -> bool:
    return (x - Fraction(1, 2)).denominator == 1


def vanishing_case(digits: Union[NormalizedDigits, Iterable[int]], xi: Fraction) -> VanishingCase | None:
    """Identify the pairing that makes a four-digit mask vanish at xi, if any."""
    ints = sorted(_digit_ints(digits))
    if len(ints) != 4:
        raise InvalidInput("vanishing_case needs exactly four digits")
    xi = Fraction(xi)
    d0, d1, d2, d3 = ints  # translation-invariant: anchor on the smallest digit
    systems = (
        (VanishingCase.CASE1, d1 - d0, d3 - d2),
        (VanishingCase.CASE2, d2 - d0, d3 - d1),
        (VanishingCase.CASE3, d3 - d0, d2 - d1),
    )
    for case, anchor, partner in systems:
        if _is_half_odd(anchor * xi) and _is_half_odd(partner * xi):
            return case
    return None


@dataclass(frozen=True)
class ScaledResidues:
    """The set {scale * n : n integer, n mod modulus in residues}.

    scale is a positive rational; residues exclude 0, so 0 never belongs.
    The two shapes occurring in practice are beta * (odd integers), i.e.
    modulus 2 with residues {1}, and beta * (integers not divisible by 3).
    """

    scale: Fraction
    modulus: int
    residues: frozenset[int]

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise InvalidInput("scale must be positive")
        if self.modulus < 2:
            raise InvalidInput("modulus must be >= 2")
        if not self.residues or not all(0 < r < self.modulus for r in self.residues):
            raise InvalidInput("residues must be nonempty and lie in 1..modulus-1")

    def member(self, xi: Fraction) -> bool:
        n = Fraction(xi) / self.scale
        return n.denominator == 1 and n.numerator % self.modulus in self.residues

    def contains_part(self, other: "ScaledResidues") -> bool:
        """Containment test; only decided for equal moduli (enough to merge)."""
        if self.modulus != other.modulus:
            return False
        s = other.scale / self.scale
        if s.denominator != 1:
            return False
        k = s.numerator
        return all((k * r) % self.modulus in self.residues for r in other.residues)

    def scaled(self, c: Fraction) -> "ScaledResidues":
        return ScaledResidues(self.scale * c, self.modulus, self.residues)

    def to_json(self) -> dict:
        return {
            "scale": str(self.scale),
            "modulus": self.modulus,
            "residues": sorted(self.residues),
        }

    def __str__(self) -> str:
        if self.modulus == 2 and self.residues == frozenset({1}):
            return f"{self.scale}*odd"
        rs = ",".join(str(r) for r in sorted(self.residues))
        return f"{self.scale}*(n % {self.modulus} in {{{rs}}})"


def odd_multiples(scale: Fraction) -> ScaledResidues:
    return ScaledResidues(Fraction(scale), 2, frozenset({1}))


@dataclass(frozen=True)
class ZeroSet:
    """A finite union of scaled residue families; empty parts = empty set."""

    parts: tuple[ScaledResidues, ...]

    @classmethod
    def of(cls, parts: Iterable[ScaledResidues]) -> "ZeroSet":
        kept: list[ScaledResidues] = []
        for part in parts:
            if any(other.contains_part(part) for other in kept):
                continue
            kept = [other for other in kept if not part.contains_part(other)]
            kept.append(part)
        kept.sort(key=lambda p: (p.modulus, -p.scale))
        return cls(tuple(kept))

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def member(self, xi: Fraction) -> bool:
        return any(part.member(xi) for part in self.parts)

    def scaled(self, c: Fraction) -> "ZeroSet":
        return ZeroSet(tuple(part.scaled(c) for part in self.parts))

    def to_json(self) -> list[dict]:
        return [part.to_json() for part in self.parts]

    def __str__(self) -> str:
        return " u ".join(str(p) for p in self.parts) if self.parts else "empty"


@lru_cache(maxsize=None)
def zero_set(digits: NormalizedDigits) -> ZeroSet:
    """Symbolic zero set of the mask of a canonical integer digit set.

    Cardinality 1 and the bad-parity/bad-residue cases are empty.  Cardinality
    2 is the classic half-odd family.  Cardinality 3 vanishes exactly when the
    two nonzero digits cover the residues {1, 2} mod 3, and the zero set is
    then (1/3) times the non-multiples of 3 (gcd 1 makes the scale exactly
    1/3).  Cardinality 4 requires exactly two odd digits; the three resulting
    families are governed by the gcds of the odd-anchor pairings, with the
    third family present only when the two 2-adic valuations agree.
    """
    ints = digits.integers
    card = len(ints)
    if card >= 5:
        raise Unsupported("zero sets are only modeled for up to four digits")
    if card == 1:
        return ZeroSet(())
    if card == 2:
        return ZeroSet.of([odd_multiples(Fraction(1, 2))])
    if card == 3:
        _, a, b = ints
        if {a % 3, b % 3} != {1, 2}:
            return ZeroSet(())
        return ZeroSet.of([ScaledResidues(Fraction(1, 3), 3, frozenset({1, 2}))])

    shape = four_digit_shape(ints)
    if shape is None:
        return ZeroSet(())
    a, b, c, t1, ell1, t2, ell2 = shape
    p1 = math.gcd(a, abs(c - b))
    p2 = math.gcd(c, abs(b - a))
    parts = [odd_multiples(Fraction(1, 2 * p1)), odd_multiples(Fraction(1, 2 * p2))]
    if t1 == t2:
        p3 = math.gcd(ell1, ell2)
        parts.append(odd_multiples(Fraction(1, (1 << (1 + t1)) * p3)))
    return ZeroSet.of(parts)


def zero_set_member_batch(zs: ZeroSet, q: int, numerators: np.ndarray) -> np.ndarray:
    """Vectorized membership of p/q in a zero set for every p in `numerators`."""
    p = np.asarray(numerators, dtype=np.int64)
    out = np.zeros(p.shape, dtype=bool)
    for part in zs.parts:
        num = p * part.scale.denominator
        den = q * part.scale.numerator
        integral = num % den == 0
        n = np.where(integral, num // den, 0)
        hit = integral & np.isin(n % part.modulus, sorted(part.residues))
        out |= hit
    return out


DigitsLike = Union[NormalizedDigits, DigitSet, Iterable]


def _normalized_with_scale(digits: DigitsLike) -> tuple[NormalizedDigits, Fraction]:
    """Canonical form plus the rational scale mapping it back to the input."""
    if isinstance(digits, NormalizedDigits):
        return digits, Fraction(1)
    ds = digits if isinstance(digits, DigitSet) else DigitSet.of([as_digit(d) for d in digits])
    norm = normalize_digits(ds)
    if isinstance(norm, IrreducibleWitness):
        raise InvalidInput(f"digits have an irrational ratio: {norm.to_json()}")
    if not norm.scale.is_rational:
        raise InvalidInput("digit scale is irrational; pass the normalized integer digits")
    return norm, norm.scale.rational


def mask_zero_set(digits: DigitsLike) -> ZeroSet:
    """Zero set of the mask of the digits exactly as given.

    The digits are normalized internally; the canonical zero set is rescaled
    by 1/scale, so e.g. {0, 2} yields (1/4)*odd rather than (1/2)*odd.
    """
    norm, alpha = _normalized_with_scale(digits)
    return zero_set(norm).scaled(1 / alpha)


def mu_zero_member(digits: DigitsLike, n_ratio: int, xi: Fraction) -> bool:
    """Exact membership of xi in the self-similar transform's zero set.

    The measure is mu_{1/N, D} for the digits D as given, whose transform
    vanishes exactly on the union over k >= 1 of N**k times the mask zeros.
    Each residue family has a least positive element, so k is bounded by
    log_N(|xi| / scale) and the scan below terminates.
    """
    xi = Fraction(xi)
    if xi == 0:
        raise InvalidInput("0 is never in the zero set")
    if n_ratio < 2:
        raise InvalidInput("N must be >= 2")
    zs = mask_zero_set(digits)
    for part in zs.parts:
        s = abs(xi) / (part.scale * n_ratio)
        value = xi / (part.scale * n_ratio)
        while s >= 1:
            if value.denominator == 1 and value.numerator % part.modulus in part.residues:
                return True
            s /= n_ratio
            value /= n_ratio
    return False
