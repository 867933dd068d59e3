"""Exact mask zero tests and symbolic zero sets.

The mask of a digit set D at a rational point xi = p/q is (up to the 1/#D
factor) a sum of q-th roots of unity.  The only minimal vanishing sums of at
most four roots of unity are rotations of 1 + (-1) and 1 + w + w**2 (Poonen &
Rubinstein, SIAM J. Discrete Math. 11 (1998); Lam & Leung, J. Algebra 224
(2000)), so for up to four digits the sum vanishes exactly when its exponents
split into antipodal pairs {e, e + q/2}, or form one rotated triangle
{e, e + q/3, e + 2q/3}.  `mask_vanishes` applies that pairing rule for any q.

Two independent routes serve as its oracles: the cyclotomic route (the
coefficient vector reduced modulo Phi_q is zero, `mask_value`, q <= 512) and
the closed-form zero sets of masks with up to four digits, finite unions of
scaled residue families.  The test suite checks all three against each other;
the vectorized batch forms of the two oracles that it uses live in the tests.
Every route here computes in Python integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence, Union

from .exact import (
    InternalInconsistency,
    InvalidInput,
    NormalizedDigits,
    Unsupported,
    as_n_ratio,
    digit_values,
    four_digit_shape,
    integer_digits,
    normalize_digits,
)

# Largest modulus of the cyclotomic route (power tables modulo Phi_q); the
# pairing rule needs no table and covers every q for up to four digits.
_TABLE_MAX = 512


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
    Orders above 512, the cyclotomic route's range, raise Unsupported, so the
    cache holds at most 512 entries.
    """
    if q < 1:
        raise InvalidInput("cyclotomic order must be >= 1")
    if q > _TABLE_MAX:
        raise Unsupported(f"cyclotomic polynomials support orders up to {_TABLE_MAX}, got {q}")
    num = [0] * (q + 1)
    num[0], num[q] = -1, 1
    for d in range(1, q):
        if q % d == 0:
            num = _poly_exact_div(num, cyclotomic_poly(d))
    return tuple(num)


# Tables kept by `_power_table`: 24 is the most divisors of any q <= 512, so one
# five-digit spectrum-set search (its moduli divide N) builds each table once.
POWER_TABLE_CACHE_SIZE = 24


@lru_cache(maxsize=POWER_TABLE_CACHE_SIZE)
def _power_table(q: int) -> tuple[tuple[int, ...], ...]:
    """Row e is x**e reduced modulo Phi_q, for e in 0..q-1."""
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


class CyclotomicValue(NamedTuple):
    """An element of Z[e^(2*pi*i/order)] in the power basis modulo Phi_order."""

    order: int
    coefficients: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return not any(self.coefficients)


def mask_value(digits: Union[NormalizedDigits, Iterable[int]], xi: Fraction) -> CyclotomicValue:
    """Exact value of sum(exp(-2*pi*i*d*xi)) over integer digits d.

    This is #D times the mask function; it is zero exactly when the mask is.
    Only denominators q <= 512 are supported (the oracle range of the
    cyclotomic route); larger q raise Unsupported.
    """
    xi = Fraction(xi)
    p, q = xi.numerator, xi.denominator
    if q > _TABLE_MAX:
        raise Unsupported(f"cyclotomic mask values support denominators up to {_TABLE_MAX}, got {q}")
    table = _power_table(q)
    rows = [table[(-d * p) % q] for d in integer_digits(digits)]
    return CyclotomicValue(q, tuple(map(sum, zip(*rows))))


def _antipodal_pairs(exps: Sequence[int], q: int) -> bool:
    """Whether two or four exponents mod q split into antipodal pairs {e, e + q/2}."""
    if q % 2:
        return False
    half = q // 2
    for j in range(1, len(exps)):
        if (exps[j] - exps[0]) % q == half:
            rest = exps[1:j] + exps[j + 1 :]
            if not rest or (rest[1] - rest[0]) % q == half:
                return True
    return False


def _vanishes_at(ints: Sequence[int], p: int, q: int) -> bool:
    """Exact zero test of the mask of `integer_digits` output at p/q, q >= 1
    in any terms: up to four digits by the pairing rule, O(#D**2) integer work
    for any q; five or more by the cyclotomic route, so q must reduce to <= 512."""
    if len(ints) > 4:
        return mask_value(ints, Fraction(p, q)).is_zero
    exps = [d * p % q for d in ints]
    if len(exps) == 3:
        return q % 3 == 0 and sorted((e - exps[0]) % q for e in exps[1:]) == [q // 3, 2 * q // 3]
    return _antipodal_pairs(exps, q)


def mask_vanishes(digits: Union[NormalizedDigits, Iterable[int]], xi: Fraction) -> bool:
    """Exact zero test of the mask of integer digits (others are refused) at the rational xi."""
    xi = Fraction(xi)
    return _vanishes_at(integer_digits(digits), xi.numerator, xi.denominator)


@dataclass(frozen=True)
class ScaledResidues:
    """The set {scale * n : n an integer not divisible by modulus}.

    scale is a positive rational and modulus is 2 or 3, the two shapes the
    zero sets take: beta * (odd integers) and beta * (integers not divisible
    by 3).  0 never belongs.
    """

    scale: Fraction
    modulus: int

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise InvalidInput("scale must be positive")
        if self.modulus not in (2, 3):
            raise InvalidInput("modulus must be 2 or 3")

    @property
    def residues(self) -> frozenset[int]:
        return frozenset(range(1, self.modulus))

    def member(self, xi: Fraction) -> bool:
        n = Fraction(xi) / self.scale
        return n.denominator == 1 and n.numerator % self.modulus != 0

    def contains_part(self, other: "ScaledResidues") -> bool:
        """Containment test; only decided for equal moduli (enough to merge).
        The modulus is prime, so k * n avoids its multiples for every such n
        exactly when k does."""
        if self.modulus != other.modulus:
            return False
        k = other.scale / self.scale
        return k.denominator == 1 and k.numerator % self.modulus != 0

    def scaled(self, c: Fraction) -> "ScaledResidues":
        return ScaledResidues(self.scale * c, self.modulus)

    def to_json(self) -> dict:
        return {"scale": str(self.scale), "modulus": self.modulus, "residues": sorted(self.residues)}

    def __str__(self) -> str:
        return f"{self.scale}*odd" if self.modulus == 2 else f"{self.scale}*(n % 3 in {{1,2}})"


def odd_multiples(scale: Fraction) -> ScaledResidues:
    return ScaledResidues(Fraction(scale), 2)


class ZeroSet(NamedTuple):
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


# Zero sets kept by `zero_set`; a scan asks for each digit set's once, so the
# cache only has to serve repeated library calls.
ZERO_SET_CACHE_SIZE = 1024


@lru_cache(maxsize=ZERO_SET_CACHE_SIZE)
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
        return ZeroSet.of([ScaledResidues(Fraction(1, 3), 3)])

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


DigitsLike = Union[NormalizedDigits, Iterable]


def mask_zero_set(digits: DigitsLike) -> ZeroSet:
    """Zero set of the mask of the digits exactly as given.

    The digits are read by `digit_values`, which refuses t, so their scale is
    rational; the canonical zero set is rescaled by 1/scale: {0, 2} yields (1/4)*odd.
    """
    if isinstance(digits, NormalizedDigits):
        return zero_set(digits)
    norm = normalize_digits(digit_values(digits))
    return zero_set(norm).scaled(1 / norm.scale.rational)


class MuZeroTest(NamedTuple):
    """Membership of u/den in the transform's zero set for nonzero integers u;
    built by `mu_zero_test`."""

    mask_zeros: ZeroSet
    n_ratio: int
    den: int

    def __call__(self, u: int) -> bool:
        if u == 0:
            raise InvalidInput("0 is never in the zero set")
        n_ratio, den = self.n_ratio, self.den  # read once: a NamedTuple field read is slow in this loop
        for part in self.mask_zeros.parts:
            # u/den = scale * N**k * n with scale = a/b means n = u*b / (den*a*N**k),
            # and n is an integer at level k only if it is one at level k - 1.
            num, divisor = u * part.scale.denominator, den * part.scale.numerator
            if num % divisor:
                continue
            n = num // divisor
            while n % n_ratio == 0:
                n //= n_ratio
                if n % part.modulus:
                    return True
        return False


def mu_zero_test(digits: DigitsLike, n_ratio: int, den: int = 1) -> MuZeroTest:
    """The zero test of mu_{1/N, D} at the points u/den, u a nonzero integer.

    The digits are normalized once.  The transform vanishes exactly on the
    union over k >= 1 of N**k times the mask zeros (Jorgensen & Pedersen,
    J. Anal. Math. 75 (1998)).
    """
    n_ratio = as_n_ratio(n_ratio)
    if den < 1:
        raise InvalidInput("the common denominator must be >= 1")
    return MuZeroTest(mask_zero_set(digits), n_ratio, den)


def mu_zero_member(digits: DigitsLike, n_ratio: int, xi: Fraction) -> bool:
    """Exact membership of xi in the self-similar transform's zero set.

    The measure is mu_{1/N, D} for the digits D as given; see `mu_zero_test`.
    """
    xi = Fraction(xi)
    return mu_zero_test(digits, n_ratio, xi.denominator)(xi.numerator)
