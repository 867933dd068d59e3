"""Exact scalars and canonical digit-set normalization.

Everything in this module is immutable and pure.  Rational scalars are
``fractions.Fraction`` throughout; a digit may additionally carry a multiple
of one shared symbolic irrational ``t``, which is all the downstream
classification needs (it only ever has to *detect* an irrational ratio, never
compute with one).
"""

from __future__ import annotations

import math
import numbers
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union


class InvalidInput(ValueError):
    """A structurally invalid argument (duplicate digits, bad weights, ...)."""


class Unsupported(ValueError):
    """Input outside the supported range (five or more digits)."""


class InternalInconsistency(RuntimeError):
    """An exact internal result failed its own check (a certificate that does
    not verify, a polynomial division that must be exact and was not)."""


RationalLike = Union[Fraction, int, str]


def _fraction(text: str) -> Fraction:
    """The Fraction of well-formed ``"p/q"`` or ``"p"`` text; q = 0 and overlong text are refused."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InvalidInput(f"zero denominator: {text!r}") from None
    except ValueError as exc:  # the int-from-text limit, which names itself
        raise InvalidInput(str(exc)) from None


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` into a Fraction, rejecting anything else."""
    s = text.strip()
    if not re.fullmatch(r"-?\d+(/\d+)?", s):
        raise InvalidInput(f"malformed rational: {text!r}")
    return _fraction(s)


def as_fraction(x: RationalLike) -> Fraction:
    """An exact rational: an integer (any `numbers.Integral`), a Fraction or a
    ``"p/q"`` string.  Floats are refused."""
    if type(x) is int:  # the common case, ahead of the slower ABC check below
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    if isinstance(x, str):
        return parse_rational(x)
    raise InvalidInput(f"not a rational value: {x!r}")


def as_n_ratio(n, least: int = 2) -> int:
    """The inverse ratio N as an int: an integer (any type with `__index__`)
    of at least `least`; floats such as 4.0 and anything smaller raise
    InvalidInput."""
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidInput(f"N must be an integer, got {n!r}") from None
    if n < least:
        raise InvalidInput(f"N must be >= {least}")
    return n


_DIGIT_RE = re.compile(
    r"""^\s*
        (?:(?P<rat>-?\d+(?:/\d+)?)\s*)?            # optional rational part
        (?:(?(rat)\+\s*)                           # '+' required if both parts
           (?:(?P<coef>-?\d+(?:/\d+)?)\s*\*?\s*)?  # optional coefficient
           t)?
        \s*$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class Digit:
    """A digit value ``rational + tau_coeff * t`` for one shared irrational t.

    ``tau_coeff == 0`` gives an ordinary rational digit.  Components are ints
    or Fractions (`as_digit` keeps integral values as ints) and must be
    non-negative so the digit is non-negative for every positive ``t``.
    """

    rational: Union[int, Fraction]
    tau_coeff: Union[int, Fraction] = 0

    def __post_init__(self) -> None:
        if self.rational < 0 or self.tau_coeff < 0:
            raise InvalidInput(f"digit components must be non-negative: {self}")

    @property
    def is_rational(self) -> bool:
        return not self.tau_coeff

    @property
    def is_zero(self) -> bool:
        return not self.rational and not self.tau_coeff

    def sort_key(self) -> tuple[Union[int, Fraction], Union[int, Fraction]]:
        # Convention: t sorts above every rational (t is "large").
        return (self.tau_coeff, self.rational)

    def scaled(self, c: Fraction) -> "Digit":
        return Digit(self.rational * c, self.tau_coeff * c)

    def __str__(self) -> str:
        if not self.tau_coeff:
            return str(self.rational)
        tau = f"{self.tau_coeff}*t"
        if not self.rational:
            return tau
        return f"{self.rational} + {tau}"


DigitLike = Union[Digit, RationalLike]


def parse_digit(text: str) -> Digit:
    """Parse a digit: ``"p/q"``, ``"p/q + r/s*t"``, ``"r/s t"``, ``"t"``, ...

    The canonical form is ``p/q + r/s*t``; the ``*`` and spaces are optional.
    """
    m = _DIGIT_RE.match(text)
    if m is None or (m.group("rat") is None and "t" not in text):
        raise InvalidInput(f"malformed digit: {text!r}")
    rat = m.group("rat") or "0"
    coef = m.group("coef") or ("1" if "t" in text else "0")
    return Digit(_integral(_fraction(rat)), _integral(_fraction(coef)))


def _integral(v: Fraction) -> Union[int, Fraction]:
    return v.numerator if v.denominator == 1 else v


def as_digit(x: DigitLike) -> Digit:
    """A Digit from a Digit, digit text or an exact rational; an integral
    rational gives an int component, as in `digit_values`."""
    if type(x) is int:
        return Digit(x)
    if isinstance(x, Digit):
        return x
    if isinstance(x, str):
        return parse_digit(x)
    return Digit(_integral(as_fraction(x)))


def _digit_value(x: DigitLike) -> Union[int, Fraction]:
    if isinstance(x, Digit):
        if not x.is_rational:
            raise InvalidInput(f"digit {x} carries the symbolic t, which only classify accepts")
        x = x.rational
    return _integral(as_fraction(x))


def digit_values(values: Union[NormalizedDigits, Iterable[DigitLike]]) -> tuple[Union[int, Fraction], ...]:
    """The digit rule of every layer that computes with digit values.

    A digit is an exact rational (see `as_fraction`) or a rational `Digit`;
    integral values come back as ints, plain ints untouched, and the rest as
    Fractions.  `NormalizedDigits` give their integers.  An empty set,
    repeated values and digits carrying the symbolic t raise InvalidInput.
    """
    if isinstance(values, NormalizedDigits):
        return values.integers
    out = tuple(v if type(v) is int else _digit_value(v) for v in values)
    if not out:
        raise InvalidInput("digit set is empty")
    if len(set(out)) != len(out):
        raise InvalidInput(f"repeated values in {{{', '.join(map(str, out))}}}")
    return out


def integer_digits(values: Union[NormalizedDigits, Iterable[DigitLike]]) -> tuple[int, ...]:
    """`digit_values` where integers are needed: other values raise InvalidInput."""
    out = digit_values(values)
    if any(type(v) is not int for v in out):
        raise InvalidInput(f"integer values required here, got {{{', '.join(map(str, out))}}}")
    return out


@dataclass(frozen=True)
class NormalizedDigits:
    """Canonical integer form of a digit set: digits = scale * integers.

    ``integers`` starts at 0, is strictly increasing, and the nonzero entries
    have gcd 1.  ``scale`` is rational in the ordinary case; when every digit
    is a rational multiple of one irrational value the scale carries that
    value (classification is scale-invariant, so nothing downstream cares).
    """

    scale: Digit
    integers: tuple[int, ...]

    def __post_init__(self) -> None:
        ints = self.integers
        if not ints or ints[0] != 0:
            raise InvalidInput("normalized digits must start at 0")
        if any(b <= a for a, b in zip(ints, ints[1:])):
            raise InvalidInput("normalized digits must be strictly increasing")
        nonzero = [n for n in ints if n]
        if nonzero and math.gcd(*nonzero) != 1:
            raise InvalidInput("normalized digits must have gcd 1")
        if self.scale.is_zero:
            raise InvalidInput("scale must be positive")

    @property
    def cardinality(self) -> int:
        return len(self.integers)

    def to_json(self) -> dict:
        return {"scale": str(self.scale), "integers": list(self.integers)}


class IrreducibleWitness(NamedTuple):
    """Two digits whose ratio is irrational; no integer rescaling exists."""

    numerator: Digit
    denominator: Digit

    def to_json(self) -> dict:
        return {
            "irrational_ratio": {
                "numerator": str(self.numerator),
                "denominator": str(self.denominator),
            }
        }


def _normalize_rationals(values: Sequence[Union[int, Fraction]]) -> tuple[Fraction, tuple[int, ...]]:
    """Scale positive rationals {v_i} (ints or Fractions) to coprime integers
    in integer arithmetic; returns (alpha, C) with alpha a Fraction."""
    lcm = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (lcm // v.denominator) for v in values]
    g = math.gcd(*ints)
    alpha = Fraction(g, lcm)
    return alpha, tuple(n // g for n in ints)


def normalize_digits(values: Iterable[DigitLike]) -> Union[NormalizedDigits, IrreducibleWitness]:
    """Check digits (see `as_digit`, any order) and reduce them to their
    canonical integer form, or witness failure.

    The one digit-set check: an empty set, a repeated digit and a set without
    0 raise InvalidInput, then five or more digits raise Unsupported (the mask
    of {0, 1, 2, 3, 4} vanishes at 1/5, beyond the pairing rule).  Rational
    digits always normalize; digits carrying the symbolic irrational do
    exactly when every pairwise ratio of nonzero digits is rational
    (cross-ratio test p*q' == p'*q), else the offending pair is returned as
    an :class:`IrreducibleWitness`.
    """
    digits = tuple(map(as_digit, values))
    if not digits:
        raise InvalidInput("digit set is empty")
    if len(set(digits)) != len(digits):
        raise InvalidInput("duplicate digits")
    digits = sorted(digits, key=Digit.sort_key)
    if not digits[0].is_zero:
        raise InvalidInput("0 must be a digit (translate the set first)")
    if len(digits) > 4:
        raise Unsupported(f"{len(digits)} digits: only 1..4 supported")
    nonzero = digits[1:]
    if not nonzero:
        return NormalizedDigits(Digit(Fraction(1)), (0,))

    if all(v.is_rational for v in nonzero):
        alpha, ints = _normalize_rationals([v.rational for v in nonzero])
        return NormalizedDigits(Digit(alpha), (0, *ints))

    # All pairs are checked so the witness names an actual offending ratio.
    for i, u in enumerate(nonzero):
        for v in nonzero[i + 1 :]:
            if u.rational * v.tau_coeff != v.rational * u.tau_coeff:
                return IrreducibleWitness(v, u)

    # base has the least t-coefficient, which is positive: else the test above failed.
    base = nonzero[0]
    alpha, ints = _normalize_rationals([Fraction(v.tau_coeff, base.tau_coeff) for v in nonzero])
    return NormalizedDigits(base.scaled(alpha), (0, *ints))


def val2(n: int) -> tuple[int, int]:
    """2-adic valuation: n = 2**t * odd_part with t maximal; n must be >= 1."""
    if n < 1:
        raise InvalidInput(f"val2 needs a positive integer, got {n}")
    t = (n & -n).bit_length() - 1
    return t, n >> t


class FourDigitShape(NamedTuple):
    """The structure of a four-digit integer set {0, a, b, c} with a < c odd
    and b even: b = 2**t1 * ell1 and c - a = 2**t2 * ell2, ell1 and ell2 odd."""

    a: int
    b: int
    c: int
    t1: int
    ell1: int
    t2: int
    ell2: int


def four_digit_shape(integers: Sequence[int]) -> FourDigitShape | None:
    """Shape of the integer digits {0, x, y, z}; None unless exactly two of
    x, y, z are odd (the only four-digit sets whose mask vanishes)."""
    if len(integers) != 4:
        raise InvalidInput(f"four_digit_shape needs four digits, got {tuple(integers)}")
    rest = integers[1:]
    odds = [d for d in rest if d % 2]
    if len(odds) != 2:
        return None
    a, c = min(odds), max(odds)
    b = next(d for d in rest if d % 2 == 0)
    return FourDigitShape(a, b, c, *val2(b), *val2(c - a))


def _integer_nth_root(n: int, k: int) -> int | None:
    """The exact k-th root of n >= 1, or None if n is not a perfect power."""
    # Integer Newton iteration from 2**ceil(bits/k) >= the root; it decreases
    # strictly until it reaches floor(n ** (1/k)).
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x if x**k == n else None
        x = y


@dataclass(frozen=True)
class ContractionRatio:
    """A contraction ratio base**(1/root_degree) in (0, 1).

    ``root_degree == 1`` is the rational case.  Construction reduces perfect
    powers, so e.g. (1/4)**(1/2) and (1/8)**(1/3) both canonicalize to the
    rational 1/2; a surviving ``root_degree >= 2`` is genuinely irrational.
    """

    base: Fraction
    root_degree: int = 1

    def __post_init__(self) -> None:
        if not (0 < self.base < 1):
            raise InvalidInput(f"ratio base must lie in (0, 1): {self.base}")
        if self.root_degree < 1:
            raise InvalidInput("root degree must be >= 1")
        # If base**(1/d) were again a perfect e-th power with e | r/d, base
        # would be a perfect (d*e)-th power; so the largest d that works leaves
        # nothing to reduce.  A denominator >= 2 that is a d-th power has more
        # than d bits.
        base, r = self.base, self.root_degree
        for d in range(min(r, base.denominator.bit_length()), 1, -1):
            if r % d:
                continue
            num = _integer_nth_root(base.numerator, d)
            den = _integer_nth_root(base.denominator, d)
            if num is not None and den is not None:
                base, r = Fraction(num, den), r // d
                break
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "root_degree", r)

    @classmethod
    def rational(cls, value: RationalLike) -> "ContractionRatio":
        return cls(as_fraction(value), 1)

    @classmethod
    def root(cls, n: int, m: int, r: int) -> "ContractionRatio":
        if m <= 0 or n <= 0:
            raise InvalidInput("root form needs positive n, m")
        return cls(Fraction(n, m), r)

    @property
    def is_rational(self) -> bool:
        return self.root_degree == 1

    def reciprocal_integer(self) -> int | None:
        """N with ratio == 1/N, or None (irrational or non-unit numerator)."""
        if self.root_degree == 1 and self.base.numerator == 1:
            return self.base.denominator
        return None

    def __str__(self) -> str:
        if self.root_degree == 1:
            return str(self.base)
        return f"({self.base})^(1/{self.root_degree})"


def weight_values(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    """Weights as a probability vector: exact rationals (see `as_fraction`),
    positive and summing to 1, refused in that order with InvalidInput."""
    weights = tuple(map(as_fraction, values))
    if not weights:
        raise InvalidInput("empty weight vector")
    if any(w <= 0 for w in weights):
        raise InvalidInput("weights must be positive")
    if sum(weights) != 1:
        raise InvalidInput("weights must sum to 1")
    return weights
