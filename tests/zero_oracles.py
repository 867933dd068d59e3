"""Vectorized batch forms of the two oracles of `ssmspec.zeros`.

The cyclotomic route (`mask_zero_batch`) and the closed-form zero sets
(`zero_set_member_batch`) decide p/q for a whole array of numerators p in
int64 arithmetic.  Acceptance criterion 4 compares the two on millions of
points.  Inputs whose products could wrap in int64 are refused, not wrapped.
"""

from functools import lru_cache
from typing import Iterable

import numpy as np

from ssmspec.exact import InternalInconsistency, InvalidInput, integer_digits
from ssmspec.zeros import _TABLE_MAX, ZeroSet, _power_table

# Power-table coefficients must stay well inside int64 for the summed rows.
_COEFF_BOUND = 1 << 40

# Batch products at or above this are refused rather than wrapped in int64.
_INT64_SAFE = 1 << 62


@lru_cache(maxsize=None)
def _int64_table(q: int) -> np.ndarray:
    """`_power_table(q)` as an int64 array, checked to stay well inside int64."""
    rows = _power_table(q)
    if max((abs(c) for row in rows for c in row), default=0) >= _COEFF_BOUND:
        raise InternalInconsistency(f"power-table coefficients too large for q={q}")
    return np.array(rows, dtype=np.int64)


def _int64_numerators(numerators: np.ndarray, factor: int) -> np.ndarray:
    """The numerators as int64, refusing any p with |p| * factor near 2**63."""
    p = np.asarray(numerators, dtype=np.int64)
    if max(int(p.max(initial=0)), -int(p.min(initial=0))) * factor >= _INT64_SAFE:
        raise InvalidInput(f"batch numerators times {factor} would overflow int64")
    return p


def mask_zero_batch(digits: Iterable[int], q: int, numerators: np.ndarray) -> np.ndarray:
    """Vectorized exact zero test of the mask at p/q for every p in `numerators`."""
    if q > _TABLE_MAX:
        raise InvalidInput(f"batch mask test supports denominators up to {_TABLE_MAX}")
    table = _int64_table(q)
    ints = integer_digits(digits)
    d = np.asarray(ints, dtype=np.int64)
    p = _int64_numerators(numerators, max(map(abs, ints), default=0))
    exps = (-(p[:, None] * d[None, :])) % q
    vals = table[exps].sum(axis=1)
    return ~vals.any(axis=1)


def zero_set_member_batch(zs: ZeroSet, q: int, numerators: np.ndarray) -> np.ndarray:
    """Vectorized membership of p/q in a zero set for every p in `numerators`."""
    factor = max((part.scale.denominator for part in zs.parts), default=0)
    p = _int64_numerators(numerators, factor)
    if any(q * part.scale.numerator >= _INT64_SAFE for part in zs.parts):
        raise InvalidInput(f"batch denominator {q} would overflow int64")
    out = np.zeros(p.shape, dtype=bool)
    for part in zs.parts:
        num = p * part.scale.denominator
        den = q * part.scale.numerator
        integral = num % den == 0
        n = np.where(integral, num // den, 0)
        out |= integral & (n % part.modulus != 0)
    return out
