"""Exact Hadamard triples, product-form decompositions, and tilings of Z_N.

A triple (N, D, L) with #D == #L is Hadamard when the #D x #D matrix
exp(2*pi*i*d*l/N)/sqrt(#D) is unitary, equivalently when the mask of D
vanishes at (l - l')/N for every pair of distinct rows.  All checks here are
exact (the pairing rule of `zeros.mask_vanishes`); the floating-point
unitarity cross-check lives in the numerics module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .exact import InvalidInput, Unsupported, as_n_ratio, integer_digits, integer_points
from .zeros import _vanishes_at

# `find_spectrum_set` fills a table of N entries; larger N is refused up front.
MAX_SEARCH_N = 1 << 16

# Most decimal digits of a product-form digit: Python's default int-to-text
# limit, or the limit in force (`sys.get_int_max_str_digits`) when it is lower.
MAX_CERTIFICATE_DIGITS = 4300
_CERTIFICATE_CEILING = 10**MAX_CERTIFICATE_DIGITS


def is_hadamard_triple(n_ratio: int, digits: Iterable[int], spectrum: Iterable[int]) -> bool:
    """Exact decision: does (N, D, L) form a Hadamard triple?"""
    return _is_hadamard(as_n_ratio(n_ratio), integer_digits(digits), integer_points(spectrum))


# Distinct (N, D, L) triples `_is_hadamard` keeps answers for: the bound-30
# four-digit scan (N 2..64) checks 3,160 of them, the bound-47 scan 7,593.
HADAMARD_CACHE_SIZE = 4096


@lru_cache(maxsize=HADAMARD_CACHE_SIZE)
def _is_hadamard(n_ratio: int, d: tuple[int, ...], l: tuple[int, ...]) -> bool:
    """`is_hadamard_triple` on `as_n_ratio`, `integer_digits` and
    `integer_points` output, which certificates store; pure, so memoized."""
    if len(d) != len(l):
        raise InvalidInput(f"#D = {len(d)} and #L = {len(l)} must agree")
    return all(_vanishes_at(d, l1 - l2, n_ratio) for i, l1 in enumerate(l) for l2 in l[i + 1 :])


@dataclass(frozen=True)
class HadamardTriple:
    """An (N, D, L) triple; `verify` decides it exactly on every call."""

    n_ratio: int
    digits: tuple[int, ...]
    spectrum: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_ratio", as_n_ratio(self.n_ratio))
        object.__setattr__(self, "digits", integer_digits(self.digits))
        object.__setattr__(self, "spectrum", integer_points(self.spectrum))
        if len(self.digits) != len(self.spectrum):
            raise InvalidInput("digit and spectrum sets must have equal size")

    def verify(self) -> bool:
        return _is_hadamard(self.n_ratio, self.digits, self.spectrum)

    def to_json(self) -> dict:
        return {
            "kind": "hadamard-triple",
            "N": self.n_ratio,
            "D": list(self.digits),
            "L": list(self.spectrum),
            "verified": self.verify(),
        }

    def describe(self) -> str:
        return f"Hadamard triple N={self.n_ratio}, D={list(self.digits)}, L={list(self.spectrum)}"


def find_spectrum_set(n_ratio: int, digits: Iterable[int]) -> tuple[int, ...] | None:
    """Lexicographically smallest L in {0..N-1} with 0 in L making (N, D, L)
    a Hadamard triple, or None when no such spectrum set exists."""
    n_ratio = as_n_ratio(n_ratio)
    if n_ratio > MAX_SEARCH_N:
        raise InvalidInput(f"N = {n_ratio} exceeds the spectrum-set search cap of {MAX_SEARCH_N}")
    d = tuple(sorted(integer_digits(digits)))
    k = len(d)
    if k > n_ratio:
        return None
    ok = [False] * n_ratio
    for delta in range(1, n_ratio):
        ok[delta] = _vanishes_at(d, delta, n_ratio)

    def extend(partial: list[int]) -> tuple[int, ...] | None:
        if len(partial) == k:
            return tuple(partial)
        start = partial[-1] + 1
        for cand in range(start, n_ratio):
            if all(ok[cand - prev] for prev in partial):
                found = extend(partial + [cand])
                if found is not None:
                    return found
        return None

    return extend([0])


def direct_sum(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...] | None:
    """a + b with all sums distinct (full cardinality), else None."""
    sums = tuple(sorted(x + y for x in a for y in b))
    if len(set(sums)) != len(a) * len(b):
        return None
    return sums


class StructureDecomposition(NamedTuple):
    """Shape certificate for a spectral four-digit system.

    The digits are {0, a, 2**t * ell, a + 2**t * ell_prime} with a, ell,
    ell_prime odd; the inverse contraction ratio is N = 2**beta * m with m
    odd, and beta does not divide t, so t = beta*k + r with 0 < r < beta.
    `construct_product_form` refuses any other decomposition.
    """

    a: int
    t: int
    ell: int
    ell_prime: int
    beta: int
    m: int

    @property
    def k(self) -> int:
        return self.t // self.beta

    @property
    def r(self) -> int:
        return self.t % self.beta

    @property
    def n_ratio(self) -> int:
        return (1 << self.beta) * self.m

    def to_json(self) -> dict:
        return {**self._asdict(), "k": self.k, "r": self.r}


@dataclass(frozen=True)
class ProductForm:
    """A product-form Hadamard decomposition.

    The encoded digit set is the disjoint union over a in A of a + N*B_a.
    Verification demands that (N, A, L1) and every (N, B_a, L2) be Hadamard
    triples, and that every (N, A (+) B_a, L1 (+) L2) be one as well, with
    both direct sums collision-free.  The blocks are coerced by
    `integer_digits` when the form is built.  ``decomposition`` is the
    structure decomposition the form was built from (`construct_product_form`),
    if any; it is reported but takes no part in equality or verification.
    """

    n_ratio: int
    a_set: tuple[int, ...]
    b_sets: tuple[tuple[int, ...], ...]
    l1: tuple[int, ...]
    l2: tuple[int, ...]
    decomposition: StructureDecomposition | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_ratio", as_n_ratio(self.n_ratio))
        object.__setattr__(self, "a_set", integer_digits(self.a_set))
        object.__setattr__(self, "b_sets", tuple(map(integer_digits, self.b_sets)))
        object.__setattr__(self, "l1", integer_points(self.l1))
        object.__setattr__(self, "l2", integer_points(self.l2))
        if len(self.a_set) != len(self.b_sets):
            raise InvalidInput("need one B block per element of A")
        if len(self.a_set) != len(self.l1):
            raise InvalidInput("A and L1 must have equal size")
        if any(len(bs) != len(self.l2) for bs in self.b_sets):
            raise InvalidInput("each B block and L2 must have equal size")

    def reconstruct_digits(self) -> tuple[int, ...] | None:
        """The union of the blocks a + N*B_a, or None if any elements collide."""
        pieces = [a + self.n_ratio * b for a, bs in zip(self.a_set, self.b_sets) for b in bs]
        if len(set(pieces)) != len(pieces):
            return None
        return tuple(sorted(pieces))

    def verify(self) -> bool:
        return verify_product_form(self)

    def to_json(self) -> dict:
        out = {
            "kind": "product-form",
            "N": self.n_ratio,
            "A": list(self.a_set),
            "B": {str(a): list(bs) for a, bs in zip(self.a_set, self.b_sets)},
            "L1": list(self.l1),
            "L2": list(self.l2),
            "digits": list(self.reconstruct_digits() or ()),
            "verified": self.verify(),
        }
        if self.decomposition is not None:
            out["decomposition"] = self.decomposition.to_json()
        return out

    def describe(self) -> str:
        blocks = "; ".join(f"B[{a}]={list(bs)}" for a, bs in zip(self.a_set, self.b_sets))
        form = (
            f"product form: N={self.n_ratio}, A={list(self.a_set)}, {blocks}, "
            f"L1={list(self.l1)}, L2={list(self.l2)}"
        )
        d = self.decomposition
        if d is None:
            return form
        return (
            "decomposition "
            f"a={d.a} t={d.t} ell={d.ell} ell'={d.ell_prime} beta={d.beta} m={d.m} k={d.k} r={d.r}"
            f"\n  {form}"
        )


def verify_product_form(pf: ProductForm) -> bool:
    """Exact check of every product-form condition; False on any failure."""
    if pf.reconstruct_digits() is None or not _is_hadamard(pf.n_ratio, pf.a_set, pf.l1):
        return False
    lsum = direct_sum(pf.l1, pf.l2)
    return lsum is not None and all(
        _is_hadamard(pf.n_ratio, bs, pf.l2)
        and (dsum := direct_sum(pf.a_set, bs)) is not None
        and _is_hadamard(pf.n_ratio, dsum, lsum)
        for bs in pf.b_sets
    )


def construct_product_form(dec: StructureDecomposition) -> ProductForm:
    """Build the product-form witness for a decomposition, unverified: its
    callers check it once (`classify.classify` and the scan do).

    The blocks follow the one-stage construction: A = {0, a*m**k} with the two
    B blocks {0, 2**r * ell} and {0, 2**r * ell'}, L1 = {0, N/2} and
    L2 = {0, l} for the least l that makes both B blocks Hadamard with it.
    A digit past MAX_CERTIFICATE_DIGITS decimal digits, or past a lower
    nonzero int-to-text limit, is refused (Unsupported) unbuilt.
    """
    if min(dec.a, dec.ell, dec.ell_prime) < 1 or not all(v % 2 for v in (dec.a, dec.ell, dec.ell_prime, dec.m)):
        raise InvalidInput("a, ell, ell_prime, m must be positive odd integers")
    if dec.t < 1 or dec.beta < 1 or dec.t % dec.beta == 0:
        raise InvalidInput("t >= 1 and beta >= 1 required, with beta not dividing t")
    # The largest digit is a*m**k + N*2**r*ell' or N*2**r*ell; as m**k >= 2**(k*(bits of m - 1)), a large k needs no m**k.
    n_ratio, k, r = dec.n_ratio, dec.k, dec.r
    limit = sys.get_int_max_str_digits()
    if 0 < limit < MAX_CERTIFICATE_DIGITS:  # 0 is no limit
        ceiling = 10**limit
    else:
        limit, ceiling = MAX_CERTIFICATE_DIGITS, _CERTIFICATE_CEILING
    a_mk = ceiling if k * (dec.m.bit_length() - 1) >= ceiling.bit_length() else dec.a * dec.m**k
    if max(a_mk + (n_ratio << r) * dec.ell_prime, (n_ratio << r) * dec.ell) >= ceiling:
        raise Unsupported(f"the product-form certificate would hold a digit of more than {limit} decimal digits")
    b_sets = ((0, (1 << r) * dec.ell), (0, (1 << r) * dec.ell_prime))
    # (N, {0, 2**r * x}, {0, l}) is Hadamard iff l = 2**(beta-r-1) * (m/gcd(m, x)) * odd,
    # so `step` (<= N/4) is the least l serving both blocks.  (N, A, L1) holds as
    # a*m**k is odd, the direct sums cannot collide, and the mask of {0, x, y, x+y}
    # is the product of the masks of {0, x} and {0, y}, so the sum triple holds.
    step = math.lcm(*(dec.m // math.gcd(dec.m, x) for x in (dec.ell, dec.ell_prime))) << (dec.beta - r - 1)
    return ProductForm(n_ratio, (0, a_mk), b_sets, (0, n_ratio // 2), (0, step), dec)


def tiles_zn(c_set: Iterable[int], n_ratio: int) -> tuple[int, ...] | None:
    """A complement B with C (+) B a complete residue system mod N, or None.

    Backtracking over the candidates that can cover the smallest uncovered
    residue; complements are searched with 0 in B, which loses no generality.
    Each placed block covers that residue, so the next one lies further on;
    N < 1 and N > MAX_SEARCH_N are refused up front.
    """
    n_ratio = as_n_ratio(n_ratio, least=1)
    if n_ratio > MAX_SEARCH_N:
        raise InvalidInput(f"N = {n_ratio} exceeds the tiling search cap of {MAX_SEARCH_N}")
    c = integer_digits(c_set)
    if n_ratio % len(c) != 0:
        return None
    c_mod = sorted(x % n_ratio for x in c)
    if len(set(c_mod)) != len(c_mod):
        return None
    covered = [False] * n_ratio
    chosen: list[int] = []
    # One frame per block: the residue it covers and the translates b covering
    # it still to try, in increasing order.  The first block is C itself.
    frames = [(0, iter((0,)))]
    while frames:
        u, untried = frames[-1]
        b = next((b for b in untried if not any(covered[(x + b) % n_ratio] for x in c_mod)), None)
        if b is None:  # none fits: the frame below takes its block back and tries its next
            frames.pop()
            if chosen:
                b = chosen.pop()
                for x in c_mod:
                    covered[(x + b) % n_ratio] = False
            continue
        for x in c_mod:
            covered[(x + b) % n_ratio] = True
        chosen.append(b)
        if len(chosen) == n_ratio // len(c):
            return tuple(sorted(chosen))
        while covered[u]:
            u += 1
        frames.append((u, iter(sorted({(u - x) % n_ratio for x in c_mod}))))
    return None
