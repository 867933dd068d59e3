"""The spectrality decision procedure for measures with up to four digits.

``classify`` runs a fixed pipeline of necessary conditions, each backed by a
published criterion, and stops at the first failure.  A surviving input is
spectral, and the verdict carries a machine-checkable certificate: a Dirac
mass for one digit, a Hadamard triple for two or three, or a verified product
form (with the structure decomposition it was built from) for four.  Each
certificate verifies, serializes and describes itself.  The pipeline reads
the digit set through ``digit_facts``, which does not depend on rho, so a
scan over many ratios derives those facts once per digit set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

from .exact import (
    ContractionRatio,
    FourDigitShape,
    InternalInconsistency,
    InvalidInput,
    IrreducibleWitness,
    NormalizedDigits,
    Unsupported,
    as_digit,
    four_digit_shape,
    normalize_digits,
    val2,
    weight_values,
)
from .hadamard import (
    HadamardTriple,
    ProductForm,
    StructureDecomposition,
    construct_product_form,
)
from .zeros import zero_set


class Outcome(Enum):
    SPECTRAL = "Spectral"
    NON_SPECTRAL = "NonSpectral"
    UNSUPPORTED = "Unsupported"


class Reason(Enum):
    """Closed enumeration of decision reasons, for downstream scan tooling.

    A four-digit set without exactly two odd digits, or a three-digit set not
    covering the residues {1, 2} mod 3, ends as ``EMPTY_ZERO_SET``.
    """

    UNEQUAL_WEIGHTS = "UnequalWeights"
    IRRATIONAL_DIGITS = "IrrationalDigits"
    EMPTY_ZERO_SET = "EmptyZeroSet"
    RHO_NOT_RECIPROCAL_INTEGER = "RhoNotReciprocalInteger"
    N_ODD = "NOdd"
    T_DISTINCT = "TDistinct"
    T_DIVISIBLE_BY_BETA = "TDivisibleByBeta"
    CARD3_N_NOT_DIVISIBLE_BY_3 = "Card3NNotDivisibleBy3"
    OK = "OK"
    UNSUPPORTED = "Unsupported"

    @property
    def outcome(self) -> Outcome:
        if self is Reason.OK:
            return Outcome.SPECTRAL
        return Outcome.UNSUPPORTED if self is Reason.UNSUPPORTED else Outcome.NON_SPECTRAL


CITATIONS = {
    "equal-weights": "Deng-Chen: a spectral self-similar measure has equal weights",
    "irrational-digits": "a four-digit system with an irrational digit ratio admits no spectrum",
    "card3-irrational": "a three-digit mask with an irrational digit ratio never vanishes",
    "empty-zero-set": "the mask transform never vanishes, so no two exponentials are orthogonal",
    "parity": "a four-digit integer mask vanishes somewhere iff exactly two of the nonzero digits are odd",
    "card3-residues": "a three-digit integer mask vanishes iff the digits cover the residues {1, 2} mod 3",
    "an-wang": "An-Wang: a mask zero set inside a lattice forces the inverse contraction ratio to be an integer",
    "zero-containment": "an inverse ratio coprime to the zero-set modulus keeps the transform's zeros inside the mask zeros, so orthogonal families stay finite",
    "bernoulli": "Dai: a two-digit (Bernoulli) measure with ratio 1/N is spectral iff N is even",
    "card3": "a three-digit measure with ratio 1/N is spectral iff the digits cover all residues mod 3 and 3 divides N",
    "card4": "a four-digit measure with ratio 1/(2^beta m) is spectral iff the two 2-adic digit valuations agree and beta does not divide them",
    "t-distinct": "unequal 2-adic valuations t1 != t2 leave every orthogonal family incomplete",
    "t-divisible": "a common valuation t divisible by beta leaves every orthogonal family incomplete",
    "product-form": "layered Hadamard triples in product form certify spectrality",
    "dirac": "a one-digit system is a Dirac mass; {0} is trivially a spectrum",
    "five-plus": "masks with five or more digits vanish beyond the pairing rule (e.g. {0,1,2,3,4} at 1/5); not modeled here",
}


@dataclass(frozen=True)
class Dirac:
    """The witness of a one-digit set: a Dirac mass, with spectrum {0}."""

    def verify(self) -> bool:
        return True

    def to_json(self) -> dict:
        return {"kind": "dirac", "spectrum": [0], "verified": self.verify()}

    def describe(self) -> str:
        return "Dirac mass with trivial spectrum {0}"


# The exactly verifiable witness a Spectral verdict carries.
Certificate = Union[Dirac, HadamardTriple, ProductForm]


class Verdict(NamedTuple):
    reason: Reason
    citations: tuple[str, ...]
    rho_text: str
    digit_text: tuple[str, ...]
    weight_text: Optional[tuple[str, ...]]
    normalized: Union[NormalizedDigits, IrreducibleWitness, None] = None
    certificate: Optional[Certificate] = None

    @property
    def outcome(self) -> Outcome:
        return self.reason.outcome

    def to_json(self) -> dict:
        out: dict = {
            "input": {
                "rho": self.rho_text,
                "digits": list(self.digit_text),
                "weights": list(self.weight_text) if self.weight_text else "uniform",
            },
            "outcome": self.outcome.value,
            "reason": self.reason.value,
            "citations": [CITATIONS[c] for c in self.citations],
        }
        if self.normalized is not None:
            out["normalized"] = self.normalized.to_json()
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


RhoLike = Union[ContractionRatio, Fraction, int, str]


def _as_ratio(rho: RhoLike) -> ContractionRatio:
    return rho if isinstance(rho, ContractionRatio) else ContractionRatio.rational(rho)


def hu_lau_infinite_bizero(rho: RhoLike) -> bool:
    """Does a Bernoulli-structure zero set admit an infinite orthogonal family?

    True exactly when rho = (n/m)**(1/r) with m even and n odd; a rational
    rho is the r = 1 case of its reduced fraction.
    """
    ratio = _as_ratio(rho)
    return ratio.base.denominator % 2 == 0 and ratio.base.numerator % 2 == 1


class DigitFacts(NamedTuple):
    """Everything `classify` reads from a digit set; no part depends on rho.

    ``normalized`` is what `normalize_digits` returned for one to four
    digits.  ``settled`` is the (reason, citations) the digits decide at every
    ratio (five or more digits, an irrational digit ratio, one digit, a mask
    that never vanishes), else None, when four digits keep their ``shape``.
    """

    digit_text: tuple[str, ...]
    normalized: Union[NormalizedDigits, IrreducibleWitness, None] = None
    settled: Optional[tuple[Reason, tuple[str, ...]]] = None
    shape: Optional[FourDigitShape] = None

    @property
    def cardinality(self) -> int:
        return len(self.digit_text)

    @property
    def supported(self) -> bool:
        return self.cardinality <= 4


def _texts(values: Iterable, what: str) -> tuple[str, ...]:
    """The text of each value; one past Python's int-to-text limit raises InvalidInput."""
    try:
        return tuple(map(str, values))
    except ValueError as exc:  # the limit's message names it
        raise InvalidInput(f"{what} is too long to print: {exc}") from None


def digit_facts(digits: Union[DigitFacts, NormalizedDigits, Iterable]) -> DigitFacts:
    """The rho-independent part of `classify`: the digit text, normalization,
    settled verdict and four-digit shape.  Build it once to classify one
    digit set at many ratios; a DigitFacts passes through unchanged.  A
    NormalizedDigits stands for its integers, as in `exact.digit_values`, so
    a record of scale 1 is taken as their normalization.  A digit whose text
    would pass Python's int-to-text limit raises InvalidInput."""
    if isinstance(digits, DigitFacts):
        return digits
    norm = None
    if isinstance(digits, NormalizedDigits):
        scale = digits.scale
        if not (scale.is_rational and scale.rational == 1 and digits.cardinality <= 4):
            return digit_facts(digits.integers)
        norm, raw = digits, digits.integers
    else:
        raw = tuple(map(as_digit, digits))
    digit_text = _texts(raw, "a digit")
    if norm is None:
        try:
            norm = normalize_digits(raw)
        except Unsupported:
            return DigitFacts(digit_text, settled=(Reason.UNSUPPORTED, ("five-plus",)))
        if isinstance(norm, IrreducibleWitness):
            if len(raw) == 4:
                return DigitFacts(digit_text, norm, (Reason.IRRATIONAL_DIGITS, ("irrational-digits",)))
            return DigitFacts(digit_text, norm, (Reason.EMPTY_ZERO_SET, ("card3-irrational", "empty-zero-set")))
    settled = shape = None
    if norm.cardinality == 1:
        settled = Reason.OK, ("dirac",)
    elif norm.cardinality == 4:  # zero_set's own rule: the mask vanishes iff the shape exists
        shape = four_digit_shape(norm.integers)
        if shape is None:
            settled = Reason.EMPTY_ZERO_SET, ("parity", "empty-zero-set")
    elif zero_set(norm).is_empty:
        settled = Reason.EMPTY_ZERO_SET, ("card3-residues", "empty-zero-set")
    return DigitFacts(digit_text, norm, settled, shape)


def classify(
    rho: RhoLike,
    digits: Union[DigitFacts, NormalizedDigits, Iterable],
    weights: Optional[Iterable] = None,
) -> Verdict:
    """Decide spectrality of the self-similar measure mu_{rho, D, p}.

    Pipeline, in order: (1) weights must be uniform; (2) digits must
    normalize to integers (digit ratios rational); (3) the mask zero set must
    be nonempty; (4) rho must be 1/N for an integer N >= 2; then the
    cardinality-specific criterion decides; a Spectral verdict's certificate
    is verified exactly here.  The digit steps come from `digit_facts`, so
    passing a DigitFacts skips them.  Overlong ratio or weight text raises InvalidInput.
    """
    ratio = _as_ratio(rho)
    facts = digit_facts(digits)
    # No weights means uniform weights, which need no vector and no check.
    weight_text, uniform = None, True
    if weights is not None:
        w = weight_values(weights)
        if len(w) != facts.cardinality:
            raise InvalidInput("weight count must match digit count")
        weight_text, uniform = _texts(w, "a weight"), len(set(w)) == 1
    (rho_text,) = _texts((ratio,), "the ratio")
    if facts.supported and not uniform:
        return Verdict(Reason.UNEQUAL_WEIGHTS, ("equal-weights",), rho_text, facts.digit_text, weight_text)
    n_ratio = ratio.reciprocal_integer()
    reason, citations = _rule(facts, None if n_ratio is None else _n_class(n_ratio, facts.cardinality))
    certificate = _certificate(facts, n_ratio) if reason is Reason.OK else None
    if certificate is not None and not certificate.verify():
        raise InternalInconsistency(f"certificate failed verification at rho = {rho_text}: {certificate.describe()}")
    return Verdict(reason, citations, rho_text, facts.digit_text, weight_text, facts.normalized, certificate)


def _n_class(n_ratio: int, cardinality: int) -> int:
    """The class of N that `_rule` reads: 2**beta, the power of 2 in N, for four digits, else N mod #D."""
    return n_ratio & -n_ratio if cardinality == 4 else n_ratio % cardinality


def _rule(facts: DigitFacts, n_class: Optional[int]) -> tuple[Reason, tuple[str, ...]]:
    """The (reason, citations) for uniform weights at rho = 1/N, from the
    digit facts and the class of N (`_n_class`), None for other rho."""
    if facts.settled is not None:
        return facts.settled
    if n_class is None:
        return Reason.RHO_NOT_RECIPROCAL_INTEGER, ("an-wang",)
    card = facts.cardinality
    if card < 4:
        # Two or three digits with a nonempty zero set: spectral iff card | N.
        rule = "bernoulli" if card == 2 else "card3"
        if n_class:
            return (Reason.N_ODD if card == 2 else Reason.CARD3_N_NOT_DIVISIBLE_BY_3), (rule, "zero-containment")
        return Reason.OK, (rule,)
    # Four digits with a nonempty zero set: exactly two of the nonzero digits
    # are odd, and the classification runs on the 2-adic valuations.
    if n_class == 1:
        return Reason.N_ODD, ("card4", "zero-containment")
    shape = facts.shape
    if shape.t1 != shape.t2:
        return Reason.T_DISTINCT, ("card4", "t-distinct")
    if shape.t1 % (n_class.bit_length() - 1) == 0:
        return Reason.T_DIVISIBLE_BY_BETA, ("card4", "t-divisible")
    return Reason.OK, ("card4", "product-form")


def _certificate(facts: DigitFacts, n_ratio: Optional[int]) -> Certificate:
    """The unverified certificate of a Spectral answer of `_rule` at rho = 1/N."""
    card = facts.cardinality
    if card == 1:
        return Dirac()
    if card < 4:  # spectrum {j * N / card}
        return HadamardTriple(n_ratio, facts.normalized.integers, tuple(j * n_ratio // card for j in range(card)))
    shape, (beta, m) = facts.shape, val2(n_ratio)
    return construct_product_form(StructureDecomposition(shape.a, shape.t1, shape.ell1, shape.ell2, beta, m))


def explain(v: Verdict) -> str:
    """Human-readable account of the decision chain behind a verdict."""
    lines = [
        f"input: rho = {v.rho_text}, digits = {{{', '.join(v.digit_text)}}}, "
        f"weights = {'uniform' if v.weight_text is None else ', '.join(v.weight_text)}"
    ]
    norm = v.normalized
    if isinstance(norm, IrreducibleWitness):
        lines.append(f"irrational ratio witnessed: {norm.numerator} / {norm.denominator}")
    elif norm is not None:
        ints = ", ".join(str(n) for n in norm.integers)
        lines.append(f"normalized: scale {norm.scale}, integer digits {{{ints}}}")
    for key in v.citations:
        lines.append(f"  - {CITATIONS[key]}")
    lines.append(f"outcome: {v.outcome.value} ({v.reason.value})")
    if v.certificate is not None:
        lines.append(f"certificate: {v.certificate.describe()}")
    return "\n".join(lines)
