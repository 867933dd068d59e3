"""The spectrality decision procedure for measures with up to four digits.

``classify`` runs a fixed pipeline of necessary conditions, each backed by a
published criterion, and stops at the first failure.  A surviving input is
spectral, and the verdict carries a machine-checkable certificate: a Hadamard
triple for one to three digits, or a structure decomposition plus a verified
product-form witness for four.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Union

from .exact import (
    ContractionRatio,
    DigitSet,
    InternalInconsistency,
    InvalidInput,
    IrreducibleWitness,
    NormalizedDigits,
    Unsupported,
    WeightVector,
    as_digit,
    as_fraction,
    four_digit_shape,
    normalize_digits,
    val2,
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
    "five-plus": "masks with five or more digits can vanish only at irrational points; not modeled here",
    "hu-lau": "Hu-Lau: a Bernoulli-structure zero set carries an infinite orthogonal family iff rho = (odd/even)^(1/r)",
}


@dataclass(frozen=True)
class Certificate:
    """Exactly verifiable spectrality witness attached to Spectral verdicts."""

    kind: str  # "product-form" | "hadamard-triple" | "dirac"
    triple: Optional[HadamardTriple] = None
    decomposition: Optional[StructureDecomposition] = None
    product_form: Optional[ProductForm] = None

    def to_json(self) -> dict:
        if self.kind == "dirac":
            return {"kind": "dirac", "spectrum": [0], "verified": True}
        if self.kind == "hadamard-triple":
            return self.triple.to_json()
        out = self.product_form.to_json()
        out["decomposition"] = self.decomposition.to_json()
        return out


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    reason: Reason
    citations: tuple[str, ...]
    rho_text: str
    digit_text: tuple[str, ...]
    weight_text: Optional[tuple[str, ...]]
    normalized: Optional[NormalizedDigits] = None
    witness: Optional[IrreducibleWitness] = None
    certificate: Optional[Certificate] = None

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
        if self.witness is not None:
            out["normalized"] = self.witness.to_json()
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


RhoLike = Union[ContractionRatio, Fraction, int, str]


def _as_ratio(rho: RhoLike) -> ContractionRatio:
    if isinstance(rho, ContractionRatio):
        return rho
    return ContractionRatio.rational(as_fraction(rho))


def hu_lau_infinite_bizero(rho: RhoLike) -> bool:
    """Does a Bernoulli-structure zero set admit an infinite orthogonal family?

    True exactly when rho = (n/m)**(1/r) with m even and n odd; a rational
    rho is the r = 1 case of its reduced fraction.
    """
    ratio = _as_ratio(rho)
    return ratio.base.denominator % 2 == 0 and ratio.base.numerator % 2 == 1


def classify(
    rho: RhoLike,
    digits: Union[DigitSet, Iterable],
    weights: Optional[Union[WeightVector, Iterable]] = None,
) -> Verdict:
    """Decide spectrality of the self-similar measure mu_{rho, D, p}.

    Pipeline, in order: (1) weights must be uniform; (2) digits must
    normalize to integers (digit ratios rational); (3) the mask zero set must
    be nonempty; (4) rho must be 1/N for an integer N >= 2; then the
    cardinality-specific criterion decides, emitting an exactly verified
    certificate on success.
    """
    ratio = _as_ratio(rho)
    rho_text = str(ratio)

    if isinstance(digits, DigitSet):
        dset = digits
        digit_text = dset.display()
    else:
        raw = [as_digit(d) for d in digits]
        digit_text = tuple(str(d) for d in raw)
        try:
            dset = DigitSet(tuple(raw))
        except Unsupported:
            return Verdict(
                Outcome.UNSUPPORTED,
                Reason.UNSUPPORTED,
                ("five-plus",),
                rho_text,
                digit_text,
                None,
            )

    if weights is None:
        wvec = WeightVector.uniform(dset.cardinality)
        weight_text = None
    else:
        wvec = weights if isinstance(weights, WeightVector) else WeightVector.of(weights)
        weight_text = wvec.display()
    if len(wvec.weights) != dset.cardinality:
        raise InvalidInput("weight count must match digit count")

    def verdict(outcome, reason, citations, **kw):
        return Verdict(outcome, reason, citations, rho_text, digit_text, weight_text, **kw)

    if not wvec.is_uniform:
        return verdict(Outcome.NON_SPECTRAL, Reason.UNEQUAL_WEIGHTS, ("equal-weights",))

    norm = normalize_digits(dset)
    if isinstance(norm, IrreducibleWitness):
        if dset.cardinality == 4:
            return verdict(
                Outcome.NON_SPECTRAL,
                Reason.IRRATIONAL_DIGITS,
                ("irrational-digits",),
                witness=norm,
            )
        return verdict(
            Outcome.NON_SPECTRAL,
            Reason.EMPTY_ZERO_SET,
            ("card3-irrational", "empty-zero-set"),
            witness=norm,
        )

    card = norm.cardinality
    if card == 1:
        return verdict(
            Outcome.SPECTRAL,
            Reason.OK,
            ("dirac",),
            normalized=norm,
            certificate=Certificate("dirac"),
        )

    zs = zero_set(norm)
    if zs.is_empty:
        cites = ("parity", "empty-zero-set") if card == 4 else ("card3-residues", "empty-zero-set")
        return verdict(Outcome.NON_SPECTRAL, Reason.EMPTY_ZERO_SET, cites, normalized=norm)

    n_ratio = ratio.reciprocal_integer()
    if n_ratio is None:
        return verdict(
            Outcome.NON_SPECTRAL,
            Reason.RHO_NOT_RECIPROCAL_INTEGER,
            ("an-wang",),
            normalized=norm,
        )

    if card < 4:
        # Two or three digits with a nonempty zero set: spectral iff card | N,
        # with spectrum {j * N / card}.
        rule = "bernoulli" if card == 2 else "card3"
        if n_ratio % card:
            reason = Reason.N_ODD if card == 2 else Reason.CARD3_N_NOT_DIVISIBLE_BY_3
            return verdict(Outcome.NON_SPECTRAL, reason, (rule, "zero-containment"), normalized=norm)
        triple = HadamardTriple(n_ratio, norm.integers, tuple(j * n_ratio // card for j in range(card)))
        if not triple.verify():
            raise InternalInconsistency(f"{card}-digit certificate failed verification")
        return verdict(
            Outcome.SPECTRAL,
            Reason.OK,
            (rule,),
            normalized=norm,
            certificate=Certificate("hadamard-triple", triple=triple),
        )

    # Four digits with a nonempty zero set: exactly two of the nonzero digits
    # are odd, and the classification runs on the 2-adic valuations.
    if n_ratio % 2:
        return verdict(Outcome.NON_SPECTRAL, Reason.N_ODD, ("card4", "zero-containment"), normalized=norm)
    shape = four_digit_shape(norm.integers)
    if shape.t1 != shape.t2:
        return verdict(Outcome.NON_SPECTRAL, Reason.T_DISTINCT, ("card4", "t-distinct"), normalized=norm)
    beta, m = val2(n_ratio)
    if shape.t1 % beta == 0:
        return verdict(
            Outcome.NON_SPECTRAL, Reason.T_DIVISIBLE_BY_BETA, ("card4", "t-divisible"), normalized=norm
        )
    k, r = divmod(shape.t1, beta)
    dec = StructureDecomposition(
        a=shape.a, t=shape.t1, ell=shape.ell1, ell_prime=shape.ell2, beta=beta, m=m, k=k, r=r
    )
    pf = construct_product_form(dec, n_ratio)
    return verdict(
        Outcome.SPECTRAL,
        Reason.OK,
        ("card4", "product-form"),
        normalized=norm,
        certificate=Certificate("product-form", decomposition=dec, product_form=pf),
    )


def explain(v: Verdict) -> str:
    """Human-readable account of the decision chain behind a verdict."""
    lines = [
        f"input: rho = {v.rho_text}, digits = {{{', '.join(v.digit_text)}}}, "
        f"weights = {'uniform' if v.weight_text is None else ', '.join(v.weight_text)}"
    ]
    if v.normalized is not None:
        ints = ", ".join(str(n) for n in v.normalized.integers)
        lines.append(f"normalized: scale {v.normalized.scale}, integer digits {{{ints}}}")
    if v.witness is not None:
        lines.append(
            f"irrational ratio witnessed: {v.witness.numerator} / {v.witness.denominator}"
        )
    for key in v.citations:
        lines.append(f"  - {CITATIONS[key]}")
    lines.append(f"outcome: {v.outcome.value} ({v.reason.value})")
    cert = v.certificate
    if cert is not None:
        if cert.kind == "dirac":
            lines.append("certificate: Dirac mass with trivial spectrum {0}")
        elif cert.kind == "hadamard-triple":
            t = cert.triple
            lines.append(
                f"certificate: Hadamard triple N={t.n_ratio}, D={list(t.digits)}, L={list(t.spectrum)}"
            )
        else:
            d = cert.decomposition
            pf = cert.product_form
            lines.append(
                "certificate: decomposition "
                f"a={d.a} t={d.t} ell={d.ell} ell'={d.ell_prime} beta={d.beta} m={d.m} k={d.k} r={d.r}"
            )
            blocks = "; ".join(
                f"B[{a}]={list(bs)}" for a, bs in zip(pf.a_set, pf.b_sets)
            )
            lines.append(
                f"  product form: N={pf.n_ratio}, A={list(pf.a_set)}, {blocks}, "
                f"L1={list(pf.l1)}, L2={list(pf.l2)}"
            )
    return "\n".join(lines)
