"""Exact spectrality classification for self-similar measures with <= 4 digits.

The exact layer decides whether mu_{rho, D, p} is spectral and produces
machine-checkable certificates (Hadamard triples and product-form
decompositions); the numeric layer evaluates the measure's transform with a
certified truncation bound, the Q-function, and Gram matrices.
"""

from .exact import (
    ContractionRatio,
    Digit,
    DigitSet,
    FourDigitShape,
    InternalInconsistency,
    InvalidInput,
    IrreducibleWitness,
    NormalizedDigits,
    Unsupported,
    WeightVector,
    digit_values,
    four_digit_shape,
    integer_digits,
    normalize_digits,
    parse_digit,
    parse_rational,
    val2,
)
from .zeros import (
    CyclotomicValue,
    ScaledResidues,
    VanishingCase,
    ZeroSet,
    cyclotomic_poly,
    mask_value,
    mask_vanishes,
    mask_zero_set,
    mu_zero_member,
    mu_zero_test,
    vanishing_case,
    zero_set,
)
from .hadamard import (
    HadamardTriple,
    ProductForm,
    StructureDecomposition,
    construct_product_form,
    direct_sum,
    find_spectrum_set,
    is_hadamard_triple,
    tiles_zn,
    verify_product_form,
)
from .classify import (
    Certificate,
    Dirac,
    DigitFacts,
    Outcome,
    Reason,
    Verdict,
    classify,
    digit_facts,
    explain,
    hu_lau_infinite_bizero,
)
from .spectra import (
    BiZeroReport,
    dj_example_spectrum,
    greedy_bizero,
    is_bizero_set,
    spectrum_truncation,
)
from .numerics import (
    MuHatEvaluator,
    gram_matrix,
    q_function,
    unitarity_defect,
)

__version__ = "0.1.0"
