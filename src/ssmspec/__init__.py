"""Exact spectrality classification for self-similar measures with <= 4 digits.

The exact layer decides whether mu_{rho, D, p} is spectral and produces
machine-checkable certificates (Hadamard triples and product-form
decompositions); the numeric layer evaluates the measure's transform with a
certified truncation bound, the Q-function, and Gram matrices.

The layer modules are the API; import each name from the module that
defines it: `exact`, `zeros`, `hadamard`, `classify`, `spectra`, `numerics`
and `cli` (for example `from ssmspec.classify import classify`).
"""

__version__ = "0.1.0"
