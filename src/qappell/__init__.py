"""Exact q-Appell polynomial engine: series + determinant constructions,
number tables, zero finding, and reproducible audits of published values."""

from .qcore import QContext, QPoly, Rat, parse_q, parse_rat, q_derive
from .series import ESeq, convolve, q_exp, reciprocal, shift_up, unit
from .families import (
    AppellFamily,
    FamilySpec,
    apply_operator,
    identity_residuals,
    iterate2,
    pair_family,
    product_family,
    resolve,
    umbral_compose,
)
from .determinant import det_appell_poly, det_pair_poly, det_poly
from .roots import RootSet, find_roots, sample, vieta_residuals

__version__ = "0.1.0"

__all__ = [
    "QContext",
    "QPoly",
    "Rat",
    "parse_q",
    "parse_rat",
    "q_derive",
    "ESeq",
    "convolve",
    "reciprocal",
    "shift_up",
    "unit",
    "q_exp",
    "AppellFamily",
    "FamilySpec",
    "resolve",
    "product_family",
    "pair_family",
    "iterate2",
    "umbral_compose",
    "apply_operator",
    "identity_residuals",
    "det_poly",
    "det_appell_poly",
    "det_pair_poly",
    "RootSet",
    "find_roots",
    "sample",
    "vieta_residuals",
    "__version__",
]
