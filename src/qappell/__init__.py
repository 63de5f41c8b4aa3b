"""Exact q-Appell polynomial engine: series + determinant constructions,
number tables, zero finding, and reproducible audits of published values.

Importing the package loads no submodule: each export is imported from its
submodule on first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# export name -> the submodule that defines it, in __all__ order
_EXPORTS = {
    name: module
    for module, names in (
        ("qcore", "QContext QPoly parse_q parse_rat q_derive"),
        ("series", "ESeq convolve reciprocal shift_up unit"),
        ("families", "AppellFamily FamilySpec resolve product_family pair_family iterate2"),
        ("families", "route_poly apply_operator identity_residuals"),
        ("roots", "RootSet find_roots sample vieta_residuals"),
    )
    for name in names.split()
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
