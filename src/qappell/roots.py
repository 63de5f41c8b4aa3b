"""Numerical zero finding and classification for exact polynomials.

The solver is the Weierstrass (Durand-Kerner) simultaneous iteration
started from deterministic points on a circle of radius 1 + max|a_i|
(the Cauchy bound of the monic float image) with a fixed angular offset
to break symmetry, followed by a few Newton steps per root.  There is no
randomness anywhere, so identical inputs give bit-identical results.

Classification splits roots into reals (imaginary part below a relative
tolerance, forced onto the axis, sorted ascending) and conjugate pairs;
an unpaired complex root signals solver trouble and raises.  Residual
and Vieta checks are provided separately so callers can assert them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .qcore import QPoly, homogeneous_image

__all__ = [
    "RootSet",
    "RootFindingError",
    "ClassificationError",
    "to_float",
    "find_roots",
    "vieta_residuals",
    "sample",
]

_ANGLE_OFFSET = 0.4  # radians; fixed, keeps the start set asymmetric
_DEFAULT_TOL = 1e-13
_DEFAULT_SWEEPS = 500
_NEWTON_STEPS = 3
_DEFAULT_REAL_TOL = 1e-8


class RootFindingError(RuntimeError):
    """Iteration failed to converge; carries the best iterate found."""

    def __init__(self, message: str, best: list[complex], residuals: list[float]):
        super().__init__(message)
        self.best = best
        self.residuals = residuals


class ClassificationError(RuntimeError):
    """A complex root has no conjugate partner within tolerance."""


@dataclass(frozen=True)
class RootSet:
    """Zeros of one polynomial: reals ascending, then conjugate pairs.

    ``roots`` lists every zero (length = degree), reals first with the
    imaginary part forced to zero, then the pairs, upper half first.
    ``monic_coeffs`` is the float image the roots were computed from.
    """

    degree: int
    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    real_roots: tuple[float, ...]
    complex_pairs: tuple[tuple[complex, complex], ...]
    real_tol: float
    monic_coeffs: tuple[float, ...]

    def counts(self) -> tuple[int, int]:
        return len(self.real_roots), 2 * len(self.complex_pairs)


def to_float(p: QPoly) -> list[float]:
    """Monic nearest-double image of p, ascending coefficients."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no float image")
    lead = p.coeffs[-1]
    return [float(c / lead) for c in p.coeffs]


def _horner(coeffs, z: complex) -> complex:
    acc: complex = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _derivative(coeffs: list[float]) -> list[float]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def find_roots(
    p: QPoly,
    *,
    tol: float = _DEFAULT_TOL,
    max_sweeps: int = _DEFAULT_SWEEPS,
    real_tol: float = _DEFAULT_REAL_TOL,
) -> RootSet:
    """All zeros of p (degree >= 1), classified; deterministic."""
    if p.degree < 1:
        raise ValueError("find_roots needs degree >= 1")
    coeffs = to_float(p)
    n = p.degree
    radius = 1.0 + max(abs(c) for c in coeffs[:-1])
    z = [
        radius * cmath.exp(1j * (2 * math.pi * k / n + _ANGLE_OFFSET))
        for k in range(n)
    ]

    def failure(message: str) -> RootFindingError:
        return RootFindingError(message, z, [abs(_horner(coeffs, w)) for w in z])

    max_update = math.inf
    for sweep in range(max_sweeps):
        max_update = 0.0
        for i in range(n):
            value = _horner(coeffs, z[i])
            denom: complex = 1.0
            for j in range(n):
                if j != i:
                    denom *= z[i] - z[j]
            if denom == 0:
                raise failure("iterates collided")
            delta = value / denom
            z[i] -= delta
            if not cmath.isfinite(z[i]):  # a NaN delta never exceeds max_update
                raise failure(
                    f"iterates overflowed in double precision at sweep {sweep}"
                )
            if abs(delta) > max_update:
                max_update = abs(delta)
        if max_update < tol:
            break
    else:
        raise failure(
            f"no convergence after {max_sweeps} sweeps "
            f"(last max update {max_update:.3e})"
        )

    deriv = _derivative(coeffs)
    for i in range(n):
        for _ in range(_NEWTON_STEPS):
            d = _horner(deriv, z[i])
            if d == 0:
                break
            z[i] -= _horner(coeffs, z[i]) / d

    residual_tol = 1e-9 * (1.0 + max(abs(c) for c in coeffs))
    residuals = [abs(_horner(coeffs, w)) for w in z]
    bad = [r for r in residuals if not (r < residual_tol) or math.isnan(r)]
    if bad:
        raise failure(
            f"residuals exceed {residual_tol:.3e}: worst {max(residuals):.3e}"
        )
    return _build(n, z, coeffs, real_tol)


def _build(
    degree: int, z: list[complex], coeffs: list[float], real_tol: float
) -> RootSet:
    reals: list[float] = []
    uppers: list[complex] = []
    lowers: list[complex] = []
    for w in z:
        if abs(w.imag) < real_tol * max(1.0, abs(w.real)):
            reals.append(w.real)
        elif w.imag > 0:
            uppers.append(w)
        else:
            lowers.append(w)
    reals.sort()
    uppers.sort(key=lambda w: (w.real, w.imag))
    pairs: list[tuple[complex, complex]] = []
    remaining = list(lowers)
    for u in uppers:
        best_i = -1
        best_d = math.inf
        for i, low in enumerate(remaining):
            d = abs(u.conjugate() - low)
            if d < best_d:
                best_d = d
                best_i = i
        pair_tol = real_tol * max(1.0, abs(u))
        if best_i < 0 or not best_d < pair_tol:
            raise ClassificationError(
                f"complex root {u!r} has no conjugate partner within {pair_tol:.3e}"
            )
        pairs.append((u, remaining.pop(best_i)))
    if remaining:
        raise ClassificationError(f"unpaired lower-half roots remain: {remaining!r}")
    flat: list[complex] = [complex(r, 0.0) for r in reals]
    for u, low in pairs:
        flat.extend((u, low))
    if len(flat) != degree:
        raise ClassificationError(
            f"classified {len(flat)} roots for a degree-{degree} polynomial"
        )
    residuals = tuple(abs(_horner(coeffs, w)) for w in flat)
    for r in residuals:
        if math.isnan(r) or math.isinf(r):
            raise ClassificationError("non-finite residual")
    return RootSet(
        degree=degree,
        roots=tuple(flat),
        residuals=residuals,
        real_roots=tuple(reals),
        complex_pairs=tuple(pairs),
        real_tol=real_tol,
        monic_coeffs=tuple(coeffs),
    )


def vieta_residuals(p: QPoly, roots: tuple[complex, ...]) -> tuple[float, float]:
    """|sum - (-a_{n-1}/a_n)| and |prod - (-1)^n a_0/a_n| for the root list."""
    n = p.degree
    lead = p.coeffs[-1]
    target_sum = float(-p.coeff(n - 1) / lead)
    target_prod = float((-1) ** n * p.coeff(0) / lead)
    got_sum: complex = 0.0
    got_prod: complex = 1.0
    for w in roots:
        got_sum += w
        got_prod *= w
    return abs(got_sum - target_sum), abs(got_prod - target_prod)


def sample(
    p: QPoly, xmin: Fraction, xmax: Fraction, steps: int
) -> list[tuple[Fraction, Fraction]]:
    """Exact values at equally spaced rational abscissae over [xmin, xmax].

    The whole grid is written over one shared denominator B, x_i = a_i/B, so
    p's homogeneous integer image for B (see ``QPoly.__call__``) is formed
    once, and each point costs an integer Horner pass in a_i and one
    ``Fraction``.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    xmin = Fraction(xmin)
    xmax = Fraction(xmax)
    if not xmin < xmax:
        raise ValueError("xmin must be < xmax")
    # xmin = lo/ends and xmax = (lo + width)/ends over the lcm of their
    # denominators, so x_i = (lo (steps - 1) + i width) / grid
    ends = math.lcm(xmin.denominator, xmax.denominator)
    lo = xmin.numerator * (ends // xmin.denominator)
    width = xmax.numerator * (ends // xmax.denominator) - lo
    grid = ends * (steps - 1)
    hom, den = homogeneous_image(p, grid)
    out = []
    for i in range(steps):
        a = lo * (steps - 1) + i * width
        acc = 0
        for c in hom:
            acc = acc * a + c
        out.append((Fraction(a, grid), Fraction(acc, den)))
    return out
