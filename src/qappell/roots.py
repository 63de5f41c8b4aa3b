"""Numerical zero finding and classification for exact polynomials.

The solver is the Aberth-Ehrlich simultaneous iteration (Aberth 1973,
Ehrlich 1967; the core of MPSolve, Bini 1996) on the monic float image:

* start: n points on a circle of the Fujiwara radius
  2 max_k |a_(n-k)|^(1/k), the last term |a_0/2|^(1/n), with a fixed angular
  offset to break symmetry;
* update: z_i -= r/(1 - r sum_(j != i) 1/(z_i - z_j)) with r = p(z_i)/p'(z_i),
  applied in place (Gauss-Seidel style); it converges cubically to simple
  zeros, so no Newton polish follows;
* stop: when the largest update falls below ``tol``, or when in one sweep
  every |p(z_i)| is within Horner's rounding error bound
  2n u sum |a_k||z_i|^k (u = 2^-53; Higham, *Accuracy and Stability of
  Numerical Algorithms*, ch. 5) and the largest update has stopped
  shrinking.  All iterates stop together, so a cluster stays symmetric;
* refusal: after the residual check, each zero gets the Weierstrass
  inclusion disc of radius n |p(z_i) / prod_(j != i) (z_i - z_j)| (Braess &
  Hadeler 1973; Neumaier 2003).  Overlapping discs mean the float image
  cannot separate those zeros, and ``RootFindingError`` names the cluster.

There is no randomness anywhere, so identical inputs give bit-identical
results.  Every failure, also a coefficient ratio outside double range or
a failed classification, is a ``RootFindingError``.

Classification splits roots into reals (imaginary part below a relative
tolerance, forced onto the axis, sorted ascending) and conjugate pairs,
stored exactly conjugate; an unpaired complex root signals solver trouble
and raises.  Residual and Vieta checks are provided separately so callers
can assert them.
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
_UNIT_ROUNDOFF = 2.0**-53
_DEFAULT_REAL_TOL = 1e-8


class RootFindingError(RuntimeError):
    """No trustworthy zeros; carries the last iterates and their residuals."""

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


def _monic_horner(tail: list[float], z: complex) -> tuple[complex, complex]:
    """p(z) and p'(z) in one Horner pass; tail = p's coefficients below
    the leading 1, descending."""
    value: complex = 1.0
    deriv: complex = 0.0
    for c in tail:
        deriv = deriv * z + value
        value = value * z + c
    return value, deriv


def _fujiwara_radius(coeffs: list[float]) -> float:
    """2 max_k |a_(n-k)|^(1/k), the last term halved, for monic coeffs."""
    n = len(coeffs) - 1
    terms = [abs(coeffs[n - k]) ** (1.0 / k) for k in range(1, n)]
    terms.append(abs(coeffs[0] / 2) ** (1.0 / n))
    return 2.0 * max(terms)


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
    try:
        coeffs = to_float(p)
    except OverflowError as exc:
        raise RootFindingError(
            f"coefficient ratio outside double range ({exc})", [], []
        ) from exc
    n = p.degree
    radius = _fujiwara_radius(coeffs) or 1.0  # 0 only for p = x^n
    z = [
        radius * cmath.exp(1j * (2 * math.pi * k / n + _ANGLE_OFFSET))
        for k in range(n)
    ]

    def failure(message: str) -> RootFindingError:
        return RootFindingError(message, z, [abs(_horner(coeffs, w)) for w in z])

    tail = coeffs[-2::-1]
    abs_coeffs = [abs(c) for c in coeffs]
    values: list[complex] = [0j] * n
    moduli = [0.0] * n
    last_update = math.inf
    for sweep in range(max_sweeps):
        max_update = 0.0
        for i in range(n):
            zi = z[i]
            value, deriv = _monic_horner(tail, zi)
            try:
                pull = sum([1 / (zi - w) for w in z[:i]]) + sum(
                    [1 / (zi - w) for w in z[i + 1 :]]
                )
                # r/(1 - r pull) with r = p/p', written without dividing by p'
                delta = value / (deriv - value * pull)
            except ZeroDivisionError:
                raise failure(
                    f"zero divisor in the Aberth update at sweep {sweep}"
                ) from None
            z[i] = zi - delta
            if not cmath.isfinite(z[i]):  # a NaN delta never exceeds max_update
                raise failure(
                    f"iterates overflowed in double precision at sweep {sweep}"
                )
            values[i] = value
            moduli[i] = abs(zi)
            max_update = max(max_update, abs(delta))
        if max_update < tol:
            break
        # Horner's rounding error bound 2n u sum |a_k||z|^k (Higham, ch. 5)
        if max_update >= last_update and all(
            abs(v) <= 2 * n * _UNIT_ROUNDOFF * _horner(abs_coeffs, m)
            for v, m in zip(values, moduli)
        ):
            break
        last_update = max_update
    else:
        raise failure(
            f"no convergence after {max_sweeps} sweeps "
            f"(last max update {max_update:.3e})"
        )

    residual_tol = 1e-9 * (1.0 + max(abs(c) for c in coeffs))
    residuals = [abs(_horner(coeffs, w)) for w in z]
    bad = [r for r in residuals if not (r < residual_tol) or math.isnan(r)]
    if bad:
        raise failure(
            f"residuals exceed {residual_tol:.3e}: worst {max(residuals):.3e}"
        )
    cluster = _unisolated_cluster(z, residuals)
    if cluster:
        raise failure(cluster)
    try:
        return _build(n, z, coeffs, real_tol)
    except ClassificationError as exc:
        raise failure(f"classification failed: {exc}") from exc


def _unisolated_cluster(z: list[complex], residuals: list[float]) -> str:
    """Name a cluster whose Weierstrass inclusion discs overlap, or "".

    The disc about z_i has radius n |p(z_i) / prod_(j != i) (z_i - z_j)|
    (Braess & Hadeler 1973): each connected union of m discs holds exactly m
    zeros, so disjoint discs isolate one zero each.
    """
    n = len(z)
    radii = []
    for i, zi in enumerate(z):
        prod: complex = 1.0
        for j, w in enumerate(z):
            if j != i:
                prod *= zi - w
        radii.append(n * residuals[i] / abs(prod) if prod else math.inf)
    for i in range(n):
        cluster = [j for j in range(n) if abs(z[i] - z[j]) <= radii[i] + radii[j]]
        if len(cluster) > 1:
            centre = sum(z[j] for j in cluster) / len(cluster)
            where = f"{centre.real:.4g}"
            if round(centre.imag, 4):
                where += f"{centre.imag:+.4g}i"
            listed = ", ".join(f"{radii[j]:.1e}" for j in cluster)
            return (
                f"zeros near {where} not isolated in double precision "
                f"(inclusion radii {listed})"
            )
    return ""


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
        # p is real, so store the pair exactly conjugate
        m = (u + remaining.pop(best_i).conjugate()) / 2
        pairs.append((m, m.conjugate()))
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
