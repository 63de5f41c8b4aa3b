"""Numerical zero finding and classification for exact polynomials.

The solver is the Aberth-Ehrlich simultaneous iteration (Aberth 1973,
Ehrlich 1967; the core of MPSolve, Bini 1996) on the monic float image:

* start: Bini's Newton-polygon start.  Each edge k0 -> k1 of the upper
  convex hull of the points (k, log|a_k|), a_k != 0, gets m = k1 - k0
  points on the circle of radius (|a_k0|/|a_k1|)^(1/m), so zeros of very
  different moduli start near their own circle.  A factor x^k starts k
  points at 0, exact for k = 1; for k > 1 the multiple zero at 0 is
  refused at once, as every multiple zero is;
* update: z_i -= r/(1 - r sum_(j != i) 1/(z_i - z_j)) with r = p(z_i)/p'(z_i),
  applied in place (Gauss-Seidel style); it converges cubically to simple
  zeros, so no Newton polish follows;
* stop: per iterate, as in MPSolve (Bini 1996; Bini & Robol 2014).  z_i
  is frozen once its update falls below ``tol``, or once its update has
  stopped shrinking while |p(z_i)| is within Horner's rounding error bound
  2n u sum |a_k||z_i|^k (u = 2^-53; Higham, *Accuracy and Stability of
  Numerical Algorithms*, ch. 5).  Each sweep updates only the iterates
  still moving, but their Aberth sums run over all n, the frozen included;
* isolation: each zero gets the Weierstrass inclusion disc of radius
  n |p(z_i) / prod_(j != i) (z_i - z_j)| (Braess & Hadeler 1973; Neumaier
  2003).  Float discs, from |fl p(z_i)| plus Horner's bound for complex
  arithmetic, contain the exact ones and flag the members whose discs
  overlap.  At a cluster the float residual is rounding noise, so each
  flagged member gets up to ``_EXACT_STEPS`` more Aberth corrections with
  p(z_i) evaluated exactly (Gaussian-integer Horner at the dyadic iterate),
  and the discs from those exact residuals decide.  If they still overlap,
  ``RootFindingError`` names the cluster.  The residual check and the
  classification then run on the refined iterates.

There is no randomness anywhere, so identical inputs give bit-identical
results.  Every failure, also a coefficient ratio outside double range or
a failed classification, is a ``RootFindingError``.

Classification rests on the same discs, since p is real and the mirror
image of a zero is a zero.  A zero is real when its disc meets the real
axis and the mirrored disc meets no other disc; it is one of a conjugate
pair when its disc misses the axis and the mirrored disc meets exactly one
other disc, its partner's.  Reals are put on the axis and sorted
ascending; pairs are stored exactly conjugate.  Any other configuration
raises.  Residual and Vieta checks are provided separately so callers can
assert them.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

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
_EXACT_STEPS = 8  # exact-residual corrections of a clustered zero, at most


class RootFindingError(RuntimeError):
    """No trustworthy zeros; carries the last iterates, their residuals and
    the number of Aberth sweeps run (0 when it failed before the first)."""

    def __init__(
        self,
        message: str,
        best: list[complex],
        residuals: list[float],
        sweeps: int = 0,
    ):
        super().__init__(message)
        self.best = best
        self.residuals = residuals
        self.sweeps = sweeps


class ClassificationError(RuntimeError):
    """The inclusion discs certify neither a real zero nor a conjugate pair."""


class RootSet(NamedTuple):
    """Zeros of one polynomial: reals ascending, then conjugate pairs.

    ``roots`` lists every zero (length = degree), reals first with the
    imaginary part forced to zero, then the pairs, upper half first.
    ``monic_coeffs`` is the float image the roots were computed from, and
    ``sweeps`` the number of Aberth sweeps it took.
    """

    degree: int
    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    real_roots: tuple[float, ...]
    complex_pairs: tuple[tuple[complex, complex], ...]
    monic_coeffs: tuple[float, ...]
    sweeps: int

    def counts(self) -> tuple[int, int]:
        return len(self.real_roots), 2 * len(self.complex_pairs)


def to_float(p: QPoly) -> list[float]:
    """Monic nearest-double image of p, ascending coefficients."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no float image")
    lead = p.nums[-1]
    # int true division rounds as float(Fraction) does; 0.0 keeps a zero's sign
    return [c / lead if c else 0.0 for c in p.nums]


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


def _aberth_delta(
    z: list[complex], i: int, value: complex, deriv: complex
) -> complex:
    """The Aberth correction of z_i from p(z_i) and p'(z_i).

    r/(1 - r pull) with r = p/p' and pull = sum_(j != i) 1/(z_i - z_j),
    written without dividing by p'; raises ``ZeroDivisionError`` when two
    iterates coincide or the denominator vanishes.
    """
    zi = z[i]
    pull = sum([1 / (zi - w) for w in z[:i]]) + sum(
        [1 / (zi - w) for w in z[i + 1 :]]
    )
    return value / (deriv - value * pull)


def _newton_polygon_start(coeffs: list[float]) -> list[complex]:
    """Bini's start points for the monic float image (ascending coeffs).

    Each edge k0 -> k1 of the upper convex hull of the points (k, log|a_k|),
    a_k != 0, gets m = k1 - k0 points on the circle of radius
    (|a_k0|/|a_k1|)^(1/m) at the angles 2 pi j/m + 2 pi k1/n + offset.  When
    a_0 = ... = a_(k-1) = 0, x^k divides p and its k zeros start at 0
    (``find_roots`` refuses k > 1 before iterating).
    """
    n = len(coeffs) - 1
    hull: list[tuple[int, float]] = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        y = math.log(abs(c))
        while len(hull) >= 2:
            (ka, ya), (kb, yb) = hull[-2:]
            if (kb - ka) * (y - ya) < (yb - ya) * (k - ka):
                break  # (kb, yb) lies above the chord from (ka, ya) to (k, y)
            hull.pop()
        hull.append((k, y))
    z = [0j] * hull[0][0]
    for (k0, y0), (k1, y1) in zip(hull, hull[1:]):
        m = k1 - k0
        radius = math.exp((y0 - y1) / m)
        z += [
            radius * cmath.exp(1j * (2 * math.pi * (j / m + k1 / n) + _ANGLE_OFFSET))
            for j in range(m)
        ]
    return z


def find_roots(
    p: QPoly,
    *,
    tol: float = _DEFAULT_TOL,
    max_sweeps: int = _DEFAULT_SWEEPS,
) -> RootSet:
    """All zeros of p (degree >= 1), classified; deterministic."""
    if p.degree < 1:
        raise ValueError("find_roots needs degree >= 1")
    try:
        coeffs = to_float(p)
        z = _newton_polygon_start(coeffs)
    except OverflowError as exc:
        raise RootFindingError(
            f"coefficient ratio outside double range ({exc})", [], []
        ) from exc
    n = p.degree
    sweeps = 0

    def failure(message: str) -> RootFindingError:
        return RootFindingError(
            message, z, [abs(_horner(coeffs, w)) for w in z], sweeps
        )

    at_zero = next(k for k, c in enumerate(coeffs) if c)
    if at_zero > 1:
        raise failure(
            "zeros near 0 not isolated in double precision "
            f"(multiplicity {at_zero} in the float image)"
        )
    tail = coeffs[-2::-1]
    abs_coeffs = [abs(c) for c in coeffs]
    live = list(range(n))
    updates = [math.inf] * n
    for sweeps in range(1, max_sweeps + 1):
        moving = []
        for i in live:
            zi = z[i]
            value, deriv = _monic_horner(tail, zi)
            try:
                delta = _aberth_delta(z, i, value, deriv)
            except ZeroDivisionError:
                raise failure(
                    f"zero divisor in the Aberth update at sweep {sweeps - 1}"
                ) from None
            z[i] = zi - delta
            if not cmath.isfinite(z[i]):  # a NaN update would compare as settled
                raise failure(
                    f"iterates overflowed in double precision at sweep {sweeps - 1}"
                )
            update = abs(delta)
            # Horner's rounding error bound 2n u sum |a_k||z|^k (Higham, ch. 5)
            if update >= tol and not (
                update >= updates[i]
                and abs(value) <= 2 * n * _UNIT_ROUNDOFF * _horner(abs_coeffs, abs(zi))
            ):
                moving.append(i)
            updates[i] = update
        live = moving
        if not live:
            break
    else:
        raise failure(
            f"no convergence after {max_sweeps} sweeps ({len(live)} of {n} iterates "
            f"still moving, last max update {max(updates[i] for i in live):.3e})"
        )

    cluster, radii, residuals = _settle_clusters(p, z, coeffs, tail, abs_coeffs)
    if cluster:
        raise failure(cluster)
    residual_tol = 1e-9 * (1.0 + max(abs(c) for c in coeffs))
    bad = [r for r in residuals if not (r < residual_tol) or math.isnan(r)]
    if bad:
        raise failure(
            f"residuals exceed {residual_tol:.3e}: worst {max(residuals):.3e}"
        )
    try:
        return _build(n, z, coeffs, sweeps, radii)
    except ClassificationError as exc:
        raise failure(f"classification failed: {exc}") from exc


def _exact_value(p: QPoly, z: complex) -> complex:
    """p(z)/lead(p), rounded once from its exact value at the dyadic point z.

    Gaussian-integer Horner on p's homogeneous image over the common
    power-of-two denominator of z's parts; a value beyond double range is inf.
    """
    (xr, dr), (xi, di) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    b = max(dr, di)
    ar, ai = xr * (b // dr), xi * (b // di)
    hom, den = homogeneous_image(p, b)
    re = im = 0
    for c in hom:
        re, im = re * ar - im * ai + c, re * ai + im * ar
    scale = den // p.den * p.nums[-1]  # b^n N_n, as E = D b^n
    try:
        return complex(re / scale, im / scale)
    except OverflowError:
        return complex(math.inf)


def _weierstrass_radii(z: list[complex], residuals: list[float]) -> list[float]:
    """n |p(z_i) / prod_(j != i) (z_i - z_j)| for each i, from |p(z_i)|.

    The factor n is widened by 4n u for the rounding of the product; two
    coincident iterates give inf.
    """
    n = len(z)
    widened = n * (1 + 4 * n * _UNIT_ROUNDOFF)
    radii = []
    for i, zi in enumerate(z):
        prod: complex = 1.0
        for j, w in enumerate(z):
            if j != i:
                prod *= zi - w
        radii.append(widened * residuals[i] / abs(prod) if prod else math.inf)
    return radii


def _meeting(z: list[complex], radii: list[float], i: int) -> list[int]:
    """The members whose disc meets the disc about z_i, i among them."""
    return [j for j, w in enumerate(z) if abs(z[i] - w) <= radii[i] + radii[j]]


def _overlapping(z: list[complex], radii: list[float]) -> list[int]:
    """The members whose disc meets another member's disc."""
    return [i for i in range(len(z)) if len(_meeting(z, radii, i)) > 1]


def _settle_clusters(
    p: QPoly, z: list[complex], coeffs: list[float], tail: list[float], abs_coeffs: list[float]
) -> tuple[str, list[float], list[float]]:
    """Name a cluster whose Weierstrass inclusion discs overlap, or "", and
    give every member's disc radius and |fl p(z_i)| at its final z_i.

    The disc about z_i has radius n |p(z_i) / prod_(j != i) (z_i - z_j)|
    (Braess & Hadeler 1973): each connected union of m discs holds exactly m
    zeros of p, so disjoint discs isolate one zero each.  A float disc uses
    |fl p(z_i)| plus Horner's bound for complex z, (4n + 1) u sum
    |a_k||z_i|^k: each complex multiply-add errs by at most (2 sqrt 2 + 1) u
    < 4u (Higham, ch. 3.6), and the extra u covers the rounding of the
    coefficients, so it contains the exact disc.  The members whose float
    discs overlap get up to ``_EXACT_STEPS`` Aberth corrections from exact
    residuals (``_exact_value``), updating z in place, and their discs are
    then sized from the exact residuals.
    """
    n = len(z)
    bound = (4 * n + 1) * _UNIT_ROUNDOFF
    fl = [abs(_horner(coeffs, w)) for w in z]
    residuals = [r + bound * _horner(abs_coeffs, abs(w)) for r, w in zip(fl, z)]
    radii = _weierstrass_radii(z, residuals)
    flagged = _overlapping(z, radii)
    if not flagged:
        return "", radii, fl
    for _ in range(_EXACT_STEPS):
        moved = False
        for i in flagged:
            zi = z[i]
            value = _exact_value(p, zi)
            if not value:  # z_i is a zero of p
                continue
            try:
                delta = _aberth_delta(z, i, value, _monic_horner(tail, zi)[1])
            except ZeroDivisionError:
                continue
            if cmath.isfinite(delta):
                z[i] = zi - delta
                moved = moved or abs(delta) > _UNIT_ROUNDOFF * abs(zi)
        if not moved:
            break
    for i in flagged:
        residuals[i] = abs(_exact_value(p, z[i]))
        fl[i] = abs(_horner(coeffs, z[i]))
    radii = _weierstrass_radii(z, residuals)
    overlapping = _overlapping(z, radii)
    if not overlapping:
        return "", radii, fl
    cluster = _meeting(z, radii, overlapping[0])
    centre = sum(z[j] for j in cluster) / len(cluster)
    where = f"{centre.real:.4g}"
    if round(centre.imag, 4):
        where += f"{centre.imag:+.4g}i"
    listed = ", ".join(f"{radii[j]:.1e}" for j in cluster)
    return (
        f"zeros near {where} not isolated in double precision "
        f"(inclusion radii {listed})"
    ), radii, fl


def _build(
    degree: int,
    z: list[complex],
    coeffs: list[float],
    sweeps: int,
    radii: list[float],
) -> RootSet:
    """Classify the iterates by their disjoint inclusion discs.

    The disc D_i about z_i (radius ``radii[i]``) holds exactly one zero
    w_i.  p is real, so conj(w_i) is a zero and lies in the mirrored disc
    conj(D_i).  If D_i meets the real axis and conj(D_i) meets no other
    disc, conj(w_i) = w_i is real.  If D_i misses the axis, w_i is not
    real, and when conj(D_i) meets exactly one other disc D_j,
    w_j = conj(w_i).  Whatever is left raises ``ClassificationError``.
    """
    mirrored = [
        [j for j, v in enumerate(z) if j != i and abs(w.conjugate() - v) <= radii[i] + radii[j]]
        for i, w in enumerate(z)
    ]
    real = [abs(w.imag) <= r and not m for w, r, m in zip(z, radii, mirrored)]
    partner: dict[int, int] = {}
    for i, w in enumerate(z):
        if abs(w.imag) > radii[i] and len(mirrored[i]) == 1:
            j = mirrored[i][0]
            if partner.setdefault(i, j) != j or partner.setdefault(j, i) != i:
                raise ClassificationError(f"root {z[j]!r} mirrors two roots")
    for i, w in enumerate(z):
        if not real[i] and i not in partner:
            raise ClassificationError(
                f"root {w!r} (disc radius {radii[i]:.1e}) is neither certified "
                "real nor one of a certified conjugate pair"
            )
    real_parts = [w.real for w, is_real in zip(z, real) if is_real]
    pairs: list[tuple[complex, complex]] = []
    for i, j in partner.items():
        if i < j:
            up, low = (z[i], z[j]) if z[i].imag > 0 else (z[j], z[i])
            # p is real, so store the pair exactly conjugate
            m = (up + low.conjugate()) / 2
            pairs.append((m, m.conjugate()))
    real_parts.sort()
    pairs.sort(key=lambda pair: (pair[0].real, pair[0].imag))
    flat: list[complex] = [complex(r, 0.0) for r in real_parts]
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
        real_roots=tuple(real_parts),
        complex_pairs=tuple(pairs),
        monic_coeffs=tuple(coeffs),
        sweeps=sweeps,
    )


def vieta_residuals(p: QPoly, roots: tuple[complex, ...]) -> tuple[float, float]:
    """|sum - (-a_{n-1}/a_n)| and |prod - (-1)^n a_0/a_n| for the root list."""
    n, nums = p.degree, p.nums
    target_sum = -nums[n - 1] / nums[n] if n > 0 else 0.0
    target_prod = (-1) ** n * nums[0] / nums[n]
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
