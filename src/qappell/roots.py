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
  is frozen once its update falls below ``_DEFAULT_TOL``, or once its
  update has stopped shrinking while |p(z_i)| is within Horner's rounding
  error bound 2n u sum |a_k||z_i|^k (u = 2^-53; Higham, *Accuracy and
  Stability of Numerical Algorithms*, ch. 5).  Each sweep updates only the
  iterates still moving, but their Aberth sums run over all n, the frozen
  included;
* acceptance: each zero gets the Weierstrass inclusion disc of radius
  n |p(z_i) / prod_(j != i) (z_i - z_j)| (Braess & Hadeler 1973; Neumaier
  2003), first from |fl p(z_i)| plus Horner's bound; it must meet no other
  disc and have radius at most ``_TARGET`` |z_i|.  At a cluster, or for q
  near 1, that residual is rounding noise, so each member that fails gets up
  to ``_EXACT_STEPS`` Aberth corrections from exact residuals, which then
  size its disc; one that still fails is named in a ``RootFindingError``.
  The stage costs O(n^2) for the radii, one Horner pass per iterate, disc
  tests by a sweep over real parts and one exact image per correction step.

Classification rests on the same discs (``_build``), since p is real and
the mirror image of a zero is a zero.  There is no randomness anywhere, so
identical inputs give bit-identical results.  Every failure is a
``RootFindingError``, also a coefficient ratio outside double range, a
failed classification ("classification failed: ...", raised by ``_build``
itself), and a float image whose k >= 2 lowest coefficients
are 0.0 while the exact ones are not all 0: "a_0..a_(k-1) underflow in the
float image", not a multiple zero at 0.  Residual and Vieta checks are
provided separately so callers can assert them.
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
    "to_float",
    "find_roots",
    "vieta_residuals",
    "sample",
]

_ANGLE_OFFSET = 0.4  # radians; fixed, keeps the start set asymmetric
_DEFAULT_TOL = 1e-13
_MAX_SWEEPS = 500  # Aberth sweeps before a refusal
_UNIT_ROUNDOFF = 2.0**-53
_EXACT_STEPS = 8  # exact-residual corrections of a clustered or wide disc, at most
_TARGET = 2.0**-20  # widest accepted inclusion disc, relative to |z_i|


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


def find_roots(p: QPoly) -> RootSet:
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
    low = next(k for k, c in enumerate(p.nums) if c)
    if at_zero > 1 and low < at_zero:
        raise failure(f"a_{low}..a_{at_zero - 1} underflow in the float image")
    if at_zero > 1:
        raise failure(
            "zeros near 0 not isolated in double precision "
            f"(multiplicity {at_zero} in the float image)"
        )
    tail = coeffs[-2::-1]
    abs_coeffs = [abs(c) for c in coeffs]
    live = list(range(n))
    updates = [math.inf] * n
    for sweeps in range(1, _MAX_SWEEPS + 1):
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
            if update >= _DEFAULT_TOL and not (
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
            f"no convergence after {_MAX_SWEEPS} sweeps ({len(live)} of {n} iterates "
            f"still moving, last max update {max(updates[i] for i in live):.3e})"
        )

    cluster, radii = _settle_clusters(p, z, coeffs, tail)
    if cluster:
        raise failure(cluster)
    return _build(n, z, coeffs, sweeps, radii)


def _exact_values(p: QPoly, points: list[complex]) -> tuple[list[complex], list[bool]]:
    """p(z)/lead(p) at each dyadic point z, rounded once from its exact value
    (inf beyond double range), and whether that exact value is 0, by Gaussian-
    integer Horner on one homogeneous image of p over the points' largest
    power-of-two denominator b; int / int rounds correctly, so the values do
    not depend on b."""
    parts = [(w.real.as_integer_ratio(), w.imag.as_integer_ratio()) for w in points]
    b = max(max(dr, di) for (_, dr), (_, di) in parts)
    hom, den = homogeneous_image(p, b)
    scale = den // p.den * p.nums[-1]  # b^n N_n, as E = D b^n
    values, zero = [], []
    for (xr, dr), (xi, di) in parts:
        ar, ai = xr * (b // dr), xi * (b // di)
        re = im = 0
        for c in hom:
            re, im = re * ar - im * ai + c, re * ai + im * ar
        try:
            values.append(complex(re / scale, im / scale))
        except OverflowError:
            values.append(complex(math.inf))
        zero.append(not (re or im))
    return values, zero


def _weierstrass_radii(z: list[complex], residuals: list[float]) -> list[float]:
    """n |p(z_i) / prod_(j != i) (z_i - z_j)| for each i, from |p(z_i)|, the
    factor n widened by 4n u for the rounding of the product; two coincident
    iterates give inf."""
    n = len(z)
    widened = n * (1 + 4 * n * _UNIT_ROUNDOFF)
    radii = []
    for i, zi in enumerate(z):
        prod: complex = 1.0
        for w in z[:i]:
            prod *= zi - w
        for w in z[i + 1 :]:
            prod *= zi - w
        radii.append(widened * residuals[i] / abs(prod) if prod else math.inf)
    return radii


def _meeting(z: list[complex], radii: list[float], mirrored=False) -> list[list[int]]:
    """For each i, the j != i with |c_i - z_j| <= r_i + r_j, where c_i is z_i
    or, mirrored, conj(z_i).  The test is symmetric in i and j, and a sweep
    over the real parts scans only within r_i + max(r), since |c_i - z_j| >=
    |fl(Re z_i - Re z_j)|; an inf or NaN radius widens the window to all.
    """
    order = sorted(range(len(z)), key=lambda i: z[i].real)
    widest = max(radii) if all(r < math.inf for r in radii) else math.inf
    met: list[list[int]] = [[] for _ in z]
    for k, i in enumerate(order):
        centre, ri = z[i].conjugate() if mirrored else z[i], radii[i]
        for j in order[k + 1 :]:
            if z[j].real - centre.real > ri + widest:
                break
            if abs(centre - z[j]) <= ri + radii[j]:
                met[i].append(j)
                met[j].append(i)
    return met


def _settle_clusters(
    p: QPoly, z: list[complex], coeffs: list[float], tail: list[float]
) -> tuple[str, list[float]]:
    """Name a zero whose Weierstrass inclusion disc meets another or is wider
    than ``_TARGET`` |z_i|, or "", and give every member's disc radius.

    Each connected union of m discs holds exactly m zeros (Braess & Hadeler
    1973).  A float disc uses |fl p(z_i)| plus Horner's bound for complex z,
    (4n + 1) u sum |a_k||z_i|^k: each complex multiply-add errs by at most
    (2 sqrt 2 + 1) u < 4u (Higham, ch. 3.6) and the extra u covers the
    rounded coefficients, so it contains the exact disc.  Members whose float
    discs overlap or miss the target are corrected in index order, in place,
    and sized anew; the others of radius 0.0, which may be underflow, get one
    exact evaluation, and only an exact 0 keeps radius 0.0.  Overlap is named
    first, then radius 0.0, then width.
    """
    n = len(z)
    bound = (4 * n + 1) * _UNIT_ROUNDOFF
    residuals = []
    terms = [(c, abs(c)) for c in reversed(coeffs)]
    for w in z:
        # |fl p(w)| and sum |a_k||w|^k in one pass, in _horner's order
        value, size, modulus = 0.0, 0.0, abs(w)
        for c, a in terms:
            value = value * w + c
            size = size * modulus + a
        residuals.append(abs(value) + bound * size)
    radii = _weierstrass_radii(z, residuals)
    met = _meeting(z, radii)
    # not <=, so that a NaN radius misses the target
    moving = [i for i, m in enumerate(met) if m or not radii[i] <= _TARGET * abs(z[i])]
    flagged = moving + [i for i, r in enumerate(radii) if not r and not met[i]]
    if not flagged:
        return "", radii
    values, zero = _exact_values(p, [z[i] for i in flagged])  # the thin ones get only this
    for _ in range(_EXACT_STEPS if moving else 0):
        moved = False
        for i, value, is_zero in zip(moving, values, zero):  # only its own update moves z_i
            if is_zero:  # z_i is a zero of p
                continue
            zi = z[i]
            try:
                delta = _aberth_delta(z, i, value, _monic_horner(tail, zi)[1])
            except ZeroDivisionError:
                continue
            if cmath.isfinite(delta):
                z[i] = zi - delta
                moved = moved or abs(delta) > _UNIT_ROUNDOFF * abs(zi)
        values[: len(moving)], zero[: len(moving)] = _exact_values(p, [z[i] for i in moving])
        if not moved:
            break
    for i, value in zip(flagged, values):
        residuals[i] = abs(value)
    radii = _weierstrass_radii(z, residuals)
    exact = {i for i, is_zero in zip(flagged, zero) if is_zero}
    thin = [i for i, r in enumerate(radii) if not r and i not in exact]
    lone = (thin or [i for i, r in enumerate(radii) if not r <= _TARGET * abs(z[i])])[:1]
    cluster = next((sorted([i, *m]) for i, m in enumerate(_meeting(z, radii)) if m), lone)
    if not cluster:
        return "", radii
    centre = sum(z[j] for j in cluster) / len(cluster)
    where = f"{centre.real:.4g}"
    if abs(centre.imag) > 5e-5 * abs(centre):  # not lost to 4 digits of |centre|
        where += f"{centre.imag:+.4g}i"
    if len(cluster) > 1:
        listed = ", ".join(f"{radii[j]:.1e}" for j in cluster)
        return (
            f"zeros near {where} not isolated in double precision "
            f"(inclusion radii {listed})"
        ), radii
    width = radii[cluster[0]]
    if width:  # NaN or wider than the target
        return f"inclusion disc of the zero near {where} has radius {width:.1e}", radii
    # a radius of 0.0 with an exact residual that is not 0
    return f"inclusion disc of the zero near {where} underflows to radius 0.0", radii


def _build(
    degree: int, z: list[complex], coeffs: list[float], sweeps: int, radii: list[float]
) -> RootSet:
    """Classify the iterates by their disjoint inclusion discs.

    The disc D_i about z_i (radius ``radii[i]``) holds exactly one zero
    w_i.  p is real, so conj(w_i) is a zero and lies in the mirrored disc
    conj(D_i).  If D_i meets the real axis and conj(D_i) meets no other
    disc, conj(w_i) = w_i is real.  If D_i misses the axis, w_i is not
    real, and when conj(D_i) meets exactly one other disc D_j,
    w_j = conj(w_i).  Whatever is left raises a ``RootFindingError``
    "classification failed: ..." with the iterates, their residuals and the
    sweeps, as every refusal of ``find_roots`` carries them.
    """

    def failure(message: str) -> RootFindingError:
        return RootFindingError(
            f"classification failed: {message}", z, [abs(_horner(coeffs, w)) for w in z], sweeps
        )

    mirrored = _meeting(z, radii, mirrored=True)
    real = [abs(w.imag) <= r and not m for w, r, m in zip(z, radii, mirrored)]
    partner: dict[int, int] = {}
    for i, w in enumerate(z):
        if abs(w.imag) > radii[i] and len(mirrored[i]) == 1:
            j = mirrored[i][0]
            if partner.setdefault(i, j) != j or partner.setdefault(j, i) != i:
                raise failure(f"root {z[j]!r} mirrors two roots")
    for i, w in enumerate(z):
        if not real[i] and i not in partner:
            raise failure(
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
    flat = [complex(r, 0.0) for r in real_parts] + [w for pair in pairs for w in pair]
    if len(flat) != degree:
        raise failure(
            f"classified {len(flat)} roots for a degree-{degree} polynomial"
        )
    residuals = tuple(abs(_horner(coeffs, w)) for w in flat)
    if not all(map(math.isfinite, residuals)):
        raise failure("non-finite residual")
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
