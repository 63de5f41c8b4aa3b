"""Exact q-arithmetic primitives over arbitrary-precision rationals.

The base q is a fixed rational with 0 < q < 1, held in a ``QContext``
together with memo tables for the scalar quantities derived from it:

    [a]_q   = (1 - q^a) / (1 - q)                 (q-number)
    [n]_q!  = [1]_q [2]_q ... [n]_q,  [0]_q! = 1  (q-factorial)
    C(n,k)_q = [n]_q! / ([k]_q! [n-k]_q!)         (Gauss q-binomial)

All scalars are ``fractions.Fraction`` instances, so every operation in
this module is exact.  ``QPoly`` is a dense polynomial in x over the
rationals; the q-derivative acts on it by the monomial rule
x^n -> [n]_q x^(n-1), which agrees with the difference quotient
(p(qx) - p(x)) / (qx - x) for every polynomial.

Sums go through one kernel, ``dot``: integer numerator products over a
running common denominator, then one ``Fraction``, so each sum is normalised
once.  ``lincomb`` sums polynomials with one ``dot`` per coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

RatLike = Union[Fraction, int]

__all__ = [
    "QContext",
    "QPoly",
    "parse_rat",
    "parse_q",
    "q_derive",
]


def parse_rat(text: str) -> Fraction:
    """Parse a rational written as 'p/r' or a plain integer string."""
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(
            f"{text!r} is not an exact rational; write it as a fraction like '1/2'"
        )
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {text!r} as a rational") from exc


def parse_q(text: str) -> Fraction:
    """Parse the base q, enforcing 0 < q < 1."""
    q = parse_rat(text)
    if not 0 < q < 1:
        raise ValueError(f"q must satisfy 0 < q < 1, got {q}")
    return q


class QContext:
    """A fixed rational base 0 < q < 1 plus memoized derived scalars.

    The memo tables are a pure cache: results are identical with caching
    disabled, and the only mutation anywhere in the module is filling them.
    """

    __slots__ = ("q", "_qnum", "_qfact", "_qbin")

    def __init__(self, q: Union[Fraction, int, str]):
        if isinstance(q, str):
            q = parse_rat(q)
        q = Fraction(q)
        if not 0 < q < 1:
            raise ValueError(f"q must satisfy 0 < q < 1, got {q}")
        self.q = q
        self._qnum: dict[int, Fraction] = {}
        self._qfact: dict[int, Fraction] = {0: Fraction(1)}
        self._qbin: dict[tuple[int, int], Fraction] = {}

    def __repr__(self) -> str:
        return f"QContext(q={self.q})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QContext) and self.q == other.q

    def __hash__(self) -> int:
        return hash(("QContext", self.q))

    def q_number(self, a: int) -> Fraction:
        """[a]_q for integer a >= 0."""
        if a < 0:
            raise ValueError(f"q-number needs a >= 0, got {a}")
        got = self._qnum.get(a)
        if got is None:
            got = (1 - self.q**a) / (1 - self.q)
            self._qnum[a] = got
        return got

    def q_factorial(self, n: int) -> Fraction:
        """[n]_q! for n >= 0."""
        if n < 0:
            raise ValueError(f"q-factorial needs n >= 0, got {n}")
        got = self._qfact.get(n)
        if got is None:
            # fill upward from the largest cached index
            top = max(self._qfact)
            acc = self._qfact[top]
            for m in range(top + 1, n + 1):
                acc = acc * self.q_number(m)
                self._qfact[m] = acc
            got = acc
        return got

    def q_binomial(self, n: int, k: int) -> Fraction:
        """Gauss q-binomial C(n,k)_q; rejects k outside 0..n."""
        if k < 0 or k > n:
            raise ValueError(f"q-binomial needs 0 <= k <= n, got n={n}, k={k}")
        got = self._qbin.get((n, k))
        if got is None:
            got = self.q_factorial(n) / (self.q_factorial(k) * self.q_factorial(n - k))
            self._qbin[(n, k)] = got
        return got


class QPoly:
    """Dense polynomial in x over Fraction; ``coeffs[i]`` multiplies x**i.

    Immutable.  The zero polynomial stores no coefficients and has
    degree -1; otherwise the top stored coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QPoly is immutable")

    @staticmethod
    def zero() -> "QPoly":
        return QPoly(())

    @staticmethod
    def monomial(power: int, coefficient: RatLike = 1) -> "QPoly":
        """coefficient * x**power."""
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        return QPoly((0,) * power + (coefficient,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x**i (zero beyond the stored degree)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __call__(self, x: RatLike) -> Fraction:
        """p(x), by homogeneous integer Horner over a common denominator.

        With x = a/b, p(x) = (sum_i C_i a^i b^(n-i)) / (D b^n), where
        c_i = C_i / D: integer multiply-adds only, and one ``Fraction``.
        """
        x = Fraction(x)
        hom, den = homogeneous_image(self, x.denominator)
        acc = 0
        for c in hom:
            acc = acc * x.numerator + c
        return Fraction(acc, den)

    def __mul__(self, scalar: RatLike) -> "QPoly":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return QPoly(c * scalar for c in self.coeffs)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("QPoly", self.coeffs))

    def __repr__(self) -> str:
        return f"QPoly({[str(c) for c in self.coeffs]})"


def homogeneous_image(p: QPoly, b: int) -> tuple[list[int], int]:
    """Integers H_0..H_n and E with p(a/b) = (sum_j H_j a^(n-j)) / E for all a.

    D is the least common denominator of p's coefficients, c_i = C_i / D;
    then H_j = C_(n-j) b^j (highest power of a first) and E = D b^n.  The
    zero polynomial gives ([], 1).
    """
    den = lcm(*(c.denominator for c in p.coeffs))
    hom, bpow = [], 1
    for c in reversed(p.coeffs):
        hom.append(c.numerator * (den // c.denominator) * bpow)
        bpow *= b
    return hom, den * b ** max(p.degree, 0)


def dot(xs: Iterable[RatLike], ys: Iterable[RatLike]) -> Fraction:
    """sum x_k y_k, normalised once: numerator products over a running lcm."""
    num, den = 0, 1
    for x, y in zip(xs, ys):
        n = x.numerator * y.numerator
        if not n:
            continue
        d = x.denominator * y.denominator
        g = gcd(den, d)
        if g == d:
            num += n * (den // d)
        else:
            d //= g
            num = num * d + n * (den // g)
            den *= d
    return Fraction(num, den)


def lincomb(weights: Sequence[RatLike], polys: Sequence[QPoly]) -> QPoly:
    """sum_k w_k p_k, with one ``dot`` and one ``Fraction`` per coefficient."""
    if len(weights) != len(polys):
        raise ValueError(f"{len(weights)} weights for {len(polys)} polynomials")
    rows = [p.coeffs for p in polys]
    width = max(map(len, rows), default=0)
    return QPoly(
        dot(weights, [cs[i] if i < len(cs) else 0 for cs in rows])
        for i in range(width)
    )


def q_derive(p: QPoly, ctx: QContext) -> QPoly:
    """q-derivative D_q p: sends x^n to [n]_q x^(n-1), extended linearly."""
    if p.degree < 1:
        return QPoly.zero()
    return QPoly(ctx.q_number(i) * p.coeffs[i] for i in range(1, len(p.coeffs)))
