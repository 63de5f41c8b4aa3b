"""Exact q-arithmetic primitives over arbitrary-precision rationals.

The base q is a fixed rational with 0 < q < 1, held in a ``QContext``
together with memo tables for the scalar quantities derived from it:

    [a]_q   = (1 - q^a) / (1 - q)                 (q-number)
    [n]_q!  = [1]_q [2]_q ... [n]_q,  [0]_q! = 1  (q-factorial)
    C(n,k)_q = [n]_q! / ([k]_q! [n-k]_q!)         (Gauss q-binomial)

All scalars are ``fractions.Fraction`` instances, so every operation in
this module is exact; ``dot`` sums them with one normalisation.

``QPoly`` stores p(x) = sum_i (N_i / D) x^i as FLINT's ``fmpq_poly`` does:
integers N_0..N_n over one denominator D > 0, with gcd(D, N_0, ..., N_n) = 1
and N_n != 0, and zero as ((), 1).  Equal polynomials have equal integers,
each kernel is integer multiply-adds plus one content gcd, and ``coeffs`` is
a ``Fraction`` view built on demand.  D_q acts by x^n -> [n]_q x^(n-1),
which agrees with the difference quotient (p(qx) - p(x)) / (qx - x).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
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

    __slots__ = ("q", "_qnum", "_qfact", "_qbin", "_fints")

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
        self._fints: tuple[list[int], list[int]] = ([1], [1])

    def __repr__(self) -> str:
        return f"QContext(q={self.q})"

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
        """Gauss q-binomial C(n,k)_q from the kept Phi (an exact quotient,
        coprime to b); rejects k outside 0..n."""
        if k < 0 or k > n:
            raise ValueError(f"q-binomial needs 0 <= k <= n, got n={n}, k={k}")
        got = self._qbin.get((n, k))
        if got is None:
            phi = self.factorial_ints(n)[0]  # Psi_k Psi_(n-k) / Psi_n = b^-(k(n-k))
            got = Fraction(phi[n] // (phi[k] * phi[n - k]), self.q.denominator ** (k * (n - k)))
            self._qbin[(n, k)] = got
        return got

    def factorial_ints(self, n: int) -> tuple[list[int], list[int]]:
        """Integers with [i]_q! = Phi_i / Psi_i, i <= n: for q = a/b,
        Phi_i = prod_(j<=i) (b^j - a^j) and Psi_i = b^(i(i-1)/2) (b - a)^i.
        Both lists are kept and filled upward; a call returns copies."""
        if n < 0:
            raise ValueError(f"q-factorial needs n >= 0, got {n}")
        a, b = self.q.numerator, self.q.denominator
        phi, psi = self._fints
        for i in range(len(phi), n + 1):
            phi.append(phi[-1] * (b**i - a**i))
            psi.append(psi[-1] * b ** (i - 1) * (b - a))
        return phi[: n + 1], psi[: n + 1]


class QPoly:
    """Dense polynomial in x: ``nums[i] / den`` multiplies x**i, in the
    canonical form of the module docstring.  Immutable; zero has degree -1."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # content is 1 over the lcm of reduced denominators; % skips most gcds
        den = 1
        for c in cs:
            if den % c.denominator:
                den = lcm(den, c.denominator)
        object.__setattr__(self, "nums", tuple([c.numerator * (den // c.denominator) for c in cs]))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QPoly is immutable")

    @staticmethod
    def from_ints(nums: list[int], den: int) -> "QPoly":
        """sum_i (nums[i] / den) x^i, den > 0, made canonical; consumes nums."""
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums)
        p = object.__new__(QPoly)
        object.__setattr__(p, "nums", tuple([n // g for n in nums] if g > 1 else nums))
        object.__setattr__(p, "den", den // g)
        return p

    @staticmethod
    def zero() -> "QPoly":
        return QPoly(())

    @staticmethod
    def monomial(power: int) -> "QPoly":
        """x**power."""
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        return QPoly((0,) * power + (1,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(n, self.den) for n in self.nums])

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x**i (zero beyond the stored degree)."""
        return Fraction(self.nums[i], self.den) if 0 <= i < len(self.nums) else Fraction(0)

    def __call__(self, x: RatLike) -> Fraction:
        """p(x) by homogeneous integer Horner: with x = a/b, p(x) =
        (sum_i N_i a^i b^(n-i)) / (D b^n), so one ``Fraction`` in all."""
        x = Fraction(x)
        hom, den = homogeneous_image(self, x.denominator)
        acc = 0
        for c in hom:
            acc = acc * x.numerator + c
        return Fraction(acc, den)

    def __mul__(self, scalar: RatLike) -> "QPoly":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        s, t = scalar.numerator, scalar.denominator
        return QPoly.from_ints([s * n for n in self.nums], self.den * t)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QPoly) and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash(("QPoly", self.den, self.nums))

    def __repr__(self) -> str:
        return f"QPoly({[str(c) for c in self.coeffs]})"


def homogeneous_image(p: QPoly, b: int) -> tuple[list[int], int]:
    """Integers H_0..H_n and E with p(a/b) = (sum_j H_j a^(n-j)) / E for all a:
    H_j = N_(n-j) b^j, E = D b^n, and ([], 1) for the zero polynomial."""
    hom = [c * b**j for j, c in enumerate(reversed(p.nums))]
    return hom, p.den * b ** max(p.degree, 0)


def dot(xs: Iterable[RatLike], ys: Iterable[RatLike], scale: RatLike = 1) -> Fraction:
    """scale * sum x_k y_k, normalised once: numerator products over a running
    lcm.  One divmod per term gives both the divisibility test and the cofactor."""
    num, den = 0, 1
    for x, y in zip(xs, ys):
        n = x.numerator * y.numerator
        if not n:
            continue
        d = x.denominator * y.denominator
        m, r = divmod(den, d)
        if not r:
            num += n * m
        else:
            g = gcd(den, d)
            d //= g
            num = num * d + n * (den // g)
            den *= d
    return Fraction(scale.numerator * num, scale.denominator * den)


def lincomb_ints(terms: Iterable[tuple[int, int, Sequence[int]]]) -> tuple[list[int], int]:
    """sum_k (s_k / d_k) R_k for integer rows R_k, as integers over one
    common denominator.  It grows term by term to lcm(den, d_k), rescaling
    the sum so far, so a weight is raised only to the denominator reached."""
    acc, den = [], 1
    for s, d, row in terms:
        if den % d:
            up = d // gcd(den, d)
            acc = [a * up for a in acc]
            den *= up
        f = s * (den // d)
        acc += [0] * (len(row) - len(acc))
        acc[: len(row)] = map(add, acc, map(f.__mul__, row))
    return acc, den


def lincomb(weights: Sequence[RatLike], polys: Sequence[QPoly]) -> QPoly:
    """sum_k w_k p_k, as the rows N_k of p_k = N_k/D_k with weights w_k/D_k."""
    if len(weights) != len(polys):
        raise ValueError(f"{len(weights)} weights for {len(polys)} polynomials")
    rows = ((w.numerator, w.denominator * p.den, p.nums) for w, p in zip(weights, polys) if w)
    return QPoly.from_ints(*lincomb_ints(rows))


def q_derive(p: QPoly, ctx: QContext) -> QPoly:
    """D_q p, by x^n -> [n]_q x^(n-1): as [i]_q = (b^i - a^i) / (b^(i-1) (b - a))
    for q = a/b, its numerators (b^i - a^i) b^(n-i) N_i are over b^(n-1) (b - a) D."""
    n, a, b = p.degree, ctx.q.numerator, ctx.q.denominator
    return QPoly.from_ints(
        [(b**i - a**i) * b ** (n - i) * p.nums[i] for i in range(1, n + 1)],
        b ** max(n - 1, 0) * (b - a) * p.den,
    )
