"""Truncated coefficient sequences in the t^n/[n]_q! convention.

An ``ESeq`` of order N stores c_0..c_N and represents the truncation of
f(t) = sum_n c_n t^n/[n]_q!.  In this convention the product of two
functions corresponds to the q-binomial convolution

    (ab)_n = sum_k C(n,k)_q a_k b_{n-k},

which makes ``convolve`` the native multiplication and gives the
reciprocal a triangular recursion:

    b_0 = 1/a_0,   b_n = -(1/a_0) sum_{k=1}^{n} C(n,k)_q a_k b_{n-k}.

Both are computed as ordinary Cauchy products.  With alpha_k = a_k/[k]_q!
and beta_k = b_k/[k]_q! (the ordinary power-series coefficients of f),

    (ab)_n = [n]_q! sum_k alpha_k beta_{n-k},
    beta_n = -(1/alpha_0) sum_{k=1}^{n} alpha_k beta_{n-k},

so each input is rescaled by the q-factorials once (``ESeq.ordinary``), and
every output coefficient is one inner product, ``qcore.dot``, normalised once
with its scalar factor.  No q-binomial is formed in the quadratic loop.

``shift_up`` multiplies by t, which in this convention rescales by
q-numbers rather than merely shifting indices.
Binary operations require equal q and equal truncation order; silently
truncating would hide bugs in cross-method comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .qcore import QContext, RatLike, dot

__all__ = [
    "ESeq",
    "NonInvertibleError",
    "convolve",
    "reciprocal",
    "shift_up",
    "unit",
]


class NonInvertibleError(ValueError):
    """Raised when a sequence with zero leading coefficient is inverted."""


class ESeq:
    """Coefficients c_0..c_N of f(t) = sum c_n t^n/[n]_q!, immutable."""

    __slots__ = ("ctx", "coeffs", "_ordinary")

    def __init__(self, ctx: QContext, coeffs: Iterable[RatLike]):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_ordinary", None)
        object.__setattr__(self, "coeffs", tuple(
            c if type(c) is Fraction else Fraction(c) for c in coeffs
        ))
        if not self.coeffs:
            raise ValueError("an ESeq needs at least the order-0 coefficient")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ESeq is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def ordinary(self) -> tuple[Fraction, ...]:
        """alpha_k = c_k/[k]_q!, the coefficients of f(t) = sum alpha_k t^k;
        formed on first read and kept, for readers that come back to it."""
        if self._ordinary is None:
            fact = self.ctx.q_factorial
            alpha = tuple([c / fact(k) for k, c in enumerate(self.coeffs)])
            object.__setattr__(self, "_ordinary", alpha)
        return self._ordinary

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ESeq)
            and self.ctx.q == other.ctx.q
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(("ESeq", self.ctx.q, self.coeffs))

    def __repr__(self) -> str:
        return f"ESeq(q={self.ctx.q}, {[str(c) for c in self.coeffs]})"

    def truncated(self, order: int) -> "ESeq":
        """The sequence cut to an order from 0 to its own: a copy below it,
        and the sequence itself, with its kept ordinary form, at it."""
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return self if order == self.order else ESeq(self.ctx, self.coeffs[: order + 1])


def _check_compatible(a: ESeq, b: ESeq) -> None:
    """Equal q and order of two sequences."""
    if a.ctx.q != b.ctx.q:
        raise ValueError(f"mismatched q: {a.ctx.q} vs {b.ctx.q}")
    if a.order != b.order:
        raise ValueError(f"mismatched order: {a.order} vs {b.order}")


def unit(ctx: QContext, order: int) -> ESeq:
    """The constant function 1: coefficients (1, 0, ..., 0)."""
    return ESeq(ctx, (1,) + (0,) * order)


def convolve(a: ESeq, b: ESeq) -> ESeq:
    """q-binomial Cauchy product of two sequences of equal q and order."""
    _check_compatible(a, b)
    alpha, beta = a.ordinary, b.ordinary
    return ESeq(a.ctx, [
        dot(alpha[: n + 1], beta[n::-1], a.ctx.q_factorial(n)) for n in range(a.order + 1)
    ])


def reciprocal(a: ESeq) -> ESeq:
    """The unique b with convolve(a, b) = unit, by the triangular recursion,
    each beta_n one ``dot`` scaled by -1/alpha_0."""
    if a.coeffs[0] == 0:
        raise NonInvertibleError(
            "leading coefficient is zero; the sequence has no reciprocal"
        )
    alpha = a.ordinary
    minus_inv0 = -1 / alpha[0]
    beta = [-minus_inv0]
    for n in range(1, a.order + 1):
        beta.append(dot(alpha[1 : n + 1], beta[::-1], minus_inv0))
    return ESeq(a.ctx, [a.ctx.q_factorial(n) * c for n, c in enumerate(beta)])


def shift_up(a: ESeq) -> ESeq:
    """Multiply by t: r_0 = 0 and r_n = [n]_q a_{n-1}; the top term is lost."""
    qn = a.ctx.q_number
    return ESeq(a.ctx, [Fraction(0)] + [qn(n) * a.coeffs[n - 1] for n in range(1, a.order + 1)])
