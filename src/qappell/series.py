"""Truncated coefficient sequences in the t^n/[n]_q! convention.

An ``ESeq`` of order N stores c_0..c_N and represents the truncation of
f(t) = sum_n c_n t^n/[n]_q!.  In this convention the product of two
functions corresponds to the q-binomial convolution

    (ab)_n = sum_k C(n,k)_q a_k b_{n-k},

which makes ``convolve`` the native multiplication and gives the
reciprocal a triangular recursion:

    b_0 = 1/a_0,   b_n = -(1/a_0) sum_{k=1}^{n} C(n,k)_q a_k b_{n-k}.

``shift_up`` multiplies by t, which in this convention rescales by
q-numbers rather than merely shifting indices.
Binary operations require equal q and equal truncation order; silently
truncating would hide bugs in cross-method comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .qcore import QContext, RatLike

__all__ = [
    "ESeq",
    "NonInvertibleError",
    "convolve",
    "reciprocal",
    "shift_up",
    "unit",
    "q_exp",
]


class NonInvertibleError(ValueError):
    """Raised when a sequence with zero leading coefficient is inverted."""


class ESeq:
    """Coefficients c_0..c_N of f(t) = sum c_n t^n/[n]_q!, immutable."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: QContext, coeffs: Iterable[RatLike]):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))
        if not self.coeffs:
            raise ValueError("an ESeq needs at least the order-0 coefficient")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ESeq is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

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
        """Copy truncated to a lower order."""
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return ESeq(self.ctx, self.coeffs[: order + 1])


def _check_compatible(a: ESeq, b: ESeq) -> None:
    if a.ctx.q != b.ctx.q:
        raise ValueError(f"mismatched q: {a.ctx.q} vs {b.ctx.q}")
    if a.order != b.order:
        raise ValueError(f"mismatched order: {a.order} vs {b.order}")


def unit(ctx: QContext, order: int) -> ESeq:
    """The constant function 1: coefficients (1, 0, ..., 0)."""
    return ESeq(ctx, (1,) + (0,) * order)


def q_exp(ctx: QContext, order: int) -> ESeq:
    """e_q(t) truncated at the given order; every coefficient is 1 here."""
    return ESeq(ctx, (1,) * (order + 1))


def convolve(a: ESeq, b: ESeq) -> ESeq:
    """q-binomial Cauchy product of two sequences of equal q and order."""
    _check_compatible(a, b)
    ctx = a.ctx
    out = []
    for n in range(a.order + 1):
        s = Fraction(0)
        for k in range(n + 1):
            s += ctx.q_binomial(n, k) * a.coeffs[k] * b.coeffs[n - k]
        out.append(s)
    return ESeq(ctx, out)


def reciprocal(a: ESeq) -> ESeq:
    """The unique b with convolve(a, b) = unit, by the triangular recursion."""
    if a.coeffs[0] == 0:
        raise NonInvertibleError(
            "leading coefficient is zero; the sequence has no reciprocal"
        )
    ctx = a.ctx
    inv0 = 1 / a.coeffs[0]
    out = [inv0]
    for n in range(1, a.order + 1):
        s = Fraction(0)
        for k in range(1, n + 1):
            s += ctx.q_binomial(n, k) * a.coeffs[k] * out[n - k]
        out.append(-inv0 * s)
    return ESeq(ctx, out)


def shift_up(a: ESeq) -> ESeq:
    """Multiply by t: r_0 = 0 and r_n = [n]_q a_{n-1}; the top term is lost."""
    ctx = a.ctx
    out = [Fraction(0)]
    for n in range(1, a.order + 1):
        out.append(ctx.q_number(n) * a.coeffs[n - 1])
    return ESeq(ctx, out)
