"""Rendering helpers: rationals, fixed-point decimals, polynomials, roots."""

from __future__ import annotations

from fractions import Fraction

from .qcore import QPoly

__all__ = ["frac_str", "decimal_str", "ratio_str", "poly_text", "real_str", "pair_str"]

_PLACES = 12  # decimals of an exact rational
_ZERO_PLACES = 4  # decimals of a rounded zero, as the published tables print them


def _int_str(n: int) -> str:
    """str(n), also past Python's int-to-str digit limit (4300 by default)."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # converts exactly, with no digit limit

        return str(Decimal(n))


def frac_str(x: Fraction) -> str:
    """'p/r' (or plain 'p' for integers); the JSON wire form for rationals."""
    x = Fraction(x)
    if x.denominator == 1:
        return _int_str(x.numerator)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


def decimal_str(x: Fraction) -> str:
    """Fixed-point decimal string of an exact rational to 12 places, round-half-even."""
    x = Fraction(x)
    return ratio_str(x.numerator, x.denominator)


def ratio_str(num: int, den: int) -> str:
    """``decimal_str`` of num/den for integers with den > 0, reduced or not:
    the half-even rounding is exact and takes no gcd."""
    i, r = divmod(num * 10**_PLACES, den)
    if 2 * r > den or (2 * r == den and i & 1):
        i += 1
    sign = "-" if i < 0 else ""
    digits = _int_str(abs(i)).rjust(_PLACES + 1, "0")
    return f"{sign}{digits[:-_PLACES]}.{digits[-_PLACES:]}"


def _term(coeff: Fraction, power: int) -> str:
    if power == 0:
        return frac_str(coeff)
    body = "x" if power == 1 else f"x^{power}"
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{frac_str(coeff)}{body}"


def poly_text(p: QPoly) -> str:
    """Human form, highest power first, e.g. 'x^2 - 2x + 6/7'."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for power in range(p.degree, -1, -1):
        c = p.coeff(power)
        if c == 0:
            continue
        piece = _term(c, power)
        if not parts:
            parts.append(piece)
        elif piece.startswith("-"):
            parts.append(f"- {piece[1:]}")
        else:
            parts.append(f"+ {piece}")
    return " ".join(parts)


def real_str(v: float) -> str:
    """Rounded real, avoiding '-0.0000'."""
    s = f"{v:.{_ZERO_PLACES}f}"
    return s.lstrip("-") if float(s) == 0 else s


def pair_str(z: complex) -> str:
    """'a+bi' / 'a-bi' with both parts rounded."""
    sign = "+" if z.imag >= 0 else "-"
    return f"{real_str(z.real)}{sign}{abs(z.imag):.{_ZERO_PLACES}f}i"
