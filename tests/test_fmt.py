"""Rendering of exact rationals, also past Python's int-to-str digit limit."""

from fractions import Fraction as F

from qappell.fmt import decimal_str, frac_str

# 5000 decimal digits, odd and not a multiple of 5, so n/1000 stays reduced
DIGITS = "7" + "0123456789" * 499 + "123456787"


def _big() -> int:
    # built 1000 digits at a time: int() of a 5000-digit string hits the
    # same limit that frac_str must get past
    n = 0
    for i in range(0, len(DIGITS), 1000):
        n = n * 10**1000 + int(DIGITS[i : i + 1000])
    return n


def test_frac_str_past_digit_limit():
    n = _big()
    assert len(DIGITS) == 5000
    assert frac_str(F(n)) == DIGITS
    assert frac_str(F(-n, 1000)) == f"-{DIGITS}/1000"
    assert frac_str(F(1000, n)) == f"1000/{DIGITS}"


def test_decimal_str_past_digit_limit():
    n = _big()
    assert decimal_str(F(n, 1000), places=3) == f"{DIGITS[:-3]}.{DIGITS[-3:]}"
    # the digits end in ...787, so two places round the last one up to ...79
    assert decimal_str(F(-n, 1000), places=2) == f"-{DIGITS[:-3]}.79"
