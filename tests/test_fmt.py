"""Rendering of exact rationals, also past Python's int-to-str digit limit,
and the unreduced integer rounding kernel that ``decimal_str`` shares."""

from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

from qappell.fmt import decimal_str, frac_str, ratio_str

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
    assert decimal_str(F(n, 1000)) == f"{DIGITS[:-3]}.{DIGITS[-3:]}000000000"
    # the digits end in ...787, so 12 places of n/10^14 round the last kept 7 up to 8
    assert decimal_str(F(-n, 10**14)) == f"-{DIGITS[:-14]}.{DIGITS[-14:-3]}8"


def _decimal_oracle(x: F) -> str:
    """The 12-place string by Fraction's exact half-even ``round``, as
    ``decimal_str`` formed it before it shared ``ratio_str``."""
    i = round(x * 10**12)
    sign = "-" if i < 0 else ""
    digits = str(abs(i)).rjust(13, "0")
    return f"{sign}{digits[:-12]}.{digits[-12:]}"


def test_ratio_str_matches_decimal_str_on_ties_signs_and_zero():
    # exact half-way cases round to even, on both sides of 0
    for num, den in [(1, 2 * 10**12), (3, 2 * 10**12), (-1, 2 * 10**12), (-3, 2 * 10**12),
                     (5, 2 * 10**13), (25, 10**14), (-25, 10**14), (0, 1), (0, 7**40),
                     (-1, 7), (2, 3), (10**30 + 1, 10**18)]:
        for scale in (1, 6, 11**9):  # unreduced forms give the same string
            got = ratio_str(num * scale, den * scale)
            assert got == decimal_str(F(num, den)) == _decimal_oracle(F(num, den)), (num, den)
    assert ratio_str(1, 2 * 10**12) == "0.000000000000"
    assert ratio_str(3, 2 * 10**12) == "0.000000000002"
    assert ratio_str(-3, 2 * 10**12) == "-0.000000000002"
    assert ratio_str(-1, 2 * 10**12) == "0.000000000000"


@given(st.integers(-(10**40), 10**40), st.integers(1, 10**30), st.integers(1, 10**6))
def test_ratio_str_equals_decimal_str(num, den, scale):
    want = _decimal_oracle(F(num, den))
    assert ratio_str(num * scale, den * scale) == decimal_str(F(num, den)) == want


@given(st.integers(-(10**20), 10**20), st.integers(1, 10**6))
def test_ratio_str_rounds_exact_ties_to_even(k, scale):
    # (2k + 1) / (2 10^12) is k + 1/2 units of the last place
    num, den = (2 * k + 1) * scale, 2 * 10**12 * scale
    assert ratio_str(num, den) == _decimal_oracle(F(num, den))
