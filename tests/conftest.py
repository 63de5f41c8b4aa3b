from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

settings.register_profile(
    "exact",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture
def ctx_half():
    from qappell import QContext

    return QContext(Fraction(1, 2))


def assert_canonical(p):
    """p is in QPoly's canonical form: integers over a positive denominator,
    content 1, no trailing zero, and the zero polynomial as ((), 1)."""
    from math import gcd

    assert type(p.nums) is tuple and all(type(n) is int for n in p.nums)
    assert type(p.den) is int and p.den > 0
    assert gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert p.nums or p.den == 1


def lincomb_oracle(weights, polys):
    """sum w_k p_k by summing coefficient lists directly: the reference for
    ``qcore.lincomb``, independent of the library's polynomial arithmetic."""
    from qappell import QPoly

    acc = [Fraction(0)] * max((len(p.coeffs) for p in polys), default=0)
    for w, p in zip(weights, polys):
        for i, c in enumerate(p.coeffs):
            acc[i] += w * c
    return QPoly(acc)


def monomial_basis(n):
    """The basis 1, x, ..., x**n."""
    from qappell import QPoly

    return [QPoly.monomial(k) for k in range(n + 1)]


def q_values():
    """Strategy for the base: rationals strictly inside (0, 1)."""
    return st.fractions(
        min_value=Fraction(1, 64), max_value=Fraction(63, 64), max_denominator=64
    )


def small_fractions(bound: int = 8, max_denominator: int = 24):
    return st.fractions(
        min_value=Fraction(-bound), max_value=Fraction(bound), max_denominator=max_denominator
    )
