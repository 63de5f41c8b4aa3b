from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qappell import QContext, convolve, reciprocal, shift_up, unit
from qappell.series import ESeq, NonInvertibleError

from conftest import q_values, small_fractions


def convolve_oracle(a: ESeq, b: ESeq) -> ESeq:
    """The q-binomial double loop ``convolve`` used before its integer
    kernel, kept as the test oracle."""
    ctx = a.ctx
    out = []
    for n in range(a.order + 1):
        s = F(0)
        for k in range(n + 1):
            s += ctx.q_binomial(n, k) * a.coeffs[k] * b.coeffs[n - k]
        out.append(s)
    return ESeq(ctx, out)


def reciprocal_oracle(a: ESeq) -> ESeq:
    """The q-binomial triangular recursion, kept as the test oracle."""
    ctx = a.ctx
    inv0 = 1 / a.coeffs[0]
    out = [inv0]
    for n in range(1, a.order + 1):
        s = F(0)
        for k in range(1, n + 1):
            s += ctx.q_binomial(n, k) * a.coeffs[k] * out[n - k]
        out.append(-inv0 * s)
    return ESeq(ctx, out)


def q_exp(ctx: QContext, order: int) -> ESeq:
    """e_q(t) = sum t^n/[n]_q! truncated at the given order: all ones."""
    return ESeq(ctx, (1,) * (order + 1))


def seqs(order_max=10, invertible=False, coefficients=small_fractions()):
    def build(q, coeffs):
        ctx = QContext(q)
        if invertible and coeffs[0] == 0:
            coeffs = [F(1)] + coeffs[1:]
        return ESeq(ctx, coeffs)

    return st.builds(
        build,
        q_values(),
        st.lists(coefficients, min_size=1, max_size=order_max + 1),
    )


# zero, negative, int and large-denominator coefficients
mixed = st.one_of(
    st.integers(-30, 30),
    small_fractions(),
    st.fractions(min_value=-2, max_value=2, max_denominator=10**6),
)


def same_order(a: ESeq, b: ESeq) -> ESeq:
    """b over a's context, cut or zero-padded to a's order."""
    return ESeq(a.ctx, list(b.coeffs[: a.order + 1]) + [0] * (a.order - b.order))


class TestBasics:
    def test_unit_and_q_exp(self, ctx_half):
        assert unit(ctx_half, 3).coeffs == (1, 0, 0, 0)
        # e_q(t) E_q(-t) = 1, with E_q(t) = sum q^(n(n-1)/2) t^n/[n]_q!
        assert reciprocal(q_exp(ctx_half, 0)) == unit(ctx_half, 0)
        assert reciprocal(q_exp(ctx_half, 3)).coeffs == (1, -1, F(1, 2), F(-1, 8))

    def test_truncated(self, ctx_half):
        a = ESeq(ctx_half, [1, 2, 3])
        assert a.truncated(1).coeffs == (1, 2)
        with pytest.raises(ValueError):
            a.truncated(5)

    def test_truncated_refuses_a_negative_order(self, ctx_half):
        a = ESeq(ctx_half, range(1, 7))
        with pytest.raises(ValueError, match=">= 0"):
            a.truncated(-2)
        assert a.truncated(0).coeffs == (1,)

    @given(seqs())
    def test_ordinary_form_is_kept(self, a):
        formula = tuple(c / a.ctx.q_factorial(k) for k, c in enumerate(a.coeffs))
        unread = a.truncated(a.order // 2)
        assert a.ordinary == formula and a.ordinary is a.ordinary
        # a truncated copy, cut before or after the first read, keeps its own
        for order in range(a.order + 1):
            cut = a.truncated(order)
            assert cut.ordinary == formula[: order + 1] and cut.ordinary is cut.ordinary
        assert unread.ordinary == formula[: unread.order + 1]

    def test_empty_rejected(self, ctx_half):
        with pytest.raises(ValueError):
            ESeq(ctx_half, [])

    def test_immutability(self, ctx_half):
        a = ESeq(ctx_half, [1])
        with pytest.raises(AttributeError):
            a.coeffs = ()


class TestConvolve:
    def test_unit_is_identity(self, ctx_half):
        b = ESeq(ctx_half, [F(1), F(-1, 2), F(3, 7)])
        assert convolve(unit(ctx_half, 2), b) == b

    def test_q_exp_squared_linear_term(self, ctx_half):
        ee = convolve(q_exp(ctx_half, 3), q_exp(ctx_half, 3))
        assert ee[1] == 2

    def test_euler_numbers_squared(self, ctx_half):
        # brute-force sum with the published Euler numbers at q=1/2
        e = ESeq(ctx_half, [F(1), F(-1, 2), F(-1, 8)])
        got = convolve(e, e)[2]
        assert got == 2 * F(-1, 8) + F(3, 2) * F(1, 4) == F(1, 8)

    def test_mismatched_inputs_rejected(self, ctx_half):
        other = QContext(F(1, 3))
        with pytest.raises(ValueError, match="mismatched q"):
            convolve(unit(ctx_half, 2), unit(other, 2))
        with pytest.raises(ValueError, match="mismatched order"):
            convolve(unit(ctx_half, 2), unit(ctx_half, 3))

    @given(a=seqs(), b=seqs())
    def test_commutative(self, a, b):
        b = ESeq(a.ctx, list(b.coeffs[: a.order + 1]) + [F(0)] * (a.order - b.order))
        assert convolve(a, b) == convolve(b, a)

    @given(a=seqs(order_max=6), b=seqs(order_max=6), c=seqs(order_max=6))
    def test_associative(self, a, b, c):
        n = a.order
        b = ESeq(a.ctx, list(b.coeffs[: n + 1]) + [F(0)] * max(0, n - b.order))
        c = ESeq(a.ctx, list(c.coeffs[: n + 1]) + [F(0)] * max(0, n - c.order))
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


class TestOracles:
    """``convolve`` and ``reciprocal`` against the q-binomial loops."""

    @given(a=seqs(coefficients=mixed), b=seqs(coefficients=mixed))
    def test_convolve_matches_oracle(self, a, b):
        b = same_order(a, b)
        assert convolve(a, b).coeffs == convolve_oracle(a, b).coeffs

    @given(a=seqs(invertible=True, coefficients=mixed))
    def test_reciprocal_matches_oracle(self, a):
        assert reciprocal(a).coeffs == reciprocal_oracle(a).coeffs

    @pytest.mark.parametrize("qs", ["1/2", "5/11", "9/10"])
    def test_int_inputs_at_order_16(self, qs):
        ctx = QContext(F(qs))
        a = ESeq(ctx, [3, -1, 0, 2, -7, 0, 0, 1, 5, -2, 0, 4, 1, -1, 0, 6, 2])
        b = ESeq(ctx, [1] * 17)
        assert convolve(a, b) == convolve_oracle(a, b)
        assert reciprocal(a) == reciprocal_oracle(a)
        assert all(type(c) is F for c in convolve(a, b).coeffs + reciprocal(a).coeffs)

    @given(a=seqs(coefficients=mixed))
    def test_zero_lead_still_rejected(self, a):
        with pytest.raises(NonInvertibleError):
            reciprocal(ESeq(a.ctx, (0,) + a.coeffs[1:]))


class TestReciprocal:
    def test_unit(self, ctx_half):
        assert reciprocal(unit(ctx_half, 4)) == unit(ctx_half, 4)

    def test_bernoulli_denominator_order_one(self, ctx_half):
        a = ESeq(ctx_half, [1, F(2, 3)])  # 1/[m+1]_q
        assert reciprocal(a).coeffs == (F(1), F(-2, 3))

    def test_bernoulli_denominator_order_two(self, ctx_half):
        a = ESeq(ctx_half, [1 / ctx_half.q_number(m + 1) for m in range(3)])
        assert reciprocal(a)[2] == F(2, 21)

    def test_zero_lead_rejected(self, ctx_half):
        with pytest.raises(NonInvertibleError):
            reciprocal(ESeq(ctx_half, [0, 1, 1]))

    @given(a=seqs(invertible=True))
    def test_orthogonality(self, a):
        assert convolve(a, reciprocal(a)) == unit(a.ctx, a.order)

    @given(a=seqs(invertible=True))
    def test_involution(self, a):
        assert reciprocal(reciprocal(a)) == a


class TestShifts:
    def test_shift_up_unit(self, ctx_half):
        assert shift_up(ESeq(ctx_half, [1, 0, 0])).coeffs == (0, 1, 0)

    def test_shift_up_q_exp(self, ctx_half):
        assert shift_up(q_exp(ctx_half, 2)).coeffs == (0, 1, F(3, 2))

    def test_shift_up_zero(self, ctx_half):
        assert shift_up(ESeq(ctx_half, [0, 0, 0])).coeffs == (0, 0, 0)

    @given(a=seqs())
    def test_round_trip(self, a):
        if a.order < 1:
            return
        # dividing by t again: r_n / [n]_q recovers a_(n-1) below the top term
        up = shift_up(a)
        assert up[0] == 0
        back = [up[n] / a.ctx.q_number(n) for n in range(1, a.order + 1)]
        assert back == list(a.coeffs[: a.order])
