from fractions import Fraction as F
from math import gcd, lcm, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qappell import QContext, QPoly, parse_rat, q_derive
from qappell.qcore import dot, homogeneous_image, lincomb
from qappell.roots import sample

from conftest import assert_canonical, lincomb_oracle, q_values, small_fractions


def horner_oracle(p: QPoly, x) -> F:
    """p(x) by plain Horner over Fraction: the evaluation QPoly used before
    its integer kernel, kept as the test oracle."""
    x = F(x)
    acc = F(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def q_derive_oracle(p: QPoly, ctx: QContext) -> QPoly:
    """D_q p one ``Fraction`` coefficient at a time, [i]_q p_i, as
    ``q_derive`` did before its integer kernel."""
    return QPoly(ctx.q_number(i) * p.coeffs[i] for i in range(1, len(p.coeffs)))


def scalar_mul_oracle(p: QPoly, s) -> QPoly:
    """p * s one ``Fraction`` coefficient at a time, as ``QPoly.__mul__`` did."""
    return QPoly(c * s for c in p.coeffs)


def homogeneous_image_oracle(p: QPoly, b: int) -> tuple[list[int], int]:
    """``homogeneous_image`` as it was over ``Fraction`` coefficients: the
    lcm D of their denominators, then C_(n-j) b^j with c_i = C_i / D."""
    den = lcm(*(c.denominator for c in p.coeffs))
    hom, bpow = [], 1
    for c in reversed(p.coeffs):
        hom.append(c.numerator * (den // c.denominator) * bpow)
        bpow *= b
    return hom, den * b ** max(p.degree, 0)


def sample_oracle(p: QPoly, xmin, xmax, steps: int) -> list[tuple[F, F]]:
    step = (F(xmax) - F(xmin)) / (steps - 1)
    xs = [F(xmin) + i * step for i in range(steps)]
    return [(x, horner_oracle(p, x)) for x in xs]


# zero, negative, int and large-denominator coefficients
coefficients = st.one_of(
    st.integers(-40, 40),
    small_fractions(),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
)
polys = st.lists(coefficients, max_size=14).map(QPoly)
# int, negative, zero and 10^6-denominator weights
weights = st.one_of(
    st.integers(-40, 40),
    st.just(0),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
)
terms = st.lists(st.tuples(weights, polys), max_size=8)
abscissae = st.one_of(
    st.integers(-9, 9),
    small_fractions(),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**4),
)


class TestParsing:
    def test_parse_rat(self):
        assert parse_rat("1/2") == F(1, 2)
        assert parse_rat("-3/4") == F(-3, 4)
        assert parse_rat("7") == F(7)

    def test_parse_rat_rejects_decimals(self):
        with pytest.raises(ValueError, match="fraction like"):
            parse_rat("0.5")

    def test_parse_rat_rejects_garbage(self):
        for bad in ("x", "1/0", "1e-3", ""):
            with pytest.raises(ValueError):
                parse_rat(bad)

    def test_parse_q_bounds(self):
        # QContext parses a text q and refuses one outside (0, 1)
        assert QContext("1/2").q == QContext(" 1/2").q == F(1, 2)
        for bad in ("0", "1", "3/2", "-1/2"):
            with pytest.raises(ValueError, match="0 < q < 1"):
                QContext(bad)

    def test_context_refuses_a_float(self):
        # 0.1 would be 3602879701896397/2^55, which makes every family tall
        for bad in (0.1, 0.5, 1e-3):
            with pytest.raises(ValueError, match="is not an exact rational"):
                QContext(bad)

    def test_context_rejects_bad_q(self):
        with pytest.raises(ValueError):
            QContext(F(5, 4))


class TestQNumber:
    def test_zero_is_empty_geometric_sum(self, ctx_half):
        assert ctx_half.q_number(0) == 0

    def test_two(self, ctx_half):
        assert ctx_half.q_number(2) == F(3, 2)

    def test_four_against_direct_formula(self, ctx_half):
        # independent oracle: the geometric sum 1 + q + q^2 + q^3
        q = ctx_half.q
        assert ctx_half.q_number(4) == 1 + q + q**2 + q**3 == F(15, 8)

    def test_negative_rejected(self, ctx_half):
        with pytest.raises(ValueError):
            ctx_half.q_number(-1)


class TestQFactorial:
    def test_zero(self, ctx_half):
        assert ctx_half.q_factorial(0) == 1

    def test_three(self, ctx_half):
        assert ctx_half.q_factorial(3) == F(1) * F(3, 2) * F(7, 4) == F(21, 8)

    def test_four_extends_product(self, ctx_half):
        assert ctx_half.q_factorial(4) == F(21, 8) * F(15, 8) == F(315, 64)

    def test_recurrence(self, ctx_half):
        for n in range(1, 13):
            assert ctx_half.q_factorial(n) == ctx_half.q_number(n) * ctx_half.q_factorial(n - 1)

    @pytest.mark.parametrize("qs", ["1/2", "5/11", "9/10"])
    def test_factorial_ints_match_the_closed_forms(self, qs):
        ctx = QContext(qs)
        a, b = ctx.q.numerator, ctx.q.denominator
        # filled upward, read below the top, then extended
        for n in (7, 3, 12, 0):
            phi, psi = ctx.factorial_ints(n)
            assert len(phi) == len(psi) == n + 1
            for i in range(n + 1):
                assert phi[i] == prod(b**j - a**j for j in range(1, i + 1))
                assert psi[i] == b ** (i * (i - 1) // 2) * (b - a) ** i
                assert F(phi[i], psi[i]) == ctx.q_factorial(i)

    def test_factorial_ints_are_formed_once_per_context(self):
        ctx = QContext("5/11")
        phi, psi = ctx.factorial_ints(12)
        again = ctx.factorial_ints(12)
        # the very integers of the first call, not equal ones formed again
        assert all(x is y for x, y in zip(phi + psi, again[0] + again[1]))
        assert all(x is y for x, y in zip(ctx.factorial_ints(5)[0], phi))
        # a call returns copies, so a caller cannot change the kept lists
        phi.append(0)
        psi[3] = 0
        assert ctx.factorial_ints(12) == again
        # a second context of the same q keeps its own
        other = QContext("5/11").factorial_ints(12)
        assert other == again and other[0][12] is not again[0][12]

    def test_factorial_ints_refuse_a_negative_n(self, ctx_half):
        # as q_factorial does, rather than return two empty lists
        for call in (ctx_half.factorial_ints, ctx_half.q_factorial):
            with pytest.raises(ValueError, match="needs n >= 0, got -1"):
                call(-1)
        assert ctx_half.factorial_ints(0) == ([1], [1])


class TestQBinomial:
    def test_k_zero(self, ctx_half):
        for n in range(13):
            assert ctx_half.q_binomial(n, 0) == 1

    def test_equals_q_number(self, ctx_half):
        assert ctx_half.q_binomial(2, 1) == ctx_half.q_number(2) == F(3, 2)

    def test_factorial_ratio_oracle(self, ctx_half):
        assert ctx_half.q_binomial(4, 2) == F(315, 64) / (F(3, 2) ** 2) == F(35, 16)

    def test_domain_errors(self, ctx_half):
        with pytest.raises(ValueError):
            ctx_half.q_binomial(3, -1)
        with pytest.raises(ValueError):
            ctx_half.q_binomial(3, 4)

    @pytest.mark.parametrize("q", [F(1, 2), F(5, 11), F(9, 10), F(1, 1000), F(999, 1000)])
    def test_equals_factorial_quotient(self, q):
        # the integer route against the defining Fraction quotient
        ctx, oracle = QContext(q), QContext(q)
        for n in range(25):
            for k in range(n + 1):
                want = oracle.q_factorial(n) / (oracle.q_factorial(k) * oracle.q_factorial(n - k))
                assert ctx.q_binomial(n, k) == want, (n, k)
        with pytest.raises(ValueError):
            ctx.q_binomial(24, 25)

    @pytest.mark.parametrize("qs", ["1/2", "5/11", "9/10", "999/1000", "1/1000000000"])
    def test_gauss_rows_are_the_phi_quotients(self, qs):
        # G(n,k) = Phi_n // (Phi_k Phi_(n-k)), an integer coprime to b, kept per n
        ctx = QContext(qs)
        phi = ctx.factorial_ints(48)[0]
        b = ctx.q.denominator
        for n in (*range(49), 7, 0):
            row = ctx.gauss_row(n)
            assert row is ctx.gauss_row(n) and len(row) == n + 1
            for k in range(n + 1):
                assert phi[n] % (phi[k] * phi[n - k]) == 0
                assert row[k] == phi[n] // (phi[k] * phi[n - k]), (n, k)
                assert gcd(row[k], b) == 1
        with pytest.raises(ValueError, match="needs n >= 0, got -1"):
            ctx.gauss_row(-1)

    @pytest.mark.parametrize("q", [F(1, 2), F(1, 3), F(3, 4)])
    def test_symmetry(self, q):
        ctx = QContext(q)
        for n in range(13):
            for k in range(n + 1):
                assert ctx.q_binomial(n, k) == ctx.q_binomial(n, n - k)

    @pytest.mark.parametrize("q", [F(1, 2), F(1, 3), F(3, 4)])
    def test_pascal_recurrence(self, q):
        # independent oracle for the factorial formula
        ctx = QContext(q)
        for n in range(1, 13):
            for k in range(1, n + 1):
                lhs = ctx.q_binomial(n, k)
                rhs = ctx.q_binomial(n - 1, k - 1)
                if k <= n - 1:
                    rhs += q**k * ctx.q_binomial(n - 1, k)
                assert lhs == rhs


class TestQPoly:
    def test_normalization_and_degree(self):
        assert QPoly([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert QPoly([]).degree == -1
        assert QPoly([0]).is_zero
        assert QPoly([5]).degree == 0

    def test_eval_horner(self):
        p = QPoly([F(2, 3), -1, 1])  # x^2 - x + 2/3
        assert p(F(1, 2)) == F(1, 4) - F(1, 2) + F(2, 3) == F(5, 12)

    def test_arithmetic(self):
        p = QPoly([1, 1])
        assert 3 * p == p * 3 == QPoly([3, 3])

    def test_monomial(self):
        assert QPoly.monomial(3) == QPoly([0, 0, 0, 1])
        assert F(1, 2) * QPoly.monomial(3) == QPoly([0, 0, 0, F(1, 2)])
        with pytest.raises(ValueError):
            QPoly.monomial(-1)

    def test_immutability(self):
        p = QPoly([1])
        with pytest.raises(AttributeError):
            p.coeffs = ()


def dot_oracle(xs, ys) -> F:
    """A plain ``Fraction`` sum of the products."""
    return sum((F(x) * F(y) for x, y in zip(xs, ys)), F(0))


class TestDot:
    """``dot`` against a plain sum, on both branches of its running
    denominator: a term whose denominator divides it, and a gcd step."""

    @given(pairs=st.lists(st.tuples(
        st.one_of(small_fractions(), st.integers(-9, 9), st.just(F(0))),
        st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
    ), max_size=12))
    def test_matches_oracle(self, pairs):
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        got = dot(xs, ys)
        assert type(got) is F and got == dot_oracle(xs, ys)

    def test_empty_is_zero(self):
        assert dot([], []) == 0 and type(dot([], [])) is F

    def test_divisible_denominators(self):
        # 12 is reached first; 4, 6 and 3 then divide it
        xs = [F(5, 12), F(-1, 4), F(7, 6), F(-2, 3), 2]
        ys = [1, F(3, 1), -1, F(1, 1), F(-1, 1)]
        assert dot(xs, ys) == dot_oracle(xs, ys) == F(5, 12) - F(3, 4) - F(7, 6) - F(2, 3) - 2

    def test_gcd_branch_denominators_not_nested(self):
        xs = [F(1, 4), F(-1, 6), F(3, 10), F(-5, 21)]
        ys = [F(1, 3), F(5, 7), -1, F(2, 11)]
        assert dot(xs, ys) == dot_oracle(xs, ys)

    def test_zero_terms_are_skipped(self):
        # a zero product leaves the running denominator alone
        xs = [F(0), F(1, 6), 0, F(-1, 4)]
        ys = [F(1, 10**30 + 7), F(-1, 5), F(1, 9), 0]
        assert dot(xs, ys) == F(-1, 30)
        assert dot([F(0), 0], [F(1, 7), F(-3, 5)]) == 0


class TestLincomb:
    """``lincomb`` against a plain sum of coefficient lists."""

    @given(terms=terms)
    def test_matches_oracle(self, terms):
        ws = [w for w, _ in terms]
        ps = [p for _, p in terms]
        got = lincomb(ws, ps)
        assert all(type(c) is F for c in got.coeffs)
        assert_canonical(got)
        assert got == lincomb_oracle(ws, ps)

    def test_empty_and_zero_weights(self):
        assert lincomb([], []) == QPoly.zero()
        assert lincomb([0, F(0)], [QPoly([1, 2]), QPoly([F(1, 3)])]).coeffs == ()

    def test_cancellation_strips_trailing_zeros(self):
        p, q = QPoly([F(1, 3), 2, F(-5, 7)]), QPoly([1, 1, F(-1, 2)])
        assert lincomb([1, -1], [p, p]).coeffs == ()
        # the x^2 terms cancel: F(-5, 7) * 7 - F(-1, 2) * 10 = 0
        got = lincomb([7, -10], [p, q])
        assert got.coeffs == (F(7, 3) - 10, 4)
        assert got == lincomb_oracle([7, -10], [p, q])

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            lincomb([1, 2], [QPoly([1])])


class TestCanonicalForm:
    """``QPoly`` as integers over one denominator: every route gives the
    canonical form, and equal polynomials are ``==`` and hash alike."""

    @given(coeffs=st.lists(coefficients, max_size=14))
    def test_constructor(self, coeffs):
        p = QPoly(coeffs)
        assert_canonical(p)
        stripped = [F(c) for c in coeffs]
        while stripped and stripped[-1] == 0:
            stripped.pop()
        assert p.coeffs == tuple(stripped)
        assert all(type(c) is F for c in p.coeffs)
        assert QPoly(p.coeffs) == p

    @given(
        nums=st.lists(st.integers(-10**30, 10**30) | st.just(0), max_size=10),
        den=st.integers(1, 10**20),
        factor=st.integers(1, 10**6),
    )
    def test_from_ints(self, nums, den, factor):
        p = QPoly.from_ints(list(nums), den)
        assert_canonical(p)
        assert p == QPoly(F(n, den) for n in nums)
        scaled = QPoly.from_ints([n * factor for n in nums], den * factor)
        assert scaled == p and hash(scaled) == hash(p)

    def test_zero_is_one_form(self, ctx_half):
        p = QPoly([F(1, 3), 2])
        zeros = [
            QPoly(),
            QPoly([0, F(0)]),
            QPoly.from_ints([0, 0], 7),
            lincomb([1, -1], [p, p]),
            q_derive(QPoly([F(5, 7)]), ctx_half),
            p * 0,
            0 * p,
        ]
        for z in zeros:
            assert (z.nums, z.den) == ((), 1)
            assert z == QPoly.zero() and hash(z) == hash(QPoly.zero())

    def test_known_form(self):
        p = QPoly([F(1, 6), F(-2, 3), 0, F(5, 4), 0])
        assert (p.nums, p.den) == ((2, -8, 0, 15), 12)
        assert p.coeff(1) == F(-2, 3) and p.coeff(4) == 0 and p.coeff(-1) == 0

    @given(p=polys, s=weights)
    def test_routes_agree_and_hash_alike(self, p, s):
        routes = [
            p * s,
            s * p,
            lincomb([s], [p]),
            lincomb([s, 1, -1], [p, p, p]),
            scalar_mul_oracle(p, s),
            QPoly.from_ints([F(s).numerator * n for n in p.nums], p.den * F(s).denominator),
        ]
        for r in routes:
            assert_canonical(r)
            assert r == routes[0] and hash(r) == hash(routes[0])

    @given(p=polys, s=weights)
    def test_scalar_mul_matches_oracle(self, p, s):
        got = p * s
        assert_canonical(got)
        assert got == scalar_mul_oracle(p, s)

    @given(p=polys, b=st.integers(1, 10**6))
    def test_homogeneous_image_matches_oracle(self, p, b):
        assert homogeneous_image(p, b) == homogeneous_image_oracle(p, b)


class TestIntegerHorner:
    """``QPoly.__call__`` and ``sample`` against the plain Fraction Horner."""

    @given(p=polys, x=abscissae)
    def test_call_matches_oracle(self, p, x):
        got = p(x)
        assert type(got) is F
        assert got == horner_oracle(p, x)

    @pytest.mark.parametrize("x", [0, 3, -2, F(-7, 3), F(5, 12)])
    def test_zero_polynomial(self, x):
        assert QPoly.zero()(x) == 0
        assert QPoly([0, 0])(x) == 0

    def test_constant_and_integer_points(self):
        assert QPoly([F(-5, 6)])(F(9, 7)) == F(-5, 6)
        p = QPoly([1, F(-1, 2), F(1, 3)])
        assert p(3) == 1 - F(3, 2) + 3 == F(5, 2)
        assert p(-3) == 1 + F(3, 2) + 3 == F(11, 2)

    @given(
        p=polys,
        xmin=abscissae,
        width=st.fractions(min_value=F(1, 50), max_value=6, max_denominator=50),
        steps=st.integers(2, 12),
    )
    def test_sample_matches_oracle(self, p, xmin, width, steps):
        xmax = F(xmin) + width
        assert sample(p, xmin, xmax, steps) == sample_oracle(p, xmin, xmax, steps)

    @pytest.mark.parametrize(
        "xmin, xmax, steps",
        [
            (-2, 2, 33),  # every other grid point reduces
            ("-6/4", "10/4", 9),  # unreduced endpoint strings
            (F(-1, 6), F(3, 4), 7),  # endpoints over different denominators
            (F(1, 3), 1, 2),
        ],
    )
    def test_sample_grids(self, xmin, xmax, steps):
        p = QPoly([F(2, 3), -1, 0, F(-5, 7), 1])
        assert sample(p, xmin, xmax, steps) == sample_oracle(p, xmin, xmax, steps)

    def test_sample_zero_polynomial(self):
        got = sample(QPoly.zero(), F(-1, 2), 1, 4)
        assert got == [(F(-1, 2), 0), (0, 0), (F(1, 2), 0), (1, 0)]


class TestQDerive:
    def test_constant(self, ctx_half):
        assert q_derive(QPoly([5]), ctx_half).is_zero
        assert q_derive(QPoly.zero(), ctx_half).is_zero

    @given(q=q_values(), p=polys)
    def test_matches_oracle(self, q, p):
        ctx = QContext(q)
        got = q_derive(p, ctx)
        assert_canonical(got)
        assert got == q_derive_oracle(p, ctx)
        assert hash(got) == hash(q_derive_oracle(p, ctx))

    def test_square(self, ctx_half):
        assert q_derive(QPoly.monomial(2), ctx_half) == QPoly([0, F(3, 2)])

    def test_linearity(self, ctx_half):
        p = QPoly([0, -1, 0, 1])  # x^3 - x
        assert q_derive(p, ctx_half) == QPoly([-1, 0, F(7, 4)])

    @given(
        q=q_values(),
        coeffs=st.lists(small_fractions(), min_size=1, max_size=13),
        x0=small_fractions().filter(lambda v: v != 0),
    )
    def test_difference_quotient(self, q, coeffs, x0):
        ctx = QContext(q)
        p = QPoly(coeffs)
        lhs = q_derive(p, ctx)(x0)
        rhs = (p(q * x0) - p(x0)) / (q * x0 - x0)
        assert lhs == rhs


def test_memo_matches_fresh_recomputation():
    warm = QContext(F(2, 5))
    for n in range(10):
        warm.q_factorial(n)
        for k in range(n + 1):
            warm.q_binomial(n, k)
    for n in range(10):
        fresh = QContext(F(2, 5))
        assert warm.q_factorial(n) == fresh.q_factorial(n)
        for k in range(n + 1):
            assert warm.q_binomial(n, k) == QContext(F(2, 5)).q_binomial(n, k)
