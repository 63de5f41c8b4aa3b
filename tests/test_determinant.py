import time
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qappell import (
    AppellFamily,
    QContext,
    QPoly,
    identity_residuals,
    iterate2,
    pair_family,
    product_family,
    resolve,
    route_poly,
)
from qappell import families
from qappell.determinant import hessenberg_dets
from qappell.families import ROUTES, FamilyError, FamilySpec, route_numbers
from qappell.qcore import lincomb
from qappell.series import ESeq

from conftest import lincomb_oracle, monomial_basis, q_values, small_fractions

B = FamilySpec.builtin("bernoulli")
E = FamilySpec.builtin("euler")
GD = FamilySpec.builtin("genocchi-det")
GT = FamilySpec.builtin("genocchi-table")


def build_matrix(beta, basis, n):
    """The paper's (n+1)x(n+1) matrix of degree n: row 0 holds the basis
    polynomials b_0..b_n, and row i >= 1 holds C(j, i-1)_q beta_(j-i+1) in
    column j >= i-1, zero before.  The member is (-1)^n / beta_0^(n+1) times
    its determinant."""
    ctx = beta.ctx
    scalars = tuple(
        tuple(
            ctx.q_binomial(j, i - 1) * beta[j - i + 1] if j >= i - 1 else F(0)
            for j in range(n + 1)
        )
        for i in range(1, n + 1)
    )
    return (tuple(basis[: n + 1]),) + scalars


def toeplitz_hessenberg(beta, m):
    """H_m = (gamma_(c-r+1)), the m x m Toeplitz-Hessenberg matrix of
    gamma_k = beta_k/[k]_q!, zero below the subdiagonal."""
    fact = beta.ctx.q_factorial
    return [
        [beta[c - r + 1] / fact(c - r + 1) if c >= r - 1 else F(0) for c in range(m)]
        for r in range(m)
    ]


def scaled_rows(beta, n):
    """Rows R_0..R_(n-1) of the degree-n matrix, R_j[k] = (-beta_0)^k S[j+1][j+1+k]
    = (-beta_0)^k C(j+1+k, j)_q beta_(k+1) for k < n - j.  With ``row_weights``,
    a third oracle for the row-0 weights: the per-degree Hessenberg recurrence."""
    return [
        [(-beta[0]) ** k * beta.ctx.q_binomial(j + 1 + k, j) * beta[k + 1] for k in range(n - j)]
        for j in range(n)
    ]


def row_weights(beta0, rows, n):
    """Row-0 weights w_0..w_n of degree n from the leading parts of the scaled
    rows of any degree N >= n: each trailing block T_j by its first-row
    expansion, bottom-up, D_n = 1 and D_j = sum_k R_j[k] D_(j+k+1), and then
    w_j = -D_j / (-beta_0)^(n+1-j)."""
    d = [F(0)] * n + [F(1)]
    for j in range(n - 1, -1, -1):
        d[j] = sum(r * x for r, x in zip(rows[j][: n - j], d[j + 1 :]))
    return [-c / (-beta0) ** (n + 1 - j) for j, c in enumerate(d)]


def unit_row(n, j):
    """Row 0 holding the unit vector e_j, which isolates cofactor j."""
    return tuple(QPoly([1]) if k == j else QPoly.zero() for k in range(n + 1))


def laplace(rows):
    """Determinant by first-row cofactor expansion.

    An independent oracle for the row-0 weights: exponential cost, so it is
    only used at sizes up to 6x6.  Row 0 may hold QPoly entries, the rest Fractions.
    """
    if len(rows) == 1:
        return rows[0][0]
    cofactors = [
        (-1) ** j * laplace([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows[0]))
    ]
    if isinstance(rows[0][0], QPoly):
        return lincomb_oracle(cofactors, rows[0])
    return sum(c * entry for c, entry in zip(cofactors, rows[0]))


def bareiss(rows):
    """Determinant of a square Fraction matrix by fraction-free elimination.

    A second oracle for the row-0 weights, cubic in cost, for sizes the Laplace
    expansion cannot reach.  A zero pivot is swapped with a lower row.
    """
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, F(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return F(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else F(1)


def det_route(*members, n):
    """route_poly's determinant member of one family, or of the product of two."""
    fam = members[0] if len(members) == 1 else product_family(*members)
    return route_poly(fam, n, "determinant")


def drawn(seq):
    """A family held by a drawn beta, built as any custom family is."""
    return AppellFamily(seq.ctx, seq, "drawn")


def custom_beta():
    """Strategy: beta_0 any nonzero small fraction, then 1..5 more entries."""
    return st.tuples(
        small_fractions().filter(lambda b: b != 0),
        st.lists(small_fractions(), min_size=1, max_size=5),
    ).map(lambda t: [t[0]] + t[1])


class TestBuildMatrix:
    def test_hand_expanded_bernoulli_n1(self, ctx_half):
        fam = resolve(B, ctx_half, 1)
        m = build_matrix(fam.beta, monomial_basis(1), 1)
        assert m == ((QPoly([1]), QPoly.monomial(1)), (F(1), F(2, 3)))
        # the displayed orientation: (-1)^1 * det([[1, x], [1, 2/3]]) = x - 2/3
        assert laplace(m) * (-1 / fam.beta[0] ** 2) == QPoly([F(-2, 3), 1])
        assert lincomb(fam.determinant.poly(1).coeffs, m[0]) == QPoly([F(-2, 3), 1])

    def test_euler_row_two(self, ctx_half):
        fam = resolve(E, ctx_half, 2)
        m = build_matrix(fam.beta, monomial_basis(2), 2)
        assert m[2] == (F(0), F(1), F(1, 2) * ctx_half.q_number(2))


class TestDetPoly:
    def test_degree_zero_prefactor_only(self, ctx_half):
        beta = ESeq(ctx_half, [F(4), F(1, 2)])
        assert row_weights(beta[0], scaled_rows(beta, 0), 0) == [F(1, 4)]
        assert drawn(beta).determinant.poly(0).coeffs == (F(1, 4),)
        assert det_route(drawn(beta), n=0) == QPoly([F(1, 4)])

    def test_bernoulli_n1(self, ctx_half):
        fam = resolve(B, ctx_half, 1)
        assert det_route(fam, n=1) == QPoly([F(-2, 3), 1])

    def test_euler_n2(self, ctx_half):
        fam = resolve(E, ctx_half, 2)
        assert det_route(fam, n=2) == QPoly([F(-1, 8), F(-3, 4), 1])

    def test_iterated_euler_n2(self, ctx_half):
        # deliberately +1/8, not the misprinted -1/16
        fam = resolve(E, ctx_half, 2)
        assert det_route(fam, fam, n=2) == QPoly([F(1, 8), F(-3, 2), 1])

    def test_pair_rejects_mismatched_q(self, ctx_half):
        # every public function of two families refuses two q: a product at
        # construction, so no route can read a pair of mismatched factors
        half = resolve(E, ctx_half, 2)
        third = resolve(B, QContext(F(1, 3)), 2)
        for one, two in ((half, third), (third, half)):
            with pytest.raises(ValueError, match="mismatched q: "):
                product_family(one, two)
            with pytest.raises(ValueError, match="families disagree on q"):
                iterate2(one, two, 2)
            for n in (0, 2):
                with pytest.raises(ValueError, match="families disagree on q"):
                    identity_residuals(one, product_family(two, two), n)

    def test_unknown_route_is_refused(self, ctx_half):
        fam = resolve(E, ctx_half, 2)
        with pytest.raises(ValueError, match="unknown route 'umbral'"):
            route_poly(fam, 2, "umbral")

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("pair", [False, True], ids=["single", "pair"])
    @pytest.mark.parametrize("reader", [route_poly, route_numbers], ids=lambda f: f.__name__)
    def test_every_route_checks_the_degree(self, ctx_half, route, pair, reader):
        # past the order or below 0, every route refuses with FamilyError
        fam = resolve(E, ctx_half, 3)
        if pair:
            fam = product_family(fam, resolve(B, ctx_half, 3))
        for n, match in ((4, "exceeds the truncation order 3"), (-1, ">= 0")):
            with pytest.raises(FamilyError, match=match):
                reader(fam, n, route)

    def test_matches_series_route(self, ctx_half):
        for spec in (B, E, GD):
            fam = resolve(spec, ctx_half, 8)
            for n in range(9):
                assert det_route(fam, n=n) == fam.poly(n)

    @given(
        q=q_values(),
        beta=st.lists(small_fractions(), min_size=2, max_size=9).map(
            lambda cs: [F(1)] + cs[1:]
        ),
    )
    def test_matches_series_route_custom_beta(self, q, beta):
        ctx = QContext(q)
        fam = drawn(ESeq(ctx, beta))
        for n in range(fam.order + 1):
            assert det_route(fam, n=n) == fam.poly(n)

    def test_pairs_match_iterate2(self, ctx_half):
        for sa, sb in ((B, B), (E, E), (GT, GT), (E, B), (GT, B), (GT, E)):
            fa = resolve(sa, ctx_half, 4)
            fb = resolve(sb, ctx_half, 4)
            for n in range(5):
                assert det_route(fa, fb, n=n) == iterate2(fa, fb, n)

    def test_pairs_match_iterate2_deeper(self, ctx_half):
        fa = resolve(B, ctx_half, 8)
        fb = resolve(E, ctx_half, 8)
        for n in range(9):
            assert det_route(fa, fb, n=n) == iterate2(fa, fb, n)

    def test_genocchi_recipe_vs_published_row(self, ctx_half):
        # the literal determinant recipe pairs the 1/(2[i+1]_q) beta with the
        # published polynomials; it does not reproduce the published mixed row
        gdet = resolve(GD, ctx_half, 2)
        bern = resolve(B, ctx_half, 2)
        got = det_route(gdet, bern, n=1)
        assert got == QPoly([F(-1), 1])
        published_row = QPoly([F(-1, 3), 1])
        assert got != published_row
        assert got == iterate2(gdet, bern, 1)


class TestRowZeroLinearity:
    def test_split_basis(self, ctx_half):
        fam = resolve(B, ctx_half, 3)
        basis_a = monomial_basis(3)
        basis_b = [QPoly([1])] + [QPoly([F(1), F(2), F(1, 3)][: k + 1]) for k in range(1, 4)]
        m_a = build_matrix(fam.beta, basis_a, 3)
        summed = tuple(lincomb([1, 1], [a, b]) for a, b in zip(basis_a, basis_b))
        weights = fam.determinant.poly(3).coeffs
        lhs = lincomb(weights, summed)
        assert lhs == lincomb([1, 1], [lincomb(weights, basis_a), lincomb(weights, basis_b)])
        assert lhs == laplace((summed,) + m_a[1:]) * (-1 / fam.beta[0] ** 4)


class TestDegenerateRow:
    def test_beta_row_in_row_zero_kills_the_determinant(self, ctx_half):
        # replacing row 0 by (beta_0..beta_n) duplicates row 1, so the full
        # determinant vanishes; exercised through the row-0 cofactor path
        fam = resolve(B, ctx_half, 4)
        n = 4
        m = build_matrix(fam.beta, monomial_basis(n), n)
        beta_top = tuple(QPoly([fam.beta[j]]) for j in range(n + 1))
        assert lincomb(fam.determinant.poly(n).coeffs, beta_top).is_zero
        assert laplace([m[1]] + list(m[1:])) == 0


class TestBareiss:
    """Hand cases pin both test oracles; then Bareiss checks the row-0
    weights at order 12."""

    def test_identity(self):
        m = [[F(1), F(0)], [F(0), F(1)]]
        assert bareiss(m) == laplace(m) == 1

    def test_zero_pivot_needs_swap(self):
        m = [
            [F(0), F(1), F(2)],
            [F(1), F(0), F(1)],
            [F(2), F(1), F(0)],
        ]
        # cofactor expansion by hand: det = 4
        assert bareiss(m) == laplace(m) == 4

    def test_singular(self):
        m = [[F(1), F(2)], [F(2), F(4)]]
        assert bareiss(m) == laplace(m) == 0

    @pytest.mark.parametrize("spec", [B, E, GD], ids=lambda s: s.name)
    def test_det_eval_cofactors_at_order_12(self, ctx_half, spec):
        # the unit row e_j in row 0 isolates cofactor j, which must match the
        # eliminated minor of the scalar rows
        n = 12
        fam = resolve(spec, ctx_half, n)
        scalars = build_matrix(fam.beta, monomial_basis(n), n)[1:]
        weights = fam.determinant.poly(n).coeffs
        scale = fam.beta[0] ** (n + 1)
        for j in range(n + 1):
            minor = bareiss([r[:j] + r[j + 1 :] for r in scalars])
            got = lincomb(weights, unit_row(n, j))
            assert got == QPoly([F(-1) ** (n + j) * minor / scale])


class TestLaplaceOracle:
    @given(
        q=q_values(),
        beta=custom_beta(),
        tops=st.lists(st.lists(small_fractions(), max_size=4), min_size=5, max_size=5),
    )
    def test_det_eval_matches_laplace(self, q, beta, tops):
        ctx = QContext(q)
        n = len(beta) - 1
        basis = [QPoly([1])] + [QPoly(cs) for cs in tops[:n]]
        seq = ESeq(ctx, beta)
        m = build_matrix(seq, basis, n)
        expected = laplace(m) * (F(-1) ** n / beta[0] ** (n + 1))
        assert lincomb(drawn(seq).determinant.poly(n).coeffs, m[0]) == expected


class TestBlockTriangular:
    @given(q=q_values(), beta=custom_beta())
    def test_minors_are_beta0_powers_times_hessenberg_blocks(self, q, beta):
        # deleting column j leaves beta_0 on a staircase over columns 0..j-1
        # and the trailing Hessenberg block T_j (rows and columns j+1..n)
        ctx = QContext(q)
        n = len(beta) - 1
        seq = ESeq(ctx, beta)
        weights = drawn(seq).determinant.poly(n).coeffs
        scalars = [list(r) for r in build_matrix(seq, monomial_basis(n), n)[1:]]
        for j in range(n + 1):
            minor = laplace([r[:j] + r[j + 1 :] for r in scalars])
            trailing = [r[j + 1 :] for r in scalars[j:]]
            det_t = laplace(trailing) if trailing else F(1)
            assert minor == beta[0] ** j * det_t
            sign = F(-1) ** (n + j)
            assert lincomb(weights, unit_row(n, j)) == QPoly([sign * minor / beta[0] ** (n + 1)])


class TestWeightTable:
    """Every trailing block T_j of degree n is a rescaled Toeplitz-Hessenberg
    matrix H_(n-j), so the tau a family forms once at its order give every
    degree's row-0 weights.  They are checked against the per-degree
    recurrence, Bareiss and Laplace."""

    @pytest.mark.parametrize("spec", [B, E, GD], ids=lambda s: s.name)
    def test_rows_match_each_degree_matrix_and_the_oracles(self, ctx_half, spec):
        top = 12
        fam = resolve(spec, ctx_half, top)
        beta = fam.beta
        assert fam.determinant.poly(0).coeffs == (1 / beta[0],)
        for n in range(1, top + 1):
            m = build_matrix(beta, monomial_basis(n), n)
            weights = list(fam.determinant.poly(n).coeffs)
            assert weights == row_weights(beta[0], scaled_rows(beta, n), n)
            scale = F(-1) ** n / beta[0] ** (n + 1)
            if n <= 5:
                assert QPoly(weights) == laplace(m) * scale
            # weight j is cofactor j of the scalar rows, eliminated by Bareiss
            scalars = m[1:]
            assert weights == [
                scale * F(-1) ** j * bareiss([r[:j] + r[j + 1 :] for r in scalars])
                for j in range(n + 1)
            ]

    @given(
        q=q_values(),
        beta=custom_beta(),
        tops=st.lists(st.lists(small_fractions(), max_size=4), min_size=5, max_size=5),
    )
    def test_rows_match_each_degree_matrix_for_drawn_beta(self, q, beta, tops):
        ctx = QContext(q)
        seq = ESeq(ctx, beta)
        fam = drawn(seq)
        assert fam.determinant.poly(0).coeffs == (1 / beta[0],)
        basis = [QPoly([1])] + [QPoly(cs) for cs in tops]
        for n in range(1, fam.order + 1):
            weights = fam.determinant.poly(n).coeffs
            assert list(weights) == row_weights(seq[0], scaled_rows(seq, n), n)
            scale = F(-1) ** n / beta[0] ** (n + 1)
            assert QPoly(weights) == laplace(build_matrix(seq, monomial_basis(n), n)) * scale
            # the same weights serve any row-0 basis
            assert lincomb(weights, basis[: n + 1]) == laplace(build_matrix(seq, basis, n)) * scale

    @given(q=q_values(), beta=custom_beta())
    def test_tau_are_the_toeplitz_hessenberg_determinants(self, q, beta):
        seq = ESeq(QContext(q), beta)
        tau = hessenberg_dets(seq)
        assert len(tau) == len(beta) and tau[0] == 1
        for m in range(1, len(beta)):
            h = toeplitz_hessenberg(seq, m)
            assert tau[m] == bareiss(h)
            if m <= 5:
                assert tau[m] == laplace(h)

    @given(q=q_values(), beta=custom_beta())
    def test_trailing_blocks_are_rescaled_tau(self, q, beta):
        # det T_j = ([n]_q!/[j]_q!) tau_(n-j): it depends on n - j alone
        seq = ESeq(QContext(q), beta)
        fact, tau = seq.ctx.q_factorial, hessenberg_dets(seq)
        for n in range(len(beta)):
            scalars = build_matrix(seq, monomial_basis(n), n)[1:]
            for j in range(n + 1):
                trailing = [r[j + 1 :] for r in scalars[j:]]
                det_t = bareiss(trailing) if trailing else F(1)
                assert fact(n) / fact(j) * tau[n - j] == det_t

    @given(q=q_values(), beta=custom_beta())
    def test_lower_orders_are_leading_parts(self, q, beta):
        seq = ESeq(QContext(q), beta)
        top = len(beta) - 1
        tau, rows = hessenberg_dets(seq), scaled_rows(seq, top)
        fam = drawn(seq)
        kept = [fam.determinant.poly(n).coeffs for n in range(top + 1)]
        for n in range(top + 1):
            cut = seq.truncated(n)
            # prefix stability: tau and the weights of a lower order are the
            # leading parts of the top order's, so the kept tau serve it
            assert hessenberg_dets(cut) == tau[: n + 1]
            assert [row_weights(beta[0], rows, m) for m in range(n + 1)] == [
                list(w) for w in kept[: n + 1]
            ]
            assert [drawn(cut).determinant.poly(m).coeffs for m in range(n + 1)] == kept[: n + 1]
            assert [fam.truncated(n).determinant.poly(m).coeffs for m in range(n + 1)] == kept[: n + 1]

    def test_rows_are_built_once_per_family(self, ctx_half, monkeypatch):
        built = []
        real = families.hessenberg_dets

        def counting(beta):
            built.append(beta)
            return real(beta)

        monkeypatch.setattr(families, "hessenberg_dets", counting)
        fam = resolve(E, ctx_half, 6)
        kept = [fam.determinant.poly(n) for n in (3, 0, 6, 3)]
        assert built == [fam.beta]
        assert fam.determinant is fam.determinant and kept[0] is kept[3]
        for n in range(7):
            assert det_route(fam, n=n) == fam.poly(n)
            assert det_route(fam, fam, n=n) == iterate2(fam, fam, n)
        assert route_numbers(fam, 6, "determinant") == list(fam.numbers)
        assert built == [fam.beta]

    @pytest.mark.parametrize("q", [F(1, 2), F(5, 11), F(1, 1000)], ids=str)
    def test_determinant_numbers_never_read_the_numbers(self, q, monkeypatch):
        # D comes from tau alone: with the two ways to form numbers patched to
        # raise, each determinant family still forms its numbers
        ctx = QContext(q)
        bern, euler, gdet = (resolve(s, ctx, 16) for s in (B, E, GD))
        fams = (bern, euler, gdet, product_family(bern, euler))

        def refuse(*args):
            raise AssertionError("the determinant route read the numbers")

        monkeypatch.setattr(families, "reciprocal", refuse)
        monkeypatch.setattr(families, "_affine_numbers", refuse)
        dets = [fam.determinant.numbers for fam in fams]
        monkeypatch.undo()
        for fam, det in zip(fams, dets):
            assert det == fam.numbers
            assert fam.determinant is fam.determinant

    def test_preconditions(self, ctx_half):
        with pytest.raises(ValueError, match="beta_0"):
            hessenberg_dets(ESeq(ctx_half, [0, 1, 1]))
        fam = drawn(ESeq(ctx_half, [1, 1]))
        with pytest.raises(FamilyError, match=">= 0"):
            fam.determinant.poly(-1)
        with pytest.raises(FamilyError, match="exceeds the truncation order 1"):
            fam.determinant.poly(2)


class TestDeep:
    """The time bound catches a return to a route that grows faster than O(n^2)."""

    @pytest.mark.parametrize("q", [F(1, 2), F(9, 10)], ids=str)
    def test_order_32_matches_series_route(self, q):
        ctx = QContext(q)
        n = 32
        bern, euler, gdet = (resolve(s, ctx, n) for s in (B, E, GD))
        series = pair_family(B, E, ctx, n)
        start = time.perf_counter()
        pair = route_poly(series, n, "determinant")
        plain = route_poly(gdet, n, "determinant")
        elapsed = time.perf_counter() - start
        assert pair == series.poly(n)
        assert pair == iterate2(bern, euler, n)
        assert plain == gdet.poly(n)
        assert elapsed < 2.0

    def test_pair_numbers_at_order_96_match_series_route(self):
        ctx, n = QContext(F(5, 11)), 96
        series = pair_family(E, B, ctx, n)
        start = time.perf_counter()
        got = route_numbers(series, n, "determinant")
        elapsed = time.perf_counter() - start
        assert got == list(series.numbers)
        assert elapsed < 3.0
