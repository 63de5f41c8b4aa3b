from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qappell import (
    AppellFamily,
    QContext,
    QPoly,
    apply_operator,
    convolve,
    identity_residuals,
    iterate2,
    pair_family,
    product_family,
    q_derive,
    reciprocal,
    resolve,
    route_poly,
    unit,
)
from qappell import families
from qappell.families import (
    ROUTES,
    FamilyError,
    FamilySpec,
    GENOCCHI_TABLE_MAX_ORDER,
    route_numbers,
)
from qappell.qcore import lincomb
from qappell.series import ESeq, NonInvertibleError

from conftest import (
    assert_canonical,
    lincomb_oracle,
    monomial_basis,
    q_values,
    small_fractions,
)
from test_series import mixed, same_order, seqs

B = FamilySpec.builtin("bernoulli")
E = FamilySpec.builtin("euler")
GD = FamilySpec.builtin("genocchi-det")
GT = FamilySpec.builtin("genocchi-table")

# published number values at q = 1/2 (exact closed forms evaluated)
BERNOULLI_HALF = [F(1), F(-2, 3), F(2, 21), F(1, 45), F(29, 7812)]
EULER_HALF = [F(1), F(-1, 2), F(-1, 8), F(3, 64), F(63, 1024)]
GENOCCHI_TABLE_HALF = [F(1), F(1, 3), F(-47, 21), F(2, 9), F(232, 1953)]


def custom(kind, seq):
    """A family defined by its numbers or by its beta, built with the constructor."""
    if kind == "numbers":
        return AppellFamily(seq.ctx, reciprocal(seq), "custom-numbers", seq)
    return AppellFamily(seq.ctx, seq, "custom-beta")


class TestResolve:
    def test_bernoulli_numbers(self, ctx_half):
        fam = resolve(B, ctx_half, 4)
        assert [fam.number(n) for n in range(5)] == BERNOULLI_HALF

    def test_euler_numbers(self, ctx_half):
        fam = resolve(E, ctx_half, 4)
        assert [fam.number(n) for n in range(5)] == EULER_HALF

    def test_genocchi_table_numbers(self, ctx_half):
        fam = resolve(GT, ctx_half, 4)
        assert [fam.number(n) for n in range(5)] == GENOCCHI_TABLE_HALF

    def test_genocchi_variants_disagree(self, ctx_half):
        det = resolve(GD, ctx_half, 4)
        tab = resolve(GT, ctx_half, 4)
        assert det.number(1) == F(-1, 3) != tab.number(1)

    def test_genocchi_table_order_cap(self, ctx_half):
        with pytest.raises(FamilyError, match="up to n=4"):
            resolve(GT, ctx_half, GENOCCHI_TABLE_MAX_ORDER + 1)

    def test_unknown_family(self):
        with pytest.raises(FamilyError, match="unknown family"):
            FamilySpec.builtin("hermite")

    def test_numbers_beta_orthogonal(self, ctx_half):
        for spec in (B, E, GD, GT):
            fam = resolve(spec, ctx_half, 4)
            assert convolve(fam.numbers, fam.beta) == unit(ctx_half, 4)

    def test_custom_numbers_roundtrip(self, ctx_half):
        seq = ESeq(ctx_half, [F(2), F(1, 3), F(-1, 5)])
        fam = custom("numbers", seq)
        assert fam.numbers == seq
        assert convolve(fam.numbers, fam.beta) == unit(ctx_half, 2)

    def test_custom_beta_requires_invertible(self, ctx_half):
        seq = ESeq(ctx_half, [F(0), F(1)])
        with pytest.raises(FamilyError, match="not invertible"):
            AppellFamily(ctx_half, seq, "custom-beta")
        with pytest.raises(FamilyError, match="not invertible"):
            AppellFamily(ctx_half, seq, "custom-numbers", ESeq(ctx_half, [F(1), F(2)]))

    def test_custom_numbers_require_invertible(self, ctx_half):
        # a family defined by its numbers is built on their reciprocal
        seq = ESeq(ctx_half, [F(0), F(1), F(3)])
        with pytest.raises(NonInvertibleError, match="no reciprocal"):
            custom("numbers", seq)

    def test_default_order(self, ctx_half):
        assert resolve(B, ctx_half).order == 12
        assert pair_family(B, E, ctx_half).order == 12

    def test_negative_order_rejected(self, ctx_half):
        with pytest.raises(FamilyError, match=">= 0"):
            resolve(B, ctx_half, -1)

    def test_negative_genocchi_table_order_rejected(self, ctx_half):
        with pytest.raises(FamilyError, match=">= 0"):
            resolve(GT, ctx_half, -2)
        assert resolve(GT, ctx_half, 0).numbers.coeffs == (1,)
        assert families.genocchi_table_numbers(ctx_half).coeffs == tuple(GENOCCHI_TABLE_HALF)

    def test_custom_sequence_wrong_q(self, ctx_half):
        seq = ESeq(QContext(F(1, 3)), [F(1), F(1)])
        for beta, numbers in ((seq, None), (reciprocal(seq), seq)):
            with pytest.raises(FamilyError, match="does not match the family context"):
                AppellFamily(ctx_half, beta, "custom", numbers)
        half = ESeq(ctx_half, [F(1), F(1)])
        with pytest.raises(FamilyError, match="does not match the family context"):
            AppellFamily(ctx_half, reciprocal(half), "custom", seq)

    def test_custom_sequence_too_short(self, ctx_half):
        seq = ESeq(ctx_half, [F(1), F(1), F(2)])
        with pytest.raises(FamilyError, match="share one truncation order"):
            AppellFamily(ctx_half, reciprocal(seq), "custom", seq.truncated(1))


class TestAppellPoly:
    def test_degree_zero_is_one(self, ctx_half):
        for spec in (B, E, GD, GT):
            assert resolve(spec, ctx_half, 2).poly(0) == QPoly([1])

    def test_bernoulli_first(self, ctx_half):
        fam = resolve(B, ctx_half, 2)
        assert fam.poly(1) == QPoly([F(-2, 3), 1])

    def test_bernoulli_second(self, ctx_half):
        fam = resolve(B, ctx_half, 2)
        assert fam.poly(2) == QPoly([F(2, 21), -1, 1])

    def test_eval_at_zero_is_number(self, ctx_half):
        for spec in (B, E, GT):
            fam = resolve(spec, ctx_half, 4)
            for n in range(5):
                assert fam.poly(n)(0) == fam.number(n)

    def test_out_of_range(self, ctx_half):
        fam = resolve(B, ctx_half, 2)
        with pytest.raises(FamilyError, match="exceeds"):
            fam.poly(3)

    def test_negative_degree_rejected(self, ctx_half):
        fam = resolve(E, ctx_half, 4)
        for call in (fam.number, fam.poly, lambda n: iterate2(fam, fam, n)):
            with pytest.raises(FamilyError, match=">= 0"):
                call(-1)
        assert fam.poly(0) == QPoly([1])

    def test_truncated_keeps_the_prefix(self):
        # a family resolved at a lower order is the leading part of the higher
        # one: numbers, beta, members, determinant members and 2-iterates
        low, specs = 3, (B, E, GD, GT)
        for ctx in (QContext("1/2"), QContext("5/11")):
            tops = [resolve(s, ctx, GENOCCHI_TABLE_MAX_ORDER if s is GT else 8) for s in specs]
            lows = [resolve(s, ctx, low) for s in specs]
            for top, cut in zip(tops, lows):
                assert cut.order == low
                assert cut.numbers == top.numbers.truncated(low)
                assert cut.beta == top.beta.truncated(low)
                assert cut.polys(low) == top.polys(low)
                assert cut.determinant.polys(low) == top.determinant.polys(low)
            for top_a, cut_a in zip(tops, lows):
                for top_b, cut_b in zip(tops, lows):
                    for n in range(low + 1):
                        assert iterate2(cut_a, cut_b, n) == iterate2(top_a, top_b, n)

    @pytest.mark.parametrize("spec", [B, E, GD, GT])
    def test_truncated_before_and_after_reading_numbers(self, ctx_half, spec):
        # a product with a factor of higher order is the lower-order product,
        # whether that factor's numbers and beta were read before or after
        want = pair_family(spec, B, ctx_half, 2)
        for read_first in (False, True):
            fam = resolve(spec, ctx_half, 4)
            if read_first:
                fam.numbers, fam.beta
            pair = product_family(fam, resolve(B, ctx_half, 2))
            assert pair.order == 2 and pair.factors[0] is fam
            assert pair.numbers == want.numbers and pair.beta == want.beta
            assert fam.numbers.truncated(2) == resolve(spec, ctx_half, 2).numbers


def _counting_reciprocal(monkeypatch):
    """Count the number computations the families module runs: its calls to
    ``reciprocal`` and to the built-ins' recurrence, by order."""
    calls = []
    inner, kernel = families.reciprocal, families._affine_numbers

    def counted(a):
        calls.append(a.order)
        return inner(a)

    def counted_kernel(ctx, order, affine):
        calls.append(order)
        return kernel(ctx, order, affine)

    monkeypatch.setattr(families, "reciprocal", counted)
    monkeypatch.setattr(families, "_affine_numbers", counted_kernel)
    return calls


class TestNumbersOnDemand:
    """A family is held by its beta; its numbers are one computation, a
    reciprocal or the built-ins' recurrence, run on the first read of
    ``numbers`` and kept."""

    @pytest.mark.parametrize("spec", [B, E, GD])
    def test_builtin_by_beta_inverts_on_first_read(self, monkeypatch, ctx_half, spec):
        calls = _counting_reciprocal(monkeypatch)
        fam = resolve(spec, ctx_half, 6)
        assert calls == []
        first = fam.numbers
        assert fam.numbers is first and fam.number(6) == first[6]
        assert calls == [6]

    def test_pair_of_builtins_inverts_once(self, monkeypatch, ctx_half):
        calls = _counting_reciprocal(monkeypatch)
        pair = pair_family(B, E, ctx_half, 8)
        assert calls == []
        assert pair.number(8) == pair.poly(8)(0)
        assert calls == [8]

    def test_given_numbers_are_kept(self, monkeypatch, ctx_half):
        seq = ESeq(ctx_half, [F(2), F(1, 3), F(-1, 5)])
        fam = custom("numbers", seq)
        table = resolve(GT, ctx_half, 4)
        calls = _counting_reciprocal(monkeypatch)
        assert fam.numbers is fam.numbers and fam.numbers == seq
        assert table.numbers == families.genocchi_table_numbers(ctx_half)
        assert calls == []

    def test_custom_beta_inverts_on_first_read(self, monkeypatch, ctx_half):
        calls = _counting_reciprocal(monkeypatch)
        fam = custom("beta", ESeq(ctx_half, [F(3), F(1, 2)]))
        assert calls == []
        assert fam.numbers.coeffs == (F(1, 3), F(-1, 18))
        assert calls == [1]


def _fraction_poly(fam, n):
    """P_n by the Fraction formula, one q-binomial product per coefficient."""
    return QPoly([fam.ctx.q_binomial(n, n - i) * fam.numbers[n - i] for i in range(n + 1)])


class TestPolyFromGaussRows:
    """``AppellFamily.poly`` forms each coefficient G N / (b^m D) from the
    integer Gauss row with two gcds; the Fraction formula is its oracle."""

    @pytest.mark.parametrize(
        "q, top",
        [(F(1, 2), 40), (F(9, 10), 40), (F(7, 12), 40), (F(999, 1000), 40),
         (F(1, 10**9), 40), (F(5, 11), 96)],
        ids=str,
    )
    def test_matches_the_fraction_formula(self, q, top):
        ctx = QContext(q)
        specs = (B, E, GD, GT)
        singles = [resolve(s, ctx, GENOCCHI_TABLE_MAX_ORDER if s is GT else top) for s in specs]
        fams = list(singles)
        # every pair once: the factor order gives the same product family
        for i, a in enumerate(singles):
            fams.extend(product_family(a, b) for b in singles[i:])
        for fam in fams:
            for n in range(fam.order + 1):
                assert fam.poly(n) == _fraction_poly(fam, n), (fam, n)

    @pytest.mark.parametrize("q", [F(1, 2), F(5, 11), F(1, 10**9)], ids=str)
    def test_zero_numbers(self, q):
        # zero coefficients, a zero top coefficient and a zero polynomial
        ctx = QContext(q)
        numbers = ESeq(ctx, [F(1), F(0), F(0), F(-3, 7), F(0), F(5, 11 * 13)])
        fam = AppellFamily(ctx, reciprocal(numbers), "zeros", numbers)
        beta = ESeq(ctx, [F(1), F(0), F(2, 3), F(0)])
        sparse = AppellFamily(ctx, beta, "sparse", ESeq(ctx, [F(0), F(0), F(0), F(0)]))
        for f in (fam, sparse):
            for n in range(f.order + 1):
                got = f.poly(n)
                assert got == _fraction_poly(f, n)
                assert_canonical(got)
        assert sparse.poly(3).is_zero


class TestBetaOnFirstRead:
    """A beta-defined built-in forms its beta from q-numbers only when
    ``beta`` is first read; its numbers and polynomials never need it."""

    @staticmethod
    def _forbid_q_numbers(monkeypatch):
        def refuse(self, a):
            raise AssertionError("q_number called")

        monkeypatch.setattr(QContext, "q_number", refuse)

    def test_resolve_and_pair_family_read_no_beta(self, monkeypatch):
        ctx = QContext(F(5, 11))
        self._forbid_q_numbers(monkeypatch)
        for spec in (B, E, GD):
            # the numbers by their recurrence, the members from the Gauss rows
            fam = resolve(spec, ctx, 12)
            fam.numbers, fam.poly(12)
            assert fam._beta is None  # euler's beta needs no q-number, so look too
            for other in (B, E, GD):
                # a pair's numbers come from the same recurrence, on W = w^I w^II,
                # also at the lower order of a factor
                pair = pair_family(spec, other, ctx, 12)
                low = product_family(fam, resolve(other, ctx, 5))
                pair.numbers, pair.poly(12), low.numbers, low.poly(5)
                assert pair._beta is None and low._beta is None
                iterate2(fam, resolve(other, ctx, 12), 12)
        monkeypatch.undo()
        with pytest.raises(AssertionError, match="q_number called"):
            self._forbid_q_numbers(monkeypatch)
            resolve(B, ctx, 3).beta

    @pytest.mark.parametrize("q", [F(1, 2), F(5, 11), F(999, 1000)], ids=str)
    def test_beta_equals_the_eager_list(self, q):
        ctx = QContext(q)
        for spec in (B, E, GD):
            c, d, s = families._AFFINE[spec.name]
            want = [c + d + s] + [d + s / ctx.q_number(m + 1) for m in range(1, 17)]
            fam = resolve(spec, ctx, 16)
            assert fam.beta == ESeq(ctx, want)
            assert fam.beta is fam.beta

    def test_pair_beta_on_first_read(self, ctx_half):
        fam = pair_family(B, E, ctx_half, 8)
        bern = resolve(B, ctx_half, 8)
        low = product_family(bern, resolve(E, ctx_half, 5))  # at the lower order
        fam.numbers, low.numbers
        assert fam._beta is None and low._beta is None
        beta = fam.beta
        assert beta is fam.beta
        assert beta == convolve(resolve(B, ctx_half, 8).beta, resolve(E, ctx_half, 8).beta)
        assert low.beta == beta.truncated(5) == pair_family(B, E, ctx_half, 5).beta
        assert low.numbers == fam.numbers.truncated(5)
        assert low.affine == fam.affine
        # the factors are kept as they are, each at its own order
        assert low.factors[0] is bern
        assert [f.order for f in low.factors] == [8, 5]
        assert [f.label for f in low.factors] == ["bernoulli", "euler"]


class TestAffineNumbers:
    """The numbers of the beta-defined built-ins and of their nine pairs come
    from one q-binomial recurrence; ``reciprocal(beta)`` is the oracle."""

    @pytest.mark.parametrize("order", [0, 1, 2, 7, 24])
    @pytest.mark.parametrize(
        "qs", ["1/2", "5/11", "9/10", "5/6", "2/9", "999/1000", "1/1000000000"]
    )
    @pytest.mark.parametrize("name", ["bernoulli", "euler", "genocchi-det"])
    def test_matches_the_reciprocal_of_beta(self, name, qs, order):
        ctx = QContext(qs)
        fam = resolve(FamilySpec.builtin(name), ctx, order)
        got = families._affine_numbers(ctx, order, fam.affine)
        assert got == reciprocal(fam.beta) and all(type(c) is F for c in got)
        assert fam.numbers == got

    @given(
        q=q_values(),
        name=st.sampled_from(["bernoulli", "euler", "genocchi-det"]),
        order=st.integers(0, 16),
    )
    def test_matches_the_reciprocal_at_any_q(self, q, name, order):
        fam = resolve(FamilySpec.builtin(name), QContext(q), order)
        assert fam.numbers == reciprocal(fam.beta)

    @pytest.mark.parametrize("order", [0, 1, 2, 7, 24])
    @pytest.mark.parametrize(
        "qs", ["1/2", "5/11", "9/10", "5/6", "2/9", "999/1000", "1/1000000000"]
    )
    def test_pairs_match_the_reciprocal_and_the_convolution(self, qs, order):
        # a pair of beta-defined built-ins runs the same recurrence on
        # W = w^I w^II = t^2 beta^I beta^II, with v = 2
        ctx = QContext(qs)
        singles = [resolve(FamilySpec.builtin(name), ctx, order) for name in NAMES_BY_BETA]
        for fa in singles:
            for fb in singles:
                pair = product_family(fa, fb)
                assert pair.affine == (fa.affine, fb.affine)
                got = families._affine_numbers(ctx, order, pair.affine)
                assert all(type(c) is F for c in got)
                assert got == reciprocal(pair.beta) == convolve(fa.numbers, fb.numbers)
                assert pair.numbers == got

    @given(
        q=q_values(),
        names=st.tuples(*[st.sampled_from(["bernoulli", "euler", "genocchi-det"])] * 2),
        order=st.integers(0, 16),
    )
    def test_pairs_match_the_reciprocal_at_any_q(self, q, names, order):
        pair = pair_family(*(FamilySpec.builtin(name) for name in names), QContext(q), order)
        assert pair.numbers == reciprocal(pair.beta)

    def test_only_beta_defined_builtins_take_the_recurrence(self, monkeypatch, ctx_half):
        # singles and their nine pairs; a pair with genocchi-table or a custom
        # beta takes reciprocal
        singles = [resolve(spec, ctx_half, 5) for spec in (B, E, GD)]
        pairs = [pair_family(x, y, ctx_half, 5) for x in (B, E, GD) for y in (B, E, GD)]
        bern = singles[0]
        others = [
            pair_family(B, GT, ctx_half, 4),
            pair_family(GT, E, ctx_half, 4),
            product_family(bern, custom("beta", bern.beta)),
            custom("beta", bern.beta),
            AppellFamily(ctx_half, bern.beta, "bernoulli"),
        ]
        monkeypatch.setattr(families, "reciprocal", None)
        assert [fam.numbers.order for fam in singles + pairs] == [5] * 12
        monkeypatch.undo()
        monkeypatch.setattr(families, "_affine_numbers", None)
        assert [fam.numbers.order for fam in others[:2]] == [4, 4]
        assert all(fam.numbers == bern.numbers for fam in others[3:])
        assert others[2].numbers == pairs[0].numbers


def _product_numbers_oracle(a, b):
    """The product family's numbers as they were formed before the beta
    route: the convolution of the factors' numbers."""
    return convolve(a.numbers, b.numbers)


class TestProductFamily:
    @pytest.mark.parametrize("qs", ["1/2", "5/11", "9/10"])
    @pytest.mark.parametrize("sa", [B, E, GD, GT])
    @pytest.mark.parametrize("sb", [B, E, GD, GT])
    def test_numbers_match_the_convolution_oracle(self, qs, sa, sb):
        ctx = QContext(qs)
        order = 4 if GT in (sa, sb) else 16
        fa, fb = resolve(sa, ctx, order), resolve(sb, ctx, order)
        pair = product_family(fa, fb)
        assert pair.order == order and pair.label == f"{fa.label}*{fb.label}"
        assert pair.beta == convolve(fa.beta, fb.beta)
        assert pair.numbers == _product_numbers_oracle(fa, fb)
        assert pair_family(sa, sb, ctx, order).numbers == pair.numbers

    @given(
        a=seqs(invertible=True, coefficients=mixed),
        b=seqs(invertible=True, coefficients=mixed),
        kinds=st.tuples(*[st.sampled_from(["numbers", "beta"])] * 2),
    )
    def test_custom_specs_match_the_convolution_oracle(self, a, b, kinds):
        b = same_order(a, b)
        fa, fb = (custom(kind, seq) for kind, seq in zip(kinds, (a, b)))
        pair = product_family(fa, fb)
        assert pair.numbers == _product_numbers_oracle(fa, fb)
        assert convolve(pair.numbers, pair.beta) == unit(a.ctx, a.order)

    def test_a_product_keeps_its_factors_and_the_routes_read_them(self, ctx_half):
        bern, euler = resolve(B, ctx_half, 6), resolve(E, ctx_half, 6)
        pair = product_family(bern, euler)
        assert pair.factors == (bern, euler)
        assert bern.factors == bern.determinant.factors == custom("beta", bern.beta).factors == ()
        # a product of a product routes through its own two factors
        triple = product_family(pair, resolve(GD, ctx_half, 6))
        for n in range(7):
            assert [route_poly(triple, n, route) for route in ROUTES] == [triple.poly(n)] * 3
        for route in ROUTES:
            assert route_numbers(triple, 6, route) == list(triple.numbers)


NAMES_BY_BETA = ("bernoulli", "euler", "genocchi-det")


def _counting_convolve(monkeypatch):
    calls = []
    inner = families.convolve

    def counted(a, b):
        calls.append(a.order)
        return inner(a, b)

    monkeypatch.setattr(families, "convolve", counted)
    return calls


class TestPairBetaClosedForm:
    """The Galois-number closed form of two beta-defined built-ins, the
    weights W = t^2 beta^I beta^II of ``_pair_weights``, feeds only the pair's
    numbers recurrence; the reciprocal of ``convolve`` of the factors' betas
    is the oracle."""

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 12, 40])
    @pytest.mark.parametrize("qs", ["1/2", "5/11", "9/10", "1/1000", "999/1000", "1/1000000000"])
    def test_matches_convolve(self, qs, order):
        ctx = QContext(qs)
        fams = [resolve(FamilySpec.builtin(name), ctx, order) for name in NAMES_BY_BETA]
        for fa in fams:
            for fb in fams:
                pair = product_family(fa, fb)
                got = pair.numbers
                assert pair._beta is None and all(type(c) is F for c in got)
                assert got == reciprocal(convolve(fa.beta, fb.beta))

    @given(
        q=q_values(),
        names=st.tuples(*[st.sampled_from(NAMES_BY_BETA)] * 2),
        order=st.integers(0, 16),
    )
    def test_matches_convolve_at_any_q(self, q, names, order):
        fa, fb = (resolve(FamilySpec.builtin(name), QContext(q), order) for name in names)
        assert product_family(fa, fb).numbers == reciprocal(convolve(fa.beta, fb.beta))

    def test_every_product_convolves_its_betas_on_first_read(self, monkeypatch, ctx_half):
        bern = resolve(B, ctx_half, 4)
        seq = ESeq(ctx_half, [F(1), F(1, 3), F(-1, 5), F(2), F(1, 7)])
        others = [
            bern,
            resolve(E, ctx_half, 8),  # the product is at bern's order 4
            resolve(GT, ctx_half, 4),
            custom("beta", seq),
            custom("numbers", seq),
            product_family(bern, bern),
            AppellFamily(ctx_half, bern.beta, "bernoulli"),
        ]
        pairs = [(x, y) for fam in others for x, y in ((fam, bern), (bern, fam))]
        calls = _counting_convolve(monkeypatch)
        products = [product_family(x, y) for x, y in pairs]
        assert calls == [] and all(p._beta is None for p in products)
        for (x, y), p in zip(pairs, products):
            assert p.factors == (x, y) and p.beta is p.beta
        # one convolve per product, and one more for the product factor's own beta
        assert calls == [4] * (len(products) + 1)
        monkeypatch.undo()
        for fam, one, two in zip(others, products[::2], products[1::2]):
            assert one.beta == two.beta == convolve(fam.beta.truncated(4), bern.beta)

    def test_unequal_orders_give_the_lower_order(self, ctx_half):
        bern, euler = resolve(B, ctx_half, 4), resolve(E, ctx_half, 5)
        pair, want = product_family(bern, euler), pair_family(B, E, ctx_half, 4)
        assert pair.order == 4 and pair.factors == (bern, euler)
        assert pair.numbers == want.numbers and pair.beta == want.beta
        for route in ROUTES:
            assert route_numbers(pair, 4, route) == route_numbers(want, 4, route)
            assert [route_poly(pair, n, route) for n in range(5)] == [
                route_poly(want, n, route) for n in range(5)
            ]
        with pytest.raises(FamilyError, match="exceeds the truncation order 4"):
            route_poly(pair, 5, "series")
        # the sequences themselves are still multiplied at one order only
        with pytest.raises(ValueError, match="mismatched order"):
            convolve(bern.beta, euler.beta)


class TestIterate2:
    def test_self_pair_degree_two(self, ctx_half):
        fb = resolve(B, ctx_half, 4)
        assert iterate2(fb, fb, 2) == QPoly([F(6, 7), -2, 1])

    def test_self_pair_degree_three(self, ctx_half):
        fb = resolve(B, ctx_half, 4)
        want = QPoly([F(-8, 45), F(3, 2), F(-7, 3), 1])
        assert iterate2(fb, fb, 3) == want

    def test_mixed_euler_bernoulli(self, ctx_half):
        fe, fb = resolve(E, ctx_half, 4), resolve(B, ctx_half, 4)
        assert iterate2(fe, fb, 1) == QPoly([F(-7, 6), 1])

    def test_numbers_match_polynomial_at_zero(self, ctx_half):
        for sa, sb in ((B, B), (E, B), (GT, E)):
            fa, fb = resolve(sa, ctx_half, 4), resolve(sb, ctx_half, 4)
            pair = product_family(fa, fb)
            for n in range(5):
                assert iterate2(fa, fb, n)(0) == pair.number(n)

    def test_numbers_examples(self, ctx_half):
        fb, fe = resolve(B, ctx_half, 4), resolve(E, ctx_half, 4)
        assert iterate2(fb, fb, 0)(0) == 1
        assert iterate2(fb, fb, 2)(0) == F(6, 7)
        assert iterate2(fe, fb, 1)(0) == F(-7, 6)
        assert pair_family(B, B, ctx_half, 4).number(2) == F(6, 7)
        assert pair_family(E, B, ctx_half, 4).number(1) == F(-7, 6)

    def test_product_family_agrees(self, ctx_half):
        fb, fe = resolve(B, ctx_half, 6), resolve(E, ctx_half, 6)
        pf = pair_family(B, E, ctx_half, 6)
        for n in range(7):
            assert pf.poly(n) == iterate2(fb, fe, n)
            assert pf.number(n) == iterate2(fb, fe, n)(0)

    def test_commutativity_all_pairs(self, ctx_half):
        specs = (B, E, GD, GT)
        for sa in specs:
            for sb in specs:
                cap = 4 if GT in (sa, sb) else 6
                fa, fb = resolve(sa, ctx_half, cap), resolve(sb, ctx_half, cap)
                for n in range(cap + 1):
                    assert iterate2(fa, fb, n) == iterate2(fb, fa, n)

    @pytest.mark.parametrize("qs", ["1/2", "5/11"])
    def test_matches_the_direct_double_sum(self, qs):
        # sum_k C(n,k)_q A^I_k P^II_(n-k), summed one Fraction at a time
        ctx = QContext(qs)
        specs = (B, E, GD, GT)
        fams = [resolve(spec, ctx, 4 if spec == GT else 8) for spec in specs]
        for sa, fa in zip(specs, fams):
            for sb, fb in zip(specs, fams):
                for n in range(min(fa.order, fb.order) + 1):
                    weights = [ctx.q_binomial(n, k) * fa.number(k) for k in range(n + 1)]
                    want = lincomb_oracle(weights, [fb.poly(n - k) for k in range(n + 1)])
                    assert iterate2(fa, fb, n) == want
                    assert iterate2(resolve(sa, ctx, n), resolve(sb, ctx, n), n) == want

    def test_degree_beyond_either_order_rejected(self, ctx_half):
        fb, fg = resolve(B, ctx_half, 6), resolve(GT, ctx_half, 4)
        assert iterate2(fb, fg, 4) == iterate2(fg, fb, 4)
        for fa, fc in ((fb, fg), (fg, fb)):
            with pytest.raises(FamilyError, match="exceeds"):
                iterate2(fa, fc, 5)


class TestUmbral:
    """iterate2 is the umbral composition: x^k in P^I_n is replaced by P^II_k."""

    def test_monomial_basis_is_identity(self, ctx_half):
        fam = resolve(B, ctx_half, 4)
        monomials = custom("numbers", unit(ctx_half, 4))  # A = (1, 0, ...), P_k = x^k
        assert monomials.polys(4) == monomial_basis(4)
        for n in range(5):
            assert iterate2(fam, monomials, n) == fam.poly(n) == iterate2(monomials, fam, n)

    def test_composition_equals_iterate2(self, ctx_half):
        specs = (B, E, GD, GT)
        for fa in (resolve(spec, ctx_half, 4) for spec in specs):
            for fb in (resolve(spec, ctx_half, 4) for spec in specs):
                for n in range(5):
                    want = lincomb_oracle(fa.poly(n).coeffs, fb.polys(n))
                    assert iterate2(fa, fb, n) == want

    @given(
        a=seqs(order_max=6, invertible=True, coefficients=mixed),
        b=seqs(order_max=6, invertible=True, coefficients=mixed),
        kinds=st.tuples(*[st.sampled_from(["numbers", "beta"])] * 2),
    )
    def test_matches_the_fraction_sum(self, a, b, kinds):
        # sum_k a_(n,k) P^II_k with a_(n,k) read from the Fraction view
        b = same_order(a, b)
        fa, fb = (custom(kind, seq) for kind, seq in zip(kinds, (a, b)))
        n = a.order
        want = lincomb_oracle(fa.poly(n).coeffs, fb.polys(n))
        got = iterate2(fa, fb, n)
        assert_canonical(got)
        assert got == want

    def test_composition_commutes(self, ctx_half):
        fa = resolve(B, ctx_half, 8)
        fb = resolve(E, ctx_half, 8)
        for n in range(9):
            assert iterate2(fa, fb, n) == iterate2(fb, fa, n)


class TestOperator:
    def test_unit_sequence_is_identity(self, ctx_half):
        p = QPoly([F(1, 3), 0, 2])
        assert apply_operator(unit(ctx_half, 2), p) == p

    def test_monomial_gives_family_poly(self, ctx_half):
        fam = resolve(B, ctx_half, 4)
        for n in range(5):
            assert apply_operator(fam.numbers, QPoly.monomial(n)) == fam.poly(n)

    def test_family_poly_gives_iterated(self, ctx_half):
        fam = resolve(B, ctx_half, 4)
        got = apply_operator(fam.numbers, fam.poly(2))
        assert got == iterate2(fam, fam, 2)

    def test_short_coefficients_rejected(self, ctx_half):
        with pytest.raises(ValueError, match="stop at order"):
            apply_operator(unit(ctx_half, 1), QPoly.monomial(3))

    @pytest.mark.parametrize("degree", [1, 3, 5])
    def test_order_one_below_the_degree_is_rejected(self, ctx_half, degree):
        p = QPoly([1] * (degree + 1))
        with pytest.raises(ValueError, match="stop at order"):
            apply_operator(unit(ctx_half, degree - 1), p)
        assert apply_operator(unit(ctx_half, degree), p) == p

    @pytest.mark.parametrize(
        "p",
        [QPoly.zero(), QPoly([F(-3, 7)]), QPoly([0, F(1, 2)]), QPoly([1, 2, 0, F(5, 3)])],
        ids=["zero", "degree-0", "degree-1", "degree-3"],
    )
    def test_edge_polys_match_the_derivative_chain(self, ctx_half, p):
        coeffs = ESeq(ctx_half, [F(2), F(-1, 3), F(5), F(1, 7), F(-2), F(3, 5)])
        assert apply_operator(coeffs, p) == _operator_oracle(coeffs, p)

    @given(
        q=q_values(),
        coeffs=st.lists(small_fractions(), min_size=1, max_size=9),
        p=st.lists(small_fractions(), max_size=9),
    )
    def test_matches_the_derivative_chain(self, q, coeffs, p):
        ctx = QContext(q)
        # the degree stays at or below the order; a shorter p covers degree
        # below the order, an empty or all-zero one the zero polynomial
        seq, poly = ESeq(ctx, coeffs), QPoly(p[: len(coeffs)])
        got = apply_operator(seq, poly)
        assert_canonical(got)
        assert got == _operator_oracle(seq, poly)
        assert got == _operator_fraction_oracle(seq, poly)

    def test_gammas_are_formed_once_per_sequence(self, monkeypatch):
        ctx = QContext("5/11")
        seq = resolve(B, ctx, 12).numbers
        polys = [QPoly([F(1, k + 2) for k in range(n + 1)]) for n in range(13)]
        want = [_operator_oracle(seq, p) for p in polys]
        reads = []
        real = QContext.q_factorial

        def counting(self, n):
            reads.append(n)
            return real(self, n)

        monkeypatch.setattr(QContext, "q_factorial", counting)
        got = [apply_operator(seq, p) for p in polys]
        monkeypatch.undo()
        # each gamma c_k/[k]_q!, k = 0..12, formed once for all 13 degrees
        assert sorted(reads) == list(range(13))
        assert got == want

    @pytest.mark.parametrize("qs", ["1/2", "5/11", "9/10"])
    def test_routes_agree_and_hash_alike(self, qs):
        # the operator, the double sum, the determinant weights and the
        # product family give one canonical polynomial, from different denominators
        ctx = QContext(qs)
        fa, fb = resolve(B, ctx, 10), resolve(GD, ctx, 10)
        series = product_family(fa, fb)
        for n in range(11):
            routes = [
                *(route_poly(series, n, route) for route in ROUTES),
                _operator_fraction_oracle(fa.numbers, fb.poly(n)),
                iterate2(fa, fb, n),
                lincomb(fa.determinant.poly(n).coeffs, fb.polys(n)),
            ]
            for r in routes:
                assert_canonical(r)
                assert r == routes[0] and hash(r) == hash(routes[0])


def _operator_fraction_oracle(coeffs, p):
    """apply_operator's sum as it was formed over ``Fraction`` before its
    integer kernel: coefficient m is (1/[m]_q!) sum_k gamma_k pi_(m+k) with
    gamma_k = c_k/[k]_q! and pi_i = [i]_q! p_i."""
    facts = [coeffs.ctx.q_factorial(i) for i in range(len(p.coeffs))]
    gammas = [c / f for c, f in zip(coeffs, facts)]
    pis = [f * c for f, c in zip(facts, p.coeffs)]
    return QPoly(
        sum((g * pi for g, pi in zip(gammas, pis[m:])), F(0)) / facts[m]
        for m in range(len(pis))
    )


def _operator_oracle(coeffs, p):
    """sum_k (c_k/[k]_q!) D_q^k p, summing the q-derivative chain of p
    itself: the reference for apply_operator."""
    ctx = coeffs.ctx
    weights, derivs = [], []
    d = p
    while not d.is_zero:
        k = len(derivs)
        weights.append(coeffs[k] / ctx.q_factorial(k))
        derivs.append(d)
        d = q_derive(d, ctx)
    return lincomb_oracle(weights, derivs)


class TestIdentities:
    @pytest.mark.parametrize("spec", [B, E], ids=["bernoulli", "euler"])
    def test_residuals_vanish(self, ctx_half, spec):
        fam = resolve(spec, ctx_half, 6)
        for n in range(1, 7):
            r1, r2 = identity_residuals(fam, product_family(fam, fam), n)
            assert r1.is_zero and r2.is_zero

    def test_degree_zero_convention(self, ctx_half):
        fam = resolve(B, ctx_half, 2)
        zero = (QPoly.zero(), QPoly.zero())
        assert identity_residuals(fam, product_family(fam, fam), 0) == zero


class TestLadder:
    @pytest.mark.parametrize("qs", ["1/2", "1/3", "3/4"])
    def test_builtins(self, qs):
        ctx = QContext(qs)
        for spec in (B, E, GD, GT):
            cap = 4 if spec is GT else 8
            fam = resolve(spec, ctx, cap)
            for n in range(1, cap + 1):
                assert q_derive(fam.poly(n), ctx) == ctx.q_number(n) * fam.poly(n - 1)

    @given(
        q=q_values(),
        numbers=st.lists(small_fractions(), min_size=2, max_size=9).map(
            lambda cs: [F(1)] + cs[1:]
        ),
    )
    def test_any_number_sequence(self, q, numbers):
        # the ladder is a structural property of the series construction
        ctx = QContext(q)
        fam = custom("numbers", ESeq(ctx, numbers))
        for n in range(1, fam.order + 1):
            assert q_derive(fam.poly(n), ctx) == ctx.q_number(n) * fam.poly(n - 1)
