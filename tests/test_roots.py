import math
from fractions import Fraction as F

import pytest

from qappell import (
    QContext,
    QPoly,
    find_roots,
    pair_family,
    resolve,
    sample,
    vieta_residuals,
)
from qappell.families import FamilySpec
from qappell.fmt import decimal_str, real_str
from qappell.roots import ClassificationError, RootFindingError, _build, to_float

B = FamilySpec.builtin("bernoulli")


def bisect_root(coeffs, lo, hi, iters=200):
    """Plain bisection on the float polynomial; independent of the solver."""

    def val(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    flo = val(lo)
    assert flo * val(hi) < 0
    for _ in range(iters):
        mid = (lo + hi) / 2
        fm = val(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return (lo + hi) / 2


@pytest.fixture
def b2(ctx_half):
    return pair_family(B, B, ctx_half, 4)


class TestToFloat:
    def test_linear(self):
        assert to_float(QPoly([F(-4, 3), 1])) == [-4 / 3, 1.0]

    def test_constant_has_degree_zero(self):
        assert to_float(QPoly([5])) == [1.0]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            to_float(QPoly.zero())

    def test_normalizes_leading(self):
        assert to_float(QPoly([1, 2])) == [0.5, 1.0]


class TestFindRoots:
    def test_degree_one(self, b2):
        rs = find_roots(b2.poly(1))
        assert rs.real_roots == (4 / 3,)
        assert rs.complex_pairs == ()

    def test_degree_two_quadratic_oracle(self, b2):
        # exact roots are 1 +/- sqrt(1/7)
        rs = find_roots(b2.poly(2))
        r = math.sqrt(1 / 7)
        assert len(rs.real_roots) == 2
        assert abs(rs.real_roots[0] - (1 - r)) < 1e-12
        assert abs(rs.real_roots[1] - (1 + r)) < 1e-12
        assert [real_str(w) for w in rs.real_roots] == ["0.6220", "1.3780"]

    def test_degree_three_bisection_oracle(self, b2):
        p = b2.poly(3)
        rs = find_roots(p)
        coeffs = to_float(p)
        brackets = [(0.0, 0.5), (0.5, 1.1), (1.1, 1.5)]
        for got, (lo, hi) in zip(rs.real_roots, brackets):
            assert abs(got - bisect_root(coeffs, lo, hi)) < 1e-10
        assert [real_str(w) for w in rs.real_roots] == ["0.1522", "0.9446", "1.2365"]

    def test_degree_four_classification(self, b2):
        rs = find_roots(b2.poly(4))
        assert [real_str(w) for w in rs.real_roots] == ["-0.0617", "0.3823"]
        assert len(rs.complex_pairs) == 1
        u, low = rs.complex_pairs[0]
        assert low == u.conjugate() or abs(low - u.conjugate()) < 1e-12
        assert real_str(u.real) == "1.0897"
        assert real_str(u.imag) == "0.1112"

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            find_roots(QPoly([3]))

    def test_determinism(self, b2):
        p = b2.poly(4)
        a = find_roots(p)
        b = find_roots(p)
        assert a.roots == b.roots  # bit-identical floats
        assert a.residuals == b.residuals

    def test_non_convergence_reports_best(self, b2):
        with pytest.raises(RootFindingError) as info:
            find_roots(b2.poly(4), max_sweeps=2)
        assert len(info.value.best) == 4
        assert len(info.value.residuals) == 4

    def test_overflowing_iterates_refuse_at_once(self):
        # start radius 2.7e8, so z^38 overflows in Horner and every first
        # update is NaN; a NaN update must not count as converged
        fam = resolve(FamilySpec.builtin("genocchi-det"), QContext(F(9, 10)), 38)
        with pytest.raises(RootFindingError, match=(
            "iterates overflowed in double precision at sweep 0"
        )) as info:
            find_roots(fam.poly(38))
        assert len(info.value.best) == len(info.value.residuals) == 38

    def test_residual_bound(self, b2):
        for n in range(1, 5):
            p = b2.poly(n)
            rs = find_roots(p)
            bound = 1e-9 * (1 + max(abs(float(c)) for c in p.coeffs))
            assert all(r < bound for r in rs.residuals)

    def test_vieta(self, ctx_half):
        for a, b in (("bernoulli", "bernoulli"), ("genocchi-table", "euler")):
            pf = pair_family(
                FamilySpec.builtin(a), FamilySpec.builtin(b), ctx_half, 4
            )
            for n in range(1, 5):
                p = pf.poly(n)
                rs = find_roots(p)
                vs, vp = vieta_residuals(p, rs.roots)
                assert vs < 1e-9 and vp < 1e-9

    def test_count_identity(self, ctx_half):
        for a, b in (("euler", "euler"), ("genocchi-table", "bernoulli")):
            pf = pair_family(
                FamilySpec.builtin(a), FamilySpec.builtin(b), ctx_half, 4
            )
            for n in range(1, 5):
                rs = find_roots(pf.poly(n))
                nreal, ncomplex = rs.counts()
                assert nreal + ncomplex == n


class TestClassify:
    def test_pure_complex_pair(self):
        rs = find_roots(QPoly([1, 0, 1]))  # x^2 + 1
        assert rs.real_roots == ()
        assert len(rs.complex_pairs) == 1
        u, low = rs.complex_pairs[0]
        assert abs(u - 1j) < 1e-12 and abs(low + 1j) < 1e-12

    def test_reclassify_with_loose_tolerance(self):
        # x^2 - 2x + (1 + 1e-14): roots 1 +/- 1e-7 i, complex at the default
        # tolerance but real once the tolerance is loosened past 1e-7
        p = QPoly([F(1) + F(1, 10**14), -2, 1])
        rs = find_roots(p)
        assert len(rs.complex_pairs) == 1
        loose = find_roots(p, real_tol=1e-5)
        assert len(loose.real_roots) == 2

    def test_unpaired_root_raises(self, b2):
        rs = find_roots(b2.poly(4))
        upper, _ = rs.complex_pairs[0]
        with pytest.raises(ClassificationError):
            _build(3, list(rs.roots[:-1]), list(rs.monic_coeffs), rs.real_tol)


class TestSample:
    def test_two_steps_identity_line(self):
        pts = sample(QPoly.monomial(1), F(0), F(1), 2)
        assert pts == [(F(0), F(0)), (F(1), F(1))]

    def test_exact_value_at_one(self, b2):
        pts = sample(b2.poly(2), F(0), F(2), 3)
        assert pts[1] == (F(1), F(-1, 7))
        assert decimal_str(F(-1, 7)) == "-0.142857142857"

    def test_row_at_exact_root_is_zero(self, b2):
        pts = sample(b2.poly(1), F(4, 3), F(7, 3), 2)
        assert pts[0] == (F(4, 3), F(0))
        assert decimal_str(pts[0][1]) == "0.000000000000"

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sample(QPoly.monomial(1), F(0), F(1), 1)
        with pytest.raises(ValueError):
            sample(QPoly.monomial(1), F(1), F(0), 5)
