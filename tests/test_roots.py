import cmath
import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qappell import (
    QContext,
    QPoly,
    find_roots,
    pair_family,
    resolve,
    roots,
    sample,
    vieta_residuals,
)
from qappell.families import FamilySpec
from qappell.fmt import decimal_str, real_str
from qappell.roots import (
    ClassificationError,
    RootFindingError,
    _build,
    _exact_values,
    _meeting,
    _newton_polygon_start,
    to_float,
)

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


def relative_vieta(p, found):
    """Vieta residuals, each relative to its target where that exceeds 1."""
    n = p.degree
    lead = p.coeffs[-1]
    targets = (-p.coeff(n - 1) / lead, (-1) ** n * p.coeff(0) / lead)
    return [
        r / max(1.0, abs(float(t)))
        for r, t in zip(vieta_residuals(p, tuple(found)), targets)
    ]


@pytest.fixture
def b2(ctx_half):
    return pair_family(B, B, ctx_half, 4)


wide_fractions = st.one_of(
    st.integers(-(10**40), 10**40),
    st.just(0),
    st.fractions(min_value=-(10**20), max_value=10**20, max_denominator=10**40),
)


def float_bits(xs) -> list[str]:
    """Exact images of floats, so that 0.0 and -0.0 differ."""
    return [x.hex() for x in xs]


def to_float_oracle(p: QPoly) -> list[float]:
    """The monic image through ``Fraction`` coefficients, as ``to_float``
    formed it before reading the integers."""
    lead = p.coeffs[-1]
    return [float(c / lead) for c in p.coeffs]


def exact_value_oracle(p: QPoly, z: complex) -> complex:
    """p(z)/lead(p) by Horner over Q(i), rounded once."""
    x, y = F(z.real), F(z.imag)
    re = im = F(0)
    for c in reversed(p.coeffs):
        re, im = re * x - im * y + c, re * y + im * x
    lead = p.coeffs[-1]
    try:
        return complex(float(re / lead), float(im / lead))
    except OverflowError:
        return complex(math.inf)


def meeting_oracle(z, radii, mirrored) -> list[list[int]]:
    """``_meeting`` by all-pairs disc tests, without the sweep."""
    centres = [w.conjugate() for w in z] if mirrored else z
    return [
        [j for j, w in enumerate(z) if j != i and abs(c - w) <= radii[i] + radii[j]]
        for i, c in enumerate(centres)
    ]


def vieta_oracle(p: QPoly, found) -> tuple[float, float]:
    """``vieta_residuals`` through ``Fraction`` coefficients."""
    n, lead = p.degree, p.coeffs[-1]
    target_sum = float(-p.coeff(n - 1) / lead)
    target_prod = float((-1) ** n * p.coeff(0) / lead)
    got_sum, got_prod = 0.0, 1.0
    for w in found:
        got_sum += w
        got_prod *= w
    return abs(got_sum - target_sum), abs(got_prod - target_prod)


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

    @given(coeffs=st.lists(wide_fractions, min_size=1, max_size=12))
    def test_bit_identical_to_the_fraction_route(self, coeffs):
        p = QPoly(coeffs)
        if not p.is_zero:
            assert float_bits(to_float(p)) == float_bits(to_float_oracle(p))

    @pytest.mark.parametrize(
        "coeffs",
        [
            [F(1, 10**400), 1],  # underflows to 0.0
            [F(1, 2**1074), 1],  # the smallest subnormal
            [F(3, 2**1076), -1],  # a subnormal rounded, under a negative lead
            [0, 5, 0, -7],  # zeros under a negative lead stay +0.0
            [2**53 + 1, 1],  # half-way between two doubles: rounds to even
            [10**308, F(1, 10)],  # overflows
            [2**1024 - 2**970, 1],  # rounds up to 2^1024, so overflows
            [10**400, 1],
        ],
    )
    def test_extreme_ratios_match_the_fraction_route(self, coeffs):
        p = QPoly(coeffs)
        try:
            want = float_bits(to_float_oracle(p))
        except OverflowError:
            with pytest.raises(OverflowError):
                to_float(p)
            with pytest.raises(RootFindingError, match="outside double range"):
                find_roots(p)
        else:
            assert float_bits(to_float(p)) == want

    @given(
        coeffs=st.lists(wide_fractions, min_size=2, max_size=10),
        x=st.floats(-4, 4),
        y=st.floats(-4, 4),
    )
    def test_exact_value_and_vieta_match_the_fraction_route(self, coeffs, x, y):
        p = QPoly(coeffs)
        if p.degree < 1:
            return
        z = complex(x, y)
        # one image over the largest denominator serves points of any size
        points = [z, complex(x), complex(y * 2.0**-40, x)]
        assert _exact_values(p, points)[0] == [exact_value_oracle(p, w) for w in points]
        roots_ = (z, z.conjugate(), complex(x))[: p.degree]
        got = vieta_residuals(p, roots_)
        assert float_bits(got) == float_bits(vieta_oracle(p, roots_))


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
        assert low == u.conjugate()  # stored exactly conjugate
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

    def test_non_convergence_reports_best(self, b2, monkeypatch):
        monkeypatch.setattr(roots, "_MAX_SWEEPS", 2)
        with pytest.raises(RootFindingError, match=(
            r"^no convergence after 2 sweeps \(4 of 4 iterates still moving, "
            r"last max update \d\.\d{3}e[+-]\d\d\)$"
        )) as info:
            find_roots(b2.poly(4))
        assert len(info.value.best) == 4
        assert len(info.value.residuals) == 4

    def test_overflowing_iterates_refuse_at_once(self):
        # start radius 2e300, so z^2 overflows in Horner and every first
        # update is NaN; a NaN update must not count as converged
        with pytest.raises(RootFindingError, match=(
            "iterates overflowed in double precision at sweep 0"
        )) as info:
            find_roots(QPoly([1, 10**300, 1]))
        assert len(info.value.best) == len(info.value.residuals) == 2

    def test_fujiwara_start_does_not_overflow(self):
        # the old start radius 1 + max|a_i| was 2.7e8 here, and z^38 overflowed
        fam = resolve(FamilySpec.builtin("genocchi-det"), QContext(F(9, 10)), 38)
        p = fam.poly(38)
        rs = find_roots(p)
        assert sum(rs.counts()) == 38
        bound = 1e-9 * (1 + max(abs(c) for c in rs.monic_coeffs))
        assert all(r < bound for r in rs.residuals)
        assert all(v < 1e-9 for v in relative_vieta(p, rs.roots))

    def test_coefficient_ratio_outside_double_range(self):
        with pytest.raises(RootFindingError, match="outside double range"):
            find_roots(QPoly([10**400, 1]))

    def test_classification_failure_is_a_refusal(self, b2, monkeypatch):
        def skewed(*args):
            raise ClassificationError("forced")

        monkeypatch.setattr(roots, "_build", skewed)
        with pytest.raises(RootFindingError, match="classification failed: forced"):
            find_roots(b2.poly(4))

    @pytest.mark.parametrize("q, n", [(F(1, 2), 16), (F(1, 10), 9), (F(9, 10), 14)])
    def test_former_false_failures(self, q, n):
        # bernoulli x bernoulli, where the absolute 1e-13 update rule of the
        # Durand-Kerner loop stalled near 1e-12
        p = pair_family(B, B, QContext(q), n).poly(n)
        rs = find_roots(p)
        assert sum(rs.counts()) == len(rs.roots) == n
        assert all(v < 1e-9 for v in relative_vieta(p, rs.roots))

    def test_settled_iterates_leave_the_sweep(self, monkeypatch):
        # bernoulli x bernoulli at q = 1/2, n = 40: a loop that updates all n
        # iterates until the last settles makes rs.sweeps * n Horner passes,
        # plus one per exact cluster step
        calls = []
        horner = roots._monic_horner

        def counted(tail, z):
            calls.append(z)
            return horner(tail, z)

        monkeypatch.setattr(roots, "_monic_horner", counted)
        p = pair_family(B, B, QContext(F(1, 2)), 40).poly(40)
        rs = find_roots(p)
        assert len(calls) < rs.sweeps * 40
        assert sum(rs.counts()) == 40
        assert all(v < 1e-9 for v in relative_vieta(p, rs.roots))

    def test_multiple_zero_refuses(self):
        # (x - 1)^2: the inclusion discs of a double zero always overlap
        with pytest.raises(RootFindingError, match="zeros near 1 not isolated"):
            find_roots(QPoly([1, -2, 1]))

    def test_multiple_zero_at_zero_refuses_by_name(self):
        # x^2 (x - 1): two starts at exactly 0 would meet in the first update
        with pytest.raises(RootFindingError, match=(
            r"zeros near 0 not isolated in double precision \(multiplicity 2"
        )) as info:
            find_roots(QPoly([0, 0, -1, 1]))
        assert info.value.sweeps == 0

    @pytest.mark.parametrize(
        "coeffs, low",
        [([1, 1, 10**400], "a_0..a_1"), ([0, 1, 1, 10**400], "a_1..a_2")],
        ids=["x^2 + (x + 1)/10^400", "x^3 + (x^2 + x)/10^400"],
    )
    def test_underflow_is_not_a_multiple_zero(self, coeffs, low):
        # the low exact coefficients are not all 0, so the leading 0.0s of
        # the float image are underflow, not a multiple zero at 0
        with pytest.raises(RootFindingError) as info:
            find_roots(QPoly(coeffs))
        assert str(info.value) == f"{low} underflow in the float image"
        assert info.value.sweeps == 0

    def test_zero_width_disc_refuses_by_name(self, monkeypatch):
        # x^3 + x/10^302 has zeros 0 and +/- 10^-151 i.  At modulus 10^-151, p
        # and Horner's bound underflow, so two float discs get radius 0.0, but
        # no dyadic point there is a zero: the exact residuals certify nothing.
        # With the disc about the exact zero 0, three have radius 0.0 and none
        # overlap: one exact evaluation of all three, no correction moves the
        # iterate that is named, and its place keeps its imaginary part
        calls = []

        def counted(p, points):
            calls.append(len(points))
            return _exact_values(p, points)

        monkeypatch.setattr(roots, "_exact_values", counted)
        with pytest.raises(RootFindingError, match=(
            r"^inclusion disc of the zero near 9\.211e-152\+3\.894e-152i underflows to radius 0\.0$"
        )):
            find_roots(QPoly([0, F(1, 10**302), 0, 1]))
        assert calls == [3]
        # a true dyadic zero keeps its radius 0.0 and is accepted
        assert find_roots(QPoly([0, -1, 1])).real_roots == (0.0, 1.0)

    def test_unisolated_cluster_refuses_by_name(self):
        # two zeros 7e-12 apart at x = 1; no double image separates them
        p = pair_family(B, B, QContext(F(1, 10)), 23).poly(23)
        with pytest.raises(RootFindingError, match=(
            r"zeros near 1 not isolated in double precision \(inclusion radii "
        )):
            find_roots(p)

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


# few distinct parts, so that real parts tie and iterates coincide
disc_parts = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), st.floats(-2, 2))


class TestMeeting:
    @pytest.mark.parametrize("special", [None, 0.0, math.inf, math.nan])
    @given(
        discs=st.lists(
            st.tuples(disc_parts, disc_parts, st.floats(0, 1)), min_size=1, max_size=12
        ),
        at=st.integers(0, 11),
    )
    def test_sweep_matches_all_pairs(self, special, discs, at):
        z = [complex(x, y) for x, y, _ in discs]
        radii = [r for _, _, r in discs]
        if special is not None:
            radii[at % len(radii)] = special
        for mirrored in (False, True):
            got = [sorted(m) for m in _meeting(z, radii, mirrored)]
            assert got == meeting_oracle(z, radii, mirrored)

    def test_wide_disc_far_in_real_part(self):
        # z_1 lies 1.5 to the right of z_0: only the wide radius of z_1
        # reaches back, so a window of 2 r_0 would miss the pair
        z = [complex(0, 0), complex(1.5, 0), complex(1.5, 3)]
        radii = [0.1, 1.5, 0.1]
        assert _meeting(z, radii) == [[1], [0], []]
        assert _meeting(z, radii, mirrored=True) == [[1], [0], []]


class TestNewtonPolygonStart:
    def test_one_circle_per_hull_edge(self):
        # (x - 1e-3)(x - 1e3): the hull edges 0 -> 1 and 1 -> 2 give radii
        # 1/1000.001 and 1000.001, where one circle would give ~2000 for both
        small, big = sorted(map(abs, _newton_polygon_start([1.0, -1000.001, 1.0])))
        assert small == pytest.approx(1 / 1000.001, rel=1e-12)
        assert big == pytest.approx(1000.001, rel=1e-12)

    def test_collinear_points_share_one_circle(self):
        # x^4 + 2x^3 + 4x^2 + 8x + 16: every (k, log|a_k|) on one line
        starts = _newton_polygon_start([16.0, 8.0, 4.0, 2.0, 1.0])
        assert [abs(w) for w in starts] == pytest.approx([2.0] * 4, rel=1e-12)
        assert len({round(cmath.phase(w), 9) for w in starts}) == 4

    def test_zero_low_coefficients_start_at_zero(self):
        # x^3 - x: x divides p, so one start is exactly 0
        starts = _newton_polygon_start([0.0, -1.0, 0.0, 1.0])
        assert starts[0] == 0
        assert [abs(w) for w in starts[1:]] == pytest.approx([1.0, 1.0])

    def test_sweeps_fall_at_high_degree(self):
        # bernoulli x bernoulli at q = 9/10, n = 40 took 53 sweeps from one
        # Fujiwara circle
        p = pair_family(B, B, QContext(F(9, 10)), 40).poly(40)
        rs = find_roots(p)
        assert 1 <= rs.sweeps <= 20
        assert all(v < 1e-9 for v in relative_vieta(p, rs.roots))

    def test_refusal_carries_sweeps(self, b2, monkeypatch):
        monkeypatch.setattr(roots, "_MAX_SWEEPS", 2)
        with pytest.raises(RootFindingError) as info:
            find_roots(b2.poly(4))
        assert info.value.sweeps == 2
        with pytest.raises(RootFindingError) as info:
            find_roots(QPoly([10**400, 1]))
        assert info.value.sweeps == 0


class TestExactClusterCheck:
    def test_exact_value_matches_rational_evaluation(self, b2):
        p = b2.poly(4)
        x, y = F(5, 4), F(-3, 8)
        re, im = F(0), F(0)
        for c in reversed(p.coeffs):  # Horner over Q(i)
            re, im = re * x - im * y + c, re * y + im * x
        lead = p.coeffs[-1]
        (got,), _ = _exact_values(p, [complex(1.25, -0.375)])
        assert got == complex(float(re / lead), float(im / lead))

    def test_exact_zero_is_told_from_underflow(self):
        # at 2^-549, x^2 - 2^-1100 is 3 2^-1100: it rounds to 0.0 but is not 0
        p = QPoly([-F(1, 2**1100), 0, 1])
        assert _exact_values(p, [2.0**-550, 2.0**-549]) == ([0j, 0j], [True, False])

    @pytest.mark.parametrize(
        "coeffs", [[-1, 3, -3, 1], [1, 0, -2, 0, 1]], ids=["(x-1)^3", "(x^2-1)^2"]
    )
    def test_multiple_zeros_stay_refused(self, coeffs):
        # exact Weierstrass discs about a multiple zero always meet, also
        # when one iterate lands on the zero and its residual is exactly 0;
        # test_multiple_zero_refuses covers (x - 1)^2
        with pytest.raises(RootFindingError, match="not isolated in double precision"):
            find_roots(QPoly(coeffs))

    @pytest.mark.parametrize(
        "coeffs, reals",
        [([0, -1, 0, 1], (-1.0, 0.0, 1.0)), ([0, -2, 1, 1], (-2.0, 0.0, 1.0))],
        ids=["x^3-x", "x(x-1)(x+2)"],
    )
    def test_zero_coefficients_real(self, coeffs, reals):
        rs = find_roots(QPoly(coeffs))
        assert rs.real_roots == reals  # 0 is exact: the start at 0 never moves
        assert rs.complex_pairs == ()

    def test_zero_coefficients_complex(self):
        rs = find_roots(QPoly([1, 0, 0, 0, 1]))  # x^4 + 1
        h = math.sqrt(0.5)
        assert rs.real_roots == ()
        assert [u for u, _ in rs.complex_pairs] == pytest.approx(
            [complex(-h, h), complex(h, h)], abs=1e-15
        )

    def test_close_pair_accepted_and_accurate(self):
        # euler x bernoulli at q = 2/7, n = 38 has zeros 1 +/- 2.07e-8; its
        # float discs overlap, the exact ones do not
        mpmath = pytest.importorskip("mpmath")
        E = FamilySpec.builtin("euler")
        p = pair_family(E, B, QContext(F(2, 7)), 38).poly(38)
        rs = find_roots(p)
        with mpmath.workdps(40):
            want = [
                complex(w)
                for w in mpmath.polyroots(
                    [mpmath.mpf(c.numerator) / c.denominator for c in reversed(p.coeffs)],
                    maxsteps=200,
                    extraprec=100,
                )
            ]
        for got in rs.roots:
            nearest = min(want, key=lambda w: abs(got - w))
            want.remove(nearest)
            assert abs(got - nearest) < 1e-8 * max(1.0, abs(nearest)), (got, nearest)
        near_one = sorted(r for r in rs.real_roots if abs(r - 1) < 1e-6)
        assert near_one[1] - near_one[0] == pytest.approx(4.14e-8, rel=1e-2)


    def test_close_real_pair_accepted(self):
        # bernoulli x bernoulli at q = 4/11, n = 27 has two real zeros about
        # 3.1e-9 apart at 1 (mpmath.polyroots at 80 digits: 3.1065e-9); an
        # iterate frozen too early left their float discs overlapping
        sympy = pytest.importorskip("sympy")
        p = pair_family(B, B, QContext(F(4, 11)), 27).poly(27)
        rs = find_roots(p)
        # exact isolating intervals of the simple real zeros; count_roots
        # gives the same 3, but its Sturm sequence takes about a minute here
        isolated = sympy.Poly(p.nums[::-1], sympy.Symbol("x")).intervals()
        assert [m for _, m in isolated] == [1, 1, 1]
        assert len(rs.real_roots) == len(isolated) == 3
        for r, ((lo, hi), _) in zip(rs.real_roots, isolated):
            assert lo <= r <= hi
        near_one = [r for r in rs.real_roots if abs(r - 1) < 1e-6]
        assert near_one[1] - near_one[0] == pytest.approx(3.1065e-9, rel=1e-2)


class TestDiscClassification:
    @pytest.mark.parametrize(
        "q, name, n, imag",
        [
            (F(1, 2), "bernoulli", 37, 2.3876e-10),
            (F(2, 7), "bernoulli", 34, 6.589e-12),
            (F(2, 11), "euler", 37, 3.554e-11),
        ],
    )
    def test_close_pair_off_the_axis_stays_complex(self, q, name, n, imag):
        # zeros 1 +/- imag*i (mpmath.polyroots at 80 digits); a relative
        # tolerance of 1e-8 used to put both on the axis as two zeros at 1
        p = pair_family(FamilySpec.builtin(name), B, QContext(q), n).poly(n)
        rs = find_roots(p)
        assert not [r for r in rs.real_roots if abs(r - 1) < 1e-6]
        near = [u for u, _ in rs.complex_pairs if abs(u - 1) < 1e-6]
        assert len(near) == 1
        assert near[0].imag == pytest.approx(imag, rel=1e-3)
        assert abs(near[0].real - 1) < 1e-15

    def test_disc_across_the_axis_pairs_with_its_mirror(self):
        # the first disc meets the axis, but its mirror image meets the
        # second disc, which misses the axis: one certified pair
        z = [complex(1, 1e-10), complex(1, -1e-10)]
        rs = _build(2, z, [1.0, -2.0, 1.0], sweeps=0, radii=[2e-10, 5e-11])
        assert rs.real_roots == ()
        assert rs.complex_pairs == ((complex(1, 1e-10), complex(1, -1e-10)),)

    def test_real_zero_needs_a_lone_mirror(self):
        z = [complex(-1, 1e-17), complex(2, -1e-17)]
        rs = _build(2, z, [-2.0, -1.0, 1.0], sweeps=0, radii=[1e-15, 1e-15])
        assert rs.real_roots == (-1.0, 2.0)
        # two discs that both meet the axis and each other's mirror image
        # certify neither two reals nor a pair
        z = [complex(1, 1e-10), complex(1 + 2.7e-10, -1e-10)]
        with pytest.raises(ClassificationError, match="neither certified real"):
            _build(2, z, [1.0, -2.0, 1.0], sweeps=0, radii=[1.4e-10, 1.4e-10])


class TestAccuracyTarget:
    """Every accepted inclusion disc has radius at most ``_TARGET`` |z_i|."""

    def test_tiny_zeros_get_their_digits(self):
        # x^2 + 2^-1000: the absolute update rule freezes both iterates after
        # one sweep, 40 % off; their discs are wider than the target, so the
        # exact corrections pin the zeros +/- 2^-500 i
        rs = find_roots(QPoly([F(1, 2**1000), 0, 1]))
        assert rs.complex_pairs == ((complex(0, 2.0**-500), complex(0, -(2.0**-500))),)

    def test_wide_disc_refuses_by_name(self, monkeypatch):
        # without the exact corrections the discs stay at about 1.2 |z_i|
        monkeypatch.setattr(roots, "_EXACT_STEPS", 0)
        with pytest.raises(RootFindingError, match=(
            r"^inclusion disc of the zero near -1\.641e-151\+2\.577e-151i has radius 3\.6e-151$"
        )):
            find_roots(QPoly([F(1, 2**1000), 0, 1]))

    @pytest.mark.parametrize(
        "coeffs, radius, named",
        [
            ([-1, 2], math.nan, "has radius nan"),
            ([1, 0, 1], math.nan, "has radius nan"),
            ([-1, 2], math.inf, "has radius inf"),
            ([1, 0, 1], math.inf, "not isolated"),  # an infinite disc meets every other
        ],
    )
    def test_non_finite_radius_is_refused(self, monkeypatch, coeffs, radius, named):
        monkeypatch.setattr(roots, "_weierstrass_radii", lambda z, residuals: [radius] * len(z))
        with pytest.raises(RootFindingError, match=named):
            find_roots(QPoly(coeffs))

    @pytest.mark.parametrize(
        "q, name, n, counts",
        [(F(99, 100), "bernoulli", 32, (8, 24)), (F(19, 20), "genocchi-det", 40, (6, 34))],
    )
    def test_former_residual_refusals(self, q, name, n, counts):
        # refused as "residuals exceed ..." by the float residual tolerance
        # this target replaced: |fl p(z)| is rounding noise above it for q
        # near 1, although the zeros are well separated
        p = resolve(FamilySpec.builtin(name), QContext(q), n).poly(n)
        rs = find_roots(p)
        assert rs.counts() == counts
        assert all(v < 1e-11 for v in relative_vieta(p, rs.roots))
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            exact = mpmath.polyroots(
                [mpmath.mpf(c.numerator) / c.denominator for c in reversed(p.coeffs)],
                maxsteps=200,
                extraprec=200,
            )
            assert sum(mpmath.im(w) == 0 for w in exact) == counts[0]
            want = [complex(w) for w in exact]
        for got in rs.roots:
            nearest = min(want, key=lambda w: abs(got - w))
            want.remove(nearest)
            assert abs(got - nearest) < 2.0**-20 * abs(nearest), (got, nearest)


# q x {plain, x bernoulli}, a different base family per q; combo k takes
# every 12th degree from 4 + 2k, so together they cover the even degrees 4..40
SWEEP = [
    (F(1, 10), "euler", None),
    (F(1, 10), "euler", "bernoulli"),
    (F(1, 2), "genocchi-det", None),
    (F(1, 2), "genocchi-det", "bernoulli"),
    (F(9, 10), "bernoulli", None),
    (F(9, 10), "bernoulli", "bernoulli"),
]


@pytest.mark.parametrize("k", range(len(SWEEP)), ids=lambda k: "{}-{}-{}".format(*SWEEP[k]))
def test_sweep_agrees_with_mpmath_or_refuses(k):
    mpmath = pytest.importorskip("mpmath")
    q, name, times = SWEEP[k]
    spec = FamilySpec.builtin(name)
    ctx = QContext(q)
    fam = pair_family(spec, B, ctx, 40) if times else resolve(spec, ctx, 40)
    for n in range(4 + 2 * k, 41, 12):
        p = fam.poly(n)
        try:
            rs = find_roots(p)
        except RootFindingError as exc:
            assert "not isolated in double precision" in str(exc), (n, str(exc))
            continue
        with mpmath.workdps(20):
            exact = mpmath.polyroots(
                [mpmath.mpf(c.numerator) / c.denominator for c in reversed(p.coeffs)],
                maxsteps=200,
                extraprec=20,
            )
            want = [complex(w) for w in exact]
        for got in rs.roots:
            nearest = min(want, key=lambda w: abs(got - w))
            want.remove(nearest)
            assert abs(got - nearest) < 1e-8 * max(1.0, abs(nearest)), (n, got, nearest)


class TestClassify:
    def test_pure_complex_pair(self):
        rs = find_roots(QPoly([1, 0, 1]))  # x^2 + 1
        assert rs.real_roots == ()
        assert len(rs.complex_pairs) == 1
        u, low = rs.complex_pairs[0]
        assert abs(u - 1j) < 1e-12 and abs(low + 1j) < 1e-12

    def test_close_pair_is_complex(self):
        # x^2 - 2x + (1 + 1e-14): roots 1 +/- 1e-7 i, one certified pair
        p = QPoly([F(1) + F(1, 10**14), -2, 1])
        rs = find_roots(p)
        assert len(rs.complex_pairs) == 1

    def test_unpaired_root_raises(self, b2):
        rs = find_roots(b2.poly(4))
        upper, _ = rs.complex_pairs[0]
        with pytest.raises(ClassificationError):
            _build(3, list(rs.roots[:-1]), list(rs.monic_coeffs), sweeps=0, radii=[0.0] * 3)


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
        # sample checks its own arguments; the CLI's earlier checks do not cover it
        for steps in (1, 0):
            with pytest.raises(ValueError, match="steps must be >= 2"):
                sample(QPoly.monomial(1), F(0), F(1), steps)
        for xmin, xmax in ((F(1), F(0)), (F(1), F(1))):
            with pytest.raises(ValueError, match="xmin must be < xmax"):
                sample(QPoly.monomial(1), xmin, xmax, 5)
