"""q-Appell families: their numbers, polynomials, products and identities.

A family is determined by its number sequence A_0, A_1, ... (with the
normalization A_0 = 1 for the built-ins); the degree-n member is

    P_n(x) = sum_k C(n,k)_q A_k x^(n-k),

so P_n(0) = A_n and D_q P_n = [n]_q P_{n-1} holds for any number
sequence.  The companion beta sequence is the reciprocal of the numbers
under the q-binomial convolution; it drives the determinant construction
and the inversion identities.  A family is held by its beta, and its
numbers are computed from it on first read.  The 2-iterated
and mixed families come from A_I(t) A_II(t), so their beta is beta^I * beta^II
and their numbers are its reciprocal.  The first three built-ins have betas
affine in e_q(t) and (e_q(t) - 1)/t: their numbers follow a q-binomial
recurrence with small weights, and for a pair of them beta^I * beta^II has a
closed form in the Galois numbers; other pairs convolve the betas.

Built-ins
---------
bernoulli       beta_m = 1/[m+1]_q, numbers by recurrence
euler           beta_0 = 1, beta_m = 1/2, numbers by recurrence
genocchi-det    beta_0 = 1, beta_m = 1/(2 [m+1]_q), numbers by recurrence
genocchi-table  numbers taken from the published closed forms (n <= 4),
                beta by reciprocal

The two Genocchi variants intentionally disagree: the published
determinant recipe (genocchi-det) and the published number values
(genocchi-table) are not reciprocal to one another, and the generating
function 2t/(e_q(t)+1) has a vanishing constant term so it cannot be
inverted at all.  Both variants are kept so that every published table
can be reproduced and the inconsistency can be exhibited rather than
silently resolved.

``resolve`` builds the built-ins only.  Any other family is an
``AppellFamily`` built directly: ``AppellFamily(ctx, beta, label)`` from its
beta, or ``AppellFamily(ctx, reciprocal(numbers), label, numbers)`` from its
numbers.  The 2-iterated member ``iterate2`` is one ``lincomb`` of the second
family's polynomials, weighted by the coefficients of the first's.
``route_poly`` forms a member by any of ``ROUTES``, for ``--method`` and
``verify`` alike; a family keeps its determinant weights as it keeps its
numbers and polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional

from .determinant import row_weights, scaled_rows
from .qcore import QContext, QPoly, lincomb, lincomb_ints
from .series import ESeq, convolve, reciprocal

__all__ = [
    "BUILTIN_NAMES",
    "GENOCCHI_TABLE_MAX_ORDER",
    "FamilySpec",
    "AppellFamily",
    "FamilyError",
    "ROUTES",
    "resolve",
    "product_family",
    "pair_family",
    "iterate2",
    "route_poly",
    "apply_operator",
    "identity_residuals",
    "genocchi_table_numbers",
]

BUILTIN_NAMES = ("bernoulli", "euler", "genocchi-det", "genocchi-table")

ROUTES = ("series", "determinant", "operator")

DEFAULT_ORDER = 12

# The published closed forms for the table-Genocchi numbers stop at n=4.
GENOCCHI_TABLE_MAX_ORDER = 4


class FamilyError(ValueError):
    """A family spec cannot be resolved (unknown name, bad order, ...)."""


class FamilySpec(NamedTuple):
    """A built-in family by its canonical name; any other family is an
    ``AppellFamily`` built directly."""

    name: str

    @staticmethod
    def builtin(name: str) -> "FamilySpec":
        key = name.strip().lower().replace("_", "-")
        if key not in BUILTIN_NAMES:
            raise FamilyError(
                f"unknown family {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
            )
        return FamilySpec(key)


class AppellFamily:
    """A family: context, order, beta, a label and its numbers.

    The numbers are computed on first read and kept, unless the family was
    built from given numbers: by ``_affine_numbers`` when ``affine`` is set,
    the (c, d, s) of a beta-defined built-in, else as reciprocal(beta).
    Polynomials and determinant weights are kept per degree in the same way.
    """

    __slots__ = ("ctx", "order", "beta", "label", "affine", "_numbers", "_polys", "_rows",
                 "_weights")

    def __init__(self, ctx: QContext, beta: ESeq, label: str,
                 numbers: Optional[ESeq] = None, affine: Optional[tuple] = None):
        if beta.ctx.q != ctx.q or (numbers is not None and numbers.ctx.q != ctx.q):
            raise FamilyError("numbers/beta context does not match the family context")
        if numbers is not None and numbers.order != beta.order:
            raise FamilyError("numbers and beta must share one truncation order")
        # checked here, as the numbers of a beta are computed only when first read
        if beta[0] == 0:
            raise FamilyError("the beta sequence is not invertible: its first term is zero")
        self.ctx = ctx
        self.order = beta.order
        self.beta = beta
        self.label = label
        self.affine = affine
        self._numbers = numbers
        self._polys: dict[int, QPoly] = {}
        self._rows: Optional[list[list[Fraction]]] = None
        self._weights: dict[int, tuple[Fraction, ...]] = {}

    @property
    def numbers(self) -> ESeq:
        if self._numbers is None:
            self._numbers = (_affine_numbers(self.ctx, self.order, self.affine) if self.affine
                             else reciprocal(self.beta))
        return self._numbers

    def __repr__(self) -> str:
        return f"AppellFamily({self.label}, q={self.ctx.q}, order={self.order})"

    def _check_degree(self, n: int) -> None:
        if n < 0:
            raise FamilyError(f"n must be >= 0, got {n}")
        if n > self.order:
            raise FamilyError(f"n={n} exceeds the truncation order {self.order}")

    def number(self, n: int) -> Fraction:
        """A_n, the value of the degree-n member at x = 0."""
        self._check_degree(n)
        return self.numbers[n]

    def poly(self, n: int) -> QPoly:
        """The degree-n member P_n(x) = sum_k C(n,k)_q A_k x^(n-k)."""
        self._check_degree(n)
        got = self._polys.get(n)
        if got is None:
            numbers, binomial = self.numbers, self.ctx.q_binomial
            got = QPoly([binomial(n, n - i) * numbers[n - i] for i in range(n + 1)])
            self._polys[n] = got
        return got

    def polys(self, upto: int) -> list[QPoly]:
        self._check_degree(upto)
        return [self.poly(n) for n in range(upto + 1)]

    def weights(self, n: int) -> tuple[Fraction, ...]:
        """The row-0 weights w_0..w_n of the degree-n determinant.  The scaled
        rows are built once, at the family's order, as those of degree n are
        their leading part."""
        self._check_degree(n)
        got = self._weights.get(n)
        if got is None:
            if self._rows is None:
                self._rows = scaled_rows(self.beta, self.order)
            got = self._weights[n] = tuple(row_weights(self.beta[0], self._rows, n))
        return got

    def truncated(self, order: int) -> "AppellFamily":
        """The same family at an order from 0 to its own; numbers and beta are
        prefix-stable, so numbers already read are cut rather than recomputed."""
        self._check_degree(order)
        if order == self.order:
            return self
        known = None if self._numbers is None else self._numbers.truncated(order)
        return AppellFamily(self.ctx, self.beta.truncated(order), self.label, known, self.affine)


# (c, d, s) of a beta-defined built-in: beta_m = c [m = 0] + d + s/[m+1]_q
_HALF = Fraction(1, 2)
_AFFINE = {"bernoulli": (0, 0, 1), "euler": (_HALF, _HALF, 0), "genocchi-det": (_HALF, 0, _HALF)}


def _affine_numbers(ctx: QContext, order: int, affine: tuple) -> ESeq:
    """The numbers of an ``_AFFINE`` built-in by their own q-binomial recurrence.

    w(t) = t beta(t) = c t + d t e_q(t) + s (e_q(t) - 1), so w_0 = 0, w_j = c [j = 1] + d [j]_q
    + s, and A(t) w(t) = t gives A_(n-1) w_1 [n]_q = [n = 1] - sum_(k<n-1) C(n,k)_q w_(n-k) A_k
    (Carlitz 1948).  For q = a/b, C(n,k)_q = G(n,k)/b^(k(n-k)), G(n,k) = b^(n-k) G(n-1,k-1)
    + a^k G(n-1,k), [j]_q = v_j/b^(j-1) and w_j = W_j/(b^(j-1) scale), or W_j/scale if d = 0.
    Each A_k = M_k/(b^(e_k) L) over L, the lcm of the cofactors so far: a row sum raises its
    b-exponent as it goes, one gcd against its cofactor L v_n W_1 gives A_(n-1) as one
    ``Fraction``, and when L grows, every M_k grows with it.
    """
    scale = lcm(*(Fraction(x).denominator for x in affine))
    cc, dd, ss = (int(x * scale) for x in affine)
    a, b = ctx.q.numerator, ctx.q.denominator
    apow, bpow = [a**k for k in range(order + 2)], [b**k for k in range(order + 2)]
    v = [(y - x) // (b - a) for x, y in zip(apow, bpow)]
    lift = 1 if dd else 0  # w_j's b-exponent is lift (j - 1)
    w = [0, cc + dd + ss] + [ss * bpow[lift * j - lift] + dd * v[j] for j in range(2, order + 2)]
    row, nums, exps, frame, out = [1], [], [], 1, []
    for n in range(1, order + 2):
        row = [1, *(bpow[n - k] * row[k - 1] + apow[k] * row[k] for k in range(1, n)), 1]
        top, acc = n - 1, 0 if n > 1 else -scale
        for k in range(n - 1):
            e = k * (n - k) + lift * (n - k - 1) + exps[k]
            t = row[k] * w[n - k] * nums[k]
            if e > top:
                acc, top = acc * b ** (e - top) + t, e
            else:
                acc += t * b ** (top - e)
        g = gcd(acc, frame * v[n] * w[1])
        num, den = -acc // g, frame * v[n] * w[1] // g
        grow = den // gcd(frame, den)  # lcm(L, den) = L grow
        if grow > 1:
            nums, frame = [x * grow for x in nums], frame * grow
        nums.append(num * (frame // den))
        exps.append(top - n + 1)
        out.append(Fraction(num, b ** exps[-1] * den))
    return ESeq(ctx, out)


def _pair_beta(ctx: QContext, order: int, one: tuple, two: tuple) -> ESeq:
    """The beta of the product of two ``_AFFINE`` built-ins, with E = (e - 1)/t:
    k0 + k1 e + k2 E + k3 e^2 + k4 (e^2 - 1)/t + k5 (e - 1)^2/t^2.  e^2 has the Galois
    numbers G_n = sum_k C(n,k)_q as coefficients, and /t maps h_n to h_(n+1)/[n+1]_q,
    so beta_n = k0 [n = 0] + k1 + k3 G_n + (k2 + k4 G_(n+1))/[n+1]_q + k5 (G_(n+2) - 2)
    /([n+1]_q [n+2]_q).  For q = a/b, g_n = b^floor(n^2/4) G_n are integers, with
    g_(n+1) = 2 b^floor((n+1)/2) g_n + (a^n - b^n) g_(n-1) (Goldman & Rota 1970), and
    [n]_q = u_n/(b^(n-1) (b - a)) with u_n = b^n - a^n, so beta_n is one ``Fraction``.
    """
    (c, d, s), (c2, d2, s2) = one, two
    k = (c * c2, c * d2 + d * c2, (c - d) * s2 + s * (c2 - d2), d * d2, d * s2 + s * d2, s * s2)
    scale = lcm(*(x.denominator for x in k))
    k0, k1, k2, k3, k4, k5 = (x.numerator * (scale // x.denominator) for x in k)
    a, b = ctx.q.numerator, ctx.q.denominator
    u = [b**j - a**j for j in range(order + 3)]
    g = [1, 2]
    for j in range(1, order + 2):
        g.append(2 * b ** ((j + 1) // 2) * g[j] - u[j] * g[j - 1])
    beta = []
    for n in range(order + 1):  # all over b^floor((n+2)^2/4) u_(n+1) u_(n+2)
        top = b ** ((n + 2) ** 2 // 4)
        x = (k0 * (n == 0) + k1) * top + k3 * g[n] * b ** (n + 1)
        y = k2 * top + k4 * g[n + 1] * b ** ((n + 2) // 2)
        z = k5 * (g[n + 2] - 2 * top) * b ** (n + 1) * (b - a)
        num = (x * u[n + 1] + y * b**n * (b - a)) * u[n + 2] + z * b**n * (b - a)
        beta.append(Fraction(num, scale * top * u[n + 1] * u[n + 2]))
    return ESeq(ctx, beta)


def genocchi_table_numbers(ctx: QContext, order: int = GENOCCHI_TABLE_MAX_ORDER) -> ESeq:
    """The published closed-form Genocchi numbers, evaluated exactly at q.

    Only n = 0..4 were ever published, so the order is capped at 4.
    """
    if order < 0:
        raise FamilyError(f"order must be >= 0, got {order}")
    if order > GENOCCHI_TABLE_MAX_ORDER:
        raise FamilyError(
            f"genocchi-table numbers are only known up to n={GENOCCHI_TABLE_MAX_ORDER};"
            f" requested order {order}"
        )
    q = ctx.q
    g0 = Fraction(1)
    g1 = q / (1 + q)
    g2 = -(q**3 + 3 * q**2 + 4 * q + 3) / ((1 + q) * (1 + q + q**2))
    g3 = (2 * q**3 + q**2) / (1 + q) ** 2
    g4 = (
        ((2 * q**3 + q**2) / (1 + q) ** 2
         + (q**3 + 3 * q**2 + 4 * q + 3) / ((1 + q) * (1 + q + q**2)))
        / (1 + q**2)
        - q / (q + 1)
        - 1 / ctx.q_number(5)
        - 1
    )
    return ESeq(ctx, (g0, g1, g2, g3, g4)[: order + 1])


def resolve(spec: FamilySpec, ctx: QContext, order: int = DEFAULT_ORDER) -> AppellFamily:
    """The order-N family of a built-in, by its beta or its published numbers."""
    if order < 0:
        raise FamilyError(f"order must be >= 0, got {order}")
    if spec.name in _AFFINE:
        c, d, s = affine = _AFFINE[spec.name]
        beta = [d + s / ctx.q_number(m + 1) if s else d for m in range(1, order + 1)]
        return AppellFamily(ctx, ESeq(ctx, [c + d + s, *beta]), spec.name, affine=affine)
    if spec.name == "genocchi-table":
        numbers = genocchi_table_numbers(ctx, order)
        return AppellFamily(ctx, reciprocal(numbers), spec.name, numbers)
    raise FamilyError(f"unknown builtin {spec.name!r}")


def product_family(a: AppellFamily, b: AppellFamily) -> AppellFamily:
    """The family generated by the product of two determining functions.

    Reciprocals multiply, so its beta is the convolution of the factors'
    betas, in closed form when both are ``_AFFINE`` built-ins, and its numbers
    are one reciprocal of that, read on demand; the factors' numbers are
    never read.
    """
    closed = a.affine and b.affine and (a.order, a.ctx.q) == (b.order, b.ctx.q)
    beta = _pair_beta(a.ctx, a.order, a.affine, b.affine) if closed else convolve(a.beta, b.beta)
    return AppellFamily(a.ctx, beta, f"{a.label}*{b.label}")


def pair_family(
    spec_i: FamilySpec, spec_ii: FamilySpec, ctx: QContext, order: int = DEFAULT_ORDER
) -> AppellFamily:
    """Resolve both specs and form their product family."""
    return product_family(resolve(spec_i, ctx, order), resolve(spec_ii, ctx, order))


def route_poly(
    series: AppellFamily, members: tuple[AppellFamily, ...], n: int, route: str
) -> QPoly:
    """The degree-n member of series by one of ``ROUTES``: its own polynomial,
    the determinant sum_k w_k b_k(x) or the operator sum_k (A_k/[k]_q!) D_q^k
    applied to b_n(x).  members is the family itself, with b_k = x^k, or a
    pair's two factors: w and A come from the first, b_k is the second's."""
    first, basis = members[0], members[-1]
    if first.ctx.q != basis.ctx.q:
        raise ValueError("families disagree on q")
    single = len(members) == 1
    if route == "series":
        return series.poly(n)
    if route == "determinant":
        return QPoly(first.weights(n)) if single else lincomb(first.weights(n), basis.polys(n))
    if route == "operator":
        return apply_operator(first.numbers, QPoly.monomial(n) if single else basis.poly(n))
    raise ValueError(f"unknown route {route!r}; choose from {', '.join(ROUTES)}")


def iterate2(fam_i: AppellFamily, fam_ii: AppellFamily, n: int) -> QPoly:
    """Degree-n member of the 2-iterated family, the double sum

        sum_k C(n,k)_q A^I_k P^II_{n-k}(x).

    Its weights are the coefficients of P^I_n, so it is the umbral
    composition of the first family's polynomials with the second's:
    x^k in P^I_n is replaced by P^II_k.
    """
    return lincomb(fam_i.poly(n).coeffs, fam_ii.polys(n))


def apply_operator(coeffs: ESeq, p: QPoly) -> QPoly:
    """Apply sum_k (c_k/[k]_q!) D_q^k to p; the sum stops at n = deg p.

    As D_q^k x^i = ([i]_q!/[i-k]_q!) x^(i-k), coefficient m is (1/[m]_q!) sum_k
    gamma_k pi_(m+k), gamma_k = c_k/[k]_q! = ``coeffs.ordinary[k]``, pi_i = [i]_q! p_i.
    With [i]_q! = Phi_i/Psi_i, pi_i = V_i/E for V_i = Phi_i (Psi_n/Psi_i) N_i and
    E = Psi_n D less their common factor, so the sums are one ``lincomb_ints`` of V_k..V_n.
    """
    n = max(p.degree, 0)  # the zero polynomial maps to itself
    if coeffs.order < n:
        raise ValueError(
            f"operator coefficients stop at order {coeffs.order}, "
            f"polynomial has degree {n}"
        )
    phi, psi = coeffs.ctx.factorial_ints(n)
    v = [f * (psi[n] // s) * c for f, s, c in zip(phi, psi, p.nums)]
    h = gcd(psi[n] * p.den, *v)
    v = [c // h for c in v]
    gammas = coeffs.ordinary[: n + 1]
    sums, den = lincomb_ints((g.numerator, g.denominator, v[k:]) for k, g in enumerate(gammas) if g)
    return QPoly.from_ints(
        [psi[m] * (phi[n] // phi[m]) * t for m, t in enumerate(sums)],
        phi[n] * (psi[n] * p.den // h) * den,
    )


def identity_residuals(
    fam: AppellFamily, squared: AppellFamily, n: int
) -> tuple[QPoly, QPoly]:
    """Left-minus-right residuals of the two inversion identities:

        x^n    - sum_k C(n,k)_q beta_{n-k} P_k(x)
        P_n(x) - sum_k C(n,k)_q beta_{n-k} P2_k(x)

    with P2 the members of squared = product_family(fam, fam), the 2-iterated
    family.  Both must vanish; n=0 is a zero residual by convention.
    """
    if n == 0:
        return QPoly.zero(), QPoly.zero()
    fam._check_degree(n)
    weights = [1] + [-fam.ctx.q_binomial(n, k) * fam.beta[n - k] for k in range(n + 1)]
    first = lincomb(weights, [QPoly.monomial(n)] + fam.polys(n))
    second = lincomb(weights, [fam.poly(n)] + squared.polys(n))
    return first, second
