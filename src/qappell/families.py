"""q-Appell families: their numbers, polynomials, products and identities.

A family is determined by its number sequence A_0, A_1, ... (with the
normalization A_0 = 1 for the built-ins); the degree-n member is

    P_n(x) = sum_k C(n,k)_q A_k x^(n-k),

so P_n(0) = A_n and D_q P_n = [n]_q P_{n-1} holds for any number
sequence.  The companion beta sequence is the reciprocal of the numbers
under the q-binomial convolution; it drives the determinant construction
and the inversion identities.  A family is held by its beta, and its
numbers are one reciprocal of it, computed on first read.  The 2-iterated
and mixed families come from A_I(t) A_II(t): a product keeps its two
factors, and its beta is beta^I * beta^II, formed on first read.
The first three built-ins below have betas affine in e_q(t) and
(e_q(t) - 1)/t, so they and their nine pairs are held by their constants
instead: their numbers follow one q-binomial recurrence on the integer
weights W = t^v beta (v = 1 for a single, 2 for a pair, whose W has a
closed form in the Galois numbers), and they form their beta on first read
too.  Each member is built from the integer Gauss rows of
``QContext.gauss_row``.

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
numbers.  The 2-iterated member ``iterate2`` is one integer linear
combination of the second family's polynomials, weighted by the coefficients
of the first's.  ``route_poly`` forms a member of one family by any of
``ROUTES``, for ``--method`` and ``verify`` alike, reading a product's
factors where a route needs them, and ``route_numbers`` reads its numbers by
the same route.  The determinant route is a family too: ``determinant`` keeps
the same beta with the numbers read off the determinant, so its members and
their 2-iterates are built as any family's are.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional

from .determinant import hessenberg_dets
from .qcore import QContext, QPoly, lincomb, lincomb_ints
from .series import ESeq, _check_compatible, convolve, reciprocal

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
    "route_numbers",
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
    the (c, d, s) of a beta-defined built-in or the two triples of a pair of
    them, else as reciprocal(beta).  A product of two families keeps them as
    its ``factors`` (empty otherwise), and forms its beta beta^I * beta^II on
    first read, as an ``affine`` single does its own.  Polynomials are kept
    per degree in the same way, the ``determinant`` family once, and each
    ``iterate2`` with this family as the basis once per weight polynomial.
    """

    __slots__ = ("ctx", "order", "label", "affine", "factors", "_beta", "_numbers", "_polys",
                 "_det", "_iterates")

    def __init__(self, ctx: QContext, beta: ESeq, label: str, numbers: Optional[ESeq] = None):
        if beta.ctx.q != ctx.q or (numbers is not None and numbers.ctx.q != ctx.q):
            raise FamilyError("numbers/beta context does not match the family context")
        if numbers is not None and numbers.order != beta.order:
            raise FamilyError("numbers and beta must share one truncation order")
        # checked here, as the numbers of a beta are computed only when first read
        if beta[0] == 0:
            raise FamilyError("the beta sequence is not invertible: its first term is zero")
        self._setup(ctx, beta.order, label, None, beta, numbers)

    def _setup(self, ctx: QContext, order: int, label: str, affine: Optional[tuple],
               beta: Optional[ESeq], numbers: Optional[ESeq], factors: tuple = ()
               ) -> "AppellFamily":
        """Set the fields, unchecked: ``__init__`` checks a custom family's
        beta, while a built-in of ``_AFFINE``, a product and ``truncated`` need none."""
        self.ctx, self.order, self.label, self.affine = ctx, order, label, affine
        self.factors, self._beta, self._numbers, self._det = factors, beta, numbers, None
        self._polys: dict[int, QPoly] = {}
        self._iterates: dict[tuple[int, QPoly], QPoly] = {}  # iterate2 on this basis
        return self

    @property
    def beta(self) -> ESeq:
        if self._beta is None:
            if self.factors:
                self._beta = convolve(*(f.beta for f in self.factors))
            else:
                (c, d, s), qn = self.affine, self.ctx.q_number
                beta = [c + d + s] + [d + s / qn(m) if s else d for m in range(2, self.order + 2)]
                self._beta = ESeq(self.ctx, beta)
        return self._beta

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
        """The degree-n member P_n(x) = sum_k C(n,k)_q A_k x^(n-k).  With A_k = N/D
        and C(n,k)_q = G/b^m from the Gauss row, G N / (b^m D) is reduced by
        gcd(G, D) and gcd(N, b^m) alone, as G is coprime to b and N to D."""
        self._check_degree(n)
        got = self._polys.get(n)
        if got is None:
            numbers, row, b = self.numbers, self.ctx.gauss_row(n), self.ctx.q.denominator
            pairs = []
            for k in range(n, -1, -1):
                big, small, bm = numbers[k].numerator, numbers[k].denominator, b ** (k * (n - k))
                g, h = gcd(row[k], small), gcd(big, bm)
                pairs.append((row[k] // g * (big // h), small // g * (bm // h)))
            got = self._polys[n] = QPoly.from_pairs(pairs)
        return got

    def polys(self, upto: int) -> list[QPoly]:
        self._check_degree(upto)
        return [self.poly(n) for n in range(upto + 1)]

    @property
    def determinant(self) -> "AppellFamily":
        """The family of the same beta with the determinant numbers D_m = -[m]_q! tau_m /
        (-beta_0)^(m+1) by ``hessenberg_dets``, never from the numbers: its member
        sum_j C(n,j)_q D_(n-j) x^j is the degree-n determinant expanded along row 0."""
        if self._det is None:
            beta0, fact = self.beta[0], self.ctx.q_factorial
            taus = enumerate(hessenberg_dets(self.beta))
            dets = ESeq(self.ctx, [-fact(m) * t / (-beta0) ** (m + 1) for m, t in taus])
            self._det = AppellFamily(self.ctx, self.beta, self.label, dets)
        return self._det

    def truncated(self, order: int) -> "AppellFamily":
        """The same family at an order from 0 to its own; numbers and beta are
        prefix-stable, so those already read are cut rather than recomputed,
        and a product's factors are cut with it."""
        self._check_degree(order)
        if order == self.order:
            return self
        known = None if self._numbers is None else self._numbers.truncated(order)
        beta = None if self._beta is None else self._beta.truncated(order)
        factors = tuple(f.truncated(order) for f in self.factors)
        return object.__new__(AppellFamily)._setup(
            self.ctx, order, self.label, self.affine, beta, known, factors
        )


# (c, d, s) of a beta-defined built-in: beta_m = c [m = 0] + d + s/[m+1]_q
_HALF = Fraction(1, 2)
_AFFINE = {"bernoulli": (0, 0, 1), "euler": (_HALF, _HALF, 0), "genocchi-det": (_HALF, 0, _HALF)}


def _affine_numbers(ctx: QContext, order: int, affine: tuple) -> ESeq:
    """The numbers of a family held by integer weights W_j = V_j/(b^(lam_j) scale), q = a/b,
    zero for j < v, by their q-binomial recurrence.  An ``_AFFINE`` built-in, affine = (c, d, s),
    has W = t beta = c t + d t e_q(t) + s (e_q(t) - 1), so W_j = c [j = 1] + d [j]_q + s and v = 1;
    a pair of them, affine = their two triples, has W = t^2 beta^I beta^II by ``_pair_weights``
    and v = 2.  A(t) W(t) = t^v gives A_m C(m+v,m)_q W_v = [m = 0] [v]_q! - sum_(k<m) C(m+v,k)_q
    W_(m+v-k) A_k (Carlitz 1948), where C(n,k)_q = G(n,k)/b^(k(n-k)), G(n,k) = b^(n-k)
    G(n-1,k-1) + a^k G(n-1,k) and [j]_q = v_j/b^(j-1).  Each A_k = M_k/(b^(e_k) L) over L, the
    lcm of the cofactors so far: a row sum raises its b-exponent as it goes, one gcd against its
    cofactor L G(m+v,m) V_v gives A_m as one ``Fraction``, and when L grows, every M_k grows too.
    """
    a, b = ctx.q.numerator, ctx.q.denominator
    apow, bpow = [a**k for k in range(order + 3)], [b**k for k in range(order + 3)]
    vq = [(y - x) // (b - a) for x, y in zip(apow, bpow)]
    if len(affine) == 2:
        v, (scale, w, lam) = 2, _pair_weights(ctx, order, *affine)
    else:
        scale = lcm(*(Fraction(x).denominator for x in affine))
        cc, dd, ss = (int(x * scale) for x in affine)
        lift = 1 if dd else 0  # w_j's b-exponent is lift (j - 1)
        v, lam = 1, [lift * (j - 1) for j in range(order + 2)]
        w = [0, cc + dd + ss] + [ss * bpow[lam[j]] + dd * vq[j] for j in range(2, order + 2)]
    unit = vq[v] * bpow[lam[v] - v + 1] * scale  # [v]_q! b^(lam_v) scale, as v <= 2
    row, nums, exps, frame, out = [1] * v, [], [], 1, []  # row: G(v-1, .)
    for n in range(v, order + v + 1):
        row = [1, *(bpow[n - k] * row[k - 1] + apow[k] * row[k] for k in range(1, n)), 1]
        m, low = n - v, (n - v) * v + lam[v]  # low: the b-exponent of C(n,m)_q W_v
        top, acc = low, 0 if m else -unit
        for k in range(m):
            e = k * (n - k) + lam[n - k] + exps[k]
            t = row[k] * w[n - k] * nums[k]
            if e > top:
                acc, top = acc * b ** (e - top) + t, e
            else:
                acc += t * b ** (top - e)
        cof = frame * row[m] * w[v]
        g = gcd(acc, cof)
        num, den = -acc // g, cof // g
        grow = den // gcd(frame, den)  # lcm(L, den) = L grow
        if grow > 1:
            nums, frame = [x * grow for x in nums], frame * grow
        nums.append(num * (frame // den))
        exps.append(top - low)
        out.append(Fraction(num, b ** exps[-1] * den))
    return ESeq(ctx, out)


def _pair_weights(ctx: QContext, order: int, one: tuple, two: tuple) -> tuple[int, list, list]:
    """(scale, V, lam) with W_j = [j]_q [j-1]_q beta_(j-2) = V_j/(b^(lam_j) scale), zero for j < 2,
    for the product of two ``_AFFINE`` built-ins.  With E = (e - 1)/t, beta = k0 + k1 e + k2 E
    + k3 e^2 + k4 (e^2 - 1)/t + k5 (e - 1)^2/t^2.  e^2 has the Galois numbers G_n = sum_k
    C(n,k)_q as coefficients, and /t maps h_n to h_(n+1)/[n+1]_q, so beta_n = k0 [n = 0] + k1
    + k3 G_n + (k2 + k4 G_(n+1))/[n+1]_q + k5 (G_(n+2) - 2)/([n+1]_q [n+2]_q).  For q = a/b,
    g_n = b^floor(n^2/4) G_n are integers, with g_(n+1) = 2 b^floor((n+1)/2) g_n + (a^n - b^n)
    g_(n-1) (Goldman & Rota 1970), and [n]_q = v_n/b^(n-1) with v_n = (b^n - a^n)/(b - a).
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
    weights = [0, 0]
    for n in range(order + 1):  # beta_n = V_(n+2)/(b^floor((n+2)^2/4) v_(n+1) v_(n+2) scale)
        top = b ** ((n + 2) ** 2 // 4)
        x = (k0 * (n == 0) + k1) * top + k3 * g[n] * b ** (n + 1)
        y = k2 * top + k4 * g[n + 1] * b ** ((n + 2) // 2)
        z = k5 * (g[n + 2] - 2 * top) * b ** (n + 1)
        weights.append((x * (u[n + 1] // (b - a)) + y * b**n) * (u[n + 2] // (b - a)) + z * b**n)
    return scale, weights, [0, 0, *(2 * n + 1 + (n + 2) ** 2 // 4 for n in range(order + 1))]


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
        return object.__new__(AppellFamily)._setup(
            ctx, order, spec.name, _AFFINE[spec.name], None, None
        )
    if spec.name == "genocchi-table":
        numbers = genocchi_table_numbers(ctx, order)
        return AppellFamily(ctx, reciprocal(numbers), spec.name, numbers)
    raise FamilyError(f"unknown builtin {spec.name!r}")


def product_family(a: AppellFamily, b: AppellFamily) -> AppellFamily:
    """The family generated by the product of two determining functions,
    which keeps a and b as its ``factors``.

    Reciprocals multiply, so its beta is the convolution of the factors'
    betas, formed on first read, and its numbers are one reciprocal of that.
    A pair of ``_AFFINE`` built-ins is held by their two triples as well: its
    numbers come from ``_affine_numbers``, without the factors' numbers.  The
    factors must share q and order, as ``convolve`` requires.
    """
    _check_compatible(a, b)
    pair = (a.affine, b.affine)
    affine = pair if all(x and len(x) == 3 for x in pair) else None
    return object.__new__(AppellFamily)._setup(
        a.ctx, a.order, f"{a.label}*{b.label}", affine, None, None, (a, b)
    )


def pair_family(
    spec_i: FamilySpec, spec_ii: FamilySpec, ctx: QContext, order: int = DEFAULT_ORDER
) -> AppellFamily:
    """Resolve both specs and form their product family."""
    return product_family(resolve(spec_i, ctx, order), resolve(spec_ii, ctx, order))


def route_poly(fam: AppellFamily, n: int, route: str) -> QPoly:
    """The degree-n member of fam by one of ``ROUTES``: its own polynomial,
    the determinant sum_k C(n,k)_q D_(n-k) b_k(x) or the operator sum_k
    (A_k/[k]_q!) D_q^k applied to b_n(x).  For a single family b_k = x^k and
    D and A are its own; a product reads its factors: D and A come from the
    first, b_k is the second's, so its determinant member is ``iterate2``
    with D for A^I."""
    fam._check_degree(n)
    first, basis = fam.factors or (fam, None)
    if route == "series":
        return fam.poly(n)
    if route == "determinant":
        return first.determinant.poly(n) if basis is None else iterate2(first.determinant, basis, n)
    if route == "operator":
        return apply_operator(first.numbers, QPoly.monomial(n) if basis is None else basis.poly(n))
    raise ValueError(f"unknown route {route!r}; choose from {', '.join(ROUTES)}")


def route_numbers(fam: AppellFamily, upto: int, route: str) -> list[Fraction]:
    """A_0..A_upto by one of ``ROUTES``, as ``route_poly``'s members read at 0,
    without forming them: fam.numbers, or the first factor's D (determinant) or
    A^I (operator), convolved with A^II for a product."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; choose from {', '.join(ROUTES)}")
    fam._check_degree(upto)
    if route == "series":
        return list(fam.numbers[: upto + 1])
    first, basis = fam.factors or (fam, None)
    head = (first.determinant if route == "determinant" else first).numbers
    return list((head if basis is None else convolve(head, basis.numbers))[: upto + 1])


def iterate2(fam_i: AppellFamily, fam_ii: AppellFamily, n: int) -> QPoly:
    """Degree-n member of the 2-iterated family, the double sum

        sum_k C(n,k)_q A^I_k P^II_{n-k}(x).

    Its weights are the coefficients N_k/D of P^I_n, each reduced by one gcd,
    so it is the umbral composition of the first family's polynomials with
    the second's: x^k in P^I_n is replaced by P^II_k.  It reads only P^I_n and fam_ii's
    members, so it is kept on fam_ii by (n, P^I_n): equal weights (D = A) share one member.
    """
    if fam_i.ctx.q != fam_ii.ctx.q:
        raise ValueError("families disagree on q")
    first = fam_i.poly(n)
    got = fam_ii._iterates.get((n, first))
    if got is None:
        rows = []
        for c, p in zip(first.nums, fam_ii.polys(n)):
            if c:
                g = gcd(c, first.den)
                rows.append((c // g, first.den // g * p.den, p.nums))
        got = fam_ii._iterates[n, first] = QPoly.from_ints(*lincomb_ints(rows))
    return got


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
    if fam.ctx.q != squared.ctx.q:
        raise ValueError("families disagree on q")
    if n == 0:
        return QPoly.zero(), QPoly.zero()
    fam._check_degree(n)
    weights = [1] + [-fam.ctx.q_binomial(n, k) * fam.beta[n - k] for k in range(n + 1)]
    first = lincomb(weights, [QPoly.monomial(n)] + fam.polys(n))
    second = lincomb(weights, [fam.poly(n)] + squared.polys(n))
    return first, second
