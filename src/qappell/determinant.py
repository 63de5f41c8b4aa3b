"""Determinant construction of (2-iterated) q-Appell polynomials.

The degree-n member is (-1)^n / beta_0^(n+1) times the determinant of an
(n+1)x(n+1) matrix whose first row holds the basis entries
(1, b_1(x), ..., b_n(x)) and whose scalar rows S_1..S_n are built from the
beta sequence:

    row 1:      (beta_0, beta_1, ..., beta_n)
    row i >= 2: entry (i, j) = C(j, i-1)_q beta_{j-i+1} for j >= i-1,
                zero before.

With the monomial basis this produces the plain family attached to beta;
with another family's polynomials in row 0 it produces the 2-iterated or
mixed member.  Only row 0 is polynomial-valued, so the determinant is
expanded by cofactors along row 0.

The scalar rows have beta_0 at (i, i-1) and zeros below it.  Deleting
column j therefore leaves a block-triangular minor,

    minor_j = beta_0^j * D_j,

where D_j = det(T_j) and T_j is the trailing block of rows j+1..n and
columns j+1..n: an upper Hessenberg matrix whose subdiagonal is all beta_0.
Expanding each T_j along its first row gives every D_j from one bottom-up
recurrence (Bareiss 1968; the first-row expansion of a Hessenberg
determinant),

    D_n = 1,
    D_j = sum_{k=0}^{n-j-1} (-beta_0)^k * S[j+1][j+1+k] * D_{j+k+1},

so all n+1 cofactors cost O(n^2) exact operations.  No scalar entry
depends on row 0 or on n (the scalar block of degree n is the leading block
of that of any degree N >= n), so each row is scaled once per beta, to
R_j[k] = (-beta_0)^k * S[j+1][j+1+k], and each D_j is one ``dot`` of a row
with D.  The member is
sum_j w_j b_j(x), with w_j = (-1)^(n+j) minor_j / beta_0^(n+1) =
-D_j / (-beta_0)^(n+1-j): the weights depend on beta and n only, and with
the monomial basis they are the member's coefficients.  A family keeps its
rows and weights (``AppellFamily.weights``); ``families.route_poly`` sums them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .qcore import dot
from .series import ESeq

__all__ = ["scaled_rows", "row_weights"]


def scaled_rows(beta: ESeq, n: int) -> list[list[Fraction]]:
    """Rows R_0..R_(n-1) of the degree-n matrix, scaled as in the module
    docstring: R_j[k] = (-beta_0)^k C(j+1+k, j)_q beta_(k+1) for k < n - j."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if beta.order < n:
        raise ValueError(f"beta has order {beta.order}, need at least {n}")
    if beta[0] == 0:
        raise ValueError("beta_0 must be nonzero")
    powers = [(-beta[0]) ** k for k in range(n)]
    return [
        [powers[k] * beta.ctx.q_binomial(j + 1 + k, j) * beta[k + 1] for k in range(n - j)]
        for j in range(n)
    ]


def row_weights(beta0: Fraction, rows: Sequence[Sequence[Fraction]], n: int) -> list[Fraction]:
    """Row-0 weights w_0..w_n of degree n, from the leading parts of the
    scaled rows of any degree N >= n by the Hessenberg recurrence in the
    module docstring."""
    d = [Fraction(0)] * n + [Fraction(1)]
    for j in range(n - 1, -1, -1):
        d[j] = dot(rows[j][: n - j], d[j + 1 :])
    return [-c / (-beta0) ** (n + 1 - j) for j, c in enumerate(d)]
