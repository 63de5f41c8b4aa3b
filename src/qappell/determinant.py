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

so all n+1 cofactors cost O(n^2) exact operations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .families import AppellFamily
from .qcore import QPoly, dot, lincomb, monomial_basis
from .series import ESeq

__all__ = [
    "build_matrix",
    "det_eval",
    "det_poly",
    "det_appell_poly",
    "det_pair_poly",
]


def build_matrix(beta: ESeq, basis: Sequence[QPoly], n: int) -> tuple[tuple, ...]:
    """Lay out the (n+1)x(n+1) determinant matrix for degree n >= 1.

    Row 0 holds the basis polynomials, rows 1..n the scalar entries.
    """
    if n < 1:
        raise ValueError("build_matrix needs n >= 1; degree 0 is 1/beta_0 directly")
    if beta.order < n:
        raise ValueError(f"beta has order {beta.order}, need at least {n}")
    if beta[0] == 0:
        raise ValueError("beta_0 must be nonzero")
    if len(basis) < n + 1:
        raise ValueError(f"basis holds {len(basis)} entries, need {n + 1}")
    if basis[0] != QPoly.one():
        raise ValueError("basis[0] must be the constant polynomial 1")
    ctx = beta.ctx
    rows = [tuple(basis[j] for j in range(n + 1))]
    for i in range(1, n + 1):
        row = []
        for j in range(n + 1):
            if j < i - 1:
                row.append(Fraction(0))
            else:
                row.append(ctx.q_binomial(j, i - 1) * beta[j - i + 1])
        rows.append(tuple(row))
    return tuple(rows)


def det_eval(matrix: Sequence[Sequence]) -> QPoly:
    """(-1)^n / beta_0^(n+1) times det(matrix), via cofactors along row 0.

    matrix is laid out as by build_matrix; the cofactors come from the
    Hessenberg recurrence in the module docstring.
    """
    top, scalars = matrix[0], matrix[1:]
    n = len(scalars)
    beta0 = scalars[0][0]
    powers = [Fraction(1)]  # (-beta_0)^k
    for _ in range(n + 1):
        powers.append(powers[-1] * -beta0)
    d = [Fraction(0)] * n + [Fraction(1)]
    for j in range(n - 1, -1, -1):
        row = scalars[j]
        d[j] = dot(powers, [row[c] * d[c] for c in range(j + 1, n + 1)])
    # (-1)^n / beta_0^(n+1) * (-1)^j * minor_j, with minor_j = beta_0^j * D_j,
    # is -D_j / (-beta_0)^(n+1-j)
    return lincomb([-d[j] / powers[n + 1 - j] for j in range(n + 1)], top)


def det_poly(beta: ESeq, basis: Sequence[QPoly], n: int) -> QPoly:
    """Degree-n member from a beta sequence and a row-0 basis."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if beta[0] == 0:
        raise ValueError("beta_0 must be nonzero")
    if n == 0:
        # stated separately in the source construction, not as a matrix
        return QPoly((1 / beta[0],))
    return det_eval(build_matrix(beta, basis, n))


def det_appell_poly(fam: AppellFamily, n: int) -> QPoly:
    """Plain family member via the determinant with the monomial basis."""
    return det_poly(fam.beta, monomial_basis(max(n, 0)), n)


def det_pair_poly(beta_fam: AppellFamily, basis_fam: AppellFamily, n: int) -> QPoly:
    """2-iterated/mixed member: beta from one family, row 0 from the other."""
    if beta_fam.ctx.q != basis_fam.ctx.q:
        raise ValueError("families disagree on q")
    return det_poly(beta_fam.beta, basis_fam.polys(max(n, 0)), n)
