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
column j therefore leaves a block-triangular minor beta_0^j det(T_j), where
T_j is the trailing block of rows and columns j+1..n: upper Hessenberg, with
beta_0 on its subdiagonal.  As C(j, i-1)_q = [j]_q!/([i-1]_q! [j-i+1]_q!),
entry (i, j) is ([j]_q!/[i-1]_q!) gamma_(j-i+1) with gamma_m = beta_m/[m]_q!,
so dividing column c of T_j by [c]_q! and multiplying row r by [r-1]_q!
leaves the Toeplitz-Hessenberg matrix H_(n-j) = (gamma_(c-r+1)):

    det(T_j) = ([n]_q!/[j]_q!) tau_(n-j),   tau_m = det(H_m),

which depends on n - j alone.  H_m is the leading block of H_M for M >= m,
and the first-row expansion of a Hessenberg determinant (Bareiss 1968)
gives all of them, one ``dot`` each, O(N^2) exact operations to order N:

    tau_0 = 1,   tau_m = sum_{k=0}^{m-1} (-beta_0)^k gamma_(k+1) tau_(m-k-1).

The member is sum_j w_j b_j(x), with w_j = (-1)^(n+j) beta_0^j det(T_j) /
beta_0^(n+1) = C(n,j)_q D_(n-j), where D_m = -[m]_q! tau_m / (-beta_0)^(m+1).
So the determinant gives a q-Appell family with numbers D: with the monomial
basis the w_j are its member's coefficients, and with another family's
polynomials the member is their 2-iterate.  ``AppellFamily.determinant`` is
that family, of the same beta; ``families.route_poly`` and ``route_numbers``
read it from the one family they take, or from a product's first factor.
"""

from __future__ import annotations

from fractions import Fraction

from .qcore import dot
from .series import ESeq

__all__ = ["hessenberg_dets"]


def hessenberg_dets(beta: ESeq) -> list[Fraction]:
    """tau_0..tau_N, N = beta.order, the determinants of the Toeplitz-Hessenberg
    matrices H_m by the first-row recurrence in the module docstring; the
    gamma_m are ``beta.ordinary``, kept on the sequence."""
    if beta[0] == 0:
        raise ValueError("beta_0 must be nonzero")
    step = [(-beta[0]) ** k * gamma for k, gamma in enumerate(beta.ordinary[1:])]
    tau = [Fraction(1)]
    for m in range(1, beta.order + 1):
        tau.append(dot(step[:m], tau[::-1]))
    return tau
