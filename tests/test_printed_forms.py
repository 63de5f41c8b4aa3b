"""The printed closed forms of ``data/printed_tables.json`` proved against
their verbatim factored transcription.

Each ``printed_forms`` entry, and each genocchi-table constant of
``families``, is a numerator and a denominator in q of at most 11
coefficients, so of q-degree at most 10.  The oracle's reduced forms have
q-degree at most 10 too (checked with sympy where it is installed).  The
cross-products of the two then have q-degree at most 20, so agreement at
21 distinct q proves each identity, not only at those points.
"""

from fractions import Fraction as F

import pytest

from qappell import QContext, QPoly, families
from qappell.audit import _printed_value, load_fixture, run_verify

# 21 distinct q in (0, 1), the very small and the near-1 ones included
PROOF_QS = [F(1, 10**9), F(999, 1000), F(5, 11), *(F(k, 19) for k in range(1, 19))]
MAX_COEFFS = 11  # q-degree 10


def _qn(q, k):
    """[k]_q = 1 + q + ... + q^(k-1), for a rational or a symbolic q."""
    return sum(q**i for i in range(k))


def oracle_genocchi_numbers(q):
    """The published closed-form Genocchi numbers n = 0..4."""
    g0 = F(1)
    g1 = q / (1 + q)
    g2 = -(q**3 + 3 * q**2 + 4 * q + 3) / ((1 + q) * (1 + q + q**2))
    g3 = (2 * q**3 + q**2) / (1 + q) ** 2
    g4 = (
        ((2 * q**3 + q**2) / (1 + q) ** 2
         + (q**3 + 3 * q**2 + 4 * q + 3) / ((1 + q) * (1 + q + q**2)))
        / (1 + q**2)
        - q / (q + 1)
        - 1 / _qn(q, 5)
        - 1
    )
    return [g0, g1, g2, g3, g4]


def oracle_number(q, family, n):
    """The published closed-form number n at q, transcribed verbatim."""
    qn = lambda k: _qn(q, k)  # noqa: E731
    if family == "bernoulli":
        forms = (
            lambda: F(1),
            lambda: -1 / (1 + q),
            lambda: q**2 / (qn(1) * qn(2) * qn(3)),
            lambda: (1 - q) * q**3 / (qn(2) * qn(4)),
            lambda: q**4 * (1 - q**2 - 2 * q**3 - q**4 + q**6) / (qn(2) ** 2 * qn(3) * qn(5)),
        )
    elif family == "euler":
        forms = (
            lambda: F(1),
            lambda: F(-1, 2),
            lambda: (q - 1) / 4,
            lambda: (-1 + 2 * q + 2 * q**2 - q**3) / 8,
            lambda: (q - 1) * (qn(1) * qn(2) * qn(3)) * (q**2 - 4 * q + 1) / 16,
        )
    else:
        return oracle_genocchi_numbers(q)[n]
    return forms[n]()


def oracle_family_poly(q, family, n):
    """The published degree-n polynomial at q, leading coefficient first, as
    printed: the genocchi degree-3 constant lacks a square in its
    denominator and the degree-4 x coefficient carries exponent 4, not 2."""
    qn = lambda k: _qn(q, k)  # noqa: E731
    if family == "bernoulli":
        rows = (
            lambda: [F(1)],
            lambda: [1, -1 / (1 + q)],
            lambda: [1, -qn(2) / (1 + q), q**2 / (qn(3) * qn(2))],
            lambda: [1, -qn(3) / (1 + q), q**2 / qn(2), (1 - q) * q**3 / (qn(2) * qn(4))],
            lambda: [
                1,
                -qn(4) / (1 + q),
                qn(4) * q**2 / qn(2) ** 2,
                (1 - q) * q**3 / qn(2),
                oracle_number(q, "bernoulli", 4),
            ],
        )
    elif family == "euler":
        e3 = -1 + 2 * q + 2 * q**2 - q**3
        rows = (
            lambda: [F(1)],
            lambda: [1, F(-1, 2)],
            lambda: [1, -qn(2) / 2, (q - 1) / 4],
            lambda: [1, -qn(3) / 2, qn(3) * (q - 1) / 4, e3 / 8],
            lambda: [
                1,
                -qn(4) / 2,
                qn(4) * qn(3) * (q - 1) / (4 * qn(2)),
                qn(4) * e3 / 8,
                oracle_number(q, "euler", 4),
            ],
        )
    else:
        big = q**3 + 3 * q**2 + 4 * q + 3
        rows = (
            lambda: [F(1)],
            lambda: [1, q / (1 + q)],
            lambda: [1, q, oracle_genocchi_numbers(q)[2]],
            lambda: [1, qn(3) * q / (1 + q), -big / (1 + q), (2 * q**3 + q**2) / (1 + q)],
            lambda: [
                1,
                qn(4) * q / (1 + q),
                -qn(4) * qn(3) * big / (qn(2) * (1 + q) * (1 + q + q**2)),
                qn(4) * (2 * q**3 + q**4) / (1 + q) ** 2,
                oracle_genocchi_numbers(q)[4],
            ],
        )
    return rows[n]()


def oracle_forms(q, check_id):
    """The oracle's values of one printed row: one for a number, one per
    coefficient, leading first, for a polynomial."""
    kind, family, n = check_id.split(":")
    if kind == "numbers":
        return [oracle_number(q, family, int(n))]
    return oracle_family_poly(q, family, int(n))


FORMS = load_fixture()["printed_forms"]


def _pairs(check_id):
    """The [num, den] pairs of an entry: one for a number, one per coefficient
    for a polynomial."""
    entry = FORMS[check_id]
    return [entry] if check_id.startswith("numbers:") else entry


def _assert_short(pairs):
    for num, den in pairs:
        assert 0 < len(num) <= MAX_COEFFS and 0 < len(den) <= MAX_COEFFS
        assert all(type(c) is int for c in [*num, *den])


@pytest.mark.parametrize("check_id", sorted(FORMS))
def test_entry_equals_the_oracle(check_id):
    pairs = _pairs(check_id)
    _assert_short(pairs)
    for q in PROOF_QS:
        assert all(QPoly(den)(q) != 0 for _, den in pairs), (check_id, q)
        got = [_printed_value(pair, q) for pair in pairs]
        assert got == [F(c) for c in oracle_forms(q, check_id)], (check_id, q)


@pytest.mark.parametrize("n", range(5))
def test_genocchi_table_constant_equals_the_oracle(n):
    num, den = families._GENOCCHI_TABLE[n]
    _assert_short([(num, den)])
    for q in PROOF_QS:
        assert QPoly(den)(q) != 0
        want = oracle_genocchi_numbers(q)[n]
        assert families.genocchi_table_numbers(QContext(q))[n] == want, q
        assert _printed_value(FORMS[f"numbers:genocchi:{n}"], q) == want, q


def test_oracle_forms_have_q_degree_at_most_10():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    rows = [oracle_forms(q, check_id) for check_id in sorted(FORMS)]
    rows.append(oracle_genocchi_numbers(q))
    for row in rows:
        for value in row:
            num, den = sympy.fraction(sympy.cancel(sympy.sympify(value)))
            assert max(sympy.degree(num, q), sympy.degree(den, q)) <= MAX_COEFFS - 1, value


def test_entries_are_exactly_the_verified_closed_form_rows():
    report = run_verify(F(1, 2), order=4)
    ids = {
        c.check_id
        for c in report.checks
        if c.check_id.startswith(("numbers:", "family-polys:"))
    }
    assert set(FORMS) == ids
    assert len(ids) == 30
