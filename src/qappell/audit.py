"""Cross-checks of the engine against the bundled published reference tables.

The package ships a verbatim transcription of the published value tables
for the plain, 2-iterated and mixed families (``data/printed_tables.json``),
together with a registry of known misprints in them.  ``run_verify``
builds one family set, every built-in and ordered pair resolved once at
the order (at least 4, where the printed tables stop), and every phase
reads it.  It first executes the exact property suite (ladder, reciprocal
orthogonality, cross-method equality of the ``families.route_poly`` routes
and ``iterate2``, the inversion identities, commutativity, Vieta and
zero-count checks) and then compares engine output against the printed
values.  The suite forms each distinct 2-iterate and ladder link once, keyed
by the exact polynomials it is a pure function of, so reuse changes no
verdict.  ``_table_rows`` yields one exact row per printed number, plain
polynomial and, at q = 1/2, 2-iterated or mixed polynomial.  At q = 1/2,
``_audit_zeros`` first finds every zero set and returns one row per printed
zero table, compared within a tolerance (its printed complex zeros must
come in conjugate pairs), plus the Vieta and zero-count properties.
``_audit_tables`` then gives every row, exact rows first, its status in one
loop.  Each row reaches it as (check id, subject, printed, computed, equal,
hint); the hint, the zeros of a misprinted polynomial row, joins the note
only when the row differs.  The statuses are:

    match                 equal (exactly for rationals, within 5e-5 for
                          printed 4-decimal zeros)
    paper-typo-suspected  differs, and the difference is in the misprint
                          registry; both values are reported
    mismatch              unexpected divergence, treated as an engine bug

Property failures and mismatches fail the report; suspected misprints do
not, they are its point.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .families import (
    BUILTIN_NAMES,
    ROUTES,
    AppellFamily,
    FamilySpec,
    GENOCCHI_TABLE_MAX_ORDER,
    genocchi_table_numbers,
    identity_residuals,
    iterate2,
    product_family,
    resolve,
    route_poly,
)
from .fmt import decimal_str, frac_str, pair_str, poly_text, real_str
from .qcore import QContext, QPoly, q_derive
from .roots import RootSet, find_roots, vieta_residuals
from .series import convolve, shift_up, unit

__all__ = [
    "CheckRecord",
    "PropertyRecord",
    "VerifyReport",
    "run_verify",
    "load_fixture",
    "printed_number",
    "printed_family_poly",
]

ZERO_MATCH_TOL = 5e-5
VIETA_TOL = 1e-9

# printed-table key -> the built-in family its values come from
_PLAIN_FAMILIES = {"bernoulli": "bernoulli", "euler": "euler", "genocchi": "genocchi-table"}


def load_fixture() -> dict:
    """The bundled printed-table transcription."""
    path = os.path.join(os.path.dirname(__file__), "data", "printed_tables.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# printed closed forms (functions of q, transcribed verbatim)
# ---------------------------------------------------------------------------


def printed_number(ctx: QContext, family: str, n: int) -> Fraction:
    """The published closed-form number n, evaluated exactly at ctx.q."""
    q = ctx.q
    qn = ctx.q_number
    if family == "bernoulli":
        forms = (
            lambda: Fraction(1),
            lambda: -1 / (1 + q),
            lambda: q**2 / ctx.q_factorial(3),
            lambda: (1 - q) * q**3 / (qn(2) * qn(4)),
            lambda: q**4 * (1 - q**2 - 2 * q**3 - q**4 + q**6) / (qn(2) ** 2 * qn(3) * qn(5)),
        )
    elif family == "euler":
        forms = (
            lambda: Fraction(1),
            lambda: Fraction(-1, 2),
            lambda: (q - 1) / 4,
            lambda: (-1 + 2 * q + 2 * q**2 - q**3) / 8,
            lambda: (q - 1) * ctx.q_factorial(3) * (q**2 - 4 * q + 1) / 16,
        )
    elif family == "genocchi":
        return genocchi_table_numbers(ctx)[n]
    else:
        raise ValueError(f"no published numbers for {family!r}")
    return forms[n]()


def printed_family_poly(ctx: QContext, family: str, n: int) -> QPoly:
    """The published degree-n polynomial (coefficients as printed).

    The Genocchi row reproduces two misprints on purpose: the degree-3
    constant lacks a square in its denominator and the degree-4
    x coefficient carries exponent 4 instead of 2.
    """
    q = ctx.q
    qn = ctx.q_number
    if family == "bernoulli":
        rows = (
            lambda: [Fraction(1)],
            lambda: [1, -1 / (1 + q)],
            lambda: [1, -qn(2) / (1 + q), q**2 / (qn(3) * qn(2))],
            lambda: [1, -qn(3) / (1 + q), q**2 / qn(2), (1 - q) * q**3 / (qn(2) * qn(4))],
            lambda: [
                1,
                -qn(4) / (1 + q),
                qn(4) * q**2 / qn(2) ** 2,
                (1 - q) * q**3 / qn(2),
                printed_number(ctx, "bernoulli", 4),
            ],
        )
    elif family == "euler":
        e3 = -1 + 2 * q + 2 * q**2 - q**3
        rows = (
            lambda: [Fraction(1)],
            lambda: [1, Fraction(-1, 2)],
            lambda: [1, -qn(2) / 2, (q - 1) / 4],
            lambda: [1, -qn(3) / 2, qn(3) * (q - 1) / 4, e3 / 8],
            lambda: [
                1,
                -qn(4) / 2,
                qn(4) * qn(3) * (q - 1) / (4 * qn(2)),
                qn(4) * e3 / 8,
                printed_number(ctx, "euler", 4),
            ],
        )
    elif family == "genocchi":
        big = q**3 + 3 * q**2 + 4 * q + 3
        rows = (
            lambda: [Fraction(1)],
            lambda: [1, q / (1 + q)],
            lambda: [1, q, genocchi_table_numbers(ctx)[2]],
            lambda: [1, qn(3) * q / (1 + q), -big / (1 + q), (2 * q**3 + q**2) / (1 + q)],
            lambda: [
                1,
                qn(4) * q / (1 + q),
                -qn(4) * qn(3) * big / (qn(2) * (1 + q) * (1 + q + q**2)),
                qn(4) * (2 * q**3 + q**4) / (1 + q) ** 2,
                genocchi_table_numbers(ctx)[4],
            ],
        )
    else:
        raise ValueError(f"no published polynomials for {family!r}")
    return QPoly(list(reversed([Fraction(c) for c in rows[n]()])))


# ---------------------------------------------------------------------------
# report data model
# ---------------------------------------------------------------------------


class CheckRecord(NamedTuple):
    check_id: str
    subject: str
    printed: str
    computed: str
    status: str  # "match" | "paper-typo-suspected" | "mismatch"
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "id": self.check_id,
            "subject": self.subject,
            "printed": self.printed,
            "computed": self.computed,
            "status": self.status,
        }
        if self.note:
            out["note"] = self.note
        return out


class PropertyRecord(NamedTuple):
    prop_id: str
    ok: bool
    detail: str

    def to_json(self) -> dict:
        return {"id": self.prop_id, "ok": self.ok, "detail": self.detail}


class VerifyReport:
    def __init__(self, q: Fraction, order: int):
        self.q = q
        self.order = order
        self.properties: list[PropertyRecord] = []
        self.checks: list[CheckRecord] = []
        self.exhibits: list[str] = []
        self.skipped: list[str] = []

    def counts(self) -> dict:
        c = {"match": 0, "paper-typo-suspected": 0, "mismatch": 0}
        for rec in self.checks:
            c[rec.status] += 1
        return c

    @property
    def properties_ok(self) -> bool:
        return all(p.ok for p in self.properties)

    @property
    def exit_code(self) -> int:
        return 0 if self.properties_ok and not self.counts()["mismatch"] else 1

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "q": frac_str(self.q),
            "order": self.order,
            "properties": [p.to_json() for p in self.properties],
            "checks": [c.to_json() for c in self.checks],
            "exhibits": list(self.exhibits),
            "skipped": list(self.skipped),
            "summary": {
                **self.counts(),
                "properties_ok": self.properties_ok,
                "exit_code": self.exit_code,
            },
        }

    def to_text(self) -> str:
        lines = [f"verification report  (q = {frac_str(self.q)}, order = {self.order})", ""]
        lines.append("properties:")
        for p in self.properties:
            mark = "ok" if p.ok else "FAIL"
            lines.append(f"  [{mark}] {p.prop_id}: {p.detail}")
        lines.append("")
        lines.append("reference-table checks:")
        for c in self.checks:
            lines.append(f"  [{c.status}] {c.check_id}")
            lines.append(f"      subject:  {c.subject}")
            lines.append(f"      printed:  {c.printed}")
            lines.append(f"      computed: {c.computed}")
            if c.note:
                lines.append(f"      note:     {c.note}")
        if self.skipped:
            lines.append("")
            lines.append("skipped:")
            for s in self.skipped:
                lines.append(f"  - {s}")
        if self.exhibits:
            lines.append("")
            lines.append("exhibits:")
            for e in self.exhibits:
                lines.append(f"  - {e}")
        counts = self.counts()
        lines.append("")
        lines.append(
            "summary: {match} match, {typo} paper-typo-suspected, {mismatch} mismatch; "
            "properties {p}".format(
                match=counts["match"],
                typo=counts["paper-typo-suspected"],
                mismatch=counts["mismatch"],
                p="ok" if self.properties_ok else "FAILED",
            )
        )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# property suite
# ---------------------------------------------------------------------------


def _ladder_ok(polys: list[QPoly], ctx: QContext, links: dict) -> bool:
    """D_q P_n = [n]_q P_(n-1) along polys, each link decided once per q in links."""
    for n in range(1, len(polys)):
        key = (n, polys[n], polys[n - 1])
        if key not in links:
            links[key] = q_derive(polys[n], ctx) == ctx.q_number(n) * polys[n - 1]
        if not links[key]:
            return False
    return True


def _families(
    ctx: QContext, order: int
) -> tuple[dict[str, AppellFamily], dict[tuple[str, str], AppellFamily]]:
    """Every built-in, resolved once at the order (genocchi-table at most 4),
    and every ordered pair at the lower of its two orders: the one family set
    that each phase of a verify reads."""
    capped = {"genocchi-table": min(order, GENOCCHI_TABLE_MAX_ORDER)}
    singles = {
        name: resolve(FamilySpec.builtin(name), ctx, capped.get(name, order))
        for name in BUILTIN_NAMES
    }
    for fam in singles.values():
        fam.numbers  # read before truncating, so that the truncated copies cut them
    pairs = {}
    for a in BUILTIN_NAMES:
        for b in BUILTIN_NAMES:
            cap = min(singles[a].order, singles[b].order)
            pairs[(a, b)] = product_family(singles[a].truncated(cap), singles[b].truncated(cap))
    return singles, pairs


def run_properties(
    singles: dict[str, AppellFamily], pairs: dict[tuple[str, str], AppellFamily]
) -> list[PropertyRecord]:
    """The exact whole-pipeline checks on a family set; every one must pass."""
    routes = {**singles, **pairs}
    links: dict[tuple[int, QPoly, QPoly], bool] = {}  # ladder links of both ladders, by value
    det = {
        key: [route_poly(fam, n, "determinant") for n in range(fam.order + 1)]
        for key, fam in routes.items()
    }
    iterated = {
        key: [iterate2(*pair.factors, n) for n in range(pair.order + 1)]
        for key, pair in pairs.items()
    }

    properties = (
        (
            "reciprocal-orthogonality",
            "numbers convolved with beta give the unit sequence, all built-ins",
            all(
                convolve(fam.numbers, fam.beta) == unit(fam.ctx, fam.order)
                for fam in singles.values()
            ),
        ),
        (
            "ladder-series",
            "D_q P_n = [n]_q P_(n-1) for built-ins and all ordered pairs (series route)",
            all(_ladder_ok(fam.polys(fam.order), fam.ctx, links) for fam in routes.values()),
        ),
        (
            "ladder-determinant",
            "the same ladder along determinant-constructed sequences",
            all(_ladder_ok(det[key], fam.ctx, links) for key, fam in routes.items()),
        ),
        (
            "cross-method",
            "series, determinant, operator and umbral routes agree exactly",
            all(
                route_poly(fam, n, route) == det[key][n]
                for key, fam in routes.items()
                for n in range(fam.order + 1)
                for route in ROUTES
                if route != "determinant"
            )
            and all(iterated[key] == det[key] for key in pairs),
        ),
        (
            "inversion-identities",
            "monomial and 2-iterated inversion identities have zero residuals",
            all(
                r.is_zero
                for name, fam in singles.items()
                for n in range(1, min(6, fam.order) + 1)
                for r in identity_residuals(fam, pairs[(name, name)], n)
            ),
        ),
        (
            "commutativity",
            "the two factor orders give identical polynomials for every pair",
            all(iterated[(a, b)] == iterated[(b, a)] for a, b in pairs),
        ),
    )
    return [PropertyRecord(prop_id, ok, detail) for prop_id, detail, ok in properties]


# ---------------------------------------------------------------------------
# table audits
# ---------------------------------------------------------------------------


def _number_text(x: Fraction) -> str:
    return f"{frac_str(x)} = {decimal_str(x)}"


def _fixture_poly(coeff_strings: list[str]) -> QPoly:
    return QPoly([Fraction(c) for c in reversed(coeff_strings)])


def _table_rows(
    ctx: QContext,
    tables: dict[str, AppellFamily],
    pairs: dict[str, AppellFamily],
    fixture: dict,
):
    """(check id, subject, printed, computed, render) for each printed value,
    in report order; the iterated rows only for the pairs given."""
    for key, name in _PLAIN_FAMILIES.items():
        for n in range(5):
            yield (
                f"numbers:{key}:{n}",
                f"q-{key.capitalize()} number, n={n}",
                printed_number(ctx, key, n),
                tables[name].number(n),
                _number_text,
            )
    for key, name in _PLAIN_FAMILIES.items():
        for n in range(5):
            yield (
                f"family-polys:{key}:{n}",
                f"q-{key.capitalize()} polynomial, degree {n}",
                printed_family_poly(ctx, key, n),
                tables[name].poly(n),
                poly_text,
            )
    for key, fam in pairs.items():
        display = fixture["families"][key]["display"]
        for n_str, coeffs in fixture["iterated_polys"][key].items():
            n = int(n_str)
            yield (
                f"iterated-polys:{key}:{n}",
                f"{display} polynomial, degree {n}",
                _fixture_poly(coeffs),
                fam.poly(n),
                poly_text,
            )


def _audit_tables(rows, zero_rows: list[tuple], registry: dict) -> list[CheckRecord]:
    """One status per printed row: the exact rows, rendered and compared
    here, then the zero rows.  A row's hint joins its note only when it differs."""
    exact = (
        (check_id, subject, render(printed), render(computed), printed == computed, "")
        for check_id, subject, printed, computed, render in rows
    )
    checks = []
    for check_id, subject, printed, computed, equal, hint in [*exact, *zero_rows]:
        if equal:
            status, notes = "match", ()
        elif check_id in registry:
            status, notes = "paper-typo-suspected", (registry[check_id], hint)
        else:
            status, notes = "mismatch", ("unexpected divergence; suspect an engine bug", hint)
        note = "; ".join(filter(None, notes))
        checks.append(CheckRecord(check_id, subject, printed, computed, status, note))
    return checks


def _zeros_match(
    computed: RootSet,
    printed_reals: list[float],
    printed_complex: list[complex],
) -> bool:
    """Printed lower-half zeros must be conjugates of upper-half ones, as
    multisets; the upper-half ones are compared with the computed pairs."""
    printed_pairs = [w for w in printed_complex if w.imag > 0]
    lowers = Counter(w.conjugate() for w in printed_complex if w.imag < 0)
    if lowers - Counter(printed_pairs):
        return False
    if computed.counts() != (len(printed_reals), 2 * len(printed_pairs)):
        return False
    uppers = sorted((u for u, _ in computed.complex_pairs), key=lambda w: w.real)
    got = [*computed.real_roots, *uppers]
    want = [*sorted(printed_reals), *sorted(printed_pairs, key=lambda w: w.real)]
    return all(
        max(abs(g.real - w.real), abs(g.imag - w.imag)) <= ZERO_MATCH_TOL
        for g, w in zip(got, want)
    )


def _render_rootset(rs: RootSet) -> str:
    parts = []
    if rs.real_roots:
        parts.append("real " + ", ".join(real_str(r) for r in rs.real_roots))
    if rs.complex_pairs:
        parts.append("complex " + ", ".join(pair_str(u) for u, _ in rs.complex_pairs))
    return "; ".join(parts) if parts else "none"


def _audit_zeros(
    pairs: dict[str, AppellFamily], fixture: dict
) -> tuple[list[tuple], list[PropertyRecord]]:
    """The zero rows (check id, subject, printed, computed, equal, hint) and the
    vieta and zero-count properties; every zero-finder call of the audit is here.
    The hint of a row whose polynomial is misprinted gives that row's own zeros."""
    rows = []
    worst_vieta = 0.0
    counts_ok = True
    for key, fam in pairs.items():
        display = fixture["families"][key]["display"]
        real_rows = fixture["real_zeros"][key]
        pair_rows = fixture["complex_zeros"].get(key, {})
        for n_str in sorted(real_rows, key=int):
            n = int(n_str)
            poly = fam.poly(n)
            rs = find_roots(poly)
            worst_vieta = max(worst_vieta, *vieta_residuals(poly, rs.roots))
            counts_ok = counts_ok and sum(rs.counts()) == rs.degree

            printed_reals = [float(s) for s in real_rows[n_str]]
            printed_entries = [
                complex(float(re), float(im)) for re, im in pair_rows.get(n_str, [])
            ]
            printed_text = "real " + ", ".join(real_rows[n_str])
            if printed_entries:
                printed_text += "; complex " + ", ".join(
                    pair_str(w) for w in printed_entries
                )
            hint = ""
            if f"iterated-polys:{key}:{n}" in fixture["known_misprints"]:
                printed_poly = _fixture_poly(fixture["iterated_polys"][key][n_str])
                hint = "zeros of the misprinted row itself: " + _render_rootset(
                    find_roots(printed_poly)
                )
            rows.append((
                f"zeros:{key}:{n}",
                f"{display} zeros (real and complex), degree {n}",
                printed_text,
                _render_rootset(rs),
                _zeros_match(rs, printed_reals, printed_entries),
                hint,
            ))
    return rows, [
        PropertyRecord(
            "vieta",
            worst_vieta < VIETA_TOL,
            f"sum/product residuals below {VIETA_TOL:.0e} (worst {worst_vieta:.2e})",
        ),
        PropertyRecord(
            "zero-count",
            counts_ok,
            "real plus complex zero counts equal the degree for every set",
        ),
    ]


def _exhibits(
    singles: dict[str, AppellFamily], pairs: dict[tuple[str, str], AppellFamily]
) -> list[str]:
    out: list[str] = []
    gd = singles["genocchi-det"]
    gtab = singles["genocchi-table"]
    out.append(
        "three inequivalent q-Genocchi readings: published numbers "
        f"({', '.join(frac_str(c) for c in gtab.numbers)}); determinant-recipe numbers "
        f"({', '.join(frac_str(gd.number(n)) for n in range(5))}); the "
        "generating-function form 2t/(e_q(t)+1) has constant term 0 and is "
        "not invertible"
    )
    shifted = shift_up(singles["euler"].numbers.truncated(4))
    out.append(
        "expansion of 2t/(e_q(t)+1) via t * (2/(e_q(t)+1)): coefficients "
        f"{', '.join(frac_str(c) for c in shifted)} (leading 0, so no "
        "reciprocal exists)"
    )
    recipes = (
        ("2-iterated q-Genocchi", "genocchi-table"),
        ("q-Bernoulli-Genocchi", "bernoulli"),
        ("q-Euler-Genocchi", "euler"),
    )
    for label, basis in recipes:
        table_route = pairs[("genocchi-table", basis)]
        for n in (1, 2):
            det_route = route_poly(pairs[("genocchi-det", basis)], n, "determinant")
            out.append(
                f"{label}, degree {n}: determinant recipe with the "
                f"1/(2[i+1]_q) beta gives {poly_text(det_route)}; the "
                f"published-number route gives {poly_text(table_route.poly(n))}"
            )
    return out


def run_verify(q: Fraction, order: int = 8) -> VerifyReport:
    """Property suite plus reference-table audit at the given q."""
    ctx = QContext(q)
    fixture = load_fixture()
    report = VerifyReport(q=ctx.q, order=order)
    # the printed tables stop at degree 4, and every phase reads this one set
    singles, pairs = _families(ctx, max(order, 4))
    properties = run_properties(singles, pairs)
    printed = {
        key: pairs[tuple(family["pair"])]
        for key, family in fixture["families"].items()
        if ctx.q == Fraction(1, 2)
    }
    zero_rows, zero_properties = _audit_zeros(printed, fixture) if printed else ([], [])
    report.properties = properties + zero_properties
    if not printed:
        report.skipped.append(
            "iterated-polynomial and zero tables were published for q = 1/2 "
            f"only; skipped at q = {frac_str(ctx.q)}"
        )
    report.checks = _audit_tables(
        _table_rows(ctx, singles, printed, fixture), zero_rows, fixture["known_misprints"]
    )
    report.exhibits = _exhibits(singles, pairs)
    return report
