import json
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from qappell import QContext, QPoly, audit, cli, families, resolve
from qappell.audit import (
    _families,
    _printed_value,
    load_fixture,
    run_properties,
    run_verify,
)
from qappell.families import FamilySpec, iterate2, route_poly
from qappell.qcore import lincomb
from qappell.series import ESeq

B, E = FamilySpec.builtin("bernoulli"), FamilySpec.builtin("euler")

EXPECTED_TYPO_IDS = {
    "family-polys:genocchi:3",
    "family-polys:genocchi:4",
    "iterated-polys:euler2:2",
    "iterated-polys:euler2:4",
    "iterated-polys:genocchi2:3",
    "iterated-polys:bernoulli_euler:2",
    "iterated-polys:bernoulli_euler:4",
    "iterated-polys:bernoulli_genocchi:3",
    "iterated-polys:bernoulli_genocchi:4",
    "iterated-polys:euler_genocchi:3",
    "iterated-polys:euler_genocchi:4",
    "zeros:euler2:2",
    "zeros:euler2:3",
    "zeros:euler2:4",
    "zeros:genocchi2:3",
    "zeros:genocchi2:4",
    "zeros:bernoulli_euler:2",
    "zeros:bernoulli_euler:4",
    "zeros:bernoulli_genocchi:3",
    "zeros:bernoulli_genocchi:4",
    "zeros:euler_genocchi:3",
    "zeros:euler_genocchi:4",
}


@pytest.fixture(scope="module")
def report_half():
    return run_verify(F(1, 2), order=8)


class TestFixture:
    def test_loads_with_schema(self):
        fx = load_fixture()
        assert fx["schema"] == 1
        assert set(fx["iterated_polys"]) == set(fx["families"])

    def test_registry_ids_all_exercised(self, report_half):
        seen = {c.check_id for c in report_half.checks}
        registry = set(load_fixture()["known_misprints"])
        assert registry <= seen


class TestPrintedForms:
    """The fixture's printed closed forms, evaluated at q, against the engine."""

    @pytest.mark.parametrize("qs", ["1/2", "1/3", "3/4"])
    def test_number_closed_forms_match_engine(self, qs):
        ctx = QContext(qs)
        forms = load_fixture()["printed_forms"]
        for key, name in (("bernoulli", "bernoulli"), ("euler", "euler")):
            fam = resolve(FamilySpec.builtin(name), ctx, 4)
            for n in range(5):
                assert _printed_value(forms[f"numbers:{key}:{n}"], ctx.q) == fam.number(n)

    @pytest.mark.parametrize("qs", ["1/2", "2/5"])
    def test_family_poly_misprints_localized(self, qs):
        ctx = QContext(qs)
        forms = load_fixture()["printed_forms"]
        for key, name in (
            ("bernoulli", "bernoulli"),
            ("euler", "euler"),
            ("genocchi", "genocchi-table"),
        ):
            fam = resolve(FamilySpec.builtin(name), ctx, 4)
            for n in range(5):
                row = forms[f"family-polys:{key}:{n}"]
                printed = QPoly([_printed_value(form, ctx.q) for form in reversed(row)])
                if key == "genocchi" and n in (3, 4):
                    assert printed != fam.poly(n)
                else:
                    assert printed == fam.poly(n)


def _add_one_where(wrong):
    """A skew: real, but with 1 added to its result when wrong(*args) holds."""

    def skew(real):
        def skewed(*args):
            got = real(*args)
            return lincomb([1, 1], [got, QPoly([1])]) if wrong(*args) else got

        return skewed

    return skew


def _bump_det_member(n):
    """A skew of AppellFamily.determinant: its degree-n member gains the
    constant 1, which adds b_0(x) to every determinant member of degree n,
    of a single family or of a pair."""

    class Bumped:
        def __init__(self, fam):
            self.fam = fam

        def __getattr__(self, name):
            return getattr(self.fam, name)

        def poly(self, m):
            got = self.fam.poly(m)
            return lincomb([1, 1], [got, QPoly([1])]) if m == n else got

    def skew(real):
        return property(lambda fam: Bumped(real.__get__(fam)))

    return skew


def _bump_tau(m):
    """A skew of determinant.hessenberg_dets: 1 added to tau_m, which changes
    the determinant numbers D from D_m on.  Any D gives weights of an Appell
    sequence, so the determinant ladder still holds."""

    def skew(real):
        def skewed(beta):
            tau = real(beta)
            return [t + 1 if k == m else t for k, t in enumerate(tau)]

        return skewed

    return skew


def _properties(qs, order):
    """The property suite on the family set a verify at this q and order reads."""
    return run_properties(*_families(QContext(qs), order))


def _failing(qs="1/2", order=5):
    return {rec.prop_id for rec in _properties(qs, order) if not rec.ok}


class TestProperties:
    def test_all_pass_at_several_q(self):
        for qs in ("1/2", "1/3", "3/4"):
            for rec in _properties(qs, 6):
                assert rec.ok, rec.prop_id

    @pytest.mark.parametrize(
        "module, name, skew, failing",
        [
            # route_poly reads the determinant family and the operator from
            # families, so these skews reach every route family alike
            pytest.param(
                families.AppellFamily,
                "determinant",
                _bump_det_member(2),
                {"ladder-determinant", "cross-method"},
                id="determinant",
            ),
            pytest.param(
                families,
                "hessenberg_dets",
                _bump_tau(2),
                {"cross-method"},
                id="hessenberg-tau",
            ),
            pytest.param(
                audit,
                "iterate2",
                _add_one_where(
                    lambda fa, fb, n: (fa.label, fb.label, n) == ("bernoulli", "euler", 2)
                ),
                {"cross-method", "commutativity"},
                id="iterate2-one-factor-order",
            ),
            pytest.param(
                families,
                "apply_operator",
                _add_one_where(lambda coeffs, p: p == QPoly.monomial(2)),
                {"cross-method"},
                id="operator-plain",
            ),
            pytest.param(
                families,
                "apply_operator",
                _add_one_where(
                    lambda coeffs, p: p.degree == 2 and p != QPoly.monomial(2)
                ),
                {"cross-method"},
                id="operator-pair",
            ),
            # a skew of iterate2, the umbral composition, at n = 2 for every
            # pair alike: commutativity still holds and only cross-method fails
            pytest.param(
                audit,
                "iterate2",
                _add_one_where(lambda fa, fb, n: n == 2),
                {"cross-method"},
                id="umbral",
            ),
        ],
    )
    def test_a_wrong_route_fails_its_checks(self, monkeypatch, module, name, skew, failing):
        monkeypatch.setattr(module, name, skew(getattr(module, name)))
        assert _failing() == failing

    def test_one_dispatch_serves_cli_and_verify(self, monkeypatch, capsys):
        # cli and audit both look up the one route_poly: a skew of its
        # determinant route at n = 2 fails --method all and the property suite
        assert cli.route_poly is audit.route_poly is families.route_poly
        real = families.route_poly

        def skewed(fam, n, route):
            got = real(fam, n, route)
            return lincomb([1, 1], [got, QPoly([1])]) if (route, n) == ("determinant", 2) else got

        for module in (cli, audit):
            monkeypatch.setattr(module, "route_poly", skewed)
        argv = "poly --family euler --q 1/2 -n 2 --method all".split()
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("cross-method divergence:\n")
        assert "  determinant: x^2 - 3/4x + 7/8\n" in err
        assert _failing() == {"ladder-determinant", "cross-method"}

    def test_a_wrong_tau_fails_numbers_method_all(self, monkeypatch, capsys):
        monkeypatch.setattr(families, "hessenberg_dets", _bump_tau(2)(families.hessenberg_dets))
        argv = "numbers --mixed euler,bernoulli --q 1/2 --upto 3 --method all".split()
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("cross-method divergence:\n")

    def test_a_wrong_pair_family_poly_fails_its_checks(self, monkeypatch):
        # pair families (label "a*b") feed the series ladder, the last link of
        # cross-method and, as self-products, the 2-iterated identity
        skewed = _add_one_where(lambda fam, n: n == 2 and "*" in fam.label)(
            families.AppellFamily.poly
        )
        monkeypatch.setattr(families.AppellFamily, "poly", skewed)
        assert _failing() == {
            "ladder-series",
            "cross-method",
            "inversion-identities",
        }

    def test_a_wrong_convolution_fails_reciprocal_orthogonality(self, monkeypatch):
        ctx = QContext("1/2")
        euler = resolve(FamilySpec.builtin("euler"), ctx, 5).numbers
        real = audit.convolve

        def skewed(a, b):
            got = real(a, b)
            if a != euler:
                return got
            return ESeq(got.ctx, (got.coeffs[0] + 1,) + got.coeffs[1:])

        monkeypatch.setattr(audit, "convolve", skewed)
        assert _failing() == {"reciprocal-orthogonality"}

    @pytest.mark.parametrize("which", [0, 1], ids=["monomial", "2-iterated"])
    def test_a_wrong_identity_residual_fails_its_check(self, monkeypatch, which):
        real = audit.identity_residuals

        def skewed(fam, squared, n):
            got = list(real(fam, squared, n))
            if n == 2:
                got[which] = lincomb([1, 1], [got[which], QPoly([1])])
            return tuple(got)

        monkeypatch.setattr(audit, "identity_residuals", skewed)
        assert _failing() == {"inversion-identities"}

    def test_each_determinant_poly_is_built_once(self, monkeypatch):
        built = {"rows": [], "dets": [], "iterates": [], "products": []}

        def counting(real, kind, key):
            def wrapper(*args):
                built[kind].append(key(*args))
                return real(*args)

            return wrapper

        monkeypatch.setattr(families, "hessenberg_dets", counting(
            families.hessenberg_dets, "rows", lambda beta: (id(beta), beta.order)))
        monkeypatch.setattr(audit, "route_poly", counting(
            audit.route_poly, "dets", lambda fam, n, route: (fam.label, n, route)))
        monkeypatch.setattr(audit, "iterate2", counting(
            audit.iterate2, "iterates", lambda fa, fb, n: (fa.label, fb.label, n)))
        # identity_residuals would reach product_family through families
        for module in (audit, families):
            monkeypatch.setattr(module, "product_family", counting(
                families.product_family, "products", lambda fa, fb: (fa.label, fb.label)))
        singles, pairs = _families(QContext(F(1, 2)), 12)
        run_properties(singles, pairs)
        # every pair's factors are the singles themselves, so one tau build
        # per built-in, at its own order
        assert all(f is singles[name] for (a, b), pair in pairs.items()
                   for f, name in zip(pair.factors, (a, b)))
        owners = {id(fam.beta): fam for fam in singles.values()}
        rows = Counter(beta for beta, _ in built["rows"])
        assert set(rows.values()) == {1} and set(rows) == set(owners)
        assert all(owners[beta].order == n for beta, n in built["rows"])
        assert len(rows) == 4
        # one determinant member per route family and degree: the four
        # built-ins, 9 pairs at order 12 and the 7 with genocchi-table at 4
        dets = Counter(key for key in built["dets"] if key[2] == "determinant")
        assert set(dets.values()) == {1}
        assert len(dets) == 3 * 13 + 5 + 9 * 13 + 7 * 5
        # one iterate per ordered pair and degree
        iterates = Counter(built["iterates"])
        assert set(iterates.values()) == {1}
        assert len(iterates) == 9 * 13 + 7 * 5
        # one product per ordered pair, so one self-product per family
        assert sorted(built["products"]) == sorted(
            (a, b) for a in families.BUILTIN_NAMES for b in families.BUILTIN_NAMES
        )

    def test_properties_run_one_reciprocal_per_family(self, monkeypatch):
        calls = []
        real, kernel = families.reciprocal, families._affine_numbers

        def counting(seq):
            calls.append(seq.order)
            return real(seq)

        def counting_kernel(ctx, order, affine):
            calls.append(order)
            return kernel(ctx, order, affine)

        monkeypatch.setattr(families, "reciprocal", counting)
        monkeypatch.setattr(families, "_affine_numbers", counting_kernel)
        _properties("1/2", 8)
        # one per built-in (genocchi-table's is its beta, the others' numbers
        # their recurrence) and one per ordered pair
        assert sorted(calls) == [4] * 8 + [8] * 12

    def test_wrong_builtin_numbers_fail_reciprocal_orthogonality(self, monkeypatch):
        # the singles' numbers come from their recurrence, not from their
        # beta, so numbers * beta = 1 cross-checks the two
        real = families._affine_numbers

        def skewed(ctx, order, affine):
            got = real(ctx, order, affine)
            if affine != families._AFFINE["euler"] or order < 3:
                return got
            return ESeq(ctx, got.coeffs[:3] + (got.coeffs[3] + 1,) + got.coeffs[4:])

        monkeypatch.setattr(families, "_affine_numbers", skewed)
        report = run_verify(F(1, 2), 8)
        assert report.exit_code == 1
        assert "  [FAIL] reciprocal-orthogonality: " in report.to_text()

    def test_wrong_pair_numbers_fail_cross_method(self, monkeypatch):
        # a pair's numbers come from the recurrence on W = w^I w^II, while its
        # determinant, operator and umbral routes are built from the factors
        real = families._affine_numbers

        def skewed(ctx, order, affine):
            got = real(ctx, order, affine)
            if len(affine) != 2 or order < 3:
                return got
            return ESeq(ctx, got.coeffs[:3] + (got.coeffs[3] + 1,) + got.coeffs[4:])

        monkeypatch.setattr(families, "_affine_numbers", skewed)
        report = run_verify(F(1, 2), 8)
        assert report.exit_code == 1
        assert "  [FAIL] cross-method: " in report.to_text()

    def test_verify_resolves_each_family_once(self, monkeypatch):
        resolved, products = [], []
        real_resolve, real_product = families.resolve, families.product_family

        def counting_resolve(spec, *args):
            resolved.append(spec.name)
            return real_resolve(spec, *args)

        def counting_product(fa, fb):
            products.append((fa.label, fb.label))
            return real_product(fa, fb)

        for module in (families, audit):
            monkeypatch.setattr(module, "resolve", counting_resolve)
            monkeypatch.setattr(module, "product_family", counting_product)
        run_verify(F(1, 2), 8)
        # one family set serves every phase: the four built-ins and the 16
        # ordered pairs, each built once
        assert sorted(resolved) == sorted(families.BUILTIN_NAMES)
        assert sorted(products) == sorted(
            (a, b) for a in families.BUILTIN_NAMES for b in families.BUILTIN_NAMES
        )


class TestReuse:
    """The suite forms each distinct 2-iterate and ladder link once, by value."""

    @pytest.mark.parametrize("order", [8, 12])
    def test_each_distinct_iterate_and_link_is_formed_once(self, monkeypatch, order):
        calls = Counter()
        real_lincomb, real_derive = families.lincomb_ints, audit.q_derive

        def counting_lincomb(rows):
            calls[sys._getframe(1).f_code.co_name] += 1
            return real_lincomb(rows)

        def counting_derive(p, ctx):
            calls["q_derive"] += 1
            return real_derive(p, ctx)

        monkeypatch.setattr(families, "lincomb_ints", counting_lincomb)
        monkeypatch.setattr(audit, "q_derive", counting_derive)
        singles, pairs = _families(QContext(F(1, 2)), order)
        run_properties(singles, pairs)
        formed = calls.copy()
        # the keys, read back from the kept members: (basis, n, P^I_n) for the
        # umbral and determinant 2-iterates, (n, P_n, P_(n-1)) for both ladders
        iterates = {
            (id(basis), n, weights.poly(n))
            for pair in pairs.values()
            for first, basis in [pair.factors]
            for weights in (first, first.determinant)
            for n in range(pair.order + 1)
        }
        links = set()
        for fam in [*singles.values(), *pairs.values()]:
            det = [route_poly(fam, n, "determinant") for n in range(fam.order + 1)]
            for polys in (fam.polys(fam.order), det):
                links.update((n, polys[n], polys[n - 1]) for n in range(1, len(polys)))
        assert formed["iterate2"] == len(iterates)
        assert formed["q_derive"] == len(links)
        # each pair's determinant 2-iterate is its umbral one, as D = A, so
        # it adds no key to the umbral ones
        assert len(iterates) <= sum(pair.order + 1 for pair in pairs.values())

    def test_equal_weights_share_one_iterate(self):
        ctx = QContext("1/2")
        fam, basis = resolve(E, ctx, 6), resolve(B, ctx, 6)
        for n in range(7):
            assert iterate2(fam.determinant, basis, n) is iterate2(fam, basis, n)

    def test_a_skewed_determinant_iterate_is_formed_afresh(self, monkeypatch):
        monkeypatch.setattr(families, "hessenberg_dets", _bump_tau(2)(families.hessenberg_dets))
        ctx = QContext("1/2")
        fam, basis = resolve(E, ctx, 6), resolve(B, ctx, 6)
        umbral = [iterate2(fam, basis, n) for n in range(7)]
        for n in range(2, 7):
            fresh = resolve(B, ctx, 6)
            assert not fresh._iterates
            got = iterate2(fam.determinant, basis, n)
            assert got != umbral[n]
            assert got == iterate2(fam.determinant, fresh, n)

    def test_a_ladder_link_is_keyed_by_its_degree(self):
        # the pair (P_1, P_0) holds at n = 1 but not at n = 2, where [2]_q enters
        ctx = QContext("1/2")
        links = {}
        p0, p1 = resolve(B, ctx, 1).polys(1)
        assert audit._ladder_ok([p0, p1], ctx, links)
        assert not audit._ladder_ok([QPoly.zero(), p0, p1], ctx, links)


class TestReport:
    def test_exit_code_and_counts(self, report_half):
        assert report_half.exit_code == 0
        counts = report_half.counts()
        assert counts["mismatch"] == 0
        assert counts["paper-typo-suspected"] == len(EXPECTED_TYPO_IDS)

    def test_unregistered_table_mismatch_exits_1(self, monkeypatch, capsys):
        real = audit.load_fixture

        def skewed():
            fixture = real()
            fixture["iterated_polys"]["bernoulli2"]["2"][-1] = "7/3"  # a wrong constant term
            return fixture

        monkeypatch.setattr(audit, "load_fixture", skewed)
        report = run_verify(F(1, 2), 8)
        assert report.properties_ok
        mismatched = [c.check_id for c in report.checks if c.status == "mismatch"]
        assert mismatched == ["iterated-polys:bernoulli2:2"]
        assert report.exit_code == 1
        assert cli.main(["verify"]) == 1
        assert "[mismatch] iterated-polys:bernoulli2:2" in capsys.readouterr().out

    def test_unregistered_zero_mismatch_exits_1(self, monkeypatch, report_half):
        real = audit.load_fixture

        def skewed():
            fixture = real()
            fixture["real_zeros"]["bernoulli2"]["2"][0] = "0.6230"  # 1e-3 off a matching zero
            return fixture

        monkeypatch.setattr(audit, "load_fixture", skewed)
        report = run_verify(F(1, 2), 8)
        assert report.properties == report_half.properties
        changed = [(c, d) for c, d in zip(report.checks, report_half.checks) if c != d]
        assert [(c.check_id, c.status, c.note, d.status) for c, d in changed] == [
            (
                "zeros:bernoulli2:2",
                "mismatch",
                "unexpected divergence; suspect an engine bug",
                "match",
            )
        ]
        assert report.exit_code == 1

    def test_printed_complex_zeros_must_be_conjugate_pairs(self, monkeypatch, report_half):
        real = audit.load_fixture

        def skewed():
            fixture = real()
            # the lower zero of the pair 1.0897 +/- 0.1112i, no longer its conjugate
            fixture["complex_zeros"]["bernoulli2"]["4"][1] = ["0.5000", "-0.2000"]
            return fixture

        monkeypatch.setattr(audit, "load_fixture", skewed)
        report = run_verify(F(1, 2), 8)
        assert report.properties == report_half.properties
        changed = [(c, d) for c, d in zip(report.checks, report_half.checks) if c != d]
        assert [(c.check_id, c.status, d.status) for c, d in changed] == [
            ("zeros:bernoulli2:4", "mismatch", "match")
        ]
        assert report.exit_code == 1

    def test_registered_zero_row_that_matches_has_no_note(self, monkeypatch, report_half):
        real = audit.load_fixture

        def corrected():
            fixture = real()
            fixture["real_zeros"]["euler2"]["2"] = ["0.0886", "1.4114"]  # the engine's zeros
            return fixture

        monkeypatch.setattr(audit, "load_fixture", corrected)
        report = run_verify(F(1, 2), 8)
        changed = [(c, d) for c, d in zip(report.checks, report_half.checks) if c != d]
        assert [(c.check_id, c.status, c.note, d.status) for c, d in changed] == [
            ("zeros:euler2:2", "match", "", "paper-typo-suspected")
        ]
        assert "misprinted row" in changed[0][1].note
        assert report.exit_code == 0

    def test_every_typo_is_expected(self, report_half):
        typo_ids = {
            c.check_id
            for c in report_half.checks
            if c.status == "paper-typo-suspected"
        }
        assert typo_ids == EXPECTED_TYPO_IDS

    def test_matching_rows_include_required_ones(self, report_half):
        by_id = {c.check_id: c for c in report_half.checks}
        for must_match in (
            "iterated-polys:bernoulli2:0",
            "iterated-polys:bernoulli2:1",
            "iterated-polys:bernoulli2:2",
            "iterated-polys:bernoulli2:3",
            "iterated-polys:bernoulli2:4",
            "iterated-polys:euler2:1",
            "iterated-polys:genocchi2:1",
            "iterated-polys:bernoulli_euler:1",
            "iterated-polys:bernoulli_genocchi:1",
            "iterated-polys:euler_genocchi:1",
            "zeros:bernoulli2:4",
            "zeros:bernoulli_euler:3",
        ):
            assert by_id[must_match].status == "match", must_match

    def test_typo_rows_carry_both_values(self, report_half):
        by_id = {c.check_id: c for c in report_half.checks}
        rec = by_id["iterated-polys:euler2:2"]
        assert "- 1/16" in rec.printed
        assert "+ 1/8" in rec.computed
        assert rec.note

    def test_json_shape(self, report_half):
        payload = report_half.to_json_dict()
        assert payload["schema"] == 1
        assert payload["q"] == "1/2"
        assert payload["summary"]["exit_code"] == 0
        text = json.dumps(payload)
        assert json.loads(text) == payload

    def test_text_and_json_deterministic(self):
        a = run_verify(F(1, 2), order=6)
        b = run_verify(F(1, 2), order=6)
        assert a.to_text() == b.to_text()
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_other_q_skips_half_specific_tables(self):
        rep = run_verify(F(1, 3), order=6)
        assert rep.exit_code == 0
        assert any("q = 1/2" in s for s in rep.skipped)
        assert not any(c.check_id.startswith("iterated-polys") for c in rep.checks)

    def test_exhibits_mention_genocchi_variants(self, report_half):
        assert any("not invertible" in e for e in report_half.exhibits)
