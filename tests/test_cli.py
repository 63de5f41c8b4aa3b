import argparse
import json
import math
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qappell.cli import MAX_ORDER, MAX_STEPS, MAX_VERIFY_ORDER, build_parser, main
from qappell.families import BUILTIN_NAMES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNumbers:
    def test_bernoulli_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "numbers", "--family", "bernoulli", "--q", "1/2", "--upto", "3"
        )
        assert code == 0
        for frag in ("1", "-2/3", "2/21", "1/45"):
            assert frag in out

    def test_iterated_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "numbers",
            "--iterate",
            "bernoulli,bernoulli",
            "--q",
            "1/2",
            "--upto",
            "2",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        exacts = [row["exact"] for row in payload["numbers"]]
        assert exacts == ["1", "-4/3", "6/7"]

    def test_euler_upto_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "numbers", "--family", "euler", "--q", "1/2", "--upto", "0"
        )
        assert code == 0
        assert "n=0: 1" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "numbers",
            "--family",
            "euler",
            "--q",
            "1/2",
            "--upto",
            "2",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,exact,decimal"
        assert lines[2].startswith("1,-1/2,")

    def test_unknown_family_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "numbers", "--family", "nope", "--q", "1/2", "--upto", "2"
        )
        assert code == 2
        assert "unknown family" in err

    def test_decimal_q_exits_2_with_hint(self, capsys):
        code, _, err = run_cli(
            capsys, "numbers", "--family", "euler", "--q", "0.5", "--upto", "2"
        )
        assert code == 2
        assert "1/2" in err

    @pytest.mark.parametrize(
        "q, message",
        [
            ("1/1", "q must satisfy 0 < q < 1, got 1"),
            ("0/5", "q must satisfy 0 < q < 1, got 0"),
            ("3/2", "q must satisfy 0 < q < 1, got 3/2"),
            ("0.5", "'0.5' is not an exact rational; write it as a fraction like '1/2'"),
            ("1/0", "cannot parse '1/0' as a rational"),
        ],
    )
    def test_bad_q_exits_2_with_its_error_line(self, capsys, q, message):
        # QContext parses --q; a negative q is pinned in tests/parity.py
        code, out, err = run_cli(capsys, "numbers", "--family", "euler", "--q", q, "--upto", "2")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_q_with_spaces_is_accepted(self, capsys):
        padded, plain = (
            run_cli(capsys, "numbers", "--family", "euler", "--q", q, "--upto", "2")
            for q in (" 1/2", "1/2")
        )
        assert padded == plain and padded[0] == 0

    def test_genocchi_table_order_cap(self, capsys):
        code, _, err = run_cli(
            capsys, "numbers", "--family", "genocchi-table", "--q", "1/2", "--upto", "8"
        )
        assert code == 2
        assert "up to n=4" in err

    def test_method_all_cross_checks(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "numbers",
            "--family",
            "bernoulli",
            "--q",
            "1/2",
            "--upto",
            "3",
            "--method",
            "all",
        )
        assert code == 0
        assert "1/45" in out

    @pytest.mark.parametrize("method", ["series", "determinant", "operator", "all"])
    @pytest.mark.parametrize("family", [("--family", "genocchi-det"), ("--mixed", "euler,bernoulli")])
    def test_builds_no_polynomial(self, capsys, monkeypatch, method, family):
        # each route reads its numbers directly, never a member's value at 0
        from qappell import cli, families

        argv = ["numbers", *family, "--q", "2/5", "--upto", "6", "--method", method]
        want = run_cli(capsys, *argv[:-2])

        def refuse(*args):
            raise AssertionError("a polynomial was built")

        monkeypatch.setattr(families.AppellFamily, "poly", refuse)
        monkeypatch.setattr(families, "route_poly", refuse)
        monkeypatch.setattr(cli, "route_poly", refuse)
        assert run_cli(capsys, *argv) == want
        assert want[0] == 0 and want[1].count("\n") == 8

    def test_csv_past_int_str_digit_limit(self, capsys):
        # the smallest order at which a number passes the 4300-digit str(int) limit
        code, out, err = run_cli(
            capsys, "numbers", "--iterate", "bernoulli,euler", "--q", "999/1000",
            "--upto", "51", "--format", "csv",
        )
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert len(rows) == 53
        assert max(len(r) for r in rows) > 4300

    def test_method_determinant_matches_series(self, capsys):
        _, out_det, _ = run_cli(
            capsys, "numbers", "--family", "euler", "--q", "1/2", "--upto", "3",
            "--method", "determinant",
        )
        _, out_ser, _ = run_cli(
            capsys, "numbers", "--family", "euler", "--q", "1/2", "--upto", "3",
        )
        assert out_det == out_ser


class TestPoly:
    def test_iterated_bernoulli_n3(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--iterate", "bernoulli,bernoulli", "--q", "1/2", "-n", "3"
        )
        assert code == 0
        assert out.strip() == "x^3 - 7/3x^2 + 3/2x - 8/45"

    def test_euler_n1(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--family", "euler", "--q", "1/2", "-n", "1"
        )
        assert code == 0
        assert out.strip() == "x - 1/2"

    def test_degree_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--family", "bernoulli", "--q", "1/2", "-n", "0"
        )
        assert code == 0
        assert out.strip() == "1"

    def test_method_all_agrees(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "poly",
            "--mixed",
            "euler,bernoulli",
            "--q",
            "1/2",
            "-n",
            "1",
            "--method",
            "all",
        )
        assert code == 0
        assert "all methods agree" in out
        assert out.count("x - 7/6") == 3

    def test_json_coeffs_are_strings(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "poly",
            "--family",
            "bernoulli",
            "--q",
            "1/2",
            "-n",
            "2",
            "--method",
            "determinant",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["methods"]["determinant"]["coeffs"] == ["2/21", "-1", "1"]


class TestRoots:
    def test_iterated_bernoulli_n2(self, capsys):
        code, out, _ = run_cli(
            capsys, "roots", "--iterate", "bernoulli,bernoulli", "--q", "1/2", "-n", "2"
        )
        assert code == 0
        assert "0.6220, 1.3780" in out

    def test_mixed_euler_genocchi_table_n1(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "roots",
            "--mixed",
            "euler,genocchi-table",
            "--q",
            "1/2",
            "-n",
            "1",
        )
        assert code == 0
        assert "0.1667" in out

    def test_degree_one_always_single_real(self, capsys):
        for fam in ("bernoulli", "euler", "genocchi-det", "genocchi-table"):
            code, out, _ = run_cli(
                capsys, "roots", "--family", fam, "--q", "1/2", "-n", "1"
            )
            assert code == 0
            assert "complex zeros: (none)" in out

    def test_n_zero_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "roots", "--family", "euler", "--q", "1/2", "-n", "0"
        )
        assert code == 2
        assert ">= 1" in err

    def test_json_complex_pairs(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "roots",
            "--iterate",
            "bernoulli,bernoulli",
            "--q",
            "1/2",
            "-n",
            "4",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["real"]) == 2
        assert len(payload["complex"]) == 2
        assert payload["complex"][0]["im"] == pytest.approx(0.1112, abs=5e-5)
        assert payload["vieta"]["sum"] < 1e-9

    def test_full_precision_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "roots",
            "--iterate",
            "bernoulli,bernoulli",
            "--q",
            "1/2",
            "-n",
            "2",
            "--full-precision",
        )
        assert code == 0
        assert "0.6220355269907727" in out

    def test_determinism_across_runs(self, capsys):
        _, out1, _ = run_cli(
            capsys, "roots", "--iterate", "euler,euler", "--q", "1/2", "-n", "4",
            "--full-precision",
        )
        _, out2, _ = run_cli(
            capsys, "roots", "--iterate", "euler,euler", "--q", "1/2", "-n", "4",
            "--full-precision",
        )
        assert out1 == out2

    def test_method_all_on_roots(self, capsys):
        code, out, _ = run_cli(
            capsys, "roots", "--iterate", "bernoulli,bernoulli", "--q", "1/2",
            "-n", "2", "--method", "all",
        )
        assert code == 0
        assert "0.6220, 1.3780" in out

    def test_non_convergence_exits_3(self, capsys, monkeypatch):
        from qappell import roots
        from qappell.roots import RootFindingError

        def exploding(p, **kwargs):
            raise RootFindingError("forced for the exit-code contract", [], [])

        monkeypatch.setattr(roots, "find_roots", exploding)
        code, _, err = run_cli(
            capsys, "roots", "--family", "euler", "--q", "1/2", "-n", "2"
        )
        assert code == 3
        assert "root finding failed" in err

    def test_unisolated_cluster_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys, "roots", "--iterate", "bernoulli,bernoulli", "--q", "1/10", "-n", "23"
        )
        assert (code, out) == (3, "")
        assert err.startswith("root finding failed: zeros near 1 not isolated")

    def test_underflow_exits_3_by_name(self, capsys):
        # all 45 exact coefficients are nonzero, but a_0..a_8 are below
        # 10^-324 of the lead, so they underflow in the monic float image
        code, out, err = run_cli(
            capsys, "roots", "--family", "bernoulli", "--q", "1/1000000000", "-n", "44"
        )
        assert (code, out) == (3, "")
        assert err == "root finding failed: a_0..a_8 underflow in the float image\n"

    def test_wide_disc_exits_3_by_name(self, capsys, monkeypatch):
        # the real zero near 4.158e-10 needs the exact corrections to get
        # its disc below 2^-20 of its modulus
        from qappell import roots

        monkeypatch.setattr(roots, "_EXACT_STEPS", 0)
        code, out, err = run_cli(
            capsys, "roots", "--family", "bernoulli", "--q", "1/1000000000", "-n", "24"
        )
        assert (code, out) == (3, "")
        assert err == (
            "root finding failed: inclusion disc of the zero near 4.158e-10 "
            "has radius 6.0e-16\n"
        )

    def test_classification_failure_exits_3(self, capsys, monkeypatch):
        from qappell import roots

        real = roots._build

        def skewed(degree, z, coeffs, sweeps, radii):
            # NaN discs certify neither a real zero nor a pair
            return real(degree, z, coeffs, sweeps, [math.nan] * len(radii))

        monkeypatch.setattr(roots, "_build", skewed)
        code, _, err = run_cli(
            capsys, "roots", "--family", "euler", "--q", "1/2", "-n", "2"
        )
        assert code == 3
        assert "classification failed: root " in err
        assert "(disc radius nan) is neither certified real" in err

    @pytest.mark.parametrize(
        "argv, report",
        [
            pytest.param(
                "numbers --family euler --q 1/2 --upto 3",
                "  series: ['1', '-1/2', '-1/8', '3/64']\n"
                "  determinant: ['1', '-1/2', '-1/8', '3/64']\n"
                "  operator: ['1', '-1/2', '1', '3/64']\n",
                id="numbers",
            ),
            pytest.param(
                "poly --family euler --q 1/2 -n 2",
                "  series: x^2 - 3/4x - 1/8\n"
                "  determinant: x^2 - 3/4x - 1/8\n"
                "  operator: x + 1\n",
                id="poly",
            ),
            pytest.param(
                "roots --iterate euler,bernoulli --q 1/2 -n 2",
                "  series: x^2 - 7/4x + 79/168\n"
                "  determinant: x^2 - 7/4x + 79/168\n"
                "  operator: x + 1\n",
                id="roots",
            ),
        ],
    )
    def test_cross_method_divergence_exits_2(self, capsys, monkeypatch, argv, report):
        from qappell import cli
        from qappell.qcore import QPoly

        real, real_numbers = cli.route_poly, cli.route_numbers

        def skewed(fam, n, route):
            if route == "operator" and n == 2:
                return QPoly([1, 1])
            return real(fam, n, route)

        def skewed_numbers(fam, upto, route):
            # numbers reads its own route; skew the same value, P_2(0) = 1
            got = real_numbers(fam, upto, route)
            if route == "operator":
                got[2] = 1
            return got

        monkeypatch.setattr(cli, "route_poly", skewed)
        monkeypatch.setattr(cli, "route_numbers", skewed_numbers)
        code, out, err = run_cli(capsys, *argv.split(), "--method", "all")
        assert (code, out) == (2, "")
        assert err == "cross-method divergence:\n" + report


class TestSample:
    def test_single_degree_header_and_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample",
            "--family",
            "bernoulli",
            "--q",
            "1/2",
            "-n",
            "1",
            "--xmin",
            "0",
            "--xmax",
            "1",
            "--steps",
            "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,p(x)"
        assert len(lines) == 3

    def test_value_at_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample",
            "--iterate",
            "bernoulli,bernoulli",
            "--q",
            "1/2",
            "-n",
            "2",
            "--xmin",
            "0",
            "--xmax",
            "2",
            "--steps",
            "3",
        )
        assert code == 0
        assert "1.000000000000,-0.142857142857" in out

    def test_degrees_column_count(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample",
            "--iterate",
            "bernoulli,bernoulli",
            "--q",
            "1/2",
            "--degrees",
            "1,2,3,4",
            "--xmin",
            "-3",
            "--xmax",
            "3",
            "--steps",
            "5",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,p1(x),p2(x),p3(x),p4(x)"
        assert all(len(line.split(",")) == 5 for line in lines)

    def test_rational_endpoints(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample",
            "--iterate",
            "bernoulli,bernoulli",
            "--q",
            "1/2",
            "-n",
            "1",
            "--xmin",
            "4/3",
            "--xmax",
            "7/3",
            "--steps",
            "2",
        )
        assert code == 0
        assert "1.333333333333,0.000000000000" in out

    SAMPLE_ARGS = ("sample", "--family", "bernoulli", "--q", "1/2",
                   "--xmin", "0", "--xmax", "1")

    @pytest.mark.parametrize("listing", [",", " , ,"])
    def test_empty_degrees_list_exits_2(self, capsys, listing):
        code, out, err = run_cli(capsys, *self.SAMPLE_ARGS, "--degrees", listing)
        assert (code, out) == (2, "")
        assert err == f"error: --degrees {listing!r} lists no degree\n"

    def test_negative_degree_exits_2(self, capsys):
        code, _, err = run_cli(capsys, *self.SAMPLE_ARGS, "--degrees", "1,-1")
        assert (code, err) == (2, "error: degrees must be >= 0\n")

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_a_repeated_degree_is_one_column(self, capsys, fmt):
        # json keys its columns by degree, so text and csv list each degree once too
        args = (*self.SAMPLE_ARGS, "--steps", "3", "--format", fmt, "--degrees")
        code, out, err = run_cli(capsys, *args, "2,3,2,3")
        assert (code, out, err) == (0, *run_cli(capsys, *args, "2,3")[1:])
        if fmt != "json":
            assert out.splitlines()[0] == "x,p2(x),p3(x)"


class TestVerify:
    def test_exit_zero_and_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--q", "1/2")
        assert code == 0
        assert "0 mismatch" in out
        assert "paper-typo-suspected" in out

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--q", "1/2")
        _, out2, _ = run_cli(capsys, "verify", "--q", "1/2")
        assert out1.encode() == out2.encode()

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--q", "1/2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["summary"]["mismatch"] == 0

    def test_csv_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--q", "1/2", "--format", "csv")
        assert code == 2
        assert "text or json" in err

    def test_default_q(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "q = 1/2" in out


class TestOutFile(object):
    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "numbers.csv"
        code, out, _ = run_cli(
            capsys,
            "numbers",
            "--family",
            "euler",
            "--q",
            "1/2",
            "--upto",
            "1",
            "--format",
            "csv",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        body = target.read_text()
        assert body.startswith("n,exact,decimal\n")
        assert "\r" not in body

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.txt"
        code, out, err = run_cli(
            capsys, "numbers", "--family", "euler", "--q", "1/2", "--upto", "2",
            "--out", str(target),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err


class _WorkStarted(Exception):
    pass


CAPPED = [
    ("numbers --family bernoulli --q 1/2 --upto {}", "--upto", MAX_ORDER),
    ("poly --iterate bernoulli,euler --q 1/2 -n {}", "-n", MAX_ORDER),
    ("roots --family euler --q 1/2 -n {}", "-n", MAX_ORDER),
    ("sample --family euler --q 1/2 -n {} --xmin 0 --xmax 1", "degree", MAX_ORDER),
    ("sample --family euler --q 1/2 --degrees 1,{} --xmin 0 --xmax 1", "degree", MAX_ORDER),
    ("sample --family euler --q 1/2 -n 2 --xmin 0 --xmax 1 --steps {}", "--steps", MAX_STEPS),
    ("verify --q 1/2 --upto {}", "--upto", MAX_VERIFY_ORDER),
]


class TestCaps:
    """-n, --upto, --degrees and --steps are capped before any work starts."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        from qappell import audit, cli

        def started(*args, **kwargs):
            raise _WorkStarted

        monkeypatch.setattr(cli, "resolve", started)
        monkeypatch.setattr(audit, "run_verify", started)

    @pytest.mark.parametrize("template, flag, cap", CAPPED, ids=[c[0] for c in CAPPED])
    def test_just_above_cap_exits_2(self, capsys, template, flag, cap):
        code, out, err = run_cli(capsys, *template.format(cap + 1).split())
        assert (code, out) == (2, "")
        assert err == f"error: {flag} {cap + 1} is above the cap of {cap} (see the README)\n"

    @pytest.mark.parametrize("template, flag, cap", CAPPED, ids=[c[0] for c in CAPPED])
    def test_at_cap_starts_work(self, capsys, template, flag, cap):
        with pytest.raises(_WorkStarted):
            run_cli(capsys, *template.format(cap).split())


# Argument lists from the parser's own subcommands, flags and choices.  Each
# value is one the commands accept or an edge string.  Accepted orders stay at
# 12 or below, so an order cap comes in as cap + 1 only: cap - 1 would run for
# minutes.
PARSER = build_parser()
COMMANDS = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices
EDGES = ("", " ", "-", "+", "-1/2", "1/0", "0.5", "nan", "inf", "1e3", "bernoulli,", ",euler")
VALUES = {
    "q": ("1/2", "1/3", "2/5"),
    "family": BUILTIN_NAMES,
    "iterate": ("bernoulli,euler", "euler,genocchi-table"),
    "mixed": ("genocchi-det,bernoulli", "genocchi-table,euler"),
    "degrees": ("1,3", "12", "2,2", f"1,{MAX_ORDER + 1}"),
    "xmin": ("-1", "0", "1/2"),
    "xmax": ("1", "1/2", "2"),
    "steps": ("2", "5", str(MAX_STEPS - 1), str(MAX_STEPS + 1)),
    "out": ("out.txt", "no-such-dir/out.txt"),
}


@st.composite
def argument_lists(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    sub = COMMANDS[command]
    cap = MAX_VERIFY_ORDER if command == "verify" else MAX_ORDER
    orders = (*(str(k) for k in range(13)), "-1", str(cap + 1))
    groups = [g._group_actions for g in sub._mutually_exclusive_groups]
    chosen = {draw(st.sampled_from(g)) for g in groups}
    argv = [command]
    for action in sub._actions:
        if not action.option_strings or isinstance(action, argparse._HelpAction):
            continue
        if any(action in g for g in groups):
            if action not in chosen:
                continue
        elif not (action.required or draw(st.booleans())):
            continue
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs != 0:
            accepted = action.choices or VALUES.get(action.dest, orders)
            edge = draw(st.integers(0, 4)) == 4
            argv.append(draw(st.sampled_from(EDGES if edge else accepted)))
    return argv


@settings(
    max_examples=300,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(argv=argument_lists())
@example(argv=["poly", "--q", "1/2", "--family", "", "-n", "4"])
@example(argv=["numbers", "--q", "1/2", "--iterate", "", "--upto", "3"])
def test_every_argument_list_ends_in_a_documented_exit(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # --out writes here
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's own refusal
        assert exc.code == 2 and capsys.readouterr().err.startswith("usage: ")
        return
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
    elif code == 1:
        assert argv[0] == "verify"
    elif code == 2:
        assert out == "" and re.fullmatch("error: [^\n]*\n", err)
