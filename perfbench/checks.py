"""Output checks, run after the timed region of a pass.

Each check returns an empty string when the output is right and a short
reason otherwise.  References are rebuilt through the engine's series route
at check time, never taken from the output under test.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from qappell import families, fmt, roots, series
from qappell.qcore import QContext, QPoly

VIETA_TOL = 1e-9

_VERIFY_SUMMARY = re.compile(
    r"^summary: \d+ match, \d+ paper-typo-suspected, (\d+) mismatch; properties (\w+)$",
    re.M,
)


def reference_family(names: list[str], q: str, order: int):
    """The single or pair family of the given names, by the series route."""
    ctx = QContext(Fraction(q))
    specs = [families.FamilySpec.builtin(n) for n in names]
    if len(specs) == 1:
        return families.resolve(specs[0], ctx, order)
    return families.pair_family(specs[0], specs[1], ctx, order)


def check_verify(exit_code: int, mismatches: int) -> str:
    if exit_code != 0:
        return f"verify exit code {exit_code}"
    if mismatches:
        return f"{mismatches} mismatch rows"
    return ""


def check_series(fam, decimals: list[str], points: list, steps: int) -> str:
    """numbers * beta is the unit sequence, and P_N(0) = A_N at the top order."""
    order = fam.order
    if series.convolve(fam.numbers, fam.beta) != series.unit(fam.ctx, order):
        return "numbers convolved with beta is not the unit sequence"
    if fam.poly(order)(0) != fam.number(order):
        return f"P_{order}(0) differs from A_{order}"
    if len(decimals) != order + 1 or len(points) != steps:
        return "wrong number of rendered numbers or samples"
    return ""


def check_roots(p, found: list[complex]) -> str:
    """Every zero is reported once and the Vieta residuals are small.

    Each residual is taken relative to its target when the target exceeds 1
    in magnitude: at degree 20 and beyond the product of the zeros reaches
    1e5, where no double-precision product is accurate to 1e-9 absolutely.
    """
    n = p.degree
    if len(found) != n:
        return f"{len(found)} zeros reported for degree {n}"
    lead = p.coeffs[-1]
    targets = (-p.coeff(n - 1) / lead, (-1) ** n * p.coeff(0) / lead)
    residuals = roots.vieta_residuals(p, tuple(found))
    scaled = [r / max(1.0, abs(float(t))) for r, t in zip(residuals, targets)]
    if not all(s < VIETA_TOL for s in scaled):
        return "Vieta residuals {:.2e}, {:.2e} (relative)".format(*scaled)
    return ""


def check_rootset(p, rs) -> str:
    nreal, ncomplex = rs.counts()
    if nreal + ncomplex != p.degree:
        return f"{nreal} real + {ncomplex} complex zeros for degree {p.degree}"
    return check_roots(p, list(rs.roots))


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()[1:]]


def _numbers_out(op: dict, out: str) -> list[Fraction]:
    if op["format"] == "json":
        return [Fraction(e["exact"]) for e in json.loads(out)["numbers"]]
    if op["format"] == "csv":
        return [Fraction(r[1]) for r in _rows(out)]
    return [Fraction(line.split(": ", 1)[1].split(" = ")[0])
            for line in out.strip().splitlines()[1:]]


def _poly_out(op: dict, out: str) -> list[str]:
    """Every polynomial the output states, as poly_text strings."""
    if op["format"] == "json":
        payload = json.loads(out)
        if op["method"] == "all" and payload.get("agree") is not True:
            return []
        return [fmt.poly_text(_poly_from(m["coeffs"])) for m in payload["methods"].values()]
    if op["format"] == "csv":
        coeffs = {int(r[0]): Fraction(r[1]) for r in _rows(out)}
        return [fmt.poly_text(_poly_from([coeffs.get(k, 0) for k in range(len(coeffs))]))]
    lines = out.strip().splitlines()
    if op["method"] == "all":
        if lines[-1] != "all methods agree":
            return []
        return [line.split(": ", 1)[1] for line in lines[:-1]]
    return lines


def _poly_from(coeffs) -> QPoly:
    return QPoly(Fraction(c) for c in coeffs)


def _roots_out(op: dict, out: str) -> list[complex]:
    if op["format"] == "json":
        payload = json.loads(out)
        return [complex(w) for w in payload["real"]] + [
            complex(w["re"], w["im"]) for w in payload["complex"]]
    if op["format"] == "csv":
        return [complex(float(r[1]), float(r[2])) for r in _rows(out)]
    found: list[complex] = []
    for line in out.splitlines():
        for label in ("real zeros: ", "complex zeros: "):
            if line.startswith(label):
                body = line[len(label):]
                if body != "(none)":
                    found += [complex(s.strip().replace("i", "j")) for s in body.split(", ")]
    return found


def _sample_out(op: dict, out: str) -> list[list[str]]:
    """Rows of x followed by one value per degree, as decimal strings."""
    if op["format"] == "json":
        payload = json.loads(out)
        cols = [payload["series"][str(d)] for d in op["degrees"]]
        return [[x, *(c[i] for c in cols)] for i, x in enumerate(payload["x"])]
    return _rows(out)


def check_cli(op: dict, code: int, out: str) -> str:
    """Compare one CLI call's stdout with a reference built in-process."""
    cmd = op["cmd"]
    if cmd == "verify":
        if op["format"] == "json":
            s = json.loads(out)["summary"]
            ok = s["exit_code"] == 0 and s["properties_ok"]
            return check_verify(code if ok else 1, s["mismatch"])
        m = _VERIFY_SUMMARY.search(out)
        if m is None:
            return "verify summary line missing"
        return check_verify(code if m.group(2) == "ok" else 1, int(m.group(1)))
    if code != 0:
        return f"exit code {code}"
    if cmd == "sample":
        fam = reference_family(op["families"], op["q"], max(op["degrees"]))
        argv = op["argv"]
        xmin = Fraction(argv[argv.index("--xmin") + 1])
        xmax = Fraction(argv[argv.index("--xmax") + 1])
        steps = op["steps"]
        want = []
        for i in range(steps):
            x = xmin + i * (xmax - xmin) / (steps - 1)
            want.append([fmt.decimal_str(x)] + [fmt.decimal_str(fam.poly(d)(x)) for d in op["degrees"]])
        return "" if _sample_out(op, out) == want else "sample table differs from the exact values"
    fam = reference_family(op["families"], op["q"], op["n"])
    if cmd == "numbers":
        want = [fam.number(k) for k in range(op["n"] + 1)]
        return "" if _numbers_out(op, out) == want else "numbers differ from the series route"
    if cmd == "poly":
        got = _poly_out(op, out)
        # csv prints one method's coefficients even for --method all
        expected_count = 3 if op["method"] == "all" and op["format"] != "csv" else 1
        want = fmt.poly_text(fam.poly(op["n"]))
        if len(got) != expected_count or any(g != want for g in got):
            return "polynomial differs from the series route or the methods disagree"
        return ""
    if cmd == "roots":
        return check_roots(fam.poly(op["n"]), _roots_out(op, out))
    return f"unknown command {cmd!r}"
