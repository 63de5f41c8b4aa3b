"""Command-line front end.

Subcommands: numbers, poly, roots, sample, verify.  Exact rationals are
printed as p/r and serialized as strings; floats only ever appear where
zeros are involved.  Exit codes: 0 success, 1 failed verification,
2 usage or cross-method error, 3 root-finder refusal.
"""

from __future__ import annotations

import argparse
import sys

from .families import (
    ROUTES,
    AppellFamily,
    FamilyError,
    FamilySpec,
    product_family,
    resolve,
    route_numbers,
    route_poly,
)
from .fmt import decimal_str, frac_str, pair_str, poly_text, ratio_str, real_str
from .qcore import QContext, parse_q, parse_rat

__all__ = ["main"]

# The largest sizes a command accepts (README, "Caps").  The cost of an exact
# family grows like about the fourth power of its order, and sample's cost
# linearly with its step count, so larger values would run for hours.
MAX_ORDER = 128  # -n / --upto / --degrees of numbers, poly, roots and sample
MAX_VERIFY_ORDER = 64  # --upto of verify
MAX_STEPS = 10_001  # sample --steps


class CliError(Exception):
    """A usage error: ``main`` prints it and returns 2."""


def _add_common(sub: argparse.ArgumentParser, q_required: bool = True) -> None:
    sub.add_argument("--q", required=q_required, default=None, help="base q as a fraction, e.g. 1/2")
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub.add_argument("--out", default=None, help="write output to this path instead of stdout")


def _add_family_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", help="built-in family name")
    group.add_argument("--iterate", metavar="A,B", help="2-iterated pair, e.g. bernoulli,bernoulli")
    group.add_argument("--mixed", metavar="A,B", help="mixed pair, e.g. euler,genocchi-table")


def _add_method(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--method", choices=(*ROUTES, "all"), default="series")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qappell",
        description="exact q-Appell polynomial engine: numbers, polynomials, zeros, audits",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_numbers = subs.add_parser("numbers", help="family numbers up to an order")
    _add_common(p_numbers)
    _add_family_flags(p_numbers)
    p_numbers.add_argument("-n", "--n", "--upto", dest="upto", type=int, required=True)
    _add_method(p_numbers)
    p_numbers.set_defaults(func=cmd_numbers)

    p_poly = subs.add_parser("poly", help="one polynomial of the family")
    _add_common(p_poly)
    _add_family_flags(p_poly)
    p_poly.add_argument("-n", "--n", "--upto", dest="n", type=int, required=True)
    _add_method(p_poly)
    p_poly.set_defaults(func=cmd_poly)

    p_roots = subs.add_parser("roots", help="zeros of one polynomial")
    _add_common(p_roots)
    _add_family_flags(p_roots)
    p_roots.add_argument("-n", "--n", "--upto", dest="n", type=int, required=True)
    _add_method(p_roots)
    p_roots.add_argument(
        "--full-precision",
        action="store_true",
        help="print zeros at full double precision instead of 4 decimals",
    )
    p_roots.set_defaults(func=cmd_roots)

    p_sample = subs.add_parser("sample", help="exact samples of one or more polynomials")
    _add_common(p_sample)
    _add_family_flags(p_sample)
    p_sample.add_argument("-n", "--n", dest="n", type=int, default=None)
    p_sample.add_argument("--degrees", help="comma-separated degrees, e.g. 1,2,3,4")
    p_sample.add_argument("--xmin", required=True, help="left endpoint, as a fraction")
    p_sample.add_argument("--xmax", required=True, help="right endpoint, as a fraction")
    p_sample.add_argument("--steps", type=int, default=101)
    p_sample.set_defaults(func=cmd_sample)

    p_verify = subs.add_parser("verify", help="property suite plus reference-table audit")
    _add_common(p_verify, q_required=False)
    p_verify.add_argument("-n", "--n", "--upto", dest="upto", type=int, default=8)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _check_cap(flag: str, value: int, cap: int) -> None:
    """Refuse, before any work starts, a value that would run for hours."""
    if value > cap:
        raise CliError(f"{flag} {value} is above the cap of {cap} (see the README)")


def _context(args: argparse.Namespace) -> QContext:
    q_text = args.q if args.q is not None else "1/2"
    try:
        return QContext(parse_q(q_text))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _specs(args: argparse.Namespace) -> tuple[FamilySpec, ...]:
    try:
        if args.family:
            return (FamilySpec.builtin(args.family),)
        pair_text = args.iterate if args.iterate else args.mixed
        names = [s for s in pair_text.split(",") if s.strip()]
        if len(names) != 2:
            raise CliError(f"expected two comma-separated names, got {pair_text!r}")
        return (FamilySpec.builtin(names[0]), FamilySpec.builtin(names[1]))
    except FamilyError as exc:
        raise CliError(str(exc)) from exc


def _resolve(specs: tuple[FamilySpec, ...], ctx: QContext, order: int) -> AppellFamily:
    """The family of the specs, a product for two, each resolved once at the top order."""
    try:
        members = [resolve(spec, ctx, order) for spec in specs]
    except FamilyError as exc:
        raise CliError(str(exc)) from exc
    return members[0] if len(members) == 1 else product_family(*members)


def _emit(args: argparse.Namespace, lines: list[str]) -> None:
    """Write the lines, each ended by a newline, to --out or else stdout."""
    text = "\n".join(lines) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc.strerror or exc}") from exc


def _json(payload: dict) -> str:
    import json  # imported here: text and csv output never need it

    return json.dumps(payload, indent=2)


def _header(fam: AppellFamily, **fields) -> dict:
    """The JSON payload of a family command: schema, q and family, then the fields."""
    return {"schema": 1, "q": frac_str(fam.ctx.q), "family": fam.label, **fields}


def _family_results(
    args: argparse.Namespace, flag: str, order: int, floor: int, route, render
) -> tuple[AppellFamily, dict] | None:
    """The family and every --method's result, or None after a divergence.

    The order is checked against its floor and cap, and the families are
    resolved once at it.  route is ``route_poly`` or ``route_numbers``, called
    at the order for each method.  A divergence from the first method writes
    each method's result, as render gives it, to stderr.
    """
    ctx = _context(args)
    specs = _specs(args)
    if order < floor:
        raise CliError(f"{flag} must be >= {floor}" + (" for roots" if floor else ""))
    _check_cap(flag, order, MAX_ORDER)
    fam = _resolve(specs, ctx, order)
    methods = ROUTES if args.method == "all" else (args.method,)
    results = {m: route(fam, order, m) for m in methods}
    if any(v != results[methods[0]] for v in results.values()):
        sys.stderr.write("cross-method divergence:\n")
        for m, v in results.items():
            sys.stderr.write(f"  {m}: {render(v)}\n")
        return None
    return fam, results


def cmd_numbers(args: argparse.Namespace) -> int:
    run = _family_results(
        args, "--upto", args.upto, 0, route_numbers, lambda vs: [frac_str(v) for v in vs]
    )
    if run is None:
        return 2
    fam, results = run
    rows = list(enumerate(next(iter(results.values()))))
    if args.format == "json":
        numbers = [{"n": n, "exact": frac_str(v), "decimal": decimal_str(v)} for n, v in rows]
        lines = [_json(_header(fam, numbers=numbers))]
    elif args.format == "csv":
        lines = ["n,exact,decimal"]
        lines += [f"{n},{frac_str(v)},{decimal_str(v)}" for n, v in rows]
    else:
        lines = [f"{fam.label} numbers at q = {frac_str(fam.ctx.q)}"]
        lines += [f"  n={n}: {frac_str(v)} = {decimal_str(v)}" for n, v in rows]
    _emit(args, lines)
    return 0


def cmd_poly(args: argparse.Namespace) -> int:
    run = _family_results(args, "-n", args.n, 0, route_poly, poly_text)
    if run is None:
        return 2
    fam, results = run
    p = next(iter(results.values()))
    if args.format == "json":
        payload = _header(
            fam,
            n=args.n,
            methods={
                m: {"coeffs": [frac_str(c) for c in r.coeffs], "text": poly_text(r)}
                for m, r in results.items()
            },
        )
        if args.method == "all":
            payload["agree"] = True
        lines = [_json(payload)]
    elif args.format == "csv":
        lines = ["power,coefficient"]
        lines += [f"{k},{frac_str(p.coeff(k))}" for k in range(p.degree, -1, -1)]
    elif args.method == "all":
        lines = [f"{m}: {poly_text(r)}" for m, r in results.items()]
        lines.append("all methods agree")
    else:
        lines = [poly_text(p)]
    _emit(args, lines)
    return 0


def cmd_roots(args: argparse.Namespace) -> int:
    from . import roots  # imported here: start-up is most of a small call

    run = _family_results(args, "-n", args.n, 1, route_poly, poly_text)
    if run is None:
        return 2
    fam, results = run
    p = next(iter(results.values()))
    try:
        rs = roots.find_roots(p)
    except roots.RootFindingError as exc:
        sys.stderr.write(f"root finding failed: {exc}\n")
        return 3
    vsum, vprod = roots.vieta_residuals(p, rs.roots)

    def fmt_real(v: float) -> str:
        return repr(v) if args.full_precision else real_str(v)

    def fmt_pair(z: complex) -> str:
        if args.full_precision:
            return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"
        return pair_str(z)

    if args.format == "json":
        payload = _header(
            fam,
            n=args.n,
            poly=poly_text(p),
            real=[w for w in rs.real_roots],
            complex=[{"re": w.real, "im": w.imag} for pair in rs.complex_pairs for w in pair],
            residuals=list(rs.residuals),
            vieta={"sum": vsum, "product": vprod},
        )
        lines = [_json(payload)]
    elif args.format == "csv":
        lines = ["type,re,im"]
        for w in rs.real_roots:
            lines.append(f"real,{fmt_real(w)},0")
        for pair in rs.complex_pairs:
            for w in pair:
                lines.append(f"complex,{fmt_real(w.real)},{fmt_real(w.imag)}")
    else:
        lines = [f"polynomial: {poly_text(p)}"]
        lines.append(
            "real zeros: " + (", ".join(fmt_real(w) for w in rs.real_roots) or "(none)")
        )
        lines.append(
            "complex zeros: "
            + (", ".join(fmt_pair(w) for pr in rs.complex_pairs for w in pr) or "(none)")
        )
        lines.append(f"vieta residuals: sum {vsum:.2e}, product {vprod:.2e}")
    _emit(args, lines)
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    from . import roots

    ctx = _context(args)
    specs = _specs(args)
    if args.degrees:
        try:
            # a repeated degree is one column, in text and csv as in json
            degrees = list(dict.fromkeys(int(s) for s in args.degrees.split(",") if s.strip()))
        except ValueError as exc:
            raise CliError(f"bad --degrees list {args.degrees!r}") from exc
        if not degrees:
            raise CliError(f"--degrees {args.degrees!r} lists no degree")
    elif args.n is not None:
        degrees = [args.n]
    else:
        raise CliError("sample needs -n or --degrees")
    if any(d < 0 for d in degrees):
        raise CliError("degrees must be >= 0")
    _check_cap("degree", max(degrees), MAX_ORDER)
    try:
        xmin = parse_rat(args.xmin)
        xmax = parse_rat(args.xmax)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.steps < 2:
        raise CliError("--steps must be >= 2")
    _check_cap("--steps", args.steps, MAX_STEPS)
    if not xmin < xmax:
        raise CliError("--xmin must be < --xmax")
    fam = _resolve(specs, ctx, max(degrees))
    # the exact values as integers over one denominator each, rounded unreduced
    columns = {}
    for d in degrees:
        xs, grid, values, den = roots.sample_ints(fam.poly(d), xmin, xmax, args.steps)
        columns[d] = [ratio_str(v, den) for v in values]
    x_text = [ratio_str(x, grid) for x in xs]
    if args.format == "json":
        series = {str(d): columns[d] for d in degrees}
        lines = [_json(_header(fam, x=x_text, series=series))]
    else:
        # text and csv are the same table
        if len(degrees) == 1:
            lines = ["x,p(x)"]
        else:
            lines = ["x," + ",".join(f"p{d}(x)" for d in degrees)]
        for i, x in enumerate(x_text):
            lines.append(",".join([x, *(columns[d][i] for d in degrees)]))
    _emit(args, lines)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import audit  # imported here: only verify needs it

    ctx = _context(args)
    if args.upto < 4:
        raise CliError("verify needs --upto >= 4 to cover the reference tables")
    _check_cap("--upto", args.upto, MAX_VERIFY_ORDER)
    if args.format == "csv":
        raise CliError("verify supports text or json output")
    report = audit.run_verify(ctx.q, order=args.upto)
    if args.format == "json":
        _emit(args, [_json(report.to_json_dict())])
    else:
        _emit(args, [report.to_text().removesuffix("\n")])
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as -1/2 for an option, so bind it to its flag
    for i in range(len(argv) - 2, -1, -1):
        value = argv[i + 1]
        if argv[i] in ("--q", "--xmin", "--xmax") and value[:1] == "-" and value[1:2].isdigit():
            argv[i : i + 2] = [f"{argv[i]}={value}"]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
