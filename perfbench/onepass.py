"""One pass of one workload, in a process of its own.

Sets up (imports the engine, loads the fixture, generates the operation
list and, for zeros, builds the exact polynomials), runs every operation
once in order, then checks every output outside the timed region.  Prints
one JSON object with the set-up time, the pass wall time, the peak resident
memory and one record per operation.  Times are given both raw and in
reference seconds (see hostspeed.py).

    python3 perfbench/onepass.py --workload zeros --seed 1 [--traced] [--inproc]

With --setup-only it stops after set-up and prints only the set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT_S = 120
CAL_EVERY_S = 0.25  # host-speed calibration interval during a pass

# Set-up starts here: importing the engine is part of it.  The host speed is
# measured just after it.
_SETUP_START = time.perf_counter()
sys.path.insert(0, str(ROOT / "src"))
from qappell import audit, cli, families, fmt, roots  # noqa: E402
from qappell.qcore import QContext  # noqa: E402

import checks  # noqa: E402
from hostspeed import SpeedClock, reference_loop, scale  # noqa: E402
from ops import generate  # noqa: E402

# A refusal the engine documents: the zero finder's non-convergence
# (RootFindingError in-process, exit code 3 from the CLI).  It counts as a
# failed operation but not as a wrong answer.
REFUSAL_EXIT = 3


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Pass:
    def __init__(self, workload: str, seed: int, traced: bool, inproc: bool):
        self.workload = workload
        self.traced = traced
        self.inproc = inproc
        audit.load_fixture()  # every verify reads it; loading it once is set-up
        self.ops = generate(workload, seed)
        self.polys = self._build_polys() if workload == "zeros" else {}
        self.setup_raw_s = time.perf_counter() - _SETUP_START
        self.setup_s = self.setup_raw_s * scale(reference_loop())
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    def _build_polys(self) -> dict:
        """Exact polynomials for the zeros workload, one resolve per family."""
        top: dict[tuple, int] = {}
        for op in self.ops:
            key = (op["q"], op["family"], op["times"])
            top[key] = max(top.get(key, 0), op["n"])
        fams = {}
        for (q, name, times), order in top.items():
            fams[(q, name, times)] = checks.reference_family(
                [name] + ([times] if times else []), q, order)
        return {i: fams[(op["q"], op["family"], op["times"])].poly(op["n"])
                for i, op in enumerate(self.ops)}

    # -- operations (timed) -------------------------------------------------

    def run_op(self, i: int, op: dict):
        kind = op["kind"]
        if kind == "verify":
            report = audit.run_verify(Fraction(op["q"]), op["order"])
            text = report.to_text()
            js = json.dumps(report.to_json_dict(), indent=2) + "\n"
            return report.exit_code, report.counts()["mismatch"], text, js
        if kind == "series":
            ctx = QContext(Fraction(op["q"]))
            specs = [families.FamilySpec.builtin(n) for n in op["families"]]
            if len(specs) == 1:
                fam = families.resolve(specs[0], ctx, op["order"])
            else:
                fam = families.pair_family(specs[0], specs[1], ctx, op["order"])
            decimals = [fmt.decimal_str(c) for c in fam.numbers]
            points = roots.sample(fam.poly(op["order"]), Fraction(op["xmin"]),
                                  Fraction(op["xmax"]), op["steps"])
            return fam, decimals, points
        if kind == "zeros":
            return roots.find_roots(self.polys[i])
        if self.inproc:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(op["argv"]))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "qappell", *op["argv"]],
            capture_output=True, text=True, env=self.env, timeout=CLI_TIMEOUT_S,
            cwd=ROOT,
        )
        return proc.returncode, proc.stdout, proc.stderr

    # -- checks (untimed) ---------------------------------------------------

    def check(self, i: int, op: dict, result) -> tuple[str, str, str]:
        """(outcome, note, digest) with outcome ok, refused or wrong."""
        kind = op["kind"]
        if kind == "verify":
            code, mismatches, text, js = result
            note = checks.check_verify(code, mismatches)
            return ("wrong" if note else "ok"), note, _sha(text) + _sha(js)
        if kind == "series":
            fam, decimals, points = result
            note = checks.check_series(fam, decimals, points, op["steps"])
            body = "\n".join(decimals + [fmt.frac_str(v) for _, v in points])
            return ("wrong" if note else "ok"), note, _sha(body)
        if kind == "zeros":
            note = checks.check_rootset(self.polys[i], result)
            return ("wrong" if note else "ok"), note, _sha(repr(result.roots))
        code, out, err = result
        digest = _sha(f"{code}\n{out}")
        if code == REFUSAL_EXIT:
            return "refused", err.strip()[:200], digest
        note = checks.check_cli(op, code, out)
        if note and code != 0:
            note = f"{note}: {err.strip()[:200]}"
        return ("wrong" if note else "ok"), note, digest

    def run(self, spans_path: str | None = None) -> dict:
        clock = SpeedClock()
        tracer = None
        if self.traced:
            from spans import Tracer
            tracer = Tracer(clock.now)
            tracer.install()
        # In-process operations can run for seconds, so a timer calibrates in
        # their middle too; a CLI subprocess is short and is left alone.
        clock.calibrate()
        in_process = self.inproc or self.workload != "cli-mix"
        if in_process:
            clock.start_timer(CAL_EVERY_S)
        results, spans = [], []
        try:
            for i, op in enumerate(self.ops):
                if not in_process and clock.now() - clock.points[-1][0] >= CAL_EVERY_S:
                    clock.calibrate()
                if tracer:
                    tracer.begin_op(i)
                a = clock.now()
                try:
                    result, error = self.run_op(i, op), None
                except Exception as exc:  # recorded per operation, never fatal
                    result, error = None, exc
                spans.append((a, clock.now(), tracer.end_op() if tracer else {}))
                results.append((result, error))
        finally:
            if in_process:
                clock.stop_timer()
        clock.calibrate()
        records = [{"ms": clock.reference_s(a, b) * 1e3, "raw_ms": (b - a) * 1e3, **layers}
                   for a, b, layers in spans]
        wall_s = sum(r["ms"] for r in records) / 1e3
        wall_raw_s = sum(r["raw_ms"] for r in records) / 1e3
        usage = resource.RUSAGE_SELF if self.inproc or self.workload != "cli-mix" \
            else resource.RUSAGE_CHILDREN
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024

        for i, (op, (result, error), record) in enumerate(zip(self.ops, results, records)):
            if error is not None:
                # by name, so the check survives a move of the exception class
                refused = type(error).__name__ == "RootFindingError"
                record.update(outcome="refused" if refused else "crashed",
                              note=f"{type(error).__name__}: {error}"[:200],
                              digest=_sha(f"{type(error).__name__}: {error}"))
                continue
            try:
                outcome, note, digest = self.check(i, op, result)
            except Exception as exc:  # a check that cannot parse the output
                outcome, note, digest = "wrong", f"check raised {exc!r}"[:200], ""
            record.update(outcome=outcome, note=note, digest=digest)

        out = {"setup_s": self.setup_s, "setup_raw_s": self.setup_raw_s, "wall_s": wall_s,
               "wall_raw_s": wall_raw_s, "peak_rss_mb": peak_rss_mb,
               "loop_s": [s for _, s in clock.points], "ops": records}
        if tracer:
            out["layers"] = tracer.layer_totals()
            out["layers"]["qcore.coeff_bits_max"] = max(r["coeff_bits_max"] for r in records)
            out["layers"]["qcore.memo_entries"] = max(r["memo_entries"] for r in records)
            if spans_path:
                tracer.write_spans(spans_path)
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--inproc", action="store_true",
                        help="run cli-mix through qappell.cli.main in this process")
    parser.add_argument("--spans", help="write the trace spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    one = Pass(args.workload, args.seed, args.traced, args.inproc)
    print(json.dumps({"setup_s": one.setup_s, "setup_raw_s": one.setup_raw_s}
                     if args.setup_only else one.run(args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
