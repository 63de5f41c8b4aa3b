"""Seeded operation lists for the four benchmark workloads.

Every list is a plain JSON-able list of dicts, so it can be recorded and
hashed in the results file and regenerated from the seed alone.  The seed
chooses numerators, family names, degrees, formats and argument values; the
shape of each list (how many operations of each kind, which denominators,
which degree bands) is fixed, so the cost of one pass varies little from seed
to seed while the inputs themselves do.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import gcd

WORKLOADS = ("audit", "series-deep", "cli-mix", "zeros")

SERIES_NAMES = ("bernoulli", "euler", "genocchi-det")
ALL_NAMES = SERIES_NAMES + ("genocchi-table",)
TABLE_MAX_N = 4  # genocchi-table numbers are published only up to n = 4

# The three false root-finder failures of the current zero finder.  They are
# part of every zeros and cli-mix list, whatever the seed.
KNOWN_FALSE_FAILURES = (("1/2", 16), ("1/10", 9), ("9/10", 14))
FIXED_ZERO_QS = ("1/10", "1/2", "9/10")
ZERO_MIN_N, ZERO_MAX_N, ZERO_STRIDE = 2, 40, 4


def draw_q(rng: random.Random, d: int) -> str:
    """A q = p/d in lowest terms with 0 < q < 1."""
    p = rng.choice([p for p in range(1, d) if gcd(p, d) == 1])
    return f"{p}/{d}"


def _audit(rng: random.Random) -> list[dict]:
    # q = 1/2 is the only q with printed iterated and zero tables; the seeded
    # q runs the property suite and the plain-table audit only.
    seeded = draw_q(rng, rng.choice((3, 4, 5)))
    return [
        {"kind": "verify", "q": "1/2", "order": 8},
        {"kind": "verify", "q": "1/2", "order": 12},
        {"kind": "verify", "q": seeded, "order": 8},
    ]


def _series_deep(rng: random.Random) -> list[dict]:
    # One slot per (order, denominator); cost grows with both and hardly with
    # the numerator or the family, so fixing the slots keeps the pass cost
    # steady while q and the families vary.  An odd number of slots puts the
    # median latency inside one operation's samples rather than between two.
    ops = []
    for order in (32, 48, 64):
        for d, pair in ((3, False), (5, True), (7, False), (9, True), (11, False)):
            names = [rng.choice(SERIES_NAMES)]
            if pair:
                names.append(rng.choice(SERIES_NAMES))
            ops.append({
                "kind": "series",
                "q": draw_q(rng, d),
                "order": order,
                "families": names,
                "xmin": "-2",
                "xmax": "2",
                "steps": 33,
            })
    return ops


def _zeros(rng: random.Random) -> list[dict]:
    # Every ZERO_STRIDE-th degree per family from an offset.  The false
    # failures start at a threshold degree and cover the rest of the range,
    # and each costs about twenty successes, so the pass cost follows the
    # number of failures.  The three fixed qs therefore get one fixed layout of
    # offsets, and the seed draws the fourth q, its offsets and two of its
    # degrees per family, one from each half of the range.  The fixed qs'
    # failures, and the cost they dominate, are then the same for every seed,
    # and the seeded q's operations are too few and too evenly spread to move
    # the median latency far.  The offsets cover every residue, so
    # every degree in the range occurs and the latencies near the median lie
    # close together.
    seeded = draw_q(rng, rng.choice((7, 9, 11)))
    combos = [(q, name, times) for q in (*FIXED_ZERO_QS, seeded) for name in SERIES_NAMES
              for times in (None, "bernoulli")]
    n_fixed = len(FIXED_ZERO_QS) * len(SERIES_NAMES) * 2
    offsets = [ZERO_MIN_N + k % ZERO_STRIDE for k in range(n_fixed)]
    offsets += [rng.randrange(ZERO_MIN_N, ZERO_MIN_N + ZERO_STRIDE)
                for _ in range(len(combos) - n_fixed)]
    ops = []
    for k, ((q, name, times), first) in enumerate(zip(combos, offsets)):
        degrees = range(first, ZERO_MAX_N + 1, ZERO_STRIDE)
        if k >= n_fixed:  # one from each half, so they straddle the median
            half = (len(degrees) + 1) // 2
            degrees = [rng.choice(degrees[:half]), rng.choice(degrees[half:])]
        ops += [{"kind": "zeros", "q": q, "family": name, "times": times, "n": n}
                for n in degrees]
    for q, n in KNOWN_FALSE_FAILURES:
        ops.append({"kind": "zeros", "q": q, "family": "bernoulli",
                    "times": "bernoulli", "n": n})
    rng.shuffle(ops)
    return ops


def _family_flags(names: list[str]) -> list[str]:
    if len(names) == 1:
        return ["--family", names[0]]
    flag = "--iterate" if names[0] == names[1] else "--mixed"
    return [flag, ",".join(names)]


def _draw_family(rng: random.Random, max_n: int) -> list[str]:
    """One or two built-in names; genocchi-table only where n allows it."""
    pool = ALL_NAMES if max_n <= TABLE_MAX_N else SERIES_NAMES
    return [rng.choice(pool) for _ in range(rng.choice((1, 2)))]


def _cli_op(cmd: str, names: list[str], q: str, fmt: str, argv: list[str],
            **fields) -> dict:
    return {"kind": "cli", "cmd": cmd, "families": names, "q": q, "format": fmt,
            "argv": argv, **fields}


def _cli_mix(rng: random.Random) -> list[dict]:
    ops = []

    def q() -> str:
        return draw_q(rng, rng.randint(2, 11))

    # numbers: four single-method calls and two cross-method calls
    for method, (lo, hi) in (("series", (1, 16)), ("series", (1, 16)),
                             ("determinant", (1, 8)), ("operator", (1, 16)),
                             ("all", (3, 6)), ("all", (9, 11))):
        upto = rng.randint(lo, hi)
        names, qv, fmt = _draw_family(rng, upto), q(), rng.choice(("text", "json", "csv"))
        ops.append(_cli_op("numbers", names, qv, fmt,
                           ["numbers", *_family_flags(names), "--q", qv,
                            "--upto", str(upto), "--method", method, "--format", fmt],
                           n=upto, method=method))
    # poly: five single-method calls and two cross-method calls
    for method, (lo, hi) in (("series", (0, 16)), ("series", (0, 16)),
                             ("determinant", (0, 10)), ("operator", (0, 16)),
                             ("series", (0, 16)), ("all", (4, 8)), ("all", (10, 14))):
        n = rng.randint(lo, hi)
        names, qv, fmt = _draw_family(rng, n), q(), rng.choice(("text", "json", "csv"))
        ops.append(_cli_op("poly", names, qv, fmt,
                           ["poly", *_family_flags(names), "--q", qv, "-n", str(n),
                            "--method", method, "--format", fmt],
                           n=n, method=method))
    # roots: seven seeded calls (two cross-method) plus the known false failures
    for method, (lo, hi) in (("series", (1, 16)),) * 5 + (("all", (2, 8)), ("all", (9, 14))):
        n = rng.randint(lo, hi)
        names, qv, fmt = _draw_family(rng, n), q(), rng.choice(("text", "json", "csv"))
        ops.append(_cli_op("roots", names, qv, fmt,
                           ["roots", *_family_flags(names), "--q", qv, "-n", str(n),
                            "--method", method, "--format", fmt, "--full-precision"],
                           n=n, method=method))
    for qv, n in KNOWN_FALSE_FAILURES:
        fmt = rng.choice(("text", "json", "csv"))
        ops.append(_cli_op("roots", ["bernoulli", "bernoulli"], qv, fmt,
                           ["roots", "--iterate", "bernoulli,bernoulli", "--q", qv,
                            "-n", str(n), "--format", fmt, "--full-precision"],
                           n=n, method="series"))
    # sample: five calls, several degrees each
    for _ in range(5):
        top = rng.randint(1, 16)
        names = _draw_family(rng, top)
        degrees = sorted(set(rng.randint(0, top) for _ in range(3)) | {top})
        steps = rng.randint(11, 41)
        lo = rng.randint(-4, -1)
        qv, fmt = q(), rng.choice(("text", "json", "csv"))
        ops.append(_cli_op("sample", names, qv, fmt,
                           ["sample", *_family_flags(names), "--q", qv,
                            "--degrees", ",".join(map(str, degrees)),
                            "--xmin", str(lo), "--xmax", str(lo + rng.randint(2, 6)),
                            "--steps", str(steps), "--format", fmt],
                           degrees=degrees, steps=steps))
    # verify: one full audit at order 8
    qv, fmt = q(), rng.choice(("text", "json"))
    ops.append(_cli_op("verify", [], qv, fmt,
                       ["verify", "--q", qv, "--upto", "8", "--format", fmt], n=8))
    rng.shuffle(ops)
    return ops


_GENERATORS = {
    "audit": _audit,
    "series-deep": _series_deep,
    "cli-mix": _cli_mix,
    "zeros": _zeros,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The operation list of one workload; equal seeds give equal lists."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def digest(obj) -> str:
    """SHA-256 of the canonical JSON form of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
