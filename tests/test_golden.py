"""Byte-identical gate on `qappell verify` output, CLI output and deep series.

``GOLDEN`` pins the text rendering and the sorted-key JSON rendering of
`run_verify` (up to order 24 at q = 5/11), also below order 4, which the
CLI refuses.  ``test_cli_parity`` runs the ``tier1`` pins of
``tests/parity.py``: the stdout digest, stderr and exit code of every
command in every format and of each usage error.  That file also holds the
costly ``ci`` pins; ``python tests/parity.py`` runs them all.
Any change to either rendering, intended or not, shows up here and has to
be stated in CHANGES.md.  A last pair of digests pins the exact numbers,
beta and sampled values of one pair family at order 48, the coefficient size
(thousands of bits) where the series kernels and ``sample`` spend their
time, and ``PAIRS_64_DIGEST`` the numbers and beta of all nine ordered pairs
of beta-defined built-ins at order 64, ``SINGLES_DIGEST`` the numbers of those
three built-ins at order 64 and 48.  ``ZEROS_DIGEST`` pins every ``find_roots`` outcome, accepted or
refused, on the fixed part of the ``zeros`` benchmark workload.
"""

import hashlib
import json
import re
import shlex
from fractions import Fraction as F
from pathlib import Path

import pytest

from qappell import QContext, find_roots, resolve
from qappell.audit import run_verify
from qappell.families import FamilySpec, pair_family
from qappell.roots import RootFindingError, sample

from parity import PINS, run

GOLDEN = {
    (F(1, 2), 8): (
        "e881d206f0db93110cb613788fc5623f41eb664ba4f3e8c6b1542fedb3917197",
        "2312d24d7453da4cde0b8243db2e3c47df5370aaf8e57cf1e903e36c902c107d",
    ),
    (F(1, 2), 12): (
        "a16e3428bfaf8e75c23ccce90f7c2eea2adcac36b82fb65d4692ac86ec3e9c0d",
        "3b75781f65ff1aeb9db38c8bc18bb9c1fd9dfdbc0a85954c5656d2cc2dc46285",
    ),
    (F(1, 3), 8): (
        "7bce3119c3b5de91be21d238b7c57b04f5d3c643e0cde9d991aaecc598dc1477",
        "c8e9538ffa0aa9279c0c44dba0918832f8071e8a36d5516db6070aa15cbb4884",
    ),
    # below order 4, reachable from the API only (the CLI refuses it): the
    # family set is built at order 4, where the printed tables stop
    (F(1, 2), 0): (
        "233d8b9e64f9144684bdc106ccee7c882f6d55bb72acbedd398db450966ba1b6",
        "704da1dc3c372942fa238dc100111685e1310609914741dbcade8b653a3bbe85",
    ),
    (F(1, 2), 1): (
        "bcd446faa5075d1072d4fd90b9d10662bc32357b8d41e57dc7a72f8bf4402674",
        "9d0206f0e34eca8c45e08964839f591412d1592335a368a14eb97eaf7437f625",
    ),
    (F(1, 2), 2): (
        "360b23fc26d2849fecae0580fca3a3edd183f616640b1bb9a7b967cd646f8f17",
        "ac33d65baf811951c32a76cdce234af2f7cf3d66afede831cf61e36bc3bf06d8",
    ),
    (F(1, 2), 3): (
        "b3deb37adfe70e5fc4b2c63edb62313dfbd6ff6875c3701830fcf416eedb1c37",
        "b52eef5c409a2dff499e51ac145ef41528757a09456561dd55b830d88155dece",
    ),
    # denominators of about a thousand bits, where the exact kernels differ
    # most from a plain Fraction loop
    (F(5, 11), 24): (
        "917ed9557a21dda17b07b972f5bf302a7bed664359a9ff62abbb5764b7fdfc7f",
        "bb0ca2c976f53e8c2dc2dc28a621c6350af642dafcd5cf54f87f3bde6df7afbf",
    ),
}

# bernoulli * euler at q = 5/11, order 48: numbers and beta, one per line;
# then sample(P_48, -2, 2, 33) as "x value" lines
DEEP_SERIES_DIGEST = "a4ed31b0a4db67934aa41ed88005c8b27567cab8b3766427a342a25a1e59774d"
DEEP_SAMPLE_DIGEST = "fda110b7edd56ff793472841d5285c631c8c084e23b2a22fc757431c548dff0b"

# each ordered pair of bernoulli, euler, genocchi-det at q = 5/11, order 64:
# numbers and beta, one per line; pinned while the pair beta was a convolution
PAIRS_64_DIGEST = "bf0f07c23bdefd8a93268d343079963abec9b433add223f64ba5036e15be42f1"

# the numbers of bernoulli, euler and genocchi-det at q = 5/11, order 64, then
# at q = 999/1000, order 48, one per line; pinned while they were reciprocal(beta)
SINGLES_DIGEST = "cd6aac9e2a20b023a9a4c74241d1fb2144fc3adda4e3a5c28ef1ddc73a6f56ff"

# find_roots on q in {1/10, 1/2, 9/10} x {bernoulli, euler, genocchi-det} x
# {plain, x bernoulli}, combo k at every 4th degree from 2 + k % 4 to 40, then
# bernoulli x bernoulli at the three former false failures; one line per
# outcome, repr(RootSet) or a refusal's message, best, residuals and sweeps.
# It holds six cluster refusals at q = 1/10 and accepted sets that take the
# exact-residual stage (bernoulli x bernoulli at q = 1/2, n = 33 and 37)
ZEROS_DIGEST = "d7102df73de4469b96464005d361b01a97309d6e6f095ea61d598abfe878a46b"
ZERO_QS = (F(1, 10), F(1, 2), F(9, 10))
FORMER_FALSE_FAILURES = ((F(1, 2), 16), (F(1, 10), 9), (F(9, 10), 14))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("q, order", sorted(GOLDEN), ids=lambda v: str(v))
def test_verify_digests(q, order):
    report = run_verify(q, order)
    text_digest, json_digest = GOLDEN[(q, order)]
    assert report.exit_code == 0
    assert _sha256(report.to_text()) == text_digest
    assert _sha256(json.dumps(report.to_json_dict(), sort_keys=True)) == json_digest


@pytest.mark.parametrize(
    "pin", [pin for pin in PINS if pin.tier == "tier1"], ids=lambda pin: shlex.join(pin.argv)
)
def test_cli_parity(pin):
    assert run(pin.argv) == (pin.digest, pin.stderr, pin.code)


def test_pin_file_is_well_formed():
    argvs = [tuple(pin.argv) for pin in PINS]
    assert len(set(argvs)) == len(argvs)
    assert {pin.tier for pin in PINS} <= {"tier1", "ci"}
    assert all(re.fullmatch("[0-9a-f]{64}", pin.digest) for pin in PINS)
    assert all(pin.stderr == "" for pin in PINS if pin.code == 0)
    # one pinning mechanism: CI runs tests/parity.py, not its own digests
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml"
    assert "sha256sum" not in workflow.read_text(encoding="utf-8")


def test_deep_pair_digests():
    fam = pair_family(
        FamilySpec.builtin("bernoulli"), FamilySpec.builtin("euler"), QContext(F(5, 11)), 48
    )
    seq_text = "".join(f"{c}\n" for c in fam.numbers.coeffs + fam.beta.coeffs)
    assert _sha256(seq_text) == DEEP_SERIES_DIGEST
    points = sample(fam.poly(48), F(-2), F(2), 33)
    assert _sha256("".join(f"{x} {v}\n" for x, v in points)) == DEEP_SAMPLE_DIGEST


def test_pairs_64_digest():
    ctx, names = QContext(F(5, 11)), ("bernoulli", "euler", "genocchi-det")
    text = ""
    for a in names:
        for b in names:
            fam = pair_family(FamilySpec.builtin(a), FamilySpec.builtin(b), ctx, 64)
            text += "".join(f"{c}\n" for c in fam.numbers.coeffs + fam.beta.coeffs)
    assert _sha256(text) == PAIRS_64_DIGEST


def test_singles_digest():
    text = ""
    for q, order in ((F(5, 11), 64), (F(999, 1000), 48)):
        ctx = QContext(q)
        for name in ("bernoulli", "euler", "genocchi-det"):
            fam = resolve(FamilySpec.builtin(name), ctx, order)
            text += "".join(f"{c}\n" for c in fam.numbers.coeffs)
    assert _sha256(text) == SINGLES_DIGEST


def test_zeros_digest():
    def outcome(p) -> str:
        try:
            return repr(find_roots(p))
        except RootFindingError as exc:
            return repr((str(exc), exc.best, exc.residuals, exc.sweeps))

    bernoulli = FamilySpec.builtin("bernoulli")
    lines, pairs = [], {}
    combos = [
        (q, name, times)
        for q in ZERO_QS
        for name in ("bernoulli", "euler", "genocchi-det")
        for times in (False, True)
    ]
    for k, (q, name, times) in enumerate(combos):
        spec, ctx = FamilySpec.builtin(name), QContext(q)
        fam = pair_family(spec, bernoulli, ctx, 40) if times else resolve(spec, ctx, 40)
        if times and name == "bernoulli":
            pairs[q] = fam
        lines += [outcome(fam.poly(n)) for n in range(2 + k % 4, 41, 4)]
    lines += [outcome(pairs[q].poly(n)) for q, n in FORMER_FALSE_FAILURES]
    refused = sum(line.startswith("(") for line in lines)
    assert (len(lines), refused) == (179, 6)
    assert _sha256("".join(line + "\n" for line in lines)) == ZEROS_DIGEST
