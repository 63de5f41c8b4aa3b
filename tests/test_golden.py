"""Byte-identical gate on `qappell verify` output, CLI stdout and deep series.

The digests pin the text rendering and the sorted-key JSON rendering of
`run_verify` (up to order 24 at q = 5/11), and the stdout and exit code of
a few CLI commands that take the pair, determinant and cross-method paths.
``CLI_PARITY`` pins the stdout digest, stderr and exit code of every command
in every format and of each usage error.
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
from fractions import Fraction as F

import pytest

from qappell import QContext, cli, find_roots, resolve
from qappell.audit import run_verify
from qappell.families import FamilySpec, pair_family
from qappell.roots import RootFindingError, sample

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

CLI_GOLDEN = {
    "numbers --iterate bernoulli,euler --q 1/2 --upto 12 --method all":
        "45b7ca6b55e0989b01d6ff22ee4b8b269d742db5ce3e13d7a6dbd11dc6d26c41",
    "numbers --mixed euler,genocchi-table --q 1/3 --upto 4 --format csv":
        "9bc37cee8b1f870a5fb816b6301f5526a63f12cacdeca5f9eb760371480856a7",
    "poly --family genocchi-det --q 2/5 -n 9 --method all --format json":
        "68b9ac5961a14a2b0376cbf1d00a1f57350d006ec1ad0572b12082e57769b299",
    "roots --iterate bernoulli,bernoulli --q 1/2 -n 6 --method all":
        "0b3510192d5f384abe0f3e9ff4bdf334bae3c8b69933400bbd0513059834928c",
    "sample --iterate bernoulli,euler --q 1/2 --degrees 1,3,5 --xmin -2 --xmax 2 --steps 9":
        "3cd7921fd86fb47af5a8ea0e29490e5171a713a675b7153e1c407e35f81d2005",
    # thousands of digits: each route's numbers read directly, and sample's
    # decimals rounded from unreduced integers
    "numbers --mixed bernoulli,euler --q 5/11 --upto 96 --format csv":
        "0a8a7017628200d4b7279a7100f85f6cc7b95b74c715d44d019f5f402c112faa",
    "numbers --iterate genocchi-det,euler --q 5/11 --upto 64 --method all":
        "092034666931de7b301f8823a9f97381bb20079e43104b4b0ea700c719b18d2a",
    "sample --iterate bernoulli,euler --q 5/11 --degrees 64,96 --xmin -2 --xmax 2 --steps 2001"
    " --format csv":
        "f69f800afc8d2beeb5f2e41497752b087f2109ce042ab295ac02a1ec155069d7",
}

# every command in every format, a single family and a pair, one method and
# --method all, and each usage error: (stdout SHA-256, stderr, exit code)
CLI_PARITY = {
    # numbers x text/json/csv; single and pair; one method and all
    "numbers --family bernoulli --q 1/2 --upto 6": (
        "5029911504209d389ce408546fe137a4f3b274b92d57cd59a0f9c8867871fac6",
        "", 0,
    ),
    "numbers --iterate bernoulli,euler --q 1/2 --upto 5 --method all --format json": (
        "3a971d9b282e7998d710cf1a5a061803c5ee7fe4a2ad94029342255c6b5c6736",
        "", 0,
    ),
    "numbers --family euler --q 2/5 --upto 5 --method determinant --format csv": (
        "8190b666d9a3c480f7043affbb8d595ce4d9491d4591fa6ca216eaa84af58580",
        "", 0,
    ),
    "numbers --mixed euler,genocchi-table --q 1/3 --upto 4 --method operator --format json": (
        "73c70a5de636eaad0ef013f2461dcdba96802af7274e87198e61b1ca6d428180",
        "", 0,
    ),
    # poly
    "poly --family euler --q 1/2 -n 5": (
        "1fe14f7e7838ad8449ccec41d2bdb15ed71b520b9574007693c2442d205700ee",
        "", 0,
    ),
    "poly --iterate bernoulli,euler --q 1/2 -n 4 --method all": (
        "7334ca695360b93aa9f40faaca24aaeadd1f07d518c7e0b1e77e726e8c4f1047",
        "", 0,
    ),
    "poly --family bernoulli --q 1/3 -n 6 --method operator --format json": (
        "abe28fcaf3aab6d87fa3a9629c0874db5146df774f666a3ab3b989e579bbc67c",
        "", 0,
    ),
    "poly --mixed euler,genocchi-table --q 1/2 -n 4 --method all --format json": (
        "678356856337f5e83644a9e3bb5ce066dfdfc934c9e6f439e8c98796edafd224",
        "", 0,
    ),
    "poly --iterate bernoulli,bernoulli --q 1/2 -n 5 --method determinant --format csv": (
        "f53d89ad4356e222115ca0e30bfcb66adef07b290e049ebd323073a047a64126",
        "", 0,
    ),
    "poly --family genocchi-det --q 1/2 -n 4 --method all --format csv": (
        "694da054461a958ae0e2dcc6e04de29341bd4dd23076c5a7a7db7b509c09432c",
        "", 0,
    ),
    # roots, --full-precision in each format
    "roots --family euler --q 1/2 -n 5": (
        "1712c58d99e85718435c9e2ca15fe1afe3314f290672c6f5fcfc1edb616fcee2",
        "", 0,
    ),
    "roots --family bernoulli --q 1/2 -n 6 --method all --format json": (
        "bee88e82d834bbbbb196b464161f32ed164fa655acd00f04e523bc99aa3420cd",
        "", 0,
    ),
    "roots --iterate bernoulli,euler --q 1/2 -n 5 --format csv": (
        "38d943c5e6d6b3bdf8ddd0ccc531d33c5a9fc4203bf5cbca12c4e99754fccc3a",
        "", 0,
    ),
    "roots --family euler --q 1/2 -n 5 --method determinant --full-precision": (
        "1b720d85afc95d9153adffd942e7394a2b8f8c8595c717bba57b2044e5c3ea80",
        "", 0,
    ),
    "roots --iterate bernoulli,euler --q 1/2 -n 5 --method all --full-precision --format csv": (
        "5884a4cce8de2ea1f1183e018af87c229146d238a9f1b59c1254717b78cc0d8b",
        "", 0,
    ),
    "roots --mixed euler,bernoulli --q 1/3 -n 4 --method operator --full-precision --format json": (
        "b8dd4fd88c46502e5c793226812fd1e5f765e28afde947227c17ec4080e28132",
        "", 0,
    ),
    # sample
    "sample --family bernoulli --q 1/2 -n 3 --xmin -1 --xmax 1 --steps 5": (
        "d56b46e096d8fba5645d3cda89f2cd5384a0dc49e72d38cfb185617753464dda",
        "", 0,
    ),
    "sample --family euler --q 1/2 --degrees 1,2 --xmin 0 --xmax 1 --steps 3 --format json": (
        "670926e2a65d259d575c76fe8df3f865caef55c4f279f060e27c8da25fb702a8",
        "", 0,
    ),
    "sample --iterate bernoulli,euler --q 1/2 -n 2 --xmin=-1/2 --xmax 1/2 --steps 4 --format csv": (
        "15af1decfdcc382eedf93d5f33581a22bb5ccc4b07d32961ce5b01b412a53253",
        "", 0,
    ),
    # the spaced form of a negative fraction endpoint prints the same
    "sample --iterate bernoulli,euler --q 1/2 -n 2 --xmin -1/2 --xmax 1/2 --steps 4 --format csv": (
        "15af1decfdcc382eedf93d5f33581a22bb5ccc4b07d32961ce5b01b412a53253",
        "", 0,
    ),
    # verify
    "verify": (
        "e881d206f0db93110cb613788fc5623f41eb664ba4f3e8c6b1542fedb3917197",
        "", 0,
    ),
    "verify --q 1/3 --format json": (
        "c5b561ac32e941c311e568f004405cdc0e70084ab78ded1df025cf7c8db319be",
        "", 0,
    ),
    # each CliError path, and which check wins when two fail
    "numbers --family bernoulli --q 1/2 --upto -1": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: --upto must be >= 0\n", 2,
    ),
    "poly --family bernoulli --q 1/2 -n -1": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: -n must be >= 0\n", 2,
    ),
    "roots --family bernoulli --q 1/2 -n 0": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: -n must be >= 1 for roots\n", 2,
    ),
    "numbers --family bernoulli --q 1/2 --upto 129": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: --upto 129 is above the cap of 128 (see the README)\n", 2,
    ),
    "roots --iterate bernoulli,euler --q 1/2 -n 129": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: -n 129 is above the cap of 128 (see the README)\n", 2,
    ),
    "poly --family euler --q 2 -n 3": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: q must satisfy 0 < q < 1, got 2\n", 2,
    ),
    "poly --family euler --q abc -n 3": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: cannot parse 'abc' as a rational\n", 2,
    ),
    "poly --family nosuch --q 1/2 -n 3": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: unknown family 'nosuch'; choose from bernoulli, euler, genocchi-det,"
        " genocchi-table\n", 2,
    ),
    "roots --iterate bernoulli --q 1/2 -n 3": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: expected two comma-separated names, got 'bernoulli'\n", 2,
    ),
    "numbers --family euler --q 1/2 --upto 3 --out no-such-dir/out.txt": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: cannot write no-such-dir/out.txt: No such file or directory\n", 2,
    ),
    # a negative q, spaced or not, is bound to --q and refused by its range
    "numbers --family euler --q -1/2 --upto 3": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: q must satisfy 0 < q < 1, got -1/2\n", 2,
    ),
    "numbers --family euler --q=-1/2 --upto 3": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: q must satisfy 0 < q < 1, got -1/2\n", 2,
    ),
    "numbers --family nosuch --q 0 --upto -1": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: q must satisfy 0 < q < 1, got 0\n", 2,
    ),
    "roots --family nosuch --q 1/2 -n 0": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: unknown family 'nosuch'; choose from bernoulli, euler, genocchi-det,"
        " genocchi-table\n", 2,
    ),
    "poly --iterate euler --q 1/2 -n -5": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: expected two comma-separated names, got 'euler'\n", 2,
    ),
    "roots --family euler --q 1/2 -n 0 --out no-such-dir/out.txt": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: -n must be >= 1 for roots\n", 2,
    ),
    "sample --family euler --q 1/2 --xmin 0 --xmax 1": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: sample needs -n or --degrees\n", 2,
    ),
    "sample --family euler --q 1/2 -n 2 --xmin 1 --xmax 1": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: --xmin must be < --xmax\n", 2,
    ),
    "sample --family euler --q 1/2 -n 2 --xmin 0 --xmax 1 --steps 1": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: --steps must be >= 2\n", 2,
    ),
    "sample --family euler --q 1/2 --degrees 1,x --xmin 0 --xmax 1": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: bad --degrees list '1,x'\n", 2,
    ),
    "sample --family euler --q 1/2 -n 2 --xmin 0.5 --xmax 1": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: '0.5' is not an exact rational; write it as a fraction like '1/2'\n", 2,
    ),
    "verify --format csv": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: verify supports text or json output\n", 2,
    ),
    "verify --upto 3": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: verify needs --upto >= 4 to cover the reference tables\n", 2,
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


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN))
def test_cli_digests(command, capsys):
    code = cli.main(command.split())
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert _sha256(out) == CLI_GOLDEN[command]


@pytest.mark.parametrize("command", list(CLI_PARITY))
def test_cli_parity(command, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # --out no-such-dir/out.txt must fail to open
    code = cli.main(command.split())
    out, err = capsys.readouterr()
    assert (_sha256(out), err, code) == CLI_PARITY[command]


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
