"""The CLI pins: every command whose stdout, stderr and exit code a change
must keep byte for byte, unless it states the change in CHANGES.md.

Each pin holds the argv, the SHA-256 of stdout, the exact stderr, the exit
code and a tier.  The tier-1 suite runs the ``tier1`` pins
(``tests/test_golden.py``); the ``ci`` pins are the costly ones.  Run as a
script, this runs every pin against the ``qappell`` it imports and prints
one row per pin, ``same`` or ``changed`` with the old and the new values,
and exits 1 if any changed:

    PYTHONPATH=src python tests/parity.py

For an intended change, the ``changed`` rows are the values to cite.
"""

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from typing import NamedTuple

from qappell import cli


class Pin(NamedTuple):
    argv: list[str]
    digest: str  # SHA-256 of stdout
    stderr: str
    code: int
    tier: str  # "tier1" or "ci"


EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # no stdout

PINS = [
    # the pair, determinant and cross-method paths of each command
    Pin(["numbers", "--iterate", "bernoulli,euler", "--q", "1/2", "--upto", "12",
         "--method", "all"],
        "45b7ca6b55e0989b01d6ff22ee4b8b269d742db5ce3e13d7a6dbd11dc6d26c41", "", 0, "tier1"),
    Pin(["numbers", "--mixed", "euler,genocchi-table", "--q", "1/3", "--upto", "4",
         "--format", "csv"],
        "9bc37cee8b1f870a5fb816b6301f5526a63f12cacdeca5f9eb760371480856a7", "", 0, "tier1"),
    Pin(["poly", "--family", "genocchi-det", "--q", "2/5", "-n", "9", "--method", "all",
         "--format", "json"],
        "68b9ac5961a14a2b0376cbf1d00a1f57350d006ec1ad0572b12082e57769b299", "", 0, "tier1"),
    Pin(["roots", "--iterate", "bernoulli,bernoulli", "--q", "1/2", "-n", "6", "--method", "all"],
        "0b3510192d5f384abe0f3e9ff4bdf334bae3c8b69933400bbd0513059834928c", "", 0, "tier1"),
    Pin(["sample", "--iterate", "bernoulli,euler", "--q", "1/2", "--degrees", "1,3,5",
         "--xmin", "-2", "--xmax", "2", "--steps", "9"],
        "3cd7921fd86fb47af5a8ea0e29490e5171a713a675b7153e1c407e35f81d2005", "", 0, "tier1"),
    # thousands of digits: numbers reads each route's numbers without building
    # a polynomial, and sample rounds its decimals from unreduced integers;
    # stdout keeps the SHA-256 it had when the polynomials were built
    Pin(["numbers", "--mixed", "bernoulli,euler", "--q", "5/11", "--upto", "96", "--format", "csv"],
        "0a8a7017628200d4b7279a7100f85f6cc7b95b74c715d44d019f5f402c112faa", "", 0, "tier1"),
    Pin(["numbers", "--iterate", "genocchi-det,euler", "--q", "5/11", "--upto", "64",
         "--method", "all"],
        "092034666931de7b301f8823a9f97381bb20079e43104b4b0ea700c719b18d2a", "", 0, "tier1"),
    Pin(["sample", "--iterate", "bernoulli,euler", "--q", "5/11", "--degrees", "64,96",
         "--xmin", "-2", "--xmax", "2", "--steps", "2001", "--format", "csv"],
        "f69f800afc8d2beeb5f2e41497752b087f2109ce042ab295ac02a1ec155069d7", "", 0, "tier1"),
    # every command in every format, a single family and a pair, one method
    # and --method all, and each usage error
    # numbers x text/json/csv; single and pair; one method and all
    Pin(["numbers", "--family", "bernoulli", "--q", "1/2", "--upto", "6"],
        "5029911504209d389ce408546fe137a4f3b274b92d57cd59a0f9c8867871fac6", "", 0, "tier1"),
    Pin(["numbers", "--iterate", "bernoulli,euler", "--q", "1/2", "--upto", "5", "--method", "all",
         "--format", "json"],
        "3a971d9b282e7998d710cf1a5a061803c5ee7fe4a2ad94029342255c6b5c6736", "", 0, "tier1"),
    Pin(["numbers", "--family", "euler", "--q", "2/5", "--upto", "5", "--method", "determinant",
         "--format", "csv"],
        "8190b666d9a3c480f7043affbb8d595ce4d9491d4591fa6ca216eaa84af58580", "", 0, "tier1"),
    Pin(["numbers", "--mixed", "euler,genocchi-table", "--q", "1/3", "--upto", "4",
         "--method", "operator", "--format", "json"],
        "73c70a5de636eaad0ef013f2461dcdba96802af7274e87198e61b1ca6d428180", "", 0, "tier1"),
    # poly
    Pin(["poly", "--family", "euler", "--q", "1/2", "-n", "5"],
        "1fe14f7e7838ad8449ccec41d2bdb15ed71b520b9574007693c2442d205700ee", "", 0, "tier1"),
    Pin(["poly", "--iterate", "bernoulli,euler", "--q", "1/2", "-n", "4", "--method", "all"],
        "7334ca695360b93aa9f40faaca24aaeadd1f07d518c7e0b1e77e726e8c4f1047", "", 0, "tier1"),
    Pin(["poly", "--family", "bernoulli", "--q", "1/3", "-n", "6", "--method", "operator",
         "--format", "json"],
        "abe28fcaf3aab6d87fa3a9629c0874db5146df774f666a3ab3b989e579bbc67c", "", 0, "tier1"),
    Pin(["poly", "--mixed", "euler,genocchi-table", "--q", "1/2", "-n", "4", "--method", "all",
         "--format", "json"],
        "678356856337f5e83644a9e3bb5ce066dfdfc934c9e6f439e8c98796edafd224", "", 0, "tier1"),
    Pin(["poly", "--iterate", "bernoulli,bernoulli", "--q", "1/2", "-n", "5",
         "--method", "determinant", "--format", "csv"],
        "f53d89ad4356e222115ca0e30bfcb66adef07b290e049ebd323073a047a64126", "", 0, "tier1"),
    Pin(["poly", "--family", "genocchi-det", "--q", "1/2", "-n", "4", "--method", "all",
         "--format", "csv"],
        "694da054461a958ae0e2dcc6e04de29341bd4dd23076c5a7a7db7b509c09432c", "", 0, "tier1"),
    # roots, --full-precision in each format
    Pin(["roots", "--family", "euler", "--q", "1/2", "-n", "5"],
        "1712c58d99e85718435c9e2ca15fe1afe3314f290672c6f5fcfc1edb616fcee2", "", 0, "tier1"),
    Pin(["roots", "--family", "bernoulli", "--q", "1/2", "-n", "6", "--method", "all",
         "--format", "json"],
        "bee88e82d834bbbbb196b464161f32ed164fa655acd00f04e523bc99aa3420cd", "", 0, "tier1"),
    Pin(["roots", "--iterate", "bernoulli,euler", "--q", "1/2", "-n", "5", "--format", "csv"],
        "38d943c5e6d6b3bdf8ddd0ccc531d33c5a9fc4203bf5cbca12c4e99754fccc3a", "", 0, "tier1"),
    Pin(["roots", "--family", "euler", "--q", "1/2", "-n", "5", "--method", "determinant",
         "--full-precision"],
        "1b720d85afc95d9153adffd942e7394a2b8f8c8595c717bba57b2044e5c3ea80", "", 0, "tier1"),
    Pin(["roots", "--iterate", "bernoulli,euler", "--q", "1/2", "-n", "5", "--method", "all",
         "--full-precision", "--format", "csv"],
        "5884a4cce8de2ea1f1183e018af87c229146d238a9f1b59c1254717b78cc0d8b", "", 0, "tier1"),
    Pin(["roots", "--mixed", "euler,bernoulli", "--q", "1/3", "-n", "4", "--method", "operator",
         "--full-precision", "--format", "json"],
        "b8dd4fd88c46502e5c793226812fd1e5f765e28afde947227c17ec4080e28132", "", 0, "tier1"),
    # sample
    Pin(["sample", "--family", "bernoulli", "--q", "1/2", "-n", "3", "--xmin", "-1", "--xmax", "1",
         "--steps", "5"],
        "d56b46e096d8fba5645d3cda89f2cd5384a0dc49e72d38cfb185617753464dda", "", 0, "tier1"),
    Pin(["sample", "--family", "euler", "--q", "1/2", "--degrees", "1,2", "--xmin", "0",
         "--xmax", "1", "--steps", "3", "--format", "json"],
        "670926e2a65d259d575c76fe8df3f865caef55c4f279f060e27c8da25fb702a8", "", 0, "tier1"),
    Pin(["sample", "--iterate", "bernoulli,euler", "--q", "1/2", "-n", "2", "--xmin=-1/2",
         "--xmax", "1/2", "--steps", "4", "--format", "csv"],
        "15af1decfdcc382eedf93d5f33581a22bb5ccc4b07d32961ce5b01b412a53253", "", 0, "tier1"),
    # the spaced form of a negative fraction endpoint prints the same
    Pin(["sample", "--iterate", "bernoulli,euler", "--q", "1/2", "-n", "2", "--xmin", "-1/2",
         "--xmax", "1/2", "--steps", "4", "--format", "csv"],
        "15af1decfdcc382eedf93d5f33581a22bb5ccc4b07d32961ce5b01b412a53253", "", 0, "tier1"),
    # verify
    Pin(["verify"],
        "e881d206f0db93110cb613788fc5623f41eb664ba4f3e8c6b1542fedb3917197", "", 0, "tier1"),
    Pin(["verify", "--q", "1/3", "--format", "json"],
        "c5b561ac32e941c311e568f004405cdc0e70084ab78ded1df025cf7c8db319be", "", 0, "tier1"),
    # each CliError path, and which check wins when two fail
    Pin(["numbers", "--family", "bernoulli", "--q", "1/2", "--upto", "-1"],
        EMPTY, "error: --upto must be >= 0\n", 2, "tier1"),
    Pin(["poly", "--family", "bernoulli", "--q", "1/2", "-n", "-1"],
        EMPTY, "error: -n must be >= 0\n", 2, "tier1"),
    Pin(["roots", "--family", "bernoulli", "--q", "1/2", "-n", "0"],
        EMPTY, "error: -n must be >= 1 for roots\n", 2, "tier1"),
    Pin(["numbers", "--family", "bernoulli", "--q", "1/2", "--upto", "129"],
        EMPTY, "error: --upto 129 is above the cap of 128 (see the README)\n", 2, "tier1"),
    Pin(["roots", "--iterate", "bernoulli,euler", "--q", "1/2", "-n", "129"],
        EMPTY, "error: -n 129 is above the cap of 128 (see the README)\n", 2, "tier1"),
    Pin(["poly", "--family", "euler", "--q", "2", "-n", "3"],
        EMPTY, "error: q must satisfy 0 < q < 1, got 2\n", 2, "tier1"),
    Pin(["poly", "--family", "euler", "--q", "abc", "-n", "3"],
        EMPTY, "error: cannot parse 'abc' as a rational\n", 2, "tier1"),
    Pin(["poly", "--family", "nosuch", "--q", "1/2", "-n", "3"],
        EMPTY, "error: unknown family 'nosuch'; choose from bernoulli, euler, genocchi-det,"
        " genocchi-table\n", 2, "tier1"),
    Pin(["roots", "--iterate", "bernoulli", "--q", "1/2", "-n", "3"],
        EMPTY, "error: expected two comma-separated names, got 'bernoulli'\n", 2, "tier1"),
    # run in an empty working directory, so the directory is missing
    Pin(["numbers", "--family", "euler", "--q", "1/2", "--upto", "3",
         "--out", "no-such-dir/out.txt"],
        EMPTY, "error: cannot write no-such-dir/out.txt: No such file or directory\n", 2, "tier1"),
    # a negative q, spaced or not, is bound to --q and refused by its range
    Pin(["numbers", "--family", "euler", "--q", "-1/2", "--upto", "3"],
        EMPTY, "error: q must satisfy 0 < q < 1, got -1/2\n", 2, "tier1"),
    Pin(["numbers", "--family", "euler", "--q=-1/2", "--upto", "3"],
        EMPTY, "error: q must satisfy 0 < q < 1, got -1/2\n", 2, "tier1"),
    Pin(["numbers", "--family", "nosuch", "--q", "0", "--upto", "-1"],
        EMPTY, "error: q must satisfy 0 < q < 1, got 0\n", 2, "tier1"),
    Pin(["roots", "--family", "nosuch", "--q", "1/2", "-n", "0"],
        EMPTY, "error: unknown family 'nosuch'; choose from bernoulli, euler, genocchi-det,"
        " genocchi-table\n", 2, "tier1"),
    Pin(["poly", "--iterate", "euler", "--q", "1/2", "-n", "-5"],
        EMPTY, "error: expected two comma-separated names, got 'euler'\n", 2, "tier1"),
    Pin(["roots", "--family", "euler", "--q", "1/2", "-n", "0", "--out", "no-such-dir/out.txt"],
        EMPTY, "error: -n must be >= 1 for roots\n", 2, "tier1"),
    Pin(["sample", "--family", "euler", "--q", "1/2", "--xmin", "0", "--xmax", "1"],
        EMPTY, "error: sample needs -n or --degrees\n", 2, "tier1"),
    Pin(["sample", "--family", "euler", "--q", "1/2", "-n", "2", "--xmin", "1", "--xmax", "1"],
        EMPTY, "error: --xmin must be < --xmax\n", 2, "tier1"),
    Pin(["sample", "--family", "euler", "--q", "1/2", "-n", "2", "--xmin", "0", "--xmax", "1",
         "--steps", "1"],
        EMPTY, "error: --steps must be >= 2\n", 2, "tier1"),
    Pin(["sample", "--family", "euler", "--q", "1/2", "--degrees", "1,x", "--xmin", "0",
         "--xmax", "1"],
        EMPTY, "error: bad --degrees list '1,x'\n", 2, "tier1"),
    Pin(["sample", "--family", "euler", "--q", "1/2", "-n", "2", "--xmin", "0.5", "--xmax", "1"],
        EMPTY, "error: '0.5' is not an exact rational; write it as a fraction like '1/2'\n", 2,
        "tier1"),
    Pin(["verify", "--format", "csv"],
        EMPTY, "error: verify supports text or json output\n", 2, "tier1"),
    Pin(["verify", "--upto", "3"],
        EMPTY, "error: verify needs --upto >= 4 to cover the reference tables\n", 2, "tier1"),
    # an empty family name is an unknown family, and an empty pair names none
    Pin(["poly", "--q", "1/2", "--family", "", "-n", "4"],
        EMPTY, "error: unknown family ''; choose from bernoulli, euler, genocchi-det,"
        " genocchi-table\n", 2, "tier1"),
    Pin(["numbers", "--q", "1/2", "--iterate", "", "--upto", "3"],
        EMPTY, "error: expected two comma-separated names, got ''\n", 2, "tier1"),

    # the audit's family set: every built-in and ordered pair, each product
    # holding its two factors for the determinant and operator routes
    Pin(["verify", "--q", "1/2"],
        "e881d206f0db93110cb613788fc5623f41eb664ba4f3e8c6b1542fedb3917197", "", 0, "ci"),
    # the property suite past order 12, at a q other than 1/2; its 2-iterates
    # and ladder links are formed once each, so the report must stay byte-identical
    Pin(["verify", "--q", "1/3", "--upto", "16"],
        "60d65923e82d287c965316f418a69e75a91341e1d96be987f2a1f1e3413d1da3", "", 0, "ci"),
    # large denominators: the integer polynomial kernels at q = 5/11
    Pin(["verify", "--q", "5/11", "--upto", "24"],
        "917ed9557a21dda17b07b972f5bf302a7bed664359a9ff62abbb5764b7fdfc7f", "", 0, "ci"),
    # past the order-24 golden: the determinant family's members from tau, the
    # kept operator scalars and the umbral 2-iterated route at about 2 000-bit
    # coefficients
    Pin(["verify", "--q", "5/11", "--upto", "32"],
        "98ba113362b4e0d637378febb439deaf9fcf0cec9515dd629871e72c2bbd89c5", "", 0, "ci"),
    # the JSON report at a q with no printed 2-iterated tables: each pair with
    # genocchi-table (order 4) holds an order-12 single as its other factor,
    # and the product is taken at the lower order
    Pin(["verify", "--q", "2/3", "--upto", "12", "--format", "json"],
        "0e856fb614b864adac3a71e03e4df752ab631c8b2aeeb4c63a7bda4c547c56f4", "", 0, "ci"),
    # a tall q: every printed closed form, read from the fixture's integer
    # coefficient lists, evaluated on integers of about 300 bits
    Pin(["verify", "--q", "1/1000000000", "--upto", "4"],
        "bc0fc4bcd2a8108492243032aefc5a4b9daa69429bc5826f635a7704bc3913c3", "", 0, "ci"),
    # roots and sample import their modules lazily, on first use
    Pin(["roots", "--family", "euler", "--q", "1/2", "-n", "4"],
        "336e6e12b62f9a3adde6a4ddb11b28d939fa9e942b07de1e49d891171d66ad42", "", 0, "ci"),
    Pin(["sample", "--family", "euler", "--q", "1/2", "-n", "3", "--xmin", "0", "--xmax", "1",
         "--steps", "3"],
        "307070ab5950ada06918036aa54eea6e72fdb97b71fca29053ea9b72e56e72ee", "", 0, "ci"),
    # the exact-residual stage separates zeros 1 +/- 2.39e-10i into one
    # conjugate pair; at q = 1/10, n = 39 it names a cluster (exit 3)
    Pin(["roots", "--iterate", "bernoulli,bernoulli", "--q", "1/2", "-n", "37", "--full-precision"],
        "0c43c09280c76ebd4959439f7f94fe6ad2a7915b5b1b7fd1eddaa9cdb9095055", "", 0, "ci"),
    Pin(["roots", "--iterate", "bernoulli,bernoulli", "--q", "1/10", "-n", "39"],
        EMPTY, "root finding failed: zeros near 1 not isolated in double precision"
        " (inclusion radii 2.7e-12, 6.7e-13)\n", 3, "ci"),
    # the determinant and operator routes against the series route
    Pin(["poly", "--mixed", "euler,bernoulli", "--q", "1/2", "-n", "8", "--method", "all"],
        "c074fd736c21f88c4133b884919fa16d1de4385a2b59f137bd875e552b0af682", "", 0, "ci"),
    Pin(["numbers", "--family", "genocchi-det", "--q", "2/3", "--upto", "12", "--method", "all"],
        "929d89ae95809e79539ad47f7bc17a6d37642459374931882a63539418acf86e", "", 0, "ci"),
    # every degree of a pair through the one route dispatch, the determinant
    # numbers from the first factor's determinant family
    Pin(["numbers", "--iterate", "genocchi-det,euler", "--q", "5/11", "--upto", "48",
         "--method", "all"],
        "e0ee8e4b588f1a7626d228691a071cc02e75222ddd0786b6096cf15b1647d315", "", 0, "ci"),
    # a pair of beta-defined built-ins takes its numbers from the q-binomial
    # recurrence on W = t^2 beta^I beta^II, any other pair from one reciprocal
    # of beta^I * beta^II; the operator route reads the factors' numbers,
    # formed on demand
    Pin(["numbers", "--mixed", "bernoulli,genocchi-det", "--q", "5/11", "--upto", "24",
         "--method", "all"],
        "35d94a7a57c6a8cfeb127cb84f3ab4392141d4ee9bc41312324d531eec9101e9", "", 0, "ci"),
    Pin(["poly", "--iterate", "euler,euler", "--q", "5/11", "-n", "24", "--method", "all"],
        "51a3a84640bbf007a0f53a81b358877ec7189b8a75e8dcdf96757b3ce9a0ceb6", "", 0, "ci"),
    # pairs of beta-defined built-ins take their numbers from the recurrence
    # on W at order 64; a route that disagrees with them exits 2
    Pin(["poly", "--iterate", "genocchi-det,genocchi-det", "--q", "7/9", "-n", "64",
         "--method", "all"],
        "099d92cc45d31f6ec45053228a305cec4bfe92693aff548860dfa9e1d926428c", "", 0, "ci"),
    Pin(["poly", "--mixed", "euler,bernoulli", "--q", "5/11", "-n", "64", "--method", "all"],
        "ee7527c5f6920e1c1e963372893ffa8e4575c57fe9219e49f4af10711f9fea5c", "", 0, "ci"),
    # the determinant route alone at the order cap, against the digests the
    # series route gives: D from one Toeplitz-Hessenberg recurrence per
    # family, then one convolution for a pair
    Pin(["numbers", "--mixed", "euler,bernoulli", "--q", "5/11", "--upto", "128",
         "--method", "determinant"],
        "075c79d8bbe150f60f731b9fd8c188cb2735843fd8a1492a401ece7e35f2cd08", "", 0, "ci"),
    Pin(["numbers", "--family", "genocchi-det", "--q", "5/11", "--upto", "128",
         "--method", "determinant"],
        "ad63702f3a567202eba000bc545c19fe1e8464848cebaa691d0a4a6ebd588aef", "", 0, "ci"),
    # the determinant route's polynomials at large order, against the series
    # route's digests: the determinant family's member for a single, its
    # 2-iterate with the second factor for a pair
    Pin(["poly", "--mixed", "euler,bernoulli", "--q", "5/11", "-n", "96",
         "--method", "determinant"],
        "be37c8748ffd208730767491cf5bc0fa4774c623a1d67d5fce1ea762f1184845", "", 0, "ci"),
    Pin(["poly", "--family", "genocchi-det", "--q", "5/11", "-n", "128", "--method", "determinant"],
        "1711b7e059c2b88f5d0948588f2c13b7c01b7ab2196fb4db1b8ebc96b3a66600", "", 0, "ci"),
    # subnormal coefficients: a disc radius underflows to 0.0 while the exact
    # residual is not 0, which is refused by name (exit 3); the discs do not
    # overlap, so one exact evaluation decides
    Pin(["roots", "--family", "bernoulli", "--q", "1/1000", "-n", "104"],
        EMPTY, "root finding failed: inclusion disc of the zero near 0.0008767+0.0003481i"
        " underflows to radius 0.0\n", 3, "ci"),
]


def run(argv: list[str]) -> tuple[str, str, int]:
    """(stdout SHA-256, stderr, exit code) of ``qappell *argv``, run in process
    in a fresh temporary working directory, so that --out writes nowhere else."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        finally:
            os.chdir(cwd)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), err.getvalue(), code


def main() -> int:
    changed = 0
    for pin in PINS:
        old = (pin.digest, pin.stderr, pin.code)
        try:
            new = run(pin.argv)
        except Exception as exc:  # a traceback is a change too
            new = repr(exc)
        row = f"{pin.tier:5} {shlex.join(pin.argv)}"
        if new == old:
            print(f"same    {row}")
        else:
            changed += 1
            print(f"changed {row}: {old!r} -> {new!r}")
    print(f"{len(PINS)} pins, {changed} changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
