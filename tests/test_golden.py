"""Byte-identical gate on `qappell verify` output.

The digests pin the text rendering and the sorted-key JSON rendering of
`run_verify`.  Any change to either rendering, intended or not, shows up
here and has to be stated in CHANGES.md.
"""

import hashlib
import json
from fractions import Fraction as F

import pytest

from qappell.audit import run_verify

GOLDEN = {
    (F(1, 2), 8): (
        "9be3bda4f4463bdfa6c99ef44c812c3a3b12e6ea086447a6eb9cbef696817e9f",
        "690a086a8c030c9076982605bbcb9ac5a6d3042f71b49d7f5a79f6d0e2a83d3b",
    ),
    (F(1, 2), 12): (
        "8ce32f9fa432603cff29cadd4dbbe89f9042358d0da48296a5e0f82cf237dd9b",
        "8bd0c376b143e72d8b036c5321b31a24bb14c92b8155abb0524a695ad9d29e46",
    ),
    (F(1, 3), 8): (
        "7bce3119c3b5de91be21d238b7c57b04f5d3c643e0cde9d991aaecc598dc1477",
        "c8e9538ffa0aa9279c0c44dba0918832f8071e8a36d5516db6070aa15cbb4884",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("q, order", sorted(GOLDEN), ids=lambda v: str(v))
def test_verify_digests(q, order):
    report = run_verify(q, order)
    text_digest, json_digest = GOLDEN[(q, order)]
    assert report.exit_code == 0
    assert _sha256(report.to_text()) == text_digest
    assert _sha256(json.dumps(report.to_json_dict(), sort_keys=True)) == json_digest
