"""Golden digests of the fixture books and of three fixture reports.

The book and full-precision report digests were taken before the build path
was reworked to resolve each ply once and to render position keys directly;
the two ``--precision 3`` report digests before the report tables were
written by one renderer. Any change to book or report bytes shows up here
first.
"""

import hashlib
import os

import pytest

from openbook.cli import main

BOOK_SHA256 = {
    ("pb_mini", 6): "4dd60993b34062d23703bdd2c133a1784e35546b5e136b4d70d5064f6991ef54",
    ("comp_mini", 6): "f1706a88f3412add541f5dbdd98e785025fe199f4382edf87625db418c2f409f",
    ("pb_mini", 12): "229052906ceeab4983b6f7b3a4b71fd444a86a5b8b76a17225db1b556f7634bd",
    ("comp_mini", 12): "4b1a5268157b5e4639f6c095554c2a2f2bdaf57270a3ee02add0d1ef8ec71563",
    ("pb_mini", 40): "470b027d0705465655898652fde1d020ccb69df0d9290d505903b0f30118dcf4",
    ("comp_mini", 40): "6f10703571ba92da21728b87f2bf523f9a6554a0c2921230d780cd153d5d67de",
}

REPORT_SHA256 = {
    "comparison.tsv": "42e1c42f0f12af8613f197f1d439678156edeafcde748257cb2949f4284f5e29",
    "expected_score.tsv": "ade0257317d38ecc637f429b40cd5e419a4882bec1ed339409cbd810e32b210b",
    "report.md": "2d915751ba82de01bdd407bcdb79483ce4a6088bfb381b99512d3f7d5faf628f",
}

# --precision 3 --exclude 26, by --min-games: at 1 the full pass has a CI and
# the excluded pass a note; at 9 both tables hold undefined cells and
# summaries, and both pearson lines are undefined
PRECISION_3_REPORT_SHA256 = {
    "1": {
        "comparison.tsv": "70461fa73a3da4ba8380ad31ce7883f8caa5c97aa123c159a31171c8e7cbe587",
        "expected_score.tsv": "874552f8bc5a67c34017d21d97fe44a06e53e2a6cdb4cfeaaa6b44635bcedc71",
        "report.md": "c8cf790be1aa918c96da14572835bea75dec436707f70ea64c0bcb826580c5e1",
    },
    "9": {
        "comparison.tsv": "31ce97b9c03c882b5efa250f01317716500db92bcb5503702efa46e7798b6c7b",
        "expected_score.tsv": "ca3e369c399b4d3a20cb0e8d9c2058470bf7b1261a85e6a8d5d5329a167c3467",
        "report.md": "e4357b8884a3e17459353f34605e198f6ed17c55374d427d59851731e678c6c7",
    },
}


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@pytest.mark.parametrize("depth", [6, 12, 40])
def test_fixture_books_byte_identical(tmp_path, fixtures_dir, depth):
    for name in ("pb_mini", "comp_mini"):
        out = str(tmp_path / f"{name}.book")
        assert main(["build", "--pgn", os.path.join(fixtures_dir, name + ".pgn"),
                     "--depth", str(depth), "--out", out]) == 0
        assert _sha256(out) == BOOK_SHA256[(name, depth)]


def _depth_40_books(tmp_path, fixtures_dir):
    books = []
    for name in ("pb_mini", "comp_mini"):
        books.append(str(tmp_path / f"{name}.book"))
        assert main(["build", "--pgn", os.path.join(fixtures_dir, name + ".pgn"),
                     "--depth", "40", "--out", books[-1]]) == 0
    return books


def test_full_precision_report_byte_identical(tmp_path, fixtures_dir, suite3_path):
    books = _depth_40_books(tmp_path, fixtures_dir)
    out = tmp_path / "report"
    assert main(["compare", "--book1", books[0], "--book2", books[1],
                 "--suite", suite3_path, "--min-games", "1", "--bootstrap", "1000",
                 "--seed", "7", "--precision", "full", "--out", str(out)]) == 0
    assert {name: _sha256(str(out / name)) for name in REPORT_SHA256} == REPORT_SHA256


@pytest.mark.parametrize("min_games", sorted(PRECISION_3_REPORT_SHA256))
def test_precision_3_report_byte_identical(tmp_path, fixtures_dir, suite3_path, min_games):
    books = _depth_40_books(tmp_path, fixtures_dir)
    out = tmp_path / "report"
    assert main(["compare", "--book1", books[0], "--book2", books[1],
                 "--suite", suite3_path, "--min-games", min_games, "--bootstrap", "1000",
                 "--seed", "7", "--precision", "3", "--exclude", "26",
                 "--out", str(out)]) == 0
    expected = PRECISION_3_REPORT_SHA256[min_games]
    assert {name: _sha256(str(out / name)) for name in expected} == expected
