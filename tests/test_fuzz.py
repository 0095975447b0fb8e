"""Fuzz checks: arbitrary input bytes give a documented outcome, never a crash.

Inputs are drawn from fragments of well-formed PGN, EPD and book text mixed
with arbitrary bytes, so that most examples get past the first line of each
parser. Example counts are capped to keep the tier-1 run short.
"""

import hashlib
import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import recorded
from tempfiles import saved, written
from openbook import rules
from openbook.book import BookFormatError, build_book, load_book
from openbook.cli import main
from openbook.pgn import GameRecord, MalformedGame, parse_pgn_stream

START_KEY = rules.position_key(rules.initial_position())
E4_KEY = rules.position_key(rules.parse_fen(
    "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq - 0 1"))

PGN_PIECES = [
    b'[Event "e"]\n', b'[Result "1-0"]\n', b'[Result "*"]\n', b'[WhiteElo "2500"]\n',
    b'[FEN "', b'4k3/8/8/8/8/8/8/4K3 w - - 0 1', b'"]\n', b"\xc2\xb2", b"\xd9\xa8",
    b'[FEN "4k3/8/8/8/8/8/8/4K\xc2\xb21 w - - 0 1"]\n', b'[FEN "4k3/\xd9\xa8/8/8/8/8/8/4K3 w - -"]\n',
    b"\n", b" ", b"1.", b"2...", b"e4", b"e5", b"Nf3", b"Kd2", b"O-O", b"exd5", b"e8=Q",
    b"1-0", b"0-1", b"1/2-1/2", b"*", b"{", b"}", b"(", b")", b";", b"$1", b"--",
    b"\xff", b"%", b"[", b"]", b'"',
]
EPD_PIECES = [
    b"rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq -",
    b"rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq -",
    b"4k3/8/8/8/8/8/8/4K3 w - -", b' id "a";', b' id "b";', b" id x;", b" bm e4;",
    b"\n", b" ", b"#", b"\xc2\xb2", b"\xff\xfe", b"\r",
]


def _chunks(pieces, max_size):
    return st.lists(st.one_of(st.sampled_from(pieces), st.binary(max_size=4)),
                    max_size=max_size).map(b"".join)


def _signed(body: bytes) -> bytes:
    """A book body with a valid checksum line, so the parser reads past it."""
    return body + b"sha256 " + hashlib.sha256(body).hexdigest().encode() + b"\n"


def _block(key, moves):
    """A pos line and its mv lines, each games count the sum of its results."""
    return [b"pos " + key] + [b"mv %s %d %d %d %d" % (san, sum(results), *results)
                              for san, results in moves]


def _book_text(header, blocks, depth):
    lines = [line for block in blocks for line in block]
    meta = b"meta source=s games=3 positions=%d depth=%d" % (len(blocks), depth)
    return b"\n".join([header, meta, *lines]) + b"\n"


_count = st.integers(min_value=-1, max_value=2)
_moves = st.lists(st.tuples(st.sampled_from([b"e4", b"d4", b"e5"]),
                            st.tuples(_count, _count, _count)), max_size=3)
_blocks = st.lists(st.builds(_block, st.sampled_from([START_KEY.encode(), E4_KEY.encode()]),
                             _moves), max_size=2)
BOOK_BYTES = st.one_of(
    st.binary(max_size=40),
    st.builds(_book_text, st.just(b"openbook-diff v1"), _blocks,
              st.integers(min_value=0, max_value=4)).map(_signed))


# a FEN tag with "²" for a digit once aborted the stream with a ValueError
@settings(max_examples=300, deadline=None)
@example(b'[FEN "4k3/8/8/8/8/8/8/4K\xc2\xb21 w - - 0 1"]\n\n1. Kd2 1-0\n')
@given(_chunks(PGN_PIECES, 40))
def test_pgn_stream_yields_only_records_and_reports(data):
    for item in parse_pgn_stream(written(data), 0):
        assert isinstance(item, (GameRecord, MalformedGame))


def _saved_book():
    games = [recorded(["e4", "e5", "Nf3"], "1-0"), recorded(["d4"], "0-1"),
             recorded(["e4", "c5"], "1/2-1/2")]
    return saved(build_book(games, max_depth=3, source="fuzz")).encode()


SAVED_BOOK = _saved_book()


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=len(SAVED_BOOK) - 1),
       st.integers(min_value=1, max_value=255))
def test_any_single_byte_change_to_a_book_is_rejected(index, delta):
    corrupted = bytearray(SAVED_BOOK)
    corrupted[index] = (corrupted[index] + delta) % 256
    with pytest.raises(BookFormatError):
        load_book(written(bytes(corrupted)))


def _games_with(prefix):
    """A line edit that writes a mv line's games count with ``prefix`` in front."""
    return lambda line: re.sub(rb"^(mv \S+ )", lambda m: m.group(1) + prefix, line)


# edits that turn save_book's text into text it never writes
_EDITS = [
    lambda line: line,
    lambda line: line.replace(b" ", b"  ", 1),
    lambda line: line.replace(b" ", b"\t", 1),
    lambda line: line + b" ",
    _games_with(b"+"),
    _games_with(b"0"),
    _games_with(b"0_"),
    lambda line: line + b"\n" + line,
]
_SAN = st.sampled_from([b"e4", b"d4", b"e5", b"Nf3"])
_RESULTS = st.tuples(*[st.integers(min_value=0, max_value=3)] * 3)


@st.composite
def _drawn_books(draw):
    """Book text near save_book's form: blocks in drawn or canonical order, one line edited."""
    blocks = draw(st.dictionaries(st.sampled_from([START_KEY.encode(), E4_KEY.encode()]),
                                  st.dictionaries(_SAN, _RESULTS, max_size=3), max_size=2))
    canonical = draw(st.booleans())
    items = sorted(blocks.items()) if canonical else list(blocks.items())
    lines = []
    for key, moves in items:
        moves = [(san, sum(results), *results) for san, results in moves.items()]
        if canonical:
            moves.sort(key=lambda move: (-move[1], move[0]))
        lines += [b"pos " + key] + [b"mv %s %d %d %d %d" % move for move in moves]
    source = draw(st.sampled_from([b"s", "caf\u00e9".encode(), b"a games=1 positions=9 depth=1"]))
    games = draw(st.integers(min_value=0, max_value=9))
    positions = len(blocks) + draw(st.sampled_from([0, 0, 0, 1]))
    depth = draw(st.integers(min_value=0, max_value=4))
    lines[:0] = [b"openbook-diff v1", b"meta source=%s games=%d positions=%d depth=%d" % (
        source, games, positions, depth)]
    at = draw(st.integers(min_value=1, max_value=len(lines) - 1))
    lines[at] = draw(st.sampled_from(_EDITS))(lines[at])
    return _signed(b"\n".join(lines) + b"\n")


# a checksummed "mv e4 +1 0_1 0 0" once loaded as 1/1/0/0 and saved back as "mv e4 1 1 0 0"
@settings(max_examples=300, deadline=None)
@example(_signed(_book_text(b"openbook-diff v1", [[b"pos " + START_KEY.encode(),
                                                   b"mv e4 +1 0_1 0 0"]], 1)))
@example(SAVED_BOOK)
@given(_drawn_books())
def test_every_book_load_book_accepts_is_saved_back_byte_for_byte(data):
    try:
        book = load_book(written(data))
    except BookFormatError:
        return
    assert saved(book).encode() == data


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# a checksummed book with a move played zero times once crashed query and compare
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@example(b"", b"", _signed(_book_text(b"openbook-diff v1", [_block(START_KEY.encode(),
                                                             [(b"e4", (0, 0, 0))])], 1)), "1")
@given(_chunks(PGN_PIECES, 40), _chunks(EPD_PIECES, 12), BOOK_BYTES,
       st.sampled_from(["1", "2", "40"]))
def test_cli_ends_with_a_documented_exit_code(pgn, suite, book, depth):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in ("in.pgn", "s.epd", "b.book")}
        for name, data in (("in.pgn", pgn), ("s.epd", suite), ("b.book", book)):
            with open(paths[name], "wb") as handle:
                handle.write(data)
        built = os.path.join(tmp, "built.book")
        assert _exit_code(["build", "--pgn", paths["in.pgn"], "--depth", depth,
                           "--out", built]) in (0, 1, 2)
        if not os.path.exists(built):
            built = paths["b.book"]
        assert _exit_code(["query", "--book", paths["b.book"], "--fen", rules.START_FEN,
                           "--min-games", "0"]) in (0, 1, 2)
        assert _exit_code(["compare", "--book1", built, "--book2", paths["b.book"],
                           "--suite", paths["s.epd"], "--min-games", "1",
                           "--bootstrap", "1000", "--out", os.path.join(tmp, "r")]) in (0, 1, 2)
