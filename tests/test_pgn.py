import codecs
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempfiles import written
from openbook import pgn, rules
from openbook.book import load_book
from openbook.cli import main
from openbook.pgn import (
    NULL_MOVE_TOKENS,
    GameRecord,
    MalformedGame,
    _finish_game,
    _movetext_tokens,
    _strip_movetext,
    filter_games,
    parse_pgn_stream,
)

SIMPLE = """\
[Event "t"]
[Result "1-0"]

1. e4 e5 2. Nf3 1-0
"""


def parse(text):
    return list(parse_pgn_stream(written(text), 0))


def test_single_game():
    games = parse(SIMPLE)
    assert len(games) == 1
    game = games[0]
    assert isinstance(game, GameRecord)
    assert game.moves == ("e4", "e5", "Nf3")
    assert game.result == "1-0"
    assert game.tags["Event"] == "t"


def test_variations_comments_and_nags_skipped():
    games = parse('[Result "*"]\n\n1. e4 {king pawn} (1... c5 2. Nf3) '
                  '1... e5 $1 2. Nf3 (2. f4 exf4) Nc6 *')
    assert games[0].moves == ("e4", "e5", "Nf3", "Nc6")


def test_illegal_move_reported_with_index_and_fen():
    games = parse('[Result "1-0"]\n\n1. e4 e5 2. Ke3 Nf6 1-0')
    assert len(games) == 1
    report = games[0]
    assert isinstance(report, MalformedGame)
    assert report.move_index == 2
    # the position after 1.e4 e5
    assert report.reason == ("illegal SAN 'Ke3' in "
                             "rnbqkbnr/pppp1ppp/8/4p3/4P3/8/PPPP1PPP/RNBQKBNR w KQkq - 0 2")


# one loop of the replay records the first max_depth plies and a second only
# pushes the rest; 2 puts the failing token first in the second loop, 3 last
# in the first
@pytest.mark.parametrize("max_depth", [0, 1, 2, 3, 10])
@pytest.mark.parametrize("white_elo", ["2500", "1500"])
def test_illegal_move_reported_alike_within_and_past_the_depth(max_depth, white_elo):
    """An illegal move is reported with the same index and reason whether
    it lies within the recorded plies, past them, or in a game that the
    rating filter keeps out of the book."""
    text = (f'[WhiteElo "{white_elo}"]\n[BlackElo "2500"]\n[Result "1-0"]\n\n'
            '1. e4 e5 2. Ke3 Nf6 1-0')
    games = list(parse_pgn_stream(written(text), max_depth, min_rating=2000))
    assert games == [MalformedGame(
        1, "illegal SAN 'Ke3' in rnbqkbnr/pppp1ppp/8/4p3/4P3/8/PPPP1PPP/RNBQKBNR w KQkq - 0 2",
        move_index=2)]


def test_en_passant_marker_attached_or_as_its_own_token(tmp_path, capsys):
    """An "e.p." marker attached to the capture or written as its own token,
    and a "(ep)" aside, build byte-identical books of the one game."""
    books = []
    for index, capture in enumerate(("exf6e.p.", "exf6 e.p.", "exf6 (ep)")):
        directory = tmp_path / str(index)
        directory.mkdir()
        (directory / "ep.pgn").write_text(
            f'[Result "1-0"]\n\n1. e4 d5 2. e5 f5 3. {capture} Nxf6 1-0\n', encoding="utf-8")
        assert main(["build", "--pgn", str(directory / "ep.pgn"),
                     "--out", str(directory / "ep.book"), "--depth", "10"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "games=1 positions=6 depth=10" in out, (capture, out, err)
        books.append((directory / "ep.book").read_bytes())
    assert books[0] == books[1] == books[2]


def test_null_move_truncates_but_keeps_prefix():
    games = parse('[Result "1/2-1/2"]\n\n1. e4 e5 2. -- Nf6 1/2-1/2')
    game = games[0]
    assert isinstance(game, GameRecord)
    assert game.moves == ("e4", "e5")


@pytest.mark.parametrize("null", NULL_MOVE_TOKENS)
def test_every_null_token_truncates_like_dashes(null):
    # "0000" starts with a digit but is a null move, not a move number
    games = parse(f'[Result "1-0"]\n\n1. e4 {null} 2. d4 d5 1-0')
    assert isinstance(games[0], GameRecord)
    assert games[0].moves == ("e4",)


def test_multiple_games_and_count_conservation():
    text = SIMPLE + "\n" + '[Result "0-1"]\n\n1. d4 d5 0-1\n' \
        + "\n" + '[Result "1-0"]\n\n1. e4 zz9 1-0\n'
    games = parse(text)
    assert len(games) == 3
    assert sum(isinstance(g, GameRecord) for g in games) == 2
    assert sum(isinstance(g, MalformedGame) for g in games) == 1


def test_result_tag_conflicting_with_marker_reported():
    games = parse('[Result "0-1"]\n\n1. e4 1-0')
    assert isinstance(games[0], MalformedGame)


def test_result_from_tag_when_marker_missing():
    games = parse('[Result "1-0"]\n\n1. e4 e5')
    assert games[0].result == "1-0"


def test_latin1_fallback_in_tags():
    raw = '[White "K\xe4rner"]\n[Result "*"]\n\n1. e4 *\n'.encode("latin-1")
    games = list(parse_pgn_stream(written(raw), 0))
    assert games[0].tags["White"] == "K\xe4rner"


def test_glued_move_numbers():
    games = parse('[Result "*"]\n\n1.e4 e5 2.Nf3 *')
    assert games[0].moves == ("e4", "e5", "Nf3")


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_byte_order_mark_starts_no_game(line_end):
    """A UTF-8 byte-order mark, which Windows tools write, is dropped from
    the start of a file, whatever its line ends: the first tag stays a tag."""
    data = codecs.BOM_UTF8 + SIMPLE.replace("\n", line_end).encode()
    assert list(parse_pgn_stream(written(data), 0)) == parse(SIMPLE)


LINE_PIECES = [b"\n", b"\r", b"\r\n", b"e4", b" ", b"\xe4", b"\xc3\xa4", b"\xc3",
               codecs.BOM_UTF8]
CHUNK = 8192  # the bytes that io.TextIOWrapper decodes at a time


def split_whole(data):
    """The oracle: the lines of ``data`` split whole at LF, CRLF or CR,
    without their ends, each UTF-8 else Latin-1, and a byte-order mark
    dropped only at the start."""
    expected = []
    for raw in data.removeprefix(codecs.BOM_UTF8).splitlines():
        try:
            expected.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            expected.append(raw.decode("latin-1"))
    return expected


def read_lines(data):
    """The lines that parse_pgn_stream reads from a file of ``data``, without
    their ends: each line of _lines, re-read as Latin-1 from its bytes
    where _not_utf8 finds a byte that is not UTF-8 in it."""
    lines = list(pgn._lines(written(data)))
    assert all(line.endswith("\n") for line in lines[:-1])
    return [(line.encode("utf-8", "surrogateescape").decode("latin-1")
             if pgn._not_utf8(line) else line).removesuffix("\n") for line in lines]


def is_utf8(raw):
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(LINE_PIECES), max_size=30).map(b"".join))
def test_lines_keep_each_lines_bytes_and_flag_the_ones_not_utf8(data):
    """Each line of _lines encodes back, bytes that are not UTF-8 included,
    to its bytes in ``data`` split whole, and _not_utf8 flags exactly the
    lines whose bytes are not UTF-8."""
    lines = [line.removesuffix("\n") for line in pgn._lines(written(data))]
    raw = data.removeprefix(codecs.BOM_UTF8).splitlines()
    assert [line.encode("utf-8", "surrogateescape") for line in lines] == raw
    assert [pgn._not_utf8(line) for line in lines] == [not is_utf8(r) for r in raw]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(LINE_PIECES), max_size=30).map(b"".join))
def test_lines_end_at_lf_crlf_or_cr(data):
    """A file gives the lines that splitting it whole gives: one per LF,
    CRLF or CR, each UTF-8 else Latin-1, and a byte-order mark dropped only
    at the start."""
    assert read_lines(data) == split_whole(data)


@pytest.mark.parametrize("shift", [-3, -2, -1, 0])
@pytest.mark.parametrize("piece", [b"\r\n", b"\r", b"\xc3\xa4", b"\xf0\x9f\x98\x80", b"\xe4"],
                         ids=["CRLF", "CR", "UTF-8", "UTF-8 4 bytes", "Latin-1"])
def test_lines_split_alike_across_the_text_layers_chunk(piece, shift):
    """A line end or a character that straddles the end of the text layer's
    first chunk, or a Latin-1 byte in a line that does, is read as if the
    file were split whole."""
    data = b"[Event \"" + b"x" * (CHUNK + shift - 8) + piece + b"y\"]\n1. e4 *\r\n"
    for prefix in (b"", codecs.BOM_UTF8):
        assert read_lines(prefix + data) == split_whole(prefix + data)


@pytest.mark.parametrize("data, expected", [
    # valid UTF-8 and a stray byte in one line: the line is read whole as Latin-1
    ('[White "K\xe4rner"]\n'.encode() + b'[Black "K\xc3\xa4rner \xe4"]\n',
     ['[White "K\xe4rner"]', '[Black "K\xc3\xa4rner \xe4"]']),
    # the first byte or two of a byte-order mark, and no more of one, which
    # utf-8-sig's decoder reads as no text when they end the file
    (b"\xef", ["\xef"]),
    (b"\xef\xbb", ["\xef\xbb"]),
    (b"\xef\xbb\n", ["\xef\xbb"]),
    (b"\xef\xbbe4", ["\xef\xbbe4"]),
])
def test_lines_of_fixed_inputs(data, expected):
    assert read_lines(data) == split_whole(data) == expected


def test_byte_order_mark_dropped_before_the_latin1_fallback():
    raw = codecs.BOM_UTF8 + '[White "K\xe4rner"]\n[Result "*"]\n\n1. e4 *\n'.encode("latin-1")
    games = list(parse_pgn_stream(written(raw), 0))
    assert games[0].tags == {"White": "K\xe4rner", "Result": "*"}


@pytest.mark.parametrize("movetext, expected", [
    # a move number may be written in any Unicode decimal digits
    ("\u0661. e4 12... e5 *", (("e4", "e5"), "*")),
    # a superscript two is a digit but not a decimal one, so not a move number
    ("1. e4 \u00b2. e5 *", "unparsable SAN '\u00b2.' in "),
    # "0000" is a null move, not a move number: it ends the mainline
    ("1. e4 0000 2. d4 *", (("e4",), "*")),
    ("1. e4 12...e5 *", (("e4", "e5"), "*")),
    ("1. e4 e5 1/2-1/2 2. Nf3 0-1", (("e4", "e5"), "1/2-1/2")),
    ("1. d4 0-1 Ke3", (("d4",), "0-1")),
])
def test_move_numbers_null_moves_and_results(movetext, expected):
    game = parse(movetext)[0]
    if isinstance(expected, str):
        assert game.reason.startswith(expected)
    else:
        assert (game.moves, game.result) == expected
        assert _movetext_tokens(movetext) == (list(expected[0]), expected[1])


def test_filter_drops_unknown_results_by_default():
    games = parse('[Result "*"]\n\n1. e4 *\n\n[Result "1-0"]\n\n1. d4 1-0')
    assert [g.plies for g in games] == [None, ()]
    kept = list(filter_games(games))
    assert [g.result for g in kept] == ["1-0"]


def test_empty_filter_is_identity():
    games = [g for g in parse(SIMPLE) if isinstance(g, GameRecord)]
    assert all(g.result != "*" for g in games)
    assert list(filter_games(games)) == games


def test_min_rating_filter():
    text = ('[WhiteElo "2100"]\n[BlackElo "2500"]\n[Result "1-0"]\n\n1. e4 1-0\n\n'
            '[WhiteElo "2450"]\n[BlackElo "2500"]\n[Result "0-1"]\n\n1. d4 0-1\n\n'
            '[WhiteElo "2450"]\n[Result "0-1"]\n\n1. c4 0-1\n\n'
            '[WhiteElo "2450"]\n[BlackElo "2500"]\n[Result "*"]\n\n1. Nf3 *\n')
    games = list(parse_pgn_stream(written(text), 0, min_rating=2400))
    assert [g.plies for g in games] == [None, (), None, None]
    kept = list(filter_games(games))
    assert [g.moves for g in kept] == [("d4",)]


# a digit separator, a sign, a space and Arabic-Indic digits, which int()
# reads as 2400
@pytest.mark.parametrize("elo", ["2_400", "+2400", " 2400", "\u0662\u0664\u0660\u0660"])
def test_min_rating_needs_ascii_digits(elo):
    text = (f'[WhiteElo "{elo}"]\n[BlackElo "2500"]\n[Result "1-0"]\n\n1. e4 1-0\n\n'
            '[WhiteElo "2400"]\n[BlackElo "2500"]\n[Result "0-1"]\n\n1. d4 0-1\n')
    rated = parse_pgn_stream(written(text), 0, min_rating=2400)
    assert [g.moves for g in filter_games(rated)] == [("d4",)]
    assert len(list(filter_games(parse(text)))) == 2


def test_games_replay_cleanly(pb_mini_path):
    from openbook import rules

    games = list(parse_pgn_stream(pb_mini_path, 0))
    assert all(isinstance(g, GameRecord) for g in games)
    assert len(games) == 49
    for game in games:
        pos = rules.initial_position()
        for token in game.moves:
            pos = rules._apply(pos, rules.parse_san(pos, token))


def test_semicolon_comment_ends_at_line_end():
    games = parse("1. e4 ; note\ne5 2. Nf3 1-0")
    assert games[0].moves == ("e4", "e5", "Nf3")
    assert games[0].result == "1-0"


def test_game_index_counts_games_in_the_source():
    games = parse(SIMPLE + "\n" + '[Result "1-0"]\n\n1. e4 zz9 1-0\n\n' + SIMPLE)
    assert [g.game_index for g in games] == [1, 2, 3]


def test_brace_inside_semicolon_comment_keeps_next_game():
    text = ('[Event "a"]\n[Result "1-0"]\n\n1. e4 ; a { brace\ne5 1-0\n\n'
            '[Event "b"]\n[Result "0-1"]\n\n1. d4 d5 0-1\n')
    games = parse(text)
    assert [(g.tags["Event"], g.moves, g.result) for g in games] == [
        ("a", ("e4", "e5"), "1-0"), ("b", ("d4", "d5"), "0-1")]


@pytest.mark.parametrize("variation", ["", "(2. d4 d5) "])
def test_tag_lines_inside_a_comment_are_stripped_once(variation, monkeypatch):
    """Tag-like lines inside a brace comment are comment text, and a game
    with thousands of them is stripped a bounded number of times, on the
    regex pass or, with a variation, the jump scan."""
    notes = "".join(f'[Note "{i}"]\n' for i in range(5000))
    commented = SIMPLE.replace("2. Nf3", "{ a comment\n" + notes + "}\n" + variation + "2. Nf3")
    expected = parse(SIMPLE + "\n" + SIMPLE)
    calls = []
    strip = pgn._strip_movetext
    monkeypatch.setattr(pgn, "_strip_movetext", lambda *args: calls.append(1) or strip(*args))
    assert parse(commented + "\n" + commented) == expected
    assert len(calls) <= 2 * len(expected)


def test_line_replays_moves_once_and_is_kept():
    """The replay that validates a game keys and SANs its first plies, and
    the record keeps them only if the game passes the filter; at depth 0 a
    game that passes keeps no plies, yet not None."""
    start = rules.initial_position()
    after_e4 = rules._apply(start, rules.parse_san(start, "e4"))
    game = next(parse_pgn_stream(written(SIMPLE), max_depth=2))
    assert game.plies == ((rules.position_key(start), "e4"),
                          (rules.position_key(after_e4), "e5"))
    assert game == parse(SIMPLE)[0]._replace(plies=game.plies)
    assert parse(SIMPLE)[0].plies == ()
    assert next(parse_pgn_stream(written(SIMPLE), 2, min_rating=1)).plies is None
    assert next(parse_pgn_stream(written(SIMPLE.replace('"1-0"', '"*"').replace(
        " 1-0", " *")), 2)).plies is None


WALK_STARTS = [
    rules.START_FEN,
    "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1",
    "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1",
    "r3k2r/Pppp1ppp/1b3nbN/nP6/BBP1P3/q4N2/Pp1P2PP/R2Q1RK1 w kq - 0 1",
    "n1n5/PPPk4/8/8/8/8/4Kppp/5N1N b - - 0 1",
    "rnbqkbnr/pp2p1pp/8/2ppPp2/8/8/PPPP1PPP/RNBQKBNR w KQkq f6 0 4",
]


def _spelled(pos, move, rng):
    """A SAN token for ``move`` that the build must canonicalize: no check
    suffix, and now and then the origin square written out in full."""
    san = rules.emit_san(pos, move).rstrip("+#")
    if move.castle or rng.random() < 0.6:
        return san
    piece = pos.board[move.from_sq].upper()
    return ("" if piece == "P" else piece) + rules.square_name(move.from_sq) + (
        "x" if move.capture else "") + rules.square_name(move.to_sq) + (
        "=" + move.promotion if move.promotion else "")


def _reference_book(games, depth, kinds):
    """Per key and SAN, [games, white wins, draws, black wins] over the first
    ``depth`` plies of each (fen, tokens, result), replayed one Position per
    ply through parse_san, emit_san, position_key and _apply; ``kinds``
    counts the castles, en-passant captures, promotions, checks and mates
    among those plies."""
    counts = {}
    for fen, tokens, result in games:
        pos = rules.parse_fen(fen)
        for token in tokens[:depth]:
            move = rules.parse_san(pos, token)
            san = rules.emit_san(pos, move)
            entry = counts.setdefault(rules.position_key(pos), {}).setdefault(san, [0, 0, 0, 0])
            entry[0] += 1
            entry[1 + ("1-0", "1/2-1/2", "0-1").index(result)] += 1
            kinds.update(kind for kind in ("castle", "en_passant", "promotion")
                         if getattr(move, kind))
            kinds.update({"+": ["check"], "#": ["check", "mate"]}.get(san[-1], []))
            pos = rules._apply(pos, move)
    return counts


def test_book_matches_a_replay_through_the_public_api(tmp_path, capsys):
    """Random legal walks, written as PGN and built by the CLI, give the book
    that a replay through the public API counts; a game illegal past
    --depth and an illegal game that the rating filter drops are reported
    exactly and add nothing."""
    rng = random.Random(14)
    depth, min_rating = 30, 2000
    kinds = Counter()
    recorded, chunks, skipped = [], [], []
    pgn = tmp_path / "walks.pgn"

    def add(fen, tokens, result, ratings):
        """Write one game; return its index in the PGN."""
        tags = {"Result": result, "WhiteElo": str(ratings[0]), "BlackElo": str(ratings[1])}
        if fen != rules.START_FEN:
            tags.update(SetUp="1", FEN=fen)
        chunks.append("".join(f'[{k} "{v}"]\n' for k, v in tags.items()) + "\n"
                      + " ".join(tokens + [result]) + "\n")
        return len(chunks)

    def add_legal(fen, tokens, result, ratings):
        add(fen, tokens, result, ratings)
        if result != "*" and min(ratings) >= min_rating:
            recorded.append((fen, tokens, result))

    def add_illegal(fen, tokens, ratings):
        """Write a game whose last move, "a1", no pawn can make, and keep the
        line that must report it."""
        pos = rules.parse_fen(fen)
        for token in tokens:
            pos = rules._apply(pos, rules.parse_san(pos, token))
        skipped.append(f"skipped game {add(fen, tokens + ['a1'], '1-0', ratings)}: {pgn}: "
                       f"illegal SAN 'a1' in {rules.emit_fen(pos)}\n")

    # fool's mate, so a mate is always among the recorded plies
    add_legal(rules.START_FEN, ["f3", "e5", "g4", "Qh4"], "0-1", (2100, 2100))
    for walk in range(90):
        fen = WALK_STARTS[walk % len(WALK_STARTS)]
        pos, tokens = rules.parse_fen(fen), []
        for _ in range(rng.randrange(1, 90)):
            moves = rules.legal_moves(pos)
            if not moves:
                break
            move = rng.choice(moves)
            tokens.append(_spelled(pos, move, rng))
            pos = rules._apply(pos, move)
        ratings = (rng.choice([1900, 2000, 2400]), rng.choice([2000, 2400]))
        add_legal(fen, tokens, rng.choice(["1-0", "1/2-1/2", "0-1", "*"]), ratings)
        if walk == 40:
            # rated and finished, but illegal past --depth
            assert len(tokens) > depth
            add_illegal(fen, tokens[:depth + 3], (2400, 2400))
        if walk == 50:
            # dropped by the rating filter, yet still replayed and reported
            add_illegal(fen, tokens[:3], (1500, 2400))

    pgn.write_text("\n".join(chunks))
    out = tmp_path / "walks.book"
    assert main(["build", "--pgn", str(pgn), "--out", str(out), "--depth", str(depth),
                 "--min-rating", str(min_rating)]) == 0
    assert capsys.readouterr().err == "".join(skipped)
    book = load_book(str(out))
    assert book.games == len(recorded) < len(chunks) - 2
    assert {key: {san: list(s[1:]) for san, s in moves.items()}
            for key, moves in book.positions.items()} == _reference_book(recorded, depth, kinds)
    assert set(kinds) == {"castle", "en_passant", "promotion", "check", "mate"}, kinds


def _reference_strip(text):
    """Character-by-character comment and variation stripper."""
    out = []
    depth = 0
    in_brace = False
    i = 0
    while i < len(text):
        ch = text[i]
        if in_brace:
            if ch == "}":
                in_brace = False
        elif ch == "{":
            in_brace = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            if depth > 0:
                depth -= 1
        elif ch == ";" and depth == 0:
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        elif depth == 0:
            out.append(ch)
        i += 1
    return "".join(out)


MOVETEXT_PIECES = ["{", "}", "(", ")", ";", "\n", " ", "e4", "e5", "Nf3", "1.", "$1"]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(MOVETEXT_PIECES), max_size=40).map("".join))
def test_jump_scan_strip_matches_char_by_char(text):
    out = []
    _strip_movetext(text, out)
    assert "".join(out) == _reference_strip(text)


BRACE_ONLY_PIECES = ["{", "}", "{ {", "} }", "\n", " ", "e4", "Nf3", "1.", "$1", "[%clk 0:01]",
                     '[Event "x"]']


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(BRACE_ONLY_PIECES), max_size=40).map("".join), st.booleans())
def test_regex_pass_matches_char_by_char(text, in_brace):
    """Movetext with only brace comments (multi-line, unclosed,
    nested-looking, or beside a stray "}") takes the regex pass, which
    strips it as the reference does and tells whether a comment is open."""
    start = "{" if in_brace else ""
    out = []
    with mock.patch.object(pgn, "_MOVETEXT_SPECIAL_RE", None):  # the jump scan would fail
        state = _strip_movetext(text, out, in_brace)
    assert "".join(out) == _reference_strip(start + text)
    # a "}" added at the end closes an open comment, else it is kept
    assert state == (_reference_strip(start + text + "}") == _reference_strip(start + text), 0)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.lists(st.sampled_from(MOVETEXT_PIECES[:-1] + ["Nc6", "2.", "1-0"]),
                         max_size=10).map("".join), min_size=1, max_size=6))
def test_line_by_line_stripping_matches_whole_movetext(lines):
    """The parser strips each movetext line as it arrives; the game it
    yields is the one stripping the joined movetext at once gives."""
    text = "\n".join(lines)
    kept = [line.strip() for line in text.split("\n") if line.strip()]
    expected = [_finish_game({}, _reference_strip("\n".join(kept)), 1, 0)] if kept else []
    assert parse(text + "\n") == expected
