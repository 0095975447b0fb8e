import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openbook import rules
from openbook.pgn import (
    NULL_MOVE_TOKENS,
    GameRecord,
    MalformedGame,
    ReplayError,
    _finish_game,
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
    return list(parse_pgn_stream(io.StringIO(text)))


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
    assert "4P3" in report.fen  # position after 1.e4 e5


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
    games = list(parse_pgn_stream(io.BytesIO(raw).readlines()))
    assert games[0].tags["White"] == "K\xe4rner"


def test_glued_move_numbers():
    games = parse('[Result "*"]\n\n1.e4 e5 2.Nf3 *')
    assert games[0].moves == ("e4", "e5", "Nf3")


def test_filter_drops_unknown_results_by_default():
    games = parse('[Result "*"]\n\n1. e4 *\n\n[Result "1-0"]\n\n1. d4 1-0')
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
    games = parse(text)
    kept = list(filter_games(games, 2400))
    assert [g.moves for g in kept] == [("d4",)]


# a digit separator, a sign, a space and Arabic-Indic digits, which int()
# reads as 2400
@pytest.mark.parametrize("elo", ["2_400", "+2400", " 2400", "\u0662\u0664\u0660\u0660"])
def test_min_rating_needs_ascii_digits(elo):
    text = (f'[WhiteElo "{elo}"]\n[BlackElo "2500"]\n[Result "1-0"]\n\n1. e4 1-0\n\n'
            '[WhiteElo "2400"]\n[BlackElo "2500"]\n[Result "0-1"]\n\n1. d4 0-1\n')
    games = parse(text)
    assert [g.moves for g in filter_games(games, 2400)] == [("d4",)]
    assert len(list(filter_games(games))) == 2


def test_games_replay_cleanly(pb_mini_path):
    from openbook import rules

    games = list(parse_pgn_stream(pb_mini_path))
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


def test_line_replays_moves_once_and_is_kept():
    game = parse(SIMPLE)[0]
    line = game.line
    assert game.line is line
    assert [move.uci() for move, _ in line] == ["e2e4", "e7e5", "g1f3"]


def test_hand_built_record_replays_on_first_use():
    game = GameRecord({}, ("e4", "Ke7"), "1-0", game_index=5)
    with pytest.raises(ReplayError) as err:
        game.line
    assert (err.value.report.game_index, err.value.report.move_index) == (5, 1)
    assert "4P3" in err.value.report.fen


WALK_STARTS = [
    rules.START_FEN,
    "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1",
    "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1",
    "r3k2r/Pppp1ppp/1b3nbN/nP6/BBP1P3/q4N2/Pp1P2PP/R2Q1RK1 w kq - 0 1",
    "n1n5/PPPk4/8/8/8/8/4Kppp/5N1N b - - 0 1",
    "rnbqkbnr/pp2p1pp/8/2ppPp2/8/8/PPPP1PPP/RNBQKBNR w KQkq f6 0 4",
]


def _reference_line(start, tokens):
    """(move, pool) per token through parse_san, legal_moves and
    _apply, one Position per ply."""
    pos, line = start, []
    for token in tokens:
        move = rules.parse_san(pos, token)
        legal = rules.legal_moves(pos)
        if move.castle:
            pool = [m for m in legal if m.castle]
        else:
            piece = pos.board[move.from_sq]
            pool = [m for m in legal if not m.castle and m.to_sq == move.to_sq
                    and m.promotion == move.promotion and pos.board[m.from_sq] == piece]
        line.append((move, pool))
        pos = rules._apply(pos, move)
    return line


def test_line_matches_a_replay_through_parse_san_and_apply():
    rng = random.Random(14)
    kinds = set()
    for walk in range(90):
        fen = WALK_STARTS[walk % len(WALK_STARTS)]
        pos, tokens = rules.parse_fen(fen), []
        for _ in range(rng.randrange(1, 90)):
            moves = rules.legal_moves(pos)
            if not moves:
                break
            move = rng.choice(moves)
            tokens.append(rules.emit_san(pos, move))
            pos = rules._apply(pos, move)
        tags = {} if fen == rules.START_FEN else {"FEN": fen}
        line = GameRecord(tags, tuple(tokens), "1-0").line
        reference = _reference_line(rules.parse_fen(fen), tokens)
        assert [move for move, _ in line] == [move for move, _ in reference]
        assert [sorted(pool) for _, pool in line] == [sorted(pool) for _, pool in reference]
        kinds.update(kind for move, _ in line
                     for kind in ("castle", "en_passant", "promotion") if getattr(move, kind))
    assert kinds == {"castle", "en_passant", "promotion"}


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


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.lists(st.sampled_from(MOVETEXT_PIECES[:-1] + ["Nc6", "2.", "1-0"]),
                         max_size=10).map("".join), min_size=1, max_size=6))
def test_line_by_line_stripping_matches_whole_movetext(lines):
    """The parser strips each movetext line as it arrives; the game it
    yields is the one stripping the joined movetext at once gives."""
    text = "\n".join(lines)
    kept = [line.strip() for line in text.split("\n") if line.strip()]
    expected = [_finish_game({}, _reference_strip("\n".join(kept)), 1)] if kept else []
    assert parse(text + "\n") == expected
