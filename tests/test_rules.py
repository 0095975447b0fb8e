import hashlib
import random
import re

import pytest

from oracles import is_check, normalize
from openbook import rules
from openbook.rules import (
    AmbiguousSanError,
    FenError,
    IllegalMoveError,
    Move,
    apply_move,
    emit_fen,
    emit_san,
    legal_moves,
    parse_fen,
    parse_san,
    parse_square,
    position_key,
)
from test_perft import TRICKY


class TestFen:
    def test_initial_round_trip(self):
        p = parse_fen(rules.START_FEN)
        assert emit_fen(p) == rules.START_FEN

    def test_epd_four_fields_defaults_clocks(self):
        p = parse_fen("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq -")
        assert p.halfmove == 0
        assert p.fullmove == 1
        assert p == parse_fen(rules.START_FEN)

    def test_no_kings_rejected(self):
        with pytest.raises(FenError, match="king"):
            parse_fen("8/8/8/8/8/8/8/8 w - - 0 1")

    def test_two_white_kings_rejected(self):
        with pytest.raises(FenError, match="king"):
            parse_fen("4k3/8/8/8/8/8/8/2K1K3 w - - 0 1")

    def test_pawn_on_back_rank_rejected(self):
        with pytest.raises(FenError, match="pawn"):
            parse_fen("P3k3/8/8/8/8/8/8/4K3 w - - 0 1")

    def test_bad_field_named_in_error(self):
        with pytest.raises(FenError, match="side-to-move"):
            parse_fen("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR x KQkq - 0 1")
        with pytest.raises(FenError, match="en-passant"):
            parse_fen("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq z9 0 1")

    def test_side_not_to_move_in_check_rejected(self):
        # white to move while black king sits in check from the queen
        with pytest.raises(FenError, match="check"):
            parse_fen("4k3/4Q3/8/8/8/8/8/4K3 w - - 0 1")

    def test_stale_castling_rights_dropped(self):
        p = parse_fen("4k3/8/8/8/8/8/8/4K2R w KQkq - 0 1")
        assert p.castling == "K"

    def test_meaningless_ep_target_not_emitted(self):
        # after 1.e4 no black pawn can capture on e3
        p = parse_fen("rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq e3 0 1")
        assert emit_fen(p).split()[3] == "-"

    def test_capturable_ep_target_emitted(self):
        p = parse_fen("rnbqkbnr/ppp1pppp/8/8/3pP3/8/PPPP1PPP/RNBQK1NR b KQkq e3 0 1")
        assert emit_fen(p).split()[3] == "e3"

    def test_duplicate_castling_flag_rejected(self):
        with pytest.raises(FenError, match="castling"):
            parse_fen("r3k2r/8/8/8/8/8/8/R3K2R w KKq - 0 1")

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0668"])  # "²", Arabic-Indic 8
    def test_non_ascii_digit_in_placement_rejected(self, digit):
        with pytest.raises(FenError, match="placement character"):
            parse_fen(f"4k3/{digit}/8/8/8/8/8/4K3 w - - 0 1")

    # Arabic-Indic "0 12", a superscript, a sign and a digit separator,
    # which int() reads as 0 12, fails on, 0 and 10
    @pytest.mark.parametrize("clocks", ["\u0660 \u0661\u0662", "0 \u00b9", "+0 1", "0 1_0"])
    def test_clock_fields_must_be_ascii_digits(self, clocks):
        with pytest.raises(FenError, match="bad clock fields"):
            parse_fen(f"4k3/8/8/8/8/8/8/4K3 w - - {clocks}")

    def test_occupied_ep_square_rejected(self):
        with pytest.raises(FenError, match="occupied"):
            parse_fen("rnbqkbnr/ppp1pppp/8/8/3pP3/4N3/PPPP1PPP/RNBQK2R b KQkq e3 0 1")

    def test_round_trip_on_random_positions(self):
        rng = random.Random(3)
        p = rules.initial_position()
        for _ in range(80):
            moves = legal_moves(p)
            if not moves:
                break
            p = rules._apply(p, rng.choice(moves))
            assert parse_fen(emit_fen(p)) == normalize(p)


class TestLegalMoves:
    def test_initial_has_twenty(self):
        assert len(legal_moves(rules.initial_position())) == 20

    def test_stalemate_has_none(self):
        p = parse_fen("7k/5Q2/6K1/8/8/8/8/8 b - - 0 1")
        assert legal_moves(p) == []
        assert not is_check(p)

    def test_checkmate_has_none_and_is_check(self):
        # queen mate, back-rank mate, fool's mate
        for fen in ("7k/6Q1/6K1/8/8/8/8/8 b - - 0 1", "R5k1/5ppp/8/8/8/8/8/6K1 b - - 1 1",
                    "rnb1kbnr/pppp1ppp/8/4p3/6Pq/5P2/PPPPP2P/RNBQKBNR w KQkq - 1 3"):
            p = parse_fen(fen)
            assert legal_moves(p) == []
            assert is_check(p)
            assert not rules._has_legal_move(rules._Board(p))

    def test_pinned_piece_cannot_expose_king(self):
        # the e-file knight is pinned by the rook
        p = parse_fen("4r2k/8/8/8/8/4N3/8/4K3 w - - 0 1")
        knight_moves = [m for m in legal_moves(p)
                        if p.board[m.from_sq] == "N"]
        assert knight_moves == []

    def test_castling_through_attacked_square_forbidden(self):
        p = parse_fen("4k3/8/8/8/8/5r2/8/4K2R w K - 0 1")
        assert not any(m.castle for m in legal_moves(p))

    def test_castling_available_when_path_clear(self):
        p = parse_fen("4k3/8/8/8/8/8/8/4K2R w K - 0 1")
        assert any(m.castle == "K" for m in legal_moves(p))


class TestSan:
    def test_basic_pawn_and_knight_tokens(self):
        p = rules.initial_position()
        e4 = parse_san(p, "e4")
        assert (rules.square_name(e4.from_sq), rules.square_name(e4.to_sq)) == ("e2", "e4")
        nf3 = parse_san(p, "Nf3")
        assert (rules.square_name(nf3.from_sq), rules.square_name(nf3.to_sq)) == ("g1", "f3")

    def test_illegal_token_reports_position(self):
        with pytest.raises(IllegalMoveError) as err:
            parse_san(rules.initial_position(), "Ke2")
        assert "Ke2" in str(err.value)
        assert "RNBQKBNR" in str(err.value)

    def test_annotation_glyphs_and_check_marks_stripped(self):
        p = rules.initial_position()
        assert parse_san(p, "e4!?") == parse_san(p, "e4")
        assert parse_san(p, "Nf3+??") == parse_san(p, "Nf3")

    def test_ambiguous_token_rejected(self):
        p = parse_fen("4k3/8/8/8/8/8/8/N1N1K3 w - - 0 1")
        with pytest.raises(AmbiguousSanError):
            parse_san(p, "Nb3")

    def test_disambiguation_emitted_when_needed(self):
        p = parse_fen("4k3/8/8/8/8/8/8/N1N1K3 w - - 0 1")
        tokens = {emit_san(p, m) for m in legal_moves(p)
                  if rules.square_name(m.to_sq) == "b3"}
        assert tokens == {"Nab3", "Ncb3"}

    def test_promotion_and_capture_tokens(self):
        p = parse_fen("3r3k/2P5/8/8/8/8/8/4K3 w - - 0 1")
        tokens = {emit_san(p, m) for m in legal_moves(p) if m.promotion}
        assert "c8=Q" in tokens  # d8 rook blocks the rank, so no check
        assert "cxd8=Q+" in tokens
        assert parse_san(p, "cxd8=Q") == parse_san(p, "cxd8=Q+")

    def test_castle_tokens(self):
        p = parse_fen("4k3/8/8/8/8/8/8/R3K2R w KQ - 0 1")
        assert emit_san(p, parse_san(p, "O-O")) == "O-O"
        assert emit_san(p, parse_san(p, "0-0-0")) == "O-O-O"

    def test_round_trip_over_all_moves_of_random_games(self):
        rng = random.Random(11)
        p = rules.initial_position()
        for _ in range(60):
            moves = legal_moves(p)
            if not moves:
                break
            for m in moves:
                assert parse_san(p, emit_san(p, m)) == m
            p = rules._apply(p, rng.choice(moves))


class TestApplyMove:
    def test_double_push_sets_ep_and_fen_matches(self):
        p = rules.initial_position()
        after = apply_move(p, parse_san(p, "e4"))
        assert rules.square_name(after.ep) == "e3"
        assert emit_fen(after) == (
            "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq - 0 1")

    def test_non_double_push_clears_ep(self):
        p = rules.initial_position()
        p = apply_move(p, parse_san(p, "e4"))
        p = apply_move(p, parse_san(p, "e5"))
        p = apply_move(p, parse_san(p, "Nf3"))
        assert p.ep is None

    def test_king_move_clears_both_rights(self):
        p = parse_fen("4k3/8/8/8/8/8/8/R3K2R w KQ - 0 1")
        after = apply_move(p, parse_san(p, "Kd1"))
        assert "K" not in after.castling and "Q" not in after.castling

    def test_rook_move_clears_one_right(self):
        p = parse_fen("4k3/8/8/8/8/8/8/R3K2R w KQ - 0 1")
        after = apply_move(p, parse_san(p, "Ra2"))
        assert after.castling == "K"

    def test_en_passant_capture_removes_pawn(self):
        p = parse_fen("rnbqkbnr/ppp1pppp/8/8/3pP3/8/PPPP1PPP/RNBQK1NR b KQkq e3 0 1")
        after = apply_move(p, parse_san(p, "dxe3"))
        assert after.board[parse_square("e4")] is None

    def test_illegal_move_rejected(self):
        p = rules.initial_position()
        with pytest.raises(IllegalMoveError):
            apply_move(p, Move(parse_square("e2"), parse_square("e5")))

    def test_clocks_update(self):
        p = rules.initial_position()
        p = apply_move(p, parse_san(p, "Nf3"))
        assert (p.halfmove, p.fullmove) == (1, 1)
        p = apply_move(p, parse_san(p, "Nf6"))
        assert (p.halfmove, p.fullmove) == (2, 2)
        p = apply_move(p, parse_san(p, "e4"))
        assert p.halfmove == 0


class TestPositionKey:
    def play(self, tokens):
        p = rules.initial_position()
        for token in tokens:
            p = rules._apply(p, parse_san(p, token))
        return p

    def test_transpositions_share_a_key(self):
        a = self.play(["e4", "e5", "Nf3"])
        b = self.play(["Nf3", "e5", "e4"])
        assert position_key(a) == position_key(b)

    def test_side_to_move_distinguishes(self):
        p = parse_fen("4k3/8/8/8/8/8/8/4K3 w - - 0 1")
        q = parse_fen("4k3/8/8/8/8/8/8/4K3 b - - 0 1")
        assert position_key(p) != position_key(q)

    def test_clocks_do_not_influence_key(self):
        p = parse_fen("4k3/8/8/8/8/8/8/4K3 w - - 12 34")
        q = parse_fen("4k3/8/8/8/8/8/8/4K3 w - - 0 1")
        assert position_key(p) == position_key(q)

    def test_dead_ep_flag_does_not_influence_key(self):
        with_flag = parse_fen(
            "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq e3 0 1")
        without = parse_fen(
            "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq - 0 1")
        assert position_key(with_flag) == position_key(without)


_ORACLE_SAN = re.compile(r"([NBRQK])?([a-h])?([1-8])?x?([a-h][1-8])(?:=?([NBRQ]))?")


def oracle_outcome(named, text):
    """Brute-force SAN matching over every legal move: a Move, "illegal" or
    "ambiguous". ``named`` holds (move, piece, origin, target) per legal move."""
    token = text.strip().replace("e.p.", "").replace("(ep)", "").rstrip("+#!?")
    if token in ("O-O", "0-0", "O-O-O", "0-0-0"):
        side = "K" if len(token) == 3 else "Q"
        found = [m for m, _, _, _ in named if m.castle == side]
    else:
        match = _ORACLE_SAN.fullmatch(token)
        if not match:
            return "illegal"
        piece, from_file, from_rank, to, promo = match.groups()
        piece = piece or "P"
        found = [m for m, kind, origin, target in named
                 if not m.castle and target == to and kind == piece and m.promotion == promo
                 and from_file in (None, origin[0]) and from_rank in (None, origin[1])
                 and not (piece == "P" and from_file is None and m.capture)]
    if not found:
        return "illegal"
    return found[0] if len(found) == 1 else "ambiguous"


def oracle_san(p, moves, m):
    """Canonical SAN by brute force over every legal move."""
    if m.castle:
        body = "O-O" if m.castle == "K" else "O-O-O"
    else:
        origin, target = rules.square_name(m.from_sq), rules.square_name(m.to_sq)
        piece = p.board[m.from_sq].upper()
        rivals = [rules.square_name(o.from_sq) for o in moves
                  if o.to_sq == m.to_sq and o.from_sq != m.from_sq and not o.castle
                  and p.board[o.from_sq].upper() == piece]
        if piece == "P":
            body = (origin[0] + "x" if m.capture else "") + target
            body += "=" + m.promotion if m.promotion else ""
        else:
            if not rivals:
                disambig = ""
            elif all(r[0] != origin[0] for r in rivals):
                disambig = origin[0]
            elif all(r[1] != origin[1] for r in rivals):
                disambig = origin[1]
            else:
                disambig = origin
            body = piece + disambig + ("x" if m.capture else "") + target
    after = rules._apply(p, m)
    if is_check(after):
        body += "+" if legal_moves(after) else "#"
    return body


def resolver_outcome(p, text):
    try:
        return parse_san(p, text)
    except AmbiguousSanError:
        return "ambiguous"
    except IllegalMoveError:
        return "illegal"


def spellings(p, m):
    """SAN spellings of ``m``, canonical or not: every disambiguation, ``x``
    added or dropped, promotion missing or without ``=``, with and without a
    check mark. ``m`` need not be legal."""
    if m.castle:
        bodies = {"O-O", "0-0"} if m.castle == "K" else {"O-O-O", "0-0-0"}
    else:
        origin, target = rules.square_name(m.from_sq), rules.square_name(m.to_sq)
        letter = p.board[m.from_sq].upper().replace("P", "")
        promos = ("", "=" + m.promotion, m.promotion) if m.promotion else ("", "=Q")
        bodies = {letter + disambig + capture + target + promo
                  for disambig in ("", origin[0], origin[1], origin)
                  for capture in ("", "x") for promo in promos}
    return bodies | {body + "+" for body in bodies}


# en passant pinned along a rank, queens needing square disambiguation,
# back-rank mate, promotions with capture next to castling rights
SAN_POSITIONS = [rules.START_FEN] + [fen for fen, _ in TRICKY] + [
    "8/8/8/KPp4r/8/8/8/7k w - c6 0 1",
    "7k/8/8/8/Q1Q5/8/Q7/4K3 w - - 0 1",
    "6k1/5ppp/8/8/8/8/8/R5K1 w - - 0 1",
    "r3k2r/1P4P1/8/8/8/8/1p4p1/R3K2R w KQkq - 0 1",
]


@pytest.mark.parametrize("fen", SAN_POSITIONS)
def test_resolver_matches_brute_force_oracle(fen):
    rng = random.Random(fen)
    p = parse_fen(fen)
    for _ in range(16):
        moves = legal_moves(p)
        if not moves:
            break
        for m in moves:
            san = emit_san(p, m)
            assert san == oracle_san(p, moves, m)
            assert parse_san(p, san) == m
        # pseudo-legal moves add pinned pieces, pinned en passant and
        # moves into check, which the resolver must reject as well
        named = [(m, p.board[m.from_sq].upper(), rules.square_name(m.from_sq),
                  rules.square_name(m.to_sq)) for m in moves]
        pseudo = list(rules._pseudo_moves(rules._Board(p)))
        tokens = {t for m in moves + pseudo for t in spellings(p, m)}
        for token in tokens | {"O-O", "O-O-O"}:
            assert resolver_outcome(p, token) == oracle_outcome(named, token), token
        p = rules._apply(p, rng.choice(moves))


def brute_force_key(p):
    """4-field FEN key rendered square by square; en passant is shown when
    some legal move captures en passant."""
    rows = []
    for rank in range(7, -1, -1):
        row, empty = "", 0
        for file in range(8):
            piece = p.board[16 * rank + file]
            if piece is None:
                empty += 1
                continue
            row += (str(empty) if empty else "") + piece
            empty = 0
        rows.append(row + (str(empty) if empty else ""))
    ep = "-"
    if any(m.en_passant for m in legal_moves(p)):
        ep = rules.square_name(p.ep)
    return " ".join(["/".join(rows), p.turn, p.castling or "-", ep])


# (position, its key's en-passant field): a legal en passant, en passant
# pinned along a rank and along a diagonal, and en passant that captures
# the pawn giving check
KEY_POSITIONS = [
    (rules.START_FEN, "-"),
    ("rnbqkbnr/ppp1pppp/8/8/3pP3/8/PPPP1PPP/RNBQK1NR b KQkq e3 0 1", "e3"),
    ("8/8/8/KPp4r/8/8/8/7k w - c6 0 1", "-"),
    ("8/8/1b6/2pP4/8/4K3/8/7k w - c6 0 1", "-"),
    ("8/8/8/2pP4/1K6/8/8/7k w - c6 0 1", "c6"),
]


def test_position_key_matches_brute_force():
    rng = random.Random(11)
    ep_shown = []
    checks = 0
    for fen, ep in KEY_POSITIONS:
        assert position_key(parse_fen(fen)).split()[3] == ep
        for _ in range(30):
            p = parse_fen(fen)
            for _ in range(60):
                key = position_key(p)
                assert key == brute_force_key(p)
                assert emit_fen(p) == f"{key} {p.halfmove} {p.fullmove}"
                if p.ep is not None:
                    ep_shown.append(key.split()[3] != "-")
                assert p.kings == (p.board.index("K"), p.board.index("k"))
                moves = legal_moves(p)
                if is_check(p):
                    checks += 1
                    assert rules._has_legal_move(rules._Board(p)) == bool(moves)
                if not moves:
                    break
                # favour double pushes and en passant so both outcomes occur often
                jumps = [m for m in moves if m.en_passant or abs(m.to_sq - m.from_sq) == 32
                         and p.board[m.from_sq] in ("P", "p")]
                p = rules._apply(p, rng.choice(jumps if jumps and rng.random() < 0.5
                                               else moves))
    assert ep_shown.count(True) > 100 and ep_shown.count(False) > 100
    assert checks > 100


# (position, a move in UCI that gives check): a castling rook, en passant
# that bares a rank, en passant whose captured pawn bares a diagonal, an
# under-promotion to a knight, a double check, and a king move that
# uncovers a rook
CHECKING_MOVES = [
    ("5k2/8/8/8/8/8/8/4K2R w K - 0 1", "e1g1"),
    ("8/8/8/k1pP3R/8/8/8/4K3 w - c6 0 1", "d5c6"),
    ("6k1/8/8/3pP3/8/1B6/8/4K3 w - d6 0 1", "e5d6"),
    ("8/4P1k1/8/8/8/8/8/K7 w - - 0 1", "e7e8n"),
    ("4k3/8/8/8/4N3/8/8/4R1K1 w - - 0 1", "e4d6"),
    ("8/8/8/8/R2K3k/8/8/8 w - - 0 1", "d4d5"),
]


@pytest.mark.parametrize("fen,uci", CHECKING_MOVES)
def test_push_flags_each_kind_of_check(fen, uci):
    p = parse_fen(fen)
    b = rules._Board(p)
    assert b.check is None
    assert b.in_check() is False and b.check is False
    b.push(next(m for m in legal_moves(p) if m.uci() == uci))
    assert b.check is True and is_check(b.position())
    assert b.key() == position_key(b.position())


def is_special(p, m):
    """Castling, en passant, promotion or a double push."""
    return bool(m.castle or m.en_passant or m.promotion
                or abs(m.to_sq - m.from_sq) == 32 and p.board[m.from_sq] in ("P", "p"))


def test_board_check_flag_and_key_follow_every_push():
    """The check flag that push keeps equals is_check, and key() equals
    position_key (a fresh board rendering every rank) and the brute-force
    key, after every push of seeded walks that favour castling, en passant,
    promotion and double pushes: so each push invalidates every rank text
    it changes."""
    rng = random.Random(15)
    seen = {"castle": 0, "en_passant": 0, "promotion": 0, "check": 0, "plies": 0}
    fens = ([rules.START_FEN] + [fen for fen, _ in TRICKY] + [fen for fen, _ in KEY_POSITIONS]
            + [fen for fen, _ in CHECKING_MOVES])
    for fen in fens:
        for _ in range(10):
            b = rules._Board(parse_fen(fen))
            p = b.position()
            assert b.key() == position_key(p)
            for _ in range(80):
                moves = legal_moves(p)
                if not moves:
                    break
                special = [m for m in moves if is_special(p, m)]
                m = rng.choice(special if special and rng.random() < 0.5 else moves)
                b.push(m)
                p = b.position()
                assert b.check == is_check(p), (fen, m.uci(), emit_fen(p))
                assert b.key() == position_key(p) == brute_force_key(p), (fen, m.uci(),
                                                                          emit_fen(p))
                for kind in ("castle", "en_passant", "promotion"):
                    seen[kind] += bool(getattr(m, kind))
                seen["check"] += b.check
                seen["plies"] += 1
    assert min(seen.values()) >= 30, seen


def board_state(b):
    return (list(b.squares), b.kings, b.check, list(b.ranks), b.castling, b.ep,
            b.white, b.halfmove, b.fullmove)


def test_mate_test_reads_the_live_board_and_leaves_it_as_it_was():
    """On live boards in check, reached by push along seeded walks that
    favour checks, _has_legal_move agrees with legal_moves and leaves the
    squares, kings, check flag, rank texts, castling rights and ep as it
    found them."""
    rng = random.Random(16)
    checks = mates = 0
    # two positions whose only check mates: a back-rank mate and fool's mate
    fens = ([rules.START_FEN, "6k1/5ppp/8/8/8/8/8/R5K1 w - - 0 1",
             "rnbqkbnr/pppp1ppp/8/4p3/6P1/5P2/PPPPP2P/RNBQKBNR b KQkq - 0 2"]
            + [fen for fen, _ in TRICKY] + [fen for fen, _ in CHECKING_MOVES])
    for fen in fens:
        for _ in range(6):
            b = rules._Board(parse_fen(fen))
            for _ in range(60):
                p = b.position()
                moves = legal_moves(p)
                if b.in_check():
                    checks += 1
                    mates += not moves
                    before = board_state(b)
                    assert rules._has_legal_move(b) == bool(moves), emit_fen(p)
                    assert board_state(b) == before, emit_fen(p)
                if not moves:
                    break
                if rng.random() < 0.5:
                    b.key()  # so some rank texts are rendered and some are stale
                checking = [m for m in moves if emit_san(p, m)[-1] in "+#"]
                b.push(rng.choice(checking if checking and rng.random() < 0.5 else moves))
    assert checks > 100 and mates > 5, (checks, mates)


# own pieces on a line through their king: pinned and moving along the pin,
# pinned and taking the pinner (a rook, a bishop, a pawn), shielded by an
# own piece and by an enemy piece, pinned so that it cannot move, in check
# with and without a pin, and en passant that would bare the king's rank
PIN_POSITIONS = [
    "4k3/4r3/8/8/8/8/4R3/4K3 w - - 0 1",
    "7k/8/8/8/3b4/8/1B6/K7 w - - 0 1",
    "4k3/8/8/8/8/2b5/3P4/4K3 w - - 0 1",
    "4r2k/8/8/8/4N3/8/4B3/4K3 w - - 0 1",
    "4r2k/8/8/4p3/8/8/4N3/4K3 w - - 0 1",
    "4k3/4b3/8/8/8/8/8/4R1K1 b - - 0 1",
    "4k3/8/8/8/8/3n4/8/R3K2R w KQ - 0 1",
    "4k3/4r3/8/8/1b6/8/4R3/4K3 w - - 0 1",
    "8/8/8/KPp4r/8/8/8/4k3 w - c6 0 1",
]


def brute_force_legal(p):
    """The pseudo-legal moves after which, made on a copy, the mover's king
    is not attacked; castling as legal_moves gives it."""
    white = p.turn == rules.WHITE
    out = []
    for m in rules._pseudo_moves(rules._Board(p)):
        q = rules._apply(p, m)
        if not rules._attacked(q.board, q.kings[0] if white else q.kings[1], not white):
            out.append(m)
    return out + [m for m in legal_moves(p) if m.castle]


def _origins_by_target(b, moves):
    """For each piece type, target square and promotion, what ``_origins``
    gives on ``b`` and what ``moves`` hold, as two dicts of sets."""
    last_rank = 7 if b.white else 0
    expected = {}
    for m in moves:
        if not m.castle:
            piece = b.squares[m.from_sq].upper()
            expected.setdefault((piece, m.to_sq, m.promotion), set()).add(m)
    found = {}
    for piece in "PNBRQK":
        for to_sq in rules.SQUARES:
            promotes = piece == "P" and to_sq >> 4 == last_rank
            for promo in ("Q", "R", "B", "N") if promotes else (None,):
                origins = set(rules._origins(b, piece, to_sq, promo))
                if origins:
                    found[piece, to_sq, promo] = origins
    return found, expected


@pytest.mark.parametrize("fen", PIN_POSITIONS)
def test_resolver_matches_brute_force_on_pins(fen):
    """legal_moves, and _origins for each piece type and target square, give
    exactly the moves that a make-and-test brute force finds, and SAN
    resolution agrees with the brute-force oracle, on the pin positions and
    a few plies after each."""
    rng = random.Random(fen)
    p = parse_fen(fen)
    if fen.startswith("8/8/8/KPp4r"):
        assert resolver_outcome(p, "bxc6") == "illegal"
    for _ in range(6):
        moves = brute_force_legal(p)
        assert set(legal_moves(p)) == set(moves), emit_fen(p)
        b = rules._Board(p)
        found, expected = _origins_by_target(b, moves)
        assert found == expected, emit_fen(p)
        assert b.position() == p
        named = [(m, p.board[m.from_sq].upper(), rules.square_name(m.from_sq),
                  rules.square_name(m.to_sq)) for m in moves]
        pseudo = list(rules._pseudo_moves(rules._Board(p)))
        for token in {t for m in moves + pseudo for t in spellings(p, m)}:
            assert resolver_outcome(p, token) == oracle_outcome(named, token), token
        if not moves:
            break
        p = rules._apply(p, rng.choice(moves))


def test_one_legality_filter_matches_brute_force_along_walks():
    """Along seeded random walks from the start and the perft positions,
    ``legal_moves`` and ``_origins``, which share the one legality filter
    ``_keep_legal``, give exactly the moves a make-and-test brute force
    finds, for every piece type and target square."""
    rng = random.Random(2906)
    fens = [rules.START_FEN] + [fen for fen, _ in TRICKY]
    for game in range(8):
        p = parse_fen(fens[game % len(fens)])
        for _ in range(40):
            moves = brute_force_legal(p)
            assert set(legal_moves(p)) == set(moves), emit_fen(p)
            b = rules._Board(p)
            found, expected = _origins_by_target(b, moves)
            assert found == expected, emit_fen(p)
            assert b.position() == p
            if not moves:
                break
            p = rules._apply(p, rng.choice(moves))


def test_moves_are_plain_move_values():
    """The moves that legal_moves and the SAN resolver give are Move
    values that compare and hash as the same move built by ``Move(...)``:
    the resolver builds its candidates with ``tuple.__new__``."""
    rng = random.Random(2907)
    for fen in [rules.START_FEN] + [fen for fen, _ in TRICKY] + PIN_POSITIONS:
        p = parse_fen(fen)
        for _ in range(12):
            moves = legal_moves(p)
            if not moves:
                break
            for m in moves:
                resolved, pool = rules._resolve(rules._Board(p), emit_san(p, m))
                assert resolved == m
                for value in [m, resolved] + pool:
                    built = Move(value.from_sq, value.to_sq, promotion=value.promotion,
                                 capture=value.capture, en_passant=value.en_passant,
                                 castle=value.castle)
                    assert type(value) is Move
                    assert value == built and hash(value) == hash(built)
                    assert [type(field) for field in value] == [type(field) for field in built]
            p = rules._apply(p, rng.choice(moves))

def oracle_attacked(p, sq, by_white):
    """Brute force: with a dummy enemy knight on ``sq``, does some
    pseudo-legal capture of the given colour land there?"""
    board = list(p.board)
    board[sq] = "n" if by_white else "N"
    # pseudo-move generation does not read the king squares
    q = rules.Position(tuple(board), rules.WHITE if by_white else rules.BLACK,
                       "", None, 0, 1, p.kings)
    return any(m.to_sq == sq and m.capture for m in rules._pseudo_moves(rules._Board(q)))


@pytest.mark.parametrize("fen", [rules.START_FEN] + [fen for fen, _ in TRICKY])
def test_attacked_matches_brute_force_oracle(fen):
    rng = random.Random(fen)
    p = parse_fen(fen)
    for _ in range(10):
        for sq in rules.SQUARES:
            for by_white in (True, False):
                assert rules._attacked(p.board, sq, by_white) == oracle_attacked(
                    p, sq, by_white), (emit_fen(p), rules.square_name(sq), by_white)
        moves = legal_moves(p)
        if not moves:
            break
        p = rules._apply(p, rng.choice(moves))


def walk(sq, d, slide):
    """0x88 squares reached from ``sq`` along ``d``: one step or a whole ray."""
    out, s = [], sq + d
    while not s & 0x88:
        out.append(s)
        if not slide:
            break
        s += d
    return out


def test_square_tables_match_a_plain_walk():
    # the offsets themselves, from (rank, file) deltas
    deltas = [(dr, df) for dr in range(-2, 3) for df in range(-2, 3)]
    assert set(rules.KNIGHT_OFFSETS) == {16 * dr + df for dr, df in deltas
                                         if {abs(dr), abs(df)} == {1, 2}}
    assert set(rules.KING_OFFSETS) == {16 * dr + df for dr, df in deltas
                                       if max(abs(dr), abs(df)) == 1}
    assert set(rules.ROOK_DIRS) == {16 * dr + df for dr, df in deltas
                                    if abs(dr) + abs(df) == 1}
    assert set(rules.BISHOP_DIRS) == {16 * dr + df for dr, df in deltas
                                      if abs(dr) == abs(df) == 1}
    assert sorted(rules._PIECE_RAYS) == sorted("NBRQK")
    for piece, dirs, slide in (("N", rules.KNIGHT_OFFSETS, False),
                               ("B", rules.BISHOP_DIRS, True),
                               ("R", rules.ROOK_DIRS, True),
                               ("Q", rules.KING_OFFSETS, True),
                               ("K", rules.KING_OFFSETS, False)):
        table = rules._PIECE_RAYS[piece]
        assert len(table) == 128
        # an off-board slot has no rays
        for sq in range(128):
            expected = [] if sq & 0x88 else [walk(sq, d, slide) for d in dirs
                                             if walk(sq, d, slide)]
            assert [list(ray) for ray in table[sq]] == expected, (piece, sq)


# each castling right's king and rook home squares, named here so the oracle
# below does not read rules' own table
CASTLING_HOMES = {"K": ("e1", "h1"), "Q": ("e1", "a1"), "k": ("e8", "h8"), "q": ("e8", "a8")}


def test_castling_rights_follow_the_history_of_home_squares():
    """Along seeded walks that favour moves from or onto a home square (king
    and rook moves, castling, captures of a rook at home), ``_Board.push``
    keeps a right exactly while no move has left or landed on its king's or
    its rook's home square."""
    homes = {right: {parse_square(name) for name in names}
             for right, names in CASTLING_HOMES.items()}
    home_squares = set().union(*homes.values())
    seen = {"castle": 0, "rook_captured_at_home": 0}
    rng = random.Random(19)
    for fen in ("r3k2r/8/8/8/8/8/8/R3K2R w KQkq - 0 1",
                "r3k2r/1b4b1/8/8/8/8/1B4B1/R3K2R b KQkq - 0 1",
                rules.START_FEN, TRICKY[0][0], TRICKY[3][0]):
        start = parse_fen(fen)
        for _ in range(12):
            b = rules._Board(start)
            touched = set()
            for _ in range(40):
                moves = legal_moves(b.position())
                if not moves:
                    break
                homely = [m for m in moves if {m.from_sq, m.to_sq} & home_squares]
                m = rng.choice(homely if homely and rng.random() < 0.75 else moves)
                seen["castle"] += m.castle is not None
                seen["rook_captured_at_home"] += (
                    m.capture and b.squares[m.to_sq] in ("R", "r")
                    and any(m.to_sq in homes[right] for right in b.castling))
                touched |= {m.from_sq, m.to_sq}
                b.push(m)
                assert b.castling == "".join(right for right in start.castling
                                             if not homes[right] & touched), (fen, m.uci())
    assert min(seen.values()) > 0, seen


# sha256 of legal_moves' UCI lists along seeded random walks of up to 100 plies;
# perft counts cannot see move order, and perfbench/corpus.py picks moves by index
LEGAL_ORDER_SHA256 = "f1ffef1f4bb6497a9d23f6c086c9392aa73e11e46043815c5624834bafcfb41b"


def test_legal_move_order_is_unchanged():
    digest = hashlib.sha256()
    rng = random.Random(20061)
    for fen in [rules.START_FEN] + [fen for fen, _ in TRICKY]:
        for _ in range(8):
            p = parse_fen(fen)
            for _ in range(100):
                moves = legal_moves(p)
                digest.update((" ".join(m.uci() for m in moves) + "\n").encode())
                if not moves:
                    break
                p = rules._apply(p, rng.choice(moves))
    assert digest.hexdigest() == LEGAL_ORDER_SHA256


class TestSanTokenCache:
    def test_bad_tokens_keep_their_messages_on_every_lookup(self):
        p = rules.initial_position()
        for text, message in (("  +!? ", f"empty SAN token '  +!? ' in {rules.START_FEN}"),
                              ("Zz9", f"unparsable SAN 'Zz9' in {rules.START_FEN}")):
            for _ in range(2):
                with pytest.raises(IllegalMoveError) as err:
                    parse_san(p, text)
                assert str(err.value) == message

    def test_cache_stays_bounded(self):
        p = rules.initial_position()
        for index in range(2 * rules.SAN_TOKEN_CACHE_SIZE + 10):
            with pytest.raises(IllegalMoveError):
                parse_san(p, f"junk{index}")
            assert rules._parse_token.cache_info().currsize <= rules.SAN_TOKEN_CACHE_SIZE
        assert parse_san(p, "e4") == Move(rules.parse_square("e2"), rules.parse_square("e4"))


def test_move_and_position_are_immutable_and_hashable():
    p = rules.initial_position()
    m = legal_moves(p)[0]
    for value, field in ((m, "to_sq"), (p, "turn")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    assert len({m, parse_san(p, emit_san(p, m))}) == 1
    assert len({p, parse_fen(rules.START_FEN)}) == 1
