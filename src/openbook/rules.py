"""Chess domain model: positions, FEN/EPD parsing, legal moves, SAN.

The board is a 0x88 mailbox: square index = 16 * rank + file, so off-board
squares are detected with ``index & 0x88``. White pieces are uppercase
letters, black lowercase. Positions are immutable values; every operation
returns a new Position.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple, Optional, Tuple

WHITE = "w"
BLACK = "b"

START_FEN = "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1"

FILES = "abcdefgh"

KNIGHT_OFFSETS = (33, 31, 18, 14, -14, -18, -31, -33)
KING_OFFSETS = (17, 16, 15, 1, -1, -15, -16, -17)
BISHOP_DIRS = (17, 15, -15, -17)
ROOK_DIRS = (16, 1, -1, -16)

# on-board 0x88 indices, a1 first
SQUARES = tuple(16 * r + f for r in range(8) for f in range(8))


def _rays(sq: int, dirs: tuple) -> tuple:
    """The non-empty rays from 0x88 square ``sq`` along ``dirs``, each nearest
    square first; none from an off-board slot."""
    if sq & 0x88:
        return ()
    rays = []
    for d in dirs:
        ray = []
        s = sq + d
        while not s & 0x88:
            ray.append(s)
            s += d
        if ray:
            rays.append(tuple(ray))
    return tuple(rays)


def _steps(sq: int, offsets: tuple) -> tuple:
    """The on-board squares one offset away from 0x88 square ``sq``; none off it."""
    return () if sq & 0x88 else tuple(sq + d for d in offsets if not (sq + d) & 0x88)


# indexed by 0x88 square and built once, so the attack, pin and origin walks
# need no bounds tests
_ROOK_RAYS = [_rays(sq, ROOK_DIRS) for sq in range(128)]
_BISHOP_RAYS = [_rays(sq, BISHOP_DIRS) for sq in range(128)]
_KNIGHT_STEPS = [_steps(sq, KNIGHT_OFFSETS) for sq in range(128)]
_KING_STEPS = [_steps(sq, KING_OFFSETS) for sq in range(128)]

A1, B1, C1, D1, E1, F1, G1, H1 = range(8)
A8, B8, C8, D8, E8, F8, G8, H8 = range(112, 120)


class FenError(ValueError):
    """Raised when a FEN/EPD string cannot be parsed into a valid position."""


class IllegalMoveError(ValueError):
    """Raised when a move or SAN token is not legal in the given position."""


class AmbiguousSanError(IllegalMoveError):
    """Raised when a SAN token matches more than one legal move."""


def square_name(sq: int) -> str:
    return FILES[sq & 7] + str((sq >> 4) + 1)


def parse_square(name: str) -> int:
    if len(name) != 2 or name[0] not in FILES or name[1] not in "12345678":
        raise ValueError(f"bad square name: {name!r}")
    return 16 * (int(name[1]) - 1) + FILES.index(name[0])


class Move(NamedTuple):
    """A move between two 0x88 squares, with the flags SAN needs."""

    from_sq: int
    to_sq: int
    promotion: Optional[str] = None  # uppercase "N"/"B"/"R"/"Q"
    capture: bool = False
    en_passant: bool = False
    castle: Optional[str] = None  # "K" or "Q"

    def uci(self) -> str:
        suffix = self.promotion.lower() if self.promotion else ""
        return square_name(self.from_sq) + square_name(self.to_sq) + suffix


class Position(NamedTuple):
    """Immutable chess position.

    ``board`` has 128 slots (0x88); ``castling`` is a subset of "KQkq" in
    that order; ``ep`` is the en-passant target square exactly as produced
    by the last double push (normalization to "only if capturable" happens
    in emit_fen / position_key); ``kings`` holds the white and the black
    king's square.
    """

    board: tuple
    turn: str
    castling: str
    ep: Optional[int]
    halfmove: int
    fullmove: int
    kings: Tuple[int, int]


def _attacked(board, sq: int, by_white: bool) -> bool:
    """Is ``sq`` attacked by any piece of the given color?"""
    pawn, knight, king = ("P", "N", "K") if by_white else ("p", "n", "k")
    rook_q = ("R", "Q") if by_white else ("r", "q")
    bishop_q = ("B", "Q") if by_white else ("b", "q")
    # pawns attack "up" for white, so the attacker sits below the target
    for d in ((-17, -15) if by_white else (15, 17)):
        s = sq + d
        if not s & 0x88 and board[s] == pawn:
            return True
    for s in _KNIGHT_STEPS[sq]:
        if board[s] == knight:
            return True
    for s in _KING_STEPS[sq]:
        if board[s] == king:
            return True
    for rays, sliders in ((_ROOK_RAYS[sq], rook_q), (_BISHOP_RAYS[sq], bishop_q)):
        for ray in rays:
            for s in ray:
                pc = board[s]
                if pc is not None:
                    if pc in sliders:
                        return True
                    break
    return False


def _pinned_squares(board, king_sq: int, white: bool) -> set:
    """Squares of own pieces absolutely pinned to the king."""
    pinned = set()
    for rays, sliders in ((_ROOK_RAYS[king_sq], ("r", "q") if white else ("R", "Q")),
                          (_BISHOP_RAYS[king_sq], ("b", "q") if white else ("B", "Q"))):
        for ray in rays:
            blocker = None
            for s in ray:
                pc = board[s]
                if pc is not None:
                    if blocker is None:
                        if pc.isupper() == white:
                            blocker = s
                        else:
                            break
                    else:
                        if pc in sliders:
                            pinned.add(blocker)
                        break
    return pinned


def _pseudo_moves(p: Position):
    board = p.board
    white = p.turn == WHITE
    moves = []
    add = moves.append
    fwd = 16 if white else -16
    start_rank = 1 if white else 6
    promo_rank = 7 if white else 0
    for s in SQUARES:
        pc = board[s]
        if pc is None or pc.isupper() != white:
            continue
        kind = pc.upper()
        if kind == "P":
            t = s + fwd
            if not t & 0x88 and board[t] is None:
                if t >> 4 == promo_rank:
                    for promo in "QRBN":
                        add(Move(s, t, promotion=promo))
                else:
                    add(Move(s, t))
                    t2 = t + fwd
                    if s >> 4 == start_rank and board[t2] is None:
                        add(Move(s, t2))
            for d in (fwd - 1, fwd + 1):
                t = s + d
                if t & 0x88:
                    continue
                target = board[t]
                if target is not None and target.isupper() != white:
                    if t >> 4 == promo_rank:
                        for promo in "QRBN":
                            add(Move(s, t, promotion=promo, capture=True))
                    else:
                        add(Move(s, t, capture=True))
                elif target is None and p.ep == t:
                    add(Move(s, t, capture=True, en_passant=True))
        elif kind == "N":
            for d in KNIGHT_OFFSETS:
                t = s + d
                if t & 0x88:
                    continue
                target = board[t]
                if target is None:
                    add(Move(s, t))
                elif target.isupper() != white:
                    add(Move(s, t, capture=True))
        elif kind == "K":
            for d in KING_OFFSETS:
                t = s + d
                if t & 0x88:
                    continue
                target = board[t]
                if target is None:
                    add(Move(s, t))
                elif target.isupper() != white:
                    add(Move(s, t, capture=True))
        else:
            dirs = ROOK_DIRS if kind == "R" else BISHOP_DIRS if kind == "B" else KING_OFFSETS
            for d in dirs:
                t = s + d
                while not t & 0x88:
                    target = board[t]
                    if target is None:
                        add(Move(s, t))
                    else:
                        if target.isupper() != white:
                            add(Move(s, t, capture=True))
                        break
                    t += d
    return moves


# per side: (right, king target, rook square, squares that must be empty,
# squares the king passes that must not be attacked)
_CASTLING = {
    WHITE: (("K", G1, H1, (F1, G1), (E1, F1, G1)),
            ("Q", C1, A1, (B1, C1, D1), (E1, D1, C1))),
    BLACK: (("k", G8, H8, (F8, G8), (E8, F8, G8)),
            ("q", C8, A8, (B8, C8, D8), (E8, D8, C8))),
}


def _castles(p: Position) -> list:
    """Legal castling moves; placement is re-checked for hand-built positions."""
    board = p.board
    white = p.turn == WHITE
    king, rook = ("K", "R") if white else ("k", "r")
    home = E1 if white else E8
    return [Move(home, to_sq, castle=right.upper())
            for right, to_sq, rook_sq, empty, path in _CASTLING[p.turn]
            if right in p.castling and board[home] == king and board[rook_sq] == rook
            and all(board[s] is None for s in empty)
            and not any(_attacked(board, s, not white) for s in path)]


def _leaves_king_safe(board: list, m: Move, white: bool, king_sq: int) -> bool:
    """Make ``m`` on the scratch ``board``, test the own king, and unmake it."""
    f = m.from_sq
    cap_sq = m.to_sq + (-16 if white else 16) if m.en_passant else m.to_sq
    moved, captured = board[f], board[cap_sq]
    board[cap_sq] = board[f] = None
    board[m.to_sq] = moved
    ok = not _attacked(board, m.to_sq if f == king_sq else king_sq, not white)
    board[m.to_sq] = None
    board[f] = moved
    board[cap_sq] = captured
    return ok


def legal_moves(p: Position) -> list:
    """All legal moves in ``p`` under FIDE rules."""
    board = list(p.board)
    white = p.turn == WHITE
    king_sq = p.kings[0] if white else p.kings[1]
    in_check = _attacked(board, king_sq, not white)
    pinned = _pinned_squares(board, king_sq, white)
    out = [m for m in _pseudo_moves(p)
           if (not in_check and m.from_sq != king_sq and m.from_sq not in pinned
               and not m.en_passant) or _leaves_king_safe(board, m, white, king_sq)]
    return out + _castles(p)


def _has_legal_move(p: Position) -> bool:
    """Whether the side to move, which must be in check, has a legal move:
    castling never is one, so the first pseudo-move leaving the king safe decides."""
    board = list(p.board)
    white = p.turn == WHITE
    king_sq = p.kings[0] if white else p.kings[1]
    return any(_leaves_king_safe(board, m, white, king_sq) for m in _pseudo_moves(p))


def is_check(p: Position) -> bool:
    white = p.turn == WHITE
    return _attacked(p.board, p.kings[0] if white else p.kings[1], not white)


def _apply(p: Position, m: Move) -> Position:
    """Apply a known-legal move. Callers must have validated legality."""
    board = list(p.board)
    white = p.turn == WHITE
    pc = board[m.from_sq]
    board[m.from_sq] = None
    if m.en_passant:
        board[m.to_sq + (-16 if white else 16)] = None
    if m.promotion:
        board[m.to_sq] = m.promotion if white else m.promotion.lower()
    else:
        board[m.to_sq] = pc
    if m.castle == "K":
        rook_from, rook_to = (H1, F1) if white else (H8, F8)
        board[rook_to] = board[rook_from]
        board[rook_from] = None
    elif m.castle == "Q":
        rook_from, rook_to = (A1, D1) if white else (A8, D8)
        board[rook_to] = board[rook_from]
        board[rook_from] = None

    rights = p.castling
    if rights:
        if pc == "K":
            rights = rights.replace("K", "").replace("Q", "")
        elif pc == "k":
            rights = rights.replace("k", "").replace("q", "")
        for sq, flag in ((H1, "K"), (A1, "Q"), (H8, "k"), (A8, "q")):
            if m.from_sq == sq or m.to_sq == sq:
                rights = rights.replace(flag, "")

    ep = None
    if pc in ("P", "p") and abs(m.to_sq - m.from_sq) == 32:
        ep = (m.from_sq + m.to_sq) // 2
    halfmove = 0 if (pc in ("P", "p") or m.capture) else p.halfmove + 1
    fullmove = p.fullmove + (0 if white else 1)
    kings = ((m.to_sq, p.kings[1]) if pc == "K" else (p.kings[0], m.to_sq) if pc == "k"
             else p.kings)
    return Position(tuple(board), BLACK if white else WHITE, rights, ep, halfmove, fullmove,
                    kings)


def apply_move(p: Position, m: Move) -> Position:
    """Apply ``m`` to ``p``, raising IllegalMoveError if it is not legal."""
    if m not in legal_moves(p):
        raise IllegalMoveError(f"illegal move {m.uci()} in {emit_fen(p)}")
    return _apply(p, m)


def _canonical_ep(p: Position) -> Optional[int]:
    """The en-passant target if some legal capture lands on it, else None.

    The ep square is empty (parse_fen rejects an occupied one) and lies on
    the third or sixth rank, so the only pawn moves ``_origins`` finds onto
    it are en-passant captures.
    """
    return p.ep if p.ep is not None and _origins(p, "P", p.ep, None) else None


def initial_position() -> Position:
    return parse_fen(START_FEN)


def parse_fen(text: str) -> Position:
    """Parse a 6-field FEN or 4-field EPD body into a valid Position."""
    fields = text.split()
    if len(fields) == 4:
        fields = fields + ["0", "1"]
    if len(fields) != 6:
        raise FenError(f"expected 4 or 6 fields, got {len(fields)}: {text!r}")
    placement, turn, castling, ep_field, half_field, full_field = fields

    board = [None] * 128
    ranks = placement.split("/")
    if len(ranks) != 8:
        raise FenError(f"placement needs 8 ranks: {placement!r}")
    kings = {"K": 0, "k": 0}
    for i, rank_text in enumerate(ranks):
        rank = 7 - i
        file = 0
        for ch in rank_text:
            if ch in "12345678":  # not str.isdigit, which takes "²" and "٨"
                file += int(ch)
            elif ch in "PNBRQKpnbrqk":
                if file > 7:
                    raise FenError(f"rank overflow in placement: {rank_text!r}")
                if ch in ("P", "p") and rank in (0, 7):
                    raise FenError(f"pawn on back rank: {placement!r}")
                if ch in kings:
                    kings[ch] += 1
                board[16 * rank + file] = ch
                file += 1
            else:
                raise FenError(f"bad placement character {ch!r}")
        if file != 8:
            raise FenError(f"rank has {file} files, expected 8: {rank_text!r}")
    if kings["K"] != 1 or kings["k"] != 1:
        raise FenError(f"need exactly one king per side, got K={kings['K']} k={kings['k']}")

    if turn not in (WHITE, BLACK):
        raise FenError(f"bad side-to-move field: {turn!r}")

    if castling == "-":
        rights = ""
    else:
        if not set(castling) <= set("KQkq") or len(set(castling)) != len(castling):
            raise FenError(f"bad castling field: {castling!r}")
        rights = "".join(flag for flag in "KQkq" if flag in castling)
    # drop rights inconsistent with king/rook placement
    kept = ""
    for flag, king_sq, rook_sq, king_pc, rook_pc in (
            ("K", E1, H1, "K", "R"), ("Q", E1, A1, "K", "R"),
            ("k", E8, H8, "k", "r"), ("q", E8, A8, "k", "r")):
        if flag in rights and board[king_sq] == king_pc and board[rook_sq] == rook_pc:
            kept += flag
    rights = kept

    if ep_field == "-":
        ep = None
    else:
        try:
            ep = parse_square(ep_field)
        except ValueError as exc:
            raise FenError(f"bad en-passant field: {ep_field!r}") from exc
        expected_rank = 5 if turn == WHITE else 2
        if ep >> 4 != expected_rank:
            raise FenError(f"en-passant square {ep_field!r} on wrong rank for side {turn}")
        if board[ep] is not None:
            raise FenError(f"en-passant square {ep_field!r} is occupied")

    # not int(), which takes "+1", "1_0" and "١"
    if not all(field.isascii() and field.isdigit() for field in (half_field, full_field)):
        raise FenError(f"bad clock fields: {half_field!r} {full_field!r}")
    halfmove = int(half_field)
    fullmove = int(full_field)
    if fullmove < 1:
        raise FenError(f"bad clock values: {halfmove} {fullmove}")

    king_squares = (board.index("K"), board.index("k"))
    # the side that just moved may not be left in check
    if _attacked(board, king_squares[1 if turn == WHITE else 0], turn == WHITE):
        raise FenError(f"side not to move is in check: {text!r}")
    return Position(tuple(board), turn, rights, ep, halfmove, fullmove, king_squares)


# runs of empty squares, longest first, so each run collapses to one digit
_EMPTY_RUNS = tuple(("1" * n, str(n)) for n in range(8, 1, -1))

RANK_TEXT_CACHE_SIZE = 4096  # distinct ranks whose FEN text _rank_text keeps


@functools.lru_cache(maxsize=RANK_TEXT_CACHE_SIZE)
def _rank_text(cells: tuple) -> str:
    """The FEN placement text of one rank's 8 board slots, a-file first."""
    text = "".join([pc or "1" for pc in cells])
    for run, digit in _EMPTY_RUNS:
        text = text.replace(run, digit)
    return text


def position_key(p: Position) -> str:
    """Canonical transposition key: 4-field FEN with normalized en passant."""
    board = p.board
    # rank 8 down to rank 1; ranks repeat far more often than placements
    placement = "/".join([_rank_text(board[s:s + 8]) for s in range(112, -1, -16)])
    ep = _canonical_ep(p)
    return (f"{placement} {p.turn} {p.castling or '-'} "
            f"{square_name(ep) if ep is not None else '-'}")


def emit_fen(p: Position) -> str:
    """Canonical 6-field FEN; en passant emitted only when capturable."""
    return f"{position_key(p)} {p.halfmove} {p.fullmove}"


_SAN_BODY = re.compile(
    r"^(?P<piece>[NBRQK])?(?P<ff>[a-h])?(?P<fr>[1-8])?(?P<cap>x)?"
    r"(?P<to>[a-h][1-8])(?:=?(?P<promo>[NBRQ]))?$"
)


SAN_TOKEN_CACHE_SIZE = 4096  # distinct token texts whose parse _parse_token keeps


@functools.lru_cache(maxsize=SAN_TOKEN_CACHE_SIZE)
def _parse_token(text: str):
    """The parts of a SAN token, ``(piece, from_file, from_rank, to_sq, promo,
    castle)``, or the head of the error message if it names no move."""
    token = text.strip().replace("e.p.", "").replace("(ep)", "").rstrip("+#!?")
    if not token:
        return "empty SAN token"
    if token in ("O-O", "0-0", "O-O-O", "0-0-0"):
        return None, None, None, None, None, "K" if len(token) == 3 else "Q"
    match = _SAN_BODY.fullmatch(token)
    if not match:
        return "unparsable SAN"
    piece, from_file, from_rank, _, to_name, promo = match.groups()
    return piece or "P", from_file, from_rank, parse_square(to_name), promo, None


def _origins(p: Position, piece: str, to_sq: int, promo: Optional[str]) -> list:
    """Legal non-castling moves of one piece type (uppercase) onto ``to_sq``.

    Candidates are worked back from the target (pawn moves behind it, knight
    and king offsets, slider rays cast out from it), and only they are tested
    for king safety: the from/to-square filtering of python-chess's
    ``Board.parse_san`` (https://github.com/niklasf/python-chess).
    """
    board = p.board
    white = p.turn == WHITE
    target = board[to_sq]
    if target is not None and target.isupper() == white:
        return []
    if (promo is not None) != (piece == "P" and to_sq >> 4 == (7 if white else 0)):
        return []
    own = piece if white else piece.lower()
    capture = target is not None
    moves = []
    if piece == "P":
        back = -16 if white else 16
        if capture or to_sq == p.ep:
            for s in (to_sq + back - 1, to_sq + back + 1):
                if not s & 0x88 and board[s] == own:
                    moves.append(Move(s, to_sq, promo, capture=True, en_passant=not capture))
        if not capture:
            s = to_sq + back
            if not s & 0x88 and board[s] == own:
                moves.append(Move(s, to_sq, promo))
            elif (to_sq >> 4 == (3 if white else 4) and board[s] is None
                  and board[s + back] == own):
                moves.append(Move(s + back, to_sq))
    elif piece in ("N", "K"):
        for s in (_KNIGHT_STEPS if piece == "N" else _KING_STEPS)[to_sq]:
            if board[s] == own:
                moves.append(Move(s, to_sq, capture=capture))
    else:
        rays = (_ROOK_RAYS[to_sq] if piece == "R" else _BISHOP_RAYS[to_sq] if piece == "B"
                else _ROOK_RAYS[to_sq] + _BISHOP_RAYS[to_sq])
        for ray in rays:
            for s in ray:
                pc = board[s]
                if pc is not None:
                    if pc == own:
                        moves.append(Move(s, to_sq, capture=capture))
                    break
    if not moves:
        return moves
    scratch = list(board)
    king_sq = p.kings[0] if white else p.kings[1]
    return [m for m in moves if _leaves_king_safe(scratch, m, white, king_sq)]


def _resolve(p: Position, text: str):
    """The unique legal move a SAN token names, and the legal moves of its
    piece type onto its target square (all castling moves for O-O/O-O-O)."""
    parsed = _parse_token(text)
    if isinstance(parsed, str):
        raise IllegalMoveError(f"{parsed} {text!r} in {emit_fen(p)}")
    piece, from_file, from_rank, to_sq, promo, castle = parsed
    if castle:
        pool = _castles(p)
        candidates = [m for m in pool if m.castle == castle]
    else:
        pool = _origins(p, piece, to_sq, promo)
        # pawn captures always carry the source file in SAN
        candidates = [m for m in pool
                      if (from_file or piece != "P" or not m.capture)
                      and from_file in (None, FILES[m.from_sq & 7])
                      and from_rank in (None, str((m.from_sq >> 4) + 1))]
    if not candidates:
        raise IllegalMoveError(f"illegal SAN {text!r} in {emit_fen(p)}")
    if len(candidates) > 1:
        raise AmbiguousSanError(f"ambiguous SAN {text!r} in {emit_fen(p)}")
    return candidates[0], pool


def _san(p: Position, m: Move, pool: list, successor: Position) -> str:
    """Canonical SAN of the legal move ``m``; ``pool`` is as _resolve returns
    it and ``successor`` is ``_apply(p, m)``, which gives the check suffix."""
    if m.castle:
        body = "O-O" if m.castle == "K" else "O-O-O"
    else:
        piece = p.board[m.from_sq].upper()
        to_name = square_name(m.to_sq)
        if piece == "P":
            body = (FILES[m.from_sq & 7] + "x" if m.capture else "") + to_name
            if m.promotion:
                body += "=" + m.promotion
        else:
            rivals = [o.from_sq for o in pool if o.from_sq != m.from_sq]
            disambig = ""
            if rivals:
                if all((s & 7) != (m.from_sq & 7) for s in rivals):
                    disambig = FILES[m.from_sq & 7]
                elif all((s >> 4) != (m.from_sq >> 4) for s in rivals):
                    disambig = str((m.from_sq >> 4) + 1)
                else:
                    disambig = square_name(m.from_sq)
            body = piece + disambig + ("x" if m.capture else "") + to_name
    if is_check(successor):
        body += "+" if _has_legal_move(successor) else "#"
    return body


def resolve_san(p: Position, text: str) -> Tuple[Move, str]:
    """Resolve a SAN token to its unique legal move and that move's canonical SAN."""
    m, pool = _resolve(p, text)
    return m, _san(p, m, pool, _apply(p, m))


def parse_san(p: Position, text: str) -> Move:
    """Resolve a SAN token to the unique matching legal move."""
    return _resolve(p, text)[0]


def emit_san(p: Position, m: Move) -> str:
    """Minimal-disambiguation SAN for a legal move, with check suffix."""
    piece = p.board[m.from_sq]
    pool = (_castles(p) if m.castle else
            _origins(p, piece.upper(), m.to_sq, m.promotion) if piece else [])
    if m not in pool:
        raise IllegalMoveError(f"illegal move {m.uci()} in {emit_fen(p)}")
    return _san(p, m, pool, _apply(p, m))


def perft(p: Position, depth: int) -> int:
    """Count leaf nodes of the legal move tree to the given depth."""
    if depth <= 0:
        return 1
    moves = legal_moves(p)
    if depth == 1:
        return len(moves)
    return sum(perft(_apply(p, m), depth - 1) for m in moves)
