"""Chess domain model: positions, FEN/EPD parsing, legal moves, SAN.

The board is a 0x88 mailbox: square index = 16 * rank + file, so off-board
squares are detected with ``index & 0x88``. White pieces are uppercase
letters, black lowercase. Positions are immutable values, and every public
operation takes and returns them. Inside, a line of moves is replayed on one
mutable ``_Board``: ``_Board.push`` makes a move in place and keeps the
board's check flag and the FEN text of its ranks current, the SAN resolvers
and the mate test read the live board, ``_Board.key`` renders its position
key (the one renderer: ``position_key`` builds a board to call it), and
``_Board.position`` freezes it into a Position. One legality rule,
``_keep_legal``, filters the pseudo-legal moves of ``legal_moves`` and the
SAN candidates of ``_origins`` alike.

Each rule's geometry is stated once, in a table built at import:
``_PIECE_RAYS`` holds the rays each piece walks from each square, for move
generation, the SAN origin walk and the attack test; ``_LINE_STEP`` and
``_ATTACKERS``, indexed by the 0x88 difference of two squares (plus 119),
tell whether they share a line and which pieces attack across it, so an
attack, a move's check and an own piece's pin are found by walking one line;
``_CASTLING`` holds each castling right's squares, and ``_RIGHTS_LOST``, the
rights a move off or onto each square ends, is derived from it.
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


def _rays(sq: int, dirs: tuple, slide: bool) -> tuple:
    """The non-empty rays from 0x88 square ``sq`` along ``dirs``, each nearest
    square first and of one square unless ``slide``; none from an off-board
    slot."""
    if sq & 0x88:
        return ()
    rays = []
    for d in dirs:
        ray = []
        s = sq + d
        while not s & 0x88:
            ray.append(s)
            if not slide:
                break
            s += d
        if ray:
            rays.append(tuple(ray))
    return tuple(rays)


# per piece letter (uppercase) and 0x88 square, the rays the piece walks from
# that square, built once so the attack, pin and origin walks need no bounds
# tests; knight and king steps are rays of one square
_PIECE_RAYS = {piece: [_rays(sq, dirs, slide) for sq in range(128)]
               for piece, dirs, slide in (("N", KNIGHT_OFFSETS, False), ("B", BISHOP_DIRS, True),
                                          ("R", ROOK_DIRS, True), ("Q", KING_OFFSETS, True),
                                          ("K", KING_OFFSETS, False))}


def _line_tables() -> tuple:
    """Two lists indexed by the 0x88 difference ``target - origin + 119`` of two
    squares: the unit step from origin to target along their rank, file or
    diagonal (0 if they share none), and the piece letters that attack target
    from origin when nothing stands between them."""
    step, attackers = [0] * 239, [""] * 239
    for d in KING_OFFSETS:
        sliders = "QqRr" if d in ROOK_DIRS else "QqBb"
        for n in range(1, 8):
            step[d * n + 119] = d
            attackers[d * n + 119] = sliders
        attackers[d + 119] += "Kk" + ("P" if d in (15, 17) else "p" if d in (-15, -17) else "")
    for d in KNIGHT_OFFSETS:
        attackers[d + 119] = "Nn"
    return step, attackers


_LINE_STEP, _ATTACKERS = _line_tables()

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


# per castling right, in FEN order: the king's and the rook's home squares,
# their squares after castling, the squares between the two homes, which must
# be empty, and the squares the king stands on and passes, which must not be
# attacked
_CASTLING = {right: (king, rook, king_to, rook_to,
                     range(min(king, rook) + 1, max(king, rook)),
                     range(min(king, king_to), max(king, king_to) + 1))
             for right, king, rook, king_to, rook_to in (
                 ("K", E1, H1, G1, F1), ("Q", E1, A1, C1, D1),
                 ("k", E8, H8, G8, F8), ("q", E8, A8, C8, D8))}
# per 0x88 square, the rights lost when a move leaves or lands on it
_RIGHTS_LOST = ["".join(right for right, (king, rook, *_) in _CASTLING.items()
                        if sq in (king, rook)) for sq in range(128)]


def _in_place(board, right: str) -> bool:
    """Whether the king and the rook of castling ``right`` stand on their
    home squares."""
    king, rook = _CASTLING[right][:2]
    white = right.isupper()
    return board[king] == ("K" if white else "k") and board[rook] == ("R" if white else "r")


class _Board:
    """A mutable position: the fields of a Position, with ``squares`` a list
    of the 128 slots and ``white`` for ``turn``. ``push`` changes it in
    place, so a line of moves is replayed without a copy per ply.

    ``push`` keeps two more things current. ``check`` is whether the side to
    move is in check, found from the move just made; a board built from a
    Position leaves it None until ``in_check`` first reads it. ``ranks``
    holds the FEN placement text of each rank, rank 8 first, with None for
    a rank that a move has touched since ``key`` last rendered it.
    """

    __slots__ = ("squares", "white", "castling", "ep", "halfmove", "fullmove", "kings",
                 "check", "ranks")

    def __init__(self, p: Position):
        self.squares = list(p.board)
        self.white = p.turn == WHITE
        self.castling = p.castling
        self.ep = p.ep
        self.halfmove = p.halfmove
        self.fullmove = p.fullmove
        self.kings = p.kings
        self.check = None
        self.ranks = [None] * 8

    def position(self) -> Position:
        """The position on the board now, frozen."""
        return Position(tuple(self.squares), WHITE if self.white else BLACK, self.castling,
                        self.ep, self.halfmove, self.fullmove, self.kings)

    def in_check(self) -> bool:
        """Whether the side to move is in check."""
        check = self.check
        if check is None:
            white = self.white
            check = self.check = _attacked(self.squares, self.kings[0] if white else self.kings[1],
                                           not white)
        return check

    def key(self) -> str:
        """Canonical transposition key of the board now: 4-field FEN with
        normalized en passant.

        The ep square is empty (parse_fen rejects an occupied one) and lies
        on the third or sixth rank, so the only pawn moves ``_origins`` finds
        onto it are en-passant captures; it is shown only if there is one.
        """
        ranks = self.ranks
        if None in ranks:
            board = self.squares
            # rank 8 down to rank 1; ranks repeat far more often than placements
            for i, text in enumerate(ranks):
                if text is None:
                    s = 112 - 16 * i
                    ranks[i] = _rank_text(tuple(board[s:s + 8]))
        ep = self.ep
        ep_name = square_name(ep) if ep is not None and _origins(self, "P", ep, None) else "-"
        turn = WHITE if self.white else BLACK
        return f"{'/'.join(ranks)} {turn} {self.castling or '-'} {ep_name}"

    def push(self, m: Move) -> None:
        """Make a known-legal move in place. Callers must have validated legality."""
        f, t, promotion, capture, en_passant, castle = m
        board = self.squares
        white = self.white
        pc = board[f]
        board[f] = None
        if en_passant:
            board[t + (-16 if white else 16)] = None
        if promotion:
            board[t] = promotion if white else promotion.lower()
        else:
            board[t] = pc
        # the piece that may give check directly: a king never can
        checker = t
        if castle:
            _, rook_from, _, checker, _, _ = _CASTLING[castle if white else castle.lower()]
            board[checker] = board[rook_from]
            board[rook_from] = None
        # an en-passant victim and a castling rook stand on the rank of ``f``
        ranks = self.ranks
        ranks[7 - (f >> 4)] = ranks[7 - (t >> 4)] = None

        # the opponent was not in check, so a check now comes from the piece
        # that arrived or from a line through a square the move emptied; a
        # castling rook leaves a corner, which lies between no two squares; a
        # zero ``_LINE_STEP`` puts the emptied square on no line of the king
        king_sq = self.kings[1] if white else self.kings[0]
        d = king_sq - checker + 119
        check = False
        if board[checker] in _ATTACKERS[d]:
            step = _LINE_STEP[d]
            if step:
                s = checker + step
                while board[s] is None:
                    s += step
                check = s == king_sq
            else:
                check = True  # a knight
        self.check = (check or _LINE_STEP[f - king_sq + 119]
                      and _attacks_through(board, king_sq, f, white) or en_passant
                      and _attacks_through(board, king_sq, t + (-16 if white else 16), white))

        rights = self.castling
        if rights:
            lost = _RIGHTS_LOST[f] + _RIGHTS_LOST[t]
            if lost:
                self.castling = "".join([right for right in rights if right not in lost])

        pawn = pc in ("P", "p")
        self.ep = (f + t) // 2 if pawn and abs(t - f) == 32 else None
        self.halfmove = 0 if (pawn or capture) else self.halfmove + 1
        if not white:
            self.fullmove += 1
        if pc == "K":
            self.kings = (t, self.kings[1])
        elif pc == "k":
            self.kings = (self.kings[0], t)
        self.white = not white


def _attacks_through(board, king_sq: int, sq: int, white: bool) -> bool:
    """Whether the first piece past ``king_sq`` on the line through ``sq``,
    taking ``sq`` as empty, is one of the given colour that attacks the king
    along the line."""
    step = _LINE_STEP[sq - king_sq + 119]
    if not step:
        return False
    s = king_sq + step
    while not s & 0x88:
        pc = board[s]
        if pc is not None and s != sq:
            return pc.isupper() == white and pc in _ATTACKERS[king_sq - s + 119]
        s += step
    return False


def _attacked(board, sq: int, by_white: bool) -> bool:
    """Is ``sq`` attacked by any piece of the given color? The first piece on
    each knight step and queen ray out of ``sq`` attacks it if ``_ATTACKERS``
    lists that piece for their difference, which covers pawn direction and
    king adjacency too."""
    for rays in (_PIECE_RAYS["N"][sq], _PIECE_RAYS["Q"][sq]):
        for ray in rays:
            for s in ray:
                pc = board[s]
                if pc is not None:
                    if pc in _ATTACKERS[sq - s + 119] and pc.isupper() == by_white:
                        return True
                    break
    return False


def _pseudo_moves(b: _Board):
    """The pseudo-legal non-castling moves on the live board ``b``, a1 first,
    made one at a time: a caller may make and unmake a move before it asks
    for the next."""
    board = b.squares
    white = b.white
    ep = b.ep
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
                        yield tuple.__new__(Move, (s, t, promo, False, False, None))
                else:
                    yield tuple.__new__(Move, (s, t, None, False, False, None))
                    t2 = t + fwd
                    if s >> 4 == start_rank and board[t2] is None:
                        yield tuple.__new__(Move, (s, t2, None, False, False, None))
            for d in (fwd - 1, fwd + 1):
                t = s + d
                if t & 0x88:
                    continue
                target = board[t]
                if target is not None and target.isupper() != white:
                    if t >> 4 == promo_rank:
                        for promo in "QRBN":
                            yield tuple.__new__(Move, (s, t, promo, True, False, None))
                    else:
                        yield tuple.__new__(Move, (s, t, None, True, False, None))
                elif target is None and ep == t:
                    yield tuple.__new__(Move, (s, t, None, True, True, None))
        else:
            for ray in _PIECE_RAYS[kind][s]:
                for t in ray:
                    target = board[t]
                    if target is None:
                        yield tuple.__new__(Move, (s, t, None, False, False, None))
                    else:
                        if target.isupper() != white:
                            yield tuple.__new__(Move, (s, t, None, True, False, None))
                        break


def _castles(b: _Board) -> list:
    """Legal castling moves on the live board ``b``; placement is re-checked
    for hand-built positions."""
    board = b.squares
    white = b.white
    moves = []
    for right in ("KQ" if white else "kq"):
        king, _, king_to, _, empty, path = _CASTLING[right]
        if (right in b.castling and _in_place(board, right)
                and all(board[s] is None for s in empty)
                and not any(_attacked(board, s, not white) for s in path)):
            moves.append(Move(king, king_to, castle=right.upper()))
    return moves


def _leaves_king_safe(board: list, m: Move, white: bool, king_sq: int) -> bool:
    """Make ``m`` on ``board``, test the own king, and unmake it."""
    f, t, _, _, en_passant, _ = m
    cap_sq = t + (-16 if white else 16) if en_passant else t
    moved, captured = board[f], board[cap_sq]
    board[cap_sq] = board[f] = None
    board[t] = moved
    ok = not _attacked(board, t if f == king_sq else king_sq, not white)
    board[t] = None
    board[f] = moved
    board[cap_sq] = captured
    return ok


def _keep_legal(board: list, moves, white: bool, king_sq: int, in_check: bool) -> list:
    """The pseudo-legal ``moves`` that leave the own king on ``king_sq`` safe,
    in their order: the one legality rule. A king move, en passant or a move
    out of check is made and unmade; any other move is unsafe only if it
    takes a pinned piece off the line through the king."""
    out = []
    for m in moves:
        f = m.from_sq
        if (_leaves_king_safe(board, m, white, king_sq)
                if in_check or f == king_sq or m.en_passant
                else not (step := _LINE_STEP[f - king_sq + 119])
                or _LINE_STEP[m.to_sq - king_sq + 119] == step
                or not _attacks_through(board, king_sq, f, not white)):
            out.append(m)
    return out


def legal_moves(p: Position) -> list:
    """All legal moves in ``p`` under FIDE rules."""
    b = _Board(p)
    king_sq = b.kings[0] if b.white else b.kings[1]
    return _keep_legal(b.squares, _pseudo_moves(b), b.white, king_sq, b.in_check()) + _castles(b)


def _has_legal_move(b: _Board) -> bool:
    """Whether the side to move on the live board ``b``, which must be in
    check, has a legal move: castling never is one, so the first pseudo-move
    leaving the king safe decides. The board is left as it was."""
    board = b.squares
    white = b.white
    king_sq = b.kings[0] if white else b.kings[1]
    return any(_leaves_king_safe(board, m, white, king_sq) for m in _pseudo_moves(b))


def _apply(p: Position, m: Move) -> Position:
    """Apply a known-legal move. Callers must have validated legality."""
    b = _Board(p)
    b.push(m)
    return b.position()


def apply_move(p: Position, m: Move) -> Position:
    """Apply ``m`` to ``p``, raising IllegalMoveError if it is not legal."""
    return _make_checked(p, m)[0].position()


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
                board[16 * rank + file] = ch
                file += 1
            else:
                raise FenError(f"bad placement character {ch!r}")
        if file != 8:
            raise FenError(f"rank has {file} files, expected 8: {rank_text!r}")
    white_kings, black_kings = placement.count("K"), placement.count("k")
    if white_kings != 1 or black_kings != 1:
        raise FenError(f"need exactly one king per side, got K={white_kings} k={black_kings}")

    if turn not in (WHITE, BLACK):
        raise FenError(f"bad side-to-move field: {turn!r}")

    if castling != "-" and (not set(castling) <= set(_CASTLING)
                            or len(set(castling)) != len(castling)):
        raise FenError(f"bad castling field: {castling!r}")
    # in FEN order, dropping rights inconsistent with king/rook placement
    rights = "".join(right for right in _CASTLING
                     if right in castling and _in_place(board, right))

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
    return _Board(p).key()


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
    castle)`` with the source file and rank as 0-7 or None, or the head of
    the error message if it names no move."""
    token = text.strip().replace("e.p.", "").rstrip("+#!?")
    if not token:
        return "empty SAN token"
    if token in ("O-O", "0-0", "O-O-O", "0-0-0"):
        return None, None, None, None, None, "K" if len(token) == 3 else "Q"
    match = _SAN_BODY.fullmatch(token)
    if not match:
        return "unparsable SAN"
    piece, from_file, from_rank, _, to_name, promo = match.groups()
    return (piece or "P", from_file and FILES.index(from_file), from_rank and int(from_rank) - 1,
            parse_square(to_name), promo, None)


def _origins(b: _Board, piece: str, to_sq: int, promo: Optional[str]) -> list:
    """Legal non-castling moves of one piece type (uppercase) onto ``to_sq``
    on the live board ``b``, which is left as it was.

    Candidates are worked back from the target (pawn moves behind it, knight
    and king offsets, slider rays cast out from it), and only they go
    through ``_keep_legal``: the from/to-square filtering of python-chess's
    ``Board.parse_san`` (https://github.com/niklasf/python-chess).
    """
    board = b.squares
    white = b.white
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
        if capture or to_sq == b.ep:
            for s in (to_sq + back - 1, to_sq + back + 1):
                if not s & 0x88 and board[s] == own:
                    moves.append(tuple.__new__(Move, (s, to_sq, promo, True, not capture, None)))
        if not capture:
            s = to_sq + back
            if not s & 0x88 and board[s] == own:
                moves.append(tuple.__new__(Move, (s, to_sq, promo, False, False, None)))
            elif (to_sq >> 4 == (3 if white else 4) and board[s] is None
                  and board[s + back] == own):
                moves.append(tuple.__new__(Move, (s + back, to_sq, None, False, False, None)))
    else:
        for ray in _PIECE_RAYS[piece][to_sq]:
            for s in ray:
                pc = board[s]
                if pc is not None:
                    if pc == own:
                        moves.append(tuple.__new__(Move, (s, to_sq, None, capture, False, None)))
                    break
    if not moves:
        return moves
    return _keep_legal(board, moves, white, b.kings[0] if white else b.kings[1], b.in_check())


def _resolve(b: _Board, text: str):
    """The unique legal move a SAN token names on the live board ``b``, and
    the legal moves of its piece type onto its target square (all castling
    moves for O-O/O-O-O), which ``_origins`` and so ``_keep_legal`` decide;
    the token's source file and rank then pick among them."""
    parsed = _parse_token(text)
    if isinstance(parsed, str):
        raise IllegalMoveError(f"{parsed} {text!r} in {emit_fen(b.position())}")
    piece, from_file, from_rank, to_sq, promo, castle = parsed
    if castle:
        pool = _castles(b)
        candidates = [m for m in pool if m.castle == castle]
    else:
        pool = _origins(b, piece, to_sq, promo)
        # a token naming no source file or rank fits every pool move, but
        # pawn captures always carry the source file in SAN
        if from_file is None and from_rank is None:
            candidates = pool if piece != "P" else [m for m in pool if not m.capture]
        else:
            candidates = [m for m in pool
                          if (from_file is not None or piece != "P" or not m.capture)
                          and from_file in (None, m.from_sq & 7)
                          and from_rank in (None, m.from_sq >> 4)]
    if not candidates:
        raise IllegalMoveError(f"illegal SAN {text!r} in {emit_fen(b.position())}")
    if len(candidates) > 1:
        raise AmbiguousSanError(f"ambiguous SAN {text!r} in {emit_fen(b.position())}")
    return candidates[0], pool


def _san(m: Move, pool: list, b: _Board) -> str:
    """Canonical SAN of the legal move ``m``, just made on the live board
    ``b``; ``pool`` is as _resolve returns it. The check suffix comes from
    ``b.check``, and a check's mate test reads the board too."""
    if m.castle:
        body = "O-O" if m.castle == "K" else "O-O-O"
    else:
        piece = "P" if m.promotion else b.squares[m.to_sq].upper()
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
    if b.check:
        body += "+" if _has_legal_move(b) else "#"
    return body


def parse_san(p: Position, text: str) -> Move:
    """Resolve a SAN token to the unique matching legal move."""
    return _resolve(_Board(p), text)[0]


def _make_checked(p: Position, m: Move):
    """A live board of ``p`` with ``m`` made, and the legal moves of its kind
    (``_origins``, or ``_castles``) it was among; IllegalMoveError if not."""
    b = _Board(p)
    # only an on-board 0x88 square sets no bit outside 0x77 (a negative index sets many)
    piece = None if (m.from_sq | m.to_sq) & ~0x77 else b.squares[m.from_sq]
    pool = (_castles(b) if m.castle else
            _origins(b, piece.upper(), m.to_sq, m.promotion)
            if piece and m.promotion in (None, "N", "B", "R", "Q") else [])
    if m not in pool:
        raise IllegalMoveError(f"illegal move {m.uci()} in {emit_fen(p)}")
    b.push(m)
    return b, pool


def emit_san(p: Position, m: Move) -> str:
    """Minimal-disambiguation SAN for a legal move, with check suffix."""
    b, pool = _make_checked(p, m)
    return _san(m, pool, b)


def perft(p: Position, depth: int) -> int:
    """Count leaf nodes of the legal move tree to the given depth."""
    if depth <= 0:
        return 1
    moves = legal_moves(p)
    if depth == 1:
        return len(moves)
    return sum(perft(_apply(p, m), depth - 1) for m in moves)
