"""Streaming PGN ingestion.

Parses a PGN file into game records, keeping only the mainline. Comments,
NAGs and recursive variations are dropped, in one strip of each game's
movetext: a regex pass if it holds only brace comments, else a jump scan.
Each game is replayed once, on one mutable ``rules._Board``, as it is
parsed, and its fate is decided there: the replay validates every move,
and a record's ``plies`` is None exactly when the game enters no book;
otherwise it holds the key and SAN of the game's first plies. Broken games
are reported and skipped instead of aborting the stream.
"""

from __future__ import annotations

import codecs
import re
from typing import Iterable, Iterator, NamedTuple, Optional, Tuple, Union

from . import rules

RESULTS = ("1-0", "0-1", "1/2-1/2", "*")
NULL_MOVE_TOKENS = ("--", "Z0", "z0", "0000")

_TAG_RE = re.compile(r'\[\s*(\w+)\s*"((?:[^"\\]|\\.)*)"\s*\]')
_GLUED_NUMBER_RE = re.compile(r"^\d+\.+")
_MOVETEXT_SPECIAL_RE = re.compile(r"[{}();]")
_BRACE_COMMENT_RE = re.compile(r"\{[^}]*(?:\}|\Z)")
_SAN_FIRST = frozenset("abcdefghNBRQKO")  # which start no result, number, NAG or null move
_BLOCK = 1 << 16  # bytes that _lines reads at a time


class GameRecord(NamedTuple):
    """One parsed game: tag pairs, mainline SAN tokens, result.

    ``plies`` is None exactly when the game enters no book (``_passes``
    fails); otherwise it is what the game adds to one: the position key and
    the canonical SAN of each of its first plies, as many as the
    ``max_depth`` that parse_pgn_stream was given.
    """

    tags: dict
    moves: Tuple[str, ...]
    result: str  # one of RESULTS
    game_index: int  # 1-based position in its PGN source
    plies: Optional[Tuple[Tuple[str, str], ...]]


class MalformedGame(NamedTuple):
    """Report for a game that could not be parsed or replayed."""

    game_index: int
    reason: str
    move_index: Optional[int] = None


def _lines(path: str) -> Iterator[str]:
    """The lines of the PGN file at ``path`` as text, each decoded as UTF-8,
    or as Latin-1 if it is not UTF-8, less a byte-order mark at the file's
    start. A line ends at LF, CRLF or CR. The file is read a block at a time."""
    with open(path, "rb") as handle:
        data = handle.read(len(codecs.BOM_UTF8)).removeprefix(codecs.BOM_UTF8)
        while True:
            # a block at least as long as the line begun, so that a line of
            # any length is split in linear time
            block = handle.read(max(_BLOCK, len(data)))
            lines = (data + block).splitlines(True)
            # the last line may go on in the next block, if only by a CRLF's LF
            data = lines.pop() if block else b""
            for raw in lines:
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError:
                    line = raw.decode("latin-1")
                yield line
            if not block:
                return


def _strip_movetext(text: str, out: list, in_brace: bool = False, depth: int = 0):
    """Remove comments and variations, appending the mainline characters
    of ``text`` to ``out``.

    The scan starts inside a brace comment or ``depth`` variations deep, as
    given, and returns that state where ``text`` ends. A brace comment runs
    to the next "}", parentheses nest variations, and a ";" in the mainline
    comments out the rest of its line; inside a variation ";" and "}" are
    dropped, and a stray "}" in the mainline is kept. Text with no "(", ")"
    or ";" takes one regex pass; the scan jumps from one of ``{}();`` to the next.
    """
    if depth == 0 and "(" not in text and ")" not in text and ";" not in text:
        text = "{" + text if in_brace else text
        out.append(_BRACE_COMMENT_RE.sub("", text))
        return text.rfind("{") > text.rfind("}"), 0
    end = len(text)
    i = 0
    while i < end:
        if in_brace:
            j = text.find("}", i)
            if j < 0:
                break
            in_brace = False
            i = j + 1
            continue
        match = _MOVETEXT_SPECIAL_RE.search(text, i)
        j = match.start() if match else end
        if depth == 0:
            out.append(text[i:j])
        if match is None:
            break
        ch = text[j]
        i = j + 1
        if ch == "{":
            in_brace = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            if depth > 0:
                depth -= 1
        elif depth == 0:
            if ch == ";":
                j = text.find("\n", i)
                i = end if j < 0 else j
            else:
                out.append(ch)
    return in_brace, depth


def _movetext_tokens(text: str):
    """SAN tokens of stripped movetext up to its first null move, and the
    result marker that ends it (None if there is none)."""
    tokens = []
    result = None
    null = False
    for token in text.split():
        if token[0] in _SAN_FIRST and not null:
            if token != "e.p.":  # an en-passant marker written as its own token
                tokens.append(token)
            continue
        # a move number, where isdecimal takes the Unicode decimal digits, as
        # \d does; "0000" is a null move, not a move number
        if token.rstrip(".").isdecimal() and token not in NULL_MOVE_TOKENS:
            continue
        if token in RESULTS:
            result = token
            break
        if token[0].isdigit():
            # glued move numbers like "1.e4"
            token = _GLUED_NUMBER_RE.sub("", token)
        elif token[0] == "$" or token == ".":
            continue
        if token in NULL_MOVE_TOKENS:
            null = True  # moves before the null stay valid evidence
        elif token and not null:
            tokens.append(token)
    return tokens, result


def parse_pgn_stream(path: str, max_depth: int, min_rating: Optional[int] = None
                     ) -> Iterator[Union[GameRecord, MalformedGame]]:
    """Yield games (or malformed-game reports) from the PGN file at ``path``.

    Its lines may end in LF, CRLF or CR, and each is UTF-8 text, or Latin-1
    if it is not (``_lines``). Parsing is single pass; memory is bounded per
    game.
    A game's movetext is stripped when the game ends, in one call of
    _strip_movetext (its regex pass or its jump scan). A tag line after
    movetext is comment if the lines before it, stripped then, leave a
    brace comment open; lines with no "}" in an open one are not stripped.

    Every game is replayed to its end, and one whose moves do not all
    replay is reported. A game that enters a book at ``min_rating`` carries
    the ``plies`` of its first ``max_depth`` moves; any other has ``plies``
    None.
    """
    tags: dict = {}
    lines: list = []  # movetext lines, not yet stripped into mainline
    mainline: list = []
    seen_movetext = False
    in_brace, depth = False, 0
    game_index = 0

    def strip():  # the gathered lines into mainline; True if a brace comment is open
        nonlocal lines, in_brace, depth
        if lines and (not in_brace or any("}" in text for text in lines)):
            in_brace, depth = _strip_movetext("\n".join(lines), mainline, in_brace, depth)
        lines = []
        return in_brace

    def finish():
        nonlocal tags, mainline, seen_movetext, in_brace, depth, game_index
        game_index += 1
        strip()
        record = _finish_game(tags, "".join(mainline), game_index, max_depth, min_rating)
        tags, mainline, seen_movetext, in_brace, depth = {}, [], False, False, 0
        return record

    for line in _lines(path):
        if line.startswith("%"):
            continue
        stripped = line.strip()
        if stripped.startswith("[") and _TAG_RE.match(stripped) and not (
                seen_movetext and strip()):
            if seen_movetext:
                yield finish()
            for name, value in _TAG_RE.findall(stripped):
                tags[name] = value.replace('\\"', '"').replace("\\\\", "\\")
            continue
        if stripped:
            seen_movetext = True
            lines.append(stripped)
    if tags or seen_movetext:
        yield finish()


def _finish_game(tags: dict, movetext: str, game_index: int, max_depth: int,
                 min_rating: Optional[int] = None) -> Union[GameRecord, MalformedGame]:
    tokens, marker = _movetext_tokens(movetext)
    tag_result = tags.get("Result")
    if marker is not None and tag_result in RESULTS and tag_result != marker:
        return MalformedGame(game_index,
                             f"result tag {tag_result!r} contradicts marker {marker!r}")
    result = marker or (tag_result if tag_result in RESULTS else "*")
    # the filter reads only tags and the result, so it decides before the replay
    recorded = _passes(tags, result, min_rating)
    plies = _replay(tags.get("FEN"), tokens, game_index, max_depth if recorded else 0)
    if isinstance(plies, MalformedGame):
        return plies
    return GameRecord(tags, tuple(tokens), result, game_index, plies if recorded else None)


def _replay(fen: Optional[str], moves, game_index: int,
            max_depth: int) -> Union[Tuple[Tuple[str, str], ...], MalformedGame]:
    """Replay ``moves`` from the game's start position (its FEN tag's
    ``fen``, else the initial one), resolving and pushing each once on one
    ``rules._Board``. One loop records the position key (before the push)
    and the canonical SAN (after it) of each of the first ``max_depth``
    plies; a second only resolves and pushes the rest. Return the recorded
    plies, or the MalformedGame that says at which move the replay failed."""
    try:
        board = rules._Board(rules.parse_fen(fen) if fen else _INITIAL_POSITION)
    except rules.FenError as exc:
        return MalformedGame(game_index, f"bad FEN tag: {exc}")
    plies = []
    try:
        for index, token in enumerate(moves[:max_depth]):
            move, pool = rules._resolve(board, token)
            key = board.key()
            board.push(move)
            plies.append((key, rules._san(move, pool, board)))
        for index, token in enumerate(moves[max_depth:], max_depth):
            board.push(rules._resolve(board, token)[0])
    except rules.IllegalMoveError as exc:
        return MalformedGame(game_index, str(exc), move_index=index)
    return tuple(plies)


_INITIAL_POSITION = rules.initial_position()  # immutable, so every game shares it


def _passes(tags: dict, result: str, min_rating: Optional[int]) -> bool:
    """Whether a game enters a book: it has a known result and, when
    ``min_rating`` is given, WhiteElo and BlackElo tags of ASCII digits at
    or above it."""
    # not int(), which takes "+2400", "2_400", " 2400" and "٢٤٠٠"
    return result != "*" and (min_rating is None or all(
        r.isascii() and r.isdigit() and int(r) >= min_rating
        for r in (tags.get("WhiteElo", ""), tags.get("BlackElo", ""))))


def filter_games(games: Iterable[Union[GameRecord, MalformedGame]]) -> Iterator[GameRecord]:
    """Pass through, in order, the records of the games that enter a book,
    as parse_pgn_stream decided: those whose ``plies`` is not None. Reports
    of malformed games are dropped."""
    for game in games:
        if isinstance(game, GameRecord) and game.plies is not None:
            yield game
