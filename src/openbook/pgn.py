"""Streaming PGN ingestion.

Parses a PGN file into replayable game records, keeping only the mainline.
Comments, NAGs and recursive variations are dropped. Broken games are
reported and skipped instead of aborting the stream.
"""

from __future__ import annotations

import io
import re
from typing import Iterable, Iterator, NamedTuple, Optional, Tuple, Union

from . import rules

RESULTS = ("1-0", "0-1", "1/2-1/2", "*")
NULL_MOVE_TOKENS = ("--", "Z0", "z0", "0000")

_TAG_RE = re.compile(r'\[\s*(\w+)\s*"((?:[^"\\]|\\.)*)"\s*\]')
_MOVE_NUMBER_RE = re.compile(r"^\d+\.*$")
_GLUED_NUMBER_RE = re.compile(r"^\d+\.+")
_MOVETEXT_SPECIAL_RE = re.compile(r"[{}();]")


class _GameFields(NamedTuple):
    tags: dict
    moves: Tuple[str, ...]
    result: str  # one of RESULTS
    game_index: int = 0  # 1-based position in its PGN source; 0 if built by hand


class GameRecord(_GameFields):
    """One parsed game: tag pairs, mainline SAN tokens, result.

    ``line`` is the game replayed from its start position: per ply, the
    move and the pool ``rules._resolve`` returned with it (the legal moves
    of its piece type onto its target square), which is what canonical SAN
    needs. It is computed on first use and kept outside the tuple, so
    equality ignores it; parse_pgn_stream uses it to validate every record.
    """

    _line: Optional[tuple] = None

    @property
    def line(self) -> Tuple[Tuple[rules.Move, list], ...]:
        """(move, pool) per ply; raises ReplayError if the moves do not replay."""
        if self._line is None:
            self._line = _replay(self)
        return self._line

    def rating(self, tag: str) -> Optional[int]:
        try:
            return int(self.tags[tag])
        except (KeyError, ValueError):
            return None


class MalformedGame(NamedTuple):
    """Report for a game that could not be parsed or replayed."""

    game_index: int
    reason: str
    tags: dict
    move_index: Optional[int] = None
    fen: Optional[str] = None


class ReplayError(ValueError):
    """Raised by ``GameRecord.line`` for a game whose moves do not replay."""

    def __init__(self, report: MalformedGame):
        super().__init__(report.reason)
        self.report = report


class GameFilter(NamedTuple):
    """Predicate bundle applied by filter_games.

    ``min_rating`` requires WhiteElo and BlackElo tags at or above the bound;
    with ``require_result`` set, games with an unknown result are dropped.
    """

    min_rating: Optional[int] = None
    require_result: bool = True

    def accepts(self, game: GameRecord) -> bool:
        if self.require_result and game.result == "*":
            return False
        if self.min_rating is not None:
            white = game.rating("WhiteElo")
            black = game.rating("BlackElo")
            if white is None or black is None:
                return False
            if white < self.min_rating or black < self.min_rating:
                return False
        return True


def _decode(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return raw.decode("latin-1")


def _lines(source) -> Iterator[str]:
    if isinstance(source, (str,)):
        with open(source, "rb") as handle:
            for raw in handle:
                yield _decode(raw)
        return
    if isinstance(source, io.TextIOBase):
        yield from source
        return
    for raw in source:
        yield _decode(raw) if isinstance(raw, bytes) else raw


def _strip_movetext(text: str, out: list, in_brace: bool = False, depth: int = 0):
    """Remove comments and variations, appending the mainline characters
    of ``text`` to ``out``.

    The scan starts inside a brace comment or ``depth`` variations deep, as
    given, and returns that state where ``text`` ends. A brace comment runs
    to the next "}", parentheses nest variations, and a ";" in the mainline
    comments out the rest of its line; inside a variation ";" and "}" are
    dropped, and a stray "}" in the mainline is kept. The scan jumps from
    one of the characters ``{}();`` to the next.
    """
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
        if token in RESULTS:
            result = token
            break
        # "0000" is a null move, not a move number
        if token[0].isdigit() and token not in NULL_MOVE_TOKENS:
            if _MOVE_NUMBER_RE.fullmatch(token):
                continue
            # glued move numbers like "1.e4"
            token = _GLUED_NUMBER_RE.sub("", token)
        elif token[0] == "$" or token == ".":
            continue
        if token in NULL_MOVE_TOKENS:
            null = True  # moves before the null stay valid evidence
        elif token and not null:
            tokens.append(token)
    return tokens, result


def parse_pgn_stream(source) -> Iterator[Union[GameRecord, MalformedGame]]:
    """Yield games (or malformed-game reports) from a PGN source.

    ``source`` may be a path, a text file object, or an iterable of
    bytes/str lines. Parsing is single pass; memory is bounded per game.
    Movetext is stripped line by line as it arrives, so a tag line inside a
    brace comment is read as comment, and a brace inside a ";" comment is not.
    """
    tags: dict = {}
    mainline: list = []
    seen_movetext = False
    in_brace, depth = False, 0
    game_index = 0

    def finish():
        nonlocal tags, mainline, seen_movetext, in_brace, depth, game_index
        record = None
        if tags or seen_movetext:
            game_index += 1
            record = _finish_game(tags, "".join(mainline), game_index)
        tags = {}
        mainline = []
        seen_movetext = False
        in_brace, depth = False, 0
        return record

    for line in _lines(source):
        if line.startswith("%"):
            continue
        stripped = line.strip()
        if not in_brace and stripped.startswith("[") and _TAG_RE.match(stripped):
            if seen_movetext:
                result = finish()
                if result is not None:
                    yield result
            for name, value in _TAG_RE.findall(stripped):
                tags[name] = value.replace('\\"', '"').replace("\\\\", "\\")
            continue
        if stripped:
            seen_movetext = True
            in_brace, depth = _strip_movetext(stripped, mainline, in_brace, depth)
            # the line break ends a ";" comment and separates tokens, but is
            # itself comment text inside braces or a variation
            if not in_brace and depth == 0:
                mainline.append("\n")
    result = finish()
    if result is not None:
        yield result


def _finish_game(tags: dict, movetext: str, game_index: int) -> Union[GameRecord, MalformedGame]:
    tokens, marker = _movetext_tokens(movetext)
    tag_result = tags.get("Result")
    if marker is not None and tag_result in RESULTS and tag_result != marker:
        return MalformedGame(game_index,
                             f"result tag {tag_result!r} contradicts marker {marker!r}",
                             tags=tags)
    record = GameRecord(tags, tuple(tokens),
                        marker or (tag_result if tag_result in RESULTS else "*"), game_index)
    try:
        record.line  # replays the game once and keeps what it resolved
    except ReplayError as exc:
        return exc.report
    return record


def _replay(game: GameRecord) -> tuple:
    try:
        pos = start_position(game.tags)
    except rules.FenError as exc:
        raise ReplayError(MalformedGame(game.game_index, f"bad FEN tag: {exc}",
                                        tags=game.tags)) from None
    line = []
    for index, token in enumerate(game.moves):
        try:
            move, pool = rules._resolve(pos, token)
        except rules.IllegalMoveError as exc:
            raise ReplayError(MalformedGame(game.game_index, str(exc), move_index=index,
                                            fen=rules.emit_fen(pos), tags=game.tags)) from None
        line.append((move, pool))
        pos = rules._apply(pos, move)
    return tuple(line)


_INITIAL_POSITION = rules.initial_position()  # immutable, so every game shares it


def start_position(tags: dict) -> rules.Position:
    """The position a game starts from: its FEN tag's, else the initial one."""
    fen = tags.get("FEN")
    return rules.parse_fen(fen) if fen else _INITIAL_POSITION


def filter_games(games: Iterable[GameRecord], game_filter: GameFilter) -> Iterator[GameRecord]:
    """Pass through exactly the games accepted by the filter, in order."""
    for game in games:
        if game_filter.accepts(game):
            yield game
