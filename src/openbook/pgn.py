"""Streaming PGN ingestion.

Parses a PGN file into replayable game records, keeping only the mainline.
Comments, NAGs and recursive variations are dropped. Broken games are
reported and skipped instead of aborting the stream.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Tuple, Union

from . import rules

RESULTS = ("1-0", "0-1", "1/2-1/2", "*")
NULL_MOVE_TOKENS = ("--", "Z0", "z0", "0000")

_TAG_RE = re.compile(r'\[\s*(\w+)\s*"((?:[^"\\]|\\.)*)"\s*\]')
_MOVE_NUMBER_RE = re.compile(r"^\d+\.*$")


@dataclass
class GameRecord:
    """One parsed game: tag pairs, mainline SAN tokens, result."""

    tags: dict
    moves: Tuple[str, ...]
    result: str  # one of RESULTS
    game_index: int = 0  # 1-based position in its PGN source; 0 if built by hand

    def rating(self, tag: str) -> Optional[int]:
        try:
            return int(self.tags[tag])
        except (KeyError, ValueError):
            return None


@dataclass
class MalformedGame:
    """Report for a game that could not be parsed or replayed."""

    game_index: int
    reason: str
    move_index: Optional[int] = None
    fen: Optional[str] = None
    tags: dict = field(default_factory=dict)


@dataclass
class GameFilter:
    """Predicate bundle applied by filter_games.

    ``min_rating`` requires WhiteElo and BlackElo tags at or above the bound;
    ``tag_predicates`` are callables over the tag dict; with
    ``require_result`` set, games with an unknown result are dropped.
    """

    min_rating: Optional[int] = None
    tag_predicates: Tuple[Callable[[dict], bool], ...] = ()
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
        for predicate in self.tag_predicates:
            try:
                if not predicate(game.tags):
                    return False
            except Exception:
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


def _strip_movetext(text: str) -> str:
    """Remove comments and variations, keeping only mainline tokens."""
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


def _movetext_tokens(text: str):
    tokens = []
    result = None
    for token in _strip_movetext(text).split():
        if token in RESULTS:
            result = token
            break
        if _MOVE_NUMBER_RE.fullmatch(token) or token.startswith("$") or token == ".":
            continue
        # glued move numbers like "1.e4"
        token = re.sub(r"^\d+\.+", "", token)
        if token:
            tokens.append(token)
    return tokens, result


def parse_pgn_stream(source) -> Iterator[Union[GameRecord, MalformedGame]]:
    """Yield games (or malformed-game reports) from a PGN source.

    ``source`` may be a path, a text file object, or an iterable of
    bytes/str lines. Parsing is single pass; memory is bounded per game.
    """
    tags: dict = {}
    movetext_parts: list = []
    seen_movetext = False
    in_brace = False
    game_index = 0

    def finish():
        nonlocal tags, movetext_parts, seen_movetext, in_brace, game_index
        record = None
        if tags or seen_movetext:
            game_index += 1
            record = _finish_game(tags, "\n".join(movetext_parts), game_index)
        tags = {}
        movetext_parts = []
        seen_movetext = False
        in_brace = False
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
            movetext_parts.append(stripped)
            opens = stripped.count("{")
            closes = stripped.count("}")
            if in_brace:
                in_brace = closes <= opens
            else:
                in_brace = opens > closes
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
    result = marker or (tag_result if tag_result in RESULTS else "*")

    mainline = []
    try:
        pos = start_position(tags)
    except rules.FenError as exc:
        return MalformedGame(game_index, f"bad FEN tag: {exc}", tags=tags)
    for index, token in enumerate(tokens):
        if token in NULL_MOVE_TOKENS:
            break  # moves before the null stay valid evidence
        try:
            move = rules.parse_san(pos, token)
        except rules.IllegalMoveError as exc:
            return MalformedGame(game_index, str(exc), move_index=index,
                                 fen=rules.emit_fen(pos), tags=tags)
        mainline.append(token)
        pos = rules._apply(pos, move)
    return GameRecord(tags, tuple(mainline), result, game_index)


def start_position(tags: dict) -> rules.Position:
    """The position a game starts from: its FEN tag's, else the initial one."""
    fen = tags.get("FEN")
    return rules.parse_fen(fen) if fen else rules.initial_position()


def filter_games(games: Iterable[GameRecord], game_filter: GameFilter) -> Iterator[GameRecord]:
    """Pass through exactly the games accepted by the filter, in order."""
    for game in games:
        if isinstance(game, GameRecord) and game_filter.accepts(game):
            yield game
