"""Opening-book data model: build from games, persist, query ranked moves.

A book maps canonical position keys (4-field FEN with normalized en
passant) to per-move statistics, so transpositions aggregate. The file
format is line oriented, sorted, and checksummed, which makes books
diff-able and merge results bit-identical to sequential builds.
"""

from __future__ import annotations

import hashlib
import io
import os
import re
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, List, NamedTuple, Optional

from . import rules
from .pgn import GameRecord, start_position

FORMAT_HEADER = "openbook-diff v1"

_META_RE = re.compile(r"meta source=(.*) games=([0-9]+) positions=([0-9]+) depth=([0-9]+)")


class BookFormatError(ValueError):
    """Raised when a book file is malformed, truncated, or corrupt."""


class MoveStats(NamedTuple):
    """Counts for one move at one position. games == wins + draws + losses."""

    san: str
    games: int
    white_wins: int
    draws: int
    black_wins: int

    @property
    def score_percent(self) -> float:
        """Percentage score from White's viewpoint."""
        return 100.0 * (self.white_wins + self.draws / 2.0) / self.games


class RankedMove(NamedTuple):
    """One row of a per-position ranked move table."""

    rank: int
    san: str
    games: int
    score_percent: float


@dataclass
class Book:
    """Per-position per-move statistics plus build metadata."""

    depth: int
    source: str = ""
    games: int = 0
    positions: dict = field(default_factory=dict)  # key -> {san -> MoveStats}

    @property
    def position_count(self) -> int:
        return len(self.positions)


def _by_rank(stats: MoveStats) -> tuple:
    """Sort key of a position's moves: most games first, ties by SAN."""
    return -stats.games, stats.san


def _rank_entries(stats: Iterable[MoveStats]) -> List[RankedMove]:
    return [RankedMove(i + 1, s.san, s.games, s.score_percent)
            for i, s in enumerate(sorted(stats, key=_by_rank))]


def ranked_from_counts(counts) -> List[RankedMove]:
    """Build a ranked list straight from (san, games) pairs or a dict.

    Result tallies are unknown, so score_percent is 0. Useful for feeding
    externally collected count tables into the measures.
    """
    items = counts.items() if hasattr(counts, "items") else counts
    ordered = sorted(items, key=lambda kv: (-kv[1], kv[0]))
    return [RankedMove(i + 1, san, games, 0.0)
            for i, (san, games) in enumerate(ordered)]


def query(book: Book, position: rules.Position) -> List[RankedMove]:
    """Ranked moves for a position; empty if the position is not booked."""
    stats = book.positions.get(rules.position_key(position))
    if not stats:
        return []
    return _rank_entries(stats.values())


_RESULT_TALLY = {"1-0": (1, 0, 0), "1/2-1/2": (0, 1, 0), "0-1": (0, 0, 1)}


def build_book(games: Iterable[GameRecord], max_depth: int = 40, source: str = "") -> Book:
    """Accumulate move statistics over the first ``max_depth`` plies of each game.

    Games with unknown results carry no score information and are skipped.
    Each game is replayed from its FEN tag's position, if it has one, using
    the moves its ``line`` resolved; a game whose moves do not all replay,
    even past ``max_depth``, raises ``pgn.ReplayError``. Records that
    ``parse_pgn_stream`` yields have already replayed.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    counts: dict = {}
    total_games = 0
    for game in games:
        tally = _RESULT_TALLY.get(game.result)
        if tally is None:
            continue
        line = game.line
        pos = start_position(game.tags)
        for move, pool in line[:max_depth]:
            successor = rules._apply(pos, move)
            san = rules._san(pos, move, pool, successor)
            entry = counts.setdefault(rules.position_key(pos), {}).setdefault(san, [0, 0, 0, 0])
            entry[0] += 1
            entry[1] += tally[0]
            entry[2] += tally[1]
            entry[3] += tally[2]
            pos = successor
        total_games += 1
    positions = {
        key: {san: MoveStats(san, *entry) for san, entry in moves.items()}
        for key, moves in counts.items()
    }
    return Book(depth=max_depth, source=source, games=total_games, positions=positions)


def merge_books(a: Book, b: Book) -> Book:
    """Sum two books built at the same depth; counts add per (key, san)."""
    if a.depth != b.depth:
        raise ValueError(f"depth mismatch: {a.depth} != {b.depth}")
    positions: dict = {}
    for book in (a, b):
        for key, moves in book.positions.items():
            into = positions.setdefault(key, {})
            for san, stats in moves.items():
                old = into.get(san)
                if old is None:
                    into[san] = stats
                else:
                    into[san] = MoveStats(san, old.games + stats.games,
                                          old.white_wins + stats.white_wins,
                                          old.draws + stats.draws,
                                          old.black_wins + stats.black_wins)
    source = a.source if a.source == b.source else f"{a.source}+{b.source}"
    return Book(depth=a.depth, source=source, games=a.games + b.games,
                positions=positions)


def _serialize(book: Book) -> str:
    """The book file text; BookFormatError if load_book could not read it back."""
    if "\n" in book.source:
        raise BookFormatError(f"source {book.source!r} contains a line break")
    try:
        book.source.encode("utf-8")
    except UnicodeEncodeError:
        raise BookFormatError(f"source {book.source!r} is not encodable as UTF-8") from None
    lines = [FORMAT_HEADER,
             f"meta source={book.source} games={book.games} "
             f"positions={book.position_count} depth={book.depth}"]
    for key in sorted(book.positions):
        lines.append(f"pos {key}")
        for s in sorted(book.positions[key].values(), key=_by_rank):
            lines.append(f"mv {s.san} {s.games} {s.white_wins} {s.draws} {s.black_wins}")
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + f"sha256 {digest}\n"


def write_atomic(path: str, text: str) -> None:
    """Write UTF-8 text via a temp file and rename, so partial output never lands."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".openbook-")
    try:
        umask = os.umask(0)  # give the file open()'s mode, not mkstemp's 0o600
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def save_book(book: Book, sink) -> None:
    """Write a book file to a path (atomically) or a text/binary file object."""
    text = _serialize(book)
    if isinstance(sink, str):
        write_atomic(sink, text)
    elif isinstance(sink, io.TextIOBase):
        sink.write(text)
    else:
        sink.write(text.encode("utf-8"))


def load_book(source) -> Book:
    """Read and verify a book file written by save_book."""
    if isinstance(source, str):
        with open(source, "rb") as handle:
            raw = handle.read()
    elif isinstance(source, io.TextIOBase):
        raw = source.read().encode("utf-8")
    else:
        raw = source.read()
        if isinstance(raw, str):
            raw = raw.encode("utf-8")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BookFormatError(f"not UTF-8 text: {exc}") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 3:
        raise BookFormatError("truncated book file")
    checksum_line = lines[-1]
    if not checksum_line.startswith("sha256 "):
        raise BookFormatError(f"line {len(lines)}: missing checksum line")
    body = "\n".join(lines[:-1]) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if checksum_line != f"sha256 {digest}":
        raise BookFormatError(f"line {len(lines)}: checksum mismatch")
    if lines[0] != FORMAT_HEADER:
        raise BookFormatError(f"line 1: bad header {lines[0]!r}")
    meta = _META_RE.fullmatch(lines[1])
    if not meta:
        raise BookFormatError(f"line 2: bad meta line {lines[1]!r}")
    # keys, SANs and counts are ASCII; only the source may be other text
    if not text[len(lines[0]) + len(lines[1]) + 2:].isascii():
        raise BookFormatError("non-ASCII text after line 2")
    source_text, games, position_count, depth = meta.groups()
    book = Book(depth=int(depth), source=source_text, games=int(games))
    current: Optional[dict] = None
    for number, line in enumerate(lines[2:-1], start=3):
        if line.startswith("pos "):
            key = line[4:]
            if key in book.positions:
                raise BookFormatError(f"line {number}: duplicate position {key!r}")
            current = book.positions.setdefault(key, {})
        elif line.startswith("mv "):
            if current is None:
                raise BookFormatError(f"line {number}: mv line before any pos line")
            parts = line.split()
            if len(parts) != 6:
                raise BookFormatError(f"line {number}: bad mv line {line!r}")
            san = parts[1]
            try:
                games_n, wins, draws, losses = (int(x) for x in parts[2:])
            except ValueError:
                raise BookFormatError(f"line {number}: non-integer counts in {line!r}")
            # save_book writes only moves played at least once
            if games_n != wins + draws + losses or min(wins, draws, losses) < 0 or games_n < 1:
                raise BookFormatError(f"line {number}: bad counts in {line!r}")
            if san in current:
                raise BookFormatError(f"line {number}: duplicate move {san!r}")
            current[san] = MoveStats(san, games_n, wins, draws, losses)
        else:
            raise BookFormatError(f"line {number}: unexpected line {line!r}")
    if book.position_count != int(position_count):
        raise BookFormatError(
            f"meta positions={position_count} but file has {book.position_count}")
    return book
