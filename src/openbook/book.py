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
from typing import Iterable, List, NamedTuple

from . import rules
from .pgn import GameRecord, start_position

FORMAT_HEADER = "openbook-diff v1"

_COUNT = "(?:0|[1-9][0-9]*)"  # an integer as str() writes it
_META_RE = re.compile(
    f"meta source=(.*) games=({_COUNT}) positions=({_COUNT}) depth=({_COUNT})")
# what _serialize writes after the meta line: ``pos`` lines, each followed
# by its ``mv`` lines. A match stops at the start of the first line that
# breaks this form.
_BODY_RE = re.compile(
    f"(?:pos [ -~]+\n(?:mv [!-~]+ [1-9][0-9]* {_COUNT} {_COUNT} {_COUNT}\n)*)*")
_MATCH_SLICE = 32768  # characters of a book matched at a time, at least


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


class Book(NamedTuple):
    """Per-position per-move statistics plus build metadata."""

    depth: int
    source: str
    games: int
    positions: dict  # key -> {san -> MoveStats}

    @property
    def position_count(self) -> int:
        return len(self.positions)


def _by_rank(stats: MoveStats) -> tuple:
    """Sort key of a position's moves: most games first, ties by SAN."""
    return -stats.games, stats.san


def _rank_entries(stats: Iterable[MoveStats]) -> List[RankedMove]:
    return [RankedMove(i + 1, s.san, s.games, s.score_percent)
            for i, s in enumerate(sorted(stats, key=_by_rank))]


def query(book: Book, key: str) -> List[RankedMove]:
    """Ranked moves at a position key (``rules.position_key``); empty if not booked."""
    stats = book.positions.get(key)
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
    """Write UTF-8 text via a temp file and rename, so partial output never lands.

    The temp file is created with mode 0666, which the kernel lessens by the
    umask, so the output gets the mode of any newly created file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".openbook-{os.getpid()}-{os.urandom(6).hex()}")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
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


def _line_error(number: int, line: str, after_pos: bool) -> BookFormatError:
    """The error for the first line after the meta line that _BODY_RE refuses."""
    if line.startswith("pos "):
        return BookFormatError(f"line {number}: bad pos line {line!r}")
    if not line.startswith("mv "):
        return BookFormatError(f"line {number}: unexpected line {line!r}")
    if not after_pos:
        return BookFormatError(f"line {number}: mv line before any pos line")
    parts = line.split(" ")
    if len(parts) != 6 or "" in parts or not all(part.isprintable() for part in parts):
        return BookFormatError(f"line {number}: bad mv line {line!r}")
    try:
        games, wins, draws, losses = (int(x) for x in parts[2:])
    except ValueError:
        return BookFormatError(f"line {number}: non-integer counts in {line!r}")
    if games != wins + draws + losses or min(wins, draws, losses) < 0 or games < 1:
        return BookFormatError(f"line {number}: bad counts in {line!r}")
    return BookFormatError(f"line {number}: non-canonical counts in {line!r}")


def load_book(source, keys=None) -> Book:
    """Read and verify a book file written by save_book.

    Every check runs over the whole file, whatever ``keys`` is: the
    checksum, the header and meta lines, that every later line has the
    exact form save_book writes (canonical integers, single spaces, games
    >= 1, positions and moves in save_book's order, each once), that each
    move's results add up to its games, and the meta position count.

    With ``keys``, a collection of position keys, only the positions among
    them are built: the result is a read-only view for ``query``, whose
    ``positions`` and ``position_count`` cover just those positions. Do
    not save, merge or change it.
    """
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
    end = len(text) - len(checksum_line) - (1 if text.endswith("\n") else 0)
    digest = hashlib.sha256(text[:end].encode("utf-8")).hexdigest()
    if checksum_line != f"sha256 {digest}":
        raise BookFormatError(f"line {len(lines)}: checksum mismatch")
    if not text.endswith("\n"):
        raise BookFormatError(f"line {len(lines)}: no line break at the end")
    if lines[0] != FORMAT_HEADER:
        raise BookFormatError(f"line 1: bad header {lines[0]!r}")
    meta = _META_RE.fullmatch(lines[1])
    if not meta:
        raise BookFormatError(f"line 2: bad meta line {lines[1]!r}")
    start = len(lines[0]) + len(lines[1]) + 2
    # keys, SANs and counts are ASCII; only the source may be other text
    if not text[start:].isascii():
        raise BookFormatError("non-ASCII text after line 2")
    source_text, games, position_count, depth = meta.groups()
    book = Book(depth=int(depth), source=source_text, games=int(games), positions={})
    # match a slice at a time, each starting at a pos line, so the
    # matcher's backtracking stack stays small; stop at the first slice
    # that does not match to its end
    stop = cut = start
    while stop == cut < end:
        cut = text.find("\npos ", stop + _MATCH_SLICE, end) + 1 or end
        stop = _BODY_RE.match(text, stop, cut).end()
    matched = text.count("\n", start, stop)
    # the lines up to ``stop`` have save_book's form; what is left to check
    # is their order, duplicates and sums
    positions = book.positions
    count = 0
    key = moves = seen = last_games = last_san = None
    for number, line in enumerate(lines[2:2 + matched], start=3):
        if line[0] == "p":
            previous, key = key, line[4:]
            if count and key <= previous:
                raise BookFormatError(f"line {number}: duplicate position {key!r}"
                                      if key == previous else
                                      f"line {number}: position {key!r} out of order")
            count += 1
            if keys is None or key in keys:
                moves = positions[key] = {}
            else:
                moves = None
            seen = set()
            last_games = None
            continue
        _, san, games_n, wins, draws, losses = line.split(" ")
        games_n, wins, draws, losses = int(games_n), int(wins), int(draws), int(losses)
        if games_n != wins + draws + losses:
            raise BookFormatError(f"line {number}: bad counts in {line!r}")
        if san in seen:
            raise BookFormatError(f"line {number}: duplicate move {san!r}")
        seen.add(san)
        # save_book writes the most played moves first, ties by SAN
        if last_games is not None and (games_n > last_games or
                                       games_n == last_games and san < last_san):
            raise BookFormatError(f"line {number}: move {san!r} out of order")
        last_games, last_san = games_n, san
        if moves is not None:
            moves[san] = MoveStats(san, games_n, wins, draws, losses)
    if stop != end:
        raise _line_error(3 + matched, lines[2 + matched], count > 0)
    if count != int(position_count):
        raise BookFormatError(f"meta positions={position_count} but file has {count}")
    return book
