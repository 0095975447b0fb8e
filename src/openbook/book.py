"""Opening-book data model: build from games, persist, query ranked moves.

A book maps canonical position keys (4-field FEN with normalized en
passant) to per-move statistics, so transpositions aggregate. Building
counts the keys and SANs that the one replay of each game in ``pgn``
recorded, for the games that enter a book. The file format is line
oriented, sorted, and checksummed, which makes books diff-able and merge
results bit-identical to sequential builds. Loading checks a file in one
pass over its lines. ``query`` gives a position's ``MoveStats`` in rank
order, the ranked list that ``measures`` reads, so a move's rank is its
place in that list.
"""

from __future__ import annotations

import errno
import hashlib
import os
import re
from typing import Dict, Iterable, List, NamedTuple

from .pgn import GameRecord

FORMAT_HEADER = "openbook-diff v1"

_COUNT = "(?:0|[1-9][0-9]*)"  # an integer as str() writes it
_META_RE = re.compile(
    f"meta source=(.*) games=({_COUNT}) positions=({_COUNT}) depth=({_COUNT})")


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


def query(book: Book, key: str) -> List[MoveStats]:
    """The moves at a position key (``rules.position_key``) in rank order, so
    a move's rank is its place from 1; empty if the position is not booked."""
    return sorted(book.positions.get(key, {}).values(), key=_by_rank)


_RESULT_TALLY = {"1-0": (1, 0, 0), "1/2-1/2": (0, 1, 0), "0-1": (0, 0, 1)}


def build_book(games: Iterable[GameRecord], max_depth: int, source: str = "") -> Book:
    """Accumulate move statistics over the first ``max_depth`` plies of each game.

    ``games`` are records of games that enter a book, as filter_games
    passes them. Each adds the ``plies`` that ``parse_pgn_stream``
    recorded as it replayed it, cut to ``max_depth``, so it should have
    been parsed at ``max_depth`` or deeper.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    counts: dict = {}
    total_games = 0
    for game in games:
        tally = _RESULT_TALLY[game.result]
        for key, san in game.plies[:max_depth]:
            entry = counts.setdefault(key, {}).setdefault(san, [0, 0, 0, 0])
            entry[0] += 1
            entry[1] += tally[0]
            entry[2] += tally[1]
            entry[3] += tally[2]
        total_games += 1
    # in place, so the count lists and the MoveStats are never all alive at once
    for moves in counts.values():
        for san, entry in moves.items():
            moves[san] = MoveStats(san, *entry)
    return Book(depth=max_depth, source=source, games=total_games, positions=counts)


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


def _one_line(text: str) -> bool:
    """Whether ``text`` holds no character that ``str.splitlines`` breaks on, so
    that no reader of a file that quotes it sees two lines."""
    return text.splitlines() == ([text] if text else [])


def _serialize(book: Book) -> str:
    """The book file text; BookFormatError if load_book could not read it back."""
    if not _one_line(book.source):
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


def write_atomic(files: Dict[str, str]) -> None:
    """Write each ``path: text`` of ``files`` as UTF-8 via a temp file beside
    it, and rename the temp files into place, in order, only once all are
    written and no target is a directory; so a failed write replaces no file
    (barring a rename that fails after that) and leaves no temp file. The
    OSError raised names the path asked for. Temp files get mode 0666 less
    the umask, as any newly created file would.
    """
    temps: List[str] = []
    path = None
    try:
        for path, text in files.items():
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            temp = os.path.join(os.path.dirname(os.path.abspath(path)),
                                f".openbook-{os.getpid()}-{os.urandom(6).hex()}")
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            temps.append(temp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        for temp, path in zip(temps, files):
            os.replace(temp, path)
    except BaseException as exc:
        for temp in temps:
            if os.path.exists(temp):
                os.unlink(temp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror or str(exc), path) from exc
        raise


def save_book(book: Book, path: str) -> None:
    """Write a book file to ``path``, atomically."""
    write_atomic({path: _serialize(book)})


def _counts(number: int, line: str, text: str) -> tuple:
    """The four counts in ``text``, the end of mv line ``number``, if save_book wrote them."""
    parts = text.split(" ")
    if len(parts) != 4 or "" in parts or not text.isprintable():
        raise BookFormatError(f"line {number}: bad mv line {line!r}")
    try:
        counts = games, wins, draws, losses = tuple(int(x) for x in parts)
    except ValueError:
        raise BookFormatError(f"line {number}: non-integer counts in {line!r}") from None
    if games != wins + draws + losses or min(wins, draws, losses) < 0 or games < 1:
        raise BookFormatError(f"line {number}: bad counts in {line!r}")
    if " ".join(map(str, counts)) != text:
        raise BookFormatError(f"line {number}: non-canonical counts in {line!r}")
    return counts


def load_book(path: str, keys=None) -> Book:
    """Read and verify the book file at ``path``, as save_book wrote it.

    Every check runs over the whole file, whatever ``keys`` is: the
    checksum, the header and meta lines (with a source that save_book
    would write: one holding no line break), that every later line has the
    exact form save_book writes (canonical integers, single spaces, games
    >= 1, positions and moves in save_book's order, each once), that each
    move's results add up to its games, and the meta position count. One
    pass over the lines after the meta line makes these checks and raises
    the error of the first line that fails one. Moves at many positions
    share the same counts, so each distinct counts text is checked once.

    With ``keys``, a collection of position keys, only the positions among
    them are built: the result is a read-only view for ``query``, whose
    ``positions`` and ``position_count`` cover just those positions. Do
    not save, merge or change it.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
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
    if not _one_line(source_text):
        raise BookFormatError(f"line 2: source {source_text!r} contains a line break")
    book = Book(depth=int(depth), source=source_text, games=int(games), positions={})
    positions = book.positions
    valid_counts: dict = {}  # counts text -> its counts, for texts that passed
    count = 0
    key = seen = None
    for number, line in enumerate(lines[2:-1], start=3):
        if line[:4] == "pos ":
            previous, key = key, line[4:]
            if not key or not key.isprintable():  # "".isprintable() is True
                raise BookFormatError(f"line {number}: bad pos line {line!r}")
            if count and key <= previous:
                raise BookFormatError(f"line {number}: duplicate position {key!r}"
                                      if key == previous else
                                      f"line {number}: position {key!r} out of order")
            count += 1
            moves, seen, last = None, set(), ()
            if keys is None or key in keys:
                moves = positions[key] = {}
            continue
        if line[:3] != "mv ":
            raise BookFormatError(f"line {number}: unexpected line {line!r}")
        if seen is None:
            raise BookFormatError(f"line {number}: mv line before any pos line")
        san, _, counts_text = line[3:].partition(" ")
        if not san or not san.isprintable():
            raise BookFormatError(f"line {number}: bad mv line {line!r}")
        counts = valid_counts.get(counts_text)
        if counts is None:
            counts = valid_counts[counts_text] = _counts(number, line, counts_text)
        if san in seen:
            raise BookFormatError(f"line {number}: duplicate move {san!r}")
        seen.add(san)
        # save_book writes the most played moves first, ties by SAN; () ranks first
        rank = -counts[0], san
        if rank < last:
            raise BookFormatError(f"line {number}: move {san!r} out of order")
        last = rank
        if moves is not None:
            moves[san] = MoveStats(san, *counts)
    if count != int(position_count):
        raise BookFormatError(f"meta positions={position_count} but file has {count}")
    return book
