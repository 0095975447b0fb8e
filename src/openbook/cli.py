"""openbook command line: build books, query them, compare, and plot.

Exit codes: 0 success (possibly with undefined cells), 1 usage error,
2 data error (unreadable/malformed inputs). ``_read`` words the error of
every file a command reads, and ``_write`` of every file it writes.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import List, Optional

from . import book as book_mod
from . import report, rules
from .pgn import MalformedGame, filter_games, parse_pgn_stream
from .suite import parse_epd_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class DataError(Exception):
    """Wraps input problems so main() can map them to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(minimum: int):
    """An argparse type: an integer of ASCII digits no smaller than ``minimum``."""
    def parse(text: str) -> int:
        # not int() alone, which takes "+4", " 4", "4_0" and "٤"
        if not (text.isascii() and text.isdigit()):
            raise ValueError(text)
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text!r}")
        return value
    # argparse turns a ValueError from int() into "invalid <__name__> value"
    parse.__name__ = "int"
    return parse


def _precision(text: str) -> str:
    # "full" writes each value exactly; past 17 places a double prints only noise
    if text != "full" and not (text.isascii() and text.isdigit() and int(text) <= 17):
        raise argparse.ArgumentTypeError(f"must be 'full' or 0 to 17, got {text!r}")
    return text


def _read(kind: str, path: str, read, *args):
    """``read(path, *args)``, with an OSError or a ValueError (a malformed
    file) as a DataError naming the ``kind`` of file and its path."""
    try:
        return read(path, *args)
    except OSError as exc:
        raise DataError(f"cannot read {kind} {path}: {exc.strerror or exc}")
    except ValueError as exc:
        raise DataError(f"bad {kind} file {path}: {exc}")


def _write(write, *args, **kwargs) -> None:
    """``write(*args, **kwargs)``, with an OSError as a DataError naming its path."""
    try:
        write(*args, **kwargs)
    except OSError as exc:
        raise DataError(f"cannot write {exc.filename}: {exc.strerror or exc}")


def _parse_position(args) -> rules.Position:
    # an EPD is a FEN's first four fields; query reads no opcode
    text = args.fen if args.fen is not None else " ".join(args.epd.split()[:4])
    try:
        return rules.parse_fen(text)
    except rules.FenError as exc:
        raise DataError(str(exc))


def _listed_ids(text: str, option: str, known: set, where: str) -> List[str]:
    """The comma-separated ids of ``text``; DataError names those not in ``known``."""
    ids = [x for x in text.split(",") if x]
    unknown = [x for x in ids if x not in known]
    if unknown:
        raise DataError(f"{option} names no position of {where}: {', '.join(unknown)}")
    return ids


def _parsed_games(paths: List[str], reports: List[str], max_depth: int,
                  min_rating: Optional[int]):
    """The games of the PGN files, in order, as they are parsed, each with
    the plies it adds to a book at ``max_depth`` (None if ``min_rating`` or
    its result keeps it out); skip lines, naming the file, go to
    ``reports``, and a file that cannot be read is a DataError naming it."""
    for path in paths:
        try:
            for item in parse_pgn_stream(path, max_depth, min_rating):
                if isinstance(item, MalformedGame):
                    reports.append(f"skipped game {item.game_index}: {path}: {item.reason}")
                else:
                    yield item
        except OSError as exc:
            raise DataError(f"cannot read PGN {path}: {exc.strerror or exc}")


def cmd_build(args) -> int:
    for path in args.pgn:
        _read("PGN", path, os.stat)
    reports: List[str] = []
    games = _parsed_games(args.pgn, reports, args.depth, args.min_rating)
    built = book_mod.build_book(filter_games(games), max_depth=args.depth,
                                source=args.source or "+".join(map(os.path.basename, args.pgn)))
    try:
        _write(book_mod.save_book, built, args.out)
    except book_mod.BookFormatError as exc:
        raise DataError(f"cannot write book {args.out}: {exc}")
    for line in reports:
        print(line, file=sys.stderr)
    print(f"book written to {args.out}")
    print(f"games={built.games} positions={built.position_count} depth={built.depth}")
    return EXIT_OK


def cmd_query(args) -> int:
    key = rules.position_key(_parse_position(args))
    built = _read("book", args.book, book_mod.load_book, {key})
    print("rank\tsan\tgames\tscore%")
    # a rank is a place in the whole list, whose moves below --min-games come last
    for rank, entry in enumerate(book_mod.query(built, key), 1):
        if entry.games >= args.min_games:
            print(f"{rank}\t{entry.san}\t{entry.games}\t{entry.score_percent:.3f}")
    return EXIT_OK


def cmd_compare(args) -> int:
    suite = _read("suite", args.suite, parse_epd_suite)
    exclude = _listed_ids(args.exclude, "--exclude", {entry.position_id for entry in suite},
                          f"suite {args.suite}")
    keys = {entry.key for entry in suite}
    book1 = _read("book", args.book1, book_mod.load_book, keys)
    book2 = _read("book", args.book2, book_mod.load_book, keys)
    files, undefined_cells = report.build_report(book1, book2, suite, args.min_games,
                                                 args.bootstrap, args.seed, exclude,
                                                 args.precision)
    _write(os.makedirs, args.out, exist_ok=True)
    # as one set: a write that fails replaces none of the three files
    _write(book_mod.write_atomic,
           {os.path.join(args.out, name): text for name, text in files.items()})
    print(f"report written to {args.out}")
    if undefined_cells:
        print(f"undefined cells: {undefined_cells}")
    return EXIT_OK


def cmd_plot(args) -> int:
    from . import plot
    rows = _read("report", args.report, report.parse_comparison_tsv)
    # scatter_svg draws only rows with both values, so a mark on any other is lost
    marked = _listed_ids(args.mark, "--mark",
                         {row.position_id for row in rows
                          if row.m_measure is not None and row.jsd is not None},
                         f"report {args.report} with a defined (m_measure, jsd) pair")
    points = [(row.position_id, row.m_measure, row.jsd) for row in rows]
    try:
        svg = plot.scatter_svg(points, marked)
    except plot.PlotError as exc:
        raise DataError(str(exc))
    _write(book_mod.write_atomic, {args.out: svg})
    print(f"plot written to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="openbook",
                     description="Build and compare chess opening books.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a book from PGN files")
    p_build.add_argument("--pgn", nargs="+", action="extend", required=True)
    p_build.add_argument("--depth", type=_at_least(1), default=40,
                         help="maximum plies recorded per game")
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--min-rating", type=_at_least(0), default=None)
    p_build.add_argument("--source", default=None,
                         help="source description stored in book metadata "
                              "(default: the PGN file names joined by '+')")
    p_build.set_defaults(func=cmd_build)

    p_query = sub.add_parser("query", help="ranked moves for one position")
    p_query.add_argument("--book", required=True)
    group = p_query.add_mutually_exclusive_group(required=True)
    group.add_argument("--fen")
    group.add_argument("--epd")
    p_query.add_argument("--min-games", type=_at_least(0), default=0)
    p_query.set_defaults(func=cmd_query)

    p_compare = sub.add_parser("compare", help="compare two books over a suite")
    p_compare.add_argument("--book1", required=True)
    p_compare.add_argument("--book2", required=True)
    p_compare.add_argument("--suite", required=True)
    p_compare.add_argument("--min-games", type=_at_least(0), default=10)
    p_compare.add_argument("--bootstrap", type=_at_least(1), default=10000)
    p_compare.add_argument("--seed", type=_at_least(0), default=0)
    p_compare.add_argument("--exclude", default="",
                           help="comma-separated position ids to exclude "
                                "from the second correlation pass")
    p_compare.add_argument("--precision", type=_precision, default="3",
                           help="decimal places, or 'full'")
    p_compare.add_argument("--out", required=True, help="output directory")
    p_compare.set_defaults(func=cmd_compare)

    p_plot = sub.add_parser("plot", help="scatter plot from a comparison TSV")
    p_plot.add_argument("--report", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--mark", default="",
                        help="comma-separated ids to mark as outliers")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"openbook: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    """``main()`` as a process: ``openbook`` and ``python -m openbook.cli``."""
    code = main()
    # exit frees every object anyway: spare the shutdown collections' rescans of them
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
