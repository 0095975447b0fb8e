"""Comparison report: per-position rows, summaries and the correlation notes.

``build_report`` lays the report out in one pass. It queries both books at
each suite position for that position's rows, picks the rows that feed the
correlation (those with both M and JSD defined, and for the second pass
those of them whose id is not excluded) and writes each pass's
``pearson_<label>=`` note; ``stats`` sees only the pairs' two columns. It
then formats each table's cells once, every value cell through ``_fmt``,
which writes an undefined (None) cell as ``undefined``, and writes the run
notes that carry everything needed to reproduce it bit-exactly.

``render_files`` only lays out the given cells and notes: a TSV file is its
table between notes (``# `` lines), and report.md lays out the same cells
and notes as Markdown, so no file is made by reading another back.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from . import measures, stats
from .book import Book, query
from .measures import ComparisonRow, ExpectedScoreRow
from .pgn import _lines, _not_utf8
from .suite import SUMMARY_LABELS, SuiteEntry

UNDEFINED = "undefined"
COMPARISON_HEADER = "pos\tm_measure\tmax_m\tjsd\toverlap"


def _pearson_note(label: str, rows: Sequence[ComparisonRow], resamples: int, seed: int,
                  precision: str) -> str:
    """The ``pearson_<label>=`` note: Pearson M-vs-JSD over ``rows`` and its
    bootstrap CI, or, where either is undefined, the reason."""
    x = [row.m_measure for row in rows]
    y = [row.jsd for row in rows]
    r = None
    try:
        r = stats.pearson(x, y)
        # x goes positionally: perfbench/tracer.py reads len(args[0]) as the pair count
        lower, upper = stats.bootstrap_ci(x, y, resamples=resamples, seed=seed)
        tail = f"ci95=[{_fmt(lower, precision)},{_fmt(upper, precision)}]"
    except stats.StatsError as exc:
        # an undefined pearson has no CI, so its note ends with the reason
        tail = f"note={exc}"
    return f"pearson_{label}={_fmt(r, precision)} n={len(rows)} {tail}"


def build_report(book1: Book, book2: Book, suite: Sequence[SuiteEntry], min_games: int,
                 resamples: int, seed: int, exclude: Sequence[str], precision: str
                 ) -> Tuple[Dict[str, str], int]:
    """Compare two books over a suite and correlate M with JSD: the report's
    files by name (``render_files``), values at ``precision`` places or
    ``full``, and the number of undefined cells in its comparison rows.

    The books need to hold only the suite's positions (``load_book`` with
    ``keys``); their ``games`` and ``source`` go into the notes.
    """
    comparison_rows = []
    expected_rows = []
    for entry in suite:
        ranked1 = query(book1, entry.key)
        ranked2 = query(book2, entry.key)
        comparison_rows.append(measures.compare_position(
            entry.position_id, ranked1, ranked2, min_games))
        expected_rows.append(measures.expected_score_row(
            entry.position_id, entry.side_to_move, ranked1, ranked2, min_games))

    defined = [row for row in comparison_rows
               if row.m_measure is not None and row.jsd is not None]
    correlation = [_pearson_note("full", defined, resamples, seed, precision)]
    if exclude:
        excluded = set(exclude)
        correlation.append(_pearson_note(
            "excluded", [row for row in defined if row.position_id not in excluded],
            resamples, seed, precision))

    undefined_cells = sum(value is None for row in comparison_rows for value in row[1:])
    notes = ["openbook-report v1",
             f"book1={book1.source or 'book1'}", f"book2={book2.source or 'book2'}",
             f"book1_games={book1.games}", f"book2_games={book2.games}",
             f"min_games={min_games}", f"resamples={resamples}", f"seed={seed}",
             f"exclude={','.join(exclude)}",
             f"rng={stats.RNG_ALGORITHM}", f"std={stats.STD_CONVENTION}",
             f"undefined_cells={undefined_cells}"]
    comparison = _cells(COMPARISON_HEADER, ComparisonRow._fields, 1, comparison_rows,
                        stats.summarize(comparison_rows, ComparisonRow._fields[1:]), precision)
    expected = _cells("pos\tside\tew1\tgames1\tew2\tgames2", ExpectedScoreRow._fields, 2,
                      expected_rows, stats.summarize(expected_rows, ("score1", "score2")),
                      precision)
    return render_files(notes, correlation, comparison, expected), undefined_cells


def _fmt(value: Optional[float], precision: str) -> str:
    if value is None:
        return UNDEFINED
    if isinstance(value, int):
        return str(value)
    if precision == "full":
        return repr(float(value))
    return f"{value:.{int(precision)}f}"


def _cells(header: str, fields: Sequence[str], lead: int, rows: Sequence[tuple],
           summary: Dict[str, Optional[Tuple[float, float]]], precision: str) -> list:
    """One table's cells, a sequence per line: ``header``'s, a row's (its first
    ``lead`` cells as they are, the rest through ``_fmt``), then Avg and Std
    (``-`` under a field that ``summary`` lacks)."""
    # a column at a time, which costs less than a generator per row
    columns = list(zip(*rows))
    columns[lead:] = [[_fmt(value, precision) for value in column] for column in columns[lead:]]
    table = [header.split("\t"), *zip(*columns)]
    for label, index in zip(SUMMARY_LABELS, (0, 1)):
        cells = [label]
        for field in fields[1:]:
            pair = summary.get(field)
            cells.append("-" if field not in summary
                         else _fmt(pair[index] if pair else None, precision))
        table.append(cells)
    return table


def _tsv(notes: Sequence[str], table: list, trailing: Sequence[str]) -> str:
    """A TSV file: ``notes``, the table, then ``trailing``, each note a ``# `` line."""
    lines = [f"# {note}" for note in notes]
    lines.extend(map("\t".join, table))
    lines.extend(f"# {note}" for note in trailing)
    return "\n".join(lines) + "\n"


def _markdown(table: list, notes: Sequence[str]) -> List[str]:
    """The table as Markdown lines, then its notes as a list."""
    header, *body = table
    lines = ["| " + " | ".join(header) + " |", "|" + "|".join(["---"] * len(header)) + "|"]
    # a "|" in a position id would split its cell
    lines.extend("| " + " | ".join((row[0].replace("|", "\\|"), *row[1:])) + " |"
                 for row in body)
    lines.append("")
    lines.extend(f"- {note}" for note in notes)
    return lines


def render_files(notes: List[str], correlation: List[str], comparison: list,
                 expected: list) -> Dict[str, str]:
    """The report's files by name, in the order to write them: comparison.tsv,
    expected_score.tsv and report.md, laid out from the two tables' cells
    (``_cells``). A TSV file is its table after ``notes``, as ``# `` lines,
    and comparison.tsv ends with the ``correlation`` notes; report.md lays
    out the same cells and notes."""
    markdown = ["# Opening book comparison", "", "## Per-position measures", "",
                *_markdown(comparison, notes + correlation),
                "", "## Expected percentage score", "", *_markdown(expected, notes)]
    return {"comparison.tsv": _tsv(notes, comparison, correlation),
            "expected_score.tsv": _tsv(notes, expected, ()),
            "report.md": "\n".join(markdown) + "\n"}


def parse_comparison_tsv(path: str) -> List[ComparisonRow]:
    """Read back the rows of the comparison TSV at ``path``, UTF-8 text.

    Its ``# `` lines are notes for readers and are skipped, and so are the
    summary rows (Avg/Std). No header is a ValueError, and so is the first
    line that is not UTF-8, a header other than ``COMPARISON_HEADER``, or a
    row with a value that is not finite, which the renderer never writes.
    """
    rows: Optional[List[ComparisonRow]] = None  # until the header is read
    for number, line in enumerate(_lines(path), 1):
        if _not_utf8(line):
            raise ValueError(f"line {number}: not UTF-8 text")
        line = line.removesuffix("\n")
        if line.startswith("#") or not line.strip():
            continue
        if rows is None:
            if line != COMPARISON_HEADER:
                raise ValueError(f"bad comparison TSV header: {line!r}")
            rows = []
            continue
        cells = line.split("\t")
        if cells[0] in SUMMARY_LABELS:
            continue
        if len(cells) != len(ComparisonRow._fields):
            raise ValueError(f"bad comparison TSV row: {line!r}")
        values = [None if cell == UNDEFINED else float(cell) for cell in cells[1:]]
        for column, value in zip(ComparisonRow._fields[1:], values):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"non-finite {column} in comparison TSV row: {line!r}")
        rows.append(ComparisonRow(cells[0], *values))
    if rows is None:
        raise ValueError("no comparison TSV header")
    return rows
