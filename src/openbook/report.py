"""Comparison report: per-position rows, summaries, correlation block.

``build_report`` picks the rows that feed the correlation: those with both
M and JSD defined, and for the second pass those of them whose id is not
excluded. ``stats`` sees only their two columns.

One renderer, ``render_files``, writes all three report files. It formats
each table's cells once, every value cell through ``_fmt``, which writes an
undefined (None) cell as ``undefined``. A TSV file is its table between
notes (``# `` lines); report.md lays out the same cells and notes as
Markdown, so no file is made by reading another back. The notes carry
everything needed to reproduce a run bit-exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import measures, stats
from .book import Book, query
from .measures import ComparisonRow, ExpectedScoreRow
from .suite import SUMMARY_LABELS, SuiteEntry

UNDEFINED = "undefined"
COMPARISON_HEADER = "pos\tm_measure\tmax_m\tjsd\toverlap"


class CorrelationBlock(NamedTuple):
    """Pearson M-vs-JSD with its bootstrap CI over one row subset."""

    label: str
    n: int
    pearson: Optional[float]
    ci: Optional[Tuple[float, float]]  # (lower, upper)
    note: str = ""


class ReportDocument(NamedTuple):
    comparison_rows: List[ComparisonRow]
    expected_rows: List[ExpectedScoreRow]
    comparison_summary: Dict[str, Optional[Tuple[float, float]]]
    expected_summary: Dict[str, Optional[Tuple[float, float]]]
    correlation_full: CorrelationBlock
    correlation_excluded: Optional[CorrelationBlock]
    metadata: Dict[str, str]


def _correlate(label: str, rows: Sequence[ComparisonRow], resamples: int,
               seed: int) -> CorrelationBlock:
    x = [row.m_measure for row in rows]
    y = [row.jsd for row in rows]
    r, ci, note = None, None, ""
    try:
        r = stats.pearson(x, y)
        # x goes positionally: perfbench/tracer.py reads len(args[0]) as the pair count
        ci = stats.bootstrap_ci(x, y, resamples=resamples, seed=seed)
    except stats.StatsError as exc:
        note = str(exc)
    return CorrelationBlock(label, len(rows), r, ci, note)


def build_report(book1: Book, book2: Book, suite: Sequence[SuiteEntry],
                 min_games: int = 10, resamples: int = 10000, seed: int = 0,
                 exclude: Sequence[str] = ()) -> ReportDocument:
    """Compare two books over a suite and correlate M with JSD.

    The books need to hold only the suite's positions (``load_book`` with
    ``keys``); their ``games`` and ``source`` go into the metadata.
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
    correlation_full = _correlate("full", defined, resamples, seed)
    correlation_excluded = None
    if exclude:
        excluded = set(exclude)
        correlation_excluded = _correlate(
            "excluded", [row for row in defined if row.position_id not in excluded],
            resamples, seed)

    undefined_cells = sum(value is None for row in comparison_rows for value in row[1:])
    metadata = {
        "book1": book1.source or "book1",
        "book2": book2.source or "book2",
        "book1_games": str(book1.games),
        "book2_games": str(book2.games),
        "min_games": str(min_games),
        "resamples": str(resamples),
        "seed": str(seed),
        "exclude": ",".join(exclude),
        "rng": stats.RNG_ALGORITHM,
        "std": stats.STD_CONVENTION,
        "undefined_cells": str(undefined_cells),
    }
    return ReportDocument(comparison_rows, expected_rows,
                          stats.summarize(comparison_rows, ComparisonRow._fields[1:]),
                          stats.summarize(expected_rows, ("score1", "score2")),
                          correlation_full, correlation_excluded, metadata)


def _fmt(value: Optional[float], precision: str) -> str:
    if value is None:
        return UNDEFINED
    if isinstance(value, int):
        return str(value)
    if precision == "full":
        return repr(float(value))
    return f"{value:.{int(precision)}f}"


def _correlation_notes(doc: ReportDocument, precision: str) -> List[str]:
    notes = []
    for block in (doc.correlation_full, doc.correlation_excluded):
        if block is None:
            continue
        # an undefined pearson has no CI, so its note ends with the reason
        text = f"pearson_{block.label}={_fmt(block.pearson, precision)} n={block.n}"
        if block.ci is not None:
            lower, upper = block.ci
            text += f" ci95=[{_fmt(lower, precision)},{_fmt(upper, precision)}]"
        else:
            text += f" note={block.note}"
        notes.append(text)
    return notes


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


def render_files(doc: ReportDocument, precision: str = "3") -> Dict[str, str]:
    """The report's files by name, in the order to write them: comparison.tsv,
    expected_score.tsv and report.md.

    Each table's cells are formatted once. A TSV file is its notes, as ``# ``
    lines, around its table; report.md lays out the same cells and notes.
    """
    notes = ["openbook-report v1", *(f"{key}={value}" for key, value in doc.metadata.items())]
    correlation = _correlation_notes(doc, precision)
    comparison = _cells(COMPARISON_HEADER, ComparisonRow._fields, 1, doc.comparison_rows,
                        doc.comparison_summary, precision)
    expected = _cells("pos\tside\tew1\tgames1\tew2\tgames2", ExpectedScoreRow._fields, 2,
                      doc.expected_rows, doc.expected_summary, precision)
    markdown = ["# Opening book comparison", "", "## Per-position measures", "",
                *_markdown(comparison, notes + correlation),
                "", "## Expected percentage score", "", *_markdown(expected, notes)]
    return {"comparison.tsv": _tsv(notes, comparison, correlation),
            "expected_score.tsv": _tsv(notes, expected, ()),
            "report.md": "\n".join(markdown) + "\n"}


def parse_comparison_tsv(path: str) -> List[ComparisonRow]:
    """Read back the rows of the comparison TSV at ``path``, UTF-8 text.

    Its ``# `` lines are notes for readers and are skipped, and so are the
    summary rows (Avg/Std). A header other than ``COMPARISON_HEADER``, or a
    value that is not finite, which the renderer never writes, is a
    ValueError.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    rows: List[ComparisonRow] = []
    header_seen = False
    width = COMPARISON_HEADER.count("\t") + 1
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        if not header_seen:
            if line != COMPARISON_HEADER:
                raise ValueError(f"bad comparison TSV header: {line!r}")
            header_seen = True
            continue
        cells = line.split("\t")
        if cells[0] in SUMMARY_LABELS:
            continue
        if len(cells) != width:
            raise ValueError(f"bad comparison TSV row: {line!r}")
        values = [None if cell == UNDEFINED else float(cell) for cell in cells[1:]]
        for column, value in zip(ComparisonRow._fields[1:], values):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"non-finite {column} in comparison TSV row: {line!r}")
        rows.append(ComparisonRow(cells[0], *values))
    return rows
