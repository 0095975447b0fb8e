"""Comparison report: per-position rows, summaries, correlation block.

The TSV rendering is the single source of truth; the Markdown table is a
re-layout of the same formatted cells. One renderer, ``_tsv``, writes both
TSV tables, and every value cell goes through ``_fmt``, which writes an
undefined (None) cell as ``undefined``. Metadata lines (``# key=value``)
carry everything needed to reproduce a run bit-exactly.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import measures, stats
from .book import Book, query
from .measures import ComparisonRow, ExpectedScoreRow
from .stats import BootstrapResult, PairedSample
from .suite import SuiteEntry

UNDEFINED = "undefined"


class CorrelationBlock(NamedTuple):
    """Pearson M-vs-JSD with its bootstrap CI over one row subset."""

    label: str
    n: int
    pearson: Optional[float]
    ci: Optional[BootstrapResult]
    note: str = ""


class ReportDocument(NamedTuple):
    comparison_rows: List[ComparisonRow]
    expected_rows: List[ExpectedScoreRow]
    comparison_summary: Dict[str, Optional[Tuple[float, float]]]
    expected_summary: Dict[str, Optional[Tuple[float, float]]]
    correlation_full: CorrelationBlock
    correlation_excluded: Optional[CorrelationBlock]
    metadata: Dict[str, str]


def _paired_sample(rows: Sequence[ComparisonRow]) -> PairedSample:
    defined = [r for r in rows if r.m_measure is not None and r.jsd is not None]
    return PairedSample(tuple(r.position_id for r in defined),
                        tuple(r.m_measure for r in defined),
                        tuple(r.jsd for r in defined))


def _correlate(label: str, sample: PairedSample, resamples: int,
               seed: int) -> CorrelationBlock:
    r, ci, note = None, None, ""
    try:
        r = stats.pearson(sample)
        ci = stats.bootstrap_ci(sample, resamples=resamples, seed=seed)
    except stats.StatsError as exc:
        note = str(exc)
    return CorrelationBlock(label, len(sample), r, ci, note)


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

    sample = _paired_sample(comparison_rows)
    correlation_full = _correlate("full", sample, resamples, seed)
    correlation_excluded = None
    if exclude:
        correlation_excluded = _correlate(
            "excluded", sample.without(exclude), resamples, seed)

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
                          stats.summarize(comparison_rows),
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


def _correlation_lines(doc: ReportDocument, precision: str) -> List[str]:
    lines = []
    for block in (doc.correlation_full, doc.correlation_excluded):
        if block is None:
            continue
        # an undefined pearson has no CI, so its line ends with the note
        text = f"# pearson_{block.label}={_fmt(block.pearson, precision)} n={block.n}"
        if block.ci is not None:
            text += (f" ci95=[{_fmt(block.ci.lower, precision)},"
                     f"{_fmt(block.ci.upper, precision)}]")
        else:
            text += f" note={block.note}"
        lines.append(text)
    return lines


def _tsv(doc: ReportDocument, header: str, fields: Sequence[str], lead: int,
         rows: Sequence[tuple], summary: Dict[str, Optional[Tuple[float, float]]],
         precision: str, trailing: Sequence[str] = ()) -> str:
    """One report table: metadata lines, ``header``, a line per row (its first
    ``lead`` cells as they are, the rest through ``_fmt``), Avg and Std lines
    (``-`` under a field that ``summary`` lacks), then ``trailing``."""
    lines = ["# openbook-report v1"]
    lines.extend(f"# {key}={value}" for key, value in doc.metadata.items())
    lines.append(header)
    # a column at a time, which costs less than a generator per row
    columns = list(zip(*rows))
    columns[lead:] = [[_fmt(value, precision) for value in column] for column in columns[lead:]]
    lines.extend(map("\t".join, zip(*columns)))
    for label, index in (("Avg", 0), ("Std", 1)):
        cells = [label]
        for field in fields[1:]:
            pair = summary.get(field)
            cells.append("-" if field not in summary
                         else _fmt(pair[index] if pair else None, precision))
        lines.append("\t".join(cells))
    lines.extend(trailing)
    return "\n".join(lines) + "\n"


def render_comparison_tsv(doc: ReportDocument, precision: str = "3") -> str:
    return _tsv(doc, "pos\tm_measure\tmax_m\tjsd\toverlap", ComparisonRow._fields, 1,
                doc.comparison_rows, doc.comparison_summary, precision,
                _correlation_lines(doc, precision))


def render_expected_tsv(doc: ReportDocument, precision: str = "3") -> str:
    return _tsv(doc, "pos\tside\tew1\tgames1\tew2\tgames2", ExpectedScoreRow._fields, 2,
                doc.expected_rows, doc.expected_summary, precision)


def _tsv_to_markdown(tsv_text: str) -> List[str]:
    """Re-layout TSV body rows as a Markdown table; comments become notes."""
    lines = []
    body = [line for line in tsv_text.splitlines() if not line.startswith("#")]
    notes = [line[2:] for line in tsv_text.splitlines() if line.startswith("# ")]
    if body:
        header = body[0].split("\t")
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join(["---"] * len(header)) + "|")
        # a "|" in a cell, as a position id may hold, would split it
        for row in body[1:]:
            lines.append("| " + " | ".join(row.replace("|", "\\|").split("\t")) + " |")
    if notes:
        lines.append("")
        lines.extend(f"- {note}" for note in notes)
    return lines


def render_markdown(comparison_tsv: str, expected_tsv: str) -> str:
    """The Markdown report laid out from the two rendered TSV texts."""
    lines = ["# Opening book comparison", "", "## Per-position measures", "",
             *_tsv_to_markdown(comparison_tsv),
             "", "## Expected percentage score", "", *_tsv_to_markdown(expected_tsv)]
    return "\n".join(lines) + "\n"


def parse_comparison_tsv(text: str):
    """Read back a comparison TSV: (rows, metadata dict).

    Summary rows (Avg/Std) are not returned as comparison rows.
    """
    metadata = {}
    rows: List[ComparisonRow] = []
    header_seen = False
    for line in text.splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = value
            continue
        if not line.strip():
            continue
        cells = line.split("\t")
        if not header_seen:
            if cells[0] != "pos":
                raise ValueError(f"bad comparison TSV header: {line!r}")
            header_seen = True
            continue
        if cells[0] in ("Avg", "Std"):
            continue
        if len(cells) != 5:
            raise ValueError(f"bad comparison TSV row: {line!r}")

        rows.append(ComparisonRow(cells[0], *(None if cell == UNDEFINED else float(cell)
                                              for cell in cells[1:])))
    return rows, metadata
