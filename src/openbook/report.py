"""Comparison report: per-position rows, summaries, correlation block.

The TSV rendering is the single source of truth; the Markdown table is a
re-layout of the same formatted cells. Metadata lines (``# key=value``)
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
    try:
        r = stats.pearson(sample)
    except stats.StatsError as exc:
        return CorrelationBlock(label, len(sample), None, None, note=str(exc))
    try:
        ci = stats.bootstrap_ci(sample, resamples=resamples, seed=seed)
    except stats.StatsError as exc:
        return CorrelationBlock(label, len(sample), r, None, note=str(exc))
    return CorrelationBlock(label, len(sample), r, ci)


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

    undefined_cells = sum(
        1 for row in comparison_rows for column in stats.COMPARISON_COLUMNS
        if getattr(row, column) is None)
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


def _metadata_lines(doc: ReportDocument) -> List[str]:
    lines = ["# openbook-report v1"]
    lines.extend(f"# {key}={value}" for key, value in doc.metadata.items())
    return lines


def _correlation_lines(doc: ReportDocument, precision: str) -> List[str]:
    lines = []
    for block in (doc.correlation_full, doc.correlation_excluded):
        if block is None:
            continue
        if block.pearson is None:
            lines.append(f"# pearson_{block.label}={UNDEFINED} n={block.n} "
                         f"note={block.note}")
            continue
        text = f"# pearson_{block.label}={_fmt(block.pearson, precision)} n={block.n}"
        if block.ci is not None:
            text += (f" ci95=[{_fmt(block.ci.lower, precision)},"
                     f"{_fmt(block.ci.upper, precision)}]")
        else:
            text += f" note={block.note}"
        lines.append(text)
    return lines


def render_comparison_tsv(doc: ReportDocument, precision: str = "3") -> str:
    lines = _metadata_lines(doc)
    lines.append("pos\tm_measure\tmax_m\tjsd\toverlap")
    for row in doc.comparison_rows:
        lines.append("\t".join([row.position_id,
                                _fmt(row.m_measure, precision),
                                _fmt(row.max_m, precision),
                                _fmt(row.jsd, precision),
                                _fmt(row.overlap, precision)]))
    for label, index in (("Avg", 0), ("Std", 1)):
        cells = [label]
        for column in stats.COMPARISON_COLUMNS:
            pair = doc.comparison_summary[column]
            cells.append(_fmt(pair[index] if pair else None, precision))
        lines.append("\t".join(cells))
    lines.extend(_correlation_lines(doc, precision))
    return "\n".join(lines) + "\n"


def render_expected_tsv(doc: ReportDocument, precision: str = "3") -> str:
    lines = _metadata_lines(doc)
    lines.append("pos\tside\tew1\tgames1\tew2\tgames2")
    for row in doc.expected_rows:
        lines.append("\t".join([
            row.position_id, row.side_to_move,
            _fmt(row.score1, precision),
            str(row.games1) if row.games1 is not None else UNDEFINED,
            _fmt(row.score2, precision),
            str(row.games2) if row.games2 is not None else UNDEFINED]))
    for label, index in (("Avg", 0), ("Std", 1)):
        cells = [label, "-"]
        for column in ("score1", "score2"):
            pair = doc.expected_summary[column]
            cells.append(_fmt(pair[index] if pair else None, precision))
            cells.append("-")
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


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
    lines = ["# Opening book comparison", ""]
    lines.append("## Per-position measures")
    lines.append("")
    lines.extend(_tsv_to_markdown(comparison_tsv))
    lines.append("")
    lines.append("## Expected percentage score")
    lines.append("")
    lines.extend(_tsv_to_markdown(expected_tsv))
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

        def cell(value):
            return None if value == UNDEFINED else float(value)

        rows.append(ComparisonRow(cells[0], cell(cells[1]), cell(cells[2]),
                                  cell(cells[3]), cell(cells[4])))
    return rows, metadata
