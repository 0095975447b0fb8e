"""Output checks: each CLI output against an oracle built from the corpus.

A build is checked against the tally the generator kept while writing the
games. A comparison is checked against a recomputation from those tallies
that shares no code with ``openbook.measures``, ``stats`` or ``report``:
M and maxM with exact Fractions, JSD in its entropy form, and the
bootstrap CI redrawn from numpy's PCG64 with the same seed.

Floats are compared within ``TOLERANCE``, never byte for byte: the JSD
sum runs over a set of SAN strings, so its last bits follow the hash seed.
"""

from __future__ import annotations

import math
import os
import re
import statistics
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from openbook.book import BookFormatError, load_book

TOLERANCE = 1e-9
UNDEFINED = "undefined"
_SKIPPED_RE = re.compile(r"^skipped game (\d+):", re.MULTILINE)
_PEARSON_RE = re.compile(
    r"^# pearson_full=(\S+) n=(\d+)(?: ci95=\[([^,\]]+),([^\]]+)\])?", re.MULTILINE)


def check_build(corpus, returncode: int, book_path: str, stderr: str) -> Tuple[int, str]:
    """Return (failed games, reason) for one ``openbook build`` run."""
    total = corpus.spec.games
    if returncode != 0:
        return total, f"exit code {returncode}"
    try:
        built = load_book(book_path)
    except (OSError, UnicodeDecodeError, BookFormatError) as exc:
        return total, f"load_book rejected the output: {exc}"
    if built.games != corpus.recorded:
        return total, f"meta games={built.games}, expected {corpus.recorded}"
    bad = set()
    for key in built.positions.keys() | corpus.tally.keys():
        got = built.positions.get(key, {})
        want = corpus.tally.get(key, {})
        for san in got.keys() | want.keys():
            stats = got.get(san)
            counts = None if stats is None else [stats.games, stats.white_wins,
                                                 stats.draws, stats.black_wins]
            if counts != want.get(san):
                bad.add((key, san))
    failed = {i for i, path in enumerate(corpus.recorded_paths)
              if any(pair in bad for pair in path)}
    reasons = []
    if bad:
        played = {pair for path in corpus.recorded_paths for pair in path}
        if bad - played:
            return total, f"{len(bad - played)} book moves that no game played"
        reasons.append(f"{len(bad)} move tuples differ")
    skipped = [int(x) for x in _SKIPPED_RE.findall(stderr)]
    skip_failures = 0
    if skipped != corpus.malformed:
        want = Counter(corpus.malformed)
        got = Counter(skipped)
        skip_failures = max(1, sum(((want - got) + (got - want)).values()))
        reasons.append(f"skipped games {skipped}, expected {corpus.malformed}")
    return min(total, len(failed) + skip_failures), "; ".join(reasons)


@dataclass
class ExpectedReport:
    ids: List[str]
    comparison: List[Tuple[Optional[float], ...]]   # m, max_m, jsd, overlap
    expected: List[Tuple[object, ...]]               # side, ew1, g1, ew2, g2
    comparison_summary: List[Tuple[Optional[float], Optional[float]]]
    expected_summary: List[Tuple[Optional[float], Optional[float]]]
    pearson: Optional[float]
    ci: Optional[Tuple[float, float]]
    n: int
    undefined_cells: int

    @property
    def defined_cell_share(self) -> float:
        cells = 4 * len(self.comparison)
        return (cells - self.undefined_cells) / cells


def _ranked(moves: Dict[str, List[int]]) -> List[Tuple[str, List[int]]]:
    return sorted(moves.items(), key=lambda kv: (-kv[1][0], kv[0]))


def _max_m(k1: int, k2: int) -> Fraction:
    return (sum((abs(Fraction(1, i) - Fraction(1, k2 + 1)) for i in range(1, k1 + 1)), Fraction(0))
            + sum((abs(Fraction(1, j) - Fraction(1, k1 + 1)) for j in range(1, k2 + 1)), Fraction(0)))


def _m_and_max(a, b):
    if not a and not b:
        return None, None
    normalizer = _max_m(len(a), len(b))
    if normalizer == 0:
        return None, None
    rank_a = {san: i for i, (san, _) in enumerate(a, 1)}
    rank_b = {san: i for i, (san, _) in enumerate(b, 1)}
    footrule = sum((abs(Fraction(1, rank_a.get(s, len(a) + 1)) - Fraction(1, rank_b.get(s, len(b) + 1)))
                    for s in rank_a.keys() | rank_b.keys()), Fraction(0))
    return float(1 - footrule / normalizer), float(normalizer)


def _surviving(ranked, min_games):
    kept = [(san, c) for san, c in ranked if c[0] >= min_games]
    return kept, sum(c[0] for _, c in kept)


def _jsd(a, b, min_games: int) -> Optional[float]:
    (kept_a, total_a), (kept_b, total_b) = _surviving(a, min_games), _surviving(b, min_games)
    if total_a <= 0 or total_b <= 0:
        return None
    p = {san: c[0] / total_a for san, c in kept_a}
    q = {san: c[0] / total_b for san, c in kept_b}

    def entropy(values):
        return -math.fsum(x * math.log2(x) for x in values if x > 0.0)

    support = sorted(p.keys() | q.keys())
    mid = [(p.get(s, 0.0) + q.get(s, 0.0)) / 2.0 for s in support]
    divergence = entropy(mid) - entropy(p.values()) / 2.0 - entropy(q.values()) / 2.0
    return 1.0 - math.sqrt(min(max(divergence, 0.0), 1.0))


def _expected_score(ranked, min_games: int):
    kept, total = _surviving(ranked, min_games)
    if total <= 0:
        return None, None
    return 100.0 * math.fsum(c[1] + c[2] / 2.0 for _, c in kept) / total, total


def _mean_std(values):
    if len(values) < 2:
        return None, None
    return statistics.fmean(values), statistics.stdev(values)


def _pearson(x, y) -> Optional[float]:
    if len(x) < 2:
        return None
    mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        return None
    return sxy / math.sqrt(sxx * syy)


def _bootstrap(x, y, resamples: int, seed: int) -> Optional[Tuple[float, float]]:
    n = len(x)
    if n < 3:
        return None
    indices = np.random.Generator(np.random.PCG64(seed)).integers(0, n, size=(resamples, n))
    xs, ys = np.asarray(x)[indices], np.asarray(y)[indices]
    xm = xs - xs.mean(axis=1, keepdims=True)
    ym = ys - ys.mean(axis=1, keepdims=True)
    denominator = np.sqrt((xm * xm).sum(axis=1) * (ym * ym).sum(axis=1))
    keep = denominator > 0.0
    values = (xm * ym).sum(axis=1)[keep] / denominator[keep]
    if len(values) < resamples / 2:
        return None
    lower, upper = np.quantile(values, [0.025, 0.975])
    return float(lower), float(upper)


def expected_report(tally1, tally2, keys: List[str], min_games: int,
                    resamples: int, seed: int) -> ExpectedReport:
    """Recompute every cell of the comparison from the oracle's counts."""
    ids, comparison, expected = [], [], []
    for number, key in enumerate(keys, 1):
        a = _ranked(tally1.get(key, {}))
        b = _ranked(tally2.get(key, {}))
        sans_a, sans_b = {s for s, _ in a}, {s for s, _ in b}
        union = sans_a | sans_b
        overlap = len(sans_a & sans_b) / len(union) if union else None
        m, max_m = _m_and_max(a, b)
        comparison.append((m, max_m, _jsd(a, b, min_games), overlap))
        ew1, g1 = _expected_score(a, min_games)
        ew2, g2 = _expected_score(b, min_games)
        expected.append((key.split()[1], ew1, g1, ew2, g2))
        ids.append(f"s{number}")
    columns = list(zip(*comparison))
    comparison_summary = [_mean_std([v for v in col if v is not None]) for col in columns]
    expected_summary = [_mean_std([row[i] for row in expected if row[i] is not None])
                        for i in (1, 3)]
    pairs = [(row[0], row[2]) for row in comparison if row[0] is not None and row[2] is not None]
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    pearson = _pearson(x, y)
    ci = _bootstrap(x, y, resamples, seed) if pearson is not None else None
    undefined = sum(v is None for row in comparison for v in row)
    return ExpectedReport(ids, comparison, expected, comparison_summary,
                          expected_summary, pearson, ci, len(pairs), undefined)


def _same(text: str, value) -> bool:
    if value is None:
        return text == UNDEFINED
    if text == UNDEFINED:
        return False
    try:
        return abs(float(text) - value) <= TOLERANCE
    except ValueError:
        return False


def _body(path: str) -> Tuple[List[List[str]], str]:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    rows = [line.split("\t") for line in text.splitlines()
            if line and not line.startswith("#")]
    return rows[1:], text


def check_compare(want: ExpectedReport, returncode: int, out_dir: str) -> Tuple[int, str]:
    """Return (failed suite positions, reason) for one ``openbook compare`` run."""
    total = len(want.ids)
    if returncode != 0:
        return total, f"exit code {returncode}"
    try:
        comparison, comparison_text = _body(os.path.join(out_dir, "comparison.tsv"))
        expected, _ = _body(os.path.join(out_dir, "expected_score.tsv"))
    except (OSError, UnicodeDecodeError) as exc:
        return total, f"cannot read the report: {exc}"
    if len(comparison) != total + 2 or len(expected) != total + 2:
        return total, "row count differs"
    if ([row[0] for row in comparison[:total]] != want.ids
            or [row[0] for row in expected[:total]] != want.ids):
        return total, "position ids differ"

    problems = []
    for label, rows, summary in (("comparison", comparison[total:], want.comparison_summary),
                                 ("expected", expected[total:], want.expected_summary)):
        cells = [c for c in rows[0][1:] + rows[1][1:] if c != "-"]
        wanted = [pair[0] for pair in summary] + [pair[1] for pair in summary]
        if len(cells) != len(wanted) or not all(map(_same, cells, wanted)):
            problems.append(f"{label} Avg/Std rows differ")
    match = _PEARSON_RE.search(comparison_text)
    if match is None or int(match.group(2)) != want.n or not _same(match.group(1), want.pearson):
        problems.append("pearson differs")
    elif (match.group(3) is None) != (want.ci is None) or (
            want.ci is not None and not (_same(match.group(3), want.ci[0])
                                         and _same(match.group(4), want.ci[1]))):
        problems.append("bootstrap CI differs")
    if f"# undefined_cells={want.undefined_cells}\n" not in comparison_text:
        problems.append("undefined cell count differs")
    if problems:
        return total, "; ".join(problems)

    failed = 0
    for got_c, got_e, want_c, want_e in zip(comparison, expected, want.comparison, want.expected):
        ok = len(got_c) == 5 and all(map(_same, got_c[1:], want_c))
        ok = ok and len(got_e) == 6 and got_e[1] == want_e[0]
        ok = ok and _same(got_e[2], want_e[1]) and _same(got_e[4], want_e[3])
        ok = ok and got_e[3] == str(want_e[2] if want_e[2] is not None else UNDEFINED)
        ok = ok and got_e[5] == str(want_e[4] if want_e[4] is not None else UNDEFINED)
        failed += not ok
    return failed, f"{failed} rows differ" if failed else ""
