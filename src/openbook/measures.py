"""Similarity measures between two ranked move lists.

Three per-position measures: set overlap, the reciprocal-rank weighted
footrule similarity (with its disjoint-lists normalizer), and the
Jensen-Shannon-divergence similarity over move-count distributions.
Plus the expected percentage score of a booked position. A measure that
is undefined raises UndefinedMeasureError; the per-position rows turn it
into a None cell through one rule, ``_or_none``.

A ranked list is a position's ``MoveStats`` in rank order, as
``book.query`` gives them, so a move's rank is its place from 1.
Reciprocal ranks are exact: integers over one common denominator. A move
missing from a list of length k gets rank k + 1 before the reciprocal.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .book import MoveStats

RankedList = Sequence[MoveStats]
MoveDistribution = Dict[str, float]


class UndefinedMeasureError(ValueError):
    """Raised when a measure has no defined value for the given inputs."""


def overlap(a: RankedList, b: RankedList) -> float:
    """|moves(a) ∩ moves(b)| / |moves(a) ∪ moves(b)|."""
    sans_a = {e.san for e in a}
    sans_b = {e.san for e in b}
    union = sans_a | sans_b
    if not union:
        raise UndefinedMeasureError("overlap of two empty lists")
    return len(sans_a & sans_b) / len(union)


def _exact(a: RankedList, b: RankedList, k1: int, k2: int) -> Tuple[int, dict, int]:
    """Reciprocal ranks as integer numerators over one common denominator.

    Returns (den, pairs, bound): ``pairs`` maps each move of the union to
    its numerators in a and b, and bound / den is maxM for lengths k1, k2.
    den is the lcm of 1..max(k1, k2) and of k1 + 1 and k2 + 1, so every
    reciprocal rank involved, a place in a or b or a missing move's, is a
    multiple of 1/den.
    """
    ranks_a = {e.san: rank for rank, e in enumerate(a, 1)}
    ranks_b = {e.san: rank for rank, e in enumerate(b, 1)}
    den = math.lcm(k1 + 1, k2 + 1, *range(2, max(k1, k2) + 1))
    missing_a = den // (k1 + 1)
    missing_b = den // (k2 + 1)
    pairs = {san: (den // ranks_a[san] if san in ranks_a else missing_a,
                   den // ranks_b[san] if san in ranks_b else missing_b)
             for san in ranks_a.keys() | ranks_b.keys()}
    bound = (sum(abs(den // i - missing_b) for i in range(1, k1 + 1))
             + sum(abs(den // j - missing_a) for j in range(1, k2 + 1)))
    return den, pairs, bound


def max_m(k1: int, k2: int) -> float:
    """Footrule sum of two fully disjoint lists: the measure's maximum."""
    if k1 == 0 and k2 == 0:
        raise UndefinedMeasureError("max_m undefined for two empty lists")
    den, _, bound = _exact((), (), k1, k2)
    return bound / den


def _m_and_max(a: RankedList, b: RankedList) -> Tuple[float, float]:
    """M and maxM from one exact pass; int / int division rounds correctly."""
    if not a and not b:
        raise UndefinedMeasureError("m_measure of two empty lists")
    den, pairs, bound = _exact(a, b, len(a), len(b))
    if bound == 0:
        # a single move against an empty list: the disjoint-lists bound
        # collapses to zero, so the normalized distance is undefined
        raise UndefinedMeasureError("m_measure normalizer is zero")
    footrule = sum(abs(na - nb) for na, nb in pairs.values())
    return (bound - footrule) / bound, bound / den


def m_measure(a: RankedList, b: RankedList) -> float:
    """1 − footrule / max_m: reciprocal-rank similarity in [0, 1]."""
    return _m_and_max(a, b)[0]


def _surviving(a: RankedList, min_games: int) -> Tuple[List[MoveStats], int]:
    """The moves with at least ``min_games`` games, and their total games."""
    surviving = [e for e in a if e.games >= min_games]
    total = sum(e.games for e in surviving)
    if total <= 0:
        raise UndefinedMeasureError(
            f"no move with at least {min_games} games survives the filter")
    return surviving, total


def normalize_counts(a: RankedList, min_games: int = 10) -> MoveDistribution:
    """Drop moves below the game threshold and normalize counts to masses."""
    surviving, total = _surviving(a, min_games)
    return {e.san: e.games / total for e in surviving}


def jsd_similarity(p: MoveDistribution, q: MoveDistribution) -> float:
    """1 − sqrt(JSD) with JSD in bits; 1 means identical distributions."""
    divergence = 0.0
    # a fixed summation order, so the last bits do not follow the hash seed
    for san in sorted(p.keys() | q.keys()):
        pi = p.get(san, 0.0)
        qi = q.get(san, 0.0)
        mid = pi + qi
        if pi > 0.0:
            divergence += 0.5 * pi * math.log2(2.0 * pi / mid)
        if qi > 0.0:
            divergence += 0.5 * qi * math.log2(2.0 * qi / mid)
    divergence = min(max(divergence, 0.0), 1.0)
    return 1.0 - math.sqrt(divergence)


def expected_score(a: RankedList, min_games: int = 10) -> Tuple[float, int]:
    """Expected percentage score (White's viewpoint) over surviving moves.

    Returns (percent, total surviving games). Moves are weighted by their
    game counts.
    """
    surviving, total = _surviving(a, min_games)
    points = sum(e.score_percent * e.games / 100.0 for e in surviving)
    return 100.0 * points / total, total


class ComparisonRow(NamedTuple):
    """Per-position comparison output; None marks an undefined cell."""

    position_id: str
    m_measure: Optional[float]
    max_m: Optional[float]
    jsd: Optional[float]
    overlap: Optional[float]


class ExpectedScoreRow(NamedTuple):
    """Per-position expected score and surviving game count per book."""

    position_id: str
    side_to_move: str
    score1: Optional[float]
    games1: Optional[int]
    score2: Optional[float]
    games2: Optional[int]


def _or_none(measure, *args):
    """``measure(*args)``, or None (an undefined cell) where it is undefined."""
    try:
        return measure(*args)
    except UndefinedMeasureError:
        return None


def compare_position(position_id: str, a: RankedList, b: RankedList,
                     min_games: int = 10) -> ComparisonRow:
    """One comparison row: overlap and M on full lists, JSD on filtered ones.

    Undefined component measures become None cells instead of failing the
    whole row.
    """
    overlap_value = _or_none(overlap, a, b)
    m_value, max_value = _or_none(_m_and_max, a, b) or (None, None)
    jsd_value = _or_none(lambda: jsd_similarity(normalize_counts(a, min_games),
                                                normalize_counts(b, min_games)))
    return ComparisonRow(position_id, m_value, max_value, jsd_value, overlap_value)


def expected_score_row(position_id: str, side_to_move: str,
                       a: RankedList, b: RankedList,
                       min_games: int = 10) -> ExpectedScoreRow:
    """One expected-score row; undefined book sides become None cells."""
    score1, games1 = _or_none(expected_score, a, min_games) or (None, None)
    score2, games2 = _or_none(expected_score, b, min_games) or (None, None)
    return ExpectedScoreRow(position_id, side_to_move, score1, games1, score2, games2)
