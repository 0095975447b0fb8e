"""Reference implementations that tests compare the library against."""

import math
from typing import List

from openbook.book import RankedMove
from openbook.measures import MoveDistribution
from openbook.rules import WHITE, Position, _attacked, legal_moves
from openbook.stats import StatsError


def ranked_from_counts(counts) -> List[RankedMove]:
    """Build a ranked list straight from (san, games) pairs or a dict.

    Result tallies are unknown, so score_percent is 0. Useful for feeding
    externally collected count tables into the measures.
    """
    items = counts.items() if hasattr(counts, "items") else counts
    ordered = sorted(items, key=lambda kv: (-kv[1], kv[0]))
    return [RankedMove(i + 1, san, games, 0.0)
            for i, (san, games) in enumerate(ordered)]


def jsd_entropy_form(p: MoveDistribution, q: MoveDistribution) -> float:
    """Independent JSD route via entropies: H((p+q)/2) − H(p)/2 − H(q)/2."""
    def entropy(dist):
        return -sum(x * math.log2(x) for x in dist if x > 0.0)
    support = sorted(p.keys() | q.keys())
    pv = [p.get(s, 0.0) for s in support]
    qv = [q.get(s, 0.0) for s in support]
    mid = [(x + y) / 2.0 for x, y in zip(pv, qv)]
    return entropy(mid) - entropy(pv) / 2.0 - entropy(qv) / 2.0


def pearson_xy(x, y) -> float:
    """Product-moment correlation of two vectors, one mean and one sum each;
    StatsError if either is constant."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm = x - x.mean()
    ym = y - y.mean()
    denominator = math.sqrt(float((xm * xm).sum()) * float((ym * ym).sum()))
    if denominator == 0.0:
        raise StatsError("correlation undefined: constant column")
    return float((xm * ym).sum()) / denominator


def normalize(p: Position) -> Position:
    """Drop a meaningless en-passant target (no legal capture onto it)."""
    if p.ep is not None and not any(m.en_passant for m in legal_moves(p)):
        return p._replace(ep=None)
    return p


def is_check(p: Position) -> bool:
    """Whether the side to move is attacked on its king's square."""
    white = p.turn == WHITE
    return _attacked(p.board, p.kings[0] if white else p.kings[1], not white)
