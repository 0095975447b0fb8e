"""Reference implementations that tests compare the library against."""

import math
from typing import List

from openbook.book import RankedMove
from openbook.measures import MoveDistribution
from openbook.rules import Position, _canonical_ep


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


def normalize(p: Position) -> Position:
    """Drop a meaningless en-passant target (no legal capture onto it)."""
    if _canonical_ep(p) != p.ep:
        return p._replace(ep=None)
    return p
