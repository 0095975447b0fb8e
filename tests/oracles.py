"""Reference implementations that tests compare the library against."""

import math
import re
from typing import List

from openbook.book import MoveStats
from openbook.measures import MoveDistribution
from openbook.pgn import GameRecord, _finish_game
from openbook.rules import (
    WHITE,
    IllegalMoveError,
    Position,
    _apply,
    _attacked,
    emit_san,
    legal_moves,
    parse_fen,
    parse_san,
    position_key,
)
from openbook.stats import StatsError


def recorded(moves, result) -> GameRecord:
    """The record that parse_pgn_stream makes of a game with no tags, the
    mainline ``moves`` and ``result``: it carries the plies of all its
    moves, or None if ``result`` is "*". It comes from ``_finish_game``,
    where parse_pgn_stream decides each game's verdict, so no file is
    written for it."""
    record = _finish_game({}, " ".join(moves) + " " + result, 1, len(moves))
    assert isinstance(record, GameRecord), record
    return record


def reference_book(games, depth: int, min_rating=None):
    """The game count and the counts of the book that ``games`` give at
    ``depth``, each game a (fen, tokens, result, elos) with ``elos`` its
    WhiteElo and BlackElo tag values (None where a tag is absent).

    A game enters the book if its result is not "*", every token replays,
    and, with ``min_rating``, both elos are ASCII digits at or above it.
    The counts map each key and SAN to [games, white wins, draws, black
    wins] over the game's first ``depth`` plies, replayed one Position per
    ply through parse_san, emit_san, position_key and _apply.
    """
    entered = 0
    counts: dict = {}
    for fen, tokens, result, elos in games:
        if result == "*" or min_rating is not None and not all(
                elo is not None and re.fullmatch("[0-9]+", elo) and int(elo) >= min_rating
                for elo in elos):
            continue
        pos, plies = parse_fen(fen), []
        try:
            for token in tokens:
                move = parse_san(pos, token)
                plies.append((position_key(pos), emit_san(pos, move)))
                pos = _apply(pos, move)
        except IllegalMoveError:
            continue
        entered += 1
        for key, san in plies[:depth]:
            entry = counts.setdefault(key, {}).setdefault(san, [0, 0, 0, 0])
            entry[0] += 1
            entry[1 + ("1-0", "1/2-1/2", "0-1").index(result)] += 1
    return entered, counts


def ranked_from_counts(counts) -> List[MoveStats]:
    """Build a ranked list straight from (san, games) pairs or a dict.

    Result tallies are unknown, so every game counts as a Black win and
    score_percent is 0. Useful for feeding externally collected count
    tables into the measures.
    """
    items = counts.items() if hasattr(counts, "items") else counts
    ordered = sorted(items, key=lambda kv: (-kv[1], kv[0]))
    return [MoveStats(san, games, 0, 0, games) for san, games in ordered]


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
