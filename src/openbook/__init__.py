"""Chess opening-book construction and similarity analysis."""

from .book import Book, MoveStats, RankedMove, build_book, load_book, merge_books, query, save_book
from .measures import (
    ComparisonRow,
    ExpectedScoreRow,
    UndefinedMeasureError,
    compare_position,
    expected_score,
    jsd_similarity,
    m_measure,
    max_m,
    normalize_counts,
    overlap,
)
from .pgn import GameRecord, MalformedGame, filter_games, parse_pgn_stream
from .rules import (
    FenError,
    IllegalMoveError,
    Move,
    Position,
    apply_move,
    emit_fen,
    emit_san,
    legal_moves,
    parse_fen,
    parse_san,
    perft,
    position_key,
)
from .stats import BootstrapResult, PairedSample, bootstrap_ci, pearson, summarize
from .suite import SuiteEntry, parse_epd_suite

__version__ = "0.1.0"
